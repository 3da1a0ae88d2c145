"""Request parsing, budgets at admission, and the key-discipline contract."""

from __future__ import annotations

import pytest

from repro.analysis.cache import (
    ResultCache,
    cached_explore,
    explore_report_key,
    stabilize_report_key,
)
from repro.service.protocol import BadRequest, BudgetExceeded
from repro.service.requests import (
    CampaignRequest,
    ExploreRequest,
    ServiceLimits,
    StabilizeRequest,
    parse_request,
)

LIMITS = ServiceLimits()


def _parse(kind, **params):
    return parse_request({"kind": kind, "params": params}, LIMITS)


# -- validation at the front door ---------------------------------------


def test_unknown_kind_is_bad_request():
    with pytest.raises(BadRequest, match="kind"):
        parse_request({"kind": "teleport", "params": {}}, LIMITS)


def test_params_must_be_an_object():
    with pytest.raises(BadRequest, match="params"):
        parse_request({"kind": "explore", "params": [1, 2]}, LIMITS)


def test_unknown_parameter_is_bad_request():
    with pytest.raises(BadRequest, match="max_statez") as info:
        _parse("explore", protocol="norepeat", channel="dup", max_statez=5)
    assert "known" in info.value.details


def test_unknown_protocol_names_the_registry():
    with pytest.raises(BadRequest) as info:
        _parse("explore", protocol="carrier-pigeon", channel="dup")
    assert "norepeat" in info.value.details["known"]


def test_unknown_channel_names_the_registry():
    with pytest.raises(BadRequest) as info:
        _parse("explore", protocol="norepeat", channel="wormhole")
    assert "dup" in info.value.details["known"]


def test_unknown_engine_is_bad_request():
    with pytest.raises(BadRequest, match="engine"):
        _parse("explore", protocol="norepeat", channel="dup", engine="quantum")


def test_reduce_requires_batched_engine():
    with pytest.raises(BadRequest, match="reduce"):
        _parse(
            "explore", protocol="norepeat", channel="dup",
            engine="scalar", reduce=True,
        )


def test_unknown_corruption_mode_is_bad_request():
    with pytest.raises(BadRequest, match="corruption") as info:
        _parse(
            "stabilize", protocol="ss-arq", channel="lossy-fifo",
            input="a,b", corruption="cosmic-rays",
        )
    assert "full" in info.value.details["known"]


@pytest.mark.parametrize(
    "kind,params",
    [
        ("explore", {"protocol": "norepeat", "channel": "dup"}),
        ("stabilize", {"protocol": "ss-arq", "channel": "lossy-fifo"}),
    ],
    ids=["explore", "stabilize"],
)
def test_vectorized_engine_is_bad_request(kind, params):
    with pytest.raises(BadRequest) as info:
        _parse(kind, input="a,b", engine="vectorized", **params)
    assert info.value.code == "bad_request"
    assert info.value.details["field"] == "engine"
    assert info.value.details["known"] == ["scalar", "batched"]


def _stabilize(**params):
    return _parse(
        "stabilize", protocol="ss-arq", channel="lossy-fifo", input="a,b",
        **params,
    )


def _stabilize_rejects(field, **params):
    with pytest.raises(BadRequest) as info:
        _stabilize(**params)
    assert info.value.details["field"] == field
    return info.value


def test_stabilize_zero_max_states_is_bad_request():
    _stabilize_rejects("max_states", max_states=0)


@pytest.mark.parametrize("sample", [0, -3, True])
def test_stabilize_non_positive_sample_is_bad_request(sample):
    _stabilize_rejects("sample", sample=sample)


def test_stabilize_negative_channel_depth_is_bad_request():
    _stabilize_rejects("channel_depth", channel_depth=-1)


def test_stabilize_bool_channel_depth_is_bad_request():
    _stabilize_rejects("channel_depth", channel_depth=True)


@pytest.mark.parametrize("capacity", [0, -1])
def test_stabilize_non_positive_capacity_is_bad_request(capacity):
    error = _stabilize_rejects("capacity", capacity=capacity)
    assert "channel" not in str(error)


def test_stabilize_boundary_values_are_accepted():
    request = _stabilize(max_states=1, sample=1, channel_depth=0, capacity=1)
    assert (request.sample, request.channel_depth) == (1, 0)
    assert _stabilize(sample=None, channel_depth=None).sample is None


def test_campaign_without_spec_is_bad_request():
    with pytest.raises(BadRequest, match="spec"):
        _parse("campaign", rng_seed=0)


# -- budgets are enforced at admission, before any work -----------------


def test_explore_over_state_cap_is_budget_exceeded():
    with pytest.raises(BudgetExceeded) as info:
        _parse(
            "explore", protocol="norepeat", channel="dup",
            input="a,b", max_states=LIMITS.max_states + 1,
        )
    assert info.value.details["requested"] == LIMITS.max_states + 1
    assert info.value.details["cap"] == LIMITS.max_states


def test_stabilize_over_state_cap_is_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        _parse(
            "stabilize", protocol="ss-arq", channel="lossy-fifo",
            input="a,b", max_states=LIMITS.max_states + 1,
        )


def test_campaign_over_step_cap_is_budget_exceeded():
    from repro.fabric.spec import demo_spec

    spec = demo_spec(inputs=1, seeds=1, length=2)
    payload = dict(spec.to_dict())
    payload["max_steps"] = LIMITS.max_steps + 1
    with pytest.raises(BudgetExceeded) as info:
        _parse("campaign", spec=payload)
    assert info.value.details["budget"] == "max_steps"


def test_truncated_outcome_is_budget_exceeded_with_partial():
    """A truncated report answers budget_exceeded, warm or cold alike."""
    request = _parse(
        "explore", protocol="stenning", channel="dup",
        input="a,b,c,d", max_states=10,
    )
    from repro.verify.explorer import explore

    report = explore(request.system(), max_states=10)
    assert report.truncated
    with pytest.raises(BudgetExceeded) as info:
        request.outcome(report)
    partial = info.value.details["partial"]
    assert partial["truncated"] is True
    assert partial["states"] >= 1


# -- the key-discipline contract ----------------------------------------
#
# A request's job key must be byte-equal to what the cached verification
# layer publishes under, or the coalescer and the warm probe disagree
# about what "the same work" means.


def test_explore_job_key_matches_public_key_function():
    request = _parse(
        "explore", protocol="norepeat", channel="dup", input="a,b,c"
    )
    assert isinstance(request, ExploreRequest)
    assert request.job_key() == explore_report_key(
        request.system(),
        max_states=request.max_states,
        include_drops=request.include_drops,
        reduce=request.reduce,
    )


def test_stabilize_job_key_matches_public_key_function():
    request = _parse(
        "stabilize", protocol="ss-arq", channel="lossy-fifo", input="a,b"
    )
    assert isinstance(request, StabilizeRequest)
    assert request.job_key() == stabilize_report_key(
        request.system(),
        max_states=request.max_states,
        include_drops=request.include_drops,
        corruption=request.corruption,
        channel_depth=request.channel_depth,
        sample=request.sample,
        seed=request.seed,
        reduce=request.reduce,
        domain=request.domain,
    )


def test_cached_explore_population_is_warm_for_the_request(tmp_path):
    """Work published by the library layer is warm for the service."""
    cache = ResultCache(tmp_path / "store")
    request = _parse(
        "explore", protocol="norepeat", channel="dup", input="a,b"
    )
    cached_explore(
        request.system(),
        max_states=request.max_states,
        include_drops=request.include_drops,
        cache=cache,
    )
    assert cache.get(request.cache_kind, request.job_key()) is not None


def test_request_execution_warms_the_library_layer(tmp_path):
    """And the reverse: service-computed work is warm for the library."""
    cache = ResultCache(tmp_path / "store")
    request = _parse(
        "explore", protocol="norepeat", channel="dup", input="a,b"
    )
    request.execute(cache, LIMITS)
    before = cache.stats()["hits"]
    cached_explore(
        request.system(),
        max_states=request.max_states,
        include_drops=request.include_drops,
        cache=cache,
    )
    assert cache.stats()["hits"] == before + 1


def test_campaign_job_key_is_the_plan_fingerprint():
    from repro.fabric.spec import demo_spec

    spec = demo_spec(inputs=2, seeds=1, length=4)
    request = _parse("campaign", spec=spec.to_dict())
    assert isinstance(request, CampaignRequest)
    assert request.job_key() == request.plan().plan_fingerprint
    # Key stability under JSON object ordering: same spec, different
    # dict insertion order, same fingerprint.
    shuffled = dict(reversed(list(spec.to_dict().items())))
    again = _parse("campaign", spec=shuffled)
    assert again.job_key() == request.job_key()


def test_stabilize_outcome_strips_engine_details(tmp_path):
    """Engine/shards are execution details, not part of the answer."""
    cache = ResultCache(tmp_path / "store")
    request = _parse(
        "stabilize", protocol="ss-arq", channel="lossy-fifo",
        input="a,b", max_states=150_000,
    )
    outcome = request.execute(cache, LIMITS)
    assert "engine" not in outcome
    assert "shards" not in outcome
    assert outcome["converges"] is True


# -- enqueue dispatch: requests decompose into fabric sweep cells -------
#
# In dispatch="enqueue" mode the pool publishes these cells instead of
# executing inline, so the cell keys MUST be the request's own job key
# -- otherwise the poll for the result would never see the fabric
# worker's publication.


def test_explore_sweep_cells_carry_the_job_key():
    request = _parse(
        "explore", protocol="norepeat", channel="dup", input="a,b"
    )
    (cell,) = request.sweep_cells()
    assert cell.kind == "explore"
    assert cell.cell_id == request.job_key()
    assert cell.result_key == request.job_key()
    assert cell.protocol == "norepeat"
    assert cell.input_sequence == ("a", "b")


def test_stabilize_sweep_cells_merge_onto_the_job_key():
    from repro.analysis.cache import stabilize_shard_key

    request = _parse(
        "stabilize", protocol="ss-arq", channel="lossy-fifo",
        input="a,b", seed=7, sample=50,
    )
    (cell,) = request.sweep_cells()
    assert cell.kind == "stabilize"
    assert cell.result_key == request.job_key()
    assert cell.cell_id == stabilize_shard_key(request.job_key(), 0, 1)
    # Every analysis knob rides along, so a remote worker reproduces
    # the exact same fingerprint.
    assert cell.seed == 7
    assert cell.sample == 50
    assert cell.domain == request.domain


def test_sweep_cell_execution_is_warm_for_the_request(tmp_path):
    """A fabric worker executing the request's cell satisfies its poll."""
    from repro.analysis.cache import CompiledTableCache
    from repro.fabric.cells import execute_sweep_cell

    cache = ResultCache(tmp_path / "store")
    request = _parse(
        "explore", protocol="norepeat", channel="dup", input="a,b"
    )
    (cell,) = request.sweep_cells()
    execute_sweep_cell(cell, cache, CompiledTableCache(cache))
    result = cache.get(request.cache_kind, request.job_key())
    assert result is not None
    assert request.outcome(result)["all_safe"] is True
