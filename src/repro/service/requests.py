"""Verification request shapes: parsing, budgets, keys, execution.

A request is a plain-data description of one unit of verification work,
validated against the protocol/channel registries at parse time so a
typo is a ``bad_request`` at the front door, never a worker-pool crash.
Each request knows three things:

* its **cache address** -- ``(cache_kind, job_key)``, computed through
  the *same* public key functions the cached verification layer uses
  (:func:`repro.analysis.cache.explore_report_key`,
  :func:`~repro.analysis.cache.stabilize_report_key`, and the fabric
  planner's plan fingerprint).  This is the key-discipline contract: the
  service coalescer and the ``ResultCache`` warm probe can never
  disagree about what "the same work" means, so a request keyed while a
  computation is still in flight attaches to it instead of recomputing;
* its **budget** against the server's :class:`ServiceLimits` -- a
  request asking for more states/steps than the cap is refused with a
  typed ``budget_exceeded`` at admission, before any work starts;
* how to **execute** itself against a shared cache, returning a
  JSON-friendly outcome stripped of timing fields (so coalesced, warm,
  and computed answers to the same request are byte-identical) and
  raising :class:`~repro.service.protocol.BudgetExceeded` with partial
  metrics when the existing ``StepBudgetExceeded`` / truncation
  machinery reports an exhausted budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.cache import ENGINES
from repro.service.protocol import (
    VERIFY_KINDS,
    BadRequest,
    BudgetExceeded,
)


@dataclass(frozen=True)
class ServiceLimits:
    """Per-request budget caps and the admission gate's depth limit.

    Attributes:
        max_states: largest exploration/stabilization state budget a
            request may ask for.
        max_steps: largest per-run step budget a campaign request may
            ask for.
        max_queue_depth: in-flight job ceiling; a cold request arriving
            above it is shed with a typed ``busy`` response.
        run_timeout: wall-second supervision budget per campaign cell.
    """

    max_states: int = 200_000
    max_steps: int = 100_000
    max_queue_depth: int = 16
    run_timeout: float = 60.0


def _field(params: Dict[str, object], name: str, default, types) -> object:
    value = params.get(name, default)
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise BadRequest(
            f"parameter {name!r} must be {types!r}, got {value!r}", field=name
        )
    return value


def _optional_count(
    params: Dict[str, object], name: str, minimum: int
) -> Optional[int]:
    """``params[name]`` as null or a non-bool integer ``>= minimum``."""
    value = params.get(name)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise BadRequest(
            f"{name} must be null or an integer >= {minimum}, got {value!r}",
            field=name,
        )
    return value


def _items(params: Dict[str, object], name: str = "input") -> Tuple[str, ...]:
    value = params.get(name, [])
    if isinstance(value, str):
        value = [item for item in value.split(",") if item]
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise BadRequest(
            f"parameter {name!r} must be a list of strings", field=name
        )
    return tuple(value)


def _known_names(field: Optional[str]):
    from repro.channels import channel_names
    from repro.protocols import protocol_names

    if field == "protocol":
        return list(protocol_names())
    if field == "channel":
        return list(channel_names())
    return None


def _build_system(
    protocol: str, channel: str, items: Tuple[str, ...]
):
    """A live :class:`System`, with registry errors mapped to bad_request.

    Delegates to the fabric sweep builder so the service and the sweep
    cells construct byte-identical systems -- that shared construction
    is what lets a service request and a fabric sweep address the same
    cache entry.
    """
    from repro.fabric.spec import FabricError
    from repro.fabric.sweep import build_explore_system

    try:
        return build_explore_system(protocol, channel, items)
    except FabricError as error:
        field = getattr(error, "field", None)
        details = {"field": field, "known": _known_names(field)}
        raise BadRequest(
            str(error),
            **{key: value for key, value in details.items() if value},
        ) from None


@dataclass(frozen=True)
class ExploreRequest:
    """Exhaustive exploration of one protocol x channel x input system."""

    protocol: str
    channel: str
    items: Tuple[str, ...]
    max_states: int = 100_000
    include_drops: bool = True
    engine: str = "scalar"
    reduce: bool = False

    kind = "explore"
    cache_kind = "explore"

    @classmethod
    def parse(
        cls, params: Dict[str, object], limits: ServiceLimits
    ) -> "ExploreRequest":
        known = {
            "protocol", "channel", "input", "max_states",
            "include_drops", "engine", "reduce",
        }
        unknown = set(params) - known
        if unknown:
            raise BadRequest(
                f"unknown explore parameters: {sorted(unknown)}",
                known=sorted(known),
            )
        engine = _field(params, "engine", "scalar", str)
        if engine not in ENGINES:
            raise BadRequest(
                f"unknown engine {engine!r}", field="engine", known=list(ENGINES)
            )
        reduce = bool(_field(params, "reduce", False, bool))
        if reduce and engine != "batched":
            raise BadRequest(
                "reduce=true requires engine='batched'", field="reduce"
            )
        max_states = int(_field(params, "max_states", 100_000, int))
        if max_states < 1:
            raise BadRequest("max_states must be >= 1", field="max_states")
        if max_states > limits.max_states:
            raise BudgetExceeded(
                f"max_states {max_states} exceeds the server cap "
                f"{limits.max_states}",
                requested=max_states,
                cap=limits.max_states,
                budget="max_states",
            )
        request = cls(
            protocol=str(_field(params, "protocol", "norepeat", str)),
            channel=str(_field(params, "channel", "dup", str)),
            items=_items(params),
            max_states=max_states,
            include_drops=bool(_field(params, "include_drops", True, bool)),
            engine=engine,
            reduce=reduce,
        )
        request.system()  # registry validation at the front door
        return request

    def system(self):
        return _build_system(self.protocol, self.channel, self.items)

    def job_key(self) -> str:
        from repro.analysis.cache import explore_report_key

        return explore_report_key(
            self.system(),
            max_states=self.max_states,
            include_drops=self.include_drops,
            reduce=self.reduce,
        )

    def sweep_cells(self):
        """The fabric sweep cells computing this request's answer.

        A single-member explore sweep: one self-describing cell whose
        id *is* this request's job key, so a worker pool completing the
        cell publishes exactly the payload :meth:`execute` would have
        cached -- the enqueue-dispatch service mode rides on this.
        """
        from repro.fabric.sweep import SweepSpec, plan_sweep

        spec = SweepSpec(
            kind="explore",
            protocols=(self.protocol,),
            channels=(self.channel,),
            inputs=(self.items,),
            max_states=self.max_states,
            include_drops=self.include_drops,
            reduce=self.reduce,
        )
        return plan_sweep(spec).cells

    def execute(
        self, cache, limits: ServiceLimits, heartbeat=None
    ) -> Dict[str, object]:
        from repro.analysis.cache import cached_explore

        report = cached_explore(
            self.system(),
            max_states=self.max_states,
            include_drops=self.include_drops,
            cache=cache,
            engine=self.engine,
            reduce=self.reduce,
        )
        return self.outcome(report)

    def outcome(self, report) -> Dict[str, object]:
        """The timing-free JSON projection of an exploration report.

        Raises :class:`BudgetExceeded` (with the partial counts) when
        the search truncated at its state budget -- the explore-side
        face of the step-budget machinery.  Applied to warm cache hits
        too, so a truncated report answers identically however it was
        reached.
        """
        payload: Dict[str, object] = {
            "states": report.states,
            "expanded_states": report.expanded_states,
            "peak_frontier": report.peak_frontier,
            "all_safe": report.all_safe,
            "completion_reachable": report.completion_reachable,
            "truncated": report.truncated,
            "violation_path": (
                [repr(event) for event in report.violation_path]
                if report.violation_path is not None
                else None
            ),
        }
        if report.truncated:
            raise BudgetExceeded(
                f"exploration exhausted its {self.max_states}-state budget",
                budget="max_states",
                requested=self.max_states,
                partial=payload,
            )
        return payload


@dataclass(frozen=True)
class StabilizeRequest:
    """Corrupted-start stabilization analysis of one system.

    ``engine`` is validated at the front door for wire compatibility but
    selects nothing: there is one multi-source BFS.
    """

    protocol: str
    channel: str
    items: Tuple[str, ...]
    domain: Tuple[str, ...]
    max_states: int = 100_000
    include_drops: bool = True
    corruption: str = "full"
    channel_depth: Optional[int] = None
    sample: Optional[int] = None
    seed: int = 0
    engine: str = "batched"
    reduce: bool = False
    capacity: int = 1

    kind = "stabilize"
    cache_kind = "stabilize"

    @classmethod
    def parse(
        cls, params: Dict[str, object], limits: ServiceLimits
    ) -> "StabilizeRequest":
        known = {
            "protocol", "channel", "input", "domain", "max_states",
            "include_drops", "corruption", "channel_depth", "sample",
            "seed", "engine", "reduce", "capacity",
        }
        unknown = set(params) - known
        if unknown:
            raise BadRequest(
                f"unknown stabilize parameters: {sorted(unknown)}",
                known=sorted(known),
            )
        engine = _field(params, "engine", "batched", str)
        if engine not in ENGINES:
            raise BadRequest(
                f"unknown engine {engine!r}", field="engine", known=list(ENGINES)
            )
        from repro.resilience.stabilize import CORRUPTION_MODES

        corruption = _field(params, "corruption", "full", str)
        if corruption not in CORRUPTION_MODES:
            raise BadRequest(
                f"unknown corruption mode {corruption!r}",
                field="corruption",
                known=list(CORRUPTION_MODES),
            )
        max_states = int(_field(params, "max_states", 100_000, int))
        if max_states < 1:
            raise BadRequest("max_states must be >= 1", field="max_states")
        if max_states > limits.max_states:
            raise BudgetExceeded(
                f"max_states {max_states} exceeds the server cap "
                f"{limits.max_states}",
                requested=max_states,
                cap=limits.max_states,
                budget="max_states",
            )
        items = _items(params)
        extra = _items(params, "domain")
        capacity = int(_field(params, "capacity", 1, int))
        if capacity < 1:
            raise BadRequest("capacity must be >= 1", field="capacity")
        request = cls(
            protocol=str(_field(params, "protocol", "ss-arq", str)),
            channel=str(_field(params, "channel", "lossy-fifo", str)),
            items=items,
            domain=tuple(sorted(set(items) | set(extra))) or ("a",),
            max_states=max_states,
            include_drops=bool(_field(params, "include_drops", True, bool)),
            corruption=str(corruption),
            channel_depth=_optional_count(params, "channel_depth", 0),
            sample=_optional_count(params, "sample", 1),
            seed=int(_field(params, "seed", 0, int)),
            engine=str(engine),
            reduce=bool(_field(params, "reduce", False, bool)),
            capacity=capacity,
        )
        request.system()
        return request

    def system(self):
        from repro.fabric.spec import FabricError
        from repro.fabric.sweep import build_stabilize_system

        try:
            return build_stabilize_system(
                self.protocol,
                self.channel,
                self.items,
                self.domain,
                capacity=self.capacity,
            )
        except FabricError as error:
            field = getattr(error, "field", None)
            details = {"field": field, "known": _known_names(field)}
            raise BadRequest(
                str(error),
                **{key: value for key, value in details.items() if value},
            ) from None

    def job_key(self) -> str:
        from repro.analysis.cache import stabilize_report_key

        return stabilize_report_key(
            self.system(),
            max_states=self.max_states,
            include_drops=self.include_drops,
            corruption=self.corruption,
            channel_depth=self.channel_depth,
            sample=self.sample,
            seed=self.seed,
            reduce=self.reduce,
            domain=self.domain,
        )

    def sweep_cells(self):
        """The fabric sweep cells computing this request's answer.

        A single-member, single-shard stabilize sweep.  The member
        domain rule reproduces ``self.domain`` exactly (the parse-time
        domain already includes the input items), so the member's
        result key equals this request's job key and the worker's
        opportunistic merge publishes under it.
        """
        from repro.fabric.sweep import SweepSpec, plan_sweep

        spec = SweepSpec(
            kind="stabilize",
            protocols=(self.protocol,),
            channels=(self.channel,),
            inputs=(self.items,),
            max_states=self.max_states,
            include_drops=self.include_drops,
            reduce=self.reduce,
            corruption=self.corruption,
            channel_depth=self.channel_depth,
            sample=self.sample,
            seed=self.seed,
            capacity=self.capacity,
            shards=1,
            domain=self.domain,
        )
        return plan_sweep(spec).cells

    def execute(
        self, cache, limits: ServiceLimits, heartbeat=None
    ) -> Dict[str, object]:
        from repro.analysis.cache import cached_stabilize
        from repro.kernel.errors import VerificationError

        try:
            result = cached_stabilize(
                self.system(),
                cache=cache,
                reduce=self.reduce,
                sample=self.sample,
                seed=self.seed,
                max_states=self.max_states,
                channel_depth=self.channel_depth,
                include_drops=self.include_drops,
                corruption=self.corruption,
                domain=self.domain,
            )
        except VerificationError as error:
            # The corrupted-start explorer refuses to judge a truncated
            # graph: state-budget exhaustion surfaces as a hard error,
            # which the service renders as the typed budget failure.
            if "max_states" not in str(error):
                raise
            raise BudgetExceeded(
                str(error),
                budget="max_states",
                requested=self.max_states,
                partial={},
            ) from None
        return self.outcome(result)

    def outcome(self, result) -> Dict[str, object]:
        """The JSON projection of a stabilization result.

        A non-stabilizing protocol is a *finding*, not an error.
        """
        return dict(result.summary())


@dataclass(frozen=True)
class CampaignRequest:
    """One fabric campaign grid: plan, compute cold cells, merge.

    ``params["spec"]`` is a :class:`repro.fabric.spec.FabricSpec` JSON
    form; the job key is the fabric planner's plan fingerprint, so a
    service campaign request, a ``stp-repro fabric run``, and any
    pull-based worker all address the same cells in the same store.
    """

    spec_payload: Tuple[Tuple[str, object], ...]
    rng_seed: int = 0
    rng_path: str = "fabric"

    kind = "campaign"
    cache_kind = "campaign"

    @classmethod
    def parse(
        cls, params: Dict[str, object], limits: ServiceLimits
    ) -> "CampaignRequest":
        known = {"spec", "rng_seed", "rng_path"}
        unknown = set(params) - known
        if unknown:
            raise BadRequest(
                f"unknown campaign parameters: {sorted(unknown)}",
                known=sorted(known),
            )
        spec_payload = params.get("spec")
        if not isinstance(spec_payload, dict):
            raise BadRequest(
                "campaign requests need a 'spec' object "
                "(a FabricSpec JSON form)",
                field="spec",
            )
        request = cls(
            spec_payload=tuple(sorted(spec_payload.items())),
            rng_seed=int(_field(params, "rng_seed", 0, int)),
            rng_path=str(_field(params, "rng_path", "fabric", str)),
        )
        spec = request.spec()  # validates fields, protocol, adversary
        if spec.max_steps > limits.max_steps:
            raise BudgetExceeded(
                f"max_steps {spec.max_steps} exceeds the server cap "
                f"{limits.max_steps}",
                requested=spec.max_steps,
                cap=limits.max_steps,
                budget="max_steps",
            )
        return request

    def spec(self):
        from repro.fabric.spec import FabricError, FabricSpec

        try:
            return FabricSpec.from_dict(dict(self.spec_payload))
        except (FabricError, TypeError) as error:
            raise BadRequest(
                f"invalid campaign spec: {error}", field="spec"
            ) from None

    def plan(self):
        from repro.fabric.planner import plan_cells

        return plan_cells(
            self.spec(), rng_seed=self.rng_seed, rng_path=self.rng_path
        )

    def job_key(self) -> str:
        return self.plan().plan_fingerprint

    def execute(
        self, cache, limits: ServiceLimits, heartbeat=None
    ) -> Dict[str, object]:
        """Compute the grid's cold cells under supervision and merge.

        Cell discipline is the fabric worker's: warm-probe the shared
        store first, run each cold cell under the request's own
        :class:`~repro.resilience.runner.CellSupervisor` -- one
        long-lived supervised child per request, respawned after a
        failed cell -- calling ``heartbeat`` to keep the job ledger's
        lease fresh, and publish before proceeding.  The merged outcome
        is published under the plan fingerprint
        (:data:`repro.fabric.planner.CAMPAIGN_OUTCOME_KIND`) so
        identical future requests warm-probe straight to it.
        """
        from dataclasses import asdict

        from repro.fabric.merge import merge_outcome, outcome_to_json
        from repro.fabric.planner import (
            CAMPAIGN_CELL_KIND,
            CAMPAIGN_OUTCOME_KIND,
        )
        from repro.resilience.runner import CellSupervisor

        plan = self.plan()
        computed = 0
        with CellSupervisor(
            plan.spec.build_campaign(), plan.rng, limits.run_timeout
        ) as supervisor:
            for cell in plan.cells:
                if cache.get(CAMPAIGN_CELL_KIND, cell.cell_id) is not None:
                    continue
                metrics = supervisor.run(
                    (cell.input_sequence, cell.seed), heartbeat=heartbeat
                )
                cache.put(CAMPAIGN_CELL_KIND, cell.cell_id, metrics)
                computed += 1
        outcome = merge_outcome(plan, cache)
        exhausted = [
            {"input": list(cell.input_sequence), "seed": cell.seed}
            for cell, metrics in zip(plan.cells, outcome.metrics)
            if metrics.step_budget_exhausted
        ]
        if exhausted:
            # StepBudgetExceeded surfaced per-run: the typed error ships
            # the partial summary instead of pretending the grid passed.
            raise BudgetExceeded(
                f"{len(exhausted)} of {len(plan.cells)} runs exhausted "
                f"their {plan.spec.max_steps}-step budget",
                budget="max_steps",
                requested=plan.spec.max_steps,
                partial={
                    "summary": asdict(outcome.summary),
                    "exhausted_cells": exhausted,
                    "cells": len(plan.cells),
                    "computed_cells": computed,
                },
            )
        payload = json.loads(outcome_to_json(outcome))
        payload["plan_fingerprint"] = plan.plan_fingerprint
        payload["cells"] = len(plan.cells)
        cache.put(CAMPAIGN_OUTCOME_KIND, plan.plan_fingerprint, payload)
        return payload


_PARSERS = {
    "explore": ExploreRequest.parse,
    "stabilize": StabilizeRequest.parse,
    "campaign": CampaignRequest.parse,
}


def parse_request(payload: Dict[str, object], limits: ServiceLimits):
    """One validated request object from a decoded wire message.

    Raises :class:`BadRequest` on shape/vocabulary problems and
    :class:`BudgetExceeded` when the request's budgets are over the
    server caps -- both *before* any work is admitted.
    """
    kind = payload.get("kind")
    if kind not in VERIFY_KINDS:
        raise BadRequest(
            f"unknown request kind {kind!r}", known=list(VERIFY_KINDS)
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise BadRequest("'params' must be a JSON object")
    return _PARSERS[kind](params, limits)
