"""Fork-safe aggregation: parallel sweeps leave the same registry as serial.

The tentpole contract of :mod:`repro.obs`: supervised cell children
(behind ``Campaign(workers=N)`` and the resilient runner) record spans
and metrics locally, ship a delta back beside their results, and the
parent's merged registry is bit-identical to what a serial execution
would have accumulated.

A parallel campaign normally refuses to fork on single-core hosts (the
BENCH_PR1 regression guard); these tests bypass that gate so the child
-> delta -> merge path is genuinely exercised wherever ``fork`` exists.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import obs
from repro.analysis.campaign import Campaign
from repro.analysis.perfreport import build_f5_campaign
from repro.kernel.rng import DeterministicRNG

FLEET_SHAPE = ("resilience.cell_children", "resilience.active_children")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


@pytest.fixture
def forced_pool(monkeypatch):
    """Make the campaign fork whenever workers > 1 (even on 1 CPU)."""
    monkeypatch.setattr(
        Campaign,
        "_effective_workers",
        lambda self, grid_size: (
            min(self.workers, grid_size) if self.workers > 1 else 1
        ),
    )


def _run_campaign(workers: int):
    campaign = build_f5_campaign(length=8, seeds=2, workers=workers)
    with obs.scoped() as (tracer, registry):
        outcome = campaign.run(DeterministicRNG(0, "obs-fork-test"))
        return outcome, registry.to_dict(), tracer.spans()


@needs_fork
def test_parallel_campaign_metrics_bit_identical_to_serial(forced_pool):
    serial_outcome, serial_metrics, serial_spans = _run_campaign(workers=1)
    parallel_outcome, parallel_metrics, parallel_spans = _run_campaign(
        workers=4
    )

    assert parallel_outcome.metrics == serial_outcome.metrics
    # The fleet-shape metrics only exist on the parallel path; everything
    # the *workload* recorded must match bit-for-bit.
    workload_metrics = {
        name: state
        for name, state in parallel_metrics.items()
        if name not in FLEET_SHAPE
    }
    assert workload_metrics == serial_metrics, (
        "fork-pool merge must leave the registry bit-identical to serial"
    )
    # Same spans by name; ids were re-assigned by absorb, never colliding.
    assert sorted(s.name for s in parallel_spans) == sorted(
        s.name for s in serial_spans
    )
    ids = [s.span_id for s in parallel_spans]
    assert len(ids) == len(set(ids))
    # Worker spans really crossed a process boundary.
    assert {s.pid for s in parallel_spans} != {os.getpid()}


@needs_fork
def test_parallel_campaign_forks_one_child_per_worker(forced_pool):
    serial_outcome, _, _ = _run_campaign(workers=1)
    parallel_outcome, exported, _ = _run_campaign(workers=4)
    assert 1 <= exported["resilience.cell_children"]["value"] <= 4
    assert parallel_outcome.metrics == serial_outcome.metrics


@needs_fork
def test_recovery_metrics_arrive_through_the_registry():
    """The nightly-CI contract: RecoveryMetrics flow registry-first.

    A faulted campaign under the supervised runner (forked children,
    pipes, retries) must deliver ``recovery.*`` counters and histograms
    into the *parent* registry -- not require scraping traces after the
    fact.  The resilient runner always forks, so no pool bypass is
    needed here.
    """
    from repro.resilience.report import build_chaos_campaign, default_scenarios

    scenario = default_scenarios(quick=True)[0]  # abp-outage
    campaign = build_chaos_campaign(scenario, seeds=1, workers=2)
    with obs.scoped() as (_, registry):
        campaign.run_resilient(
            DeterministicRNG(0, "obs-recovery-test"),
            run_timeout=60.0,
            retries=1,
            workers=2,
        )
        exported = registry.to_dict()

    assert exported["recovery.faults"]["value"] > 0
    for name in (
        "recovery.time_to_resync",
        "recovery.retransmissions",
        "recovery.wasted_steps",
    ):
        assert exported[name]["kind"] == "histogram"
        assert exported[name]["count"] > 0, f"{name} never observed"
