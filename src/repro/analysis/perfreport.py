"""Perf observability: timing records and the PR-over-PR BENCH file.

Every performance claim in this repository flows through one artifact:
``BENCH_PR10.json`` at the repo root (previously ``BENCH_PR1``..``PR8``),
written by ``stp-repro bench`` and by the benchmark harness
(``benchmarks/conftest.py``).  Tracking the file PR over PR turns "we
made it faster" into a diffable trajectory; the committed previous-PR
artifact is the baseline the CI ``perf-gate`` job compares against
(``benchmarks/perf_gate.py``).

Schema (``repro-perf/1``)::

    {
      "schema": "repro-perf/1",
      "label": "bench",
      "python": "3.11.7",
      "platform": "linux",
      "cpu_count": 8,             # logical CPUs on the machine
      "cpu_count_available": 2,   # CPUs this process may run on (cgroups,
                                  # affinity masks -- what pools size to)
      "records": [
        {
          "name": "experiment:T2",
          "wall_seconds": 1.83,
          "runs": 40,                  # optional: simulation runs timed
          "states": 5244,              # optional: explorer states discovered
          "states_per_second": 34000.0,# optional: explorer throughput
          "extra": {...}               # free-form details (speedups, grid
        }                              # shapes, worker counts, ...)
      ],
      "spans": [...],                  # optional: per-name span aggregates
      "metrics": {...}                 # optional: metrics-registry export
    }

The ``spans:`` and ``metrics:`` sections are the perf-report bridge of
the observability layer (:mod:`repro.obs`): when collection was on while
the report was built, :meth:`PerfReport.attach_observability` folds the
span aggregates and the full metrics registry into the artifact, so one
BENCH file answers both "how long" and "where did the time and states
go".

All numbers are wall-clock; the subject is whole experiments and sweeps,
not microseconds.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs

BENCH_SCHEMA = "repro-perf/1"
BENCH_FILENAME = "BENCH_PR10.json"


@dataclass
class PerfRecord:
    """One timed unit of work.

    Attributes:
        name: stable identifier ("experiment:T2", "explore:t2-dup",
            "campaign:f5-parallel").
        wall_seconds: elapsed wall time.
        runs: simulation runs executed under the clock, when meaningful.
        states: explorer states discovered, when meaningful.
        states_per_second: explorer expansion throughput, when meaningful.
        extra: free-form JSON-serializable details.
    """

    name: str
    wall_seconds: float
    runs: Optional[int] = None
    states: Optional[int] = None
    states_per_second: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)


class PerfReport:
    """An append-only collection of :class:`PerfRecord` with a JSON form."""

    def __init__(self, label: str = "bench") -> None:
        self.label = label
        self.records: List[PerfRecord] = []
        self.spans: Optional[List[Dict[str, object]]] = None
        self.metrics: Optional[Dict[str, Dict[str, object]]] = None

    def add(
        self,
        name: str,
        wall_seconds: float,
        runs: Optional[int] = None,
        states: Optional[int] = None,
        states_per_second: Optional[float] = None,
        **extra,
    ) -> PerfRecord:
        """Append one record and return it."""
        record = PerfRecord(
            name=name,
            wall_seconds=wall_seconds,
            runs=runs,
            states=states,
            states_per_second=states_per_second,
            extra=extra,
        )
        self.records.append(record)
        return record

    def measure(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under the wall clock, record it, return its result."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(name, time.perf_counter() - start)
        return result

    def attach_observability(self) -> None:
        """Fold the live span/metrics collectors into this report.

        Populates the ``spans:`` (per-name aggregates) and ``metrics:``
        (registry export) sections of :meth:`to_dict` from the process
        collectors of :mod:`repro.obs`.  Call after the measured work,
        while collection is still enabled; a no-op-shaped result (both
        sections empty) is attached when nothing was collected.
        """
        sections = obs.export_sections()
        self.spans = sections["spans"]  # type: ignore[assignment]
        self.metrics = sections["metrics"]  # type: ignore[assignment]

    def to_dict(self) -> Dict[str, object]:
        """The JSON-serializable form (see module docstring for schema)."""
        from repro.analysis.hostinfo import (
            available_cpu_count,
            logical_cpu_count,
        )

        payload: Dict[str, object] = {
            "schema": BENCH_SCHEMA,
            "label": self.label,
            "python": platform.python_version(),
            "platform": sys.platform,
            # Both views: the machine's width for hardware context, the
            # schedulable width (cgroup quotas, affinity masks) that
            # actually bounds this run's parallelism.
            "cpu_count": logical_cpu_count(),
            "cpu_count_available": available_cpu_count(),
            "records": [asdict(record) for record in self.records],
        }
        if self.spans is not None:
            payload["spans"] = self.spans
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    def write(self, path=BENCH_FILENAME) -> Path:
        """Write the report as pretty-printed JSON; returns the path."""
        target = Path(path)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target

    def render(self) -> str:
        """A terminal-friendly summary table of the records."""
        lines = [f"perf report [{self.label}]"]
        name_width = max((len(r.name) for r in self.records), default=4)
        for record in self.records:
            parts = [f"{record.name:<{name_width}}  {record.wall_seconds:9.3f}s"]
            if record.runs is not None:
                parts.append(f"runs={record.runs}")
            if record.states is not None:
                parts.append(f"states={record.states}")
            if record.states_per_second is not None:
                parts.append(f"states/s={record.states_per_second:,.0f}")
            for key, value in record.extra.items():
                parts.append(f"{key}={value}")
            lines.append("  " + "  ".join(parts))
        return "\n".join(lines)


def build_f5_campaign(length: int = 12, seeds: int = 4, workers: int = 1):
    """The F5-style throughput workload as a campaign grid.

    The handshake (no-repetition) protocol over ``length`` distinct items
    -- F5's pipelining baseline input -- swept over every prefix length
    from 4 to ``length`` under the fair random adversary.  The grid gives
    a parallel sweep enough independent runs to shard.
    """
    from repro.adversaries import AgingFairAdversary, RandomAdversary
    from repro.analysis.campaign import Campaign
    from repro.channels import DuplicatingChannel
    from repro.protocols.norepeat import norepeat_protocol

    domain = tuple(f"d{index}" for index in range(length))
    sender, receiver = norepeat_protocol(domain)
    inputs = [domain[:cut] for cut in range(4, length + 1)]
    return Campaign(
        sender=sender,
        receiver=receiver,
        channel_factory=DuplicatingChannel,
        inputs=inputs,
        adversary_factory=lambda rng: AgingFairAdversary(
            RandomAdversary(rng, deliver_weight=3.0), patience=64
        ),
        seeds=seeds,
        max_steps=50_000,
        workers=workers,
    )


def measure_campaign_speedup(
    report: PerfReport,
    workers: int = 4,
    length: int = 12,
    seeds: int = 4,
    seed: int = 0,
) -> Dict[str, object]:
    """Time the F5 campaign grid serially and with ``workers`` processes.

    Both outcomes must be identical (the parallel engine's determinism
    contract); records ``campaign:f5-serial`` and ``campaign:f5-parallel``
    and returns the comparison dict stored in the parallel record.
    """
    from dataclasses import replace

    from repro.kernel.rng import DeterministicRNG

    campaign = build_f5_campaign(length=length, seeds=seeds, workers=1)
    start = time.perf_counter()
    serial = campaign.run(DeterministicRNG(seed, "bench-f5"))
    serial_seconds = time.perf_counter() - start

    parallel_campaign = replace(campaign, workers=workers)
    start = time.perf_counter()
    parallel = parallel_campaign.run(DeterministicRNG(seed, "bench-f5"))
    parallel_seconds = time.perf_counter() - start

    comparison = {
        "workers": workers,
        "speedup": (
            serial_seconds / parallel_seconds if parallel_seconds > 0 else 0.0
        ),
        "outcomes_identical": parallel.metrics == serial.metrics,
        "grid": f"{length - 3}x{seeds}",
    }
    report.add(
        "campaign:f5-serial",
        serial_seconds,
        runs=serial.summary.runs,
        states=serial.summary.states,
        states_per_second=(
            serial.summary.states / serial_seconds
            if serial.summary.states and serial_seconds > 0
            else None
        ),
    )
    report.add(
        "campaign:f5-parallel",
        parallel_seconds,
        runs=parallel.summary.runs,
        states=parallel.summary.states,
        states_per_second=(
            parallel.summary.states / parallel_seconds
            if parallel.summary.states and parallel_seconds > 0
            else None
        ),
        **comparison,
    )
    return comparison


def measure_explorer(report: PerfReport) -> None:
    """Record exhaustive-exploration throughput on the T2 dup system."""
    from repro.channels import DuplicatingChannel
    from repro.kernel.system import System
    from repro.protocols.norepeat import norepeat_protocol
    from repro.verify import explore

    sender, receiver = norepeat_protocol("abc")
    system = System(
        sender,
        receiver,
        DuplicatingChannel(),
        DuplicatingChannel(),
        ("a", "b", "c"),
    )
    exploration = explore(system, store_parents=False)
    report.add(
        "explore:t2-dup-abc",
        exploration.elapsed_seconds,
        states=exploration.states,
        states_per_second=exploration.states_per_second,
        peak_frontier=exploration.peak_frontier,
    )


def measure_compiled_explorer(
    report: PerfReport, m: int = 3, rounds: int = 10
) -> Dict[str, object]:
    """Record compiled-table exploration speedup over the T2 family.

    Explores every repetition-free input over alphabet size ``m``
    (exactly experiment T2's exhaustive sweep) with the object-graph
    explorer and again over warm compiled tables, ``rounds`` times each
    to beat timer noise, after first asserting the reports agree in
    every non-timing field.  Records ``explore:t2-family-compiled`` and
    returns its comparison dict.
    """
    from dataclasses import replace

    from repro.channels import DuplicatingChannel
    from repro.kernel.compiled import CompiledSystem
    from repro.kernel.system import System
    from repro.protocols.norepeat import norepeat_protocol
    from repro.verify import explore, explore_compiled
    from repro.workloads import repetition_free_family

    domain = "abcdefgh"[:m]
    sender, receiver = norepeat_protocol(domain)
    systems = [
        System(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            input_sequence,
        )
        for input_sequence in repetition_free_family(domain)
    ]
    tables = [CompiledSystem(system) for system in systems]

    def _stable(record):
        return replace(record, elapsed_seconds=0.0, states_per_second=0.0)

    identical = True
    total_states = 0
    for system, table in zip(systems, tables):
        base = explore(system, store_parents=False)
        fast = explore_compiled(system, store_parents=False, compiled=table)
        total_states += base.states
        identical = identical and _stable(base) == _stable(fast)

    start = time.perf_counter()
    for _ in range(rounds):
        for system in systems:
            explore(system, store_parents=False)
    object_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(rounds):
        for system, table in zip(systems, tables):
            explore_compiled(system, store_parents=False, compiled=table)
    compiled_seconds = time.perf_counter() - start

    comparison = {
        "speedup": (
            object_seconds / compiled_seconds if compiled_seconds > 0 else 0.0
        ),
        "object_seconds": object_seconds,
        "rounds": rounds,
        "inputs": len(systems),
        "reports_identical": identical,
    }
    report.add(
        "explore:t2-family-compiled",
        compiled_seconds,
        states=total_states * rounds,
        states_per_second=(
            total_states * rounds / compiled_seconds
            if compiled_seconds > 0
            else None
        ),
        **comparison,
    )
    return comparison


def measure_batched_explorer(
    report: PerfReport, m: int = 4, rounds: int = 20
) -> Dict[str, object]:
    """Record the frontier engine's speedup over the scalar compiled path.

    The T2 exhaustive sweep re-explores every repetition-free input over
    alphabet size ``m`` -- 65 systems at ``m=4``, each a narrow chain of
    states where per-state loop overhead dominates.  The batched engine
    answers the whole family with one level-synchronous BFS over the
    union of the state spaces (:class:`repro.verify.FrontierFamily`),
    after this probe first asserts its 65 reports agree with the scalar
    engine's in every non-timing field.

    A second timed pass runs the sweep under family-level symmetry
    reduction (one representative per input-renaming isomorphism class)
    and asserts the Safety / completion verdicts are unchanged.

    Records ``explore:t2-family-batched`` and
    ``explore:t2-family-reduced``; returns the batched comparison dict.
    """
    from dataclasses import replace

    from repro.channels import DuplicatingChannel
    from repro.kernel.compiled import CompiledSystem
    from repro.kernel.system import System
    from repro.protocols.norepeat import norepeat_protocol
    from repro.verify import FrontierFamily, explore_compiled
    from repro.workloads import repetition_free_family

    domain = "abcdefgh"[:m]
    sender, receiver = norepeat_protocol(domain)
    systems = [
        System(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            input_sequence,
        )
        for input_sequence in repetition_free_family(domain)
    ]
    tables = [CompiledSystem(system) for system in systems]
    scalar_reports = [
        explore_compiled(system, store_parents=False, compiled=table)
        for system, table in zip(systems, tables)
    ]
    family = FrontierFamily(systems, tables=tables)

    def _stable(record):
        return replace(record, elapsed_seconds=0.0, states_per_second=0.0)

    batched_reports = family.explore()
    identical = all(
        _stable(batched) == _stable(scalar)
        for batched, scalar in zip(batched_reports, scalar_reports)
    )
    reduced_reports = family.explore(reduce=True)
    reduction_ratio = family.last_stats.get("reduction_ratio", 1.0)
    verdicts_identical = all(
        reduced.all_safe == scalar.all_safe
        and reduced.completion_reachable == scalar.completion_reachable
        for reduced, scalar in zip(reduced_reports, scalar_reports)
    )
    total_states = sum(r.states for r in scalar_reports)

    start = time.perf_counter()
    for _ in range(rounds):
        for system, table in zip(systems, tables):
            explore_compiled(system, store_parents=False, compiled=table)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(rounds):
        family.explore()
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(rounds):
        family.explore(reduce=True)
    reduced_seconds = time.perf_counter() - start

    comparison = {
        "speedup": (
            scalar_seconds / batched_seconds if batched_seconds > 0 else 0.0
        ),
        "scalar_seconds": scalar_seconds,
        "rounds": rounds,
        "inputs": len(systems),
        "reports_identical": identical,
    }
    report.add(
        "explore:t2-family-batched",
        batched_seconds,
        states=total_states * rounds,
        states_per_second=(
            total_states * rounds / batched_seconds
            if batched_seconds > 0
            else None
        ),
        **comparison,
    )
    report.add(
        "explore:t2-family-reduced",
        reduced_seconds,
        states=total_states * rounds,
        speedup=(
            scalar_seconds / reduced_seconds if reduced_seconds > 0 else 0.0
        ),
        reduction_ratio=reduction_ratio,
        representatives=family.last_stats.get("representatives"),
        verdicts_identical=verdicts_identical,
        rounds=rounds,
        inputs=len(systems),
    )
    return comparison


def measure_stabilization(
    report: PerfReport, cache=None
) -> Dict[str, object]:
    """Record the corrupted-start sweep on the small lossy-FIFO instance.

    Runs :func:`repro.analysis.cache.cached_stabilize` for plain ABP and
    the self-stabilizing ARQ, unreduced and reduced.  Asserts the reduced
    verdict sheets are
    bit-identical to the unreduced ones and that the qualitative split
    holds: ss-ARQ converges from every corrupt start, ABP does not.

    Records ``stabilize:<protocol>`` and ``stabilize:<protocol>-reduced``
    (each carrying the reduction ratio and depth histogram); returns the
    headline comparison dict.
    """
    from repro.analysis.cache import cached_stabilize
    from repro.channels import LossyFifoChannel
    from repro.kernel.system import System
    from repro.protocols import protocol_by_name

    items = ("a", "b")
    domain = ("a", "b", "c", "d")
    results = {}
    for protocol_name in ("abp", "ss-arq"):
        baseline = None
        for reduce in (False, True):
            sender, receiver = protocol_by_name(
                protocol_name, domain, len(items)
            )
            system = System(
                sender,
                receiver,
                LossyFifoChannel(capacity=1),
                LossyFifoChannel(capacity=1),
                items,
            )
            start = time.perf_counter()
            result = cached_stabilize(
                system, cache=cache, reduce=reduce, domain=domain
            )
            wall = time.perf_counter() - start
            if baseline is None:
                baseline = result
            else:
                assert result.verdicts == baseline.verdicts
            suffix = "-reduced" if reduce else ""
            report.add(
                f"stabilize:{protocol_name}{suffix}",
                wall,
                states=result.explored_states,
                states_per_second=result.states_per_second,
                **result.summary(),
            )
        results[protocol_name] = baseline
    assert results["ss-arq"].converges
    assert not results["abp"].converges
    return {
        "reduction_ratio": results["abp"].reduction_ratio,
        "abp_non_stabilizing": results["abp"].non_stabilizing,
        "ss_arq_max_depth": results["ss-arq"].max_depth,
    }


def measure_fabric_scaling(
    report: PerfReport, worker_counts: Tuple[int, ...] = (1, 2, 4)
) -> Dict[str, object]:
    """Record fabric cells/sec at each worker count, cold and warm.

    Runs the 12-cell demo grid through :func:`repro.fabric.run_fabric`
    at every count in ``worker_counts``, cold (fresh store) and then
    warm (same store), asserting along the way that every cold outcome
    is identical regardless of worker count and that the warm leg never
    claims a single cell -- the content-addressed short-circuit.

    Records ``fabric:cold-w<n>`` per worker count plus the headline
    ``fabric:scaling`` record (cells/sec per count, best parallel
    speedup over one worker); returns the headline's comparison dict.
    Scaling *gates* live in ``benchmarks/bench_p8_fabric.py`` -- they
    are conditional on schedulable CPUs, which a probe that also runs
    on pinned single-CPU containers must not assert.
    """
    import shutil
    import tempfile

    from repro.analysis.cache import ResultCache
    from repro.analysis.hostinfo import available_cpu_count
    from repro.fabric import demo_spec, run_fabric

    spec = demo_spec()
    cells = spec.cell_count
    rates: Dict[str, float] = {}
    reference = None
    total_wall = 0.0
    root = Path(tempfile.mkdtemp(prefix="stp-fabric-bench-"))
    try:
        for workers in worker_counts:
            # A fresh store per worker count keeps every cold leg cold.
            cache = ResultCache(root / f"store-w{workers}")
            start = time.perf_counter()
            cold = run_fabric(
                spec,
                root / f"queue-w{workers}-cold",
                cache,
                workers=workers,
                idle_timeout=30.0,
            )
            cold_wall = time.perf_counter() - start
            start = time.perf_counter()
            warm = run_fabric(
                spec,
                root / f"queue-w{workers}-warm",
                cache,
                workers=workers,
                idle_timeout=30.0,
            )
            warm_wall = time.perf_counter() - start
            assert cold.cold_cells == cells
            assert warm.warm_cells == cells
            assert sum(s.claimed for s in warm.worker_stats) == 0
            assert warm.outcome == cold.outcome
            if reference is None:
                reference = cold.outcome
            else:
                assert cold.outcome == reference
            rates[str(workers)] = cells / cold_wall
            total_wall += cold_wall + warm_wall
            report.add(
                f"fabric:cold-w{workers}",
                cold_wall,
                runs=cells,
                workers=workers,
                cells=cells,
                cold_cells_per_second=cells / cold_wall,
                warm_seconds=warm_wall,
                warm_cells_per_second=cells / warm_wall,
                warm_cells_claimed=0,
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    parallel_rates = [
        rates[str(w)] for w in worker_counts if w > 1 and str(w) in rates
    ]
    comparison: Dict[str, object] = {
        "cells": cells,
        "schedulable_cpus": available_cpu_count(),
        "cells_per_second": rates,
        "best_parallel_speedup": (
            max(parallel_rates) / rates[str(min(worker_counts))]
            if parallel_rates
            else 1.0
        ),
    }
    report.add("fabric:scaling", total_wall, **comparison)
    return comparison


def measure_sweep_scaling(
    report: PerfReport, worker_counts: Tuple[int, ...] = (1, 2, 4)
) -> Dict[str, object]:
    """Record sweep cells/sec at each worker count, cold and warm.

    Runs the demo explore sweep through :func:`repro.fabric.run_sweep`
    at every count in ``worker_counts``, cold (fresh store) and warm
    (same store), asserting that every leg's canonical sweep JSON is
    byte-identical to the single-host :func:`repro.fabric.serial_sweep`
    reference, that warm re-runs claim zero cells, and -- at one worker,
    where the drain is serial -- that the fleet compiled exactly one
    table per distinct system.  A stabilize leg (one member, four
    shards) then checks the compile-once-per-*system* discipline: four
    cells share one projected system, so one compile and three reuses.

    Records ``fabric:sweep-cold-w<n>`` per worker count plus the
    headline ``fabric:sweep-scaling`` record; returns the headline's
    comparison dict.  Monotonic-speedup *gates* live in
    ``benchmarks/bench_p10_sweep.py``, conditional on schedulable CPUs.
    """
    import shutil
    import tempfile

    from repro.analysis.cache import ResultCache
    from repro.analysis.hostinfo import available_cpu_count
    from repro.fabric import (
        demo_sweep_spec,
        plan_sweep,
        run_sweep,
        serial_sweep,
        sweep_outcome_to_json,
    )

    spec = demo_sweep_spec(kind="explore")
    plan = plan_sweep(spec)
    cells = len(plan.cells)
    members = len(plan.members())
    rates: Dict[str, float] = {}
    warm_rates: Dict[str, float] = {}
    compiled_w1 = None
    total_wall = 0.0
    root = Path(tempfile.mkdtemp(prefix="stp-sweep-bench-"))
    try:
        # The single-host reference every distributed leg must reproduce.
        serial_cache = ResultCache(root / "store-serial")
        start = time.perf_counter()
        serial_json = sweep_outcome_to_json(
            plan, serial_sweep(spec, serial_cache)
        )
        total_wall += time.perf_counter() - start
        for workers in worker_counts:
            # A fresh store per worker count keeps every cold leg cold.
            cache = ResultCache(root / f"store-w{workers}")
            start = time.perf_counter()
            cold = run_sweep(
                spec,
                root / f"queue-w{workers}-cold",
                cache,
                workers=workers,
                idle_timeout=30.0,
            )
            cold_wall = time.perf_counter() - start
            start = time.perf_counter()
            warm = run_sweep(
                spec,
                root / f"queue-w{workers}-warm",
                cache,
                workers=workers,
                idle_timeout=30.0,
            )
            warm_wall = time.perf_counter() - start
            assert cold.cold_cells == cells
            assert warm.warm_cells == cells
            assert sum(s.claimed for s in warm.worker_stats) == 0
            assert sum(s.compiled for s in warm.worker_stats) == 0
            rendered = sweep_outcome_to_json(cold.plan, cold.results)
            assert rendered == serial_json
            assert (
                sweep_outcome_to_json(warm.plan, warm.results) == serial_json
            )
            if workers == 1:
                # Serial drain: exactly one compile per distinct system,
                # none for cells whose system was already compiled.
                compiled_w1 = sum(s.compiled for s in cold.worker_stats)
                assert compiled_w1 == members
            rates[str(workers)] = cells / cold_wall
            warm_rates[str(workers)] = cells / warm_wall
            total_wall += cold_wall + warm_wall
            report.add(
                f"fabric:sweep-cold-w{workers}",
                cold_wall,
                runs=cells,
                workers=workers,
                cells=cells,
                cold_cells_per_second=cells / cold_wall,
                warm_seconds=warm_wall,
                warm_cells_per_second=cells / warm_wall,
                warm_cells_claimed=0,
            )
        # Warm-anywhere: a fabric sweep against the store the *serial*
        # reference populated enqueues nothing.
        cross = run_sweep(
            spec,
            root / "queue-cross",
            serial_cache,
            workers=2,
            idle_timeout=30.0,
        )
        assert cross.cold_cells == 0
        assert sweep_outcome_to_json(cross.plan, cross.results) == serial_json

        # Compile-once-per-system: four stabilize shards of one member
        # walk one projected system -- one compile, three table reuses.
        stab_spec = demo_sweep_spec(kind="stabilize", shards=4)
        stab_cache = ResultCache(root / "store-stab")
        start = time.perf_counter()
        stab = run_sweep(
            stab_spec,
            root / "queue-stab",
            stab_cache,
            workers=1,
            idle_timeout=30.0,
        )
        stab_wall = time.perf_counter() - start
        total_wall += stab_wall
        stab_members = len(stab.plan.members())
        stab_compiled = sum(s.compiled for s in stab.worker_stats)
        stab_reused = sum(s.compile_reuse for s in stab.worker_stats)
        assert stab_compiled == stab_members
        assert stab_reused == len(stab.plan.cells) - stab_compiled
    finally:
        shutil.rmtree(root, ignore_errors=True)

    parallel_rates = [
        rates[str(w)] for w in worker_counts if w > 1 and str(w) in rates
    ]
    comparison: Dict[str, object] = {
        "cells": cells,
        "members": members,
        "schedulable_cpus": available_cpu_count(),
        "cells_per_second": rates,
        "warm_cells_per_second": warm_rates,
        "best_parallel_speedup": (
            max(parallel_rates) / rates[str(min(worker_counts))]
            if parallel_rates
            else 1.0
        ),
        "compiled_tables_w1": compiled_w1,
        "stabilize_shards": len(stab.plan.cells),
        "stabilize_compiled": stab_compiled,
        "stabilize_table_reuses": stab_reused,
        "stabilize_seconds": stab_wall,
    }
    report.add("fabric:sweep-scaling", total_wall, **comparison)
    return comparison


#: The distinct request mix the service-throughput probe replays: a few
#: cheap exhaustive explorations plus corrupted-start analyses whose
#: cold computation dwarfs a cache read, so the cold/warm contrast
#: measures the service's answer paths, not socket noise.
SERVICE_BENCH_REQUESTS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("explore", {"protocol": "norepeat", "channel": "dup",
                 "input": "a,b,c", "max_states": 50_000}),
    ("explore", {"protocol": "norepeat", "channel": "dup",
                 "input": "a,b,c,d", "max_states": 50_000}),
    ("explore", {"protocol": "norepeat", "channel": "dup",
                 "input": "a,b,c,d,e", "max_states": 50_000}),
    ("explore", {"protocol": "stenning", "channel": "dup",
                 "input": "a,b,c,d", "max_states": 50_000}),
    ("stabilize", {"protocol": "ss-arq", "channel": "lossy-fifo",
                   "input": "a,b", "max_states": 150_000}),
    ("stabilize", {"protocol": "ss-arq", "channel": "lossy-fifo",
                   "input": "a,b", "max_states": 150_000,
                   "corruption": "receiver-amnesia"}),
    ("stabilize", {"protocol": "ss-arq", "channel": "lossy-fifo",
                   "input": "a,b", "max_states": 150_000, "domain": "c"}),
    ("stabilize", {"protocol": "abp", "channel": "lossy-fifo",
                   "input": "a,b", "max_states": 150_000}),
)


def measure_service_throughput(
    report: PerfReport,
    requests: Tuple[Tuple[str, Dict[str, object]], ...] = (
        SERVICE_BENCH_REQUESTS
    ),
    workers: int = 2,
    concurrency: int = 4,
) -> Dict[str, object]:
    """Record cold-vs-warm requests/sec through the verification service.

    Stands up a real :class:`~repro.service.server.VerificationService`
    on a loopback socket (fresh store and ledger), replays the distinct
    request mix cold (every answer computed through the worker pool),
    then replays the identical batch again warm (every answer read from
    the content-addressed store), and records both rates in the headline
    ``service:throughput`` record.  Warm must beat cold -- the service's
    entire reason to exist is that the second asker never pays for the
    first asker's computation -- and ``benchmarks/perf_gate.py`` gates
    exactly that on the committed artifact.
    """
    import shutil
    import tempfile

    from repro.analysis.hostinfo import available_cpu_count
    from repro.service.client import run_load
    from repro.service.server import ServiceThread, build_service

    root = Path(tempfile.mkdtemp(prefix="stp-service-bench-"))
    try:
        service = build_service(
            root / "store", root / "queue", workers=workers
        )
        with ServiceThread(service) as host:
            assert host.port is not None
            cold = run_load(
                "127.0.0.1", host.port, requests, concurrency=concurrency
            )
            warm = run_load(
                "127.0.0.1", host.port, requests, concurrency=concurrency
            )
        assert cold.ok and warm.ok
        stats = service.stats
        # Cold batch: every distinct request computed exactly once
        # (identical concurrent requests coalesce); warm batch: nothing
        # computed at all.
        assert stats.computed == len(requests), stats
        assert stats.warm + stats.coalesced == len(requests), stats
    finally:
        shutil.rmtree(root, ignore_errors=True)

    comparison: Dict[str, object] = {
        "requests": len(requests),
        "workers": workers,
        "client_concurrency": concurrency,
        "schedulable_cpus": available_cpu_count(),
        "cold_seconds": cold.elapsed_seconds,
        "warm_seconds": warm.elapsed_seconds,
        "cold_requests_per_second": cold.requests_per_second,
        "warm_requests_per_second": warm.requests_per_second,
        "warm_speedup": (
            warm.requests_per_second / cold.requests_per_second
            if cold.requests_per_second > 0
            else 0.0
        ),
        "computed": stats.computed,
        "warm_answers": stats.warm,
        "coalesced": stats.coalesced,
    }
    report.add(
        "service:throughput",
        cold.elapsed_seconds + warm.elapsed_seconds,
        runs=2 * len(requests),
        **comparison,
    )
    return comparison


#: Ceiling asserted on the disabled-instrumentation overhead (percent of
#: the T2 m=3 warm compiled-family wall time).
MAX_DISABLED_OVERHEAD_PERCENT = 2.0


def _t2_family_tables(m: int):
    """Warm (system, table) pairs for the T2 exhaustive family."""
    from repro.channels import DuplicatingChannel
    from repro.kernel.compiled import CompiledSystem
    from repro.kernel.system import System
    from repro.protocols.norepeat import norepeat_protocol
    from repro.verify import explore_compiled
    from repro.workloads import repetition_free_family

    domain = "abcdefgh"[:m]
    sender, receiver = norepeat_protocol(domain)
    pairs = []
    for input_sequence in repetition_free_family(domain):
        system = System(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            input_sequence,
        )
        table = CompiledSystem(system)
        explore_compiled(system, store_parents=False, compiled=table)
        pairs.append((system, table))
    return pairs


def measure_obs_overhead(
    report: PerfReport, m: int = 3, rounds: int = 6
) -> Dict[str, object]:
    """Measure the cost of *disabled* instrumentation on the hot path.

    The observability calls stay in the code permanently, so the
    guarantee that matters is: with collection off (the default), the
    instrumented T2 ``m``-family warm compiled exploration pays <2%
    over what an uninstrumented build would.  Direct A/B against an
    uninstrumented build is impossible (it no longer exists), so the
    probe computes the overhead from first principles, all measured:

    1. time ``rounds`` warm family sweeps with collection off -- the
       shipped default path, including every disabled-flag test;
    2. count the *exact* number of disabled entry-point invocations one
       sweep performs -- ``enabled()`` flag checks on the guarded hot
       wrappers, plus any full ``span()``/``add()`` disabled calls -- by
       temporarily wrapping the :mod:`repro.obs` entry points with
       counting shims (collection stays off, so the counted path is the
       disabled path);
    3. microbenchmark the per-call cost of each disabled entry point,
       net of empty-loop overhead;
    4. overhead == calls-per-sweep x per-call cost, as a percentage of
       the sweep's wall time.

    Records ``obs:overhead-disabled`` (with the enabled-collection sweep
    time alongside, for contrast) and returns its comparison dict.
    """
    from repro.verify import explore_compiled

    pairs = _t2_family_tables(m)

    def sweep() -> None:
        for system, table in pairs:
            explore_compiled(system, store_parents=False, compiled=table)

    with obs.scoped(enabled_value=False):
        start = time.perf_counter()
        for _ in range(rounds):
            sweep()
        disabled_seconds = time.perf_counter() - start

    # Count the disabled entry-point invocations of one sweep exactly.
    # The guarded hot wrappers pay one obs.enabled() flag check each;
    # anything not yet guarded pays a full disabled span()/add() call.
    calls = {"flag": 0, "span": 0, "metric": 0}
    real = (obs.enabled, obs.span, obs.add, obs.observe, obs.gauge_set)

    def counting_enabled():
        calls["flag"] += 1
        return real[0]()

    def counting_span(name, **attrs):
        calls["span"] += 1
        return real[1](name, **attrs)

    def counting_metric_factory(fn):
        def counting(*args, **kwargs):
            calls["metric"] += 1
            return fn(*args, **kwargs)

        return counting

    with obs.scoped(enabled_value=False):
        obs.enabled = counting_enabled  # type: ignore[assignment]
        obs.span = counting_span  # type: ignore[assignment]
        obs.add = counting_metric_factory(real[2])  # type: ignore[assignment]
        obs.observe = counting_metric_factory(real[3])  # type: ignore[assignment]
        obs.gauge_set = counting_metric_factory(real[4])  # type: ignore[assignment]
        try:
            sweep()
        finally:
            (
                obs.enabled,
                obs.span,
                obs.add,
                obs.observe,
                obs.gauge_set,
            ) = real  # type: ignore[assignment]

    # Per-call costs of the disabled fast paths.  The empty-loop baseline
    # is subtracted so the figure is the call's own cost, not the probe
    # loop's; best-of-3 discards scheduler noise in each measurement.
    probes = 100_000

    def _best_of(fn) -> float:
        return min(fn() for _ in range(3))

    with obs.scoped(enabled_value=False):

        def _loop_baseline() -> float:
            start = time.perf_counter()
            for _ in range(probes):
                pass
            return time.perf_counter() - start

        def _flag_loop() -> float:
            start = time.perf_counter()
            for _ in range(probes):
                obs.enabled()
            return time.perf_counter() - start

        def _span_loop() -> float:
            start = time.perf_counter()
            for _ in range(probes):
                with obs.span("probe"):
                    pass
            return time.perf_counter() - start

        def _metric_loop() -> float:
            start = time.perf_counter()
            for _ in range(probes):
                obs.add("probe")
            return time.perf_counter() - start

        baseline = _best_of(_loop_baseline)
        per_flag = max(0.0, _best_of(_flag_loop) - baseline) / probes
        per_span = max(0.0, _best_of(_span_loop) - baseline) / probes
        per_metric = max(0.0, _best_of(_metric_loop) - baseline) / probes

    # The enabled sweep, for contrast (fresh collectors, discarded).
    with obs.scoped(enabled_value=True):
        start = time.perf_counter()
        sweep()
        enabled_seconds = time.perf_counter() - start

    sweep_seconds = disabled_seconds / rounds
    overhead_seconds = (
        calls["flag"] * per_flag
        + calls["span"] * per_span
        + calls["metric"] * per_metric
    )
    overhead_percent = (
        overhead_seconds / sweep_seconds * 100 if sweep_seconds > 0 else 0.0
    )
    comparison: Dict[str, object] = {
        "rounds": rounds,
        "inputs": len(pairs),
        "flag_checks_per_sweep": calls["flag"],
        "span_calls_per_sweep": calls["span"],
        "metric_calls_per_sweep": calls["metric"],
        "per_flag_check_ns": per_flag * 1e9,
        "per_span_call_ns": per_span * 1e9,
        "per_metric_call_ns": per_metric * 1e9,
        "overhead_percent": overhead_percent,
        "max_overhead_percent": MAX_DISABLED_OVERHEAD_PERCENT,
        "enabled_sweep_seconds": enabled_seconds,
    }
    report.add("obs:overhead-disabled", disabled_seconds, **comparison)
    return comparison


def run_default_bench(
    experiment_ids: Tuple[str, ...] = ("T1", "T2", "F1", "F5"),
    seed: int = 0,
    quick: bool = True,
    workers: int = 4,
    cache=None,
    engine: str = "scalar",
    reduce: bool = False,
) -> PerfReport:
    """The ``stp-repro bench`` suite: experiments, explorer, parallel
    sweep, the corrupted-start stabilization probe, the fabric scaling
    probes (``fabric:scaling`` for campaign cells, ``fabric:sweep-
    scaling`` for distributed explore/stabilize sweeps), and the
    verification-service throughput probe (``service:throughput``).

    ``cache`` (a :class:`repro.analysis.cache.ResultCache`) is threaded
    through the experiments that memoize work; the report then carries a
    ``cache:stats`` record with the hit/miss counters.

    ``engine`` / ``reduce`` select the exhaustive-exploration
    engine the experiments use (see
    :func:`repro.analysis.cache.cached_explore`); the dedicated explorer
    probes always measure every engine.

    Observability collection is enabled for the duration (and restored
    afterwards), so the written artifact carries the ``spans:`` and
    ``metrics:`` sections beside the timing records, plus the
    ``obs:overhead-disabled`` probe record asserting the <2% disabled-
    instrumentation guarantee.
    """
    from repro.experiments import run_experiment

    report = PerfReport(label="stp-repro bench")
    # The overhead probe must run before collection is enabled (it
    # measures the disabled path under its own scoped collectors).
    measure_obs_overhead(report)
    was_enabled = obs.enabled()
    obs.enable()
    try:
        for experiment_id in experiment_ids:
            start = time.perf_counter()
            result = run_experiment(
                experiment_id,
                seed=seed,
                quick=quick,
                cache=cache,
                engine=engine,
                reduce=reduce,
            )
            report.add(
                f"experiment:{experiment_id}",
                time.perf_counter() - start,
                runs=len(result.rows),
                states=result.states,
                states_per_second=(
                    result.states / result.search_seconds
                    if result.states and result.search_seconds
                    else None
                ),
                checks_passed=result.all_checks_pass,
                engine=engine,
            )
        measure_explorer(report)
        measure_compiled_explorer(report)
        measure_batched_explorer(report)
        measure_campaign_speedup(report, workers=workers)
        measure_stabilization(report, cache=cache)
        measure_fabric_scaling(report)
        measure_sweep_scaling(report)
        measure_service_throughput(report)
        if cache is not None:
            report.add("cache:stats", 0.0, **cache.stats())
        report.attach_observability()
    finally:
        if not was_enabled:
            obs.disable()
    return report
