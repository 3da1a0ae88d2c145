"""Benchmark: corrupted-start exploration and the symmetry-reduced set.

Analyzes the small lossy-FIFO instance (input ``("a","b")`` over domain
``("a","b","c","d")`` -- two letters the input never uses, so the
input-pinned renaming symmetry has something to collapse) for plain ABP
and the self-stabilizing ARQ, reduced and unreduced, on the batched
multi-source BFS, and records all of it in the session perf report
(``BENCH_PR10.json``).

Assertions:

* the per-source stabilization **verdicts are bit-identical** across
  reduced/unreduced initial sets;
* the **reduced initial set is strictly smaller** (reduction ratio > 1):
  the ``BENCH_PR10.json`` headline this PR tracks;
* ss-ARQ **converges** from every corrupt start with a finite max
  stabilization depth; plain ABP has non-stabilizing corrupt starts --
  the two qualitative facts the whole workload family exists to show.

Record names: ``stabilize:<protocol>-batched[-reduced]`` (the names
earlier artifacts used), each carrying states/s and the
stabilization-depth histogram.
"""

from __future__ import annotations

import time

from benchmarks.conftest import perf_report
from repro.channels import LossyFifoChannel
from repro.kernel.system import System
from repro.protocols import protocol_by_name
from repro.resilience.stabilize import analyze_stabilization

ITEMS = ("a", "b")
DOMAIN = ("a", "b", "c", "d")


def _build(protocol_name):
    sender, receiver = protocol_by_name(protocol_name, DOMAIN, len(ITEMS))
    return System(
        sender,
        receiver,
        LossyFifoChannel(capacity=1),
        LossyFifoChannel(capacity=1),
        ITEMS,
    )


def _sweep(report, protocol_name):
    """Unreduced and reduced runs for one protocol; returns the
    unreduced baseline result."""
    baseline = None
    for reduce in (False, True):
        start = time.perf_counter()
        result = analyze_stabilization(
            _build(protocol_name), reduce=reduce, domain=DOMAIN
        )
        wall = time.perf_counter() - start
        suffix = "-reduced" if reduce else ""
        report.add(
            f"stabilize:{protocol_name}-batched{suffix}",
            wall,
            states=result.explored_states,
            states_per_second=result.states_per_second,
            **result.summary(),
        )
        if baseline is None:
            baseline = result
        else:
            assert result.verdicts == baseline.verdicts, (
                f"{protocol_name} verdicts diverged on reduce={reduce}"
            )
            assert result.depth_histogram == baseline.depth_histogram
            assert result.corrupt_fingerprint == baseline.corrupt_fingerprint
    return baseline


def test_bench_stabilize(benchmark):
    """Corrupted-start sweep: identical verdicts, ratio > 1, ARQ converges."""
    report = perf_report()
    abp = benchmark.pedantic(
        _sweep, args=(report, "abp"), rounds=1, iterations=1
    )
    ss_arq = _sweep(report, "ss-arq")

    # The symmetry quotient of the corrupt initial set is real work saved.
    assert abp.reduction_ratio > 1.0
    assert ss_arq.reduction_ratio > 1.0

    # The qualitative split the protocol exists for.
    assert ss_arq.converges
    assert ss_arq.max_depth is not None
    assert ss_arq.depth_histogram
    assert not abp.converges
    assert abp.non_stabilizing >= 1
    assert abp.non_stabilizing_examples
