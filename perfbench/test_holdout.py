"""Seed holdout: the seed changes only names and order, never the work.

Runs one traced repetition of every workload at two seeds and requires
identical known answers and identical work counts.  Run from the root
of a checkout (about a minute)::

    python3 -m pytest perfbench/test_holdout.py -q
    python3 perfbench/test_holdout.py
"""

from __future__ import annotations

import os
import shutil
import sys
import types
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (the benchmark's own modules)
import workloads as wl  # noqa: E402

SEEDS = (3, 1004)

#: Per-layer counts that measure work done, not time.
WORK_COUNTS = ("build.systems", "compile.states", "stabilize.sources", "fork.cells",
               "simulate.steps", "search.states")


def traced_rep(workload: str, seed: int):
    work = run.HERE / ".work" / f"holdout-{workload}-{seed}-{os.getpid()}"
    args = types.SimpleNamespace(workload=workload, seed=seed)
    try:
        record = run.spawn_rep(Path.cwd(), work, args, 0, traced=True, oracle=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert not record["errors"], record["errors"]
    return record


def check_workload(workload: str) -> None:
    first, second = (traced_rep(workload, seed) for seed in SEEDS)
    assert first["invariants"] == second["invariants"]
    assert first["work"] == second["work"]
    for name in WORK_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    if workload == "service-mixed":
        for record in (first, second):
            served = sum(record["layers"][f"service.{name}"]
                         for name in ("computed", "coalesced", "warm"))
            assert served == record["invariants"]["requests"] == len(record["kinds"])


def test_family_cold():
    check_workload("family-cold")


def test_stabilize_cold():
    check_workload("stabilize-cold")


def test_campaign_grid():
    check_workload("campaign-grid")


def test_service_mixed():
    check_workload("service-mixed")


if __name__ == "__main__":
    for name in wl.WORKLOADS:
        check_workload(name)
        print(f"{name}: identical at seeds {SEEDS}")
