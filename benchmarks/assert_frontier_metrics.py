"""Nightly CI assertion: frontier instrumentation flows through the registry.

A benchmark session that exercised the batched engine must leave its
``frontier.*`` gauges in the perf artifact's ``metrics:`` section --
published by :func:`repro.kernel.frontier.explore_batched` and the
family sweep at search time, merged through the :mod:`repro.obs`
registry, not reconstructed from timing records after the fact.  The
explorer counters must be there too (the frontier engine reports
through the same ``explorer.*`` names as the scalar engines, which is
what makes the engines swappable in dashboards).

    python benchmarks/assert_frontier_metrics.py BENCH_PR10.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: Gauges the frontier engines publish per search / family sweep.
REQUIRED_GAUGES = (
    "frontier.depth",
    "frontier.width",
    "frontier.reduction_ratio",
)

#: Engine-agnostic counters every exploration must feed.
REQUIRED_COUNTERS = (
    "explorer.searches",
    "explorer.states",
)


def check(report: Dict) -> str:
    """Raise AssertionError on failure; return the success summary."""
    metrics = report.get("metrics")
    assert metrics, (
        "artifact has no metrics: section -- the bench must run with "
        "observability collection enabled"
    )
    lines: List[str] = []
    for name in REQUIRED_GAUGES:
        entry = metrics.get(name)
        assert entry is not None, f"metrics section is missing {name!r}"
        assert entry.get("kind") == "gauge", (
            f"{name!r} is a {entry.get('kind')!r}, expected 'gauge'"
        )
        assert entry["value"] >= 1, (
            f"{name!r} never rose above its floor: {entry}"
        )
        lines.append(f"{name}: {entry['value']}")
    for name in REQUIRED_COUNTERS:
        entry = metrics.get(name)
        assert entry is not None, f"metrics section is missing {name!r}"
        assert entry["value"] > 0, f"{name!r} recorded nothing: {entry}"
        lines.append(f"{name}: {entry['value']}")
    names = {record["name"] for record in report.get("records", ())}
    assert "explore:t2-family-batched" in names, (
        "artifact has no batched family record -- did bench_p5 run?"
    )
    assert "explore:t2-family-reduced" in names, (
        "artifact has no reduced family record -- did bench_p5 run?"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", type=Path, help="perf BENCH_PR10.json")
    args = parser.parse_args(argv)
    report = json.loads(args.artifact.read_text(encoding="utf-8"))
    try:
        print(check(report))
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
