"""CI assertion: a chaos run resumed from its checkpoints reproduces it.

Given the reports of two ``stp-repro chaos`` runs sharing one
``--checkpoint`` directory, asserts for every ``chaos:*`` record that the
second run resumed every grid run from the first run's checkpoint and
abandoned none, and that its completion/safety rates and ``mean_*``
recovery extras equal the first run's:

    PYTHONPATH=src python -m repro chaos --seed 0 --checkpoint ck --out a.json
    PYTHONPATH=src python -m repro chaos --seed 0 --checkpoint ck --out b.json
    python benchmarks/assert_chaos_resume.py a.json b.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional


def chaos_records(report: Dict) -> Dict[str, Dict]:
    """The report's ``chaos:*`` records, by name."""
    return {
        record["name"]: record
        for record in report.get("records", [])
        if record["name"].startswith("chaos:")
    }


def check(first: Dict, resumed: Dict) -> str:
    """Raise AssertionError on failure; return the success summary."""
    before = chaos_records(first)
    after = chaos_records(resumed)
    assert before, "first report has no chaos:* records"
    assert sorted(after) == sorted(before), (
        f"scenario sets differ: {sorted(before)} vs {sorted(after)}"
    )
    for name, record in sorted(after.items()):
        extra = record["extra"]
        assert extra["resumed_runs"] == record["runs"], (
            f"{name}: resumed {extra['resumed_runs']} of {record['runs']} runs"
        )
        assert extra["abandoned"] == 0, (
            f"{name}: {extra['abandoned']} runs abandoned"
        )
        compared = ["completed_rate", "safe_rate"] + sorted(
            key for key in extra if key.startswith("mean_")
        )
        for key in compared:
            assert extra[key] == before[name]["extra"][key], (
                f"{name}: {key} {extra[key]!r} after resume, "
                f"{before[name]['extra'][key]!r} before"
            )
    return f"{len(after)} chaos scenarios resumed from checkpoint, outcomes equal"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="report of the first run")
    parser.add_argument("resumed", type=Path, help="report of the resumed run")
    args = parser.parse_args(argv)
    first = json.loads(args.first.read_text(encoding="utf-8"))
    resumed = json.loads(args.resumed.read_text(encoding="utf-8"))
    try:
        print(check(first, resumed))
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
