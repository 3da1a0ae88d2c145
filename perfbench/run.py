"""Cold, per-layer benchmark of stp-repro: the driver.

Run from the root of a checkout::

    python3 perfbench/run.py --workload family-cold --seed 1 --seconds 40 --trace 0

Each repetition is a fresh interpreter (``rep.py``) with a fresh store
and queue, so every question is cold by construction.  A run makes as
many repetitions as fit in ``--seconds`` (at least three untraced).  With
``--trace 1`` untraced and traced repetitions alternate, and the result
carries the per-layer metrics of ``layers.py`` instead of the
end-to-end ones.  The last line of standard output is the result JSON;
the lines before it are a human-readable report.  ``WORKLOADS.md``
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (the benchmark's own modules)
import workloads as wl  # noqa: E402

#: No repetition starts that is expected to end past this many seconds.
RUN_BUDGET_S = 150.0
REP_TIMEOUT_S = 150.0
MIN_UNTRACED_REPS = 3


def percentile(values, share: float) -> float:
    """The ``share`` quantile of ``values`` (linear interpolation)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * share
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timing_summary(values):
    """Median plus the highest of p99/p90/p75 with >= 10 samples beyond it."""
    if not values:
        return "no samples"
    text = f"p50 {percentile(values, 0.5):.3f}"
    for share in (0.99, 0.9, 0.75):
        if len(values) * (1.0 - share) >= 10:
            text += f", p{round(share * 100)} {percentile(values, share):.3f}"
            break
    return text + f" ms (n={len(values)})"


def spawn_rep(root: Path, work: Path, args, index: int, traced: bool, oracle: bool):
    """Run one repetition in a fresh interpreter; returns its JSON record."""
    rep_dir = work / f"rep-{index}"
    env = dict(os.environ)
    env.pop("STP_REPRO_OBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # The program's default cache root, pointed inside the scratch area:
    # the cold guard fails the repetition if anything lands there.
    env["STP_REPRO_CACHE"] = str(rep_dir / "default-root")
    # Bytecode goes to a cache of the run's own, so set-up time does not
    # depend on whether the checkout holds __pycache__ directories: the
    # first repetition compiles, the others read what it wrote.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    command = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--work", str(rep_dir)]
    if traced:
        command += ["--trace", "--trace-out",
                    str(work.parent / "traces" / f"{args.workload}-seed{args.seed}.json")]
    if oracle:
        command.append("--oracle")
    started = time.monotonic()
    # Its own session, so a hung repetition is stopped with every fabric
    # worker it forked.
    child = subprocess.Popen(command + ["--spawned", repr(started)], cwd=root, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"errors": [f"repetition did not finish within {REP_TIMEOUT_S:.0f} s"],
                "trace": traced, "wall_s": time.monotonic() - started}
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return {"errors": [f"repetition exited {child.returncode}: {' | '.join(tail)}"],
                "trace": traced, "wall_s": time.monotonic() - started}
    record = json.loads(lines[-1])
    record["wall_s"] = time.monotonic() - started
    return record


def run_reps(root: Path, work: Path, args):
    reps = []
    start = time.monotonic()
    while True:
        index = len(reps)
        traced = bool(args.trace) and index % 2 == 1
        reps.append(spawn_rep(root, work, args, index, traced, oracle=index == 0))
        if reps[-1]["errors"]:
            break
        untraced = sum(1 for rep in reps if not rep["trace"])
        if args.trace:
            enough = untraced >= 1 and len(reps) - untraced >= 1
        else:
            enough = untraced >= MIN_UNTRACED_REPS
        # Start another repetition only if it is expected to end within
        # --seconds (or the run budget, for the minimum repetitions).
        finish = time.monotonic() - start + statistics.median(
            rep["wall_s"] for rep in reps[-2:])
        if finish > (args.seconds if enough else RUN_BUDGET_S):
            break
    return reps


def provenance(root: Path, args):
    """Where and how this result was measured."""
    sys.path.insert(0, str(root / "src"))
    from repro.analysis.hostinfo import available_cpu_count
    from repro.verify import vectorized_backend

    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "cpus": available_cpu_count(),
        "python": platform.python_version(),
        "numpy": vectorized_backend() == "numpy",
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": args.seed,
        "trace": bool(args.trace),
        "workload": args.workload,
        "seconds": args.seconds,
    }


def end_to_end(reps):
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "question_s": (statistics.median(r["question_s"] for r in reps), "s"),
        "work_per_s": (statistics.median(r["work"] / r["question_s"] for r in reps), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s") or name.endswith("_per_cell"):
        return "s"
    if ".bytes_" in name:
        return "bytes"
    if name.endswith("ratio") or name.startswith("trace."):
        return "ratio"
    return "count"


def per_layer(reps):
    traced = [r for r in reps if r["trace"]]
    untraced = [r for r in reps if not r["trace"]]
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in layers.LAYER_METRICS}
    values["trace.overhead"] = (statistics.median(r["question_s"] for r in traced)
                                / statistics.median(r["question_s"] for r in untraced))
    values["trace.unattributed_share"] = statistics.median(
        r["unattributed_share"] for r in traced)
    return {name: (value, layer_unit(name)) for name, value in values.items()}


def report(args, reps, metrics, prov, failed, attempted):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)} ({sum(1 for r in reps if r['trace'])} traced)")
    latencies = [v for r in reps if not r["trace"] for v in r.get("latencies_ms", [])]
    if args.workload == "service-mixed":
        kinds = [k for r in reps if not r["trace"] for k in r.get("kinds", [])]
        for kind in ("cold", "warm"):
            picked = [v for v, k in zip(latencies, kinds) if k == kind]
            print(f"  {kind}_request_ms: {timing_summary(picked)}")
    else:
        label = {"family-cold": "verdict_ms", "stabilize-cold": "question_ms",
                 "campaign-grid": "grid_ms"}[args.workload]
        print(f"  {label}: {timing_summary(latencies)}")
    print(f"  failed_share: {failed / attempted if attempted else 1.0:.4f} "
          f"({failed} of {attempted} operations)")

    if args.trace:
        traced = [r for r in reps if r["trace"]]
        wall = statistics.median(r["question_s"] for r in traced)
        print(f"  per-layer self time, summed over threads and processes, so parallel "
              f"work can pass 100% (traced question wall {wall:.3f} s):")
        for layer in layers.LAYERS:
            self_s = statistics.median(r["layer_self_s"][layer] for r in traced)
            counts = ", ".join(f"{name.split('.', 1)[1]}={metrics[name][0]:.4g}"
                               for name in layers.LAYER_METRICS
                               if name.startswith(layer + ".") and metrics[name][0]
                               and metrics[name][1] != "s")
            print(f"    {layer:<10} {self_s:9.4f} s  {100 * self_s / wall:6.1f}%  {counts}")
        print(f"  tracing overhead {metrics['trace.overhead'][0]:.3f}x, "
              f"unattributed share {metrics['trace.unattributed_share'][0]:.3f}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name}: {value:.6g} {unit}")
    print("provenance: " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"run from the root of an stp-repro checkout: {root / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        reps = run_reps(root, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [error for rep in reps for error in rep["errors"]]
    digests = {rep.get("digest") for rep in reps}
    if len(digests) != 1:
        errors.append(f"repetitions disagree on their answers: {sorted(map(str, digests))}")
    attempted = sum(rep.get("operations", 1) for rep in reps)
    failed = sum(rep.get("failed", 0) for rep in reps)
    if errors:
        failed = attempted
    prov = provenance(root, args)
    metrics = {}
    if not errors:
        metrics = (per_layer(reps) if args.trace
                   else end_to_end([r for r in reps if not r["trace"]]))
        report(args, reps, metrics, prov, failed, attempted)
    for error in errors:
        print(f"FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results = HERE / ".work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "provenance": prov, "errors": errors,
                    "repetitions": [{k: v for k, v in rep.items() if k != "latencies_ms"}
                                    for rep in reps]}, indent=1, default=repr))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
