"""One cold repetition of one workload, in a fresh interpreter.

``run.py`` starts this once per repetition, so no table, cache or
import is warm when the questions start.  It prints one JSON line::

    python3 perfbench/rep.py --workload family-cold --seed 1 \\
        --work perfbench/.work/x --spawned <time.monotonic()> [--trace] [--oracle]

Set-up (imports, input generation, server start) runs before the
questions and is reported as ``setup_s``, counted from ``--spawned``.
``--trace`` installs the per-layer shims of ``layers.py`` and turns
``repro.obs`` on; ``--oracle`` adds the expensive known-answer checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402  (the benchmark's own module)


def _prepare(workload: str, seed: int, work: Path):
    """Import the entry points and build the inputs; returns a context dict."""
    import repro.analysis.cache  # noqa: F401
    import repro.verify  # noqa: F401

    if workload == "family-cold":
        import repro.kernel.vectorized  # noqa: F401  (cached_explore imports it)

        return {"inputs": wl.family_inputs(seed)}
    if workload == "stabilize-cold":
        import repro.fabric.sweep  # noqa: F401
        import repro.resilience.stabilize  # noqa: F401

        return {"inputs": wl.stabilize_inputs(seed)}
    if workload == "campaign-grid":
        import repro.fabric.coordinator  # noqa: F401
        import repro.resilience.runner  # noqa: F401

        return {"inputs": wl.campaign_inputs(seed)}
    from repro.service.client import ServiceClient  # noqa: F401
    from repro.service.server import ServiceThread, build_service

    service = build_service(work / "store", work / "queue", workers=wl.SERVICE_WORKERS)
    thread = ServiceThread(service).__enter__()
    return {"inputs": wl.service_inputs(seed), "service": service, "thread": thread}


def _run(workload: str, context, work: Path):
    clock = time.perf_counter
    if workload == "family-cold":
        return wl.family_run(context["inputs"], clock)
    if workload == "stabilize-cold":
        return wl.stabilize_run(context["inputs"], clock)
    if workload == "campaign-grid":
        return wl.campaign_run(context["inputs"], work / "store", work / "queue", clock)
    return wl.service_run(context["inputs"], context["thread"].port, clock)


def _check(workload: str, context, answers, oracle: bool, seed: int):
    if workload == "family-cold":
        return wl.family_check(context["inputs"], answers, oracle, seed)
    if workload == "stabilize-cold":
        return wl.stabilize_check(answers)
    if workload == "campaign-grid":
        return wl.campaign_check(context["inputs"], answers, oracle)
    return wl.service_check(context["inputs"], answers,
                            context["service"].stats.to_dict(), oracle)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _entries(root: Path):
    if not root.exists():
        return []
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    default_root = Path(os.environ["STP_REPRO_CACHE"])
    before_default = _entries(default_root)
    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "errors": []}

    context = _prepare(args.workload, args.seed, args.work)
    tracer = None
    if args.trace:
        from repro import obs

        import layers

        obs.enable()
        tracer = layers.LayerTracer()
        layers.install(tracer)
    ready = time.monotonic()
    out["setup_s"] = ready - args.spawned

    answers = None
    try:
        start = time.perf_counter()
        work_done, latencies, answers = _run(args.workload, context, args.work)
        out["question_s"] = time.perf_counter() - start
        out["work"] = work_done
        out["operations"] = work_done if args.workload == "campaign-grid" else len(latencies)
        out["latencies_ms"] = [value * 1000.0 for value in latencies]
    except Exception as error:  # the run fails; reported, not raised
        out["errors"].append(f"question failed: {type(error).__name__}: {error}")
    finally:
        if tracer is not None:
            totals = tracer.totals()
            tracer.remove()
        thread = context.get("thread")
        if thread is not None:
            thread.__exit__(None, None, None)

    if args.workload == "service-mixed" and answers is not None:
        out["kinds"] = ["cold" if not (reply.get("warm") or reply.get("coalesced"))
                        else "warm" for _, _, _, reply in answers]
        out["failed"] = sum(1 for *_, reply in answers if reply.get("type") != "result")
    if answers is not None:
        try:
            out["invariants"], out["digest"] = _check(
                args.workload, context, answers, args.oracle, args.seed)
        except wl.CheckFailed as error:
            out["errors"].append(f"check failed: {error}")

    if tracer is not None and answers is not None:
        from repro import obs

        import layers

        values = layers.layer_metrics(totals)
        if args.workload == "service-mixed":
            stats = context["service"].stats.to_dict()
            for name in ("computed", "warm", "coalesced", "shed"):
                values[f"service.{name}"] = float(stats[name])
            waited = sum(out["latencies_ms"]) / 1000.0
            values["service.wait_s"] = max(0.0, waited - values["service.job_s"])
            covered, whole = sum(tracer.top_level.values()), waited
        else:
            covered = tracer.top_level.get(threading.main_thread().ident, 0.0)
            whole = out["question_s"]
        out["layers"] = values
        out["layer_self_s"] = {layer: totals.get("layer." + layer, 0.0)
                               for layer in layers.LAYERS}
        out["unattributed_share"] = max(0.0, 1.0 - covered / whole) if whole else 0.0
        if args.workload != "service-mixed" and values["cache.hits"]:
            out["errors"].append(
                f"cold guard: {values['cache.hits']:.0f} answers served from a cache")
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            fields = ("name", "layer", "start", "end", "depth", "thread", "pid")
            args.trace_out.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "spans": [dict(zip(fields, span)) for span in tracer.spans],
                "program_spans": [span.to_dict() for span in obs.tracer().spans()],
            }))

    if _entries(default_root) != before_default:
        out["errors"].append(f"cold guard: the default cache root {default_root} changed")
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
