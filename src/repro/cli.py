"""Command-line interface: ``stp-repro`` / ``python -m repro``.

Subcommands:

* ``list`` -- show every experiment id and title;
* ``run <ids...>`` -- run experiments (``all`` for everything) and print
  their rendered tables; ``--quick`` shrinks parameters, ``--seed`` fixes
  randomness;
* ``alpha <m>`` -- print ``alpha(m)`` and the solvability boundary;
* ``simulate`` -- run one protocol/channel/adversary combination on one
  input and print the run's metrics (a playground for exploring the
  library from the shell);
* ``attack`` -- run the impossibility engine against the natural
  candidate protocol on an overfull family and print the witness;
* ``trap`` -- exhaustively search a protocol/channel combination for
  liveness traps (states from which completion is unreachable);
* ``report`` -- regenerate EXPERIMENTS.md;
* ``explore`` -- exhaustively explore one protocol/channel/input system
  and print its report; ``--engine batched`` uses the level-synchronous
  frontier engine (bit-identical unreduced), ``--reduce`` quotients
  symmetric states (verdict-preserving);
* ``cache`` -- inspect and manage the content-addressed result cache:
  ``cache stats`` (on-disk shape, ``--json`` for machine form),
  ``cache clear`` (wipe), ``cache prune --max-size N`` (evict oldest
  entries until the store fits);
* ``fabric`` -- the distributed work fabric: ``fabric plan`` (split
  a campaign spec into content-addressed cells and show warm/cold
  against a store), ``fabric run`` (plan + N local workers + merge,
  bit-identical to serial), ``fabric sweep`` (distribute an explore/
  stabilize grid as typed sweep cells, ``--serial`` for the single-host
  reference), ``fabric merge`` (reassemble a finished queue's outcome),
  ``fabric status`` (queue ticket counts per cell kind, ``--json`` for
  machine form);
* ``worker`` -- one pull-based fabric worker loop over a shared queue
  directory and cache store (start several, on one host or many);
* ``bench`` -- time experiments, exhaustive exploration (object-graph,
  compiled-table, and batched-frontier), and the
  serial-vs-parallel campaign sweep, and write the ``BENCH_PR10.json``
  perf artifact tracked PR over PR (carrying ``spans:`` and ``metrics:``
  sections from the observability layer); ``--cache-dir`` turns on the
  content-addressed result cache (``--no-cache`` runs cold);
  ``--engine``/``--reduce`` select the experiments' exploration engine;
* ``chaos`` -- run the fault-injection matrix (every protocol family
  crossed with the fault vocabulary) plus the F8 recovery sweep under the
  self-healing runner, and write the ``BENCH_PR2.json`` resilience
  artifact;
* ``stabilize`` -- corrupted-start exploration: enumerate the corrupt
  initial configurations of each protocol x channel pair (scrambled
  local states, forged bounded channel contents), multi-source-BFS from
  all of them, and report per-source stabilization verdicts and depths;
  ``--reduce`` judges one representative per symmetry class (verdicts
  are bit-identical), ``--sample N --seed S`` analyzes a seeded
  subsample, ``--out`` writes a perf artifact with the
  ``recovery.stabilization_*`` gauges attached;
* ``serve`` -- run the verification service: an asyncio front-end
  speaking newline-delimited JSON (schema ``stp-service/1``) that
  answers warm requests from the result cache, coalesces identical
  concurrent requests onto one computation, dispatches cold work to a
  bounded pool over the fabric's queue ledger, and sheds load with
  typed ``busy`` errors past ``--max-queue-depth``; ``--dispatch
  enqueue`` publishes cold explore/stabilize jobs as fabric sweep
  cells for external worker fleets instead of computing them in-pool;
* ``request`` -- send one request (``explore``/``stabilize``/
  ``campaign``, or ``ping``/``stats``/``shutdown``) to a running
  service and print the canonical outcome JSON;
* ``stats`` -- render the span and metrics tables out of a BENCH_*.json
  artifact or a ``.jsonl`` span trace (``--json`` for machine form).

``bench``, ``chaos``, and ``run`` accept ``--profile cprofile|spans``
(opt-in profiling hooks: cProfile's top functions, or live span/metrics
tables) and ``--trace-out FILE`` (full span stream as JSONL).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.cache import ENGINES
from repro.core.alpha import alpha
from repro.experiments.base import _MODULES, run_experiment
from repro.kernel.errors import KernelError


def _cmd_list(_args) -> int:
    import importlib

    print(f"{'id':4}  title")
    print(f"{'-'*4}  {'-'*60}")
    for experiment_id, module_name in sorted(_MODULES.items()):
        module = importlib.import_module(module_name)
        first_line = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{experiment_id:4}  {first_line}")
    return 0


def _profiled(args, label: str):
    """The profiling context requested by ``--profile``/``--trace-out``.

    A no-op context when neither flag is given, so the commands pay
    nothing by default.
    """
    from repro.obs.profiling import profiled

    return profiled(
        getattr(args, "profile", None),
        trace_out=getattr(args, "trace_out", None),
        label=label,
    )


def _add_profile_arguments(parser) -> None:
    from repro.obs.profiling import PROFILE_MODES

    parser.add_argument(
        "--profile",
        choices=PROFILE_MODES,
        default=None,
        help=(
            "profiling hook: 'cprofile' prints the top functions by "
            "cumulative time, 'spans' prints the live span/metrics tables"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the full span stream as JSONL (implies span collection)",
    )


def _add_engine_arguments(parser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="scalar",
        help=(
            "exhaustive-exploration engine: 'scalar' walks states one at "
            "a time, 'batched' expands whole frontier levels over the "
            "compiled table (identical reports)"
        ),
    )
    parser.add_argument(
        "--reduce",
        action="store_true",
        help=(
            "quotient symmetric states (data-item renaming) in the "
            "batched engine; verdicts are unchanged, state counts become "
            "equivalence-class counts"
        ),
    )


def _cmd_run(args) -> int:
    with _profiled(args, label="stp-repro run"):
        return _run_experiments(args)


def _run_experiments(args) -> int:
    ids = list(args.ids)
    if any(i.lower() == "all" for i in ids):
        ids = sorted(_MODULES)
    failures: List[str] = []
    for experiment_id in ids:
        result = run_experiment(
            experiment_id,
            seed=args.seed,
            quick=args.quick,
            workers=args.workers,
            engine=getattr(args, "engine", "scalar"),
            reduce=getattr(args, "reduce", False),
        )
        print(result.rendered)
        if result.notes:
            print(f"notes: {result.notes}")
        failed = [name for name, ok in result.checks.items() if not ok]
        if failed:
            failures.append(f"{experiment_id}: {failed}")
            print(f"FAILED CHECKS: {failed}")
        else:
            print(f"all {len(result.checks)} checks passed")
        print()
    if failures:
        print("reproduction regressions:", *failures, sep="\n  ")
        return 1
    return 0


def _cmd_alpha(args) -> int:
    m = args.m
    print(f"alpha({m}) = {alpha(m)}")
    print(
        f"X-STP(dup) and bounded X-STP(del) are solvable with {m} sender "
        f"messages iff |X| <= {alpha(m)} (Theorems 1 and 2)"
    )
    return 0


def _cmd_simulate(args) -> int:
    from repro.adversaries import (
        AgingFairAdversary,
        EagerAdversary,
        RandomAdversary,
    )
    from repro.analysis.metrics import measure_run
    from repro.channels import channel_by_name
    from repro.kernel.rng import DeterministicRNG
    from repro.kernel.simulator import run_protocol
    from repro.protocols.norepeat import norepeat_protocol
    from repro.protocols.stenning import stenning_protocol

    items = tuple(args.input.split(",")) if args.input else ()
    domain = tuple(sorted(set(items))) or ("a",)
    if args.protocol == "norepeat":
        sender, receiver = norepeat_protocol(domain)
    elif args.protocol == "stenning":
        sender, receiver = stenning_protocol(domain, max(len(items), 1))
    else:
        print(f"unknown protocol {args.protocol!r}", file=sys.stderr)
        return 2
    if args.adversary == "eager":
        adversary = EagerAdversary()
    else:
        adversary = AgingFairAdversary(
            RandomAdversary(DeterministicRNG(args.seed, "cli")), patience=64
        )
    result = run_protocol(
        sender,
        receiver,
        channel_by_name(args.channel),
        channel_by_name(args.channel),
        items,
        adversary,
        max_steps=args.max_steps,
    )
    metrics = measure_run(result)
    print(f"input:     {items!r}")
    print(f"output:    {result.trace.output()!r}")
    print(f"completed: {metrics.completed}   safe: {metrics.safe}")
    print(f"steps:     {metrics.steps}   data messages: {metrics.data_messages_sent}")
    return 0 if (metrics.completed and metrics.safe) else 1


def _cmd_attack(args) -> int:
    from repro.channels import DeletingChannel, DuplicatingChannel
    from repro.protocols.optimistic import identity_optimistic
    from repro.verify import find_attack_on_family, replay_witness
    from repro.workloads import overfull_family

    m = args.m
    domain = "abcdefgh"[:m]
    family = overfull_family(domain, m)
    print(
        f"family: the {len(family)} (= alpha({m})+1) shortest sequences "
        f"over {domain!r}"
    )
    sender, receiver = identity_optimistic(family)
    channel = (
        DeletingChannel(max_copies=2) if args.channel == "del"
        else DuplicatingChannel()
    )
    witness = find_attack_on_family(
        sender, receiver, channel, channel, family, max_states=args.max_states
    )
    if witness is None:
        print("no witness found within the search budget")
        return 1
    replay_witness(sender, receiver, channel, channel, witness)
    print(f"victim input:    {witness.input_sequence!r}")
    print(f"confused with:   {witness.other_sequence!r}")
    print(
        f"wrong write:     {witness.wrote!r} at position "
        f"{witness.wrong_position} (expected {witness.expected!r})"
    )
    print(f"product states:  {witness.product_states}")
    print("schedule (replay-confirmed):")
    for event in witness.schedule:
        print(f"  {event!r}")
    return 0


def _cmd_trap(args) -> int:
    from repro.channels import DeletingChannel, LossyFifoChannel
    from repro.kernel.system import System
    from repro.protocols.hybrid import hybrid_protocol
    from repro.protocols.norepeat import norepeat_protocol
    from repro.verify import find_liveness_trap

    items = tuple(args.input.split(",")) if args.input else ("a", "b")
    if args.protocol == "norepeat":
        pair = norepeat_protocol(tuple(sorted(set(items))))
    else:
        pair = hybrid_protocol(
            tuple(sorted(set(items))), len(items), timeout=3
        )
    channel_factory = {
        "del": lambda: DeletingChannel(max_copies=args.cap),
        "lossy-fifo": lambda: LossyFifoChannel(capacity=args.cap),
    }[args.channel]
    system = System(
        pair[0], pair[1], channel_factory(), channel_factory(), items
    )
    report = find_liveness_trap(system, max_states=args.max_states)
    print(f"reachable states: {report.states} (truncated: {report.truncated})")
    print(f"completing states: {report.completing_states}")
    if report.trap_found:
        print(f"LIVENESS TRAP after {len(report.trap_path)} events:")
        for event in report.trap_path:
            print(f"  {event!r}")
        return 1
    print("no liveness trap: completion reachable from every state")
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate

    return 0 if generate(args.path, seed=args.seed, quick=args.quick) else 1


def _cmd_bench(args) -> int:
    with _profiled(args, label="stp-repro bench"):
        return _run_bench(args)


def _run_bench(args) -> int:
    from repro.analysis.cache import ResultCache
    from repro.analysis.perfreport import run_default_bench

    experiment_ids = (
        tuple(i.upper() for i in args.ids) if args.ids else ("T1", "T2", "F1", "F5")
    )
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)  # None -> default root
    report = run_default_bench(
        experiment_ids=experiment_ids,
        seed=args.seed,
        quick=not args.full,
        workers=args.workers,
        cache=cache,
        engine=args.engine,
        reduce=args.reduce,
    )
    print(report.render())
    path = report.write(args.out)
    print(f"wrote {path}")
    return 0


def _cmd_explore(args) -> int:
    from repro.analysis.cache import ResultCache, cached_explore
    from repro.channels import channel_by_name, channel_names
    from repro.kernel.system import System
    from repro.protocols import protocol_by_name, protocol_names

    items = tuple(item for item in args.input.split(",") if item)
    domain = tuple(sorted(set(items))) or ("a",)
    try:
        sender, receiver = protocol_by_name(
            args.protocol, domain, max(len(items), 1)
        )
    except Exception:
        print(
            f"unknown protocol {args.protocol!r}; known: {protocol_names()}",
            file=sys.stderr,
        )
        return 2
    try:
        system = System(
            sender,
            receiver,
            channel_by_name(args.channel),
            channel_by_name(args.channel),
            items,
        )
    except Exception:
        print(
            f"unknown channel {args.channel!r}; known: {channel_names()}",
            file=sys.stderr,
        )
        return 2
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    try:
        report = cached_explore(
            system,
            max_states=args.max_states,
            include_drops=not args.no_drops,
            cache=cache,
            engine=args.engine,
            reduce=args.reduce,
        )
    except (KernelError, ValueError) as error:
        print(f"cannot explore this system: {error}", file=sys.stderr)
        return 2
    kind = "classes" if args.reduce else "states"
    print(f"engine:     {args.engine}" + (" (reduced)" if args.reduce else ""))
    print(f"{kind}:     {report.states}")
    print(f"expanded:   {report.expanded_states}")
    print(f"peak layer: {report.peak_frontier}")
    print(f"safe:       {report.all_safe}   completion reachable: "
          f"{report.completion_reachable}   truncated: {report.truncated}")
    if report.violation_path is not None:
        print(f"violation after {len(report.violation_path)} events:")
        for event in report.violation_path:
            print(f"  {event!r}")
    return 0 if report.all_safe else 1


def _cmd_stabilize(args) -> int:
    with _profiled(args, label="stp-repro stabilize"):
        return _run_stabilize(args)


def _run_stabilize(args) -> int:
    import time

    from repro import obs
    from repro.analysis.cache import ResultCache, cached_stabilize
    from repro.analysis.perfreport import PerfReport
    from repro.channels import LossyFifoChannel, channel_by_name, channel_names
    from repro.kernel.system import System
    from repro.protocols import protocol_by_name, protocol_names

    items = tuple(item for item in args.input.split(",") if item)
    extra_letters = (
        tuple(item for item in args.domain.split(",") if item)
        if args.domain
        else ()
    )
    domain = tuple(sorted(set(items) | set(extra_letters))) or ("a",)
    protocols = tuple(name for name in args.protocol.split(",") if name)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None

    def make_channel():
        if args.channel == "lossy-fifo":
            return LossyFifoChannel(capacity=args.cap)
        return channel_by_name(args.channel)

    was_enabled = obs.enabled()
    obs.enable()
    report = PerfReport(label="stp-repro stabilize")
    status = 0
    try:
        for name in protocols:
            try:
                sender, receiver = protocol_by_name(
                    name, domain, max(len(items), 1)
                )
            except Exception:
                print(
                    f"unknown protocol {name!r}; known: {protocol_names()}",
                    file=sys.stderr,
                )
                return 2
            try:
                system = System(
                    sender, receiver, make_channel(), make_channel(), items
                )
            except Exception:
                print(
                    f"unknown channel {args.channel!r}; "
                    f"known: {channel_names()}",
                    file=sys.stderr,
                )
                return 2
            start = time.perf_counter()
            try:
                result = cached_stabilize(
                    system,
                    cache=cache,
                    reduce=args.reduce,
                    sample=args.sample,
                    seed=args.seed,
                    max_states=args.max_states,
                    corruption=args.corruption,
                    domain=domain,
                )
            except KernelError as error:
                print(f"cannot analyze {name}: {error}", file=sys.stderr)
                return 2
            elapsed = time.perf_counter() - start
            verdict = (
                "SELF-STABILIZING"
                if result.converges
                else f"NOT self-stabilizing ({result.non_stabilizing} "
                f"corrupt starts never converge)"
            )
            print(f"{name}: {verdict}")
            print(
                f"  corrupt sources: {result.sources}  classes: "
                f"{result.classes}  reduction ratio: "
                f"{result.reduction_ratio:.3f}"
            )
            print(
                f"  legitimate states: {result.legitimate_states}  "
                f"explored: {result.explored_states}  "
                f"fingerprint: {result.corrupt_fingerprint}"
            )
            print(
                f"  stabilizing: {result.stabilizing}  max depth: "
                f"{result.max_depth}  histogram: "
                f"{dict(result.depth_histogram)}"
            )
            for example in result.non_stabilizing_examples:
                print(f"  non-stabilizing start: {example!r}")
            report.add(
                f"stabilize:{name}",
                elapsed,
                states=result.explored_states,
                states_per_second=result.states_per_second,
                **result.summary(),
            )
        report.attach_observability()
    finally:
        if not was_enabled:
            obs.disable()
    if args.out:
        path = report.write(args.out)
        print(f"wrote {path}")
    # A non-stabilizing protocol (plain ABP, by design) is a finding,
    # not a command failure.
    return status


def _parse_size(text: str) -> int:
    """``"500"``, ``"64K"``, ``"10M"``, ``"2G"`` -> bytes."""
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    text = text.strip().upper().removesuffix("B")
    if text and text[-1] in units:
        return int(float(text[:-1]) * units[text[-1]])
    return int(text)


def _cmd_cache(args) -> int:
    import json

    from repro.analysis.cache import ResultCache

    cache = ResultCache(args.cache_dir)  # None -> default root
    if args.action == "stats":
        stats = cache.disk_stats()
        if getattr(args, "json", False):
            print(json.dumps(stats, indent=2))
            return 0
        print(f"root:    {stats['root']}")
        print(f"entries: {stats['entries']}")
        print(f"bytes:   {stats['bytes']}")
        if stats["kinds"]:
            width = max(len(kind) for kind in stats["kinds"])
            print(f"{'kind'.ljust(width)}  entries  bytes")
            for kind in sorted(stats["kinds"]):
                bucket = stats["kinds"][kind]
                print(
                    f"{kind.ljust(width)}  {bucket['entries']:7d}  "
                    f"{bucket['bytes']}"
                )
        return 0
    if args.action == "clear":
        stats = cache.disk_stats()
        cache.wipe()
        print(
            f"cleared {stats['entries']} entries "
            f"({stats['bytes']} bytes) from {cache.root}"
        )
        return 0
    # prune
    try:
        max_bytes = _parse_size(args.max_size)
    except ValueError:
        print(f"bad --max-size {args.max_size!r}", file=sys.stderr)
        return 2
    summary = cache.prune(max_bytes)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_chaos(args) -> int:
    with _profiled(args, label="stp-repro chaos"):
        return _run_chaos_command(args)


def _run_chaos_command(args) -> int:
    from repro.resilience.report import run_chaos

    report = run_chaos(
        seed=args.seed,
        quick=not args.full,
        workers=args.workers,
        checkpoint_dir=args.checkpoint,
        run_timeout=args.timeout,
        retries=args.retries,
    )
    print(report.render())
    path = report.write(args.out)
    print(f"wrote {path}")
    healthy = all(
        record.extra.get("abandoned", 0) == 0 for record in report.records
    )
    trend = all(
        record.extra.get("checks_passed", True) for record in report.records
    )
    return 0 if (healthy and trend) else 1


def _cmd_stats(args) -> int:
    """Render the observability tables from an artifact on disk.

    Accepts either a perf/chaos artifact (``BENCH_*.json``, whose
    ``spans:``/``metrics:`` sections are rendered directly) or a span
    trace (``*.jsonl`` written by ``--trace-out``, whose spans are
    re-summarized first).
    """
    import json
    from pathlib import Path

    from repro.obs.exporters import (
        read_spans_jsonl,
        render_stats,
        summaries_from_spans,
    )

    path = Path(args.path)
    if not path.exists():
        print(f"no such file: {path}", file=sys.stderr)
        return 2
    as_json = getattr(args, "json", False)
    if path.suffix == ".jsonl":
        spans = read_spans_jsonl(path)
        summaries = summaries_from_spans(spans)
        if as_json:
            print(
                json.dumps(
                    {"label": str(path), "spans": summaries, "metrics": {}},
                    indent=2,
                )
            )
        else:
            print(render_stats(summaries, {}, label=str(path)))
        return 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    summaries = payload.get("spans")
    metrics = payload.get("metrics")
    if summaries is None and metrics is None:
        print(
            f"{path} has no spans:/metrics: sections -- regenerate it with "
            "a bench/chaos build that carries the observability layer",
            file=sys.stderr,
        )
        return 1
    label = payload.get("label", str(path))
    if as_json:
        print(
            json.dumps(
                {
                    "label": label,
                    "spans": summaries or [],
                    "metrics": metrics or {},
                },
                indent=2,
            )
        )
    else:
        print(render_stats(summaries or [], metrics or {}, label=label))
    return 0


def _fabric_spec_from_args(args):
    """Resolve ``--spec FILE`` or the demo-grid flags to a FabricSpec."""
    import json
    from pathlib import Path

    from repro.fabric import FabricSpec, demo_spec

    if getattr(args, "spec", None):
        payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        return FabricSpec.from_dict(payload)
    return demo_spec(
        inputs=args.inputs,
        seeds=args.seeds,
        length=args.length,
        protocol=args.protocol,
        channel=args.channel,
    )


def _cmd_worker(args) -> int:
    from repro.fabric import run_worker

    stats = run_worker(
        args.queue,
        args.cache_dir,
        run_timeout=args.run_timeout,
        idle_timeout=args.idle_timeout,
        max_cells=args.max_cells,
        worker_id=args.worker_id,
        lease_timeout=args.lease_timeout,
    )
    print(
        f"worker {stats.worker_id}: claimed {stats.claimed}, computed "
        f"{stats.computed}, warm {stats.warm}, failed {stats.failed}, "
        f"requeued leases {stats.requeued_leases} in "
        f"{stats.elapsed_seconds:.2f}s"
    )
    return 0 if stats.failed == 0 else 1


def _cmd_fabric(args) -> int:
    import json
    from pathlib import Path

    from repro.analysis.cache import ResultCache
    from repro.fabric import (
        FabricError,
        WorkQueue,
        merge_outcome,
        outcome_to_json,
        plan_cells,
        run_fabric,
        split_warm_cold,
    )

    if args.action == "status":
        queue = WorkQueue(args.queue)
        counts = queue.counts()
        kinds = queue.kind_counts()
        try:
            plan = queue.load_plan_optional()
        except FabricError:
            plan = None
        if getattr(args, "json", False):
            payload = {
                "queue": str(args.queue),
                "plan": (
                    {
                        "fingerprint": plan.plan_fingerprint,
                        "cells": len(plan.cells),
                    }
                    if plan is not None
                    else None
                ),
                "counts": counts,
                "kinds": kinds,
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if plan is not None:
            print(f"plan:  {plan.plan_fingerprint[:16]}... "
                  f"({len(plan.cells)} cells)")
        else:
            print("plan:  (none bound)")
        for state, count in counts.items():
            by_kind = kinds.get(state, {})
            detail = (
                " ("
                + ", ".join(
                    f"{kind} {by_kind[kind]}" for kind in sorted(by_kind)
                )
                + ")"
                if by_kind
                else ""
            )
            print(f"{state + ':':8}{count}{detail}")
        return 0

    if args.action == "merge":
        queue = WorkQueue(args.queue)
        plan = queue.load_plan()
        cache = ResultCache(args.cache_dir)
        try:
            outcome = merge_outcome(plan, cache, wait_timeout=args.wait)
        except FabricError as error:
            print(f"merge failed: {error}", file=sys.stderr)
            return 1
        rendered = outcome_to_json(outcome)
        if args.out:
            Path(args.out).write_text(rendered, encoding="utf-8")
            print(f"wrote {args.out}")
        print(
            f"merged {outcome.summary.runs} cells: "
            f"safe {outcome.summary.safe}, "
            f"completed {outcome.summary.completed}"
        )
        return 0 if not outcome.failures else 1

    if args.action == "sweep":
        return _fabric_sweep(args)

    spec = _fabric_spec_from_args(args)

    if args.action == "plan":
        plan = plan_cells(
            spec, rng_seed=args.rng_seed, rng_path=args.rng_path
        )
        line = (
            f"plan {plan.plan_fingerprint[:16]}...: "
            f"{len(plan.cells)} cells"
        )
        if args.cache_dir:
            warm, cold = split_warm_cold(plan, ResultCache(args.cache_dir))
            line += f" ({len(warm)} warm, {len(cold)} cold)"
        print(line)
        if args.queue:
            queue = WorkQueue(args.queue)
            queue.init(plan)
            for cell in plan.cells:
                queue.enqueue(cell.cell_id)
            print(f"queued {len(plan.cells)} tickets under {args.queue}")
        if args.out:
            Path(args.out).write_text(
                json.dumps(plan.to_dict(), indent=2) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {args.out}")
        return 0

    # run
    import tempfile

    queue_dir = args.queue or tempfile.mkdtemp(prefix="stp-fabric-queue-")
    cache = ResultCache(args.cache_dir)
    try:
        result = run_fabric(
            spec,
            queue_dir,
            cache,
            workers=args.workers,
            rng_seed=args.rng_seed,
            rng_path=args.rng_path,
            run_timeout=args.run_timeout,
        )
    except FabricError as error:
        print(f"fabric run failed: {error}", file=sys.stderr)
        return 1
    outcome = result.outcome
    print(
        f"fabric: {len(result.plan.cells)} cells "
        f"({result.warm_cells} warm, {result.cold_cells} cold) over "
        f"{len(result.worker_stats)} workers"
    )
    for stats in result.worker_stats:
        print(
            f"  {stats.worker_id}: claimed {stats.claimed}, computed "
            f"{stats.computed}, warm {stats.warm}, failed {stats.failed}"
        )
    print(
        f"outcome: runs {outcome.summary.runs}, safe "
        f"{outcome.summary.safe}, completed {outcome.summary.completed}"
    )
    if args.out:
        Path(args.out).write_text(outcome_to_json(outcome), encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if not outcome.failures else 1


def _fabric_sweep(args) -> int:
    """``stp-repro fabric sweep``: distribute an explore/stabilize grid."""
    import json
    import tempfile
    from pathlib import Path

    from repro.analysis.cache import ResultCache
    from repro.fabric import (
        FabricError,
        SweepSpec,
        demo_sweep_spec,
        plan_sweep,
        run_sweep,
        serial_sweep,
        sweep_outcome_to_json,
    )

    if getattr(args, "spec", None):
        payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        spec = SweepSpec.from_dict(payload)
    else:
        spec = demo_sweep_spec(
            kind=args.kind,
            members=args.members,
            length=args.length,
            shards=args.shards,
        )
    cache = ResultCache(args.cache_dir)
    plan = plan_sweep(spec)
    try:
        if args.serial:
            results = serial_sweep(spec, cache)
            print(
                f"sweep ({spec.kind}, serial): "
                f"{len(plan.members())} members, {len(plan.cells)} cells"
            )
        else:
            queue_dir = args.queue or tempfile.mkdtemp(
                prefix="stp-sweep-queue-"
            )
            result = run_sweep(
                spec,
                queue_dir,
                cache,
                workers=args.workers,
                run_timeout=args.run_timeout,
            )
            results = result.results
            plan = result.plan
            print(
                f"sweep ({spec.kind}): {len(plan.cells)} cells "
                f"({result.warm_cells} warm, {result.cold_cells} cold) "
                f"over {len(result.worker_stats)} workers"
            )
            for stats in result.worker_stats:
                print(
                    f"  {stats.worker_id}: claimed {stats.claimed}, "
                    f"computed {stats.computed}, warm {stats.warm}, "
                    f"compiled {stats.compiled}, "
                    f"reused tables {stats.compile_reuse}"
                )
    except FabricError as error:
        print(f"sweep failed: {error}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(
            sweep_outcome_to_json(plan, results), encoding="utf-8"
        )
        print(f"wrote {args.out}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.requests import ServiceLimits
    from repro.service.server import serve

    limits = ServiceLimits(
        max_states=args.max_states,
        max_steps=args.max_steps,
        max_queue_depth=args.max_queue_depth,
        run_timeout=args.run_timeout,
    )
    print(
        f"serving stp-service/1 on {args.host} "
        f"(cache {args.cache_dir}, queue {args.queue}, "
        f"{args.workers} workers, {args.dispatch} dispatch)",
        flush=True,
    )
    try:
        asyncio.run(
            serve(
                args.cache_dir,
                args.queue,
                host=args.host,
                port=args.port,
                workers=args.workers,
                limits=limits,
                port_file=args.port_file,
                progress_interval=args.progress_interval,
                dispatch=args.dispatch,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _service_port(args) -> int:
    from pathlib import Path

    if args.port_file:
        return int(Path(args.port_file).read_text().strip())
    if args.port:
        return args.port
    print("need --port or --port-file", file=sys.stderr)
    raise SystemExit(2)


def _request_params(args) -> dict:
    if args.kind == "explore":
        params = {
            "protocol": args.protocol,
            "channel": args.channel,
            "input": args.input,
            "max_states": args.max_states,
            "engine": args.engine,
        }
        if args.reduce:
            params["reduce"] = True
        return params
    if args.kind == "stabilize":
        params = {
            "protocol": args.protocol,
            "channel": args.channel,
            "input": args.input,
            "max_states": args.max_states,
        }
        if args.domain:
            params["domain"] = args.domain
        return params
    if args.kind == "campaign":
        spec = _fabric_spec_from_args(args)
        return {"spec": spec.to_dict(), "rng_seed": args.seed}
    return {}


def _cmd_request(args) -> int:
    import json
    from pathlib import Path

    from repro.service.client import ServiceClient

    port = _service_port(args)
    client = ServiceClient(args.host, port, timeout=args.timeout)

    def on_event(message) -> None:
        if message.get("type") == "progress":
            print(
                f"... {message['elapsed_seconds']}s "
                f"{message.get('counters', {})}",
                file=sys.stderr,
            )

    with client:
        if args.kind == "ping":
            ok = client.ping()
            print("pong" if ok else "no answer")
            return 0 if ok else 1
        if args.kind == "shutdown":
            ok = client.shutdown()
            print("shutting down" if ok else "no answer")
            return 0 if ok else 1
        if args.kind == "stats":
            message = client.stats()
            if args.json:
                print(json.dumps(message, sort_keys=True, indent=2))
            else:
                for name, value in sorted(message["counters"].items()):
                    print(f"{name:18} {value}")
                print(f"{'in_flight':18} {message['in_flight']}")
            return 0
        message = client.call(
            args.kind,
            _request_params(args),
            subscribe=args.subscribe,
            on_event=on_event if args.subscribe else None,
        )
    if message.get("type") == "error":
        code = message.get("code", "internal")
        print(
            f"error [{code}]: {message.get('message')}",
            file=sys.stderr,
        )
        if message.get("details"):
            print(
                json.dumps(message["details"], sort_keys=True, indent=2),
                file=sys.stderr,
            )
        return {"bad_request": 2, "busy": 3, "budget_exceeded": 4}.get(
            code, 1
        )
    outcome = message["outcome"]
    # Canonical rendering (sorted keys, compact separators): identical
    # outcomes are byte-identical files, so the CI smoke gate can `cmp`
    # the answers of coalesced requests.
    rendered = (
        json.dumps(outcome, sort_keys=True, separators=(",", ":")) + "\n"
    )
    if args.out:
        Path(args.out).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    print(
        f"key {message['key'][:16]}... warm={message['warm']} "
        f"coalesced={message['coalesced']}",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``stp-repro``."""
    parser = argparse.ArgumentParser(
        prog="stp-repro",
        description=(
            "Reproduction of Wang & Zuck, 'Tight Bounds for the Sequence "
            "Transmission Problem' (1989)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiments").set_defaults(
        func=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run experiments by id")
    run_parser.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--quick", action="store_true")
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-parallel campaign sweeps (identical results)",
    )
    _add_engine_arguments(run_parser)
    _add_profile_arguments(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    alpha_parser = sub.add_parser("alpha", help="evaluate the tight bound")
    alpha_parser.add_argument("m", type=int)
    alpha_parser.set_defaults(func=_cmd_alpha)

    simulate_parser = sub.add_parser("simulate", help="run one transmission")
    simulate_parser.add_argument(
        "--protocol", default="norepeat", choices=("norepeat", "stenning")
    )
    simulate_parser.add_argument(
        "--channel", default="dup", help="dup, del, reorder, fifo, lossy-fifo"
    )
    simulate_parser.add_argument(
        "--adversary", default="random", choices=("eager", "random")
    )
    simulate_parser.add_argument(
        "--input", default="a,b,c", help="comma-separated data items"
    )
    simulate_parser.add_argument("--seed", type=int, default=0)
    simulate_parser.add_argument("--max-steps", type=int, default=20_000)
    simulate_parser.set_defaults(func=_cmd_simulate)

    attack_parser = sub.add_parser(
        "attack", help="attack an overfull family (Theorem 1/2 impossibility)"
    )
    attack_parser.add_argument("m", nargs="?", type=int, default=2)
    attack_parser.add_argument("--channel", default="dup", choices=("dup", "del"))
    attack_parser.add_argument("--max-states", type=int, default=400_000)
    attack_parser.set_defaults(func=_cmd_attack)

    trap_parser = sub.add_parser(
        "trap", help="search for liveness traps exhaustively"
    )
    trap_parser.add_argument(
        "--protocol", default="hybrid", choices=("norepeat", "hybrid")
    )
    trap_parser.add_argument(
        "--channel", default="del", choices=("del", "lossy-fifo")
    )
    trap_parser.add_argument("--input", default="a,b,a")
    trap_parser.add_argument("--cap", type=int, default=1)
    trap_parser.add_argument("--max-states", type=int, default=500_000)
    trap_parser.set_defaults(func=_cmd_trap)

    report_parser = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md from the live experiments"
    )
    report_parser.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument("--quick", action="store_true")
    report_parser.set_defaults(func=_cmd_report)

    bench_parser = sub.add_parser(
        "bench", help="time the perf suite and write BENCH_PR10.json"
    )
    bench_parser.add_argument(
        "ids", nargs="*", help="experiment ids to time (default: T1 T2 F1 F5)"
    )
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument(
        "--full", action="store_true", help="full (non-quick) experiment runs"
    )
    bench_parser.add_argument("--workers", type=int, default=4)
    bench_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "root of the content-addressed result cache (default: "
            "$STP_REPRO_CACHE or ~/.cache/stp-repro)"
        ),
    )
    bench_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely (every run is cold)",
    )
    bench_parser.add_argument(
        "--out", default="BENCH_PR10.json", help="output path for the perf JSON"
    )
    _add_engine_arguments(bench_parser)
    _add_profile_arguments(bench_parser)
    bench_parser.set_defaults(func=_cmd_bench)

    explore_parser = sub.add_parser(
        "explore", help="exhaustively explore one system and print the report"
    )
    explore_parser.add_argument("--protocol", default="norepeat")
    explore_parser.add_argument(
        "--channel", default="dup", help="dup, del, reorder, fifo, lossy-fifo"
    )
    explore_parser.add_argument(
        "--input", default="a,b", help="comma-separated data items"
    )
    explore_parser.add_argument("--max-states", type=int, default=500_000)
    explore_parser.add_argument(
        "--no-drops",
        action="store_true",
        help="exclude the environment's explicit drop moves",
    )
    explore_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="memoize via the content-addressed cache rooted here",
    )
    _add_engine_arguments(explore_parser)
    explore_parser.set_defaults(func=_cmd_explore)

    cache_parser = sub.add_parser(
        "cache", help="inspect and manage the content-addressed result cache"
    )
    cache_sub = cache_parser.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("stats", "print on-disk entry/byte totals per kind"),
        ("clear", "delete the whole cache directory"),
        ("prune", "evict oldest entries until the store fits --max-size"),
    ):
        action_parser = cache_sub.add_parser(action, help=help_text)
        action_parser.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help=(
                "cache root (default: $STP_REPRO_CACHE or "
                "~/.cache/stp-repro)"
            ),
        )
        if action == "prune":
            action_parser.add_argument(
                "--max-size",
                required=True,
                metavar="SIZE",
                help="byte budget, with optional K/M/G suffix (e.g. 64M)",
            )
        if action == "stats":
            action_parser.add_argument(
                "--json",
                action="store_true",
                help="emit the stats as JSON instead of the table",
            )
        action_parser.set_defaults(func=_cmd_cache, action=action)

    worker_parser = sub.add_parser(
        "worker",
        help=(
            "run one pull-based fabric worker over a shared queue "
            "directory and cache store"
        ),
    )
    worker_parser.add_argument(
        "--queue", required=True, metavar="DIR",
        help="the shared work-queue directory (see 'fabric plan --queue')",
    )
    worker_parser.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the shared result store cells are published into",
    )
    worker_parser.add_argument(
        "--run-timeout", type=float, default=60.0,
        help="wall-second budget per cell attempt",
    )
    worker_parser.add_argument(
        "--idle-timeout", type=float, default=10.0,
        help="give up after this long with nothing claimable",
    )
    worker_parser.add_argument(
        "--lease-timeout", type=float, default=60.0,
        help="heartbeat age after which another worker's lease is requeued",
    )
    worker_parser.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after claiming N cells (default: until drained)",
    )
    worker_parser.add_argument(
        "--worker-id", default=None,
        help="lease audit tag (default: <hostname>-<pid>)",
    )
    worker_parser.set_defaults(func=_cmd_worker)

    fabric_parser = sub.add_parser(
        "fabric",
        help=(
            "distributed campaign fabric: plan cells, run local workers, "
            "merge results (bit-identical to serial)"
        ),
    )
    fabric_sub = fabric_parser.add_subparsers(dest="action", required=True)

    def _add_spec_arguments(action_parser) -> None:
        action_parser.add_argument(
            "--spec", default=None, metavar="FILE",
            help="JSON FabricSpec (overrides the demo-grid flags)",
        )
        action_parser.add_argument("--protocol", default="norepeat")
        action_parser.add_argument("--channel", default="dup")
        action_parser.add_argument(
            "--inputs", type=int, default=6,
            help="number of demo input sequences (prefix lengths)",
        )
        action_parser.add_argument(
            "--seeds", type=int, default=2, help="seeds per input"
        )
        action_parser.add_argument(
            "--length", type=int, default=8,
            help="longest demo input length",
        )
        action_parser.add_argument("--rng-seed", type=int, default=0)
        action_parser.add_argument("--rng-path", default="fabric")

    fabric_plan = fabric_sub.add_parser(
        "plan",
        help="split a spec into content-addressed cells; optionally enqueue",
    )
    _add_spec_arguments(fabric_plan)
    fabric_plan.add_argument(
        "--queue", default=None, metavar="DIR",
        help="bind a work queue here and enqueue every cell",
    )
    fabric_plan.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="report warm/cold against this store",
    )
    fabric_plan.add_argument(
        "--out", default=None, metavar="FILE", help="write the plan JSON"
    )
    fabric_plan.set_defaults(func=_cmd_fabric, action="plan")

    fabric_run = fabric_sub.add_parser(
        "run", help="plan + N local workers + merge, in one command"
    )
    _add_spec_arguments(fabric_run)
    fabric_run.add_argument("--workers", type=int, default=2)
    fabric_run.add_argument(
        "--queue", default=None, metavar="DIR",
        help="queue directory (default: a fresh temp dir)",
    )
    fabric_run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared result store (default: $STP_REPRO_CACHE)",
    )
    fabric_run.add_argument("--run-timeout", type=float, default=60.0)
    fabric_run.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the canonical merged-outcome JSON",
    )
    fabric_run.set_defaults(func=_cmd_fabric, action="run")

    fabric_merge = fabric_sub.add_parser(
        "merge", help="reassemble a queue's outcome from the shared store"
    )
    fabric_merge.add_argument("--queue", required=True, metavar="DIR")
    fabric_merge.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared result store the cells were published into",
    )
    fabric_merge.add_argument(
        "--wait", type=float, default=0.0,
        help="poll up to this many seconds for straggler cells",
    )
    fabric_merge.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the canonical merged-outcome JSON",
    )
    fabric_merge.set_defaults(func=_cmd_fabric, action="merge")

    fabric_status = fabric_sub.add_parser(
        "status", help="show a queue's ticket counts, split by cell kind"
    )
    fabric_status.add_argument("--queue", required=True, metavar="DIR")
    fabric_status.add_argument(
        "--json", action="store_true",
        help="machine-readable status (plan, counts, per-kind counts)",
    )
    fabric_status.set_defaults(func=_cmd_fabric, action="status")

    fabric_sweep = fabric_sub.add_parser(
        "sweep",
        help=(
            "distribute an explore/stabilize grid over sweep cells "
            "(or --serial for the single-host reference)"
        ),
    )
    fabric_sweep.add_argument(
        "--kind", choices=("explore", "stabilize"), default="explore",
        help="demo sweep family (ignored with --spec)",
    )
    fabric_sweep.add_argument(
        "--spec", default=None, metavar="FILE",
        help="a SweepSpec JSON file instead of the demo grid",
    )
    fabric_sweep.add_argument(
        "--members", type=int, default=6,
        help="demo grid size (explore sweeps)",
    )
    fabric_sweep.add_argument(
        "--length", type=int, default=4,
        help="longest demo input sequence",
    )
    fabric_sweep.add_argument(
        "--shards", type=int, default=4,
        help="shards per stabilize member (demo spec)",
    )
    fabric_sweep.add_argument("--workers", type=int, default=2)
    fabric_sweep.add_argument(
        "--serial", action="store_true",
        help="run the single-host reference path instead of the fabric",
    )
    fabric_sweep.add_argument(
        "--queue", default=None, metavar="DIR",
        help="queue directory (default: a fresh temp dir)",
    )
    fabric_sweep.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared result store (default: $STP_REPRO_CACHE)",
    )
    fabric_sweep.add_argument("--run-timeout", type=float, default=120.0)
    fabric_sweep.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the canonical sweep-outcome JSON",
    )
    fabric_sweep.set_defaults(func=_cmd_fabric, action="sweep")

    chaos_parser = sub.add_parser(
        "chaos",
        help="run the fault-injection suite and write BENCH_PR2.json",
    )
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument(
        "--full",
        action="store_true",
        help="full grids and the long F8 sweep (default is quick)",
    )
    chaos_parser.add_argument("--workers", type=int, default=2)
    chaos_parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="directory for per-scenario checkpoint files (enables resume)",
    )
    chaos_parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-run wall-second budget before the runner kills a worker",
    )
    chaos_parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="per-run retries after a crash, hang, or error",
    )
    chaos_parser.add_argument(
        "--out", default="BENCH_PR2.json", help="output path for the JSON"
    )
    _add_profile_arguments(chaos_parser)
    chaos_parser.set_defaults(func=_cmd_chaos)

    stabilize_parser = sub.add_parser(
        "stabilize",
        help=(
            "corrupted-start exploration: per-source stabilization "
            "verdicts and depths"
        ),
    )
    stabilize_parser.add_argument(
        "--protocol",
        default="abp,ss-arq",
        help="comma-separated protocol names (default: abp,ss-arq)",
    )
    stabilize_parser.add_argument(
        "--channel",
        default="lossy-fifo",
        help="dup, del, reorder, fifo, lossy-fifo",
    )
    stabilize_parser.add_argument(
        "--cap",
        type=int,
        default=1,
        help="lossy-fifo capacity (bounds the forged channel contents)",
    )
    stabilize_parser.add_argument(
        "--input", default="a,b", help="comma-separated data items"
    )
    stabilize_parser.add_argument(
        "--domain",
        default="c,d",
        metavar="ITEMS",
        help=(
            "extra data letters beyond the input (comma-separated); "
            "letters the input never uses are what the symmetry "
            "reduction collapses"
        ),
    )
    stabilize_parser.add_argument(
        "--corruption",
        default="full",
        choices=("full", "receiver-amnesia"),
        help=(
            "corruption model: 'full' scrambles both local states, "
            "'receiver-amnesia' resets the receiver (the shape a "
            "state_loss='full' crash leaves behind)"
        ),
    )
    stabilize_parser.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="analyze a seeded deterministic subsample of N corrupt starts",
    )
    stabilize_parser.add_argument("--seed", type=int, default=0)
    stabilize_parser.add_argument("--max-states", type=int, default=500_000)
    stabilize_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="memoize via the content-addressed cache rooted here",
    )
    stabilize_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help=(
            "write a perf artifact with stabilize:<protocol> records and "
            "the recovery.stabilization_* gauges attached"
        ),
    )
    stabilize_parser.add_argument(
        "--reduce",
        action="store_true",
        help=(
            "judge one representative per symmetry class of the corrupt "
            "set (verdicts are unchanged)"
        ),
    )
    stabilize_parser.set_defaults(func=_cmd_stabilize)
    _add_profile_arguments(stabilize_parser)

    serve_parser = sub.add_parser(
        "serve",
        help="run the verification service (stp-service/1 over TCP)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick a free one, see --port-file)",
    )
    serve_parser.add_argument(
        "--port-file",
        default=None,
        metavar="FILE",
        help="write the bound port here once listening (for scripts)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="bounded worker pool size (concurrent cold computations)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=".stp-service-store",
        metavar="DIR",
        help="content-addressed result store shared with the fabric",
    )
    serve_parser.add_argument(
        "--queue",
        default=".stp-service-queue",
        metavar="DIR",
        help="job-ledger directory (a fabric WorkQueue layout)",
    )
    serve_parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=16,
        help="in-flight job ceiling; beyond it requests are shed (busy)",
    )
    serve_parser.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        help="largest per-request exploration state budget admitted",
    )
    serve_parser.add_argument(
        "--max-steps",
        type=int,
        default=100_000,
        help="largest per-run campaign step budget admitted",
    )
    serve_parser.add_argument(
        "--run-timeout",
        type=float,
        default=60.0,
        help="wall-second supervision budget per campaign cell",
    )
    serve_parser.add_argument(
        "--progress-interval",
        type=float,
        default=0.5,
        help="seconds between progress events for subscribed requests",
    )
    serve_parser.add_argument(
        "--dispatch",
        choices=("inline", "enqueue"),
        default="inline",
        help=(
            "cold explore/stabilize jobs: compute in the pool (inline) "
            "or enqueue fabric sweep cells for external workers (enqueue)"
        ),
    )
    serve_parser.set_defaults(func=_cmd_serve)

    request_parser = sub.add_parser(
        "request",
        help="send one request to a running verification service",
    )
    request_parser.add_argument(
        "kind",
        choices=(
            "explore", "stabilize", "campaign", "ping", "stats", "shutdown"
        ),
    )
    request_parser.add_argument("--host", default="127.0.0.1")
    request_parser.add_argument("--port", type=int, default=0)
    request_parser.add_argument(
        "--port-file",
        default=None,
        metavar="FILE",
        help="read the port from a file written by `serve --port-file`",
    )
    request_parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="client-side socket timeout in seconds",
    )
    request_parser.add_argument(
        "--subscribe",
        action="store_true",
        help="stream progress events to stderr while the job runs",
    )
    request_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the canonical outcome JSON here instead of stdout",
    )
    request_parser.add_argument(
        "--json", action="store_true", help="stats: emit the raw JSON"
    )
    request_parser.add_argument("--protocol", default="norepeat")
    request_parser.add_argument(
        "--channel", default="dup", help="explore/stabilize channel name"
    )
    request_parser.add_argument(
        "--input", default="a,b", help="comma-separated data items"
    )
    request_parser.add_argument(
        "--domain", default=None, help="stabilize: extra domain letters"
    )
    request_parser.add_argument("--max-states", type=int, default=100_000)
    request_parser.add_argument(
        "--engine", choices=ENGINES, default="scalar"
    )
    request_parser.add_argument("--reduce", action="store_true")
    request_parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="campaign: a FabricSpec JSON file (default: the demo grid)",
    )
    request_parser.add_argument(
        "--inputs", type=int, default=6, help="campaign demo-grid inputs"
    )
    request_parser.add_argument(
        "--seeds", type=int, default=2, help="campaign demo-grid seeds"
    )
    request_parser.add_argument(
        "--length", type=int, default=8, help="campaign demo-grid length"
    )
    request_parser.add_argument(
        "--seed", type=int, default=0, help="campaign RNG seed"
    )
    request_parser.set_defaults(func=_cmd_request)

    stats_parser = sub.add_parser(
        "stats",
        help="render span/metrics tables from a BENCH_*.json or spans .jsonl",
    )
    stats_parser.add_argument(
        "path",
        nargs="?",
        default="BENCH_PR10.json",
        help="perf/chaos artifact or span trace (default: BENCH_PR10.json)",
    )
    stats_parser.add_argument(
        "--json",
        action="store_true",
        help="emit {label, spans, metrics} as JSON instead of the tables",
    )
    stats_parser.set_defaults(func=_cmd_stats)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
