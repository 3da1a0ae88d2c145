"""Per-layer timing shims, installed from the benchmark's own files.

A traced repetition wraps the public calls of each ``repro`` layer and
records, per layer, the count of work done and the *self time*: a call's
duration minus the duration of the traced calls nested inside it on the
same thread.  Nothing under ``src/`` changes.

Hot kernel calls (``System.apply``, ``ConfigurationInterner.key``, ...)
run hundreds of thousands of times per repetition, so they only
accumulate totals; every other call also keeps a span record in memory,
written out when the repetition ends.

Forked processes (fabric workers and their per-cell children) inherit
the shims.  Their totals travel home through the ``repro.obs`` deltas
the program already ships over its pipes: just before a child computes
its delta, the shim flushes its totals into ``repro.obs`` counters.
"""

from __future__ import annotations

import importlib
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Prefix of the ``repro.obs`` counters that carry totals home from forks.
TRANSPORT = "perfbench:"
MAX_SPANS = 200_000

#: The per-layer metrics a traced repetition reports, in table order.
LAYER_METRICS = (
    "build.systems", "build.s",
    "compile.tables", "compile.states", "compile.rows",
    "compile.apply_calls", "compile.apply_s",
    "compile.enabled_calls", "compile.enabled_s",
    "compile.intern_calls", "compile.intern_s",
    "canon.calls", "canon.s",
    "search.s", "search.states", "search.states_per_s",
    "stabilize.enumerate_s", "stabilize.sources", "stabilize.classes",
    "stabilize.multi_source_s", "stabilize.verdict_s",
    "cache.get_calls", "cache.hits", "cache.hit_ratio", "cache.get_s",
    "cache.put_calls", "cache.put_s", "cache.bytes_read", "cache.bytes_written",
    "store.read_calls", "store.read_s", "store.write_calls", "store.write_s",
    "queue.enqueue_calls", "queue.claim_calls", "queue.claim_s",
    "queue.done_s", "queue.requeued",
    "fork.cells", "fork.s", "fork.s_per_cell",
    "fabric.plan_s", "fabric.merge_s", "fabric.cells_claimed", "fabric.cells_failed",
    "simulate.runs", "simulate.steps",
    "service.admit_s", "service.job_s", "service.wait_s",
    "service.computed", "service.warm", "service.coalesced", "service.shed",
)

LAYERS = ("build", "compile", "canon", "search", "stabilize", "cache", "store",
          "queue", "fork", "fabric", "simulate", "service")


class LayerTracer:
    """Install shims, accumulate per-thread totals, remove shims."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals: List[Dict[str, float]] = []
        self.spans: List[tuple] = []
        self.top_level: Dict[int, float] = defaultdict(float)
        self._patches: List[tuple] = []
        self._generation = 0
        self._in_main = True

    # -- per-thread state ------------------------------------------------

    def _state(self):
        local = self._local
        if getattr(local, "generation", -1) != self._generation:
            local.generation = self._generation
            local.stack = []
            local.totals = defaultdict(float)
            local.last_put = None
            local.merging = 0
            with self._lock:
                self._totals.append(local.totals)
        return local

    def _after_fork(self) -> None:
        # A forked child starts with no open spans and no totals of its
        # own; whatever it records is flushed home through repro.obs.
        self._generation += 1
        self._in_main = False
        self._lock = threading.Lock()
        self._totals = []
        self.spans = []
        self.top_level = defaultdict(float)

    def flush_to_obs(self) -> None:
        """Move this process's totals into ``repro.obs`` counters."""
        from repro import obs

        with self._lock:
            for totals in self._totals:
                for name, value in totals.items():
                    if value:
                        obs.add(TRANSPORT + name, value)
                totals.clear()

    def totals(self) -> Dict[str, float]:
        """Totals of this process plus those shipped home from forks."""
        from repro import obs

        merged: Dict[str, float] = defaultdict(float)
        with self._lock:
            for totals in self._totals:
                for name, value in totals.items():
                    merged[name] += value
        for name, metric in obs.registry().to_dict().items():
            if name.startswith(TRANSPORT):
                merged[name[len(TRANSPORT):]] += metric.get("value", 0)
            elif name == "compiled.rows_materialized":
                merged["compile.rows"] += metric.get("value", 0)
        return merged

    # -- wrapping --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owners, attr: str, layer: str, time_metric: Optional[str] = None,
             calls_metric: Optional[str] = None, hot: bool = False,
             after: Optional[Callable] = None, before: Optional[Callable] = None):
        """Wrap ``attr`` on every owner (class or module) that binds it.

        ``time_metric`` (a name or a tuple of names) gets the call's self
        time and ``calls_metric`` one per call.  ``before(state, args)``
        may return a token that is handed to ``after(totals, state, args,
        result, token)``.  ``hot`` calls keep no span record, and inside
        a simulated run they are left to the simulator's own time.
        """
        owners = owners if isinstance(owners, (list, tuple)) else [owners]
        time_metrics = (time_metric,) if isinstance(time_metric, str) else time_metric or ()
        original = owners[0].__dict__[attr]
        if isinstance(original, staticmethod):
            original = original.__func__
        name = f"{getattr(owners[0], '__name__', owners[0])}.{attr}"
        layer_total = "layer." + layer
        tracer = self

        def shim(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if hot and stack and stack[-1][1] == "simulate":
                return original(*args, **kwargs)
            token = before(state, args) if before is not None else None
            frame = [0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                totals = state.totals
                totals[layer_total] += own
                for metric in time_metrics:
                    totals[metric] += own
                if calls_metric:
                    totals[calls_metric] += 1
                if stack:
                    stack[-1][0] += duration
                elif tracer._in_main:
                    tracer.top_level[threading.get_ident()] += duration
                if not hot and len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((name, layer, start, end, len(stack),
                                         threading.get_ident(), os.getpid()))
            if after is not None:
                after(state.totals, state, args, result, token)
            return result

        shim.__wrapped__ = original
        for owner in owners:
            self._patch(owner, attr, shim)

    def remove(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _modules(*names):
    return [importlib.import_module(name) for name in names]


def install(tracer: LayerTracer) -> None:
    """Wrap the public calls of every layer the workloads touch."""
    from repro import obs
    from repro.analysis.cache import ResultCache
    from repro.fabric.queue import WorkQueue
    from repro.fabric.store import LocalDirStore
    from repro.fabric.worker import FabricWorker
    from repro.kernel.compiled import CompiledSystem
    from repro.kernel.intern import ConfigurationInterner
    from repro.kernel.simulator import Simulator
    from repro.kernel.system import System
    from repro.service.requests import ExploreRequest, StabilizeRequest

    wrap = tracer.wrap
    os.register_at_fork(after_in_child=tracer._after_fork)

    def flush_then_delta(cut):
        tracer.flush_to_obs()
        return original_delta(cut)

    original_delta = obs.delta_since
    tracer._patch(obs, "delta_since", flush_then_delta)

    # build: protocols, channels, System construction
    wrap(System, "__init__", "build", "build.s", "build.systems")
    wrap(_modules("repro.protocols", "repro.protocols.registry"),
         "protocol_by_name", "build", "build.s")
    wrap(_modules("repro.channels", "repro.channels.registry"),
         "channel_by_name", "build", "build.s")
    wrap(_modules("repro.fabric.sweep"), "build_explore_system", "build", "build.s")
    wrap(_modules("repro.fabric.sweep"), "build_stabilize_system", "build", "build.s")

    # compile: kernel.compiled + kernel.intern
    wrap(CompiledSystem, "__init__", "compile", calls_metric="compile.tables")
    # compile.rows comes from the program's own compiled.rows_materialized
    # counter (see LayerTracer.totals); the shim only times the row builds.
    wrap(CompiledSystem, "row", "compile", hot=True)
    wrap(System, "apply", "compile", "compile.apply_s", "compile.apply_calls", hot=True)
    wrap(System, "enabled_events", "compile", "compile.enabled_s",
         "compile.enabled_calls", hot=True)
    wrap(ConfigurationInterner, "key", "compile", "compile.intern_s",
         "compile.intern_calls", hot=True)

    def count_new(totals, state, args, result, token):
        # ensure() returns (id, is_new); intern() returns None if seen.
        is_new = result[1] if isinstance(result, tuple) else result is not None
        if is_new:
            totals["compile.states"] += 1

    wrap(ConfigurationInterner, "ensure", "compile", "compile.intern_s", hot=True,
         after=count_new)
    wrap(ConfigurationInterner, "intern", "compile", "compile.intern_s", hot=True,
         after=count_new)

    # canon: the key functions kernel.frontier hands out
    def wrap_key_factory(module_names, attr):
        modules = _modules(*module_names)
        factory = modules[0].__dict__[attr]

        def wrapped_factory(*args, **kwargs):
            key_fn = factory(*args, **kwargs)
            holder = type("KeyFunction", (), {"key": staticmethod(key_fn)})
            wrap(holder, "key", "canon", "canon.s", "canon.calls", hot=True)
            return holder.key

        for module in modules:
            tracer._patch(module, attr, wrapped_factory)

    wrap_key_factory(("repro.kernel.frontier", "repro.resilience.stabilize"),
                     "stabilization_state_key")
    wrap_key_factory(("repro.kernel.frontier",), "canonical_state_key")

    # search: verify.explorer and kernel.frontier BFS
    def count_report(totals, state, args, result, token):
        report = result[0] if isinstance(result, tuple) else result
        totals["search.states"] += report.states

    wrap(_modules("repro.verify.explorer"), "explore_compiled", "search", "search.s",
         after=count_report)
    wrap(_modules("repro.kernel.frontier"), "explore_batched", "search", "search.s",
         after=count_report)
    wrap(_modules("repro.kernel.frontier"), "explore_batched_resumable", "search",
         "search.s", after=count_report)

    def count_visited(totals, state, args, result, token):
        totals["search.states"] += len(result[0])

    wrap(_modules("repro.kernel.frontier", "repro.resilience.stabilize"),
         "explore_multi_source_batched", "search",
         ("search.s", "stabilize.multi_source_s"), after=count_visited)

    # stabilize: resilience.stabilize
    def count_sources(totals, state, args, result, token):
        totals["stabilize.sources"] += result.sources
        totals["stabilize.classes"] += result.classes

    wrap(_modules("repro.resilience.stabilize"), "analyze_stabilization", "stabilize",
         "stabilize.verdict_s", after=count_sources)
    wrap(_modules("repro.resilience.stabilize"), "corrupt_initial_set", "stabilize",
         "stabilize.enumerate_s")

    # cache: analysis.cache.  A hit counts only when it served an answer:
    # a read-back of the entry this thread just put, or a merge reading
    # the cells the run itself computed, is a store read, not a hit.
    def note_get(totals, state, args, result, token):
        _, kind, key = args[:3]
        readback = state.last_put == (kind, key)
        state.last_put = None
        if result is not None and not readback and not state.merging:
            totals["cache.hits"] += 1

    def note_put(totals, state, args, result, token):
        state.last_put = (args[1], args[2])

    wrap(ResultCache, "get", "cache", "cache.get_s", "cache.get_calls", after=note_get)
    wrap(ResultCache, "put", "cache", "cache.put_s", "cache.put_calls", after=note_put)

    # store: fabric.store
    def bytes_read(totals, state, args, result, token):
        if result is not None:
            totals["cache.bytes_read"] += len(result)

    def bytes_written(totals, state, args, result, token):
        totals["cache.bytes_written"] += len(args[3])

    wrap(LocalDirStore, "read", "store", "store.read_s", "store.read_calls",
         after=bytes_read)
    wrap(LocalDirStore, "write", "store", "store.write_s", "store.write_calls",
         after=bytes_written)

    # queue: fabric.queue
    def count_requeued(totals, state, args, result, token):
        totals["queue.requeued"] += result or 0

    wrap(WorkQueue, "init", "queue")
    wrap(WorkQueue, "enqueue", "queue", calls_metric="queue.enqueue_calls")
    wrap(WorkQueue, "claim", "queue", "queue.claim_s", "queue.claim_calls")
    wrap(WorkQueue, "mark_done", "queue", "queue.done_s")
    wrap(WorkQueue, "heartbeat", "queue")
    wrap(WorkQueue, "requeue_expired", "queue", after=count_requeued)

    # fork: the per-cell supervised child
    wrap(_modules("repro.resilience.runner"), "supervised_single_run", "fork",
         "fork.s", "fork.cells")

    # fabric: coordinator, worker loop, merge
    def enter_merge(state, args):
        state.merging += 1

    def leave_merge(totals, state, args, result, token):
        state.merging -= 1

    def count_claims(totals, state, args, result, token):
        totals["fabric.cells_claimed"] += result.claimed
        totals["fabric.cells_failed"] += result.failed

    coordinator = _modules("repro.fabric.coordinator")
    wrap(coordinator, "run_fabric", "fabric")
    wrap(coordinator, "plan_cells", "fabric", "fabric.plan_s")
    wrap(coordinator, "split_warm_cold", "fabric")
    wrap(coordinator, "merge_outcome", "fabric", "fabric.merge_s",
         before=enter_merge, after=leave_merge)
    wrap(FabricWorker, "run", "fabric", after=count_claims)

    # simulate: kernel.simulator
    def count_run(totals, state, args, result, token):
        totals["simulate.runs"] += 1
        totals["simulate.steps"] += result.steps

    wrap(Simulator, "run", "simulate", after=count_run)
    wrap(_modules("repro.kernel.simulator", "repro.analysis.campaign"),
         "simulate_compiled", "simulate", after=count_run)

    # service: admission (parse + job key) and the pool's execute
    wrap(_modules("repro.service.server"), "parse_request", "service", "service.admit_s")
    for request_class in (ExploreRequest, StabilizeRequest):
        wrap(request_class, "job_key", "service", "service.admit_s")

    def job_time(state, args):
        return perf_counter()

    def count_job(totals, state, args, result, started):
        totals["service.job_s"] += perf_counter() - started

    for request_class in (ExploreRequest, StabilizeRequest):
        wrap(request_class, "execute", "service", before=job_time, after=count_job)


def layer_metrics(totals: Dict[str, float]) -> Dict[str, float]:
    """The reported per-layer metrics, with derived ratios filled in."""
    values = {name: float(totals.get(name, 0.0)) for name in LAYER_METRICS}
    gets = values["cache.get_calls"]
    values["cache.hit_ratio"] = values["cache.hits"] / gets if gets else 0.0
    if values["search.s"] > 0:
        values["search.states_per_s"] = values["search.states"] / values["search.s"]
    cells = values["fork.cells"]
    values["fork.s_per_cell"] = values["fork.s"] / cells if cells else 0.0
    return values
