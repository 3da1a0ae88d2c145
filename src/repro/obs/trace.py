"""The span tracer: nested, timed regions of work.

A *span* is one named region of execution -- ``explore``, ``simulate``,
``campaign.run`` -- with wall and CPU clocks, free-form attributes, and a
link to the span that was open when it started.  Spans nest naturally
through a per-thread stack, so a campaign span contains its runs' spans,
which contain their simulator spans, without any caller coordination.

Ids are monotonic per :class:`Tracer` (and therefore per process: the
module-global tracer is what the instrumented layers emit into).  When a
forked child ships its spans back to the parent
(:func:`repro.obs.delta_since` / :func:`repro.obs.merge`), the parent
re-assigns ids from its own sequence while preserving the parent-child
links inside the shipped batch, so a merged trace never has colliding
ids.

Everything here is import-cheap and allocation-free until the first span
actually starts; the enabled-flag fast path lives in
:mod:`repro.obs` itself (``span()`` returns a shared no-op context
manager when tracing is off).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Hard cap on retained finished spans; beyond it spans are counted but
#: dropped, so a pathological loop cannot exhaust memory.
MAX_SPANS = 100_000


@dataclass
class Span:
    """One finished (or in-flight) traced region.

    Attributes:
        span_id: monotonic id, unique within the owning tracer.
        parent_id: id of the enclosing span, or None at top level.
        name: the region's stable name (the span taxonomy is documented
            in ``docs/observability.md``).
        attrs: free-form JSON-serializable details.
        pid: the process that recorded the span (fork workers differ
            from the parent).
        start_wall: ``time.perf_counter()`` at entry (process-local;
            meaningful for ordering within one process only).
        wall_seconds / cpu_seconds: elapsed wall and CPU time.
        status: "ok", or "error" when the region raised.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    attrs: Dict[str, object] = field(default_factory=dict)
    pid: int = 0
    start_wall: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    status: str = "ok"

    def to_dict(self) -> Dict[str, object]:
        """The JSON form written by the JSONL exporter."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "start_wall": self.start_wall,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        """Inverse of :meth:`to_dict` (the JSONL parse-back path)."""
        return cls(
            span_id=int(data["span_id"]),  # type: ignore[arg-type]
            parent_id=(
                None if data.get("parent_id") is None
                else int(data["parent_id"])  # type: ignore[arg-type]
            ),
            name=str(data["name"]),
            attrs=dict(data.get("attrs", {})),  # type: ignore[arg-type]
            pid=int(data.get("pid", 0)),  # type: ignore[arg-type]
            start_wall=float(data.get("start_wall", 0.0)),  # type: ignore[arg-type]
            wall_seconds=float(data.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),  # type: ignore[arg-type]
            status=str(data.get("status", "ok")),
        )


class _ActiveSpan:
    """Context manager for one in-flight span (returned by ``span()``)."""

    __slots__ = ("tracer", "span", "_cpu_start")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span
        self._cpu_start = 0.0

    def set(self, **attrs) -> "_ActiveSpan":
        """Attach attributes mid-flight (chainable)."""
        self.span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self.span.start_wall = time.perf_counter()
        self._cpu_start = time.process_time()
        self.tracer._push(self.span)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self.span
        span.wall_seconds = time.perf_counter() - span.start_wall
        span.cpu_seconds = time.process_time() - self._cpu_start
        if exc_type is not None:
            span.status = "error"
            span.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(span)


class _NoopSpan:
    """The disabled-path context manager: one shared, stateless instance."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects finished spans and tracks the per-thread open-span stack."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.finished: List[Span] = []
        self.dropped = 0
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle --------------------------------------------------

    def start(self, name: str, attrs: Dict[str, object]) -> _ActiveSpan:
        """A new span nested under the current thread's open span."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent_id = stack[-1].span_id if stack else None
        span = Span(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            attrs=attrs,
            pid=os.getpid(),
        )
        return _ActiveSpan(self, span)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # unbalanced exit (generator abandoned mid-span): best effort
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            if len(self.finished) < self.max_spans:
                self.finished.append(span)
            else:
                self.dropped += 1

    # -- fork-safe shipping ----------------------------------------------

    def mark(self) -> int:
        """A cut point for :meth:`since` (the finished-span count)."""
        with self._lock:
            return len(self.finished)

    def since(self, mark: int) -> List[Dict[str, object]]:
        """JSON forms of every span finished after ``mark``."""
        with self._lock:
            return [span.to_dict() for span in self.finished[mark:]]

    def absorb(self, shipped: List[Dict[str, object]]) -> None:
        """Merge a child's span batch, re-assigning ids from our sequence.

        Parent-child links *within* the batch are preserved; links to
        spans outside the batch (the child's inherited prefix) are
        detached to top level -- those parents already exist in this
        tracer as themselves.
        """
        if not shipped:
            return
        remap: Dict[int, int] = {}
        absorbed: List[Span] = []
        with self._lock:
            for data in shipped:
                new_id = self._next_id
                self._next_id += 1
                remap[int(data["span_id"])] = new_id  # type: ignore[arg-type]
            for data in shipped:
                span = Span.from_dict(data)
                span.span_id = remap[span.span_id]
                span.parent_id = (
                    remap.get(span.parent_id)
                    if span.parent_id is not None
                    else None
                )
                absorbed.append(span)
            for span in absorbed:
                if len(self.finished) < self.max_spans:
                    self.finished.append(span)
                else:
                    self.dropped += 1

    # -- summaries ---------------------------------------------------------

    def spans(self) -> Tuple[Span, ...]:
        """A snapshot of the finished spans, in completion order."""
        with self._lock:
            return tuple(self.finished)

    def summaries(self) -> List[Dict[str, object]]:
        """Per-name aggregates: count, total/mean wall, total CPU.

        Sorted by total wall time, descending -- the "where did the time
        go" table.
        """
        groups: Dict[str, List[Span]] = {}
        for span in self.spans():
            groups.setdefault(span.name, []).append(span)
        rows = []
        for name, members in groups.items():
            wall = sum(s.wall_seconds for s in members)
            rows.append(
                {
                    "name": name,
                    "count": len(members),
                    "wall_seconds": wall,
                    "mean_seconds": wall / len(members),
                    "cpu_seconds": sum(s.cpu_seconds for s in members),
                    "errors": sum(1 for s in members if s.status == "error"),
                }
            )
        rows.sort(key=lambda row: row["wall_seconds"], reverse=True)
        return rows

    def reset(self) -> None:
        """Drop every finished span (open spans are unaffected)."""
        with self._lock:
            self.finished.clear()
            self.dropped = 0
