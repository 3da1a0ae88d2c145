"""``repro.obs`` -- the zero-dependency observability subsystem.

One module-level switch, one process-wide tracer, one process-wide
metrics registry.  The instrumented layers (explorer, compiled kernel,
simulator, campaign engine, resilient runner, result cache, work
fabric -- ``fabric.cells_claimed`` / ``fabric.cells_warm`` /
``fabric.lease_expired`` / ``fabric.merge_wait`` and friends) call the
helpers below unconditionally; when observability is **disabled** (the
default) every helper is a single flag test --

* :func:`span` returns a shared no-op context manager,
* :func:`add` / :func:`observe` / :func:`gauge_set` return immediately,

-- so instrumentation stays in the code permanently at <2% overhead on
the hottest compiled-kernel paths (asserted by
:func:`repro.analysis.perfreport.measure_obs_overhead` and the
``obs:overhead-disabled`` record of ``BENCH_PR10.json``).

Enable with :func:`enable`, the ``--profile spans`` CLI flag, or the
``STP_REPRO_OBS=1`` environment variable.  :func:`scoped` swaps in fresh
collectors for one block (tests, overhead probes) and restores the
previous state afterwards.

**Fork aggregation.**  Pool children call :func:`mark` before doing
work and :func:`delta_since` after; the parent calls :func:`merge` on
the shipped delta.  Metrics merge bit-identically (integer sums / max);
spans are re-identified into the parent's sequence.  See
:mod:`repro.obs.metrics` for the exact semantics.

Span taxonomy and metric names are catalogued in
``docs/observability.md``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Optional, Sequence

from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NOOP_SPAN, MAX_SPANS, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "add",
    "delta_since",
    "disable",
    "enable",
    "enabled",
    "export_sections",
    "gauge_set",
    "mark",
    "merge",
    "observe",
    "registry",
    "reset",
    "scoped",
    "span",
    "tracer",
]

ENV_VAR = "STP_REPRO_OBS"

_enabled: bool = bool(os.environ.get(ENV_VAR, "").strip())
_tracer: Tracer = Tracer()
_registry: MetricsRegistry = MetricsRegistry()


def enabled() -> bool:
    """True when spans and metrics are being collected."""
    return _enabled


def enable() -> None:
    """Turn collection on (idempotent)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn collection off; already-collected data is kept."""
    global _enabled
    _enabled = False


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def reset() -> None:
    """Drop every collected span and metric (the switch is untouched)."""
    _tracer.reset()
    _registry.reset()


# -- the hot-path helpers --------------------------------------------------


def span(name: str, **attrs):
    """A timed, named, nested region: ``with obs.span("explore", m=3):``.

    Disabled path: one flag test, then the shared no-op context manager.
    """
    if not _enabled:
        return NOOP_SPAN
    return _tracer.start(name, attrs)


def add(name: str, amount: int = 1) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    if not _enabled:
        return
    _registry.counter(name).add(amount)


def observe(
    name: str, value: float, bounds: Sequence[float] = DEFAULT_BOUNDS
) -> None:
    """Record ``value`` into histogram ``name`` (no-op while disabled)."""
    if not _enabled:
        return
    _registry.histogram(name, bounds).observe(value)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    if not _enabled:
        return
    _registry.gauge(name).set(value)


# -- fork-safe aggregation -------------------------------------------------

ObsMark = Dict[str, object]
ObsDelta = Dict[str, object]


def mark() -> Optional[ObsMark]:
    """A cut point for :func:`delta_since`; None while disabled."""
    if not _enabled:
        return None
    return {"spans": _tracer.mark(), "metrics": _registry.snapshot()}


def delta_since(cut: Optional[ObsMark]) -> Optional[ObsDelta]:
    """Everything collected after ``cut``, as a picklable plain-dict delta.

    Forked children call this at the end of their task and ship
    the result back beside their payload; ``None`` (disabled, or nothing
    new) means there is nothing to merge.
    """
    if not _enabled or cut is None:
        return None
    spans = _tracer.since(cut["spans"])  # type: ignore[arg-type]
    metrics = _registry.diff(cut["metrics"])  # type: ignore[arg-type]
    if not spans and not metrics:
        return None
    return {"spans": spans, "metrics": metrics}


def merge(delta: Optional[ObsDelta]) -> None:
    """Fold a child's :func:`delta_since` result into this process."""
    if delta is None or not _enabled:
        return
    _tracer.absorb(delta.get("spans") or [])  # type: ignore[arg-type]
    _registry.merge(delta.get("metrics") or {})  # type: ignore[arg-type]


# -- export ----------------------------------------------------------------


def export_sections() -> Dict[str, object]:
    """The ``spans:`` and ``metrics:`` sections for BENCH_*.json files.

    ``spans`` is the per-name aggregate table (full span lists go to the
    JSONL exporter instead -- BENCH files stay diffable); ``metrics`` is
    the registry's JSON form.
    """
    return {
        "spans": _tracer.summaries(),
        "metrics": _registry.to_dict(),
    }


@contextmanager
def scoped(
    enabled_value: bool = True, max_spans: int = MAX_SPANS
):
    """Fresh collectors (and switch state) for one block.

    Yields ``(tracer, registry)``; on exit the previous tracer, registry,
    and enabled flag are restored.  The backbone of the obs test-suite
    and the disabled-overhead probe -- global state never leaks between
    measurements.
    """
    global _enabled, _tracer, _registry
    saved = (_enabled, _tracer, _registry)
    _tracer = Tracer(max_spans=max_spans)
    _registry = MetricsRegistry()
    _enabled = enabled_value
    try:
        yield _tracer, _registry
    finally:
        _enabled, _tracer, _registry = saved
