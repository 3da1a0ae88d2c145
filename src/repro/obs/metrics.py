"""The process-wide metrics registry: counters, gauges, histograms.

Counts that matter to the performance trajectory -- states explored,
cache hits and misses, supervised children in flight, retry counts, recovery
steps -- accumulate here instead of being scraped post-hoc out of traces
and reports.  Three instrument kinds:

* :class:`Counter` -- a monotone integer sum (``states explored``);
* :class:`Gauge` -- a level with high-water semantics under merge
  (``children in flight``): merging takes the max, so a parallel
  sweep reports the same high-water mark no matter which worker saw it;
* :class:`Histogram` -- a fixed-bucket distribution with exact count /
  sum / min / max (``recovery steps``, ``time to resync``).

**Fork safety.**  The campaign engine and the resilient runner execute
runs in forked children, which inherit a snapshot of the registry and
then diverge.  Every instrument state is a plain value, so the protocol
is: the child takes :meth:`MetricsRegistry.snapshot` when it starts
work, computes :meth:`diff` against it when it finishes, and ships the
delta (plain dicts -- picklable) through the result pipe; the parent
:meth:`merge`\\ s it.  Counter and histogram merges are integer sums and
gauge merges are max, so the merged registry is **bit-identical** to
what a serial execution would have accumulated, in any merge order --
the same property the result cache's hit/miss counters get from doing
lookups only in the parent.

Histogram observations are kept exact (count, sum, min, max are plain
arithmetic; buckets are integer counts), so for the integer-valued
measurements this library records, serial and parallel sweeps produce
identical JSON.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds: a 1-2-5 geometric ladder wide
#: enough for step counts (the largest budgets are ~50k steps).
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
)


class Counter:
    """A monotone sum.  ``merge`` adds; serialized as ``{"value": n}``."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def state(self) -> Dict[str, object]:
        return {"value": self.value}

    def diff(self, baseline: Optional[Dict[str, object]]) -> Dict[str, object]:
        base = baseline["value"] if baseline else 0
        return {"value": self.value - base}

    def merge(self, delta: Dict[str, object]) -> None:
        self.value += delta["value"]  # type: ignore[operator]


class Gauge:
    """A level with last-write locally and high-water (max) merge."""

    kind = "gauge"
    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.high_water: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def state(self) -> Dict[str, object]:
        return {"value": self.value, "high_water": self.high_water}

    def diff(self, baseline: Optional[Dict[str, object]]) -> Dict[str, object]:
        # Gauges are levels, not sums: the child's view ships whole.
        return self.state()

    def merge(self, delta: Dict[str, object]) -> None:
        high = delta.get("high_water", delta["value"])
        if high > self.high_water:  # type: ignore[operator]
            self.high_water = high  # type: ignore[assignment]
        self.value = max(self.value, delta["value"])  # type: ignore[type-var]


class Histogram:
    """A fixed-bucket distribution with exact count/sum/min/max.

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last edge.  Bucket counts, ``count`` and ``sum``
    merge by addition, ``min``/``max`` by comparison -- all exact for the
    integer observations this library records.
    """

    kind = "histogram"
    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum: float = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return (self.sum / self.count) if self.count else None

    def state(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def diff(self, baseline: Optional[Dict[str, object]]) -> Dict[str, object]:
        if not baseline:
            return self.state()
        base_buckets: List[int] = baseline["buckets"]  # type: ignore[assignment]
        return {
            "bounds": list(self.bounds),
            "buckets": [
                mine - theirs
                for mine, theirs in zip(self.buckets, base_buckets)
            ],
            "count": self.count - baseline["count"],  # type: ignore[operator]
            "sum": self.sum - baseline["sum"],  # type: ignore[operator]
            # min/max are not invertible; the child's absolutes still
            # merge correctly (comparison, not subtraction).
            "min": self.min,
            "max": self.max,
        }

    def merge(self, delta: Dict[str, object]) -> None:
        if tuple(delta["bounds"]) != self.bounds:  # type: ignore[arg-type]
            raise ValueError(
                f"histogram bounds mismatch: {delta['bounds']!r} vs "
                f"{self.bounds!r}"
            )
        for index, increment in enumerate(delta["buckets"]):  # type: ignore[arg-type]
            self.buckets[index] += increment
        self.count += delta["count"]  # type: ignore[operator]
        self.sum += delta["sum"]  # type: ignore[operator]
        for edge, pick in (("min", min), ("max", max)):
            theirs = delta.get(edge)
            if theirs is None:
                continue
            mine = getattr(self, edge)
            setattr(
                self, edge, theirs if mine is None else pick(mine, theirs)
            )


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Named instruments with snapshot/diff/merge for fork aggregation."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    # -- instrument access -------------------------------------------------

    def _get(self, name: str, cls, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = cls(**kwargs)
                    self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get-or-create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the gauge ``name``."""
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        """Get-or-create the histogram ``name``."""
        return self._get(name, Histogram, bounds=bounds)

    def get(self, name: str):
        """The instrument registered as ``name``, or None."""
        return self._instruments.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._instruments))

    # -- fork aggregation --------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-value states of every instrument (the fork cut point)."""
        return {
            name: {"kind": instrument.kind, **instrument.state()}
            for name, instrument in self._instruments.items()
        }

    def diff(
        self, baseline: Dict[str, Dict[str, object]]
    ) -> Dict[str, Dict[str, object]]:
        """What changed since ``baseline`` -- picklable, mergeable."""
        delta: Dict[str, Dict[str, object]] = {}
        for name, instrument in self._instruments.items():
            base = baseline.get(name)
            if base is not None and base.get("kind") != instrument.kind:
                base = None
            changed = instrument.diff(base)
            delta[name] = {"kind": instrument.kind, **changed}
        return delta

    def merge(self, delta: Dict[str, Dict[str, object]]) -> None:
        """Fold a child's delta into this registry."""
        for name, payload in delta.items():
            kind = payload.get("kind", "counter")
            cls = _KINDS[kind]  # type: ignore[index]
            if cls is Histogram:
                instrument = self._get(
                    name, cls, bounds=tuple(payload["bounds"])  # type: ignore[arg-type]
                )
            else:
                instrument = self._get(name, cls)
            body = {k: v for k, v in payload.items() if k != "kind"}
            instrument.merge(body)

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """The JSON form exported into BENCH_*.json ``metrics:`` sections."""
        out: Dict[str, Dict[str, object]] = {}
        for name in self.names():
            instrument = self._instruments[name]
            entry: Dict[str, object] = {
                "kind": instrument.kind,
                **instrument.state(),
            }
            if isinstance(instrument, Histogram):
                entry["mean"] = instrument.mean
            out[name] = entry
        return out

    def reset(self) -> None:
        """Drop every instrument."""
        with self._lock:
            self._instruments.clear()
