"""The batched frontier engine: level-synchronous BFS over compiled rows.

:func:`repro.verify.explorer.explore_compiled` walks the compiled
transition table one state at a time: a Python-level loop over every
``(event_id, next_id)`` edge of every frontier state, with a per-successor
membership test, safety probe, and list append.  For the exhaustive
sweeps the experiments actually run (65 family inputs x hundreds of tiny
state spaces, re-verified on every campaign point) that per-state
interpreter overhead dominates the real work.

This module processes **whole frontiers at once** and pushes the inner
loops into C:

* :func:`explore_batched` -- a drop-in for ``explore_compiled`` that
  expands each BFS level with one ``set().union(*map(succ_row, ...))``
  bulk step and one ``difference_update`` against the visited set.  In
  unreduced mode its report is **bit-identical** to the scalar engine's
  (timing fields aside); the order-sensitive cases it cannot replicate
  set-wise -- a Safety violation, or a ``max_states`` budget that runs
  out in the *middle* of a level -- are delegated wholesale to the scalar
  search, which recomputes the exact answer over the (now warm) table.
* :class:`FrontierFamily` / :func:`explore_family_batched` -- one
  level-synchronous sweep over the *disjoint union* of a whole workload
  family's state spaces.  The paper's protocols induce narrow, deep
  spaces (width ~1), so batching within one system barely helps; batching
  *across* the family restores wide frontiers and is where the measured
  speedup lives.
* **Symmetry reduction** (``reduce=True``) -- quotient states (or whole
  family members) equivalent under a renaming of data items.  Renaming a
  data item consistently everywhere it occurs cannot change whether the
  output is a prefix of the input, so Safety/completion *verdicts* are
  preserved; state counts refer to equivalence classes.  Soundness is not
  argued here once and for all -- it is property-swept against the
  unreduced explorer across the full protocol x channel registry by
  ``tests/verify/test_frontier_equivalence.py``.
* :class:`FrontierSnapshot` -- a resumable cut of an unreduced batched
  search (visited set, open frontier, budget spent, table snapshot, and a
  digest lineage).  Re-entering the loop from a snapshot with a larger
  budget yields a report bit-identical to a fresh run at that budget;
  campaign sweeps over adjacent budget points reseed from the prior
  frontier instead of re-exploring from the initial state.

Layering note: this module lives in the kernel because it is a traversal
over :class:`~repro.kernel.compiled.CompiledSystem`, but it *produces*
:class:`~repro.verify.explorer.ExplorationReport` values and delegates to
the scalar explorer for order-sensitive cases.  The explorer already
imports the kernel, so those imports happen lazily inside functions to
keep the import graph acyclic (``repro.verify`` re-exports everything
here).
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.kernel.compiled import CompiledSystem
from repro.kernel.errors import VerificationError
from repro.kernel.system import Configuration, System

#: Version tag embedded in frontier snapshots; bump on layout changes.
FRONTIER_SCHEMA = "stp-frontier/1"


# ---------------------------------------------------------------------------
# canonicalization (symmetry reduction)
# ---------------------------------------------------------------------------


class _Placeholder:
    """An interned rename target: ``_Placeholder(k)`` stands for "the k-th
    distinct data item encountered".  Identity-hashed sentinels cannot
    collide with any real protocol token (strings, ints, tuples), which a
    naive ``f"#{k}"`` string could."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:  # stable across processes: no address
        return f"<item#{self.index}>"


#: Shared, lazily grown pool so equal indices are the *same* object and
#: renamed structures hash/compare cheaply.
_PLACEHOLDERS: List[_Placeholder] = []


def _placeholder(index: int) -> _Placeholder:
    while len(_PLACEHOLDERS) <= index:
        _PLACEHOLDERS.append(_Placeholder(len(_PLACEHOLDERS)))
    return _PLACEHOLDERS[index]


def canonical_input_signature(input_sequence: Sequence) -> Tuple[int, ...]:
    """The input sequence with items renamed by first occurrence.

    ``("b", "a", "b")`` and ``("x", "y", "x")`` share the signature
    ``(0, 1, 0)``: the two systems differ only by the bijection
    ``b<->x, a<->y`` on data items, so (for protocols that treat data
    items opaquely -- the property-swept assumption) their state spaces
    are isomorphic and one exploration answers for both.
    """
    mapping: Dict[object, int] = {}
    out: List[int] = []
    for item in input_sequence:
        index = mapping.get(item)
        if index is None:
            index = len(mapping)
            mapping[item] = index
        out.append(index)
    return tuple(out)


def _rename(value, mapping: Dict[object, _Placeholder], items: frozenset):
    """Structurally rename every data item of ``items`` inside ``value``.

    Placeholders are assigned by first occurrence over a deterministic
    traversal: tuples in order, frozensets in sorted-``repr`` order (so
    the assignment never depends on per-process set iteration order).
    """
    if isinstance(value, tuple):
        return tuple(_rename(piece, mapping, items) for piece in value)
    if isinstance(value, frozenset):
        return frozenset(
            _rename(piece, mapping, items)
            for piece in sorted(value, key=repr)
        )
    try:
        if value in items:
            placeholder = mapping.get(value)
            if placeholder is None:
                placeholder = _placeholder(len(mapping))
                mapping[value] = placeholder
            return placeholder
    except TypeError:
        pass  # unhashable leaf: cannot be a data item
    return value


def canonical_state_key(system: System) -> Callable[[Configuration], Hashable]:
    """A per-state canonicalization hook for ``explore_batched(reduce=True)``.

    The returned function maps a configuration to its *input-respecting*
    canonical form: the pair ``(config, input)`` with data items renamed
    by first occurrence over a deterministic joint traversal (the config
    first, then the input).  Two configurations share a key iff some
    bijection on data items maps one to the other **and** fixes the input
    sequence -- exactly the symmetries that leave the Safety and
    completion predicates (output vs. input prefix) invariant.

    On the repetition-free inputs this repository sweeps, every data item
    in a reachable configuration already occurs in the input, so such a
    bijection is forced to the identity and the within-run quotient is
    trivial (ratio ~1).  The hook still earns its keep two ways: as the
    seam a protocol with genuinely interchangeable payloads plugs into,
    and as the per-state half of the *family-level* reduction (see
    :class:`FrontierFamily`), where whole isomorphic systems -- not
    states -- collapse and the ratio is large.
    """
    items = frozenset(system.input_sequence)
    input_sequence = system.input_sequence

    def key(config: Configuration) -> Hashable:
        mapping: Dict[object, _Placeholder] = {}
        renamed_config = _rename(tuple(config.__dict__.values())
                                 if hasattr(config, "__dict__")
                                 else config, mapping, items)
        renamed_input = tuple(
            _rename(item, mapping, items) for item in input_sequence
        )
        return (renamed_config, renamed_input)

    return key


def stabilization_state_key(
    system: System, domain: Sequence = ()
) -> Callable[[Configuration], Hashable]:
    """Canonicalization hook for *corrupted-start* state sets.

    :func:`canonical_state_key` renames only items of the input sequence,
    which is the right symmetry group for clean-start exploration -- but
    corrupt initial configurations may carry forged messages whose
    payloads are drawn from the whole data ``domain``, including letters
    the input never uses.  Renaming those by first occurrence while
    keeping them distinguishable from the input items would break the
    verdict-preservation argument, so this key instead **pins the input
    items** (each input item is pre-assigned its placeholder, in input
    order, before the configuration is traversed) and renames the
    remaining domain items freely.

    Two configurations share a key iff some bijection on domain items
    maps one to the other while fixing the input sequence *pointwise* --
    exactly the symmetries that (for protocols treating data opaquely)
    map legitimate states to legitimate states and commute with the
    dynamics, hence preserve per-source stabilization verdicts and
    depths.  Soundness is property-swept by
    ``tests/resilience/test_stabilize.py`` against the unreduced runs.
    """
    items = frozenset(domain) | frozenset(system.input_sequence)
    input_sequence = system.input_sequence

    def key(config: Configuration) -> Hashable:
        mapping: Dict[object, _Placeholder] = {}
        for item in input_sequence:
            if item not in mapping:
                mapping[item] = _placeholder(len(mapping))
        renamed_config = _rename(tuple(config.__dict__.values())
                                 if hasattr(config, "__dict__")
                                 else config, mapping, items)
        renamed_input = tuple(
            _rename(item, mapping, items) for item in input_sequence
        )
        return (renamed_config, renamed_input)

    return key


# ---------------------------------------------------------------------------
# multi-source BFS (corrupted-start exploration)
# ---------------------------------------------------------------------------


def explore_multi_source_batched(
    table: CompiledSystem,
    sources: Sequence[int],
    legitimate: frozenset,
    max_states: int = 1_000_000,
    include_drops: bool = True,
) -> Tuple[set, Tuple[int, ...]]:
    """Level-synchronous BFS seeded with a whole corrupt initial set.

    Instead of the singleton clean init, the frontier starts as *every*
    illegitimate source at once; states of ``legitimate`` (the
    clean-reachable set) absorb the search -- they are never expanded,
    because everything reachable from them is legitimate territory the
    caller already knows.  Returns ``(visited, widths)``: the set of
    every illegitimate state id reachable from the sources, and the
    per-level frontier widths (level ``k`` of the BFS is exactly the set
    of illegitimate states whose shortest corrupt-path distance from the
    source set is ``k``).

    The result is an order-free pair of sets/counts, so per-source
    stabilization verdicts derived from it cannot depend on the order
    in which a level is expanded.  A ``max_states`` overflow raises
    :class:`~repro.kernel.errors.VerificationError` rather than
    truncating: a truncated corrupt reachability graph would make every
    downstream verdict unsound.
    """
    if max_states < 1:
        raise VerificationError("max_states must be positive")
    succ = table.succ_row if include_drops else table.succ_row_without_drops
    frontier = {sid for sid in sources if sid not in legitimate}
    visited = set(frontier)
    widths: List[int] = []
    while frontier:
        widths.append(len(frontier))
        if len(visited) > max_states:
            raise VerificationError(
                f"corrupted-start exploration exceeded max_states="
                f"{max_states}; raise the budget (verdicts from a "
                f"truncated graph would be unsound)"
            )
        new = set().union(*map(succ, frontier))
        new.difference_update(visited)
        new.difference_update(legitimate)
        visited.update(new)
        frontier = new
    return visited, tuple(widths)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierSnapshot:
    """A resumable cut of an unreduced batched search.

    Captured only at *level boundaries* (including the final, drained
    one), where the set-BFS state is order-free and therefore exact:
    resuming with a larger budget is bit-identical to a fresh run at that
    budget.  Delegated searches (violation / mid-level truncation) have
    no snapshot.

    Attributes:
        schema: :data:`FRONTIER_SCHEMA` at capture time.
        fingerprint: the caller's system fingerprint ("" when captured
            outside the cache layer); purely informational here -- key
            integrity is the cache's job.
        lineage: digest chain, one entry per capture in the resume chain
            (oldest first).  ``verify()`` recomputes the newest entry.
        include_drops: the nondeterminism the search ran under; a resume
            under the other setting is refused.
        max_states: the expansion budget at capture.
        table: :meth:`CompiledSystem.snapshot` of the warm table, so a
            resume in a fresh process revives it without recompiling.
        visited: sorted ids of every discovered state.
        frontier: sorted ids of the still-unexpanded newest level (empty
            iff the search drained).
        expanded: budget spent (states whose successors were generated).
        peak_frontier: widest level seen so far.
        depth: number of fully expanded levels.
        completion_reachable: whether any discovered state is complete.
        truncated: True iff the budget ran out with ``frontier`` pending.
    """

    schema: str
    fingerprint: str
    lineage: Tuple[str, ...]
    include_drops: bool
    max_states: int
    table: Dict[str, object]
    visited: Tuple[int, ...]
    frontier: Tuple[int, ...]
    expanded: int
    peak_frontier: int
    depth: int
    completion_reachable: bool
    truncated: bool

    def _digest_body(self) -> str:
        return (
            f"{self.schema}|{self.fingerprint}|{self.include_drops}|"
            f"{self.max_states}|{self.expanded}|{self.peak_frontier}|"
            f"{self.depth}|{self.completion_reachable}|{self.truncated}|"
            f"{self.visited!r}|{self.frontier!r}"
        )

    def _digest(self) -> str:
        parent = self.lineage[-2] if len(self.lineage) > 1 else ""
        body = parent + self._digest_body()
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def verify(self) -> bool:
        """True iff the newest lineage digest matches the content."""
        return (
            self.schema == FRONTIER_SCHEMA
            and bool(self.lineage)
            and self.lineage[-1] == self._digest()
        )


def _capture_snapshot(
    table: CompiledSystem,
    fingerprint: str,
    parent_lineage: Tuple[str, ...],
    include_drops: bool,
    max_states: int,
    visited: set,
    frontier: set,
    expanded: int,
    peak_frontier: int,
    depth: int,
    completion_reachable: bool,
    truncated: bool,
) -> FrontierSnapshot:
    snapshot = FrontierSnapshot(
        schema=FRONTIER_SCHEMA,
        fingerprint=fingerprint,
        lineage=parent_lineage + ("",),
        include_drops=include_drops,
        max_states=max_states,
        table=table.snapshot(),
        visited=tuple(sorted(visited)),
        frontier=tuple(sorted(frontier)),
        expanded=expanded,
        peak_frontier=peak_frontier,
        depth=depth,
        completion_reachable=completion_reachable,
        truncated=truncated,
    )
    # The digest covers everything but itself; fill the reserved slot.
    object.__setattr__(
        snapshot, "lineage", parent_lineage + (snapshot._digest(),)
    )
    return snapshot


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


_REPORT_CLS = None


def _report_cls():
    """The ExplorationReport class, imported lazily once (see the module
    docstring's layering note) and cached for the hot paths."""
    global _REPORT_CLS
    if _REPORT_CLS is None:
        from repro.verify.explorer import ExplorationReport

        _REPORT_CLS = ExplorationReport
    return _REPORT_CLS


def _fast_report(**fields):
    """Construct an ExplorationReport without the frozen-dataclass
    ``__init__``/``__setattr__`` toll (measured 3x cheaper; ``==``,
    ``hash`` and ``dataclasses.replace`` behave identically because the
    class is a plain non-slots frozen dataclass)."""
    cls = _report_cls()
    report = cls.__new__(cls)
    report.__dict__.update(fields)
    return report


def _unsafe_initial_report(completion_reachable: bool, start: float):
    return _fast_report(
        states=1,
        all_safe=False,
        violation_path=(),
        completion_reachable=completion_reachable,
        truncated=False,
        expanded_states=0,
        peak_frontier=1,
        elapsed_seconds=time.perf_counter() - start,
        states_per_second=0.0,
    )


# ---------------------------------------------------------------------------
# single-system batched search
# ---------------------------------------------------------------------------


def _resume_state(
    resume_from: Optional[FrontierSnapshot],
    include_drops: bool,
    max_states: int,
) -> Tuple[Optional[FrontierSnapshot], Tuple[str, ...]]:
    """Validate a resume snapshot against the requested search.

    Returns ``(snapshot, parent_lineage)``: the snapshot to continue from
    (None when there is nothing usable) and the digest chain a new
    capture must extend.  Schema and ``include_drops`` mismatches are
    refused; a budget *below* the snapshot's spend silently starts over
    (the snapshot holds no information about the earlier truncation
    prefix).
    """
    if resume_from is None:
        return None, ()
    snap = resume_from
    if snap.schema != FRONTIER_SCHEMA:
        raise VerificationError(
            f"unsupported frontier snapshot: {snap.schema!r}"
        )
    if snap.include_drops != include_drops:
        raise VerificationError(
            "frontier snapshot was taken under "
            f"include_drops={snap.include_drops}; cannot resume with "
            f"include_drops={include_drops}"
        )
    if max_states < snap.expanded:
        # A smaller budget would have truncated earlier than the
        # snapshot's cut; the snapshot holds no information about that
        # earlier prefix, so start over.
        return None, ()
    return snap, snap.lineage


def _drained_result(snap: FrontierSnapshot, capture: bool, start: float):
    """The ``(report, snapshot, stats)`` of a finished snapshot.

    A drained search knows its full space: any budget at or above the
    recorded spend reproduces the finished report without touching the
    table.
    """
    elapsed = time.perf_counter() - start
    report = _fast_report(
        states=len(snap.visited),
        all_safe=True,
        violation_path=None,
        completion_reachable=snap.completion_reachable,
        truncated=False,
        expanded_states=snap.expanded,
        peak_frontier=snap.peak_frontier,
        elapsed_seconds=elapsed,
        states_per_second=(
            snap.expanded / elapsed if elapsed > 0 else 0.0
        ),
    )
    stats = {"depth": snap.depth, "width": snap.peak_frontier}
    return report, (snap if capture else None), stats


def _explore_batched_core(
    system: System,
    max_states: int,
    include_drops: bool,
    store_parents: bool,
    compiled: Optional[CompiledSystem],
    capture: bool,
    resume_from: Optional[FrontierSnapshot],
    fingerprint: str,
):
    """Level-synchronous unreduced search.

    Returns ``(report, snapshot, stats)``; ``snapshot`` is None unless
    ``capture`` (or when the run delegated), ``stats`` is None for
    delegated runs.
    """
    from repro.verify.explorer import _explore_table

    if max_states < 1:
        raise VerificationError("max_states must be positive")
    start = time.perf_counter()

    snap, parent_lineage = _resume_state(resume_from, include_drops, max_states)

    if snap is not None and not snap.truncated:
        return _drained_result(snap, capture, start)

    if snap is not None:
        table = (
            compiled
            if compiled is not None
            else CompiledSystem.from_snapshot(system, snap.table)
        )
        visited = set(snap.visited)
        frontier = set(snap.frontier)
        expanded = snap.expanded
        peak_frontier = snap.peak_frontier
        depth = snap.depth
        completion_reachable = snap.completion_reachable
    else:
        table = compiled if compiled is not None else CompiledSystem(system)
        initial_id = table.initial_id()
        completion_reachable = table.is_complete(initial_id)
        if not table.is_safe(initial_id):
            return _unsafe_initial_report(completion_reachable, start), None, None
        visited = {initial_id}
        frontier = {initial_id}
        expanded = 0
        peak_frontier = 1
        depth = 0

    succ = table.succ_row if include_drops else table.succ_row_without_drops
    safe = table._safe
    complete = table._complete
    truncated = False

    while frontier:
        width = len(frontier)
        if width > peak_frontier:
            peak_frontier = width
        remaining = max_states - expanded
        if remaining == 0:
            # The scalar engine charges budget per expanded state and
            # checks *before* expanding, so an exhausted budget at a
            # level boundary truncates with the peak already counted --
            # replicated here exactly.
            truncated = True
            break
        if remaining < width:
            # Mid-level truncation depends on scalar discovery order,
            # which sets do not preserve: recompute exactly.  The table
            # is warm, so this costs one integer-only scalar pass.
            return (
                _explore_table(
                    system, max_states, include_drops, store_parents, table
                ),
                None,
                None,
            )
        new = set().union(*map(succ, frontier))
        new.difference_update(visited)
        expanded += width
        depth += 1
        if not new:
            frontier = set()
            break
        if not all(map(safe.__getitem__, new)):
            # Which violating state the scalar search reaches first (and
            # hence the shortest witness path) is order-defined: delegate.
            return (
                _explore_table(
                    system, max_states, include_drops, store_parents, table
                ),
                None,
                None,
            )
        if not completion_reachable and any(
            map(complete.__getitem__, new)
        ):
            completion_reachable = True
        visited.update(new)
        frontier = new

    elapsed = time.perf_counter() - start
    report = _fast_report(
        states=len(visited),
        all_safe=True,
        violation_path=None,
        completion_reachable=completion_reachable,
        truncated=truncated,
        expanded_states=expanded,
        peak_frontier=peak_frontier,
        elapsed_seconds=elapsed,
        states_per_second=expanded / elapsed if elapsed > 0 else 0.0,
    )
    snapshot = None
    if capture:
        snapshot = _capture_snapshot(
            table,
            fingerprint,
            parent_lineage,
            include_drops,
            max_states,
            visited,
            frontier,
            expanded,
            peak_frontier,
            depth,
            completion_reachable,
            truncated,
        )
    stats = {"depth": depth, "width": peak_frontier}
    return report, snapshot, stats


def _explore_reduced(
    system: System,
    max_states: int,
    include_drops: bool,
    store_parents: bool,
    table: CompiledSystem,
    key_fn: Callable[[Configuration], Hashable],
):
    """Quotiented search: expand one representative per canonical class.

    Safety and completion are probed on every *concrete* successor before
    it is quotiented, so verdicts match the unreduced search; ``states``
    counts canonical classes.  A violation delegates to the exact scalar
    search (unreduced) for the shortest witness.  Budget that would split
    a level truncates the whole level -- the reduced engine never spends
    more than ``max_states`` expansions.
    """
    from repro.verify.explorer import _explore_table

    if max_states < 1:
        raise VerificationError("max_states must be positive")
    start = time.perf_counter()
    initial_id = table.initial_id()
    completion_reachable = table.is_complete(initial_id)
    if not table.is_safe(initial_id):
        return _unsafe_initial_report(completion_reachable, start), None

    succ = table.succ_row if include_drops else table.succ_row_without_drops
    safe = table._safe
    complete = table._complete
    config_of = table.config_of

    seen_keys = {key_fn(config_of(initial_id))}
    visited_concrete = {initial_id}
    frontier = {initial_id}
    expanded = 0
    peak_frontier = 1
    depth = 0
    truncated = False

    while frontier:
        width = len(frontier)
        if width > peak_frontier:
            peak_frontier = width
        remaining = max_states - expanded
        if remaining < width:
            truncated = True
            break
        new = set().union(*map(succ, frontier))
        new.difference_update(visited_concrete)
        expanded += width
        depth += 1
        if not new:
            break
        if not all(map(safe.__getitem__, new)):
            return (
                _explore_table(
                    system, max_states, include_drops, store_parents, table
                ),
                None,
            )
        if not completion_reachable and any(
            map(complete.__getitem__, new)
        ):
            completion_reachable = True
        visited_concrete.update(new)
        next_frontier = set()
        for state_id in new:
            key = key_fn(config_of(state_id))
            if key not in seen_keys:
                seen_keys.add(key)
                next_frontier.add(state_id)
        frontier = next_frontier

    elapsed = time.perf_counter() - start
    report = _fast_report(
        states=len(seen_keys),
        all_safe=True,
        violation_path=None,
        completion_reachable=completion_reachable,
        truncated=truncated,
        expanded_states=expanded,
        peak_frontier=peak_frontier,
        elapsed_seconds=elapsed,
        states_per_second=expanded / elapsed if elapsed > 0 else 0.0,
    )
    ratio = (
        len(visited_concrete) / len(seen_keys) if seen_keys else 1.0
    )
    stats = {"depth": depth, "width": peak_frontier, "reduction_ratio": ratio}
    return report, stats


def explore_batched(
    system: System,
    max_states: int = 1_000_000,
    include_drops: bool = True,
    store_parents: bool = True,
    compiled: Optional[CompiledSystem] = None,
    reduce: bool = False,
    canonical_key: Optional[Callable[[Configuration], Hashable]] = None,
):
    """Batched twin of :func:`~repro.verify.explorer.explore_compiled`.

    In unreduced mode (the default) the report is bit-identical to
    ``explore_compiled`` in every non-timing field: order-free levels are
    processed set-at-a-time, and the two order-sensitive cases (Safety
    violation; budget exhausted mid-level) fall back to the exact scalar
    search over the warm table.

    With ``reduce=True`` states equivalent under the input-respecting
    data-item renaming (``canonical_key``, defaulting to
    :func:`canonical_state_key`) are quotiented: Safety / completion
    verdicts are preserved (checked on concrete states before
    quotienting; property-swept in the test suite), while ``states``
    counts canonical classes.

    ``store_parents`` has no effect on the batched sweep itself (it keeps
    no parent links); it is forwarded to the scalar fallback, whose
    report is the same either way.
    """
    if not obs.enabled():
        return _dispatch_batched(
            system, max_states, include_drops, store_parents, compiled,
            reduce, canonical_key,
        )[0]
    from repro.verify.explorer import _note_search

    with obs.span(
        "explore", compiled=True, engine="batched", reduce=reduce
    ) as _span:
        report, stats = _dispatch_batched(
            system, max_states, include_drops, store_parents, compiled,
            reduce, canonical_key,
        )
        _note_search(_span, report, compiled=True)
        _emit_frontier_gauges(stats)
        return report


def _dispatch_batched(
    system, max_states, include_drops, store_parents, compiled,
    reduce, canonical_key,
):
    if reduce:
        table = compiled if compiled is not None else CompiledSystem(system)
        key_fn = (
            canonical_key
            if canonical_key is not None
            else canonical_state_key(system)
        )
        return _explore_reduced(
            system, max_states, include_drops, store_parents, table, key_fn
        )
    report, _snapshot, stats = _explore_batched_core(
        system, max_states, include_drops, store_parents, compiled,
        capture=False, resume_from=None, fingerprint="",
    )
    return report, stats


def explore_batched_resumable(
    system: System,
    max_states: int = 1_000_000,
    include_drops: bool = True,
    compiled: Optional[CompiledSystem] = None,
    resume_from: Optional[FrontierSnapshot] = None,
    fingerprint: str = "",
):
    """:func:`explore_batched` (unreduced) with snapshot in / snapshot out.

    Returns ``(report, snapshot)``.  ``snapshot`` captures the search at
    its final level boundary and is ``None`` when the run had to delegate
    to the scalar engine (violation or mid-level truncation) -- those
    cuts are not order-free, so there is nothing exact to resume from.
    Pass a prior (truncated) snapshot as ``resume_from`` to continue it
    under a larger budget: the resumed report is bit-identical to a fresh
    run at that budget.  A finished snapshot short-circuits entirely.
    """
    if not obs.enabled():
        report, snapshot, _stats = _explore_batched_core(
            system, max_states, include_drops, True, compiled,
            capture=True, resume_from=resume_from, fingerprint=fingerprint,
        )
        return report, snapshot
    from repro.verify.explorer import _note_search

    with obs.span(
        "explore", compiled=True, engine="batched",
        resumed=resume_from is not None,
    ) as _span:
        report, snapshot, stats = _explore_batched_core(
            system, max_states, include_drops, True, compiled,
            capture=True, resume_from=resume_from, fingerprint=fingerprint,
        )
        _note_search(_span, report, compiled=True)
        _emit_frontier_gauges(stats)
        return report, snapshot


def _emit_frontier_gauges(stats: Optional[dict]) -> None:
    if not stats or not obs.enabled():
        return
    obs.gauge_set("frontier.depth", stats["depth"])
    obs.gauge_set("frontier.width", stats["width"])
    if "reduction_ratio" in stats:
        obs.gauge_set("frontier.reduction_ratio", stats["reduction_ratio"])


# ---------------------------------------------------------------------------
# family engine: one sweep over the disjoint union of a workload family
# ---------------------------------------------------------------------------


class FrontierFamily:
    """A reusable union-of-state-spaces sweep over a workload family.

    Construction warms every member system (one full scalar-exact batched
    exploration each) and packs the members that drained safely into one
    flat successor array over global ids ``(member_index << shift) |
    state_id``.  Each :meth:`explore` call then answers *all* members
    with a single level-synchronous BFS over the union -- the frontiers
    of 65 width-1 systems stack into one wide frontier, which is what
    makes whole-set C operations pay.

    Members that are unsafe or exceed ``max_states`` at warm-up (and any
    member whose per-call budget undercuts its known state count) take
    the exact scalar path instead, so every report matches
    ``explore_compiled`` bit-for-bit in unreduced mode -- except the two
    timing fields, which deliberately describe the *shared* sweep: each
    report carries the whole sweep's wall time and the aggregate
    throughput (total states / sweep seconds).

    With ``reduce=True`` members are grouped by
    :func:`canonical_input_signature`; one representative per isomorphism
    class is swept and its report is shared by the whole class (verdict
    equality across a class is the property-swept soundness claim).  The
    achieved ratio is exposed via ``last_stats["reduction_ratio"]`` and
    the ``frontier.reduction_ratio`` gauge.

    Build-time edge pruning: self-loops and duplicate successor targets
    are removed from the union rows.  Set-based BFS evolution (visited /
    frontier contents per level) is invariant under both, so reports are
    unchanged -- but the duplicating channels make such edges the
    majority, and dropping them shrinks the bulk unions accordingly.
    """

    def __init__(
        self,
        systems: Sequence[System],
        include_drops: bool = True,
        tables: Optional[Sequence[CompiledSystem]] = None,
        max_states: int = 1_000_000,
    ) -> None:
        if not systems:
            raise VerificationError("FrontierFamily needs at least one system")
        if tables is not None and len(tables) != len(systems):
            raise VerificationError(
                "tables, when given, must match systems one-to-one"
            )
        self.systems: Tuple[System, ...] = tuple(systems)
        self.include_drops = include_drops
        self.warm_max_states = max_states
        self.tables: Tuple[CompiledSystem, ...] = tuple(
            tables
            if tables is not None
            else (CompiledSystem(s) for s in systems)
        )
        self.last_stats: Dict[str, float] = {}

        # Warm every member with the exact engine; the warm reports tell
        # us which members the union sweep may answer (drained + safe).
        warm_reports = []
        for system, table in zip(self.systems, self.tables):
            report, _snapshot, _stats = _explore_batched_core(
                system, max_states, include_drops, True, table,
                capture=False, resume_from=None, fingerprint="",
            )
            warm_reports.append(report)
        self._warm_states = [r.states for r in warm_reports]
        self._fast = [
            i
            for i, r in enumerate(warm_reports)
            if r.all_safe and not r.truncated
        ]
        self._slow = [
            i for i in range(len(self.systems)) if i not in set(self._fast)
        ]

        # Flat union arrays over the fast members.
        shift = 0
        for i in self._fast:
            shift = max(shift, len(self.tables[i]).bit_length())
        self._shift = shift
        size = len(self.systems) << shift if self._fast else 0
        succ_union: List[Tuple[int, ...]] = [()] * size
        member_of: List[int] = [0] * size
        inits: Dict[int, int] = {}
        complete_gids = set()
        succ_of = (
            (lambda t: t.succ_row)
            if include_drops
            else (lambda t: t.succ_row_without_drops)
        )
        for i in self._fast:
            table = self.tables[i]
            base = i << shift
            inits[i] = base + table.initial_id()
            row = succ_of(table)
            complete = table._complete
            for sid in range(len(table)):
                gid = base + sid
                kept = tuple(
                    sorted({base + nid for nid in row(sid)} - {gid})
                )
                succ_union[gid] = kept
                member_of[gid] = i
                if complete[sid]:
                    complete_gids.add(gid)
        self._succ_union = succ_union
        self._member_of = member_of
        self._inits = inits
        self._complete_gids = frozenset(complete_gids)

        # Isomorphism classes for family-level reduction: members whose
        # inputs differ only by a renaming of data items.
        classes: Dict[Tuple[int, ...], List[int]] = {}
        for i in self._fast:
            signature = canonical_input_signature(
                self.systems[i].input_sequence
            )
            classes.setdefault(signature, []).append(i)
        self._classes = classes

        # Precomputed seed/share maps for the common every-member-swept
        # call, so the hot path allocates nothing before the BFS.
        self._share_identity: Dict[int, Tuple[int, ...]] = {
            i: (i,) for i in self._fast
        }
        self._share_reduced: Dict[int, Tuple[int, ...]] = {
            members[0]: tuple(members) for members in classes.values()
        }

    # -- sweeps ----------------------------------------------------------

    def explore(self, max_states: int = 1_000_000, reduce: bool = False):
        """Reports for every member, in member order, from one sweep."""
        if not obs.enabled():
            return self._explore(max_states, reduce)
        with obs.span(
            "explore_family",
            engine="batched",
            systems=len(self.systems),
            reduce=reduce,
        ) as _span:
            reports = self._explore(max_states, reduce)
            stats = self.last_stats
            _span.set(
                states=int(stats.get("states", 0)),
                depth=int(stats.get("depth", 0)),
                width=int(stats.get("width", 0)),
            )
            obs.add("explorer.searches", len(reports))
            obs.add("explorer.compiled_searches", len(reports))
            obs.add("explorer.states", sum(r.states for r in reports))
            obs.add(
                "explorer.expanded", sum(r.expanded_states for r in reports)
            )
            _emit_frontier_gauges(stats)
            return reports

    def _explore(self, max_states: int, reduce: bool):
        from repro.verify.explorer import _explore_table

        if max_states < 1:
            raise VerificationError("max_states must be positive")
        start = time.perf_counter()
        n = len(self.systems)
        reports: List[Optional[object]] = [None] * n

        # Members the union sweep cannot answer exactly at this budget.
        warm_states = self._warm_states
        if self._slow or any(max_states < warm_states[i] for i in self._fast):
            exact = set(self._slow)
            for i in self._fast:
                if max_states < warm_states[i]:
                    exact.add(i)
            if reduce:
                share = {}
                for members in self._classes.values():
                    usable = tuple(i for i in members if i not in exact)
                    if usable:
                        share[usable[0]] = usable
            else:
                share = {
                    i: (i,) for i in self._fast if i not in exact
                }
        else:
            share = self._share_reduced if reduce else self._share_identity
        seeds = list(share)

        swept = sum(len(members) for members in share.values())
        depth = 0
        width = 0
        total_states = 0

        if seeds:
            get = self._succ_union.__getitem__
            who = self._member_of.__getitem__
            inits = [self._inits[i] for i in seeds]
            visited = set(inits)
            frontier = visited
            peaks = dict.fromkeys(seeds, 1)
            while frontier:
                level_width = len(frontier)
                if level_width > width:
                    width = level_width
                new = set().union(*map(get, frontier))
                new.difference_update(visited)
                if not new:
                    break
                depth += 1
                # Peaks are per member; most levels are width-1 per
                # member, in which case the Counter merge is skipped.
                present = set(map(who, new))
                if len(present) != len(new):
                    for i, member_width in Counter(map(who, new)).items():
                        if member_width > peaks[i]:
                            peaks[i] = member_width
                visited.update(new)
                frontier = new
            states = Counter(map(who, visited))
            completed = set(map(who, self._complete_gids & visited))
            total_states = len(visited)
            elapsed = time.perf_counter() - start
            throughput = total_states / elapsed if elapsed > 0 else 0.0
            for representative, members in share.items():
                count = states[representative]
                report = _fast_report(
                    states=count,
                    all_safe=True,
                    violation_path=None,
                    completion_reachable=representative in completed,
                    truncated=False,
                    # Untruncated BFS expands every state exactly once.
                    expanded_states=count,
                    peak_frontier=peaks[representative],
                    elapsed_seconds=elapsed,
                    states_per_second=throughput,
                )
                for member in members:
                    reports[member] = report

        # Exact per-member path: unsafe / truncated-at-warm-up members,
        # and fast members whose per-call budget undercuts their space.
        for i in range(n):
            if reports[i] is None:
                reports[i] = _explore_table(
                    self.systems[i],
                    max_states,
                    self.include_drops,
                    True,
                    self.tables[i],
                )

        reduction_ratio = (swept / len(seeds)) if seeds else 1.0
        self.last_stats = {
            "depth": depth,
            "width": width,
            "states": total_states,
            "reduction_ratio": reduction_ratio,
            "swept_members": swept,
            "representatives": len(seeds),
            "exact_members": n - swept,
            "elapsed_seconds": time.perf_counter() - start,
        }
        return tuple(reports)


def explore_family_batched(
    systems: Sequence[System],
    max_states: int = 1_000_000,
    include_drops: bool = True,
    reduce: bool = False,
    tables: Optional[Sequence[CompiledSystem]] = None,
):
    """One-shot :class:`FrontierFamily` sweep (build + explore).

    For repeated sweeps over the same family (benchmarks, campaign
    inner loops) build the :class:`FrontierFamily` once and call
    :meth:`~FrontierFamily.explore` per iteration -- construction pays
    the warm-up that the per-call speedup then amortizes away.
    """
    family = FrontierFamily(
        systems,
        include_drops=include_drops,
        tables=tables,
        max_states=max_states,
    )
    return family.explore(max_states=max_states, reduce=reduce)
