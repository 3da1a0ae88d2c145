"""Exhaustive reachability: machine-checked Safety over *all* schedules.

Simulation samples schedules; the explorer enumerates them.  For systems
with finite state spaces (duplicating channels are finite by construction;
deleting channels become finite under a ``max_copies`` cap, which is legal
deleting-channel behaviour) a breadth-first search over reachable global
configurations yields:

* a proof that Safety holds at every reachable configuration, or the
  shortest event path to a violation;
* whether a configuration with complete output is reachable (a necessary
  condition for Liveness);
* the exact reachable-state count (reported by experiment T2's exhaustive
  columns).

The search is *compact*: visited configurations are interned to dense
integer ids keyed by collapse-compressed byte keys
(:mod:`repro.verify.intern`), so the visited structure holds one 20-byte
key per state and never retains
:class:`~repro.kernel.system.Configuration` objects (only the current and
next BFS layers are materialized).  With ``store_parents=False`` even the
parent links are dropped; if a violation then surfaces, the search is
re-run once with parents enabled -- BFS is deterministic, so the re-run
reconstructs the same shortest violation path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.kernel.compiled import CompiledSystem
from repro.kernel.errors import VerificationError
from repro.kernel.intern import ConfigurationInterner
from repro.kernel.system import Configuration, Event, System


def _note_search(_span, report: "ExplorationReport", compiled: bool) -> None:
    """Emit one finished search into the span and metrics registry."""
    if not obs.enabled():
        return
    _span.set(
        states=report.states,
        expanded=report.expanded_states,
        safe=report.all_safe,
        truncated=report.truncated,
    )
    obs.add("explorer.searches")
    obs.add("explorer.states", report.states)
    obs.add("explorer.expanded", report.expanded_states)
    if compiled:
        obs.add("explorer.compiled_searches")


@dataclass(frozen=True)
class ExplorationReport:
    """Result of exhaustively exploring one system.

    Attributes:
        states: number of distinct reachable configurations discovered.
        all_safe: True iff Safety held at every *discovered* configuration.
            When ``truncated`` is also True this means "no violation found
            within the budget", **not** "the whole space is safe": states
            beyond the expansion budget were never generated.
        violation_path: shortest event schedule to a violation (None when
            all_safe).
        completion_reachable: some discovered configuration has the full
            output written.
        truncated: the search stopped after expanding ``max_states``
            configurations while unexpanded frontier states remained.
            Reported results are then lower bounds / best effort.
        expanded_states: configurations whose successors were generated.
            The ``max_states`` budget counts these -- never states that
            were merely discovered at the cut-off frontier.
        peak_frontier: the largest BFS layer encountered (the working-set
            high-water mark: only frontier layers hold Configuration
            objects).
        elapsed_seconds: wall time of the search.
        states_per_second: expansion throughput (0.0 when too fast to
            time).
    """

    states: int
    all_safe: bool
    violation_path: Optional[Tuple[Event, ...]]
    completion_reachable: bool
    truncated: bool
    expanded_states: int = 0
    peak_frontier: int = 0
    elapsed_seconds: float = 0.0
    states_per_second: float = 0.0


def explore(
    system: System,
    max_states: int = 1_000_000,
    include_drops: bool = True,
    store_parents: bool = True,
) -> ExplorationReport:
    """Breadth-first search of every reachable global configuration.

    Args:
        system: the system under test.
        max_states: expansion budget.  The search stops -- setting
            ``truncated`` -- once this many configurations have had their
            successors generated with work still pending; states discovered
            but never expanded do not consume budget.
        include_drops: whether the environment's explicit drop moves are
            part of the explored nondeterminism.
        store_parents: keep parent links (one ``(int, event)`` pair per
            state) for violation-path reconstruction.  ``False`` is the
            fast mode: only the interned visited set is kept, and a
            violation triggers one deterministic re-exploration with
            parents enabled to recover the shortest path.
    """
    # Guarded, not unconditionally spanned: the disabled path of the
    # hottest entry points is one flag test (<2% budget on warm tiny
    # explorations, asserted by the obs:overhead-disabled probe).
    if not obs.enabled():
        return _explore_object(system, max_states, include_drops, store_parents)
    with obs.span("explore", compiled=False) as _span:
        report = _explore_object(
            system, max_states, include_drops, store_parents
        )
        _note_search(_span, report, compiled=False)
        return report


def _explore_object(
    system: System,
    max_states: int,
    include_drops: bool,
    store_parents: bool,
) -> ExplorationReport:
    if max_states < 1:
        raise VerificationError("max_states must be positive")
    start = time.perf_counter()
    initial = system.initial()
    interner = ConfigurationInterner()
    interner.intern(initial)
    parents: Optional[Dict[int, Optional[Tuple[int, Event]]]] = (
        {0: None} if store_parents else None
    )
    completion_reachable = system.output_is_complete(initial)

    if not system.output_is_safe(initial):
        return ExplorationReport(
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

    frontier: List[Tuple[int, Configuration]] = [(0, initial)]
    expanded = 0
    peak_frontier = 1
    truncated = False

    while frontier and not truncated:
        peak_frontier = max(peak_frontier, len(frontier))
        next_frontier: List[Tuple[int, Configuration]] = []
        for config_id, config in frontier:
            if expanded >= max_states:
                # Unexpanded states remain in this layer: stop without
                # charging the budget to successors never generated.
                truncated = True
                break
            expanded += 1
            events = system.enabled_events(config)
            if not include_drops:
                events = tuple(e for e in events if e[0] != "drop")
            for event in events:
                successor = system.apply(config, event)
                successor_id = interner.intern(successor)
                if successor_id is None:
                    continue
                if parents is not None:
                    parents[successor_id] = (config_id, event)
                if not system.output_is_safe(successor):
                    if parents is None:
                        # Fast mode kept no links; re-explore once with
                        # parents to reconstruct the shortest path (BFS is
                        # deterministic, so the same violation is found).
                        # Recurse into the private body: the re-run is part
                        # of *this* search, so it must not emit a second
                        # span or double the explorer.* counters.
                        return _explore_object(
                            system, max_states, include_drops, True
                        )
                    elapsed = time.perf_counter() - start
                    return ExplorationReport(
                        states=len(interner),
                        all_safe=False,
                        violation_path=_path_to(parents, successor_id),
                        completion_reachable=completion_reachable,
                        truncated=False,
                        expanded_states=expanded,
                        peak_frontier=peak_frontier,
                        elapsed_seconds=elapsed,
                        states_per_second=(
                            expanded / elapsed if elapsed > 0 else 0.0
                        ),
                    )
                if system.output_is_complete(successor):
                    completion_reachable = True
                next_frontier.append((successor_id, successor))
        # A budget break always leaves at least one unexpanded state (the
        # one being iterated), so truncated=True is never a false alarm;
        # exhausting the space on exactly the last expansion falls through
        # with truncated=False.
        if not truncated:
            frontier = next_frontier
    elapsed = time.perf_counter() - start
    return ExplorationReport(
        states=len(interner),
        all_safe=True,
        violation_path=None,
        completion_reachable=completion_reachable,
        truncated=truncated,
        expanded_states=expanded,
        peak_frontier=peak_frontier,
        elapsed_seconds=elapsed,
        states_per_second=expanded / elapsed if elapsed > 0 else 0.0,
    )


def explore_compiled(
    system: System,
    max_states: int = 1_000_000,
    include_drops: bool = True,
    store_parents: bool = True,
    compiled: Optional[CompiledSystem] = None,
) -> ExplorationReport:
    """Integer fast path of :func:`explore` over a compiled table.

    Produces a report **bit-identical** to :func:`explore` in every
    non-timing field (``elapsed_seconds`` / ``states_per_second`` are wall
    clock and necessarily differ): the compiled successor rows preserve
    ``enabled_events`` order, so the BFS discovers, expands, truncates,
    and (if unsafe) reaches the violating state in exactly the same order
    as the object-graph search.

    Args:
        compiled: an existing :class:`~repro.kernel.compiled.CompiledSystem`
            for ``system`` to reuse (e.g. a table revived from the result
            cache, or one warmed by a previous exploration).  A warm table
            turns the whole search into pure integer traversal -- no
            protocol or channel code runs at all.  ``None`` compiles
            lazily from scratch, which runs protocol and channel code
            once per distinct component transition.

    Other arguments match :func:`explore`.
    """
    if not obs.enabled():
        return _explore_table(
            system, max_states, include_drops, store_parents, compiled
        )
    with obs.span("explore", compiled=True) as _span:
        report = _explore_table(
            system, max_states, include_drops, store_parents, compiled
        )
        _note_search(_span, report, compiled=True)
        return report


def _explore_table(
    system: System,
    max_states: int,
    include_drops: bool,
    store_parents: bool,
    compiled: Optional[CompiledSystem],
) -> ExplorationReport:
    if max_states < 1:
        raise VerificationError("max_states must be positive")
    start = time.perf_counter()
    table = compiled if compiled is not None else CompiledSystem(system)
    initial_id = table.initial_id()
    completion_reachable = table.is_complete(initial_id)

    if not table.is_safe(initial_id):
        return ExplorationReport(
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

    # The table may be warm (ids interned by earlier searches), so the
    # states discovered by *this* run are tracked in a local visited set
    # rather than read off the interner size.
    visited = {initial_id}
    parents: Optional[Dict[int, Optional[Tuple[int, int]]]] = (
        {initial_id: None} if store_parents else None
    )
    row_of = table.row if include_drops else table.row_without_drops
    is_safe = table.is_safe
    is_complete = table.is_complete

    frontier: List[int] = [initial_id]
    expanded = 0
    peak_frontier = 1
    truncated = False

    while frontier and not truncated:
        peak_frontier = max(peak_frontier, len(frontier))
        next_frontier: List[int] = []
        for state_id in frontier:
            if expanded >= max_states:
                truncated = True
                break
            expanded += 1
            for event_id, successor_id in row_of(state_id):
                if successor_id in visited:
                    continue
                visited.add(successor_id)
                if parents is not None:
                    parents[successor_id] = (state_id, event_id)
                if not is_safe(successor_id):
                    if parents is None:
                        # Fast mode kept no links; redo with parents over
                        # the (now warm) table to recover the path.  Same
                        # private-body recursion as _explore_object: one
                        # public call, one span, one set of counters.
                        return _explore_table(
                            system, max_states, include_drops, True, table
                        )
                    elapsed = time.perf_counter() - start
                    return ExplorationReport(
                        states=len(visited),
                        all_safe=False,
                        violation_path=_decode_path(
                            table, parents, successor_id
                        ),
                        completion_reachable=completion_reachable,
                        truncated=False,
                        expanded_states=expanded,
                        peak_frontier=peak_frontier,
                        elapsed_seconds=elapsed,
                        states_per_second=(
                            expanded / elapsed if elapsed > 0 else 0.0
                        ),
                    )
                if is_complete(successor_id):
                    completion_reachable = True
                next_frontier.append(successor_id)
        if not truncated:
            frontier = next_frontier
    elapsed = time.perf_counter() - start
    return ExplorationReport(
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


def _decode_path(
    table: CompiledSystem,
    parents: Dict[int, Optional[Tuple[int, int]]],
    target_id: int,
) -> Tuple[Event, ...]:
    """Reconstruct the event schedule to ``target_id`` from integer links."""
    events: List[Event] = []
    cursor = target_id
    while True:
        link = parents[cursor]
        if link is None:
            break
        cursor, event_id = link
        events.append(table.event_of(event_id))
    events.reverse()
    return tuple(events)


def _path_to(
    parents: Dict[int, Optional[Tuple[int, Event]]],
    target_id: int,
) -> Tuple[Event, ...]:
    """Reconstruct the event schedule from the initial state to ``target_id``."""
    events: List[Event] = []
    cursor = target_id
    while True:
        link = parents[cursor]
        if link is None:
            break
        cursor, event = link
        events.append(event)
    events.reverse()
    return tuple(events)
