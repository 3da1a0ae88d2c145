"""The compiled transition-table kernel.

Every analysis layer in this repository bottoms out in the same hot
path: :meth:`repro.kernel.system.System.enabled_events` /
:meth:`~repro.kernel.system.System.apply` dispatching over boxed
:class:`~repro.kernel.system.Configuration` and event tuples, re-deriving
enabled events and re-hashing whole configurations on every step.  The
paper's protocols are small finite automata over a finite alphabet, so
the *product* system (sender state x receiver state x channel states x
output) is itself a finite automaton -- and a finite automaton can be
compiled once into dense integer transition tables, the standard trick in
explicit-state model checkers.

:class:`CompiledSystem` wraps one :class:`~repro.kernel.system.System`
and maintains:

* **interned state ids** -- every distinct reachable configuration gets a
  dense integer id, assigned in first-visit order;
* **interned event ids** -- every distinct event tuple gets a dense
  integer id, assigned in first-visit ``enabled_events`` order;
* **a flat successor table** -- ``row(sid)`` is the tuple of
  ``(event_id, next_state_id)`` pairs in exactly
  ``System.enabled_events`` order, so integer traversals visit successors
  in the same order object-graph traversals do (the property that makes
  the fast paths bit-identical);
* **per-state safety / completion bits** -- ``output_is_safe`` /
  ``output_is_complete`` evaluated once per distinct output tape.

**Compilation is compositional.**  A global step of the paper's model
(Section 2.2) is one local automaton transition plus channel and output
bookkeeping, and every piece of that is a pure function of one small
component state.  So a global state is stored as the 5-tuple of per-
component ids ``(sender, receiver, chan_sr, chan_rs, output)``, and the
table keeps memo tables of *component* transitions:

* sender / receiver: ``(state id, step | delivered message id)`` ->
  ``(state id', sends id[, writes id])``;
* each channel: ``(channel id, sends id)`` -> channel id' (``after_send``
  folded over the emitted messages), and per channel id the
  ``deliverable`` messages with their ``after_deliver`` ids and the
  ``droppable`` messages with their ``after_drop`` ids;
* output: ``(output id, writes id)`` -> output id', plus the safe /
  complete bits of each output id.

``row(sid)`` assembles its edges by integer lookup in those tables, so
protocol and channel code runs once per distinct component transition
rather than once per global edge, and no
:class:`~repro.kernel.system.Configuration` is built at all.  The
system's checks run on every *first* computation of a component
transition -- ``check_sends`` alphabet validation, the
:class:`~repro.kernel.errors.SimulationError` for a sender that writes,
and channel errors -- and a transition that raises is never memoised, so
it raises again wherever it is reached.  Configurations are built lazily
by :meth:`CompiledSystem.config_of` (and :meth:`~CompiledSystem.snapshot`)
from the component values.

Compilation is also **lazy**: a state's row is built (and its successors
interned) the first time the row is requested, so unreachable states cost
nothing and systems with unbounded state spaces still work under the
existing ``max_states`` / ``max_copies`` caps -- the table simply grows
monotonically as far as its users walk it.  The memo tables belong to
one table; nothing is shared across tables.

The integer fast paths that consume this table are
:func:`repro.verify.explorer.explore_compiled` and
:func:`repro.kernel.simulator.simulate_compiled`; both produce
bit-identical results to their object-graph twins.  A populated table can
be exported with :meth:`CompiledSystem.snapshot` and revived with
:meth:`CompiledSystem.from_snapshot` -- the hook the content-addressed
result cache (:mod:`repro.analysis.cache`) uses to skip recompilation
across processes and CI runs.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro import obs
from repro.kernel.errors import SimulationError
from repro.kernel.interfaces import ChannelModel
from repro.kernel.system import (
    RECEIVER_STEP,
    SENDER_STEP,
    Configuration,
    Event,
    System,
    deliver_to_receiver,
    deliver_to_sender,
    drop_from_rs,
    drop_from_sr,
)

#: Version tag embedded in snapshots; bump when the table layout changes.
SNAPSHOT_SCHEMA = "stp-compiled/1"

Edge = Tuple[int, int]
Row = Tuple[Edge, ...]
#: A global state: (sender, receiver, chan_sr, chan_rs, output) ids.
StateKey = Tuple[int, int, int, int, int]

#: The trigger id of a spontaneous local step in the process memo tables
#: (deliveries use the delivered message's id, which is >= 0).
_STEP = -1


class _Interned:
    """Dense ids for the distinct values of one component."""

    __slots__ = ("ids", "values")

    def __init__(self) -> None:
        self.ids: Dict[Hashable, int] = {}
        self.values: List[Hashable] = []

    def intern(self, value: Hashable) -> int:
        value_id = self.ids.get(value)
        if value_id is None:
            value_id = len(self.values)
            self.ids[value] = value_id
            self.values.append(value)
        return value_id


class _ChannelTable:
    """One channel direction: its states and memoised channel moves.

    ``messages`` interns the messages delivered *out of* this channel
    (they key the receiving process's memo table) and ``sends`` interns
    the message tuples sent *into* it, with ``()`` pinned to id 0.
    """

    __slots__ = (
        "model",
        "deliver_event",
        "drop_event",
        "states",
        "messages",
        "sends",
        "after_sends",
        "deliver",
        "drop",
    )

    def __init__(
        self,
        model: ChannelModel,
        deliver_event: Callable[[Hashable], Event],
        drop_event: Callable[[Hashable], Event],
    ) -> None:
        self.model = model
        self.deliver_event = deliver_event
        self.drop_event = drop_event
        self.states = _Interned()
        self.messages = _Interned()
        self.sends = _Interned()
        self.sends.intern(())
        # channel id -> {sends id: channel id after every send}
        self.after_sends: Dict[int, Dict[int, int]] = {}
        # channel id -> ((event id, message id, channel id'), ...)
        self.deliver: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
        # channel id -> ((event id, channel id'), ...)
        self.drop: Dict[int, Tuple[Edge, ...]] = {}

    def sent(
        self, channel_id: int, sends_id: int, memo: Dict[int, int]
    ) -> int:
        """The channel id after the messages interned as ``sends_id``.

        ``memo`` is ``after_sends[channel_id]``; the result is stored
        there once every ``after_send`` has succeeded.
        """
        state = self.states.values[channel_id]
        for message in self.sends.values[sends_id]:
            state = self.model.after_send(state, message)
        after = memo[sends_id] = self.states.intern(state)
        return after


def _memo(tables: Dict[int, Dict], key: int) -> Dict:
    """The inner memo table of component id ``key`` (created on demand)."""
    inner = tables.get(key)
    if inner is None:
        inner = tables[key] = {}
    return inner


class CompiledSystem:
    """Lazily compiled integer transition tables for one system.

    The compiled form is exact: state ``sid`` *is* the configuration
    ``config_of(sid)``, and an edge ``(eid, nid)`` in ``row(sid)`` means
    ``system.apply(config_of(sid), event_of(eid)) == config_of(nid)``.
    Rows preserve ``enabled_events`` order, so any traversal over the
    integer table reproduces the object-graph traversal step for step.
    """

    __slots__ = (
        "system",
        "_senders",
        "_receivers",
        "_sr",
        "_rs",
        "_outputs",
        "_writes",
        "_sender_moves",
        "_receiver_moves",
        "_after_writes",
        "_output_bits",
        "_step_events",
        "_state_ids",
        "_states",
        "_configs",
        "_safe",
        "_complete",
        "_rows",
        "_rows_nodrop",
        "_succ",
        "_succ_nodrop",
        "_edge_by_event",
        "_events",
        "_event_ids",
        "_event_is_drop",
    )

    def __init__(self, system: System) -> None:
        self.system = system
        self._senders = _Interned()
        self._receivers = _Interned()
        self._sr = _ChannelTable(
            system.channel_sr, deliver_to_receiver, drop_from_sr
        )
        self._rs = _ChannelTable(
            system.channel_rs, deliver_to_sender, drop_from_rs
        )
        self._outputs = _Interned()
        self._writes = _Interned()
        self._writes.intern(())
        # state id -> {trigger: (state id', sends id)} for the sender and
        # {trigger: (state id', sends id, writes id)} for the receiver.
        self._sender_moves: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self._receiver_moves: Dict[int, Dict[int, Tuple[int, int, int]]] = {}
        # output id -> {writes id: output id'}
        self._after_writes: Dict[int, Dict[int, int]] = {}
        # output id -> (safe bit, complete bit)
        self._output_bits: Dict[int, Tuple[int, int]] = {}
        self._step_events: Optional[Tuple[int, int]] = None
        self._state_ids: Dict[StateKey, int] = {}
        self._states: List[StateKey] = []
        self._configs: List[Optional[Configuration]] = []
        self._safe = bytearray()
        self._complete = bytearray()
        self._rows: List[Optional[Row]] = []
        self._rows_nodrop: List[Optional[Row]] = []
        self._succ: Dict[int, Tuple[int, ...]] = {}
        self._succ_nodrop: Dict[int, Tuple[int, ...]] = {}
        self._edge_by_event: Dict[int, Dict[Event, int]] = {}
        self._events: List[Event] = []
        self._event_ids: Dict[Event, int] = {}
        self._event_is_drop: List[bool] = []
        obs.add("compiled.tables")

    # -- interning -------------------------------------------------------

    def state_id(self, config: Configuration) -> int:
        """The dense id of ``config``, interning it on first sight."""
        key = (
            self._senders.intern(config.sender_state),
            self._receivers.intern(config.receiver_state),
            self._sr.states.intern(config.chan_sr),
            self._rs.states.intern(config.chan_rs),
            self._outputs.intern(config.output),
        )
        state_id = self._state_ids.get(key)
        if state_id is None:
            state_id = self._add_state(key, config)
        return state_id

    def _add_state(
        self, key: StateKey, config: Optional[Configuration] = None
    ) -> int:
        """Assign the next dense id to the new global state ``key``."""
        state_id = len(self._states)
        self._state_ids[key] = state_id
        self._states.append(key)
        bits = self._output_bits.get(key[4])
        if bits is None:
            # Safety and completion read only the output tape: evaluate
            # them once per distinct tape, on a real configuration.
            if config is None:
                config = self._build_config(key)
            system = self.system
            bits = (
                1 if system.output_is_safe(config) else 0,
                1 if system.output_is_complete(config) else 0,
            )
            self._output_bits[key[4]] = bits
        self._configs.append(config)
        self._safe.append(bits[0])
        self._complete.append(bits[1])
        self._rows.append(None)
        self._rows_nodrop.append(None)
        return state_id

    def _ensure_event(self, event: Event) -> int:
        event_id = self._event_ids.get(event)
        if event_id is None:
            event_id = len(self._events)
            self._event_ids[event] = event_id
            self._events.append(event)
            self._event_is_drop.append(event[0] == "drop")
        return event_id

    def initial_id(self) -> int:
        """The id of the system's initial configuration."""
        return self.state_id(self.system.initial())

    # -- memoised component transitions ----------------------------------

    def _sender_move(
        self, sender_id: int, trigger: int, memo: Dict[int, Tuple[int, int]]
    ) -> Tuple[int, int]:
        """``(sender id', sends id)`` of one sender transition.

        Runs the protocol and its checks; stored in ``memo`` (the
        sender state's memo table) only once they pass.
        """
        sender = self.system.sender
        state = self._senders.values[sender_id]
        if trigger == _STEP:
            transition = sender.on_step(state)
        else:
            transition = sender.on_message(
                state, self._rs.messages.values[trigger]
            )
        transition = sender.check_sends(transition)
        if transition.writes:
            raise SimulationError(
                "sender transitions must not write output items"
            )
        move = memo[trigger] = (
            self._senders.intern(transition.state),
            self._sr.sends.intern(tuple(transition.sends)),
        )
        return move

    def _receiver_move(
        self,
        receiver_id: int,
        trigger: int,
        memo: Dict[int, Tuple[int, int, int]],
    ) -> Tuple[int, int, int]:
        """``(receiver id', sends id, writes id)`` of a receiver transition."""
        receiver = self.system.receiver
        state = self._receivers.values[receiver_id]
        if trigger == _STEP:
            transition = receiver.on_step(state)
        else:
            transition = receiver.on_message(
                state, self._sr.messages.values[trigger]
            )
        transition = receiver.check_sends(transition)
        move = memo[trigger] = (
            self._receivers.intern(transition.state),
            self._rs.sends.intern(tuple(transition.sends)),
            self._writes.intern(transition.writes),
        )
        return move

    def _written(
        self, output_id: int, writes_id: int, memo: Dict[int, int]
    ) -> int:
        """The output id after appending the items of ``writes_id``."""
        after = memo[writes_id] = self._outputs.intern(
            self._outputs.values[output_id] + self._writes.values[writes_id]
        )
        return after

    def _deliveries(
        self, channel: _ChannelTable, channel_id: int
    ) -> Tuple[Tuple[int, int, int], ...]:
        """``(event id, message id, channel id')`` per deliverable message."""
        model = channel.model
        state = channel.states.values[channel_id]
        part = tuple(
            (
                self._ensure_event(channel.deliver_event(message)),
                channel.messages.intern(message),
                channel.states.intern(model.after_deliver(state, message)),
            )
            for message in model.deliverable(state)
        )
        channel.deliver[channel_id] = part
        return part

    def _drops(
        self, channel: _ChannelTable, channel_id: int
    ) -> Tuple[Edge, ...]:
        """``(event id, channel id')`` per droppable message."""
        model = channel.model
        state = channel.states.values[channel_id]
        part = tuple(
            (
                self._ensure_event(channel.drop_event(message)),
                channel.states.intern(model.after_drop(state, message)),
            )
            for message in model.droppable(state)
        )
        channel.drop[channel_id] = part
        return part

    # -- the successor table ---------------------------------------------

    def row(self, state_id: int) -> Row:
        """``(event_id, next_state_id)`` edges in ``enabled_events`` order.

        Built on first request (interning every successor) from the
        memoised component transitions; cached afterwards, so the
        protocol and channel code runs at most once per distinct
        component transition for the table's whole lifetime.
        """
        cached = self._rows[state_id]
        if cached is not None:
            return cached
        sender, receiver, chan_sr, chan_rs, output = self._states[state_id]
        sr = self._sr
        rs = self._rs
        step_events = self._step_events
        if step_events is None:
            step_events = self._step_events = (
                self._ensure_event(SENDER_STEP),
                self._ensure_event(RECEIVER_STEP),
            )
        # The channel parts assign event ids, so they are fetched in
        # enabled_events order: SR deliveries, RS deliveries, SR drops,
        # RS drops.
        sr_part = sr.deliver.get(chan_sr)
        if sr_part is None:
            sr_part = self._deliveries(sr, chan_sr)
        rs_part = rs.deliver.get(chan_rs)
        if rs_part is None:
            rs_part = self._deliveries(rs, chan_rs)
        sr_drops = sr.drop.get(chan_sr)
        if sr_drops is None:
            sr_drops = self._drops(sr, chan_sr)
        rs_drops = rs.drop.get(chan_rs)
        if rs_drops is None:
            rs_drops = self._drops(rs, chan_rs)

        # The sender moves: its local step (which leaves chan_rs as it
        # is), then one per message delivered to it.
        moves = _memo(self._sender_moves, sender)
        sent = _memo(sr.after_sends, chan_sr)
        sender_edges: List[Tuple[int, StateKey]] = []
        for event_id, trigger, after_rs in (
            (step_events[0], _STEP, chan_rs),
        ) + rs_part:
            move = moves.get(trigger)
            if move is None:
                move = self._sender_move(sender, trigger, moves)
            next_sr = chan_sr
            if move[1]:
                next_sr = sent.get(move[1])
                if next_sr is None:
                    next_sr = sr.sent(chan_sr, move[1], sent)
            sender_edges.append(
                (event_id, (move[0], receiver, next_sr, after_rs, output))
            )
        # The receiver moves: its local step, then one per delivery.
        moves = _memo(self._receiver_moves, receiver)
        sent = _memo(rs.after_sends, chan_rs)
        written = _memo(self._after_writes, output)
        receiver_edges: List[Tuple[int, StateKey]] = []
        for event_id, trigger, after_sr in (
            (step_events[1], _STEP, chan_sr),
        ) + sr_part:
            move = moves.get(trigger)
            if move is None:
                move = self._receiver_move(receiver, trigger, moves)
            next_rs = chan_rs
            if move[1]:
                next_rs = sent.get(move[1])
                if next_rs is None:
                    next_rs = rs.sent(chan_rs, move[1], sent)
            next_output = output
            if move[2]:
                next_output = written.get(move[2])
                if next_output is None:
                    next_output = self._written(output, move[2], written)
            receiver_edges.append(
                (event_id, (sender, move[0], after_sr, next_rs, next_output))
            )

        labelled = sender_edges[:1] + receiver_edges + sender_edges[1:]
        non_drops = len(labelled)
        # Environment drops (always last in enabled_events order).
        for event_id, dropped in sr_drops:
            labelled.append(
                (event_id, (sender, receiver, dropped, chan_rs, output))
            )
        for event_id, dropped in rs_drops:
            labelled.append(
                (event_id, (sender, receiver, chan_sr, dropped, output))
            )

        state_ids = self._state_ids
        edges: List[Edge] = []
        for event_id, key in labelled:
            next_id = state_ids.get(key)
            if next_id is None:
                next_id = self._add_state(key)
            edges.append((event_id, next_id))
        row: Row = tuple(edges)
        # One guarded call per *materialized* row: the warm fast path
        # (cached return above) pays nothing.
        obs.add("compiled.rows_materialized")
        self._rows[state_id] = row
        self._rows_nodrop[state_id] = (
            row if non_drops == len(row) else row[:non_drops]
        )
        return row

    def row_without_drops(self, state_id: int) -> Row:
        """:meth:`row` with the environment's explicit drop moves removed."""
        cached = self._rows_nodrop[state_id]
        if cached is None:
            self.row(state_id)
            cached = self._rows_nodrop[state_id]
        return cached

    def succ_row(self, state_id: int) -> Tuple[int, ...]:
        """Unique successor ids of ``state_id`` in first-occurrence order.

        The event labels are dropped and duplicate targets collapsed (a
        state reached by several enabled events appears once), which is
        exactly the view a set-based frontier sweep needs.  Self-loops are
        kept: whether a self-edge matters is the *consumer's* policy (the
        batched engine prunes them because set-BFS evolution is unchanged
        without them).

        Derived lazily from the edge row on first request, so scalar
        users (which never call this) pay nothing for the cache.
        """
        cached = self._succ.get(state_id)
        if cached is None:
            cached = tuple(
                dict.fromkeys(nid for _, nid in self.row(state_id))
            )
            self._succ[state_id] = cached
        return cached

    def succ_row_without_drops(self, state_id: int) -> Tuple[int, ...]:
        """:meth:`succ_row` restricted to non-drop events."""
        cached = self._succ_nodrop.get(state_id)
        if cached is None:
            cached = tuple(
                dict.fromkeys(
                    nid for _, nid in self.row_without_drops(state_id)
                )
            )
            self._succ_nodrop[state_id] = cached
        return cached

    def enabled(self, state_id: int) -> Tuple[Event, ...]:
        """Decoded enabled events -- equal to ``System.enabled_events``."""
        return tuple(self._events[event_id] for event_id, _ in self.row(state_id))

    def step(self, state_id: int, event: Event) -> int:
        """The successor id under ``event``.

        Raises :class:`~repro.kernel.errors.SimulationError` if ``event``
        is not enabled at ``state_id``.
        """
        edges = self._edge_by_event.get(state_id)
        if edges is None:
            edges = {
                self._events[event_id]: next_id
                for event_id, next_id in self.row(state_id)
            }
            self._edge_by_event[state_id] = edges
        try:
            return edges[event]
        except KeyError:
            raise SimulationError(
                f"event {event!r} is not enabled at compiled state "
                f"{state_id}; enabled: {self.enabled(state_id)!r}"
            ) from None

    # -- decoding / predicates -------------------------------------------

    def _build_config(self, key: StateKey) -> Configuration:
        sender, receiver, chan_sr, chan_rs, output = key
        return Configuration(
            sender_state=self._senders.values[sender],
            receiver_state=self._receivers.values[receiver],
            chan_sr=self._sr.states.values[chan_sr],
            chan_rs=self._rs.states.values[chan_rs],
            output=self._outputs.values[output],
        )

    def config_of(self, state_id: int) -> Configuration:
        """The configuration interned as ``state_id`` (built on first use)."""
        config = self._configs[state_id]
        if config is None:
            config = self._build_config(self._states[state_id])
            self._configs[state_id] = config
        return config

    def event_of(self, event_id: int) -> Event:
        """The event tuple interned as ``event_id``."""
        return self._events[event_id]

    def is_safe(self, state_id: int) -> bool:
        """Precomputed ``output_is_safe`` bit for ``state_id``."""
        return bool(self._safe[state_id])

    def is_complete(self, state_id: int) -> bool:
        """Precomputed ``output_is_complete`` bit for ``state_id``."""
        return bool(self._complete[state_id])

    def __len__(self) -> int:
        """Number of configurations interned so far."""
        return len(self._states)

    @property
    def compiled_rows(self) -> int:
        """Number of states whose successor row has been built."""
        return sum(1 for row in self._rows if row is not None)

    @property
    def event_count(self) -> int:
        """Number of distinct events interned so far."""
        return len(self._events)

    # -- snapshots (for the on-disk result cache) ------------------------

    def snapshot(self) -> Dict[str, object]:
        """A picklable export of the table (configs, rows, events, bits)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "configs": tuple(map(self.config_of, range(len(self._states)))),
            "rows": tuple(self._rows),
            "events": tuple(self._events),
            "safe": bytes(self._safe),
            "complete": bytes(self._complete),
        }

    @classmethod
    def from_snapshot(
        cls, system: System, snapshot: Dict[str, object]
    ) -> "CompiledSystem":
        """Revive a compiled table for ``system`` from :meth:`snapshot`.

        The snapshot must come from an identical system (the cache layer
        guarantees this by fingerprinting); ids are re-assigned in the
        stored order, so they match the exporting process exactly.  The
        revived table keeps growing compositionally: rows the snapshot
        lacks are built on demand like in a fresh table.

        A malformed snapshot -- mismatched table lengths, or a row edge
        referencing an out-of-range event or state id -- raises
        :class:`~repro.kernel.errors.SimulationError` instead of
        producing a table that fails later mid-traversal.  Fabric
        workers revive snapshots published by *other* processes into a
        shared store, so a truncated or corrupted blob must be rejected
        at the boundary (the cache layer turns the rejection into a
        miss and recompiles).
        """
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise SimulationError(
                f"unsupported compiled-system snapshot: "
                f"{snapshot.get('schema')!r}"
            )
        configs = snapshot["configs"]
        events = snapshot["events"]
        rows = snapshot["rows"]
        safe = snapshot.get("safe", b"")
        complete = snapshot.get("complete", b"")
        state_count = len(configs)  # type: ignore[arg-type]
        event_count = len(events)  # type: ignore[arg-type]
        if len(rows) != state_count:  # type: ignore[arg-type]
            raise SimulationError(
                f"corrupt compiled-system snapshot: {len(rows)} rows "  # type: ignore[arg-type]
                f"for {state_count} configurations"
            )
        if len(safe) != state_count or len(complete) != state_count:  # type: ignore[arg-type]
            raise SimulationError(
                "corrupt compiled-system snapshot: predicate bit arrays "
                f"({len(safe)}/{len(complete)}) do not cover "  # type: ignore[arg-type]
                f"{state_count} configurations"
            )
        compiled = cls(system)
        obs.add("compiled.tables_revived")
        for config in snapshot["configs"]:  # type: ignore[union-attr]
            compiled.state_id(config)
        for event in snapshot["events"]:  # type: ignore[union-attr]
            compiled._ensure_event(event)
        is_drop = compiled._event_is_drop
        for state_id, row in enumerate(snapshot["rows"]):  # type: ignore[arg-type]
            if row is None:
                continue
            for event_id, next_id in row:
                if not (0 <= event_id < event_count and 0 <= next_id < state_count):
                    raise SimulationError(
                        f"corrupt compiled-system snapshot: row {state_id} "
                        f"edge ({event_id}, {next_id}) exceeds "
                        f"{event_count} events / {state_count} states"
                    )
            compiled._rows[state_id] = row
            nodrop = tuple(edge for edge in row if not is_drop[edge[0]])
            compiled._rows_nodrop[state_id] = nodrop
        return compiled


def compile_system(system: System) -> CompiledSystem:
    """Convenience constructor mirroring the module-level naming scheme."""
    return CompiledSystem(system)
