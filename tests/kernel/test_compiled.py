"""Tests for the compiled transition-table kernel (repro.kernel.compiled)."""

from __future__ import annotations

import pytest

from repro.adversaries import AgingFairAdversary, EagerAdversary, RandomAdversary
from repro.channels import (
    DeletingChannel,
    DuplicatingChannel,
    channel_by_name,
    channel_names,
)
from repro.kernel.compiled import (
    SNAPSHOT_SCHEMA,
    CompiledSystem,
    compile_system,
)
from repro.kernel.errors import AlphabetError, ChannelError, SimulationError
from repro.kernel.interfaces import Transition
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import Simulator, simulate_compiled
from repro.kernel.system import Configuration, System
from repro.protocols import protocol_by_name, protocol_names
from repro.protocols.norepeat import norepeat_protocol
from repro.protocols.trivial import StreamingReceiver, StreamingSender


def make_system(items=("a", "b"), channel=DuplicatingChannel):
    sender, receiver = norepeat_protocol(tuple(sorted(set(items))) or ("a",))
    return System(sender, receiver, channel(), channel(), tuple(items))


class TestRows:
    def test_row_matches_enabled_events_order(self):
        system = make_system()
        table = CompiledSystem(system)
        state_id = table.initial_id()
        row = table.row(state_id)
        enabled = system.enabled_events(system.initial())
        assert tuple(table.event_of(eid) for eid, _ in row) == enabled

    def test_row_successors_match_apply(self):
        system = make_system()
        table = CompiledSystem(system)
        state_id = table.initial_id()
        config = table.config_of(state_id)
        for event_id, successor_id in table.row(state_id):
            event = table.event_of(event_id)
            assert table.config_of(successor_id) == system.apply(config, event)

    def test_row_without_drops_filters_drop_events(self):
        system = make_system(channel=lambda: DeletingChannel(max_copies=2))
        table = CompiledSystem(system)
        # Walk a few expansions so some state has an enabled drop.
        seen_drop = False
        frontier = [table.initial_id()]
        for _ in range(4):
            next_frontier = []
            for state_id in frontier:
                events = {
                    table.event_of(eid)[0] for eid, _ in table.row(state_id)
                }
                lean = {
                    table.event_of(eid)[0]
                    for eid, _ in table.row_without_drops(state_id)
                }
                assert "drop" not in lean
                if "drop" in events:
                    seen_drop = True
                next_frontier.extend(nid for _, nid in table.row(state_id))
            frontier = next_frontier
        assert seen_drop

    def test_rows_are_lazy(self):
        table = CompiledSystem(make_system())
        assert table.compiled_rows == 0
        table.row(table.initial_id())
        assert table.compiled_rows == 1

    def test_compile_system_helper(self):
        table = compile_system(make_system())
        assert isinstance(table, CompiledSystem)
        table.initial_id()
        assert len(table) == 1


# The protocol x channel x input grid of
# tests/verify/test_compiled_equivalence.py, with its state cap.
GRID_DOMAIN = ("a", "b")
GRID_INPUTS = ((), ("a",), ("a", "b"))
GRID_MAX_STATES = 600
GRID = [
    (protocol, channel, input_sequence)
    for protocol in protocol_names()
    for channel in channel_names()
    for input_sequence in GRID_INPUTS
]


def grid_system(protocol, channel, input_sequence):
    sender, receiver = protocol_by_name(
        protocol, GRID_DOMAIN, len(GRID_DOMAIN)
    )
    return System(
        sender,
        receiver,
        channel_by_name(channel),
        channel_by_name(channel),
        tuple(input_sequence),
    )


def walk(table, limit):
    """Materialize rows in id order (= BFS order) up to ``limit`` states."""
    state_id = 0
    while state_id < len(table) and state_id < limit:
        table.row(state_id)
        state_id += 1
    return state_id


class TestWholeTable:
    """Every reachable compiled state against the object-graph ``System``."""

    @pytest.mark.parametrize(
        "protocol,channel,input_sequence",
        GRID,
        ids=[f"{p}-{c}-{len(i)}" for p, c, i in GRID],
    )
    def test_every_row_matches_system(self, protocol, channel, input_sequence):
        system = grid_system(protocol, channel, input_sequence)
        table = CompiledSystem(system)
        assert table.initial_id() == 0
        assert table.config_of(0) == system.initial()
        seen_events = 0
        state_id = 0
        while state_id < len(table) and state_id < GRID_MAX_STATES:
            config = table.config_of(state_id)
            assert table.is_safe(state_id) == system.output_is_safe(config)
            assert table.is_complete(state_id) == system.output_is_complete(
                config
            )
            states_before = len(table)
            row = table.row(state_id)
            assert table.enabled(state_id) == system.enabled_events(config)
            fresh = states_before
            for event_id, next_id in row:
                # Ids are handed out in first-visit order: a new event or
                # state takes the next free id, in enabled_events order.
                if event_id >= seen_events:
                    assert event_id == seen_events
                    seen_events += 1
                if next_id >= states_before:
                    assert next_id <= fresh
                    fresh = max(fresh, next_id + 1)
                assert table.config_of(next_id) == system.apply(
                    config, table.event_of(event_id)
                )
            assert fresh == len(table)
            state_id += 1
        assert table.event_count == seen_events


class TestStateId:
    def test_interns_new_and_looks_up_known_configs(self):
        system = make_system()
        table = CompiledSystem(system)
        initial_id = table.initial_id()
        assert table.state_id(system.initial()) == initial_id
        successors = [nid for _, nid in table.row(initial_id)]
        for next_id in successors:
            assert table.state_id(table.config_of(next_id)) == next_id
        size = len(table)
        stray = Configuration(
            sender_state=system.initial().sender_state,
            receiver_state=system.initial().receiver_state,
            chan_sr=frozenset({"forged"}),
            chan_rs=frozenset(),
            output=("b",),
        )
        stray_id = table.state_id(stray)
        assert stray_id == size and len(table) == size + 1
        assert table.config_of(stray_id) == stray
        assert not table.is_safe(stray_id)
        assert table.state_id(stray) == stray_id

    def test_forged_state_events_in_enabled_order(self):
        # Both channels loaded at once: every event of the first row is
        # new, so event ids must follow enabled_events order exactly.
        system = grid_system("abp", "lossy-fifo", ("a",))
        table = CompiledSystem(system)
        initial = system.initial()
        forged_id = table.state_id(
            Configuration(
                sender_state=initial.sender_state,
                receiver_state=initial.receiver_state,
                chan_sr=(("data", 0, "a"),),
                chan_rs=(("ack", 1),),
                output=(),
            )
        )
        row = table.row(forged_id)
        assert [event_id for event_id, _ in row] == list(range(len(row)))
        assert table.enabled(forged_id) == system.enabled_events(
            table.config_of(forged_id)
        )
        assert [kind for kind, *_ in table.enabled(forged_id)] == [
            "step", "step", "deliver", "deliver", "drop", "drop",
        ]


class TestStep:
    def test_step_follows_enabled_event(self):
        system = make_system()
        table = CompiledSystem(system)
        state_id = table.initial_id()
        event = table.enabled(state_id)[0]
        successor_id = table.step(state_id, event)
        assert table.config_of(successor_id) == system.apply(
            table.config_of(state_id), event
        )

    def test_step_rejects_disabled_event(self):
        table = CompiledSystem(make_system())
        with pytest.raises(SimulationError):
            table.step(table.initial_id(), ("no-such-event",))


class TestPredicates:
    def test_initial_state_flags(self):
        system = make_system(items=())
        table = CompiledSystem(system)
        state_id = table.initial_id()
        assert table.is_safe(state_id)
        # Empty input: the initial configuration is already complete.
        assert table.is_complete(state_id)


class _OffAlphabetSender(StreamingSender):
    def on_step(self, state):
        return Transition(state=state, sends=("bogus",))


class _WritingSender(StreamingSender):
    def on_step(self, state):
        return Transition(state=state, sends=("a",), writes=("a",))


class _BoomChannel(DuplicatingChannel):
    def after_send(self, state, message):
        if message == "boom":
            raise ChannelError("boom")
        return super().after_send(state, message)


class TestChecksStillFire:
    """A failing component transition is never memoised: every state that
    reaches it raises again."""

    def raises_everywhere(self, system, error):
        table = CompiledSystem(system)
        initial = system.initial()
        initial_id = table.initial_id()
        # Another global state with the same sender component.
        other_id = table.state_id(
            Configuration(
                sender_state=initial.sender_state,
                receiver_state=initial.receiver_state,
                chan_sr=initial.chan_sr,
                chan_rs=initial.chan_rs,
                output=("a",),
            )
        )
        assert other_id != initial_id
        for state_id in (initial_id, other_id, initial_id):
            with pytest.raises(error):
                table.row(state_id)
        assert table.compiled_rows == 0

    def test_off_alphabet_send(self):
        system = System(
            _OffAlphabetSender(("a",)),
            StreamingReceiver(("a",)),
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a",),
        )
        with pytest.raises(AlphabetError):
            system.apply(system.initial(), ("step", "S"))
        self.raises_everywhere(system, AlphabetError)

    def test_sender_that_writes(self):
        system = System(
            _WritingSender(("a",)),
            StreamingReceiver(("a",)),
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a",),
        )
        with pytest.raises(SimulationError, match="must not write"):
            system.apply(system.initial(), ("step", "S"))
        self.raises_everywhere(system, SimulationError)

    def test_channel_error(self):
        system = System(
            StreamingSender(("boom",)),
            StreamingReceiver(("boom",)),
            _BoomChannel(),
            DuplicatingChannel(),
            ("boom",),
        )
        with pytest.raises(ChannelError):
            system.apply(system.initial(), ("step", "S"))
        self.raises_everywhere(system, ChannelError)


class TestSnapshot:
    def test_roundtrip_preserves_ids_and_rows(self):
        system = make_system()
        table = CompiledSystem(system)
        frontier = [table.initial_id()]
        for _ in range(3):
            frontier = [
                nid for sid in frontier for _, nid in table.row(sid)
            ]
        snapshot = table.snapshot()
        revived = CompiledSystem.from_snapshot(system, snapshot)
        assert len(revived) == len(table)
        assert revived.compiled_rows == table.compiled_rows
        for state_id in range(table.compiled_rows):
            assert revived.row(state_id) == table.row(state_id)
            assert revived.config_of(state_id) == table.config_of(state_id)

    def test_revive_then_grow_matches_fresh_compile(self):
        system = grid_system("abp", "lossy-fifo", ("a", "b"))
        partial = CompiledSystem(system)
        partial.initial_id()
        walk(partial, 5)
        snapshot = partial.snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA == "stp-compiled/1"
        assert set(snapshot) == {
            "schema", "configs", "rows", "events", "safe", "complete",
        }
        assert len(snapshot["configs"]) == len(partial) > 5
        # Built lazily, but exported as real configurations.
        assert all(
            type(config) is Configuration for config in snapshot["configs"]
        )

        revived = CompiledSystem.from_snapshot(system, snapshot)
        grown = walk(revived, GRID_MAX_STATES)
        fresh = CompiledSystem(system)
        fresh.initial_id()
        assert walk(fresh, GRID_MAX_STATES) == grown
        assert len(revived) == len(fresh)
        assert revived.compiled_rows == fresh.compiled_rows
        assert revived.event_count == fresh.event_count
        for event_id in range(fresh.event_count):
            assert revived.event_of(event_id) == fresh.event_of(event_id)
        for state_id in range(len(fresh)):
            assert revived.config_of(state_id) == fresh.config_of(state_id)
            assert revived.is_safe(state_id) == fresh.is_safe(state_id)
            assert revived.is_complete(state_id) == fresh.is_complete(state_id)
            if state_id < grown:
                assert revived.row(state_id) == fresh.row(state_id)
                assert revived.row_without_drops(
                    state_id
                ) == fresh.row_without_drops(state_id)
        assert revived.snapshot() == fresh.snapshot()

    def test_snapshot_rejects_other_schema(self):
        system = make_system()
        snapshot = CompiledSystem(system).snapshot()
        snapshot["schema"] = "bogus/0"
        with pytest.raises(Exception):
            CompiledSystem.from_snapshot(system, snapshot)


class TestSnapshotCorruption:
    """Fabric workers revive snapshots other processes published, so a
    truncated or bit-flipped blob must be rejected at the boundary."""

    def grown_snapshot(self, system):
        table = CompiledSystem(system)
        frontier = [table.initial_id()]
        for _ in range(3):
            frontier = [
                nid for sid in frontier for _, nid in table.row(sid)
            ]
        return table.snapshot()

    def test_truncated_rows_rejected(self):
        system = make_system()
        snapshot = self.grown_snapshot(system)
        snapshot["rows"] = snapshot["rows"][:-1]
        with pytest.raises(
            SimulationError, match="corrupt compiled-system snapshot"
        ):
            CompiledSystem.from_snapshot(system, snapshot)

    def test_wrong_safe_bits_length_rejected(self):
        system = make_system()
        snapshot = self.grown_snapshot(system)
        snapshot["safe"] = snapshot["safe"][:-1]
        with pytest.raises(
            SimulationError, match="corrupt compiled-system snapshot"
        ):
            CompiledSystem.from_snapshot(system, snapshot)

    def test_wrong_complete_bits_length_rejected(self):
        system = make_system()
        snapshot = self.grown_snapshot(system)
        snapshot["complete"] = snapshot["complete"] + b"\x00"
        with pytest.raises(
            SimulationError, match="corrupt compiled-system snapshot"
        ):
            CompiledSystem.from_snapshot(system, snapshot)

    def test_out_of_range_edge_ids_rejected(self):
        system = make_system()
        snapshot = self.grown_snapshot(system)
        rows = list(snapshot["rows"])
        for state_id, row in enumerate(rows):
            if row:
                bad = ((row[0][0], len(snapshot["configs"]) + 7),) + row[1:]
                rows[state_id] = bad
                break
        snapshot["rows"] = tuple(rows)
        with pytest.raises(
            SimulationError, match="corrupt compiled-system snapshot"
        ):
            CompiledSystem.from_snapshot(system, snapshot)

    def test_out_of_range_event_id_rejected(self):
        system = make_system()
        snapshot = self.grown_snapshot(system)
        rows = list(snapshot["rows"])
        for state_id, row in enumerate(rows):
            if row:
                bad = ((len(snapshot["events"]), row[0][1]),) + row[1:]
                rows[state_id] = bad
                break
        snapshot["rows"] = tuple(rows)
        with pytest.raises(
            SimulationError, match="corrupt compiled-system snapshot"
        ):
            CompiledSystem.from_snapshot(system, snapshot)

    def test_cache_layer_treats_corrupt_snapshot_as_miss(self, tmp_path):
        """A corrupted shared-store snapshot recompiles, never crashes."""
        from repro.analysis.cache import (
            COMPILED_KIND,
            CompiledTableCache,
            ResultCache,
            system_fingerprint,
        )

        system = make_system()
        base = system_fingerprint(system)
        cache = ResultCache(tmp_path)
        snapshot = self.grown_snapshot(system)
        snapshot["rows"] = snapshot["rows"][:-1]
        cache.put(COMPILED_KIND, base, snapshot)

        tables = CompiledTableCache(cache=cache)
        table = tables.table_for(system, base)
        assert table.initial_id() == 0
        # The poisoned snapshot counted as a miss: compiled, not reused.
        assert tables.compiled == 1
        assert tables.reused == 0


class TestSimulateCompiled:
    @pytest.mark.parametrize("items", [(), ("a",), ("a", "b"), ("a", "b", "c")])
    def test_bit_identical_to_simulator(self, items):
        def adversary():
            return AgingFairAdversary(
                RandomAdversary(DeterministicRNG(3, "compiled-test")),
                patience=64,
            )

        base = Simulator(make_system(items), adversary(), max_steps=5_000).run()
        fast = simulate_compiled(
            make_system(items), adversary(), max_steps=5_000
        )
        assert fast.trace.steps == base.trace.steps
        assert fast.completed == base.completed
        assert fast.safe == base.safe
        assert fast.steps == base.steps
        assert fast.stopped_by_adversary == base.stopped_by_adversary
        assert fast.first_violation_time == base.first_violation_time
        assert fast.budget_exceeded == base.budget_exceeded
        assert fast.recovery == base.recovery

    def test_warm_table_reuse(self):
        system = make_system()
        table = CompiledSystem(system)
        first = simulate_compiled(
            system, EagerAdversary(), max_steps=5_000, compiled=table
        )
        rows_after_first = table.compiled_rows
        second = simulate_compiled(
            system, EagerAdversary(), max_steps=5_000, compiled=table
        )
        assert second.trace.steps == first.trace.steps
        # An identical eager run revisits only known transitions.
        assert table.compiled_rows == rows_after_first

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(SimulationError):
            simulate_compiled(make_system(), EagerAdversary(), max_steps=0)
