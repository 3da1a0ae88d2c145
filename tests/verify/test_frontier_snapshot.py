"""Snapshot-based incremental exploration: exactness and integrity.

A :class:`FrontierSnapshot` is captured at a level boundary of the
unreduced batched search, where the set-BFS state is order-free; resuming
it under a bigger budget must therefore be *bit-identical* to a fresh
run at that budget.  These tests pin that contract, the lineage digest
chain, and the refusal paths (schema / nondeterminism mismatches).
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import replace

import pytest

from repro.channels import DuplicatingChannel
from repro.kernel.errors import VerificationError
from repro.kernel.system import System
from repro.protocols.norepeat import norepeat_protocol
from repro.verify import (
    FRONTIER_SCHEMA,
    FrontierSnapshot,
    explore_batched_resumable,
    explore_compiled,
)


def build_system(input_sequence=("a", "b", "c")):
    domain = tuple(sorted(set(input_sequence))) or ("a",)
    sender, receiver = norepeat_protocol(domain)
    return System(
        sender,
        receiver,
        DuplicatingChannel(),
        DuplicatingChannel(),
        tuple(input_sequence),
    )


def strip_timing(report):
    return replace(report, elapsed_seconds=0.0, states_per_second=0.0)


class TestResume:
    def test_budget_ladder_is_bit_identical_to_fresh_runs(self):
        system = build_system()
        snapshot = None
        lineage_lengths = []
        for budget in (3, 7, 13, 10_000):
            report, snapshot = explore_batched_resumable(
                build_system(), max_states=budget, resume_from=snapshot
            )
            fresh = explore_compiled(system, max_states=budget)
            assert strip_timing(report) == strip_timing(fresh), budget
            assert snapshot is not None and snapshot.verify()
            lineage_lengths.append(len(snapshot.lineage))
        # Each truncated capture chains onto its parent; the final
        # (drained) resume returns the last capture of the chain.
        assert lineage_lengths[0] == 1
        assert lineage_lengths == sorted(lineage_lengths)
        assert not snapshot.truncated

    def test_finished_snapshot_short_circuits(self):
        report, snapshot = explore_batched_resumable(build_system())
        assert not snapshot.truncated
        again, same = explore_batched_resumable(
            build_system(), max_states=1_000_000, resume_from=snapshot
        )
        assert strip_timing(again) == strip_timing(report)
        assert same is snapshot

    def test_smaller_budget_than_spend_starts_over(self):
        _, snapshot = explore_batched_resumable(build_system())
        budget = max(1, snapshot.expanded - 1)
        report, fresh_snapshot = explore_batched_resumable(
            build_system(), max_states=budget, resume_from=snapshot
        )
        fresh = explore_compiled(build_system(), max_states=budget)
        assert strip_timing(report) == strip_timing(fresh)
        if fresh_snapshot is not None:
            # Started over: its lineage does not extend the stale chain.
            assert len(fresh_snapshot.lineage) == 1

    def test_pickle_round_trip_resumes_identically(self):
        _, snapshot = explore_batched_resumable(
            build_system(), max_states=5
        )
        revived = pickle.loads(pickle.dumps(snapshot))
        assert revived.verify()
        report, _ = explore_batched_resumable(
            build_system(), resume_from=revived
        )
        fresh = explore_compiled(build_system())
        assert strip_timing(report) == strip_timing(fresh)


class TestIntegrity:
    def test_tampered_snapshot_fails_verify(self):
        _, snapshot = explore_batched_resumable(
            build_system(), max_states=5
        )
        tampered = dataclasses.replace(
            snapshot, expanded=snapshot.expanded + 1
        )
        assert snapshot.verify()
        assert not tampered.verify()

    def test_schema_mismatch_is_refused(self):
        _, snapshot = explore_batched_resumable(
            build_system(), max_states=5
        )
        alien = dataclasses.replace(snapshot, schema="stp-frontier/999")
        with pytest.raises(VerificationError, match="snapshot"):
            explore_batched_resumable(build_system(), resume_from=alien)

    def test_include_drops_mismatch_is_refused(self):
        _, snapshot = explore_batched_resumable(
            build_system(), max_states=5, include_drops=True
        )
        with pytest.raises(VerificationError, match="include_drops"):
            explore_batched_resumable(
                build_system(),
                include_drops=False,
                resume_from=snapshot,
            )

    def test_schema_constant_matches_captures(self):
        _, snapshot = explore_batched_resumable(
            build_system(), max_states=5
        )
        assert isinstance(snapshot, FrontierSnapshot)
        assert snapshot.schema == FRONTIER_SCHEMA
        assert snapshot.truncated
        assert snapshot.expanded == 5
