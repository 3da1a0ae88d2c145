"""Property sweep: the batched frontier engine matches the scalar one.

Contracts, each swept over every registered protocol crossed with every
registered channel and a family of small inputs:

* unreduced :func:`explore_batched` is **bit-identical** to
  :func:`explore_compiled` in every non-timing field, including under
  truncating budgets (the order-sensitive cases delegate to the scalar
  engine, so even violation paths match);
* symmetry reduction (``reduce=True``) never changes the Safety /
  completion verdicts, only the state *count* (concrete states collapse
  to canonical classes);
* :class:`FrontierFamily`'s union sweep answers a whole input family
  with the same per-member reports as member-at-a-time scalar sweeps.

This is the soundness evidence behind using the frontier engine for
the paper's exhaustive T2/T4 verification columns.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.channels import (
    DeletingChannel,
    DuplicatingChannel,
    channel_by_name,
    channel_names,
)
from repro.kernel.system import System
from repro.protocols import protocol_by_name, protocol_names
from repro.protocols.norepeat import norepeat_protocol
from repro.protocols.norepeat_del import bounded_del_protocol
from repro.verify import (
    FrontierFamily,
    canonical_input_signature,
    explore_batched,
    explore_compiled,
)
from repro.workloads import repetition_free_family

DOMAIN = ("a", "b")
INPUTS = ((), ("a",), ("a", "b"))
MAX_STATES = 600
# 5 forces mid-level / boundary truncation on most systems; 1 truncates
# at the initial state -- both must reproduce the scalar reports exactly.
BUDGETS = (MAX_STATES, 5, 1)

GRID = [
    (protocol, channel, input_sequence)
    for protocol in protocol_names()
    for channel in channel_names()
    for input_sequence in INPUTS
]


def build_system(protocol: str, channel: str, input_sequence):
    sender, receiver = protocol_by_name(protocol, DOMAIN, len(DOMAIN))
    return System(
        sender,
        receiver,
        channel_by_name(channel),
        channel_by_name(channel),
        tuple(input_sequence),
    )


def strip_timing(report):
    return replace(report, elapsed_seconds=0.0, states_per_second=0.0)


@pytest.mark.parametrize(
    "protocol,channel,input_sequence",
    GRID,
    ids=[f"{p}-{c}-{len(i)}" for p, c, i in GRID],
)
class TestBatchedEquivalence:
    def test_unreduced_reports_bit_identical(
        self, protocol, channel, input_sequence
    ):
        for budget in BUDGETS:
            scalar = explore_compiled(
                build_system(protocol, channel, input_sequence),
                max_states=budget,
            )
            batched = explore_batched(
                build_system(protocol, channel, input_sequence),
                max_states=budget,
            )
            assert strip_timing(batched) == strip_timing(scalar), budget

    def test_reduction_preserves_verdicts(
        self, protocol, channel, input_sequence
    ):
        scalar = explore_compiled(
            build_system(protocol, channel, input_sequence),
            max_states=MAX_STATES,
        )
        reduced = explore_batched(
            build_system(protocol, channel, input_sequence),
            max_states=MAX_STATES,
            reduce=True,
        )
        assert reduced.all_safe == scalar.all_safe
        assert reduced.completion_reachable == scalar.completion_reachable
        if not scalar.truncated and not reduced.truncated:
            # Quotienting can only merge states, never invent them.
            assert reduced.states <= scalar.states


def _t2_family(m: int):
    domain = "abcdefgh"[:m]
    sender, receiver = norepeat_protocol(domain)
    return [
        System(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            input_sequence,
        )
        for input_sequence in repetition_free_family(domain)
    ]


def _t4_family(m: int):
    domain = "abcdefgh"[:m]
    sender, receiver = bounded_del_protocol(domain)
    return [
        System(
            sender,
            receiver,
            DeletingChannel(max_copies=2),
            DeletingChannel(max_copies=2),
            input_sequence,
        )
        for input_sequence in repetition_free_family(domain)
    ]


class TestFrontierFamily:
    def test_union_sweep_bit_identical_to_scalar(self):
        systems = _t2_family(3)
        scalar = [
            explore_compiled(system, store_parents=False)
            for system in systems
        ]
        batched = FrontierFamily(systems).explore()
        assert len(batched) == len(scalar)
        for fast, base in zip(batched, scalar):
            assert strip_timing(fast) == strip_timing(base)

    def test_union_sweep_respects_budget(self):
        systems = _t2_family(2)
        budget = 4
        scalar = [
            explore_compiled(system, max_states=budget) for system in systems
        ]
        batched = FrontierFamily(systems).explore(max_states=budget)
        for fast, base in zip(batched, scalar):
            assert strip_timing(fast) == strip_timing(base)

    @pytest.mark.parametrize("family", [_t2_family, _t4_family], ids=["T2", "T4"])
    def test_reduction_preserves_family_verdicts(self, family):
        systems = family(3)
        family_engine = FrontierFamily(systems)
        scalar = [
            explore_compiled(system, store_parents=False)
            for system in systems
        ]
        reduced = family_engine.explore(reduce=True)
        for fast, base in zip(reduced, scalar):
            assert fast.all_safe == base.all_safe
            assert fast.completion_reachable == base.completion_reachable
            assert fast.states == base.states  # renamed twin, same shape
        assert family_engine.last_stats["reduction_ratio"] > 1.0

    def test_reduction_classes_match_signatures(self):
        systems = _t2_family(3)
        family_engine = FrontierFamily(systems)
        family_engine.explore(reduce=True)
        signatures = {
            canonical_input_signature(system.input_sequence)
            for system in systems
        }
        assert family_engine.last_stats["representatives"] == len(signatures)
