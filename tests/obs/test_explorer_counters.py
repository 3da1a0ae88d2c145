"""Explorer observability: exact counters and the frontier gauges.

Regression for a double-count bug: with ``store_parents=False`` a search
that found a violation used to re-run itself through the *public* entry
point to recover the witness path, emitting two ``explorer.searches``
spans and double-counting ``explorer.states``.  Every engine must emit
exactly one search with the report's own state count.
"""

from __future__ import annotations

from repro import obs
from repro.channels import channel_by_name
from repro.kernel.system import System
from repro.protocols import protocol_by_name
from repro.verify import explore, explore_batched, explore_compiled


def unsafe_system():
    # streaming over a duplicating channel violates Safety within a few
    # levels -- the smallest violation-path workload in the registry.
    sender, receiver = protocol_by_name("streaming", ("a", "b"), 2)
    return System(
        sender,
        receiver,
        channel_by_name("dup"),
        channel_by_name("dup"),
        ("a",),
    )


def counter(registry, name):
    return registry.to_dict().get(name, {}).get("value", 0)


class TestNoDoubleCount:
    def assert_single_search(self, engine):
        with obs.scoped() as (_, registry):
            report = engine(unsafe_system(), store_parents=False)
            assert not report.all_safe
            assert report.violation_path  # witness recovered
            assert counter(registry, "explorer.searches") == 1
            assert counter(registry, "explorer.states") == report.states

    def test_object_engine(self):
        self.assert_single_search(explore)

    def test_compiled_engine(self):
        self.assert_single_search(explore_compiled)

    def test_batched_engine(self):
        self.assert_single_search(explore_batched)

    def test_batched_clean_search_counts_once(self):
        sender, receiver = protocol_by_name("norepeat", ("a", "b"), 2)
        system = System(
            sender,
            receiver,
            channel_by_name("dup"),
            channel_by_name("dup"),
            ("a", "b"),
        )
        with obs.scoped() as (_, registry):
            report = explore_batched(system)
            assert report.all_safe
            assert counter(registry, "explorer.searches") == 1
            assert counter(registry, "explorer.states") == report.states


class TestFrontierGauges:
    def test_batched_run_emits_depth_and_width(self):
        sender, receiver = protocol_by_name("norepeat", ("a", "b"), 2)
        system = System(
            sender,
            receiver,
            channel_by_name("dup"),
            channel_by_name("dup"),
            ("a", "b"),
        )
        with obs.scoped() as (_, registry):
            explore_batched(system)
            metrics = registry.to_dict()
            assert metrics["frontier.depth"]["value"] >= 1
            assert metrics["frontier.width"]["value"] >= 1
            # Unreduced run: no reduction ratio is published.
            assert "frontier.reduction_ratio" not in metrics

    def test_reduced_run_emits_reduction_ratio(self):
        sender, receiver = protocol_by_name("norepeat", ("a", "b"), 2)
        system = System(
            sender,
            receiver,
            channel_by_name("dup"),
            channel_by_name("dup"),
            ("a", "b"),
        )
        with obs.scoped() as (_, registry):
            explore_batched(system, reduce=True)
            metrics = registry.to_dict()
            assert metrics["frontier.reduction_ratio"]["value"] >= 1.0
