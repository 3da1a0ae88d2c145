"""Tests for the self-healing campaign runner.

The crash/timeout tests use marker files to make the *first* attempt of a
run misbehave and every retry succeed: a marker created on disk by a
doomed child is visible to the fresh child that runs its retry.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.adversaries import AgingFairAdversary, EagerAdversary, RandomAdversary
from repro.analysis.campaign import Campaign
from repro.channels import DuplicatingChannel
from repro.kernel.errors import VerificationError
from repro.kernel.rng import DeterministicRNG
from repro.protocols.norepeat import norepeat_protocol
from repro.resilience import CHECKPOINT_SCHEMA, ResilientRunner
from repro.resilience.runner import CellSupervisor


def small_campaign(adversary_factory=None, **overrides):
    sender, receiver = norepeat_protocol("abcd")
    factory = adversary_factory or (
        lambda rng: AgingFairAdversary(
            RandomAdversary(rng, deliver_weight=3.0), patience=64
        )
    )
    spec = dict(
        sender=sender,
        receiver=receiver,
        channel_factory=DuplicatingChannel,
        inputs=[("a", "b"), ("c", "d", "a")],
        adversary_factory=factory,
        seeds=2,
        max_steps=20_000,
    )
    spec.update(overrides)
    return Campaign(**spec)


class _SabotagedAdversary(EagerAdversary):
    """Misbehaves until its marker file exists, then behaves normally."""

    def __init__(self, marker, mode):
        super().__init__()
        self.marker = marker
        self.mode = mode

    def choose(self, system, trace, enabled):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as handle:
                handle.write("sabotaged once\n")
            if self.mode == "crash":
                os._exit(13)
            if self.mode == "hang":
                time.sleep(30.0)
            if self.mode == "error":
                raise RuntimeError("injected failure")
        return super().choose(system, trace, enabled)


class TestDeterminism:
    def test_outcome_bit_identical_to_plain_campaign(self):
        campaign = small_campaign()
        plain = campaign.run(DeterministicRNG(7, "resilient-test"))
        resilient = ResilientRunner(campaign, workers=2).run(
            DeterministicRNG(7, "resilient-test")
        )
        assert resilient.outcome.metrics == plain.metrics
        assert resilient.outcome.summary == plain.summary
        assert resilient.run_failures == ()
        assert resilient.abandoned == ()

    def test_run_resilient_facade(self):
        campaign = small_campaign()
        plain = campaign.run(DeterministicRNG(3, "facade"))
        resilient = campaign.run_resilient(DeterministicRNG(3, "facade"))
        assert resilient.outcome.metrics == plain.metrics


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_bit_identical(self, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        campaign = small_campaign()
        uninterrupted = campaign.run(DeterministicRNG(5, "resume"))

        # Full supervised sweep, checkpointing as it goes.
        ResilientRunner(campaign, checkpoint_path=checkpoint).run(
            DeterministicRNG(5, "resume")
        )
        # Simulate a sweep killed mid-flight: drop half the completed
        # runs from the checkpoint (the runner flushes after each run, so
        # a real kill leaves exactly such a prefix).
        data = json.loads(checkpoint.read_text())
        kept = dict(list(data["completed"].items())[:2])
        data["completed"] = kept
        checkpoint.write_text(json.dumps(data))

        resumed = ResilientRunner(campaign, checkpoint_path=checkpoint).run(
            DeterministicRNG(5, "resume")
        )
        assert resumed.resumed_runs == 2
        assert resumed.outcome.metrics == uninterrupted.metrics
        assert resumed.outcome.summary == uninterrupted.summary

    def test_checkpoint_from_other_grid_refused(self, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        checkpoint.write_text(
            json.dumps(
                {
                    "schema": CHECKPOINT_SCHEMA,
                    "fingerprint": "not-this-campaign",
                    "completed": {},
                }
            )
        )
        runner = ResilientRunner(small_campaign(), checkpoint_path=checkpoint)
        with pytest.raises(VerificationError):
            runner.run(DeterministicRNG(5, "resume"))

    def test_checkpoint_from_other_adversary_refused(self, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        ResilientRunner(small_campaign(), checkpoint_path=checkpoint).run(
            DeterministicRNG(5, "resume")
        )
        # Same grid, budget, protocol types and RNG; only the adversary
        # factory differs, so the stored metrics are not this campaign's.
        other = small_campaign(
            adversary_factory=lambda rng: AgingFairAdversary(
                RandomAdversary(rng, deliver_weight=0.2), patience=64
            )
        )
        runner = ResilientRunner(other, checkpoint_path=checkpoint)
        with pytest.raises(VerificationError, match="different campaign"):
            runner.run(DeterministicRNG(5, "resume"))

    def test_unsupported_schema_refused(self, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        checkpoint.write_text(json.dumps({"schema": "something-else/1"}))
        runner = ResilientRunner(small_campaign(), checkpoint_path=checkpoint)
        with pytest.raises(VerificationError):
            runner.run(DeterministicRNG(5, "resume"))


class TestSelfHealing:
    def test_crashed_worker_is_retried(self, tmp_path):
        marker = str(tmp_path / "crash-marker")
        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(marker, "crash"),
            inputs=[("a", "b")],
            seeds=1,
        )
        clean = small_campaign(
            adversary_factory=lambda rng: EagerAdversary(),
            inputs=[("a", "b")],
            seeds=1,
        ).run(DeterministicRNG(0, "heal"))
        result = ResilientRunner(campaign, backoff=0.01).run(
            DeterministicRNG(0, "heal")
        )
        assert result.retried_runs == 1
        assert result.abandoned == ()
        assert [f.kind for f in result.run_failures] == ["crash"]
        assert "exit code 13" in result.run_failures[0].message
        # The retry recomputed the exact run the sabotage interrupted.
        assert result.outcome.metrics == clean.metrics

    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        marker = str(tmp_path / "hang-marker")
        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(marker, "hang"),
            inputs=[("a", "b")],
            seeds=1,
        )
        result = ResilientRunner(
            campaign, run_timeout=0.5, backoff=0.01
        ).run(DeterministicRNG(0, "heal"))
        assert result.retried_runs == 1
        assert result.abandoned == ()
        assert [f.kind for f in result.run_failures] == ["timeout"]
        assert result.outcome.summary.runs == 1

    def test_erroring_run_reported_and_retried(self, tmp_path):
        marker = str(tmp_path / "error-marker")
        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(marker, "error"),
            inputs=[("a", "b")],
            seeds=1,
        )
        result = ResilientRunner(campaign, backoff=0.01).run(
            DeterministicRNG(0, "heal")
        )
        assert [f.kind for f in result.run_failures] == ["error"]
        assert "injected failure" in result.run_failures[0].message
        assert result.outcome.summary.runs == 1

    def test_permanently_failing_run_is_abandoned(self):
        class AlwaysCrash(EagerAdversary):
            def choose(self, system, trace, enabled):
                if len(system.input_sequence) == 3:
                    os._exit(13)
                return super().choose(system, trace, enabled)

        campaign = small_campaign(
            adversary_factory=lambda rng: AlwaysCrash(), seeds=1
        )
        result = ResilientRunner(campaign, retries=1, backoff=0.01).run(
            DeterministicRNG(0, "heal")
        )
        assert result.abandoned == ((("c", "d", "a"), 0),)
        assert len(result.run_failures) == 2  # first attempt + one retry
        # The healthy grid key still produced its metrics.
        assert result.outcome.summary.runs == 1
        assert result.outcome.metrics[0].completed

    def test_every_run_failing_raises(self):
        class AlwaysCrash(EagerAdversary):
            def choose(self, system, trace, enabled):
                os._exit(13)

        campaign = small_campaign(
            adversary_factory=lambda rng: AlwaysCrash(),
            inputs=[("a", "b")],
            seeds=1,
        )
        runner = ResilientRunner(campaign, retries=0, backoff=0.01)
        with pytest.raises(VerificationError):
            runner.run(DeterministicRNG(0, "heal"))


class TestValidation:
    def test_runner_options_validated(self):
        campaign = small_campaign()
        with pytest.raises(VerificationError):
            ResilientRunner(campaign, run_timeout=0)
        with pytest.raises(VerificationError):
            ResilientRunner(campaign, retries=-1)
        with pytest.raises(VerificationError):
            ResilientRunner(campaign, backoff=-0.5)
        with pytest.raises(VerificationError):
            ResilientRunner(campaign, workers=0)


class TestSupervisedSingleRun:
    """The per-cell supervision primitive the fabric workers reuse."""

    def test_matches_inline_single_run(self):
        from repro.resilience.runner import supervised_single_run

        campaign = small_campaign()
        rng = DeterministicRNG(3, "sup")
        key = (("a", "b"), 1)
        supervised = supervised_single_run(campaign, rng, key)
        inline = campaign._single_run(rng, key[0], key[1])
        assert supervised == inline

    def test_timeout_raises(self, tmp_path):
        from repro.resilience.runner import supervised_single_run

        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "m1"), "hang"
            )
        )
        with pytest.raises(VerificationError, match="exceeded"):
            supervised_single_run(
                campaign,
                DeterministicRNG(0),
                (("a", "b"), 0),
                run_timeout=0.3,
            )

    def test_crash_raises(self, tmp_path):
        from repro.resilience.runner import supervised_single_run

        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "m2"), "crash"
            )
        )
        with pytest.raises(VerificationError, match="died"):
            supervised_single_run(
                campaign, DeterministicRNG(0), (("a", "b"), 0)
            )

    def test_error_raises_with_message(self, tmp_path):
        from repro.resilience.runner import supervised_single_run

        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "m3"), "error"
            )
        )
        with pytest.raises(VerificationError, match="injected failure"):
            supervised_single_run(
                campaign, DeterministicRNG(0), (("a", "b"), 0)
            )

    def test_heartbeat_is_called_while_running(self, tmp_path):
        from repro.resilience.runner import supervised_single_run

        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "m4"), "hang"
            )
        )
        beats = []
        with pytest.raises(VerificationError):
            supervised_single_run(
                campaign,
                DeterministicRNG(0),
                (("a", "b"), 0),
                run_timeout=0.5,
                heartbeat=lambda: beats.append(1),
            )
        assert beats  # the lease stayed fresh while the child hung


class _PidRecordingFactory:
    """Adversary factory that logs the pid of every process it runs in."""

    def __init__(self, log, mode=None, marker=None):
        self.log = log
        self.mode = mode
        self.marker = marker

    def __call__(self, rng):
        with open(self.log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        if self.mode is not None:
            return _SabotagedAdversary(self.marker, self.mode)
        return AgingFairAdversary(
            RandomAdversary(rng, deliver_weight=3.0), patience=64
        )

    def pids(self):
        with open(self.log) as handle:
            return [int(line) for line in handle]


def _process_gone(pid):
    """True once ``pid`` has exited (a zombie awaiting reaping counts)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state == "Z"


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


class TestNoForkFallback:
    """Without ``fork`` cells run in-process and still fail typed."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )

    def _campaign(self, tmp_path):
        return small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "marker"), "error"
            ),
            inputs=[("a", "b")],
            seeds=1,
        )

    def test_supervisor_raises_the_error_failure(self, tmp_path):
        with CellSupervisor(self._campaign(tmp_path), DeterministicRNG(0)) as sup:
            with pytest.raises(
                VerificationError,
                match=r"run \(\('a', 'b'\), 0\) failed: "
                "RuntimeError: injected failure",
            ):
                sup.run((("a", "b"), 0))
            assert sup._process is None  # nothing was forked

    def test_runner_records_the_error_and_retries(self, tmp_path):
        result = ResilientRunner(self._campaign(tmp_path), backoff=0.01).run(
            DeterministicRNG(0, "heal")
        )
        assert [f.kind for f in result.run_failures] == ["error"]
        assert "injected failure" in result.run_failures[0].message
        assert result.retried_runs == 1
        assert result.abandoned == ()
        assert result.outcome.summary.runs == 1


@needs_fork
class TestCellSupervisor:
    """One long-lived supervised child serves cell after cell."""

    KEYS = [(("a", "b"), 0), (("a", "b"), 1), (("c", "d", "a"), 0),
            (("c", "d", "a"), 1)]

    def test_cells_share_one_child_and_match_inline(self, tmp_path):
        factory = _PidRecordingFactory(str(tmp_path / "pids"))
        campaign = small_campaign(adversary_factory=factory)
        rng = DeterministicRNG(3, "sup")
        with CellSupervisor(campaign, rng) as supervisor:
            results = [supervisor.run(key) for key in self.KEYS]
        pids = factory.pids()
        assert len(pids) == 4
        assert len(set(pids)) == 1
        assert pids[0] != os.getpid()
        inline = [campaign._single_run(rng, key[0], key[1]) for key in self.KEYS]
        assert results == inline

    @pytest.mark.parametrize(
        "mode, message",
        [
            ("crash", "died with exit code 13"),
            ("hang", "exceeded 0.3s"),
            ("error", "failed: RuntimeError: injected failure"),
        ],
    )
    def test_failed_cell_retires_its_child(self, tmp_path, mode, message):
        factory = _PidRecordingFactory(
            str(tmp_path / "pids"), mode, str(tmp_path / "marker")
        )
        campaign = small_campaign(adversary_factory=factory)
        rng = DeterministicRNG(0)
        first, second = self.KEYS[0], self.KEYS[2]
        with CellSupervisor(campaign, rng, run_timeout=0.3) as supervisor:
            with pytest.raises(VerificationError, match=message):
                supervisor.run(first)
            metrics = supervisor.run(second)
        failed_pid, next_pid = factory.pids()
        assert failed_pid != next_pid
        assert metrics == campaign._single_run(rng, second[0], second[1])

    def test_close_leaves_no_live_child(self):
        supervisor = CellSupervisor(small_campaign(), DeterministicRNG(1))
        supervisor.run(self.KEYS[0])
        child = supervisor._process
        assert child.is_alive()
        supervisor.close()
        assert not child.is_alive()
        assert child.exitcode == 0  # stopped by message, not terminated
        supervisor.close()  # idempotent

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_killed_owner_leaves_no_orphan(self, tmp_path):
        factory = _PidRecordingFactory(str(tmp_path / "pids"))
        campaign = small_campaign(adversary_factory=factory)

        def owner():
            supervisor = CellSupervisor(campaign, DeterministicRNG(0))
            supervisor.run(self.KEYS[0])
            os.kill(os.getpid(), signal.SIGKILL)

        process = multiprocessing.get_context("fork").Process(target=owner)
        process.start()
        process.join(10.0)
        assert process.exitcode == -signal.SIGKILL
        (cell_child,) = factory.pids()
        deadline = time.monotonic() + 2.0
        while not _process_gone(cell_child) and time.monotonic() < deadline:
            time.sleep(0.02)
        orphaned = not _process_gone(cell_child)
        if orphaned:
            os.kill(cell_child, signal.SIGKILL)
        assert not orphaned


@needs_fork
class TestDeadChildRace:
    """A reply sent just before the child exits is a result, not a crash.

    The patches force the interleaving: the first ``poll`` waits for the
    reply but reports nothing, and ``is_alive`` only answers once the
    child has exited.
    """

    @pytest.fixture
    def first_poll_misses(self, monkeypatch):
        from multiprocessing.connection import Connection
        from multiprocessing.process import BaseProcess

        poll, is_alive = Connection.poll, BaseProcess.is_alive
        missed = []

        def late_poll(self, timeout=0.0):
            if not missed:
                missed.append(poll(self, 5.0))
                return False
            return poll(self, timeout)

        def exited_is_alive(self):
            self.join(5.0)
            return is_alive(self)

        monkeypatch.setattr(Connection, "poll", late_poll)
        monkeypatch.setattr(BaseProcess, "is_alive", exited_is_alive)
        return missed

    def test_resilient_runner_keeps_the_reply(self, tmp_path, first_poll_misses):
        # The error reply is the one after which the child exits: taken,
        # it is an "error" failure; missed, it would read as a crash.
        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "marker"), "error"
            ),
            inputs=[("a", "b")],
            seeds=1,
        )
        clean = small_campaign(
            adversary_factory=lambda rng: EagerAdversary(),
            inputs=[("a", "b")],
            seeds=1,
        ).run(DeterministicRNG(4, "race"))
        result = ResilientRunner(campaign, backoff=0.01).run(
            DeterministicRNG(4, "race")
        )
        assert first_poll_misses == [True]
        assert [f.kind for f in result.run_failures] == ["error"]
        assert "injected failure" in result.run_failures[0].message
        assert result.retried_runs == 1
        assert result.outcome.metrics == clean.metrics

    def test_supervisor_keeps_the_reply(self, tmp_path, first_poll_misses):
        # The error reply is the one after which the child exits.
        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "marker"), "error"
            )
        )
        with CellSupervisor(campaign, DeterministicRNG(0)) as supervisor:
            with pytest.raises(VerificationError, match="injected failure"):
                supervisor.run((("a", "b"), 0))
        assert first_poll_misses == [True]
