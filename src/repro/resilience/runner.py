"""The self-healing campaign runner.

:class:`~repro.analysis.campaign.Campaign` is fast but brittle: one worker
that hangs or dies takes the whole ``ProcessPoolExecutor`` sweep with it,
and an interrupted sweep loses everything it had computed.
:class:`ResilientRunner` executes the same grid with the same bit-identical
determinism guarantee, but supervises every run individually:

* **per-run timeouts** -- each run executes in its own forked process; a
  run that exceeds ``run_timeout`` wall seconds is terminated;
* **retry with backoff** -- crashed (non-zero exit, SIGKILL) and timed-out
  runs are re-queued with exponential backoff, up to ``retries`` retries;
  because every run is a pure function of ``(campaign, rng, key)``, a
  retry recomputes exactly the same :class:`RunMetrics`;
* **structured failure records** -- every failed attempt becomes a
  :class:`RunFailure` in the outcome instead of a pool-wide exception;
* **checkpoint/resume** -- completed runs are flushed to a JSON
  checkpoint (schema ``repro-chaos-checkpoint/1``) after every run; a
  runner pointed at an existing checkpoint skips the completed keys, so a
  sweep killed mid-flight (worker SIGKILL, KeyboardInterrupt, power loss)
  continues where it left off and still produces results bit-identical to
  an uninterrupted serial run.

Checkpoint file format::

    {
      "schema": "repro-chaos-checkpoint/1",
      "fingerprint": "<sha256 of the grid spec and RNG identity>",
      "completed": {
        "[[\"a\", \"b\"], 0]": {"steps": 41, "completed": true, ...}
      }
    }

Keys are the JSON form of ``[input_sequence, seed]``; values are
:class:`RunMetrics` fields.  The fingerprint binds a checkpoint to one
exact grid + RNG identity; resuming with a different campaign is refused
rather than silently mixed.

:class:`CellSupervisor` applies the same watchdog to callers that run
one cell at a time (fabric workers, service campaign requests): one
long-lived supervised child serves cell after cell and is respawned
after a failed cell.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.campaign import Campaign, CampaignOutcome
from repro.analysis.metrics import RunMetrics, summarize
from repro.kernel.errors import VerificationError
from repro.kernel.rng import DeterministicRNG

CHECKPOINT_SCHEMA = "repro-chaos-checkpoint/1"

RunKey = Tuple[Tuple, int]


@dataclass(frozen=True)
class RunFailure:
    """One failed attempt at one grid run.

    Attributes:
        input_sequence / seed: the run's grid key.
        attempt: 1-based attempt number that failed.
        kind: "timeout", "crash" (process died without reporting),
            "error" (the run raised; message carries the repr), or
            "non_stabilizing" (a corrupted-start run exhausted its step
            budget without ever converging -- emitted only by runners
            constructed with ``stabilization=True``, so a stuck
            corrupted start is reported as what it is instead of a
            generic step-budget exhaustion).
        message: human-readable failure detail.
        elapsed_seconds: wall time the attempt consumed before failing
            (0.0 for "non_stabilizing", which is a verdict on a
            completed attempt, not a supervision event).
    """

    input_sequence: Tuple
    seed: int
    attempt: int
    kind: str
    message: str
    elapsed_seconds: float


@dataclass(frozen=True)
class ResilientOutcome:
    """Everything a supervised sweep produced.

    Attributes:
        outcome: the ordinary campaign outcome over all completed runs --
            bit-identical to ``Campaign.run`` when nothing was abandoned.
        run_failures: structured records of every failed attempt (empty
            for a healthy sweep; non-empty does not imply missing data,
            since retries usually recover).
        retried_runs: grid runs that needed more than one attempt.
        resumed_runs: grid runs loaded from the checkpoint instead of
            executed.
        abandoned: grid keys that exhausted their retries; their metrics
            are missing from ``outcome``.
    """

    outcome: CampaignOutcome
    run_failures: Tuple[RunFailure, ...]
    retried_runs: int
    resumed_runs: int
    abandoned: Tuple[RunKey, ...]


def _key_to_json(key: RunKey) -> str:
    input_sequence, seed = key
    return json.dumps([list(input_sequence), seed])


def _key_from_json(text: str) -> RunKey:
    items, seed = json.loads(text)
    return (tuple(items), seed)


def _cell_reply(campaign: Campaign, rng: DeterministicRNG, key: RunKey):
    """Run one grid key and build its pipe reply.

    The success payload carries the run's observability delta beside its
    metrics, so spans and registry increments recorded inside the child
    (simulator steps, recovery measurements) survive the process
    boundary -- the supervisor merges them on receipt.
    """
    try:
        cut = obs.mark()
        metrics = campaign._single_run(rng, key[0], key[1])
        return ("ok", (metrics, obs.delta_since(cut)))
    except BaseException as error:  # reported, not raised: child exits clean
        return ("error", f"{type(error).__name__}: {error}")


def _child_main(conn, campaign: Campaign, rng: DeterministicRNG, key: RunKey):
    """Run one grid key in a forked child; report through the pipe."""
    try:
        conn.send(_cell_reply(campaign, rng, key))
    finally:
        conn.close()


def _cell_child_main(conn, owner_end, campaign, rng) -> None:
    """Serve grid keys from a :class:`CellSupervisor` until told to stop.

    ``owner_end`` is this process's inherited copy of the supervisor's
    end of the pipe.  Closing it first means that once the supervisor's
    process dies (even by SIGKILL) ``recv`` sees EOF and the child
    exits instead of lingering.
    """
    owner_end.close()
    try:
        while True:
            try:
                key = conn.recv()
            except EOFError:
                return
            if key is None:  # the supervisor's stop message
                return
            reply = _cell_reply(campaign, rng, key)
            conn.send(reply)
            if reply[0] != "ok":
                return  # a failed cell retires its child
    finally:
        conn.close()


class CellSupervisor:
    """Grid runs, one at a time, in one long-lived supervised child.

    The child is forked lazily on the first :meth:`run` and then serves
    cell after cell, exactly as a serial ``Campaign.run`` executes them
    one after another in one interpreter; since ``_single_run`` is a pure
    function of ``(rng, key)`` the metrics are bit-identical to an inline
    run.  The parent enforces the same watchdog a per-run fork would: a
    ``run_timeout`` wall budget, death detection, and a ``heartbeat``
    callback roughly every 100ms.

    Any failed cell -- timeout, death, or an error raised inside the
    run -- retires the child, so the next cell gets a fresh fork and a
    failure never shares a process with a later cell.  :meth:`close`
    (or leaving the ``with`` block) stops the child.

    Falls back to plain in-process runs where ``fork`` is unavailable
    (no timeout enforcement, same bit-identical metrics).
    """

    def __init__(
        self,
        campaign: Campaign,
        rng: DeterministicRNG,
        run_timeout: float = 60.0,
    ) -> None:
        if run_timeout <= 0:
            raise VerificationError("run_timeout must be positive")
        self.campaign = campaign
        self.rng = rng
        self.run_timeout = run_timeout
        self._process = None
        self._conn = None

    def __enter__(self) -> "CellSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn(self) -> None:
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_cell_child_main,
            args=(child_conn, parent_conn, self.campaign, self.rng),
            daemon=True,
        )
        process.start()
        child_conn.close()
        obs.add("resilience.cell_children")
        self._process, self._conn = process, parent_conn

    def _retire(self) -> Optional[int]:
        """Kill the child (if still alive) and return its exit code."""
        process, conn = self._process, self._conn
        self._process = self._conn = None
        conn.close()
        if process.is_alive():
            process.terminate()
        process.join()
        return process.exitcode

    def _died(self, key: RunKey) -> VerificationError:
        return VerificationError(
            f"run {key!r} worker died with exit code {self._retire()}"
        )

    def run(self, key: RunKey, heartbeat=None) -> RunMetrics:
        """``campaign._single_run(rng, *key)`` under supervision.

        Raises :class:`VerificationError` on timeout, crash, or an error
        raised inside the run; the caller owns the retry policy.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            return self.campaign._single_run(self.rng, key[0], key[1])
        if self._process is None:
            self._spawn()
        conn = self._conn
        started = time.monotonic()
        try:
            try:
                conn.send(key)
            except OSError:  # the idle child is gone
                raise self._died(key) from None
            while not conn.poll(0.1):
                if heartbeat is not None:
                    heartbeat()
                if time.monotonic() - started > self.run_timeout:
                    self._retire()
                    raise VerificationError(
                        f"run {key!r} exceeded {self.run_timeout}s"
                    )
                # A child that replied and then exited between the poll
                # and this check finished its run: take the reply.
                if not self._process.is_alive() and not conn.poll(0):
                    raise self._died(key)
            try:
                status, payload = conn.recv()
            except EOFError:
                # Pipe closed without a report: the child died mid-run.
                raise self._died(key) from None
        except BaseException:
            # Also a raising heartbeat or an interrupt: the child is
            # mid-run, so it cannot serve the next cell.
            if self._process is not None:
                self._retire()
            raise
        if status != "ok":
            self._retire()
            raise VerificationError(f"run {key!r} failed: {payload}")
        metrics, delta = payload
        obs.merge(delta)
        return metrics

    def close(self) -> None:
        """Stop the child, if one is running."""
        if self._process is None:
            return
        try:
            self._conn.send(None)
        except OSError:
            pass  # already dead; _retire reaps it
        self._process.join(timeout=5.0)
        self._retire()


def supervised_single_run(
    campaign: Campaign,
    rng: DeterministicRNG,
    key: RunKey,
    run_timeout: float = 60.0,
    heartbeat=None,
) -> RunMetrics:
    """One grid run under the resilient runner's supervision discipline.

    A one-cell :class:`CellSupervisor`: forks one child, runs
    ``campaign._single_run(rng, *key)`` in it under a ``run_timeout``
    wall budget, merges the child's obs delta, and stops the child.
    ``heartbeat`` (when given) is called roughly every 100ms while the
    child runs, so the caller can keep a queue lease fresh without
    threading.  Fabric workers and the service's campaign requests hold
    a :class:`CellSupervisor` instead: one long-lived supervised child
    per worker, respawned after a failed cell.

    Raises :class:`VerificationError` on timeout, crash, or an error
    raised inside the run; the caller owns the retry policy.

    Falls back to a plain in-process run where ``fork`` is unavailable
    (no timeout enforcement, same bit-identical metrics).
    """
    with CellSupervisor(campaign, rng, run_timeout) as supervisor:
        return supervisor.run(key, heartbeat)


@dataclass
class _Attempt:
    """Bookkeeping for one in-flight child process."""

    key: RunKey
    attempt: int
    process: object
    conn: object
    started: float


class ResilientRunner:
    """Supervised execution of a :class:`Campaign` grid.

    Args:
        campaign: the declarative sweep to execute.
        run_timeout: wall-second budget per run attempt (enforced only on
            platforms with the ``fork`` start method, where runs execute
            in child processes).
        retries: maximum retries per run after its first failure.
        backoff: base of the exponential retry delay, in seconds; attempt
            ``n`` waits ``backoff * 2**(n-1)`` before re-dispatch.
        checkpoint_path: JSON checkpoint location; None disables
            checkpointing.
        workers: concurrent child processes (defaults to the campaign's
            ``workers`` attribute).
        stabilization: mark the campaign as a corrupted-start workload
            (protocols wrapped with
            :class:`~repro.resilience.stabilize.CorruptedStartSender` /
            ``CorruptedStartReceiver``).  Runs that burn their whole
            step budget without completing are then classified as
            ``non_stabilizing`` :class:`RunFailure` records -- the
            run-level face of the exhaustive verdict
            :func:`~repro.resilience.stabilize.analyze_stabilization`
            computes.
    """

    def __init__(
        self,
        campaign: Campaign,
        run_timeout: float = 60.0,
        retries: int = 2,
        backoff: float = 0.25,
        checkpoint_path=None,
        workers: Optional[int] = None,
        stabilization: bool = False,
    ) -> None:
        if run_timeout <= 0:
            raise VerificationError("run_timeout must be positive")
        if retries < 0:
            raise VerificationError("retries must be non-negative")
        if backoff < 0:
            raise VerificationError("backoff must be non-negative")
        self.campaign = campaign
        self.run_timeout = run_timeout
        self.retries = retries
        self.backoff = backoff
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.workers = max(workers if workers is not None else campaign.workers, 1)
        self.stabilization = stabilization

    # -- checkpointing -------------------------------------------------

    def _fingerprint(self, rng: DeterministicRNG, keys: List[RunKey]) -> str:
        spec = repr(
            (
                [list(k[0]) for k in keys],
                [k[1] for k in keys],
                self.campaign.max_steps,
                type(self.campaign.sender).__name__,
                type(self.campaign.receiver).__name__,
                rng.seed,
                rng.path,
            )
        )
        return hashlib.sha256(spec.encode()).hexdigest()

    def _load_checkpoint(self, fingerprint: str) -> Dict[RunKey, RunMetrics]:
        if self.checkpoint_path is None or not self.checkpoint_path.exists():
            return {}
        data = json.loads(self.checkpoint_path.read_text())
        if data.get("schema") != CHECKPOINT_SCHEMA:
            raise VerificationError(
                f"checkpoint {self.checkpoint_path} has unsupported schema "
                f"{data.get('schema')!r}"
            )
        if data.get("fingerprint") != fingerprint:
            raise VerificationError(
                f"checkpoint {self.checkpoint_path} belongs to a different "
                "campaign grid or RNG; refusing to resume from it"
            )
        return {
            _key_from_json(key_text): RunMetrics(**fields)
            for key_text, fields in data.get("completed", {}).items()
        }

    def _flush_checkpoint(
        self, fingerprint: str, completed: Dict[RunKey, RunMetrics]
    ) -> None:
        if self.checkpoint_path is None:
            return
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": fingerprint,
            "completed": {
                _key_to_json(key): asdict(metrics)
                for key, metrics in completed.items()
            },
        }
        self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.checkpoint_path.with_suffix(
            self.checkpoint_path.suffix + ".tmp"
        )
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, self.checkpoint_path)

    # -- execution -----------------------------------------------------

    def run(self, rng: DeterministicRNG) -> ResilientOutcome:
        """Execute the sweep, healing failures, and aggregate."""
        with obs.span(
            "resilient.run",
            workers=self.workers,
            retries=self.retries,
            checkpointed=self.checkpoint_path is not None,
        ):
            return self._run(rng)

    def _run(self, rng: DeterministicRNG) -> ResilientOutcome:
        if self.campaign.seeds < 1:
            raise VerificationError("seeds must be >= 1")
        if not self.campaign.inputs:
            raise VerificationError("campaign needs at least one input")
        keys: List[RunKey] = [
            (tuple(input_sequence), seed)
            for input_sequence in self.campaign.inputs
            for seed in range(self.campaign.seeds)
        ]
        fingerprint = self._fingerprint(rng, keys)
        completed = self._load_checkpoint(fingerprint)
        grid = set(keys)
        completed = {k: v for k, v in completed.items() if k in grid}
        resumed = len(completed)
        if resumed:
            obs.add("resilience.resumed_runs", resumed)

        failures: List[RunFailure] = []
        abandoned: List[RunKey] = []
        retried: set = set()

        pending: List[Tuple[RunKey, int, float]] = [
            (key, 1, 0.0) for key in keys if key not in completed
        ]
        try:
            if pending:
                if "fork" in multiprocessing.get_all_start_methods():
                    self._run_supervised(
                        rng,
                        fingerprint,
                        pending,
                        completed,
                        failures,
                        abandoned,
                        retried,
                    )
                else:  # no fork: in-process, no timeout enforcement
                    self._run_inline(
                        rng,
                        fingerprint,
                        pending,
                        completed,
                        failures,
                        abandoned,
                        retried,
                    )
        finally:
            self._flush_checkpoint(fingerprint, completed)

        metrics = [completed[key] for key in keys if key in completed]
        if not metrics:
            raise VerificationError(
                f"every run failed permanently; first failure: "
                f"{failures[0] if failures else None}"
            )
        ordered_keys = [key for key in keys if key in completed]
        grid_failures = [
            key
            for key in ordered_keys
            if not (completed[key].safe and completed[key].completed)
        ]
        if self.stabilization:
            # Corrupted-start workload: a run that drained its whole step
            # budget without completing did not merely "run long" -- it
            # never re-entered legitimate behaviour.  Name it.
            for key in ordered_keys:
                run = completed[key]
                if run.step_budget_exhausted and not run.completed:
                    failures.append(
                        RunFailure(
                            input_sequence=key[0],
                            seed=key[1],
                            attempt=1,
                            kind="non_stabilizing",
                            message=(
                                "corrupted start never converged: "
                                f"{run.steps} steps exhausted the budget "
                                "without completion"
                            ),
                            elapsed_seconds=0.0,
                        )
                    )
                    obs.add("resilience.failures.non_stabilizing")
        outcome = CampaignOutcome(
            summary=summarize(metrics),
            metrics=tuple(metrics),
            failures=tuple(grid_failures),
        )
        return ResilientOutcome(
            outcome=outcome,
            run_failures=tuple(failures),
            retried_runs=len(retried),
            resumed_runs=resumed,
            abandoned=tuple(abandoned),
        )

    def _requeue(
        self,
        key: RunKey,
        attempt: int,
        kind: str,
        message: str,
        elapsed: float,
        pending: List[Tuple[RunKey, int, float]],
        failures: List[RunFailure],
        abandoned: List[RunKey],
        retried: set,
    ) -> None:
        failures.append(
            RunFailure(
                input_sequence=key[0],
                seed=key[1],
                attempt=attempt,
                kind=kind,
                message=message,
                elapsed_seconds=elapsed,
            )
        )
        obs.add(f"resilience.failures.{kind}")
        if attempt > self.retries:
            abandoned.append(key)
            obs.add("resilience.abandoned")
            return
        retried.add(key)
        obs.add("resilience.retries")
        delay = self.backoff * (2 ** (attempt - 1))
        pending.append((key, attempt + 1, time.monotonic() + delay))

    def _run_supervised(
        self, rng, fingerprint, pending, completed, failures, abandoned, retried
    ) -> None:
        context = multiprocessing.get_context("fork")
        active: List[_Attempt] = []
        try:
            while pending or active:
                now = time.monotonic()
                # Dispatch eligible work into free slots.
                for index in range(len(pending) - 1, -1, -1):
                    if len(active) >= self.workers:
                        break
                    key, attempt, not_before = pending[index]
                    if not_before > now:
                        continue
                    pending.pop(index)
                    parent_conn, child_conn = context.Pipe(duplex=False)
                    process = context.Process(
                        target=_child_main,
                        args=(child_conn, self.campaign, rng, key),
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    active.append(
                        _Attempt(key, attempt, process, parent_conn, now)
                    )
                if obs.enabled():
                    obs.gauge_set("resilience.active_children", len(active))
                # Reap finished, crashed, and overdue attempts.
                still_active: List[_Attempt] = []
                for item in active:
                    elapsed = time.monotonic() - item.started
                    ready = item.conn.poll()
                    alive = ready or item.process.is_alive()
                    if not alive:
                        # A child that replied and then exited between
                        # the poll and the liveness check finished its
                        # run: poll once more before declaring it dead.
                        ready = item.conn.poll()
                    if ready:
                        try:
                            status, payload = item.conn.recv()
                        except EOFError:
                            # Pipe closed without a report: the child died
                            # (os._exit, SIGKILL) mid-run.
                            item.process.join()
                            item.conn.close()
                            self._requeue(
                                item.key, item.attempt, "crash",
                                "worker died with exit code "
                                f"{item.process.exitcode}", elapsed,
                                pending, failures, abandoned, retried,
                            )
                            continue
                        item.process.join()
                        item.conn.close()
                        if status == "ok":
                            metrics, delta = payload
                            obs.merge(delta)
                            completed[item.key] = metrics
                            self._flush_checkpoint(fingerprint, completed)
                        else:
                            self._requeue(
                                item.key, item.attempt, "error", payload,
                                elapsed, pending, failures, abandoned, retried,
                            )
                    elif elapsed > self.run_timeout:
                        item.process.terminate()
                        item.process.join()
                        item.conn.close()
                        self._requeue(
                            item.key, item.attempt, "timeout",
                            f"run exceeded {self.run_timeout}s", elapsed,
                            pending, failures, abandoned, retried,
                        )
                    elif not alive:
                        exit_code = item.process.exitcode
                        item.conn.close()
                        self._requeue(
                            item.key, item.attempt, "crash",
                            f"worker died with exit code {exit_code}", elapsed,
                            pending, failures, abandoned, retried,
                        )
                    else:
                        still_active.append(item)
                active = still_active
                if active or pending:
                    time.sleep(0.005)
        except BaseException:
            for item in active:
                if item.process.is_alive():
                    item.process.terminate()
                item.process.join()
            raise

    def _run_inline(
        self, rng, fingerprint, pending, completed, failures, abandoned, retried
    ) -> None:
        """Fallback without ``fork``: serial, crashes caught, no timeouts."""
        while pending:
            key, attempt, _ = pending.pop(0)
            start = time.monotonic()
            try:
                completed[key] = self.campaign._single_run(rng, key[0], key[1])
                self._flush_checkpoint(fingerprint, completed)
            except Exception as error:
                self._requeue(
                    key, attempt, "error", f"{type(error).__name__}: {error}",
                    time.monotonic() - start,
                    pending, failures, abandoned, retried,
                )
