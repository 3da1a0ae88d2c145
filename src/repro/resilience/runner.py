"""The self-healing campaign runner.

:class:`ResilientRunner` executes a :class:`~repro.analysis.campaign.Campaign`
grid with the same bit-identical determinism guarantee as
``Campaign.run``, but supervises every run individually:

* **per-run timeouts** -- runs execute in long-lived forked children,
  one per worker (:class:`CellSupervisor`); a run that exceeds
  ``run_timeout`` wall seconds has its child terminated;
* **retry with backoff** -- crashed (non-zero exit, SIGKILL), timed-out
  and raising runs are re-queued with exponential backoff, up to
  ``retries`` retries; because every run is a pure function of
  ``(campaign, rng, key)``, a retry recomputes exactly the same
  :class:`RunMetrics`;
* **structured failure records** -- every failed attempt becomes a
  :class:`RunFailure` in the outcome instead of a sweep-wide exception;
* **checkpoint/resume** -- completed runs are flushed to a JSON
  checkpoint (schema ``repro-chaos-checkpoint/1``) after every run; a
  runner pointed at an existing checkpoint skips the completed keys, so a
  sweep killed mid-flight (worker SIGKILL, KeyboardInterrupt, power loss)
  continues where it left off and still produces results bit-identical to
  an uninterrupted serial run.

Checkpoint file format::

    {
      "schema": "repro-chaos-checkpoint/1",
      "fingerprint": "<sha256 of every grid cell's content address>",
      "completed": {
        "[[\"a\", \"b\"], 0]": {"steps": 41, "completed": true, ...}
      }
    }

Keys are the JSON form of ``[input_sequence, seed]``; values are
:class:`RunMetrics` fields.  The fingerprint hashes the ordered
``Campaign.run_key`` of every grid cell -- the content addresses the
result store uses, covering protocols, channel and adversary factories,
step budget and RNG identity -- so resuming with a different campaign is
refused rather than silently mixed.

:class:`CellSupervisor` is the one place grid cells are forked.  Fabric
workers and service campaign requests drive one directly, cell by cell;
:func:`supervise_cells` drives several at once for ``ResilientRunner``
and for ``Campaign(workers=N)``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


class CellFailure(VerificationError):
    """A supervised cell that timed out, died, or raised.

    ``kind`` is ``"timeout"``, ``"crash"`` or ``"error"`` -- the
    :class:`RunFailure` kind the runner records for the attempt.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


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

    The child is forked lazily on the first :meth:`submit` and then
    serves cell after cell, exactly as a serial ``Campaign.run`` executes
    them one after another in one interpreter; since ``_single_run`` is a
    pure function of ``(rng, key)`` the metrics are bit-identical to an
    inline run.  The parent enforces the same watchdog a per-run fork
    would: a ``run_timeout`` wall budget and death detection.

    :meth:`submit` hands the child a key and :meth:`poll` collects the
    result without blocking, so one caller can drive several supervisors
    (:func:`supervise_cells`); :meth:`run` is the blocking one-cell form.

    Any failed cell -- timeout, death, or an error raised inside the
    run -- retires the child, so the next cell gets a fresh fork and a
    failure never shares a process with a later cell.  :meth:`close`
    (or leaving the ``with`` block) stops the child.

    Falls back to plain in-process runs where ``fork`` is unavailable
    (no timeout enforcement, same bit-identical metrics, same
    ``"error"`` failure for a raising run).
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
        # (key, start time) of the submitted cell until poll() settles it.
        self._cell: Optional[Tuple[RunKey, float]] = None

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

    def _abandon(self) -> None:
        """Drop the submitted cell; a child stopped mid-run is retired."""
        self._cell = None
        if self._process is not None:
            self._retire()

    def _died(self, key: RunKey) -> CellFailure:
        return CellFailure(
            "crash", f"run {key!r} worker died with exit code {self._retire()}"
        )

    def submit(self, key: RunKey) -> None:
        """Start ``campaign._single_run(rng, *key)``; :meth:`poll` collects it."""
        self._cell = (key, time.monotonic())
        if "fork" not in multiprocessing.get_all_start_methods():
            return  # poll() runs the cell in-process
        if self._process is None:
            self._spawn()
        try:
            self._conn.send(key)
        except OSError:
            pass  # the idle child is gone: poll() reports the crash

    def poll(self) -> Optional[RunMetrics]:
        """The submitted cell's metrics, or None while it still runs.

        Raises :class:`CellFailure` on timeout, crash, or an error raised
        inside the run; the caller owns the retry policy.
        """
        if self._cell is None:
            raise VerificationError("poll() needs a submitted cell")
        key, started = self._cell
        if self._conn is None:
            self._cell = None
            try:
                return self.campaign._single_run(self.rng, key[0], key[1])
            except Exception as error:
                raise CellFailure(
                    "error", f"run {key!r} failed: {type(error).__name__}: {error}"
                ) from error
        try:
            reply = self._reply(key, started)
        except BaseException:
            self._abandon()
            raise
        if reply is None:
            return None
        self._cell = None
        status, payload = reply
        if status != "ok":
            self._retire()
            raise CellFailure("error", f"run {key!r} failed: {payload}")
        metrics, delta = payload
        obs.merge(delta)
        return metrics

    def _reply(self, key: RunKey, started: float):
        """The child's reply, or None while it runs; raises on timeout or death."""
        conn = self._conn
        if not conn.poll(0):
            if time.monotonic() - started > self.run_timeout:
                raise CellFailure(
                    "timeout", f"run {key!r} exceeded {self.run_timeout}s"
                )
            if self._process.is_alive():
                return None
            # A child that replied and then exited between the poll and
            # the liveness check finished its run: take the reply.
            if not conn.poll(0):
                raise self._died(key)
        try:
            return conn.recv()
        except (EOFError, OSError):
            # Pipe closed without a report: the child died mid-run.
            raise self._died(key) from None

    def run(self, key: RunKey, heartbeat=None) -> RunMetrics:
        """``campaign._single_run(rng, *key)`` under supervision.

        ``heartbeat`` (when given) is called roughly every 100ms while
        the child runs.  Raises :class:`CellFailure` (a
        :class:`VerificationError`) on timeout, crash, or an error raised
        inside the run; the caller owns the retry policy.
        """
        self.submit(key)
        try:
            while True:
                metrics = self.poll()
                if metrics is not None:
                    return metrics
                if not wait([self._conn], 0.1) and heartbeat is not None:
                    heartbeat()
        except BaseException:
            # Also a raising heartbeat or an interrupt: the child is
            # mid-run, so it cannot serve the next cell.
            self._abandon()
            raise

    def close(self) -> None:
        """Stop the child, if one is running."""
        if self._cell is not None:
            self._abandon()  # mid-run: it cannot take the stop message
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


def supervise_cells(
    campaign: Campaign,
    rng: DeterministicRNG,
    keys: Sequence[RunKey],
    workers: int,
    on_done: Callable[[RunKey, RunMetrics], None],
    on_failure: Callable[[RunKey, int, CellFailure, float], Optional[float]],
    run_timeout: float = math.inf,
) -> None:
    """Run ``keys`` over ``workers`` :class:`CellSupervisor` children.

    Each completed cell goes to ``on_done(key, metrics)`` as it arrives
    (completion order, not grid order).  Each failed attempt goes to
    ``on_failure(key, attempt, failure, elapsed_seconds)``, which returns
    the delay in seconds before the key is retried, or None to give it
    up; it may also raise to stop the sweep.  The loop blocks on the busy
    children's pipes, waking early only for a ``run_timeout`` deadline
    or a retry coming due.  Every child is stopped on return.
    """
    pending: List[Tuple[RunKey, int, float]] = [(key, 1, 0.0) for key in keys]
    idle = [CellSupervisor(campaign, rng, run_timeout) for _ in range(workers)]
    busy: Dict[CellSupervisor, Tuple[RunKey, int, float]] = {}
    try:
        while pending or busy:
            now = time.monotonic()
            due = itertools.islice(
                (entry for entry in pending if entry[2] <= now), len(idle)
            )
            for entry in list(due):
                pending.remove(entry)
                key, attempt, _ = entry
                supervisor = idle.pop()
                supervisor.submit(key)
                busy[supervisor] = (key, attempt, time.monotonic())
            if obs.enabled():
                obs.gauge_set("resilience.active_children", len(busy))
            wake_at = min(
                itertools.chain(
                    (started + run_timeout for _, _, started in busy.values()),
                    (entry[2] for entry in pending if idle),
                ),
                default=math.inf,
            )
            timeout = max(0.0, wake_at - time.monotonic())
            conns = [supervisor._conn for supervisor in busy]
            if not conns:
                time.sleep(timeout)  # only backoff is left
            elif None not in conns:  # in-process cells settle in poll()
                wait(conns, None if timeout == math.inf else timeout)
            for supervisor, (key, attempt, started) in list(busy.items()):
                try:
                    metrics = supervisor.poll()
                except CellFailure as failure:
                    delay = on_failure(
                        key, attempt, failure, time.monotonic() - started
                    )
                    if delay is not None:
                        pending.append(
                            (key, attempt + 1, time.monotonic() + delay)
                        )
                else:
                    if metrics is None:
                        continue
                    on_done(key, metrics)
                del busy[supervisor]
                idle.append(supervisor)
    finally:
        for supervisor in [*idle, *busy]:
            supervisor.close()


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
        workers: concurrent supervised children (defaults to the
            campaign's ``workers`` attribute); must be >= 1.
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
        workers = workers if workers is not None else campaign.workers
        if workers < 1:
            raise VerificationError("workers must be >= 1")
        self.campaign = campaign
        self.run_timeout = run_timeout
        self.retries = retries
        self.backoff = backoff
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.workers = workers
        self.stabilization = stabilization

    # -- checkpointing -------------------------------------------------

    def _fingerprint(self, rng: DeterministicRNG, keys: List[RunKey]) -> str:
        addresses = [self.campaign.run_key(rng, key) for key in keys]
        return hashlib.sha256(json.dumps(addresses).encode()).hexdigest()

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
                "campaign; refusing to resume from it"
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
        keys = self.campaign.grid_keys()
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

        def done(key: RunKey, metrics: RunMetrics) -> None:
            completed[key] = metrics
            self._flush_checkpoint(fingerprint, completed)

        def failed(
            key: RunKey, attempt: int, failure: CellFailure, elapsed: float
        ) -> Optional[float]:
            failures.append(
                RunFailure(
                    input_sequence=key[0],
                    seed=key[1],
                    attempt=attempt,
                    kind=failure.kind,
                    message=str(failure),
                    elapsed_seconds=elapsed,
                )
            )
            obs.add(f"resilience.failures.{failure.kind}")
            if attempt > self.retries:
                abandoned.append(key)
                obs.add("resilience.abandoned")
                return None
            retried.add(key)
            obs.add("resilience.retries")
            return self.backoff * (2 ** (attempt - 1))

        try:
            supervise_cells(
                self.campaign,
                rng,
                [key for key in keys if key not in completed],
                self.workers,
                done,
                failed,
                self.run_timeout,
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
