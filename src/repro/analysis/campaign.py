"""Campaign runner: the sweep-and-summarize API the experiments use.

A *campaign* runs one protocol pair over a family of inputs under a grid
of adversaries and seeds, collects per-run metrics, and aggregates them.
The experiment modules originally inlined this loop; exposing it as an
API makes the same sweeps one-liners for downstream users:

    campaign = Campaign(
        sender, receiver,
        channel_factory=DuplicatingChannel,
        inputs=repetition_free_family("abc"),
        adversary_factory=lambda rng: AgingFairAdversary(
            RandomAdversary(rng), patience=64),
        seeds=5,
    )
    outcome = campaign.run(DeterministicRNG(0))
    assert outcome.all_safe and outcome.all_completed

Campaigns parallelize: ``Campaign(..., workers=4)`` runs the cache-miss
cells of the inputs x seeds grid in four long-lived supervised children
(:func:`repro.resilience.runner.supervise_cells`, the loop
:class:`~repro.resilience.runner.ResilientRunner` drives too).
Parallel outcomes are **bit-identical** to serial ones because every run's
randomness derives solely from the campaign RNG and the run's own
``(input, seed)`` key (never from execution order), and results are
reassembled in grid order before aggregation.  Children are forked, so
arbitrary protocol objects, channel factories, and adversary-factory
closures need never be pickled -- they inherit the campaign by memory
snapshot; platforms without ``fork`` fall back to the serial path (same
results, no speedup).  A cell that raises in a child fails the sweep
with a :class:`~repro.kernel.errors.VerificationError` naming the cell
and the original error.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.cache import ResultCache, fingerprint
from repro.analysis.metrics import CampaignSummary, RunMetrics, measure_run, summarize
from repro.kernel.errors import VerificationError
from repro.kernel.interfaces import ChannelModel, ReceiverProtocol, SenderProtocol
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import Simulator, simulate_compiled
from repro.kernel.system import System

# Minimum grid cells per worker before forking pays for itself: below
# this, child start-up and dispatch overhead outweigh the win and the
# campaign silently runs serially (same results either way).
_MIN_CHUNK = 4


@dataclass(frozen=True)
class CampaignOutcome:
    """Everything a campaign produced.

    Attributes:
        summary: aggregate statistics over all runs.
        metrics: the individual per-run measurements, in run order
            (input-major, then seed) -- the same order regardless of
            ``workers``.
        failures: (input, seed) pairs of runs that were unsafe or
            incomplete -- empty for a fully successful campaign.
    """

    summary: CampaignSummary
    metrics: Tuple[RunMetrics, ...]
    failures: Tuple[Tuple[Tuple, int], ...]

    @property
    def all_safe(self) -> bool:
        """True iff Safety held in every run."""
        return self.summary.safe == self.summary.runs

    @property
    def all_completed(self) -> bool:
        """True iff every run wrote its whole input."""
        return self.summary.completed == self.summary.runs


def _raise_failure(key, attempt, failure, elapsed):
    """Stop a parallel sweep at its first failed cell, as a serial one stops."""
    raise failure


@dataclass
class Campaign:
    """A declarative sweep specification.

    Attributes:
        sender / receiver: the protocol automata (shared across runs --
            they are stateless).
        channel_factory: builds a fresh channel model per direction per
            run.
        inputs: the input sequences to sweep.
        adversary_factory: builds a fresh adversary from a forked RNG.
        seeds: number of repetitions per input.
        max_steps: per-run step budget.
        workers: process count for the sweep; 1 (the default) runs
            serially in-process.  Any value produces identical outcomes.
        compiled: route runs through the compiled transition-table kernel
            (:func:`repro.kernel.simulator.simulate_compiled`), sharing
            one table per input across the seed grid so repeated
            (configuration, event) transitions are integer lookups.
            Bit-identical results.
        cache: a :class:`repro.analysis.cache.ResultCache` memoizing
            per-cell :class:`RunMetrics` by content fingerprint (protocol
            pair, channel factory, adversary factory, budget, RNG
            identity, input, seed).  Hits skip the run entirely; the
            cache's hit/miss counters feed the perf report.
    """

    sender: SenderProtocol
    receiver: ReceiverProtocol
    channel_factory: Callable[[], ChannelModel]
    inputs: Sequence[Tuple]
    adversary_factory: Callable[[DeterministicRNG], object]
    seeds: int = 1
    max_steps: int = 50_000
    workers: int = 1
    compiled: bool = False
    cache: Optional[ResultCache] = None

    def run(self, rng: DeterministicRNG) -> CampaignOutcome:
        """Execute the sweep and aggregate."""
        with obs.span(
            "campaign.run",
            inputs=len(self.inputs),
            seeds=self.seeds,
            workers=self.workers,
            compiled=self.compiled,
        ):
            return self._run(rng)

    def _run(self, rng: DeterministicRNG) -> CampaignOutcome:
        if self.seeds < 1:
            raise VerificationError("seeds must be >= 1")
        if not self.inputs:
            raise VerificationError("campaign needs at least one input")
        if self.workers < 1:
            raise VerificationError("workers must be >= 1")
        keys = self.grid_keys()
        # Cache lookups happen in the parent so the hit/miss counters are
        # accurate regardless of workers; only misses are dispatched.
        slots: List[Optional[RunMetrics]] = [None] * len(keys)
        if self.cache is not None:
            pending = []
            for index, key in enumerate(keys):
                stored = self.cache.get("run", self.run_key(rng, key))
                if stored is not None:
                    slots[index] = stored
                else:
                    pending.append((index, key))
        else:
            pending = list(enumerate(keys))
        if pending:
            pending_keys = [key for _, key in pending]
            workers = self._effective_workers(len(pending_keys))
            if workers > 1:
                from repro.resilience.runner import supervise_cells

                done: Dict[Tuple[Tuple, int], RunMetrics] = {}
                supervise_cells(
                    self, rng, pending_keys, workers, done.__setitem__,
                    _raise_failure,
                )
                computed = [done[key] for key in pending_keys]
            else:
                computed = [
                    self._single_run(rng, input_sequence, seed)
                    for input_sequence, seed in pending_keys
                ]
            for (index, key), measured in zip(pending, computed):
                slots[index] = measured
                if self.cache is not None:
                    self.cache.put("run", self.run_key(rng, key), measured)
        metrics = slots
        failures = [
            key
            for key, measured in zip(keys, metrics)
            if not (measured.safe and measured.completed)
        ]
        return CampaignOutcome(
            summary=summarize(metrics),
            metrics=tuple(metrics),
            failures=tuple(failures),
        )

    def grid_keys(self) -> List[Tuple[Tuple, int]]:
        """The sweep's grid, in run order (input-major, then seed).

        This is the canonical cell enumeration: :meth:`run` executes in
        this order, and the fabric planner and merge step reassemble
        results in this order to stay bit-identical with it.
        """
        return [
            (tuple(input_sequence), seed)
            for input_sequence in self.inputs
            for seed in range(self.seeds)
        ]

    def run_key(self, rng: DeterministicRNG, key: Tuple[Tuple, int]) -> str:
        """Content address of one grid cell's :class:`RunMetrics`.

        Covers everything the cell's result depends on (protocol pair,
        factories, budget, RNG identity, input, seed), so any process --
        or host -- that builds an equal campaign computes the same key.
        The result cache and the fabric planner share these addresses:
        a cell computed by either warms the other.
        """
        input_sequence, seed = key
        return fingerprint(
            "campaign-run",
            self.sender,
            self.receiver,
            self.channel_factory,
            self.adversary_factory,
            self.max_steps,
            rng,
            input_sequence,
            seed,
        )

    def run_resilient(self, rng: DeterministicRNG, **runner_options):
        """Execute the sweep under the self-healing supervised runner.

        Same grid, same bit-identical metrics as :meth:`run`, but every
        run gets its own timeout, crashes and hangs are retried with
        backoff, failures become structured records, and (with
        ``checkpoint_path=...``) an interrupted sweep resumes where it
        left off.  Options are forwarded to
        :class:`repro.resilience.runner.ResilientRunner`; returns a
        :class:`repro.resilience.runner.ResilientOutcome`.
        """
        from repro.resilience.runner import ResilientRunner

        return ResilientRunner(self, **runner_options).run(rng)

    def _single_run(
        self, rng: DeterministicRNG, input_sequence: Tuple, seed: int
    ) -> RunMetrics:
        """One run of the grid; the unit of parallel sharding.

        The adversary stream is forked from the campaign RNG by the run's
        own key alone, so this function is a pure function of
        ``(rng.seed, rng.path, input_sequence, seed)`` -- the property
        that makes parallel and serial execution bit-identical.
        """
        adversary = self.adversary_factory(
            rng.fork(f"{input_sequence!r}/{seed}")
        )
        system = System(
            self.sender,
            self.receiver,
            self.channel_factory(),
            self.channel_factory(),
            input_sequence,
        )
        if self.compiled:
            result = simulate_compiled(
                system,
                adversary,
                max_steps=self.max_steps,
                compiled=self._table_for(system),
            )
        else:
            result = Simulator(
                system, adversary, max_steps=self.max_steps
            ).run()
        return measure_run(result)

    def _table_for(self, system: System):
        """The shared compiled table for ``system.input_sequence``.

        All seeds of one input share a table: a transition paid by seed 0
        is a lookup for every later seed.  Tables live on the campaign
        instance (not a dataclass field) so they never enter equality,
        repr, or fingerprints.
        """
        from repro.kernel.compiled import CompiledSystem

        tables = self.__dict__.setdefault("_tables", {})
        table = tables.get(system.input_sequence)
        if table is None:
            table = CompiledSystem(system)
            tables[system.input_sequence] = table
        return table

    def _effective_workers(self, grid_size: int) -> int:
        if self.workers <= 1 or grid_size <= 1:
            return 1
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
        # One *schedulable* CPU means forked workers just time-slice the
        # same core and pay pickling on top -- the BENCH_PR1 regression.
        # The affinity/cgroup-aware count matters here: a CI container on
        # a 64-core host pinned to one core must not fork 4 workers.
        from repro.analysis.hostinfo import available_cpu_count

        if available_cpu_count() <= 1:
            return 1
        # Tiny grids cannot amortize child start-up.
        if grid_size < self.workers * _MIN_CHUNK:
            return 1
        return min(self.workers, grid_size)
