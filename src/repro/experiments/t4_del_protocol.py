"""T4 (Table 4): the bounded protocol solves ``X``-STP(del) at the bound.

Theorem 2 tightness.  The Section 4 protocol (handshake with
retransmission) is run on all ``alpha(m)`` repetition-free inputs over
reorder+delete channels:

* randomized campaigns at loss rates 0, 0.3, 0.6, 0.9 (every run must
  complete safely under fairness enforcement);
* exhaustive exploration with a copy-capped deleting channel (``m <= 2``),
  drops included -- Safety over every schedule including adversarial
  deletions;
* the Definition 2 boundedness certificate: along eager-driven runs, every
  point's fresh-only witness extension must deliver the next item within
  the constant budget ``f_bound`` (experiment F2 contrasts this with the
  hybrid protocol's failure of the same check).

Expected outcome: 100% safe and complete at every loss rate; exhaustive
pass; certificate satisfied with measured recovery well under the budget.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.adversaries import (
    AgingFairAdversary,
    DroppingAdversary,
    EagerAdversary,
    RandomAdversary,
)
from repro.analysis.cache import ResultCache, cached_explore
from repro.analysis.metrics import measure_run, summarize
from repro.analysis.tables import render_table
from repro.channels import DeletingChannel
from repro.core.alpha import alpha
from repro.core.boundedness import check_f_bounded
from repro.experiments.base import ExperimentResult
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import Simulator
from repro.kernel.system import System
from repro.protocols.norepeat_del import bounded_del_protocol, f_bound
from repro.workloads import repetition_free_family

LETTERS = "abcdefgh"
LOSS_RATES = (0.0, 0.3, 0.6, 0.9)


def run(
    seed: int = 0,
    quick: bool = False,
    cache: Optional[ResultCache] = None,
    engine: str = "scalar",
    reduce: bool = False,
) -> ExperimentResult:
    """Build Table 4.

    ``cache`` memoizes the exhaustive explorations by content, and
    ``engine`` / ``reduce`` pick the exhaustive-exploration engine; the
    table is identical with or without the cache, on either engine
    (unreduced).
    """
    rng = DeterministicRNG(seed, "t4")
    sizes = (1, 2) if quick else (1, 2, 3)
    seeds = 1 if quick else 2
    states_total = 0
    search_seconds = 0.0

    headers = (
        "m",
        "|X|",
        "loss rate",
        "runs",
        "completed",
        "safe",
        "steps (max)",
        "explored states",
        "exhaustive safe",
        "f-bounded (max rec / budget)",
    )
    rows: List[Tuple] = []
    checks = {}
    for m in sizes:
        domain = LETTERS[:m]
        family = repetition_free_family(domain)
        assert len(family) == alpha(m)
        sender, receiver = bounded_del_protocol(domain)

        explored_states: object = None
        exhaustive_safe: object = None
        if m <= 2:
            total = 0
            all_safe = True
            sweep_start = time.perf_counter()
            for input_sequence in family:
                system = System(
                    sender,
                    receiver,
                    DeletingChannel(max_copies=2),
                    DeletingChannel(max_copies=2),
                    input_sequence,
                )
                report = cached_explore(
                    system,
                    max_states=500_000,
                    include_drops=True,
                    cache=cache,
                    engine=engine,
                    reduce=reduce,
                )
                total += report.states
                all_safe = (
                    all_safe
                    and report.all_safe
                    and report.completion_reachable
                    and not report.truncated
                )
            search_seconds += time.perf_counter() - sweep_start
            explored_states = total
            exhaustive_safe = all_safe
            states_total += total
            checks[f"m{m}_exhaustively_safe_and_completable"] = all_safe

        bounded_report: object = None
        longest = max(family, key=len)
        system = System(
            sender,
            receiver,
            DeletingChannel(),
            DeletingChannel(),
            longest,
        )
        driver = Simulator(system, EagerAdversary(), max_steps=2_000).run()
        report = check_f_bounded(system, driver.trace.events(), f_bound)
        worst = report.worst()
        bounded_report = (
            f"{worst.recovery_steps if worst else 0} / {f_bound(1)}"
        )
        checks[f"m{m}_f_bounded_certificate"] = report.satisfied

        for rate in LOSS_RATES:
            metrics = []
            sweep_start = time.perf_counter()
            for input_sequence in family:
                for s in range(seeds):
                    base = RandomAdversary(
                        rng.fork(f"m{m}/r{rate}/{input_sequence!r}/{s}"),
                        deliver_weight=3.0,
                    )
                    adversary = AgingFairAdversary(
                        DroppingAdversary(
                            rng.fork(f"m{m}/drop{rate}/{input_sequence!r}/{s}"),
                            base,
                            rate,
                        ),
                        patience=96,
                    )
                    system = System(
                        sender,
                        receiver,
                        DeletingChannel(),
                        DeletingChannel(),
                        input_sequence,
                    )
                    result = Simulator(system, adversary, max_steps=60_000).run()
                    metrics.append(measure_run(result))
            summary = summarize(metrics)
            search_seconds += time.perf_counter() - sweep_start
            states_total += summary.states or 0
            checks[f"m{m}_loss{rate}_all_safe"] = summary.safe == summary.runs
            checks[f"m{m}_loss{rate}_all_completed"] = (
                summary.completed == summary.runs
            )
            rows.append(
                (
                    m,
                    len(family),
                    rate,
                    summary.runs,
                    summary.completed,
                    summary.safe,
                    int(summary.steps.maximum),
                    explored_states if rate == LOSS_RATES[0] else None,
                    exhaustive_safe if rate == LOSS_RATES[0] else None,
                    bounded_report if rate == LOSS_RATES[0] else None,
                )
            )

    rendered = render_table(
        headers,
        rows,
        title=(
            "T4: bounded protocol on reorder+delete channels, "
            "|X| = alpha(m) (Theorem 2 tightness)"
        ),
    )
    return ExperimentResult(
        experiment_id="T4",
        title="Bounded X-STP(del) solved at |X| = alpha(m)",
        rendered=rendered,
        headers=headers,
        rows=tuple(rows),
        checks=checks,
        notes=(
            "loss rate = probability an enabled drop is taken before a "
            "productive move; exploration uses a 2-copy-capped deleting "
            "channel (capping is legal deletion) with drops explored"
        ),
        states=states_total,
        search_seconds=search_seconds,
    )
