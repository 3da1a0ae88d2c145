"""Experiment infrastructure: results, checks, and the registry."""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernel.errors import VerificationError


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment's rendered outcome.

    Attributes:
        experiment_id: "T1", "F2", ...
        title: one-line description.
        rendered: the table/series text the benchmark prints.
        headers / rows: the structured data behind the rendering.
        checks: named boolean assertions ("claim held?"); every benchmark
            asserts all of them, so a reproduction regression fails loudly.
        notes: caveats worth keeping next to the numbers.
        states: total distinct states touched by the experiment's searches
            and runs (explorer states plus per-run visited configurations),
            None for purely combinatorial experiments.
        search_seconds: wall time spent inside those searches, None when
            ``states`` is None.  Feeds the perf report's
            ``states_per_second`` column.
    """

    experiment_id: str
    title: str
    rendered: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple, ...]
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""
    states: Optional[int] = None
    search_seconds: Optional[float] = None

    def assert_checks(self) -> None:
        """Raise if any named check failed."""
        failed = [name for name, ok in self.checks.items() if not ok]
        if failed:
            raise VerificationError(
                f"experiment {self.experiment_id} failed checks: {failed}"
            )

    @property
    def all_checks_pass(self) -> bool:
        """True iff every named check held."""
        return all(self.checks.values())


_MODULES = {
    "T1": "repro.experiments.t1_alpha",
    "T2": "repro.experiments.t2_dup_protocol",
    "T3": "repro.experiments.t3_dup_impossibility",
    "T4": "repro.experiments.t4_del_protocol",
    "T5": "repro.experiments.t5_del_impossibility",
    "T6": "repro.experiments.t6_abp",
    "F1": "repro.experiments.f1_alpha_growth",
    "F2": "repro.experiments.f2_boundedness",
    "F3": "repro.experiments.f3_message_complexity",
    "F4": "repro.experiments.f4_knowledge",
    "F5": "repro.experiments.f5_throughput",
    "F6": "repro.experiments.f6_hierarchy",
    "F7": "repro.experiments.f7_kbp",
    "F8": "repro.experiments.f8_recovery",
    "A1": "repro.experiments.a1_decisive",
    "A2": "repro.experiments.a2_encoding",
    "A3": "repro.experiments.a3_probabilistic",
    "A4": "repro.experiments.a4_lemmas",
    "A5": "repro.experiments.a5_attack_cost",
}


def registry() -> Dict[str, Callable[..., ExperimentResult]]:
    """Experiment id -> entry point (lazily imported)."""
    table: Dict[str, Callable[..., ExperimentResult]] = {}
    for experiment_id, module_name in _MODULES.items():
        module = importlib.import_module(module_name)
        table[experiment_id] = module.run
    return table


def run_experiment(
    experiment_id: str,
    seed: int = 0,
    quick: bool = False,
    workers: int = 1,
    cache=None,
    engine: str = "scalar",
    reduce: bool = False,
) -> ExperimentResult:
    """Run one experiment by id.

    ``workers`` requests process-parallel campaign sweeps and ``cache`` (a
    :class:`repro.analysis.cache.ResultCache`) memoizes exploration and
    campaign results by content; ``engine`` / ``reduce`` pick
    the exhaustive-exploration engine for experiments with exhaustive columns
    (see :func:`repro.analysis.cache.cached_explore`).  Each option is
    forwarded to experiments whose entry point accepts it (unreduced
    results are identical either way) and silently ignored by experiments
    that have nothing to shard, memoize, or explore.
    """
    module_name = _MODULES.get(experiment_id.upper())
    if module_name is None:
        raise VerificationError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_MODULES)}"
        )
    module = importlib.import_module(module_name)
    parameters = inspect.signature(module.run).parameters
    kwargs = {"seed": seed, "quick": quick}
    if workers != 1 and "workers" in parameters:
        kwargs["workers"] = workers
    if cache is not None and "cache" in parameters:
        kwargs["cache"] = cache
    if engine != "scalar" and "engine" in parameters:
        kwargs["engine"] = engine
    if reduce and "reduce" in parameters:
        kwargs["reduce"] = reduce
    return module.run(**kwargs)
