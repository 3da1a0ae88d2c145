"""Corrupted-start exploration and stabilization-time verdicts.

The rest of the resilience layer injects faults into *runs* that start
clean; this module drops the clean-start assumption itself, following
the self-stabilization literature closest to our channel models (Dolev
et al., Delaet et al. -- see PAPERS.md): the run begins in an arbitrary
**corrupted configuration** and the question is whether the protocol
converges back to its legitimate behaviour on its own.

The pipeline, end to end:

1.  **Output projection.**  The output tape is monotone -- a corrupted
    run that writes a wrong item can never literally re-enter the set of
    clean-reachable configurations, because no clean configuration
    carries that output.  Since the system's *dynamics* never read the
    output (it is write-only), quotienting it away is exact: we explore
    the projected system whose receiver keeps its state machine but has
    its writes stripped (:class:`OutputProjectedReceiver`), and every
    configuration's output tape stays ``()``.

2.  **Legitimate set** ``L``: the configurations reachable from the
    projected system's clean initial configuration -- forward-closed by
    construction, the standard legitimate-state predicate.

3.  **Corruption model** (:func:`corrupt_initial_set`): the product of
    the *observed* sender states, observed receiver states (or just the
    freshly-reset receiver under ``corruption="receiver-amnesia"``, the
    post-crash shape of ``CrashRestart(state_loss="full")``), and
    observed-or-forged channel states.  Forged channel contents are
    enumerated by folding ``after_send`` over each side's declared
    message alphabet up to the channel's capacity bound (or
    ``channel_depth``), so duplicated / reordered / fabricated in-flight
    messages are all represented within capacity.  Enumeration order is
    deterministic (``repr``-sorted products); ``sample``/``seed`` give a
    seeded deterministic subsample.

4.  **Multi-source BFS** over the compiled table, seeded with the whole
    corrupt set at once, with ``L`` absorbing
    (:func:`repro.kernel.frontier.explore_multi_source_batched`), returns
    the illegitimate reachable set.

5.  **Verdicts.**  On that graph, an illegitimate state is a *trap* if
    no path from it reaches ``L``.  A source **stabilizes** iff it
    cannot reach any trap (convergence under any fair daemon; an
    unrestricted daemon could refuse to drain forged channels forever,
    which would make stabilization unsatisfiable for every protocol,
    since local steps are always enabled).  Its **stabilization depth**
    is the shortest number of events until the run re-enters ``L`` --
    the per-source "levels until legitimate" verdict.  Both are computed
    with two backward BFS passes over the reversed graph, so they are
    invariant under state-id renumbering: verdicts cannot depend on the
    order the graph was discovered in, or on the shard count that
    produced it.

``reduce=True`` collapses the corrupt initial set under
:func:`repro.kernel.frontier.stabilization_state_key` (input-pinned
data-item renaming over the full domain), explores one representative
per class, and expands each representative's verdict to its whole class
-- bit-identical per-source verdicts at a fraction of the graph, which
is the symmetry-reduction payoff ``BENCH_PR10.json`` records.

**Sharding.**  Per-source verdicts depend only on the subgraph
reachable from that source: a path out of a source never leaves its
reachable set, so the shortest depth into ``L`` and trap-reachability
computed on the restriction equal those computed on the full
multi-source graph.  That makes the corrupt set embarrassingly
partitionable: :func:`shard_of_class` deals each symmetry class (by the
digest of its canonical representative) onto one of ``shard_count``
shards, :func:`analyze_stabilization_shard` judges one shard's sources
on its own reachable subgraph, and
:func:`merge_stabilization_shards` reassembles the full
:class:`StabilizationResult` -- bit-identical (timing aside) to the
single-host analysis, which is what lets the work fabric distribute
``stabilize`` cells across workers.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import obs
from repro.kernel.compiled import CompiledSystem
from repro.kernel.errors import VerificationError
from repro.kernel.frontier import (
    explore_multi_source_batched,
    stabilization_state_key,
)
from repro.kernel.interfaces import (
    ReceiverProtocol,
    SenderProtocol,
    Transition,
)
from repro.kernel.system import Configuration, System

#: Version tag mixed into corrupt-set fingerprints; bump when the
#: corruption model's enumeration changes.
CORRUPTION_SCHEMA = "stp-corrupt/1"

#: Supported corruption models (see :func:`corrupt_initial_set`).
CORRUPTION_MODES = ("full", "receiver-amnesia")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


class OutputProjectedReceiver(ReceiverProtocol):
    """A receiver with identical dynamics whose writes are discarded.

    Sound as a quotient because nothing in
    :class:`~repro.kernel.system.System` reads the output tape -- it is
    appended in ``_after_receiver`` and consulted only by the Safety /
    completion predicates, which corrupted-start analysis replaces with
    legitimate-set membership.
    """

    def __init__(self, inner: ReceiverProtocol) -> None:
        self.inner = inner

    @property
    def message_alphabet(self):
        return self.inner.message_alphabet

    def initial_state(self):
        return self.inner.initial_state()

    def on_message(self, state, message) -> Transition:
        transition = self.inner.on_message(state, message)
        return Transition(state=transition.state, sends=transition.sends)

    def on_step(self, state) -> Transition:
        transition = self.inner.on_step(state)
        return Transition(state=transition.state, sends=transition.sends)


class CorruptedStartSender(SenderProtocol):
    """A sender forced to begin in a given (possibly corrupt) local state.

    The input tape passed to ``initial_state`` is ignored -- the corrupt
    state carries whatever tape the corruption scenario says it does.
    Used by the resilient-runner path to *run* (not just explore) a
    corrupted start under the simulator.
    """

    def __init__(self, inner: SenderProtocol, corrupt_state) -> None:
        self.inner = inner
        self.corrupt_state = corrupt_state

    @property
    def message_alphabet(self):
        return self.inner.message_alphabet

    def initial_state(self, input_sequence):
        return self.corrupt_state

    def on_message(self, state, message) -> Transition:
        return self.inner.on_message(state, message)

    def on_step(self, state) -> Transition:
        return self.inner.on_step(state)


class CorruptedStartReceiver(ReceiverProtocol):
    """A receiver forced to begin in a given (possibly corrupt) local state."""

    def __init__(self, inner: ReceiverProtocol, corrupt_state) -> None:
        self.inner = inner
        self.corrupt_state = corrupt_state

    @property
    def message_alphabet(self):
        return self.inner.message_alphabet

    def initial_state(self):
        return self.corrupt_state

    def on_message(self, state, message) -> Transition:
        return self.inner.on_message(state, message)

    def on_step(self, state) -> Transition:
        return self.inner.on_step(state)


def projected_system(system: System) -> System:
    """``system`` with its receiver output-projected (writes stripped)."""
    return System(
        system.sender,
        OutputProjectedReceiver(system.receiver),
        system.channel_sr,
        system.channel_rs,
        system.input_sequence,
    )


# ---------------------------------------------------------------------------
# the corruption model
# ---------------------------------------------------------------------------


def _forged_channel_states(channel, alphabet, depth: int) -> set:
    """Channel states forgeable by at most ``depth`` sends of any messages.

    Folding ``after_send`` from ``empty()`` over the declared alphabet
    enumerates every in-flight multiset/sequence the channel's own
    algebra can represent within the bound -- duplicated, reordered, and
    fabricated contents included, but never a state the channel family
    itself could not hold.
    """
    empty = channel.empty()
    states = {empty}
    frontier = [empty]
    messages = sorted(alphabet, key=repr)
    for _ in range(max(0, depth)):
        grown: List = []
        for state in frontier:
            for message in messages:
                candidate = channel.after_send(state, message)
                if candidate not in states:
                    states.add(candidate)
                    grown.append(candidate)
        if not grown:
            break
        frontier = grown
    return states


def _channel_depth(channel, channel_depth: Optional[int]) -> int:
    if channel_depth is not None:
        return channel_depth
    capacity = getattr(channel, "capacity", None)
    if isinstance(capacity, int):
        return capacity
    return 2


def corrupt_initial_set(
    system: System,
    channel_depth: Optional[int] = None,
    corruption: str = "full",
    legitimate_configs: Optional[Sequence[Configuration]] = None,
    max_states: int = 500_000,
    include_drops: bool = True,
) -> Tuple[Configuration, ...]:
    """The deterministic corrupt initial set for a protocol x channel pair.

    The product of observed sender states x observed receiver states
    (``corruption="receiver-amnesia"`` pins the receiver to its fresh
    initial state instead -- the configuration a
    ``CrashRestart(state_loss="full")`` crash leaves behind) x
    observed-or-forged channel states on each side.  "Observed" means
    "occurring somewhere in the legitimate set", so scrambled local
    states are states the automaton *has* but at the wrong moment;
    forged channel states come from :func:`_forged_channel_states`
    bounded by ``channel_depth`` (default: the channel's capacity, else
    2).  Returned ``repr``-sorted and duplicate-free, on the *projected*
    system (all outputs ``()``), so enumeration order is reproducible
    everywhere.
    """
    if corruption not in CORRUPTION_MODES:
        raise VerificationError(
            f"unknown corruption mode {corruption!r}; "
            f"known: {CORRUPTION_MODES}"
        )
    projected = projected_system(system)
    if legitimate_configs is None:
        table = CompiledSystem(projected)
        legit_ids, _ = explore_multi_source_batched(
            table, (table.initial_id(),), frozenset(),
            max_states=max_states, include_drops=include_drops,
        )
        legitimate_configs = [table.config_of(sid) for sid in legit_ids]
    sender_states = sorted(
        {config.sender_state for config in legitimate_configs}, key=repr
    )
    if corruption == "receiver-amnesia":
        receiver_states = [projected.receiver.initial_state()]
    else:
        receiver_states = sorted(
            {config.receiver_state for config in legitimate_configs},
            key=repr,
        )
    chan_sr_states = sorted(
        {config.chan_sr for config in legitimate_configs}
        | _forged_channel_states(
            projected.channel_sr,
            projected.sender.message_alphabet,
            _channel_depth(projected.channel_sr, channel_depth),
        ),
        key=repr,
    )
    chan_rs_states = sorted(
        {config.chan_rs for config in legitimate_configs}
        | _forged_channel_states(
            projected.channel_rs,
            projected.receiver.message_alphabet,
            _channel_depth(projected.channel_rs, channel_depth),
        ),
        key=repr,
    )
    configs = {
        Configuration(
            sender_state=sender_state,
            receiver_state=receiver_state,
            chan_sr=chan_sr,
            chan_rs=chan_rs,
            output=(),
        )
        for sender_state, receiver_state, chan_sr, chan_rs in
        itertools.product(
            sender_states, receiver_states, chan_sr_states, chan_rs_states
        )
    }
    return tuple(sorted(configs, key=repr))


def corrupt_set_fingerprint(configs: Sequence[Configuration]) -> str:
    """A stable digest of a corrupt initial set (cache / report key)."""
    digest = hashlib.sha256(CORRUPTION_SCHEMA.encode())
    for config in configs:
        digest.update(repr(config).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# the judge: traps and stabilization depths
# ---------------------------------------------------------------------------


def _judge(
    adjacency: Dict[int, Tuple[int, ...]],
    legitimate: frozenset,
) -> Tuple[Dict[int, int], set]:
    """``(depth, doomed)`` over the illegitimate reachable graph.

    ``depth[sid]`` is the length of the shortest path from ``sid`` into
    the legitimate set (defined exactly for the states that have one);
    ``doomed`` is the set of states from which some path reaches a
    *trap* -- a state with no path into the legitimate set at all.  Two
    backward BFS passes over the reversed graph; both quantities are
    graph-isomorphism invariants, which is what makes verdicts
    independent of state-id numbering.
    """
    reverse: Dict[int, List[int]] = {sid: [] for sid in adjacency}
    depth: Dict[int, int] = {}
    queue: deque = deque()
    for sid, successors in adjacency.items():
        touches_legitimate = False
        for nid in successors:
            if nid in legitimate:
                touches_legitimate = True
            elif nid != sid:
                reverse[nid].append(sid)
        if touches_legitimate:
            depth[sid] = 1
            queue.append(sid)
    while queue:
        sid = queue.popleft()
        parent_depth = depth[sid] + 1
        for pid in reverse[sid]:
            if pid not in depth:
                depth[pid] = parent_depth
                queue.append(pid)
    doomed = {sid for sid in adjacency if sid not in depth}
    queue = deque(doomed)
    while queue:
        sid = queue.popleft()
        for pid in reverse[sid]:
            if pid not in doomed:
                doomed.add(pid)
                queue.append(pid)
    return depth, doomed


# ---------------------------------------------------------------------------
# the result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizationResult:
    """The corrupted-start verdict sheet for one protocol x channel pair.

    Attributes:
        sources: size of the corrupt initial set analyzed.
        classes: number of symmetry classes the set collapses into under
            :func:`~repro.kernel.frontier.stabilization_state_key`.
        reduction_ratio: ``sources / classes``.
        legitimate_states: size of the legitimate (clean-reachable,
            output-projected) set ``L``.
        explored_states: states touched in total -- ``L`` plus the
            illegitimate states reachable from the (possibly reduced)
            source set.
        stabilizing: sources that provably converge (cannot reach a trap).
        non_stabilizing: sources that can reach a trap.
        max_depth: largest stabilization depth among stabilizing
            sources; ``None`` when nothing stabilizes.
        depth_histogram: ``((depth, count), ...)`` over stabilizing
            sources, depth-sorted.
        verdicts: ``((configuration, stabilizes, depth), ...)`` for every
            source, ``repr``-sorted -- the field the equivalence sweeps
            compare bit-for-bit across reduced/unreduced and sharded runs.
        non_stabilizing_examples: up to 5 witness configurations.
        converges: True iff every source stabilizes -- the protocol is
            self-stabilizing over this corrupt set.
        corrupt_fingerprint: digest of the enumerated corrupt set.
        corruption: the corruption mode analyzed.
        reduce / sample / seed: how the run was made.
        elapsed_seconds / states_per_second: timing.
    """

    sources: int
    classes: int
    reduction_ratio: float
    legitimate_states: int
    explored_states: int
    stabilizing: int
    non_stabilizing: int
    max_depth: Optional[int]
    depth_histogram: Tuple[Tuple[int, int], ...]
    verdicts: Tuple[Tuple[Configuration, bool, Optional[int]], ...]
    non_stabilizing_examples: Tuple[Configuration, ...]
    converges: bool
    corrupt_fingerprint: str
    corruption: str
    reduce: bool
    sample: Optional[int]
    seed: int
    elapsed_seconds: float
    states_per_second: float

    def summary(self) -> Dict[str, object]:
        """The JSON-friendly projection joined into resilience reports."""
        return {
            "sources": self.sources,
            "classes": self.classes,
            "reduction_ratio": round(self.reduction_ratio, 4),
            "legitimate_states": self.legitimate_states,
            "explored_states": self.explored_states,
            "stabilizing": self.stabilizing,
            "non_stabilizing": self.non_stabilizing,
            "max_depth": self.max_depth,
            "depth_histogram": [list(pair) for pair in self.depth_histogram],
            "converges": self.converges,
            "corrupt_fingerprint": self.corrupt_fingerprint,
            "corruption": self.corruption,
            "reduce": self.reduce,
            "sample": self.sample,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# the analysis entry point
# ---------------------------------------------------------------------------

def analyze_stabilization(
    system: System,
    reduce: bool = False,
    sample: Optional[int] = None,
    seed: int = 0,
    max_states: int = 500_000,
    channel_depth: Optional[int] = None,
    include_drops: bool = True,
    corruption: str = "full",
    domain: Optional[Sequence] = None,
) -> StabilizationResult:
    """Exhaustive corrupted-start analysis of one system.

    ``reduce`` explores one representative per symmetry class of the
    corrupt set and expands verdicts back to every member; ``sample``
    (with ``seed``) analyzes a seeded deterministic subsample of the
    enumerated corrupt set instead of all of it.  ``domain`` is the full
    data-item domain used by the symmetry key; by default it is taken
    from the sender's declared domain, falling back to the input items.
    ``include_drops`` should stay True on lossy channels: explicit drop
    moves are how the corrupt in-flight garbage drains.
    """
    if not obs.enabled():
        return _analyze(
            system, reduce, sample, seed, max_states,
            channel_depth, include_drops, corruption, domain,
        )
    with obs.span("stabilize", reduce=reduce) as span:
        result = _analyze(
            system, reduce, sample, seed, max_states,
            channel_depth, include_drops, corruption, domain,
        )
        span.set(
            sources=result.sources,
            states=result.explored_states,
            non_stabilizing=result.non_stabilizing,
        )
        _emit_stabilization_gauges(result)
        return result


@dataclass
class _StabilizePrep:
    """Everything the verdict phase needs, shared by host and shard paths."""

    projected: System
    table: CompiledSystem
    legitimate: FrozenSet[int]
    corrupt: Tuple[Configuration, ...]
    fingerprint: str
    key_fn: Callable[[Configuration], object]
    class_of: Dict[object, List[Configuration]]
    source_ids: Dict[Configuration, int]


def _prepare(
    system: System,
    sample: Optional[int],
    seed: int,
    max_states: int,
    channel_depth: Optional[int],
    include_drops: bool,
    corruption: str,
    domain: Optional[Sequence],
    table: Optional[CompiledSystem] = None,
) -> _StabilizePrep:
    """Legitimate set, corrupt enumeration, and symmetry classes.

    The deterministic prefix every shard recomputes identically (and the
    single-host path computes once): because the enumeration, sampling,
    and classing are pure functions of the system and knobs, shards on
    different workers agree on the exact corrupt set, class
    representatives, and fingerprint without any coordination.  ``table``
    lets a fabric worker hand in a revived
    :class:`~repro.kernel.compiled.CompiledSystem` for the *projected*
    system -- verdicts are id-invariant, so a table grown by another
    process is as good as a fresh compile.
    """
    projected = projected_system(system)
    if table is None:
        table = CompiledSystem(projected)

    # The legitimate set: one single-source run of the same BFS core.
    legit_ids, _ = explore_multi_source_batched(
        table, (table.initial_id(),), frozenset(),
        max_states=max_states, include_drops=include_drops,
    )
    legitimate = frozenset(legit_ids)
    legitimate_configs = [table.config_of(sid) for sid in legitimate]

    corrupt = corrupt_initial_set(
        system,
        channel_depth=channel_depth,
        corruption=corruption,
        legitimate_configs=legitimate_configs,
    )
    if sample is not None and 0 < sample < len(corrupt):
        corrupt = tuple(
            sorted(random.Random(seed).sample(corrupt, sample), key=repr)
        )
    fingerprint = corrupt_set_fingerprint(corrupt)

    # Symmetry classes of the corrupt set (computed in both modes: the
    # class count and ratio are part of the report either way).
    if domain is None:
        domain = getattr(system.sender, "_domain", system.input_sequence)
    key_fn = stabilization_state_key(projected, domain=tuple(domain))
    class_of: Dict[object, List[Configuration]] = {}
    for config in corrupt:  # repr-sorted: representatives are canonical
        class_of.setdefault(key_fn(config), []).append(config)

    source_ids = {config: table.state_id(config) for config in corrupt}
    return _StabilizePrep(
        projected=projected,
        table=table,
        legitimate=legitimate,
        corrupt=corrupt,
        fingerprint=fingerprint,
        key_fn=key_fn,
        class_of=class_of,
        source_ids=source_ids,
    )


def _analyze(
    system: System,
    reduce: bool,
    sample: Optional[int],
    seed: int,
    max_states: int,
    channel_depth: Optional[int],
    include_drops: bool,
    corruption: str,
    domain: Optional[Sequence],
) -> StabilizationResult:
    start = time.perf_counter()
    prep = _prepare(
        system, sample, seed, max_states, channel_depth, include_drops,
        corruption, domain,
    )
    verdicts, visited = _judge_sources(
        prep, prep.class_of, prep.corrupt, reduce, max_states, include_drops
    )
    return _result(
        verdicts,
        sources=len(prep.corrupt),
        classes=len(prep.class_of),
        legitimate_states=len(prep.legitimate),
        illegitimate_states=len(visited),
        corrupt_fingerprint=prep.fingerprint,
        corruption=corruption,
        reduce=reduce,
        sample=sample,
        seed=seed,
        elapsed=time.perf_counter() - start,
    )


def _judge_sources(
    prep: _StabilizePrep,
    classes: Dict[object, List[Configuration]],
    members: Sequence[Configuration],
    reduce: bool,
    max_states: int,
    include_drops: bool,
    heartbeat=None,
):
    """``(verdicts, visited)`` for ``members`` (``repr``-sorted).

    ``classes`` are the symmetry classes ``members`` is made of.  Under
    ``reduce`` only each class's representative seeds the BFS and its
    verdict stands for the whole class; otherwise every member seeds it.
    ``visited`` is the illegitimate reachable set of the seeds.
    """
    table = prep.table
    seeds = [group[0] for group in classes.values()] if reduce else members
    visited, _widths = explore_multi_source_batched(
        table, [prep.source_ids[config] for config in seeds], prep.legitimate,
        max_states=max_states, include_drops=include_drops,
    )
    if heartbeat is not None:
        heartbeat()
    successor = (
        table.succ_row if include_drops else table.succ_row_without_drops
    )
    adjacency = {
        sid: tuple(sorted(set(successor(sid)))) for sid in sorted(visited)
    }
    depth, doomed = _judge(adjacency, prep.legitimate)

    def verdict_of(config: Configuration) -> Tuple[bool, Optional[int]]:
        sid = prep.source_ids[config]
        if sid in prep.legitimate:
            return True, 0
        if sid in doomed:
            return False, None
        return True, depth[sid]

    if reduce:
        by_class = {key: verdict_of(group[0]) for key, group in classes.items()}
        verdicts = tuple(
            (config, *by_class[prep.key_fn(config)]) for config in members
        )
    else:
        verdicts = tuple((config, *verdict_of(config)) for config in members)
    return verdicts, visited


def _result(
    verdicts, *, sources, classes, legitimate_states, illegitimate_states,
    corrupt_fingerprint, corruption, reduce, sample, seed, elapsed,
) -> StabilizationResult:
    """Assemble the verdict sheet's summary fields into a result."""
    stabilizing_depths = [d for _, ok, d in verdicts if ok]
    non_stabilizing = [config for config, ok, _ in verdicts if not ok]
    explored = legitimate_states + illegitimate_states
    return StabilizationResult(
        sources=sources,
        classes=classes,
        reduction_ratio=(sources / classes) if classes else 1.0,
        legitimate_states=legitimate_states,
        explored_states=explored,
        stabilizing=len(stabilizing_depths),
        non_stabilizing=len(non_stabilizing),
        max_depth=max(stabilizing_depths) if stabilizing_depths else None,
        depth_histogram=tuple(sorted(Counter(stabilizing_depths).items())),
        verdicts=verdicts,
        non_stabilizing_examples=tuple(non_stabilizing[:5]),
        converges=not non_stabilizing,
        corrupt_fingerprint=corrupt_fingerprint,
        corruption=corruption,
        reduce=reduce,
        sample=sample,
        seed=seed,
        elapsed_seconds=elapsed,
        states_per_second=explored / elapsed if elapsed > 0 else 0.0,
    )


# ---------------------------------------------------------------------------
# sharding: partition the corrupt set, judge per shard, merge bit-identically
# ---------------------------------------------------------------------------


def _config_digest(config: Configuration) -> bytes:
    """A stable 16-byte digest of one configuration (for visited-set union)."""
    return hashlib.sha256(repr(config).encode()).digest()[:16]


def shard_of_class(representative: Configuration, shard_count: int) -> int:
    """The shard owning one symmetry class of the corrupt set.

    Keyed by the digest of the class's canonical representative (the
    ``repr``-least member, which every process derives identically from
    the ``repr``-sorted corrupt enumeration), salted with
    :data:`CORRUPTION_SCHEMA` so partition assignments shift whenever
    the enumeration semantics do.  Whole classes -- never individual
    members -- land on one shard, so reduced and unreduced shard
    analyses seed their BFS from the same partition.
    """
    digest = hashlib.sha256(
        (CORRUPTION_SCHEMA + repr(representative)).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") % max(1, shard_count)


@dataclass(frozen=True)
class StabilizationShard:
    """One shard's verdicts plus the agreement fields merging checks.

    ``sources`` / ``classes`` / ``legitimate_states`` /
    ``corrupt_fingerprint`` describe the *full* analysis (every shard
    recomputes the deterministic prefix and must agree on them);
    ``verdicts`` covers only the sources whose symmetry class
    :func:`shard_of_class` assigned here, ``repr``-sorted.
    ``visited_digests`` holds :func:`_config_digest` of each
    illegitimate state this shard's BFS visited -- the merge unions them
    to reconstruct the single-host ``explored_states`` count exactly.
    """

    shard_index: int
    shard_count: int
    corruption: str
    reduce: bool
    sample: Optional[int]
    seed: int
    sources: int
    classes: int
    legitimate_states: int
    corrupt_fingerprint: str
    verdicts: Tuple[Tuple[Configuration, bool, Optional[int]], ...]
    visited_digests: FrozenSet[bytes]
    elapsed_seconds: float


def analyze_stabilization_shard(
    system: System,
    shard_index: int,
    shard_count: int,
    reduce: bool = False,
    sample: Optional[int] = None,
    seed: int = 0,
    max_states: int = 500_000,
    channel_depth: Optional[int] = None,
    include_drops: bool = True,
    corruption: str = "full",
    domain: Optional[Sequence] = None,
    table: Optional[CompiledSystem] = None,
    heartbeat=None,
) -> StabilizationShard:
    """Corrupted-start verdicts for one shard of the corrupt set.

    Sound because per-source verdicts are reachable-subgraph-local (see
    the module docstring): judging this shard's sources on the graph
    reachable from them alone yields exactly the verdicts the full
    multi-source analysis assigns them.  ``table`` accepts a revived
    compiled table for the *projected* system; ``heartbeat`` (a no-arg
    callable) is invoked between phases so a fabric worker can keep its
    queue lease fresh through a long BFS.
    """
    if not (0 <= shard_index < shard_count):
        raise VerificationError(
            f"shard_index {shard_index} out of range for "
            f"{shard_count} shards"
        )
    start = time.perf_counter()
    prep = _prepare(
        system, sample, seed, max_states, channel_depth, include_drops,
        corruption, domain, table=table,
    )
    if heartbeat is not None:
        heartbeat()
    mine = {
        key: members
        for key, members in prep.class_of.items()
        if shard_of_class(members[0], shard_count) == shard_index
    }
    members_sorted = sorted(
        (config for members in mine.values() for config in members), key=repr
    )
    verdicts, visited = _judge_sources(
        prep, mine, members_sorted, reduce, max_states, include_drops,
        heartbeat=heartbeat,
    )
    digests = frozenset(
        _config_digest(prep.table.config_of(sid)) for sid in visited
    )
    return StabilizationShard(
        shard_index=shard_index,
        shard_count=shard_count,
        corruption=corruption,
        reduce=bool(reduce),
        sample=sample,
        seed=seed,
        sources=len(prep.corrupt),
        classes=len(prep.class_of),
        legitimate_states=len(prep.legitimate),
        corrupt_fingerprint=prep.fingerprint,
        verdicts=verdicts,
        visited_digests=digests,
        elapsed_seconds=time.perf_counter() - start,
    )


def merge_stabilization_shards(
    shards: Sequence[StabilizationShard],
) -> StabilizationResult:
    """Reassemble shard verdicts into the single-host result.

    Deterministic in everything but timing: verdicts are the
    ``repr``-sorted concatenation (equal to the single-host verdict
    order because the shards partition the same ``repr``-sorted corrupt
    set), and ``explored_states`` is rebuilt from the union of the
    shards' visited digests.  The timing fields are *sums over the
    stored shards*, so two workers racing to merge the same shard
    payloads publish byte-identical results.  Raises
    :class:`VerificationError` on an incomplete or disagreeing shard
    set.
    """
    if not shards:
        raise VerificationError("no stabilization shards to merge")
    ordered = sorted(shards, key=lambda shard: shard.shard_index)
    first = ordered[0]
    indices = [shard.shard_index for shard in ordered]
    if (
        len(ordered) != first.shard_count
        or set(indices) != set(range(first.shard_count))
    ):
        raise VerificationError(
            f"shard indices {indices} do not cover "
            f"0..{first.shard_count - 1} exactly once"
        )
    agreement = (
        first.shard_count, first.corruption, first.reduce, first.sample,
        first.seed, first.sources, first.classes, first.legitimate_states,
        first.corrupt_fingerprint,
    )
    for shard in ordered[1:]:
        if (
            shard.shard_count, shard.corruption, shard.reduce, shard.sample,
            shard.seed, shard.sources, shard.classes,
            shard.legitimate_states, shard.corrupt_fingerprint,
        ) != agreement:
            raise VerificationError(
                f"shard {shard.shard_index} disagrees with shard "
                f"{first.shard_index} on the deterministic prefix "
                "(corrupt set / legitimate set / knobs)"
            )
    verdicts = tuple(
        sorted(
            (verdict for shard in ordered for verdict in shard.verdicts),
            key=lambda verdict: repr(verdict[0]),
        )
    )
    if len(verdicts) != first.sources:
        raise VerificationError(
            f"merged verdicts cover {len(verdicts)} sources, "
            f"expected {first.sources}"
        )
    visited_union: FrozenSet[bytes] = frozenset().union(
        *(shard.visited_digests for shard in ordered)
    )
    return _result(
        verdicts,
        sources=first.sources,
        classes=first.classes,
        legitimate_states=first.legitimate_states,
        illegitimate_states=len(visited_union),
        corrupt_fingerprint=first.corrupt_fingerprint,
        corruption=first.corruption,
        reduce=first.reduce,
        sample=first.sample,
        seed=first.seed,
        elapsed=sum(shard.elapsed_seconds for shard in ordered),
    )


def _emit_stabilization_gauges(result: StabilizationResult) -> None:
    if not obs.enabled():
        return
    obs.gauge_set("recovery.stabilization_sources", result.sources)
    obs.gauge_set("recovery.stabilization_classes", result.classes)
    obs.gauge_set(
        "recovery.stabilization_reduction_ratio", result.reduction_ratio
    )
    obs.gauge_set(
        "recovery.stabilization_non_stabilizing", result.non_stabilizing
    )
    obs.gauge_set(
        "recovery.stabilization_max_depth", result.max_depth or 0
    )
