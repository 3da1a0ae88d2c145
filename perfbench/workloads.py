"""The four cold workloads: seeded inputs, timed question sets, known answers.

Every workload poses its questions through a user-facing entry point of
``repro`` -- ``cached_explore`` / ``cached_stabilize`` with ``cache=None``,
``run_fabric``, or a live ``repro.service`` server -- so engines, table
formats and concurrency mechanisms can change underneath without editing
this file.

The seed only renames data items, reorders the questions and orders the
service's request script.  The known answers below are therefore the
same at every seed; ``test_holdout.py`` checks that.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from collections import deque
from typing import Dict, List, Tuple

WORKLOADS = ("family-cold", "stabilize-cold", "campaign-grid", "service-mixed")

# -- seeded naming ----------------------------------------------------------

_NAME_POOL = tuple(
    letter + digit for letter in "abcdefghijkmnpqrstuvwxyz" for digit in "23456789"
)


def item_names(seed: int, count: int, salt: str) -> Tuple[str, ...]:
    """``count`` distinct data-item names drawn from ``seed``."""
    return tuple(random.Random(f"{salt}:{seed}").sample(_NAME_POOL, count))


def shuffled(values, seed: int, salt: str) -> list:
    """``values`` as a list in the order ``seed`` draws."""
    out = list(values)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


def digest(value) -> str:
    """A short stable digest of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class CheckFailed(Exception):
    """A known-answer or cold-by-construction check did not hold."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- family-cold --------------------------------------------------------------

#: (protocol, alphabet size m): the repetition-free family over m items
#: on the duplicating channel.  Theorem 1: norepeat solves the whole
#: alpha(6)-member family; abp is unsafe on most members of alpha(5).
FAMILY_QUESTIONS = (("norepeat", 6), ("abp", 5))

FAMILY_KNOWN = {
    "norepeat": {"members": 1957, "states": 31315, "all_safe": 1957,
                 "completion_reachable": 1957, "truncated": 0,
                 "violation_steps": 0},
    "abp": {"members": 326, "states": 8401, "all_safe": 6,
            "completion_reachable": 26, "truncated": 0,
            "violation_steps": 1920},
}

#: Members per family re-judged by the object-graph ``explore`` oracle.
FAMILY_ORACLE_SAMPLE = 24


def family_inputs(seed: int):
    from repro.workloads.families import repetition_free_family

    questions = []
    for protocol, m in FAMILY_QUESTIONS:
        domain = item_names(seed, m, f"family-{protocol}")
        members = shuffled(repetition_free_family(domain), seed, f"members-{protocol}")
        questions.append((protocol, domain, members))
    return shuffled(questions, seed, "family-order")


def _verdict(report) -> list:
    path = report.violation_path
    return [report.states, report.all_safe, report.completion_reachable,
            report.truncated, None if path is None else len(path)]


def family_run(inputs, clock):
    """Judge every member cold; returns (work, per-member latencies, answers)."""
    from repro.analysis.cache import cached_explore
    from repro.channels import channel_by_name
    from repro.kernel.system import System
    from repro.protocols import protocol_by_name

    latencies = []
    answers = {}
    for protocol, domain, members in inputs:
        sender, receiver = protocol_by_name(protocol, domain, len(domain))
        verdicts = []
        for member in members:
            start = clock()
            system = System(sender, receiver, channel_by_name("dup"),
                            channel_by_name("dup"), member)
            report = cached_explore(system, cache=None)
            latencies.append(clock() - start)
            verdicts.append((member, _verdict(report)))
        answers[protocol] = verdicts
    work = sum(v[0] for verdicts in answers.values() for _, v in verdicts)
    return work, latencies, answers


def family_check(inputs, answers, oracle: bool, seed: int):
    """Theorem-1 totals always; the scalar oracle on a seeded sample."""
    invariants = {}
    for protocol, verdicts in sorted(answers.items()):
        totals = {
            "members": len(verdicts),
            "states": sum(v[0] for _, v in verdicts),
            "all_safe": sum(1 for _, v in verdicts if v[1]),
            "completion_reachable": sum(1 for _, v in verdicts if v[2]),
            "truncated": sum(1 for _, v in verdicts if v[3]),
            "violation_steps": sum(v[4] or 0 for _, v in verdicts),
        }
        expect(totals == FAMILY_KNOWN[protocol],
               f"family {protocol}: totals {totals} != {FAMILY_KNOWN[protocol]}")
        invariants[protocol] = totals
    if oracle:
        from repro.channels import channel_by_name
        from repro.kernel.system import System
        from repro.protocols import protocol_by_name
        from repro.verify.explorer import explore

        for protocol, domain, _ in inputs:
            sender, receiver = protocol_by_name(protocol, domain, len(domain))
            verdicts = answers[protocol]
            sample = random.Random(f"oracle-{protocol}:{seed}").sample(
                range(len(verdicts)), FAMILY_ORACLE_SAMPLE)
            for index in sample:
                member, verdict = verdicts[index]
                system = System(sender, receiver, channel_by_name("dup"),
                                channel_by_name("dup"), member)
                expected = _verdict(explore(system))
                expect(verdict == expected,
                       f"family {protocol} member {member}: {verdict} != oracle {expected}")
    return invariants, digest({p: [[list(m), v] for m, v in vs]
                               for p, vs in answers.items()})


# -- stabilize-cold -----------------------------------------------------------

#: (corruption mode, input items, extra domain letters) on LossyFifo(1).
STABILIZE_SHAPES = (("full", 3, 1), ("receiver-amnesia", 2, 1))
STABILIZE_PROTOCOLS = ("abp", "ss-arq")

#: (protocol, corruption) -> (corrupt sources, non-stabilizing sources).
STABILIZE_KNOWN = {
    ("abp", "full"): (2700, 1872),
    ("ss-arq", "full"): (7800, 0),
    ("abp", "receiver-amnesia"): (147, 105),
    ("ss-arq", "receiver-amnesia"): (196, 0),
}


def stabilize_inputs(seed: int):
    questions = []
    for protocol in STABILIZE_PROTOCOLS:
        for corruption, n_items, extra in STABILIZE_SHAPES:
            names = item_names(seed, n_items + extra, f"stabilize-{corruption}")
            items = names[:n_items]
            domain = tuple(sorted(names))
            for reduce in (False, True):
                questions.append((protocol, corruption, items, domain, reduce))
    return shuffled(questions, seed, "stabilize-order")


def stabilize_run(inputs, clock):
    from repro.analysis.cache import cached_stabilize
    from repro.fabric.sweep import build_stabilize_system

    latencies = []
    answers = {}
    for protocol, corruption, items, domain, reduce in inputs:
        start = clock()
        system = build_stabilize_system(protocol, "lossy-fifo", items, domain, capacity=1)
        result = cached_stabilize(system, cache=None, reduce=reduce,
                                  corruption=corruption, domain=domain)
        latencies.append(clock() - start)
        answers[(protocol, corruption, reduce)] = result
    work = sum(result.sources for result in answers.values())
    return work, latencies, answers


def stabilize_check(answers):
    invariants = {}
    for (protocol, corruption, reduce), result in sorted(answers.items()):
        sources, non_stabilizing = STABILIZE_KNOWN[(protocol, corruption)]
        got = (result.sources, result.non_stabilizing)
        expect(got == (sources, non_stabilizing),
               f"stabilize {protocol}/{corruption}/reduce={reduce}: "
               f"(sources, non-stabilizing) {got} != {(sources, non_stabilizing)}")
        expect(result.converges == (non_stabilizing == 0),
               f"stabilize {protocol}/{corruption}: converges flag disagrees")
        if reduce:
            plain = answers[(protocol, corruption, False)]
            expect(result.verdicts == plain.verdicts,
                   f"stabilize {protocol}/{corruption}: reduced verdicts differ")
        invariants[f"{protocol}/{corruption}/{reduce}"] = [
            result.sources, result.classes, result.non_stabilizing,
            result.max_depth, result.explored_states]
    summaries = {f"{p}/{c}/{r}": dict(res.summary(), engine=None, shards=None)
                 for (p, c, r), res in answers.items()}
    return invariants, digest(summaries)


# -- campaign-grid ------------------------------------------------------------

#: demo_spec-style grid: prefixes of a 10-item input x 12 seeds = 96 cells.
CAMPAIGN_LENGTH = 10
CAMPAIGN_PREFIXES = 8
CAMPAIGN_SEEDS = 12
CAMPAIGN_WORKERS = 2


def campaign_inputs(seed: int):
    """The grid spec.  Only the input order depends on the seed.

    Item names stay fixed here: the random adversary picks events by
    index among the enabled ones, whose order follows the item names,
    so renaming would change every schedule and with it the work done.
    """
    from repro.fabric.spec import FabricSpec

    names = tuple(f"d{index}" for index in range(CAMPAIGN_LENGTH))
    prefixes = [names[: CAMPAIGN_LENGTH - cut] for cut in range(CAMPAIGN_PREFIXES)]
    return FabricSpec(protocol="norepeat", channel="dup",
                      inputs=tuple(shuffled(prefixes, seed, "campaign-order")),
                      seeds=CAMPAIGN_SEEDS, deliver_weight=3.0)


def campaign_run(spec, store_dir, queue_dir, clock):
    from repro.analysis.cache import ResultCache
    from repro.fabric.coordinator import run_fabric
    from repro.fabric.merge import outcome_to_json

    start = clock()
    result = run_fabric(spec, queue_dir, ResultCache(store_dir),
                        workers=CAMPAIGN_WORKERS)
    latency = clock() - start
    return spec.cell_count, [latency], (result, outcome_to_json(result.outcome))


def campaign_check(spec, answers, oracle: bool):
    result, merged = answers
    served = result.warm_cells + sum(stats.warm for stats in result.worker_stats)
    expect(served == 0, f"campaign: {served} cells were served from the store")
    computed = sum(stats.computed for stats in result.worker_stats)
    expect(computed == spec.cell_count,
           f"campaign: {computed} cells computed, expected {spec.cell_count}")
    summary = result.outcome.summary
    invariants = {"runs": summary.runs, "completed": summary.completed,
                  "safe": summary.safe, "steps": sum(m.steps for m in result.outcome.metrics)}
    expect(summary.runs == summary.completed == summary.safe == spec.cell_count,
           f"campaign: summary {invariants} is not all-complete and safe")
    if oracle:
        from repro.fabric.merge import outcome_to_json
        from repro.kernel.rng import DeterministicRNG

        serial = outcome_to_json(spec.build_campaign().run(DeterministicRNG(0, "fabric")))
        expect(serial == merged, "campaign: fabric merge differs from serial Campaign.run")
    return invariants, hashlib.sha256(merged.encode()).hexdigest()[:16]


# -- service-mixed ------------------------------------------------------------

SERVICE_EXPLORE_PROTOCOLS = (
    "norepeat", "abp", "stenning", "gbn-2", "sr-2", "ss-arq", "reverse", "hybrid")
SERVICE_EXPLORE_LENGTHS = (3, 4, 5, 6)
#: (corruption, input items, extra domain letters) per stabilize protocol.
SERVICE_STABILIZE_SHAPES = (
    ("full", 2, 0), ("receiver-amnesia", 2, 1), ("receiver-amnesia", 3, 0))
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2


def _orders(items):
    """Three distinct repetition-free orderings of ``items``."""
    return (tuple(items), tuple(reversed(items)), tuple(items[1:]) + (items[0],))


def service_questions(seed: int) -> List[Tuple[str, Dict[str, object]]]:
    """The distinct questions, in a seed-independent canonical order."""
    names = item_names(seed, max(SERVICE_EXPLORE_LENGTHS), "service-explore")
    questions = []
    for protocol in SERVICE_EXPLORE_PROTOCOLS:
        for length in SERVICE_EXPLORE_LENGTHS:
            for order in _orders(names[:length]):
                questions.append(("explore", {"protocol": protocol, "channel": "dup",
                                              "input": list(order)}))
    for protocol in STABILIZE_PROTOCOLS:
        for corruption, n_items, extra in SERVICE_STABILIZE_SHAPES:
            names = item_names(seed, n_items + extra, f"service-{corruption}-{n_items}")
            for reduce in (False, True):
                questions.append(("stabilize", {
                    "protocol": protocol, "channel": "lossy-fifo", "capacity": 1,
                    "input": list(names[:n_items]), "domain": list(names[n_items:]),
                    "corruption": corruption, "reduce": reduce}))
    return questions


def service_inputs(seed: int):
    """The request script: every question once, a third of them thrice.

    Returns ``(questions, script)`` where ``script`` is a seeded order
    of question indices (about 100 first asks and 150 repeats).
    """
    questions = service_questions(seed)
    script = []
    for index in range(len(questions)):
        script.extend([index] * (3 if index % 3 == 0 else 2))
    return questions, shuffled(script, seed, "service-order")


def service_run(inputs, port, clock):
    """Drive the script with closed-loop clients; one record per request."""
    from repro.service.client import ServiceClient

    questions, script = inputs
    pending = deque(enumerate(script))
    lock = threading.Lock()
    records = []
    errors = []

    def client_loop() -> None:
        try:
            with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
                while True:
                    with lock:
                        if not pending:
                            return
                        position, index = pending.popleft()
                    kind, params = questions[index]
                    start = clock()
                    reply = client.call(kind, params, request_id=f"r{position}")
                    latency = clock() - start
                    with lock:
                        records.append((position, index, latency, reply))
        except Exception as error:  # reported as a failed run by the caller
            with lock:
                errors.append(f"{type(error).__name__}: {error}")

    threads = [threading.Thread(target=client_loop, name=f"client-{n}")
               for n in range(SERVICE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150.0)
    expect(not any(thread.is_alive() for thread in threads), "service: a client hung")
    expect(not errors, f"service: client failed: {errors[:1]}")
    records.sort()
    return len(records), [latency for _, _, latency, _ in records], records


def service_oracle(question):
    """The outcome a direct uncached call gives for one question."""
    from repro.analysis.cache import cached_explore, cached_stabilize
    from repro.service.requests import ServiceLimits, parse_request

    kind, params = question
    request = parse_request({"kind": kind, "params": params}, ServiceLimits())
    if kind == "explore":
        report = cached_explore(request.system(), max_states=request.max_states,
                                include_drops=request.include_drops, cache=None,
                                engine=request.engine, reduce=request.reduce)
        return request.outcome(report)
    result = cached_stabilize(request.system(), cache=None, engine=request.engine,
                              reduce=request.reduce, max_states=request.max_states,
                              include_drops=request.include_drops,
                              corruption=request.corruption, domain=request.domain)
    return request.outcome(result)


def service_check(inputs, records, stats, oracle: bool):
    questions, script = inputs
    expect(len(records) == len(script),
           f"service: {len(records)} replies for {len(script)} requests")
    outcomes: Dict[int, str] = {}
    for position, index, _, reply in records:
        expect(reply.get("type") == "result",
               f"service: request {position} answered {reply.get('type')}: "
               f"{reply.get('message')}")
        text = json.dumps(reply["outcome"], sort_keys=True)
        expect(outcomes.setdefault(index, text) == text,
               f"service: question {index} answered two different ways")
    counts = {name: stats[name] for name in ("requests", "computed", "coalesced", "warm", "shed")}
    expect(counts["computed"] + counts["coalesced"] + counts["warm"] == len(script),
           f"service: computed+coalesced+warm != {len(script)} requests: {counts}")
    expect(counts["computed"] == len(questions),
           f"service: {counts['computed']} jobs computed for {len(questions)} questions")
    expect(counts["warm"] > 0, "service: no request was served from the store")
    if oracle:
        for index, question in enumerate(questions):
            expected = json.dumps(service_oracle(question), sort_keys=True)
            expect(outcomes[index] == expected,
                   f"service: question {index} {question} differs from the direct call")
    invariants = {"requests": len(script), "questions": len(questions),
                  "computed": counts["computed"],
                  "served": counts["coalesced"] + counts["warm"]}
    return invariants, digest([outcomes[index] for index in range(len(questions))])
