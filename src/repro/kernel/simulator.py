"""Adversary-driven run loops.

The simulator repeatedly asks an *adversary* (any object with a
``choose(system, trace, enabled)`` method; see
:class:`repro.adversaries.base.Adversary`) which enabled event to schedule
next, applies it, and records the trace.  It stops when the output tape is
complete, when the adversary yields, or when a step limit is hit.

Safety is checked after every step by default, so a single simulation both
exercises a protocol and acts as a runtime verification oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro import obs
from repro.kernel.errors import SimulationError
from repro.kernel.system import Configuration, Event, System
from repro.kernel.trace import Trace


@dataclass(frozen=True)
class StepBudgetExceeded:
    """Typed record of a run that exhausted its step budget.

    Replaces the old untyped "ran until max_steps" outcome: a result
    carrying one of these hit the step limit without stopping for any
    deliberate reason (completion under ``stop_when_complete``, an
    adversary yield, or a violation under ``stop_on_violation``).

    Attributes:
        max_steps: the budget that was exhausted.
        last_event: the final event scheduled before exhaustion (None for
            a zero-length trace, which cannot happen with a positive
            budget).
        output_written: how many items had been written at exhaustion.
    """

    max_steps: int
    last_event: Optional[Event]
    output_written: int


@dataclass(frozen=True)
class RecoveryMetrics:
    """Post-fault recovery measurements of one run (the Section 5 lens).

    Attached to :class:`SimulationResult` whenever the scheduling
    adversary exposes a ``first_fault_time`` (the fault-plan adversaries
    of :mod:`repro.adversaries.fault` do).

    Attributes:
        fault_time: the step at which the first fault fired.
        resynced: True if some item was written after the fault.
        time_to_resync: steps from the fault to the first post-fault
            write (None if the run never resynchronized).
        retransmissions: post-fault sender messages that repeat an
            earlier send -- the protocol's repair traffic.
        wasted_steps: post-fault steps that produced no new output item
            (the whole post-fault suffix when the run never resynced).
    """

    fault_time: int
    resynced: bool
    time_to_resync: Optional[int]
    retransmissions: int
    wasted_steps: int


def measure_recovery(
    trace: Trace, fault_time: Optional[int], total_steps: int
) -> Optional[RecoveryMetrics]:
    """Derive :class:`RecoveryMetrics` from a finished trace.

    Returns None when no fault fired.  ``total_steps`` is the run length
    (``len(trace)``); passed explicitly so callers can measure prefixes.
    """
    if fault_time is None:
        return None
    resync_time = next(
        (t for t in trace.write_times() if t > fault_time), None
    )
    seen = set()
    retransmissions = 0
    for position, message in trace.messages_sent_to_receiver():
        if position >= fault_time and message in seen:
            retransmissions += 1
        seen.add(message)
    if resync_time is not None:
        wasted = max(resync_time - fault_time - 1, 0)
    else:
        wasted = max(total_steps - fault_time, 0)
    metrics = RecoveryMetrics(
        fault_time=fault_time,
        resynced=resync_time is not None,
        time_to_resync=(
            resync_time - fault_time if resync_time is not None else None
        ),
        retransmissions=retransmissions,
        wasted_steps=wasted,
    )
    if obs.enabled():
        # Recovery measurements land in the metrics registry at the
        # moment they are derived -- consumers (the chaos report, the
        # nightly CI assertion) read them from here instead of scraping
        # traces post-hoc.
        obs.add("recovery.faults")
        if metrics.resynced:
            obs.add("recovery.resynced")
        if metrics.time_to_resync is not None:
            obs.observe("recovery.time_to_resync", metrics.time_to_resync)
        obs.observe("recovery.retransmissions", metrics.retransmissions)
        obs.observe("recovery.wasted_steps", metrics.wasted_steps)
    return metrics


@dataclass(frozen=True)
class SimulationResult:
    """The outcome of one simulated run.

    Attributes:
        trace: the full recorded execution.
        completed: True if the whole input sequence was written.
        safe: True if Safety (``Y`` prefix of ``X``) held at every point.
        steps: number of events scheduled.
        stopped_by_adversary: True if the adversary yielded before
            completion or the step limit.
        first_violation_time: the earliest point at which Safety failed,
            or None if it never did.
        budget_exceeded: typed record of step-budget exhaustion, or None
            when the run stopped for any deliberate reason.
        recovery: post-fault :class:`RecoveryMetrics` when the adversary
            injected faults, else None.
    """

    trace: Trace
    completed: bool
    safe: bool
    steps: int
    stopped_by_adversary: bool
    first_violation_time: Optional[int]
    budget_exceeded: Optional[StepBudgetExceeded] = None
    recovery: Optional[RecoveryMetrics] = None


class Simulator:
    """Runs one system to completion (or violation, or exhaustion).

    Args:
        system: the system to execute.
        adversary: the delivery/step scheduler.
        max_steps: hard limit on scheduled events.
        stop_on_violation: stop as soon as Safety fails (the violation is
            still recorded in the result).
        stop_when_complete: stop once the output tape equals the input tape
            (useful to keep message-count metrics comparable).
    """

    def __init__(
        self,
        system: System,
        adversary,
        max_steps: int = 10_000,
        stop_on_violation: bool = True,
        stop_when_complete: bool = True,
    ) -> None:
        if max_steps <= 0:
            raise SimulationError(f"max_steps must be positive, got {max_steps}")
        self.system = system
        self.adversary = adversary
        self.max_steps = max_steps
        self.stop_on_violation = stop_on_violation
        self.stop_when_complete = stop_when_complete

    def run(self) -> SimulationResult:
        """Execute the run loop and return the result.

        The adversary's per-run bookkeeping is reset first, so a single
        adversary instance can drive many runs.
        """
        if not obs.enabled():
            return self._run(None)
        with obs.span("simulate", compiled=False) as _span:
            return self._run(_span)

    def _run(self, _span) -> SimulationResult:
        reset = getattr(self.adversary, "reset", None)
        if reset is not None:
            reset()
        trace = Trace(self.system)
        first_violation: Optional[int] = None
        stopped_by_adversary = False

        if not self.system.output_is_safe(trace.initial):
            first_violation = 0

        while len(trace) < self.max_steps:
            if first_violation is not None and self.stop_on_violation:
                break
            if self.stop_when_complete and self.system.output_is_complete(trace.last):
                break
            enabled = self.system.enabled_events(trace.last)
            event = self.adversary.choose(self.system, trace, enabled)
            if event is None:
                stopped_by_adversary = True
                break
            if event not in enabled:
                raise SimulationError(
                    f"adversary chose disabled event {event!r} at step "
                    f"{len(trace)}; enabled: {enabled!r}"
                )
            try:
                config = trace.extend(event)
            except SimulationError as error:
                raise SimulationError(
                    f"applying event {event!r} at step {len(trace)} "
                    f"failed: {error}"
                ) from error
            if first_violation is None and not self.system.output_is_safe(config):
                first_violation = len(trace)

        completed = self.system.output_is_complete(trace.last)
        budget: Optional[StepBudgetExceeded] = None
        if (
            len(trace) >= self.max_steps
            and not stopped_by_adversary
            and not (self.stop_when_complete and completed)
            and not (first_violation is not None and self.stop_on_violation)
        ):
            budget = StepBudgetExceeded(
                max_steps=self.max_steps,
                last_event=trace.steps[-1].event if trace.steps else None,
                output_written=len(trace.last.output),
            )
        recovery = measure_recovery(
            trace,
            getattr(self.adversary, "first_fault_time", None),
            len(trace),
        )
        if obs.enabled() and _span is not None:
            obs.add("simulator.runs")
            obs.add("simulator.steps", len(trace))
            _span.set(steps=len(trace), completed=completed)
        return SimulationResult(
            trace=trace,
            completed=completed,
            safe=first_violation is None,
            steps=len(trace),
            stopped_by_adversary=stopped_by_adversary,
            first_violation_time=first_violation,
            budget_exceeded=budget,
            recovery=recovery,
        )


def simulate_compiled(
    system: System,
    adversary,
    max_steps: int = 10_000,
    stop_on_violation: bool = True,
    stop_when_complete: bool = True,
    compiled=None,
) -> SimulationResult:
    """Integer fast path of :class:`Simulator` over a compiled table.

    Runs the same loop as :meth:`Simulator.run` but resolves enabled
    events, successor configurations, and the safety/completion predicates
    through a :class:`repro.kernel.compiled.CompiledSystem`, so each
    distinct (configuration, event) pair pays the protocol and channel
    transition functions at most once -- every revisit (retransmission
    loops, ack floods, quiescent periods) is a dictionary lookup.  The
    returned :class:`SimulationResult` is **bit-identical** to the
    object-graph path: the adversary sees the same ``system``, the same
    growing :class:`~repro.kernel.trace.Trace`, and the same enabled-event
    tuples, and the recorded configurations are equal value-for-value.

    Args:
        compiled: an existing table for ``system`` to reuse (warm tables
            skip compilation entirely); ``None`` compiles lazily.

    Other arguments match :class:`Simulator`.
    """
    if not obs.enabled():
        return _simulate_compiled(
            system,
            adversary,
            max_steps,
            stop_on_violation,
            stop_when_complete,
            compiled,
            None,
        )
    with obs.span("simulate", compiled=True) as _span:
        return _simulate_compiled(
            system,
            adversary,
            max_steps,
            stop_on_violation,
            stop_when_complete,
            compiled,
            _span,
        )


def _simulate_compiled(
    system: System,
    adversary,
    max_steps: int,
    stop_on_violation: bool,
    stop_when_complete: bool,
    compiled,
    _span,
) -> SimulationResult:
    from repro.kernel.compiled import CompiledSystem
    from repro.kernel.trace import TraceStep

    if max_steps <= 0:
        raise SimulationError(f"max_steps must be positive, got {max_steps}")
    table = compiled if compiled is not None else CompiledSystem(system)
    reset = getattr(adversary, "reset", None)
    if reset is not None:
        reset()
    trace = Trace(system)
    state_id = table.initial_id()
    first_violation: Optional[int] = None
    stopped_by_adversary = False

    if not table.is_safe(state_id):
        first_violation = 0

    while len(trace) < max_steps:
        if first_violation is not None and stop_on_violation:
            break
        if stop_when_complete and table.is_complete(state_id):
            break
        enabled = table.enabled(state_id)
        event = adversary.choose(system, trace, enabled)
        if event is None:
            stopped_by_adversary = True
            break
        if event not in enabled:
            raise SimulationError(
                f"adversary chose disabled event {event!r} at step "
                f"{len(trace)}; enabled: {enabled!r}"
            )
        try:
            state_id = table.step(state_id, event)
        except SimulationError as error:
            raise SimulationError(
                f"applying event {event!r} at step {len(trace)} "
                f"failed: {error}"
            ) from error
        trace.steps.append(
            TraceStep(event=event, config=table.config_of(state_id))
        )
        if first_violation is None and not table.is_safe(state_id):
            first_violation = len(trace)

    completed = table.is_complete(state_id)
    budget: Optional[StepBudgetExceeded] = None
    if (
        len(trace) >= max_steps
        and not stopped_by_adversary
        and not (stop_when_complete and completed)
        and not (first_violation is not None and stop_on_violation)
    ):
        budget = StepBudgetExceeded(
            max_steps=max_steps,
            last_event=trace.steps[-1].event if trace.steps else None,
            output_written=len(trace.last.output),
        )
    recovery = measure_recovery(
        trace,
        getattr(adversary, "first_fault_time", None),
        len(trace),
    )
    if obs.enabled() and _span is not None:
        obs.add("simulator.runs")
        obs.add("simulator.steps", len(trace))
        _span.set(steps=len(trace), completed=completed)
    return SimulationResult(
        trace=trace,
        completed=completed,
        safe=first_violation is None,
        steps=len(trace),
        stopped_by_adversary=stopped_by_adversary,
        first_violation_time=first_violation,
        budget_exceeded=budget,
        recovery=recovery,
    )


def run_protocol(
    sender,
    receiver,
    channel_sr,
    channel_rs,
    input_sequence: Tuple,
    adversary,
    max_steps: int = 10_000,
) -> SimulationResult:
    """Convenience wrapper: build the system and run it once."""
    system = System(
        sender=sender,
        receiver=receiver,
        channel_sr=channel_sr,
        channel_rs=channel_rs,
        input_sequence=tuple(input_sequence),
    )
    return Simulator(system, adversary, max_steps=max_steps).run()
