"""Streaming multiprocessor model with preemption support.

An SM holds up to ``kernel.spec.tbs_per_sm`` resident thread blocks that
progress at their fixed fluid rates. Every externally visible action
(dispatch, completion, preemption, release) first advances resident
blocks to the current time, so progress accounting is exact.

Preemption follows the paper's mechanics:

* **Flush** — resident blocks drop instantly (reset circuit); their
  executed work is discarded and they go back to the scheduler's
  preempted queue to rerun from scratch.
* **Switch** — blocks halt immediately, their contexts DMA out over the
  SM's bandwidth share (serialized), then they wait in the preempted
  queue with progress intact. Restoring later costs a symmetric DMA.
* **Drain** — blocks run to completion; no new blocks are dispatched.

The SM hands itself over once every drained block finished *and* the
save DMA (if any) completed. Realized preemption latency is measured
from the preemption call to that hand-over.

While a preemption is in flight the :class:`~repro.sched.guard.PreemptionGuard`
may :meth:`~StreamingMultiprocessor.escalate` lagging blocks toward a
cheaper technique (drain→switch, drain/switch→flush) when the realized
latency is about to blow the plan's budget; the per-block hand-over
events recorded on the :class:`PreemptionRecord` feed the guard's
predicted-vs-realized calibration ledger. Whether :meth:`preempt` or
:meth:`escalate` decided it, a flushed or switched-out block leaves the
SM through :meth:`StreamingMultiprocessor._hand_off`, which frees its
slot, logs the event on the record and the trace, and queues it for
re-dispatch; ``tests/test_handover_golden.py`` pins every such path.

Plain completion is the fluid model's hottest path (~1M thread blocks
per Figure 6/7 sweep), so :meth:`StreamingMultiprocessor._complete`
runs it in one stack frame: block and kernel retirement, the
thread-block scheduler's refill loop, fresh-block construction,
dispatch and completion scheduling are inlined there instead of going
through ``mark_done`` -> ``note_completed`` -> ``on_tb_complete`` ->
``fill`` -> ``dispatch``. Every visible effect (trace events, TB and
kernel statistics, event order) matches that per-call chain bit for
bit; ``tests/test_fluid_differential.py`` runs the chain as its
reference.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappush
from typing import Deque, Dict, List, Optional, Protocol, Tuple

from repro.core.techniques import Technique
from repro.errors import (EscalationError, PreemptionError, SchedulingError,
                          SimulationError)
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Kernel
from repro.gpu.memory import MemorySubsystem
from repro.gpu.threadblock import TBState, ThreadBlock
from repro.sim.engine import Engine, Event
from repro.sim import trace as trace_mod
from repro.sim.trace import Tracer


class SMState(enum.Enum):
    """Lifecycle of an SM."""
    IDLE = "idle"
    RUNNING = "running"
    PREEMPTING = "preempting"


# Module-level aliases for the fused completion loop: enum-member and
# math-constant attribute lookups cost ~40ns each and that loop runs
# ~1M times per figure sweep.
_PENDING = TBState.PENDING
_RUNNING = TBState.RUNNING
_SAVED = TBState.SAVED
_DONE = TBState.DONE
_PREEMPTING = SMState.PREEMPTING
_INF = math.inf
_new_event = Event.__new__


@dataclass
class PreemptionRecord:
    """Outcome of one SM preemption, reported on hand-over."""

    sm_id: int
    kernel_name: str
    request_time: float
    release_time: float = 0.0
    techniques: Dict[Technique, int] = field(default_factory=dict)
    estimated_latency: float = 0.0
    estimated_overhead: float = 0.0
    #: Blocks re-planned mid-flight by the QoS guard.
    escalations: int = 0
    #: Per-block hand-over events ``(tb_index, technique, latency)``
    #: where latency is cycles since the preemption request — the
    #: realized side of the guard's per-technique calibration.
    tb_events: List[Tuple[int, str, float]] = field(default_factory=list)

    @property
    def realized_latency(self) -> float:
        """Hand-over delay actually experienced, in cycles."""
        return self.release_time - self.request_time


class SMListener(Protocol):
    """Callbacks an SM raises toward the thread-block scheduler."""

    def on_tb_complete(self, sm: "StreamingMultiprocessor", tb: ThreadBlock) -> None:
        """A block finished; the slot is free for a refill."""

    def on_tb_preempted(self, tb: ThreadBlock) -> None:
        """A flushed or switched-out block needs re-dispatching later."""

    def on_sm_released(self, sm: "StreamingMultiprocessor",
                       record: PreemptionRecord) -> None:
        """The SM finished preempting and is idle."""


class StreamingMultiprocessor:
    """One SM of the fluid-timing GPU."""

    def __init__(self, sm_id: int, config: GPUConfig, engine: Engine,
                 memory: MemorySubsystem, listener: SMListener,
                 tracer: Optional[Tracer] = None):
        self.sm_id = sm_id
        self.config = config
        self.engine = engine
        self.memory = memory
        self.listener = listener
        self.tracer = tracer
        self.state = SMState.IDLE
        self.kernel: Optional[Kernel] = None
        self.resident: List[ThreadBlock] = []
        self._completion_events: Dict[int, Event] = {}
        self._load_events: Dict[int, Event] = {}
        # preemption bookkeeping
        self._record: Optional[PreemptionRecord] = None
        self._draining: List[ThreadBlock] = []
        #: Blocks whose context-save DMA is in flight. Escalation may
        #: pull a block out mid-save (flush) or add new saves, so this
        #: is a list rather than the single pending flag it once was.
        self._saving: List[ThreadBlock] = []
        #: (vacate_time, fluid_rate) per slot emptied mid-preemption.
        self._vacated: List[tuple[float, float]] = []
        #: Save-DMA event label, built once: labels are only read on
        #: error paths, so per-call f-strings would be pure overhead.
        self._save_label = f"SM{sm_id}:save"
        #: Slot capacity under the current kernel, cached at assign()
        #: so the refill loop skips the max_slots property tower.
        self._cap = 0
        #: The kernel's preempted-block deque, cached at assign() so
        #: the refill loop skips a dict lookup per completion. None
        #: when the listener is not the thread-block scheduler (bare
        #: test listeners): those completions take the plain protocol.
        self._pq: Optional[Deque[ThreadBlock]] = None
        # Imported here, not at module scope: repro.gpu loads before
        # repro.sched during package init, so a top-level import of the
        # scheduler would be circular.
        from repro.sched.tb_scheduler import ThreadBlockScheduler
        self._sched = (listener
                       if isinstance(listener, ThreadBlockScheduler)
                       else None)

    def _trace(self, category: str, message: str, **payload) -> None:
        # Call sites guard on ``self.tracer is not None`` themselves so
        # that message formatting costs nothing when tracing is off —
        # dispatch/complete run once per thread block, millions of times
        # per sweep.
        self.tracer.emit(self.engine.now, category, message,
                         sm=self.sm_id, **payload)

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------

    @property
    def max_slots(self) -> int:
        """Resident-block capacity under the current kernel."""
        if self.kernel is None:
            return 0
        return min(self.kernel.spec.tbs_per_sm, self.config.max_tbs_per_sm)

    @property
    def free_slots(self) -> int:
        """Open resident-block slots."""
        return self.max_slots - len(self.resident)

    @property
    def is_preempting(self) -> bool:
        """True while a preemption is in flight."""
        return self.state is SMState.PREEMPTING

    def advance(self) -> None:
        """Bring all resident blocks' progress up to the current time."""
        now = self.engine.now
        for tb in self.resident:
            tb.advance_to(now)

    # ------------------------------------------------------------------
    # assignment and dispatch
    # ------------------------------------------------------------------

    def assign(self, kernel: Kernel) -> None:
        """Bind an idle SM to a kernel."""
        if self.state is not SMState.IDLE or self.resident:
            raise SchedulingError(f"SM{self.sm_id}: assign while busy")
        self.kernel = kernel
        self.state = SMState.RUNNING
        self._cap = min(kernel.spec.tbs_per_sm, self.config.max_tbs_per_sm)
        if self._sched is not None:
            # Materialize the deque eagerly (on_tb_preempted would
            # setdefault the same entry later) so the hot loop holds a
            # direct reference instead of re-fetching it per event.
            self._pq = self._sched._preempted.setdefault(kernel.kernel_id,
                                                         deque())
        if self.tracer is not None:
            self._trace(trace_mod.ASSIGN, f"SM{self.sm_id} -> {kernel.name}",
                        kernel=kernel.name)

    def unassign(self) -> None:
        """Detach from a kernel once nothing is resident."""
        if self.resident:
            raise SchedulingError(f"SM{self.sm_id}: unassign with resident blocks")
        if self.state is SMState.PREEMPTING:
            raise SchedulingError(f"SM{self.sm_id}: unassign mid-preemption")
        kernel = self.kernel
        self.kernel = None
        self.state = SMState.IDLE
        if kernel is not None and self.tracer is not None:
            self._trace(trace_mod.IDLE, f"SM{self.sm_id} <- {kernel.name}",
                        kernel=kernel.name)

    def dispatch(self, tb: ThreadBlock) -> None:
        """Place a block on this SM. Saved blocks pay a restore DMA
        before they start progressing."""
        if self.state is not SMState.RUNNING or self.kernel is None:
            raise SchedulingError(f"SM{self.sm_id}: dispatch while {self.state.value}")
        if tb.kernel is not self.kernel:
            raise SchedulingError(
                f"SM{self.sm_id}: block of {tb.kernel.name} on SM running "
                f"{self.kernel.name}")
        if self.free_slots <= 0:
            raise SchedulingError(f"SM{self.sm_id}: no free slot")
        now = self.engine.now
        self.resident.append(tb)
        self.kernel.note_resident(tb)
        if self.tracer is not None:
            self._trace(trace_mod.DISPATCH, f"{tb.kernel.name}#{tb.index}",
                        kernel=tb.kernel.name, tb=tb.index,
                        restored=tb.state is TBState.SAVED)
        if tb.state is TBState.SAVED:
            tb.begin_load(now)
            load_cycles = self.memory.record_dma(tb.context_bytes, self.sm_id)
            self.kernel.stats.stall_insts += load_cycles * tb.rate
            # No label: this fires once per restored TB — millions per
            # sweep — and labels are only read on error paths.
            self._load_events[tb.index] = self.engine.schedule(
                load_cycles, lambda: self._finish_load(tb))
        else:
            tb.start_running(now)
            self._schedule_completion(tb)

    def _finish_load(self, tb: ThreadBlock) -> None:
        self._load_events.pop(tb.index, None)
        tb.start_running(self.engine.now)
        self._schedule_completion(tb)

    def _schedule_completion(self, tb: ThreadBlock) -> None:
        delay = tb.completion_delay()
        # No label: the per-TB completion event is the hottest schedule
        # call in the fluid model (once per TB per dispatch).
        self._completion_events[tb.index] = self.engine.schedule(
            delay, lambda: self._complete(tb))

    def _complete(self, tb: ThreadBlock) -> None:
        self._completion_events.pop(tb.index, None)
        engine = self.engine
        now = engine._now
        # Inlined mark_done: only the cycle counter survives the final
        # advance (executed_insts is overwritten with the total).
        last = tb._last_advance
        if last is not None and tb.state is _RUNNING:
            dt = now - last
            if dt < 0:
                raise SimulationError(
                    f"TB {tb.index}: time went backwards ({last} -> {now})")
            tb.executed_cycles += dt
        tb.executed_insts = total = tb.total_insts
        tb.state = _DONE
        tb.finish_time = now
        tb._last_advance = None
        resident = self.resident
        resident.remove(tb)
        kernel = tb.kernel
        # Inlined Kernel.note_completed (O(1) live-map removal).
        try:
            del kernel._live[tb.index]
        except KeyError:
            raise SimulationError(f"{tb!r} was not resident") from None
        stats = kernel.stats
        stats.tbs_completed += 1
        stats.insts_retired += total
        stats.cycles_retired += tb.executed_cycles
        stats.tb_insts_sumsq += total * total
        if total > stats.tb_insts_max:
            stats.tb_insts_max = total
        if self.state is _PREEMPTING:
            self._drained(tb, now)
            return
        tracer = self.tracer
        if tracer is not None:
            self._trace(trace_mod.COMPLETE, f"{kernel.name}#{tb.index}",
                        kernel=kernel.name, tb=tb.index)
        pq = self._pq
        if pq is None:
            self.listener.on_tb_complete(self, tb)
            return
        # Fused ThreadBlockScheduler.on_tb_complete + fill: the hottest
        # callback in the fluid model, once per plain completion.
        sched = self._sched
        if stats.tbs_completed >= kernel.grid_tbs:
            sched.kernel_scheduler.on_kernel_finished(kernel)
            return
        cap = self._cap
        grid = kernel.grid_tbs
        totals = kernel._tb_totals
        rates = kernel._tb_rates
        fracs = kernel._nonidem_fracs
        live = kernel._live
        seq_counter = engine._seq
        heap = engine._queue
        events = self._completion_events
        complete = self._complete
        new_tb = ThreadBlock.__new__
        dispatched = False
        while len(resident) < cap:
            if pq:
                nxt = pq.popleft()
                if nxt.state is _SAVED:
                    # Switched block: full restore path (DMA + load).
                    self.dispatch(nxt)
                    dispatched = True
                    continue
            elif (index := kernel._next_index) < grid:
                # Inlined Kernel.make_tb + ThreadBlock.__init__ (the
                # batch draws already guarantee positive totals and
                # rates, so the constructor's checks are redundant).
                kernel._next_index = index + 1
                nxt = new_tb(ThreadBlock)
                nxt.kernel = kernel
                nxt.index = index
                nxt.total_insts = t = totals[index]
                nxt.rate = rates[index]
                nxt.nonidem_at = (_INF if fracs is None
                                  else fracs[index] * t)
                nxt.state = _PENDING
                nxt.executed_insts = 0.0
                nxt.executed_cycles = 0.0
                nxt.flush_count = 0
                nxt._last_advance = None
                nxt.dispatch_time = None
                nxt.finish_time = None
            else:
                break
            # Inlined dispatch + start_running + completion scheduling
            # for fresh and flushed (non-SAVED) blocks. The loop holds
            # the invariants dispatch() re-validates per call: the SM
            # is RUNNING, the block belongs to this kernel, a slot is
            # free.
            resident.append(nxt)
            nidx = nxt.index
            live[nidx] = nxt
            if tracer is not None:
                self._trace(trace_mod.DISPATCH, f"{kernel.name}#{nidx}",
                            kernel=kernel.name, tb=nidx, restored=False)
            if nxt.state is _DONE:
                raise SimulationError(f"TB {nidx} already done")
            nxt.state = _RUNNING
            nxt._last_advance = now
            if nxt.dispatch_time is None:
                nxt.dispatch_time = now
            # executed_insts is 0.0 for every block on this path (fresh
            # blocks and flushed reruns; restored ones took the SAVED
            # branch), so completion_delay()'s max(0.0, ...) clamp is a
            # no-op here.
            delay = (nxt.total_insts - nxt.executed_insts) / nxt.rate
            # Inlined Engine.schedule: delay is non-negative by
            # construction and the completion event carries no label.
            # partial() fires C-level, saving a Python frame per
            # completion relative to a lambda.
            event = _new_event(Event)
            event.time = when = now + delay
            event.seq = seq = next(seq_counter)
            event.callback = partial(complete, nxt)
            event.label = ""
            event._cancelled = False
            event._engine = engine
            heappush(heap, (when, seq, event))
            engine._live += 1
            events[nidx] = event
            dispatched = True
        if dispatched and kernel._next_index >= grid:
            sched.kernel_scheduler.note_fully_dispatched(kernel)
        if not resident and not pq and kernel._next_index >= grid:
            # Size-bound tail: the kernel cannot use this SM any more.
            self.unassign()
            sched.kernel_scheduler.on_sm_idle(self)

    def _drained(self, tb: ThreadBlock, now: float) -> None:
        """Hand-over bookkeeping for a block that retired while its SM
        was preempting (a drained block)."""
        if tb in self._draining:
            self._draining.remove(tb)
        self._vacated.append((now, tb.rate))
        if self._record is not None:
            self._record.tb_events.append(
                (tb.index, Technique.DRAIN.value,
                 now - self._record.request_time))
        if self.tracer is not None:
            self._trace(trace_mod.DRAIN, f"{tb.kernel.name}#{tb.index}",
                        kernel=tb.kernel.name, tb=tb.index)
        self._maybe_release()

    # ------------------------------------------------------------------
    # preemption
    # ------------------------------------------------------------------

    def preempt(self, plan: Dict[ThreadBlock, Technique],
                estimated_latency: float = 0.0,
                estimated_overhead: float = 0.0) -> PreemptionRecord:
        """Execute a per-block preemption plan.

        ``plan`` must cover exactly the resident blocks. Returns the
        record that will be completed (release_time filled) when the SM
        hands over.
        """
        if self.state is not SMState.RUNNING or self.kernel is None:
            raise PreemptionError(
                f"SM{self.sm_id}: preempt while {self.state.value}",
                sim_time=self.engine.now, sm_id=self.sm_id,
                kernel=self.kernel.name if self.kernel else None)
        if set(plan) != set(self.resident):
            raise PreemptionError(
                f"SM{self.sm_id}: plan does not cover resident blocks",
                sim_time=self.engine.now, sm_id=self.sm_id,
                kernel=self.kernel.name)
        now = self.engine.now
        self.advance()
        record = PreemptionRecord(
            sm_id=self.sm_id, kernel_name=self.kernel.name, request_time=now,
            estimated_latency=estimated_latency,
            estimated_overhead=estimated_overhead)
        for tech in Technique:
            count = sum(1 for t in plan.values() if t is tech)
            if count:
                record.techniques[tech] = count

        self.state = SMState.PREEMPTING
        self._record = record
        self._draining = []
        self._saving = []
        self._vacated = []

        switched: List[ThreadBlock] = []
        for tb, tech in plan.items():
            if tech is Technique.FLUSH:
                self._flush(tb, now)
            elif tech is Technique.SWITCH:
                if tb.state is TBState.LOADING:
                    # Load was in flight: abandon it; context is still
                    # in memory, so the block reverts to SAVED for free.
                    self._cancel_tb_events(tb)
                    tb.state = TBState.SAVED
                    self._hand_off(tb, Technique.SWITCH, now, trace_mod.SWITCH,
                                   context_bytes=tb.context_bytes,
                                   from_load=True)
                else:
                    switched.append(tb)
            elif tech is Technique.DRAIN:
                self._draining.append(tb)
                self._maybe_stall_drain(tb)
            else:  # pragma: no cover - exhaustive enum
                raise PreemptionError(f"unknown technique {tech}")

        if switched:
            self._start_save(switched, now)
        self._maybe_release()
        return record

    def _hand_off(self, tb: ThreadBlock, technique: Technique, now: float,
                  category: str, **payload) -> None:
        """A flushed or switched-out block leaves the preempting SM:
        free its slot, log the hand-over on the record and the trace,
        and queue the block for re-dispatch."""
        kernel = self.kernel
        record = self._record
        kernel.note_off_sm(tb)
        self.resident.remove(tb)
        self._vacated.append((now, tb.rate))
        record.tb_events.append(
            (tb.index, technique.value, now - record.request_time))
        if self.tracer is not None:
            self._trace(category, f"{kernel.name}#{tb.index}",
                        kernel=kernel.name, tb=tb.index, **payload)
        self.listener.on_tb_preempted(tb)

    def _flush(self, tb: ThreadBlock, now: float,
               escalated: bool = False) -> None:
        """Drop ``tb``'s progress with the reset circuit and hand it off."""
        self._cancel_tb_events(tb)
        # Snapshot before flush() resets the block.
        idempotent = tb.idempotent_now
        executed = tb.executed_insts
        discarded = tb.flush(now)
        self.kernel.stats.insts_discarded += discarded
        extra = {"escalated": True} if escalated else {}
        if tb.nonidem_at != _INF:
            extra["nonidem_at"] = tb.nonidem_at
        self._hand_off(tb, Technique.FLUSH, now, trace_mod.FLUSH,
                       discarded=discarded, executed=executed,
                       idempotent=idempotent, **extra)

    def _start_save(self, switched: List[ThreadBlock], now: float) -> None:
        """Halt ``switched`` and kick off one serialized context-save DMA
        for them."""
        kernel = self.kernel
        for tb in switched:
            self._cancel_tb_events(tb)
            tb.halt(now)
        self._saving.extend(switched)
        save_cycles = self.memory.record_dma(
            sum(tb.context_bytes for tb in switched), self.sm_id)
        for tb in switched:
            kernel.stats.stall_insts += save_cycles * tb.rate
        self.engine.schedule(save_cycles, lambda: self._finish_save(switched),
                             self._save_label)

    def _maybe_stall_drain(self, tb: ThreadBlock) -> None:
        """Apply ``config.drain_stall`` to a freshly draining block: the
        straggler occupies its slot that many times its remaining time.
        At 1.0 the completion event stays in place."""
        factor = self.config.drain_stall
        if factor == 1.0:
            return
        event = self._completion_events.pop(tb.index, None)
        if event is None:
            return  # no completion in flight (e.g. restore DMA pending)
        event.cancel()
        delay = max(0.0, event.time - self.engine.now) * factor
        self._completion_events[tb.index] = self.engine.schedule(
            delay, lambda: self._complete(tb))

    def _cancel_tb_events(self, tb: ThreadBlock) -> None:
        event = self._completion_events.pop(tb.index, None)
        if event is not None:
            event.cancel()
        load = self._load_events.pop(tb.index, None)
        if load is not None:
            load.cancel()

    def _finish_save(self, switched: List[ThreadBlock]) -> None:
        now = self.engine.now
        # Escalation may have flushed members of this batch mid-save, or
        # resolved the whole preemption; act only on the still-saving.
        pending = [tb for tb in switched if tb in self._saving]
        if not pending:
            return
        if self.kernel is None or self._record is None:
            raise PreemptionError(
                f"SM{self.sm_id}: save DMA completed with no preemption "
                f"in flight", sim_time=now, sm_id=self.sm_id)
        for tb in pending:
            self._saving.remove(tb)
            tb.save_context(now)
            self._hand_off(tb, Technique.SWITCH, now, trace_mod.SWITCH,
                           context_bytes=tb.context_bytes, from_load=False)
        self._maybe_release()

    def _maybe_release(self) -> None:
        if self.state is not SMState.PREEMPTING:
            return
        if self._draining or self._saving:
            return
        if self._record is None or self.kernel is None:
            raise PreemptionError(
                f"SM{self.sm_id}: preempting with no record or kernel",
                sim_time=self.engine.now, sm_id=self.sm_id)
        now = self.engine.now
        record = self._record
        record.release_time = now
        kernel = self.kernel
        # Slots vacated before the hand-over did no useful work while
        # the stragglers finished: charge that as idle-slot overhead.
        for vacated_at, rate in self._vacated:
            idle = now - vacated_at
            if idle > 0:
                kernel.stats.idle_slot_insts += idle * rate
        self._record = None
        self._vacated = []
        self.kernel = None
        self.state = SMState.IDLE
        self.listener.on_sm_released(self, record)

    # ------------------------------------------------------------------
    # mid-flight escalation (QoS guard)
    # ------------------------------------------------------------------

    def preempting_blocks(self) -> Tuple[List[ThreadBlock], List[ThreadBlock]]:
        """The blocks still in flight for the current preemption,
        advanced to now: ``(draining, saving)``. Empty lists when not
        preempting."""
        self.advance()
        return (list(self._draining), list(self._saving))

    def escalate(self, assignments: Dict[ThreadBlock, Technique]) -> None:
        """Re-plan lagging blocks of an in-flight preemption.

        ``assignments`` maps still-in-flight blocks to cheaper
        techniques per the paper's cost ordering: a draining block may
        escalate to SWITCH or (if still idempotent) FLUSH; a block whose
        context save is in flight may only escalate to FLUSH. Raises
        :class:`~repro.errors.EscalationError` for anything else. May
        synchronously resolve the preemption (hand the SM over) before
        returning.
        """
        now = self.engine.now
        if self.state is not SMState.PREEMPTING or self._record is None:
            raise EscalationError(
                f"SM{self.sm_id}: escalate with no preemption in flight",
                sim_time=now, sm_id=self.sm_id)
        kernel = self.kernel
        record = self._record
        self.advance()
        switched: List[ThreadBlock] = []
        for tb, tech in assignments.items():
            if tb in self._draining:
                old, source, phase = Technique.DRAIN, self._draining, "draining"
                legal = tech is Technique.FLUSH or tech is Technique.SWITCH
            elif tb in self._saving:
                old, source, phase = Technique.SWITCH, self._saving, "saving"
                legal = tech is Technique.FLUSH
            else:
                raise EscalationError(
                    f"SM{self.sm_id}: block {kernel.name}#{tb.index} is not "
                    f"in flight for this preemption",
                    sim_time=now, sm_id=self.sm_id, kernel=kernel.name)
            if not legal:
                raise EscalationError(
                    f"SM{self.sm_id}: cannot escalate {phase} block "
                    f"to {tech.value}", sim_time=now, sm_id=self.sm_id,
                    kernel=kernel.name)
            if tech is Technique.FLUSH and not tb.idempotent_now:
                raise EscalationError(
                    f"SM{self.sm_id}: flush-escalate past "
                    f"non-idempotent point ({kernel.name}#{tb.index})",
                    sim_time=now, sm_id=self.sm_id, kernel=kernel.name)
            source.remove(tb)
            self._shift_technique(record, old, tech)
            if tech is Technique.FLUSH:
                self._flush(tb, now, escalated=True)
            else:
                switched.append(tb)
        record.escalations += len(assignments)
        if switched:
            self._start_save(switched, now)
        self._maybe_release()

    @staticmethod
    def _shift_technique(record: PreemptionRecord, old: Technique,
                         new: Technique) -> None:
        """Move one block's count in ``record.techniques`` on escalation."""
        remaining = record.techniques.get(old, 0) - 1
        if remaining > 0:
            record.techniques[old] = remaining
        else:
            record.techniques.pop(old, None)
        record.techniques[new] = record.techniques.get(new, 0) + 1

    def abort_all(self) -> List[ThreadBlock]:
        """Drop every resident block without preserving anything.

        Used when a kernel is killed (missed-deadline real-time task).
        Returns the dropped blocks. The SM stays assigned; the caller
        unassigns it.
        """
        if self.state is SMState.PREEMPTING:
            raise PreemptionError(
                f"SM{self.sm_id}: abort mid-preemption",
                sim_time=self.engine.now, sm_id=self.sm_id,
                kernel=self.kernel.name if self.kernel else None)
        self.advance()
        dropped: List[ThreadBlock] = []
        for tb in list(self.resident):
            self._cancel_tb_events(tb)
            self.resident.remove(tb)
            self.kernel.note_off_sm(tb)
            if self.tracer is not None:
                self._trace(trace_mod.ABORT, f"{tb.kernel.name}#{tb.index}",
                            kernel=tb.kernel.name, tb=tb.index)
            dropped.append(tb)
        return dropped

    # ------------------------------------------------------------------
    # introspection for the cost model
    # ------------------------------------------------------------------

    def resident_snapshot(self) -> List[ThreadBlock]:
        """Advance and return resident blocks (cost model input)."""
        self.advance()
        return list(self.resident)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        who = self.kernel.name if self.kernel else "-"
        return f"<SM{self.sm_id} {self.state.value} {who} {len(self.resident)} TBs>"
