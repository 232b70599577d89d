"""A small discrete-event simulation engine.

The engine keeps a priority queue of :class:`Event` objects keyed by
firing time. Components schedule callbacks and may cancel events they
previously scheduled (lazy cancellation: the heap entry stays, the event
is skipped when popped). Ties in time break by insertion order so runs
are deterministic.

The heap stores ``(time, seq, event)`` tuples: ``seq`` is unique, so
tuple comparison never falls through to the event object and the heap
never calls a Python-level ``__lt__`` during sift operations.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Union

from repro.errors import SimulationError

#: Labels may be plain strings or zero-argument callables producing one.
#: Callables are only invoked on the cold paths (``repr`` and error
#: messages), so hot schedulers can avoid building f-strings per event.
Label = Union[str, Callable[[], str]]


class Event:
    """A scheduled callback.

    Events are created through :meth:`Engine.schedule` and can be
    cancelled with :meth:`cancel`. A cancelled event is never fired.
    """

    __slots__ = ("time", "seq", "callback", "label", "_cancelled", "_engine")

    def __init__(self, time: float, seq: int, callback: Callable[[], None], label: Label,
                 engine: Optional["Engine"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self._cancelled = False
        self._engine = engine

    def label_text(self) -> str:
        """The label, resolving a lazy (callable) label if needed."""
        label = self.label
        return label() if callable(label) else label

    def cancel(self) -> None:
        """Mark this event so that it is skipped when popped."""
        if not self._cancelled:
            self._cancelled = True
            if self._engine is not None:
                self._engine._note_cancelled()

    @property
    def cancelled(self) -> bool:
        """True when cancel() was called."""
        return self._cancelled

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " cancelled" if self._cancelled else ""
        return f"<Event {self.label_text()!r} @ {self.time:.1f}{flag}>"


class Engine:
    """Priority-queue discrete-event simulator.

    Time is a float in GPU core cycles. The engine never advances time
    backwards; scheduling an event in the past raises
    :class:`~repro.errors.SimulationError`.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._fired = 0
        #: Live (scheduled, not yet fired, not cancelled) event count,
        #: maintained incrementally so pending_events is O(1).
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    @property
    def fired_events(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._fired

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the queue."""
        return self._live

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by Event.cancel()."""
        self._live -= 1

    def schedule(self, delay: float, callback: Callable[[], None], label: Label = "") -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now.

        ``label`` is optional debug metadata: a string, or a zero-arg
        callable resolved only when the label is actually displayed.
        Hot paths should omit it (or pass a callable) rather than build
        per-event f-strings.
        """
        if delay < 0:
            text = label() if callable(label) else label
            raise SimulationError(f"cannot schedule event {text!r} in the past (delay={delay})")
        event = Event(self._now + delay, next(self._seq), callback, label, engine=self)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable[[], None], label: Label = "") -> Event:
        """Schedule ``callback`` to fire at absolute ``time``."""
        return self.schedule(time - self._now, callback, label)

    def schedule_at_exact(self, time: float, callback: Callable[[], None],
                          label: Label = "") -> Event:
        """Schedule ``callback`` at *exactly* absolute ``time``.

        :meth:`schedule_at` reconstructs the timestamp as
        ``now + (time - now)``, which can differ from ``time`` by an
        ulp once ``now`` is nonzero. Chained schedulers (each event
        scheduling the next from a precomputed timeline) need the exact
        value, or replays stop being bit-identical to the
        schedule-everything-up-front form.
        """
        if time < self._now:
            text = label() if callable(label) else label
            raise SimulationError(
                f"cannot schedule event {text!r} in the past "
                f"(time={time}, now={self._now})")
        event = Event(time, next(self._seq), callback, label, engine=self)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        self._live += 1
        return event

    def clear(self) -> None:
        """Drop every pending event, and each one's callback with it.

        For a finished run: a pending callback usually holds the
        component that scheduled it, which often holds the event, so
        dropping the callback breaks that cycle even where the event
        itself stays referenced.
        """
        for _, _, event in self._queue:
            event.callback = None
        self._queue.clear()
        self._live = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Fire the next live event. Returns False when the queue is empty."""
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event._cancelled:
                continue
            if event.time < self._now:
                raise SimulationError(
                    f"event {event.label_text()!r} scheduled at {event.time} but now is {self._now}"
                )
            self._now = event.time
            self._fired += 1
            self._live -= 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None,
            stop: Optional[Callable[[], bool]] = None) -> None:
        """Run events until the queue drains, ``until`` cycles pass, the
        ``stop`` predicate returns True, or ``max_events`` events fire.
        """
        # One heap inspection + one pop per event (peek_time followed by
        # step would pay two passes of cancelled-entry skipping); the
        # step() staleness check is unnecessary here because the heap
        # orders pops and schedule() rejects negative delays.
        queue = self._queue
        pop = heapq.heappop
        if stop is None and max_events is None:
            # Dominant case (the periodic scenario and plain drains):
            # no per-event predicate or budget, so the loop carries
            # only the horizon check. This loop pops ~1M events per
            # figure run; every dropped compare is measurable. The
            # fired/live counters are batched into a local and flushed
            # on exit (nothing reads them mid-run; cancellations keep
            # decrementing self._live directly, which composes with
            # the batched flush).
            fired = 0
            try:
                while queue:
                    item = queue[0]
                    event = item[2]
                    if event._cancelled:
                        pop(queue)
                        continue
                    time = item[0]
                    if until is not None and time > until:
                        self._now = until
                        return
                    pop(queue)
                    self._now = time
                    fired += 1
                    event.callback()
                return
            finally:
                self._fired += fired
                self._live -= fired
        fired = 0
        while True:
            if stop is not None and stop():
                return
            if max_events is not None and fired >= max_events:
                return
            while queue and queue[0][2]._cancelled:
                pop(queue)
            if not queue:
                return
            time, _, event = queue[0]
            if until is not None and time > until:
                self._now = until
                return
            pop(queue)
            self._now = time
            self._fired += 1
            self._live -= 1
            event.callback()
            fired += 1
