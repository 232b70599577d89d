"""One supervised executor for sweep specs and daemon specs.

:class:`WorkerExecutor` runs a picklable task ``fn(*args, attempt)``
either inline, in the calling thread, or on one of a fixed number of
forked worker processes. Both the sweep runner and the scheduling
daemon submit through it, so there is one failure policy (DESIGN.md §7):

* every worker is its own process with its own pipe, so a task past
  its deadline has only *its* worker killed and replaced, and a worker
  death fails only the task it ran — no sibling is re-run;
* a task that raises is retried up to ``max_retries`` times with
  exponential backoff, then settles as a :class:`TaskFailure`; a task
  past its deadline takes the same path as ``kind="timeout"``;
* a worker death (or an injected ``pool-break``) requeues the task at
  the *same* attempt — the task did nothing wrong — and counts as a
  failure for the :class:`CircuitBreaker`. Once the circuit opens,
  tasks run inline until a half-open probe on a worker succeeds. A task
  that has lost ``K`` workers (the breaker's threshold) runs inline
  too, so crashes spread wider than the breaker's window still end.

Workers are forked from an explicit ``fork`` context, so a module
attribute patched before :meth:`WorkerExecutor.start` is what they run,
and a task function pickles by its module and name: callers pass the
function as looked up on its module when they submit.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as wait_readable
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ConfigError, ReproError
from repro.harness import faults

logger = logging.getLogger("repro.harness.executor")

__all__ = ["CircuitBreaker", "TaskFailure", "WorkerExecutor"]


class CircuitBreaker:
    """Classic three-state breaker around an executor's workers.

    * **closed** — tasks go to workers; failures within ``window_s``
      are counted, and the ``k``-th opens the circuit.
    * **open** — no task reaches a worker; they run inline (the daemon
      also dispatches a single slot). After ``cooldown_s`` the next
      :meth:`allow_pool` caller becomes the half-open probe.
    * **half-open** — exactly one in-flight probe; success closes the
      circuit (full concurrency restored), failure re-opens it and
      restarts the cooldown.

    The defaults open the circuit at the 3rd lost worker within 30 s
    and probe 5 s later. Thread-safe; slot threads race on
    :meth:`allow_pool` and only one wins the probe token.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, k: int = 3, window_s: float = 30.0,
                 cooldown_s: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        if k < 1:
            raise ConfigError("breaker K must be >= 1")
        if window_s < 0 or cooldown_s < 0:
            raise ConfigError("breaker window/cooldown must be >= 0")
        self.k = k
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures: List[float] = []
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._probing = False
        #: Times the circuit has opened (observability + tests).
        self.trips = 0
        #: Half-open probes attempted.
        self.probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow_pool(self) -> bool:
        """May this caller hand a task to a worker right now?

        While open, flips to half-open once the cooldown has elapsed
        and grants a worker to exactly one caller (the probe); every
        other caller is told to execute inline.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            now = self._clock()
            if self._state == self.OPEN:
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._state = self.HALF_OPEN
                self._probing = True
                self.probes += 1
                return True
            # Half-open: at most one probe in flight.
            if self._probing:
                return False
            self._probing = True
            self.probes += 1
            return True

    def record_success(self) -> bool:
        """A worker took a task and lived; True if this closed the circuit."""
        with self._lock:
            self._probing = False
            if self._state == self.HALF_OPEN:
                self._state = self.CLOSED
                self._failures.clear()
                return True
            return False

    def record_failure(self) -> bool:
        """A worker was lost; True if this opened the circuit."""
        now = self._clock()
        with self._lock:
            self._probing = False
            if self._state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = now
                self.trips += 1
                return True
            if self._state == self.OPEN:
                self._opened_at = now
                return False
            self._failures.append(now)
            if self.window_s > 0:
                cutoff = now - self.window_s
                self._failures = [t for t in self._failures if t >= cutoff]
            if len(self._failures) >= self.k:
                self._state = self.OPEN
                self._opened_at = now
                self.trips += 1
                self._failures.clear()
                return True
            return False

    def failures_in_window(self) -> int:
        with self._lock:
            if self.window_s > 0:
                cutoff = self._clock() - self.window_s
                return sum(1 for t in self._failures if t >= cutoff)
            return len(self._failures)

    def snapshot(self) -> Dict[str, Any]:
        """Beacon/status form."""
        with self._lock:
            return {"state": self._state, "trips": self.trips,
                    "probes": self.probes,
                    "failures_in_window": len(self._failures)}


class TaskFailure(ReproError):
    """A task the executor gave up on: ``kind`` is ``"error"`` (it
    raised on every attempt), ``"timeout"`` (it overran its deadline on
    the last one) or ``"closed"`` (the executor shut down under it)."""

    def __init__(self, kind: str, error: str, attempts: int,
                 cause: Optional[BaseException] = None):
        super().__init__(error)
        self.kind = kind
        self.error = error
        self.attempts = attempts
        #: What the task raised on its last attempt, if it raised.
        self.cause = cause


def _worker_main(conn: Any) -> None:
    """A worker's loop: answer each task it is sent; return on EOF."""
    while True:
        try:
            call = conn.recv()
        except EOFError:
            return
        _answer(conn, *call)
        # Hold nothing of a finished task while running the next one.
        del call


def _answer(conn: Any, fn: Callable[..., Any], args: Sequence[Any]) -> None:
    """Run one task and reply ``(True, value)`` or ``(False,
    exception)``; its result is freed when this returns."""
    try:
        reply = (True, fn(*args))
    except Exception as exc:  # noqa: BLE001 - the parent decides
        reply = (False, exc)
    try:
        conn.send(reply)
    except Exception as exc:  # noqa: BLE001 - an unpicklable outcome
        conn.send((False, exc))


class _Worker:
    """One forked worker process and the parent's end of its pipe."""

    def __init__(self, ctx: Any):
        parent, child = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main, args=(child,),
                                   name="chimera-worker", daemon=True)
        self.process.start()
        child.close()
        self.conn = parent
        self.pid: int = self.process.pid

    def stop(self) -> None:
        """Kill the process, reap it and close the pipe."""
        self.process.kill()
        self.process.join()
        self.process.close()
        self.conn.close()


class WorkerExecutor:
    """Runs tasks inline or on ``workers`` forked worker processes.

    ``workers=0`` runs every task inline in the calling thread (no
    deadline can be enforced there). With workers, :meth:`start` forks
    them all up front and :meth:`close` kills them; the context-manager
    form does both. :meth:`map` drives a batch from one thread;
    :meth:`run` runs one task and may be called from many threads at
    once, each task holding one worker while it runs.
    """

    def __init__(self, workers: int = 0,
                 breaker: Optional[CircuitBreaker] = None,
                 deadline_s: Optional[float] = None, max_retries: int = 0,
                 retry_backoff: float = 0.0):
        if workers < 0:
            raise ConfigError("workers must be >= 0")
        self.workers = workers
        self.breaker = CircuitBreaker() if breaker is None else breaker
        self.deadline_s = deadline_s or None
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        #: Retries scheduled, deadline kills, and workers lost (deaths
        #: plus injected pool breaks) over this executor's lifetime.
        self.retries = 0
        self.timeouts = 0
        self.deaths = 0
        #: True once a task ran inline because the circuit was open (or
        #: it had lost ``breaker.k`` workers itself).
        self.degraded = False
        self._ctx = multiprocessing.get_context("fork")
        self._cond = threading.Condition()
        self._workers: Set[_Worker] = set()
        self._idle: List[_Worker] = []
        self._closed = False

    def __enter__(self) -> "WorkerExecutor":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def start(self) -> None:
        """Fork every worker (callers fork before they start threads)."""
        with self._cond:
            while len(self._workers) < self.workers:
                self._add_worker()

    def close(self) -> None:
        """Kill every worker. A task still running on one settles as a
        ``"closed"`` failure; later tasks too, unless running inline."""
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._workers.difference_update(idle)
            # Busy workers belong to the thread running their task,
            # which reaps them once the kill surfaces as EOF.
            for worker in self._workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(worker.pid, signal.SIGKILL)
            self._cond.notify_all()
        for worker in idle:
            worker.stop()

    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args, attempt)`` to its outcome and return its
        value. Raises what the task raised on its last attempt, or a
        :class:`TaskFailure` when it timed out or the executor closed."""
        [(_, outcome)] = self.map(fn, [args])
        if isinstance(outcome, TaskFailure):
            raise outcome.cause or outcome
        return outcome

    def map(self, fn: Callable[..., Any], arglists: Iterable[Sequence[Any]]
            ) -> Iterator[Tuple[int, Any]]:
        """Run ``fn(*args, attempt)`` for every ``args``, at most
        ``workers`` at a time, and yield ``(position, outcome)`` as each
        task settles: its value, or a :class:`TaskFailure`."""
        arglists = list(arglists)
        ready: Deque[Tuple[int, int]] = deque(
            (pos, 0) for pos in range(len(arglists)))
        delayed: List[Tuple[float, int, int]] = []   # (ready_at, pos, attempt)
        busy: Dict[_Worker, Tuple[int, int, Optional[float]]] = {}
        lost: Dict[int, int] = {}   # workers each position has lost

        def failed(pos: int, attempt: int, kind: str,
                   exc: Optional[BaseException], error: str
                   ) -> Optional[Tuple[int, TaskFailure]]:
            """Schedule a retry, or return the permanent failure."""
            if attempt < self.max_retries:
                with self._cond:
                    self.retries += 1
                delay = self.retry_backoff * 2 ** attempt
                delayed.append((time.monotonic() + delay, pos, attempt + 1))
                return None
            return pos, TaskFailure(kind, error, attempt + 1, exc)

        def lost_worker(pos: int, attempt: int, what: str) -> None:
            """Requeue at the same attempt a task whose worker was
            lost, and count the loss against the circuit breaker (a
            worker :meth:`close` killed does not count)."""
            ready.appendleft((pos, attempt))
            with self._cond:
                if self._closed:
                    return
                self.deaths += 1
            lost[pos] = lost.get(pos, 0) + 1
            opened = self.breaker.record_failure()
            logger.warning("%s%s", what, "; circuit open, running tasks "
                           "inline" if opened else "; task requeued")

        try:
            while ready or delayed or busy:
                now = time.monotonic()
                if delayed:
                    ready.extend(sorted((p, a) for t, p, a in delayed
                                        if t <= now))
                    delayed = [d for d in delayed if d[0] > now]
                while ready and len(busy) < max(self.workers, 1):
                    pos, attempt = ready.popleft()
                    call = (fn, (*arglists[pos], attempt))
                    if (not self.workers
                            or lost.get(pos, 0) >= self.breaker.k
                            or not self.breaker.allow_pool()):
                        self.degraded = self.degraded or self.workers > 0
                        try:
                            item = (pos, fn(*call[1]))
                        except Exception as exc:  # noqa: BLE001
                            item = failed(pos, attempt, "error", exc,
                                          f"{type(exc).__name__}: {exc}")
                        if item is not None:
                            yield item
                        continue
                    try:
                        faults.inject_pool_break()
                    except faults.InjectedPoolBreak as exc:
                        lost_worker(pos, attempt, str(exc))
                        continue
                    worker = self._acquire()
                    if worker is None:
                        yield pos, TaskFailure("closed", "executor closed",
                                               attempt + 1)
                        continue
                    try:
                        worker.conn.send(call)
                    except OSError:
                        self._replace(worker)
                        lost_worker(pos, attempt, f"worker {worker.pid} "
                                    f"gone before task {pos} reached it")
                        continue
                    except Exception as exc:  # noqa: BLE001 - unpicklable
                        self._release(worker)
                        item = failed(pos, attempt, "error", exc,
                                      f"{type(exc).__name__}: {exc}")
                        if item is not None:
                            yield item
                        continue
                    deadline = (time.monotonic() + self.deadline_s
                                if self.deadline_s else None)
                    busy[worker] = (pos, attempt, deadline)
                if not busy:
                    if delayed:
                        time.sleep(max(0.0, min(t for t, _, _ in delayed)
                                       - time.monotonic()))
                    continue
                wake = ([d for _, _, d in busy.values() if d is not None]
                        + [t for t, _, _ in delayed])
                timeout = (max(0.0, min(wake) - time.monotonic())
                           if wake else None)
                owners = {worker.conn: worker for worker in busy}
                for conn in wait_readable(list(owners), timeout):
                    worker = owners[conn]
                    pos, attempt, _ = busy.pop(worker)
                    try:
                        ok, value = conn.recv()
                    except (EOFError, OSError):
                        self._replace(worker)
                        lost_worker(pos, attempt, f"worker {worker.pid} "
                                    f"died running task {pos} (attempt "
                                    f"{attempt})")
                        continue
                    self._release(worker)
                    self._worker_lived()
                    if ok:
                        yield pos, value
                        continue
                    item = failed(pos, attempt, "error", value,
                                  f"{type(value).__name__}: {value}")
                    if item is not None:
                        yield item
                now = time.monotonic()
                for worker, (pos, attempt, deadline) in list(busy.items()):
                    if deadline is None or now < deadline:
                        continue
                    del busy[worker]
                    with self._cond:
                        self.timeouts += 1
                    logger.warning(
                        "task %d attempt %d exceeded its %.3gs deadline; "
                        "killing worker %d", pos, attempt, self.deadline_s,
                        worker.pid)
                    self._replace(worker)
                    # The task hung, not the worker: a kill does not
                    # count against the circuit.
                    self._worker_lived()
                    item = failed(
                        pos, attempt, "timeout", None,
                        f"exceeded {self.deadline_s:.3g}s wall-clock timeout")
                    if item is not None:
                        yield item
        finally:
            # A caller that stops early leaves tasks running: end them.
            for worker in busy:
                self._replace(worker)

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------

    def _add_worker(self) -> None:
        """Fork one worker and make it idle (caller holds the lock)."""
        worker = _Worker(self._ctx)
        self._workers.add(worker)
        self._idle.append(worker)
        self._cond.notify()

    def _acquire(self) -> Optional[_Worker]:
        """An idle worker, waiting for one if every worker is busy in
        another thread; None once the executor is closed."""
        with self._cond:
            while not self._idle and not self._closed:
                self._cond.wait()
            return None if self._closed else self._idle.pop()

    def _release(self, worker: _Worker) -> None:
        """Return a worker that answered to the idle set."""
        with self._cond:
            if not self._closed:
                self._idle.append(worker)
                self._cond.notify()
                return
            self._workers.discard(worker)
        worker.stop()

    def _replace(self, worker: _Worker) -> None:
        """Kill a worker (dead, hung or abandoned) and fork its
        successor, unless the executor is closed."""
        with self._cond:
            self._workers.discard(worker)
        worker.stop()
        with self._cond:
            if not self._closed:
                self._add_worker()

    def _worker_lived(self) -> None:
        if self.breaker.record_success():
            logger.info("breaker probe succeeded; workers restored")
