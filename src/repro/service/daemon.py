"""The scheduling daemon: job intake, dispatch, preemption, recovery.

``SchedulerDaemon`` turns the simulator into a long-running service: a
filesystem job-submission API (``spool/``), a bounded priority
admission queue, ``N`` concurrent execution slots running jobs'
RunSpecs through the shared result cache, heartbeat/watchdog
supervision per slot, and the crash-safe journal
(:mod:`repro.service.store`) recording every lifecycle transition
*before* it is acted on. Between ticks the serve loop sleeps on a
doorbell, the FIFO ``control/wake``, which clients ring after each
spool or control write and slot threads ring when an outcome lands.

Execution model
---------------
A job is a batch of deterministic RunSpecs. The daemon owns ``workers``
execution slots; each busy slot has a supervision thread walking its
job's specs in order, and the index of the first unexecuted spec is the
job's checkpoint. With more than one worker the specs themselves run in
a pool of **forked worker processes**, so CPU-bound simulation
parallelizes past the GIL; with one worker they run in the slot thread,
preserving the original single-worker behavior exactly. Preemption is
*collaborative*, exactly in the spirit of the paper's SM preemption
lifted to the service layer: the daemon requests preemption (sets a
flag), the worker yields at the next spec boundary, and only then is
the PREEMPTED transition journaled with the checkpoint. When every slot
is busy and higher-priority work waits, victims are chosen across slots
by Chimera's cheapest-victim cost ordering: lowest priority first, then
the slot with the least completed-but-unmerged work, then the slot
longest into its current spec (nearest its next boundary).

Durability contract (DESIGN.md §12, §14)
----------------------------------------
* **Intentions journal-before-act**: QUEUED is journaled before the
  spool file is consumed; ADMITTED/RUNNING/RESUMED before the worker
  starts; recovery re-queues before jobs re-enter the queue.
* **Completions act-then-journal**: the merged result file is written
  atomically *before* COMPLETED is journaled, so a COMPLETED record
  implies the result exists. A crash between the two re-runs the job,
  which is idempotent: specs are deterministic and content-cached, so
  the re-run replays from cache and rewrites identical bytes.
* **Group-commit**: within one tick, journal appends are written and
  flushed immediately but share a single ``fsync``, issued before any
  of the acts those records authorize (spool consumption, worker
  start) is performed. Journal-before-act is preserved at tick
  granularity; a crash mid-tick loses at most un-acted-on intentions.
* Restart recovery replays the journal, re-queues every job whose last
  durable state was ADMITTED/RUNNING/RESUMED — any subset of in-flight
  jobs, under any slot count — re-enqueues QUEUED and PREEMPTED jobs
  as they stand, and deduplicates spool files for jobs the journal
  already knows — no job is lost, none runs twice.

Environment knobs:

* ``CHIMERA_SERVICE_DIR``      — service directory (default
  ``.chimera-service``): journal, spool, results, control files
* ``CHIMERA_SERVICE_CAPACITY`` — admission queue bound (default 64)
* ``CHIMERA_SERVICE_WORKERS``  — concurrent execution slots (default
  ``os.cpu_count()``); ``1`` keeps execution in-process/in-thread
* ``CHIMERA_HEARTBEAT``        — worker heartbeat watchdog timeout in
  seconds (default 30); a worker silent for longer is declared lost and
  its job FAILED
* ``CHIMERA_QUEUE_TTL``, ``CHIMERA_BROWNOUT_*``, ``CHIMERA_BREAKER_*``
  — overload control (queue-age expiry, brownout watermarks, worker
  pool circuit breaker); see :mod:`repro.service.overload`

Overload control (DESIGN.md §15)
--------------------------------
Between slot supervision and preemption each tick runs
:meth:`SchedulerDaemon._overload_control`: queued jobs past
``CHIMERA_QUEUE_TTL`` expire to ``TIMED_OUT``; the brownout state
machine folds in queue depth/age pressure and sheds whole priority
classes to ``SHED`` when it escalates (every level change journaled, so
restarts recover the level); the circuit breaker's state changes are
journaled too. Admission adds two gates ahead of the capacity bound:
the brownout level (reason ``"brownout"``) and a deadline check fed by
a rolling service-time EWMA (reason ``"unmeetable-slo"``) — both
rejections carry a ``retry_after_s`` hint. While the breaker is open,
dispatch degrades to a single slot and cache misses run inline instead
of in the pool; a half-open probe restores full concurrency.
"""

from __future__ import annotations

import contextlib
import errno
import io
import json
import logging
import multiprocessing
import os
import select
import stat
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import AdmissionError, ConfigError, ServiceError
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.runner import result_qos
from repro.harness.scenario import result_slo
from repro.harness.sweep import RunSpec, execute_timed
from repro.metrics.qos import merge_qos_summaries
from repro.metrics.slo import merge_slo_summaries
from repro.service.admission import AdmissionQueue
from repro.service.overload import (
    BrownoutController,
    CircuitBreaker,
    ServiceTimeEstimator,
    default_queue_ttl,
)
from repro.service.state import Job, JobState, is_terminal
from repro.service.store import (
    JobTable,
    JournalStore,
    spec_from_dict,
    spec_to_dict,
)

logger = logging.getLogger("repro.service.daemon")

__all__ = ["SchedulerDaemon", "BEACON_PERIOD_S", "DEFAULT_SERVICE_DIR",
           "DEFAULT_HEARTBEAT_S", "default_heartbeat", "default_service_dir",
           "default_workers", "reconcile_qos"]

#: Default service directory, relative to the current working directory.
DEFAULT_SERVICE_DIR = ".chimera-service"

#: Default worker heartbeat watchdog timeout, seconds.
DEFAULT_HEARTBEAT_S = 30.0

#: Seconds between two publishes of the status beacon
#: ``control/daemon.json``; the first tick after :meth:`start` always
#: publishes. Replacing a file blocks for tens of milliseconds on ext4
#: while the old inode is freed, and those frees serialize, so a
#: per-tick beacon would set the tick's length (DESIGN.md §12).
BEACON_PERIOD_S = 1.0

#: Journal states that mean "the daemon owed this job a dispatch" — a
#: crash while a job sits in one of them re-queues it on restart, and
#: the ``crash-inflight@K`` fault counts jobs in them.
_DISPATCH_STATES = (JobState.ADMITTED, JobState.RUNNING, JobState.RESUMED)


def default_service_dir() -> str:
    """Service directory from ``CHIMERA_SERVICE_DIR``."""
    return os.environ.get("CHIMERA_SERVICE_DIR", "").strip() \
        or DEFAULT_SERVICE_DIR


def default_heartbeat() -> float:
    """Watchdog timeout in seconds from ``CHIMERA_HEARTBEAT``."""
    raw = os.environ.get("CHIMERA_HEARTBEAT", "").strip()
    if not raw:
        return DEFAULT_HEARTBEAT_S
    try:
        heartbeat = float(raw)
    except ValueError as exc:
        raise ConfigError(
            f"CHIMERA_HEARTBEAT must be a number of seconds, got {raw!r}"
        ) from exc
    if heartbeat <= 0:
        raise ConfigError("CHIMERA_HEARTBEAT must be > 0")
    return heartbeat


def default_workers() -> int:
    """Execution slot count from ``CHIMERA_SERVICE_WORKERS``.

    Defaults to ``os.cpu_count()`` (at least 1): the daemon's specs are
    CPU-bound simulator runs, so one slot per core is the saturation
    point.
    """
    raw = os.environ.get("CHIMERA_SERVICE_WORKERS", "").strip()
    if not raw:
        return max(1, os.cpu_count() or 1)
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ConfigError(
            f"CHIMERA_SERVICE_WORKERS must be an integer, got {raw!r}"
        ) from exc
    if workers < 1:
        raise ConfigError("CHIMERA_SERVICE_WORKERS must be >= 1")
    return workers


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Write JSON atomically (temp file + rename) in ``path``'s dir."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp_name, path)
    except Exception:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


#: The doorbell: a named FIFO in ``control/`` that a started daemon
#: holds open and sleeps on between ticks. A byte written to it wakes
#: the serve loop at once. It is only a hint: the spool and control
#: files stay the record (DESIGN.md §12).
_WAKE_NAME = "wake"


def _ring_doorbell(control_dir: Path) -> None:
    """Ring the doorbell in ``control_dir``: open the FIFO write-only
    and non-blocking, write one byte, close.

    Three failures are expected and ignored. With no FIFO (ENOENT) no
    daemon has started yet, and its first tick scans the spool anyway.
    With no reader (ENXIO) the daemon was killed; the next one reuses
    the FIFO. With a full pipe (EAGAIN) the daemon is already due to
    wake. Never creates the FIFO, and never writes to anything at its
    path that is not one.
    """
    try:
        fd = os.open(control_dir / _WAKE_NAME, os.O_WRONLY | os.O_NONBLOCK)
    except OSError as exc:
        if exc.errno in (errno.ENOENT, errno.ENXIO):
            return
        raise
    try:
        if stat.S_ISFIFO(os.fstat(fd).st_mode):
            os.write(fd, b"\0")
    except BlockingIOError:
        pass
    finally:
        os.close(fd)


def _pool_warmup() -> int:
    """No-op pool task used to force worker processes into existence
    while the daemon is still single-threaded (forking after the slot
    threads start is unsafe)."""
    return os.getpid()


def _process_spec(spec: RunSpec, cache_dir: str,
                  cache_enabled: bool) -> Dict[str, Any]:
    """Pool-worker side of one spec execution.

    Runs in a forked worker process: rebuilds a cache handle over the
    shared directory, executes (or replays) the spec, and returns only
    the small summary fields — large results never cross the pipe, they
    land in the content-addressed cache where the parent (or a restart)
    can replay them.
    """
    cache = ResultCache(cache_dir, enabled=cache_enabled)
    key = spec.cache_key()
    entry = cache.get(key)
    if entry is not None:
        result, duration = entry.result, entry.duration_s
    else:
        result, duration = execute_timed(spec)
        cache.put(key, result, duration)
    return {"duration_s": round(duration, 6),
            "qos": result_qos(result),
            "slo": result_slo(result)}


class _RunningJob:
    """Supervision handle for the slot thread executing one job."""

    def __init__(self, job: Job, slot: int):
        self.job = job
        #: The execution slot this dispatch occupies.
        self.slot = slot
        self.preempt = threading.Event()
        self.cancel = threading.Event()
        #: Monotonic timestamp of the worker's last sign of life.
        self.heartbeat = time.monotonic()
        #: Specs executed so far in this dispatch (worker-updated).
        self.completed = job.completed
        #: Checkpoint at dispatch time: ``completed - base_completed``
        #: is the completed-but-unmerged work the victim-selection cost
        #: charges for preempting this slot.
        self.base_completed = job.completed
        #: Set *last* by the worker: ("completed"|"preempted"|"killed",
        #: checkpoint) or ("failed", error text).
        self.outcome: Optional[Tuple[str, Any]] = None
        #: Job id that triggered the preemption request, if any.
        self.preempted_by: Optional[str] = None
        #: True once the watchdog has given up on this worker.
        self.abandoned = False
        self.thread: Optional[threading.Thread] = None


class SchedulerDaemon:
    """A crash-safe, multi-slot scheduling daemon over the simulator.

    Drive it with :meth:`serve` (the ``chimera serve`` loop) or
    :meth:`tick`/:meth:`run_until_idle` (deterministic, for tests).
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 capacity: Optional[int] = None,
                 heartbeat_s: Optional[float] = None,
                 cache: Optional[ResultCache] = None,
                 poll_s: float = 0.05,
                 workers: Optional[int] = None,
                 use_processes: Optional[bool] = None,
                 queue_ttl_s: Optional[float] = None,
                 brownout: Optional[BrownoutController] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self.directory = Path(directory if directory is not None
                              else default_service_dir())
        self.spool_dir = self.directory / "spool"
        self.results_dir = self.directory / "results"
        self.control_dir = self.directory / "control"
        self.wake_path = self.control_dir / _WAKE_NAME
        #: Group-commit: the daemon batches appends per tick and issues
        #: one fsync in :meth:`_commit` before acting on any of them.
        self.store = JournalStore(self.directory, autosync=False)
        self.queue = AdmissionQueue(capacity)
        self.heartbeat_s = (default_heartbeat() if heartbeat_s is None
                            else heartbeat_s)
        if self.heartbeat_s <= 0:
            raise ConfigError("heartbeat_s must be > 0")
        self.cache = ResultCache.from_env() if cache is None else cache
        self.poll_s = poll_s
        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        #: With one worker, specs run in the slot thread (the PR 7
        #: behavior, and what the fault-injection tests monkeypatch);
        #: with more, in forked worker processes to escape the GIL.
        self.use_processes = (self.workers > 1 if use_processes is None
                              else bool(use_processes))
        self.table = JobTable()
        #: Execution slots; ``None`` marks a free slot.
        self.slots: List[Optional[_RunningJob]] = [None] * self.workers
        #: Dispatch counter (RUNNING/RESUMED transitions ever journaled).
        self._ordinal = 0
        self._draining = False
        self._started = False
        #: Monotonic time of the last beacon publish (None: due now).
        self._beacon_t: Optional[float] = None
        #: Acts deferred until the tick's group commit (spool unlinks,
        #: cancel-marker unlinks, worker thread starts).
        self._deferred: List[Callable[[], None]] = []
        #: The doorbell FIFO, held open read-write while started, so a
        #: read never sees EOF and a ring never fails ENXIO. The serve
        #: and run-until-idle loops sleep on it; slot threads and
        #: :meth:`request_drain` ring it through :meth:`_ring`.
        self._bell: Optional[io.FileIO] = None
        #: Guards ``_bell`` against a ring racing :meth:`shutdown`.
        #: Re-entrant: the SIGTERM handler rings on the main thread and
        #: may interrupt it while it holds the lock.
        self._bell_lock = threading.RLock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        #: Worker process handles, kept past pool shutdown so
        #: :meth:`emergency_stop` can kill them after a crash.
        self._pool_procs: List[Any] = []
        # Overload control (DESIGN.md §15): deadline-aware admission,
        # brownout shedding, queue-age expiry, pool circuit breaker.
        self.estimator = ServiceTimeEstimator()
        self.brownout = (BrownoutController.from_env() if brownout is None
                         else brownout)
        self.breaker = CircuitBreaker.from_env() if breaker is None \
            else breaker
        self.queue_ttl_s = (default_queue_ttl() if queue_ttl_s is None
                            else float(queue_ttl_s))
        if self.queue_ttl_s < 0:
            raise ConfigError("queue_ttl_s must be >= 0")
        #: Breaker state as last journaled; the tick thread journals
        #: changes it observes (slot threads flip the breaker but must
        #: never touch the journal — it is not thread-safe).
        self._breaker_journaled = CircuitBreaker.CLOSED

    @property
    def running(self) -> Optional[_RunningJob]:
        """The first busy slot (single-worker compatibility view)."""
        for run in self.slots:
            if run is not None:
                return run
        return None

    def _busy(self) -> bool:
        return any(run is not None for run in self.slots)

    # ------------------------------------------------------------------
    # startup & recovery
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Open the store, replay the journal, and recover state."""
        if self._started:
            return
        for sub in (self.spool_dir, self.results_dir, self.control_dir):
            sub.mkdir(parents=True, exist_ok=True)
        self._acquire_lock()
        try:
            self._open_doorbell()
        except ServiceError:
            self._release_lock()
            raise
        records = self.store.open()
        self.table = JobTable.from_records(records)
        self.store.inflight_probe = self._inflight
        self._ordinal = sum(
            1 for r in records
            if r.get("type") == "transition"
            and r.get("to") in (JobState.RUNNING.value,
                                JobState.RESUMED.value))
        self.slots = [None] * self.workers
        self.store.append_meta("daemon-start", pid=os.getpid(),
                               workers=self.workers)
        if self.table.brownout_level:
            # Mid-brownout crash: adopt the journaled level rather than
            # resetting to normal under what is presumably still load.
            self.brownout.restore(self.table.brownout_level)
            logger.warning("recovered brownout level %d (%s) from journal",
                           self.brownout.level, self.brownout.name)
        if self.table.breaker_state != CircuitBreaker.CLOSED:
            # The breaker guards *this* process's pool, which is fresh;
            # journal the reset so replayed state matches reality.
            self.store.append_meta("breaker", state=CircuitBreaker.CLOSED,
                                   reason="restart-reset")
        self._recover()
        self._commit()
        if self.use_processes and self._pool is None:
            self._start_pool()
        self._beacon_t = None
        self._started = True
        logger.info("daemon started in %s: %d job(s) replayed, %d queued, "
                    "%d slot(s)", self.directory, len(self.table),
                    len(self.queue), self.workers)

    def _inflight(self) -> int:
        """Jobs the journal currently shows in a dispatch state — the
        count the ``crash-inflight@K`` fault keys on."""
        return sum(1 for job in self.table.jobs.values()
                   if job.state in _DISPATCH_STATES)

    def _start_pool(self) -> None:
        """Fork the spec-execution pool while still single-threaded.

        The fork start method keeps monkeypatched module state visible
        to workers and needs no re-import of the package; warming every
        worker up front means no fork ever happens after slot threads
        exist.
        """
        ctx = multiprocessing.get_context("fork")
        self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                         mp_context=ctx)
        warm = [self._pool.submit(_pool_warmup)
                for _ in range(self.workers)]
        for future in warm:
            future.result()
        self._pool_procs = list(self._pool._processes.values())

    def _acquire_lock(self) -> None:
        """Refuse to run two daemons over one journal.

        The pid file survives ``kill -9``; a stale lock (dead pid) is
        taken over silently — that is exactly the restart-recovery path.
        """
        lock = self.control_dir / "daemon.pid"
        try:
            pid = int(lock.read_text().strip())
        except (OSError, ValueError):
            pid = None
        if pid is not None and pid != os.getpid() and _pid_alive(pid):
            raise ServiceError(
                f"another daemon (pid {pid}) already serves {self.directory}")
        _atomic_write_json(lock.with_suffix(".json"), {"pid": os.getpid()})
        lock.write_text(f"{os.getpid()}\n")

    def _open_doorbell(self) -> None:
        """Create the doorbell FIFO (or reuse one a killed daemon left)
        and hold it open; refuse anything else at its path."""
        if self._bell is not None:
            return
        try:
            with contextlib.suppress(FileExistsError):
                os.mkfifo(self.wake_path)
            fd = os.open(self.wake_path, os.O_RDWR | os.O_NONBLOCK)
        except OSError as exc:
            raise ServiceError(
                f"cannot open the doorbell {self.wake_path}: {exc}") from exc
        if not stat.S_ISFIFO(os.fstat(fd).st_mode):
            os.close(fd)
            raise ServiceError(
                f"{self.wake_path} exists and is not a FIFO; remove it")
        self._bell = os.fdopen(fd, "r+b", buffering=0)

    def _close_doorbell(self) -> None:
        """Clear the doorbell, then close and remove it. A ring after
        the clear finds None, never a closed or reused descriptor."""
        with self._bell_lock:
            bell, self._bell = self._bell, None
            if bell is None:
                return
            bell.close()
        self.wake_path.unlink(missing_ok=True)

    def _ring(self) -> None:
        """Wake the serve loop: one byte into the held doorbell (a full
        pipe drops it, and the loop is due to wake anyway)."""
        with self._bell_lock:
            if self._bell is not None:
                self._bell.write(b"\0")

    def _await_ring(self, timeout_s: float) -> bool:
        """Sleep until the doorbell rings or ``timeout_s`` passes; True
        when it rang. Empties the pipe before returning, so the tick
        that follows answers every ring made before it."""
        poller = select.poll()
        poller.register(self._bell, select.POLLIN)
        if not poller.poll(timeout_s * 1000.0):
            return False
        while self._bell.read(4096):
            pass
        return True

    def _release_lock(self) -> None:
        for name in ("daemon.pid", "daemon.json"):
            try:
                (self.control_dir / name).unlink()
            except OSError:
                pass

    def _recover(self) -> None:
        """Re-queue every job from its last durable transition."""
        requeued = 0
        for job in sorted(self.table.live_jobs(),
                          key=lambda j: j.submit_seq):
            if job.state in _DISPATCH_STATES:
                # The crash interrupted this job mid-dispatch: journal
                # the re-queue first, then pick it up again. Its
                # checkpoint is whatever the journal last recorded.
                self.store.append_transition(
                    job.job_id, job.state, JobState.QUEUED,
                    {"completed": job.completed, "reason": "crash-recovery"})
                job.advance(JobState.QUEUED)
                # It was *running*, not waiting: a fresh queue-age lease
                # (jobs replayed as QUEUED/PREEMPTED keep their stamps —
                # their wait genuinely spans the crash).
                job.enqueued_t = time.time()
                job.requeues += 1
                requeued += 1
            # QUEUED and PREEMPTED jobs re-enter the queue as they stand
            # (recovery re-queues may exceed capacity: durable state is
            # never dropped for backpressure).
            self.queue.push(job)
        if requeued:
            logger.warning("crash recovery re-queued %d interrupted job(s)",
                           requeued)
        # Spool dedup: a submission the journal already accepted was
        # consumed logically; a crash between journaling QUEUED and
        # unlinking the spool file must not admit it twice.
        for path in self.spool_dir.glob("*.json"):
            if path.name.endswith(".rejected.json"):
                continue
            if path.stem in self.table.jobs:
                path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # the tick loop
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """One deterministic supervision pass (no sleeping)."""
        if not self._started:
            self.start()
        self._scan_control()
        self._scan_spool()
        self._scan_cancels()
        self._supervise_slots()
        self._overload_control()
        self._maybe_preempt()
        self._dispatch()
        self._commit()
        if (self._beacon_t is None
                or time.monotonic() - self._beacon_t >= BEACON_PERIOD_S):
            self._publish_beacon()

    def _commit(self) -> None:
        """Group-commit barrier: one fsync over the tick's appends,
        then the acts those records authorize.

        Deliberately *not* in a ``finally``: if the tick dies mid-way
        (an injected crash, a real one), nothing journaled this tick
        has been acted on — the restart sees the intentions and redoes
        them, which is exactly the journal-before-act contract.
        """
        self.store.commit()
        while self._deferred:
            act = self._deferred.pop(0)
            act()

    def serve(self, idle_exit_s: Optional[float] = None,
              max_wall_s: Optional[float] = None) -> None:
        """The ``chimera serve`` loop: tick, sleep on the doorbell for
        at most ``poll_s``, repeat.

        ``idle_exit_s`` exits after the daemon has been idle (no running
        job, empty queue, empty spool) that long — used by smoke tests
        and CI. ``max_wall_s`` is a hard safety stop. A drain request
        (SIGTERM or the ``control/drain`` file) checkpoints every
        running job and exits once all checkpoints are durable.
        """
        self.start()
        started = time.monotonic()
        idle_since: Optional[float] = None
        try:
            while True:
                self.tick()
                now = time.monotonic()
                if self._draining and not self._busy():
                    self.store.append_meta("drain", clean=True)
                    logger.info("drained: %d job(s) left queued",
                                len(self.queue))
                    return
                if max_wall_s is not None and now - started > max_wall_s:
                    logger.warning("serve loop hit max_wall_s=%.3g; exiting",
                                   max_wall_s)
                    return
                if idle_exit_s is not None:
                    if self._idle():
                        idle_since = idle_since if idle_since is not None \
                            else now
                        if now - idle_since >= idle_exit_s:
                            self.store.append_meta("idle-exit")
                            return
                    else:
                        idle_since = None
                # Submits, cancels, drains and slot outcomes ring the
                # doorbell; poll_s bounds how late the watchdog, queue
                # TTL, brownout easing and writers that do not ring are
                # noticed.
                self._await_ring(self.poll_s)
        finally:
            self.shutdown()

    def run_until_idle(self, timeout_s: float = 60.0) -> None:
        """Tick until there is nothing left to do (tests, drains)."""
        self.start()
        deadline = time.monotonic() + timeout_s
        # A slot thread rings the doorbell once, when its outcome lands,
        # so a busy daemon sleeps until then; the cap bounds how late
        # the watchdog and anything that does not ring are noticed.
        max_wait = max(self.poll_s, 0.02)
        while not self._idle() or (self._draining and self._busy()):
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"daemon did not go idle within {timeout_s:.3g}s")
            self.tick()
            if self._busy():
                self._await_ring(max_wait)
        # One final pass so trailing control files are honored.
        self.tick()

    def _idle(self) -> bool:
        return (not self._busy() and not self.queue
                and not any(p.name.endswith(".json")
                            and not p.name.endswith(".rejected.json")
                            for p in self.spool_dir.glob("*.json")))

    def request_drain(self) -> None:
        """Graceful shutdown: checkpoint every running job, keep the
        rest queued (durably), and let :meth:`serve` exit."""
        self._draining = True
        for run in self.slots:
            if run is not None and not run.preempt.is_set():
                run.preempted_by = None
                run.preempt.set()
        self._ring()

    def shutdown(self) -> None:
        """Close the store and drop the pid lock (not a drain)."""
        # Deferred acts belong to a tick that never committed; a real
        # crash would have lost them too, and the restart redoes them.
        self._deferred.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        # The FIFO goes before the lock: a daemon restarting here only
        # creates its own once it holds the lock, so this one can never
        # remove it.
        self._close_doorbell()
        self._release_lock()
        try:
            (self.control_dir / "drain").unlink()
        except OSError:
            pass
        self.store.close()
        self._started = False

    def emergency_stop(self) -> None:
        """Kill pool worker processes, nothing else.

        ``chimera serve`` calls this before ``os._exit`` on an injected
        crash: the parent models ``kill -9``, and a real SIGKILL of the
        process group would take the forked workers with it. Without
        this, orphaned workers keep the inherited stdio pipes open and
        stall anything capturing the daemon's output.
        """
        procs = list(self._pool_procs)
        pool = self._pool
        if pool is not None:
            procs.extend(getattr(pool, "_processes", {}).values())
        for proc in procs:
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 - already-dead processes
                pass

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------

    def _scan_control(self) -> None:
        if (self.control_dir / "drain").exists() and not self._draining:
            logger.info("drain requested via control file")
            self.request_drain()

    def _publish_beacon(self) -> None:
        """Write the status snapshot clients read (best-effort, never
        fsync'd); :meth:`tick` calls this once per ``BEACON_PERIOD_S``."""
        self._beacon_t = time.monotonic()
        oldest = self.queue.oldest_age_s(time.time())
        try:
            _atomic_write_json(self.control_dir / "daemon.json", {
                "pid": os.getpid(),
                "t": round(time.time(), 3),
                "draining": self._draining,
                "workers": self.workers,
                "effective_workers": self._effective_workers(),
                "slots": self._slots_snapshot(),
                "queue": {
                    "depth": len(self.queue),
                    "capacity": self.queue.capacity,
                    "oldest_age_s": (None if oldest is None
                                     else round(oldest, 3)),
                },
                "brownout": self.brownout.snapshot(),
                "breaker": self.breaker.snapshot(),
                "estimator": self.estimator.snapshot(),
            })
        except OSError:  # pragma: no cover - beacon is advisory
            pass

    def _slots_snapshot(self) -> List[Dict[str, Any]]:
        """Per-slot occupancy for the beacon / ``chimera status``."""
        now = time.monotonic()
        snapshot: List[Dict[str, Any]] = []
        for slot, run in enumerate(self.slots):
            if run is None:
                snapshot.append({"slot": slot, "job_id": None})
            else:
                snapshot.append({
                    "slot": slot,
                    "job_id": run.job.job_id,
                    "checkpoint": run.completed,
                    "specs": len(run.job.specs),
                    "heartbeat_age_s": round(now - run.heartbeat, 3),
                })
        return snapshot

    def _scan_spool(self) -> None:
        """Admit (or reject, with reason) new submissions."""
        for path in sorted(self.spool_dir.glob("*.json")):
            if path.name.endswith(".rejected.json"):
                continue
            job_id = path.stem
            if job_id in self.table.jobs:
                # Duplicate of a journaled job: consumed, never re-run.
                path.unlink(missing_ok=True)
                continue
            try:
                text = path.read_text()
            except OSError as exc:
                # Transient filesystem trouble (NFS hiccup, the writer's
                # rename racing us) is not the client's fault: leave the
                # submission for the next tick instead of rejecting it.
                logger.debug("spool read of %s deferred: %s", path, exc)
                continue
            try:
                payload = json.loads(text)
                specs = tuple(spec_from_dict(d)
                              for d in payload.get("specs", ()))
                if not specs:
                    raise ValueError("submission carries no specs")
                priority = int(payload.get("priority", 0))
                slo_s = payload.get("slo_s")
                if slo_s is not None:
                    slo_s = float(slo_s)
                    if slo_s <= 0:
                        raise ValueError("slo_s must be > 0")
            except (ValueError, TypeError, KeyError, AttributeError,
                    ServiceError) as exc:
                # Real decode/validation damage: the bytes are durable
                # and wrong, so retrying cannot help — reject.
                self._reject(path, job_id, "invalid-spec",
                             f"{type(exc).__name__}: {exc}")
                continue
            if self._draining:
                self._reject(path, job_id, "draining",
                             "daemon is draining; resubmit after restart")
                continue
            if not self.brownout.admits(priority):
                self._reject(
                    path, job_id, "brownout",
                    f"daemon is in {self.brownout.name} brownout "
                    f"(level {self.brownout.level}); priority {priority} "
                    f"submissions are not being admitted",
                    retry_after_s=self._retry_after_hint())
                continue
            try:
                self.queue.check_capacity(job_id)
            except AdmissionError as exc:
                self._reject(path, job_id, exc.reason, str(exc),
                             retry_after_s=self._retry_after_hint())
                continue
            if slo_s is not None:
                overrun = self._deadline_overrun_s(
                    specs, priority, slo_s, payload.get("t"))
                if overrun is not None:
                    self._reject(
                        path, job_id, "unmeetable-slo",
                        f"estimated completion misses the {slo_s:.3g}s "
                        f"SLO budget by {overrun:.3g}s; rejecting at "
                        f"admission instead of queueing doomed work",
                        retry_after_s=round(max(overrun, 0.05), 3))
                    continue
            # Durability: journal QUEUED (with the full job description,
            # making the journal self-contained) before consuming the
            # spool file — the unlink is the act, deferred to the
            # group commit.
            seq = self.store.append_transition(
                job_id, None, JobState.QUEUED,
                {"specs": [spec_to_dict(s) for s in specs],
                 "priority": priority})
            job = Job(job_id=job_id, specs=specs, priority=priority,
                      submit_seq=seq)
            job.enqueued_t = time.time()
            self.table.jobs[job_id] = job
            self.queue.push(job)
            self._deferred.append(
                lambda p=path: p.unlink(missing_ok=True))
            logger.info("admitted %s (priority %d, %d spec(s))",
                        job_id, priority, len(specs))

    def _reject(self, path: Path, job_id: str, reason: str,
                detail: str, retry_after_s: Optional[float] = None) -> None:
        """Backpressure: replace the submission with a rejection record.

        Overload rejections carry ``retry_after_s`` so a polite client
        can back off exactly as long as the daemon expects to need.
        """
        record = {"job_id": job_id, "reason": reason, "detail": detail,
                  "t": round(time.time(), 3)}
        if retry_after_s is not None:
            record["retry_after_s"] = retry_after_s
        _atomic_write_json(
            self.spool_dir / f"{job_id}.rejected.json", record)
        path.unlink(missing_ok=True)
        logger.warning("rejected %s: %s (%s)", job_id, reason, detail)

    def _deadline_overrun_s(self, specs: Tuple[RunSpec, ...], priority: int,
                            slo_s: float,
                            submit_t: Optional[float]) -> Optional[float]:
        """Seconds by which this job's estimated completion misses its
        SLO deadline, or None when it fits (or the EWMA has no data —
        admission stays permissive rather than rejecting on fiction)."""
        service = self.estimator.estimate_specs(specs)
        if service is None:
            return None
        wait = self._estimated_wait_s(priority)
        if wait is None:
            return None
        now = time.time()
        try:
            deadline = float(submit_t) + slo_s
        except (TypeError, ValueError):
            deadline = now + slo_s
        eta = now + wait + service
        if eta <= deadline:
            return None
        return eta - deadline

    def _scan_cancels(self) -> None:
        for path in sorted(self.spool_dir.glob("*.cancel")):
            job_id = path.stem
            job = self.table.jobs.get(job_id)
            if job is None or is_terminal(job.state):
                path.unlink(missing_ok=True)
                continue
            run = next((r for r in self.slots
                        if r is not None and r.job is job), None)
            if run is not None:
                # The marker stays until the worker acknowledges and
                # KILLED is journaled, so a crash in between re-delivers
                # the cancellation after restart.
                run.cancel.set()
                continue
            self.store.append_transition(
                job_id, job.state, JobState.KILLED,
                {"reason": "cancelled", "completed": job.completed})
            job.advance(JobState.KILLED)
            job.detail = {"reason": "cancelled"}
            self.queue.remove(job_id)
            self._deferred.append(
                lambda p=path: p.unlink(missing_ok=True))
            logger.info("killed %s (cancelled while %s)", job_id, job.state)

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------

    def _supervise_slots(self) -> None:
        for slot, run in enumerate(self.slots):
            if run is None:
                continue
            job = run.job
            if run.outcome is None:
                if time.monotonic() - run.heartbeat > self.heartbeat_s:
                    # Watchdog: this slot's worker went silent. Journal
                    # the failure, abandon the thread (it may be wedged
                    # in a spec), and free the slot — the PR 5 guard
                    # pattern at daemon scale. Other slots are
                    # untouched: supervision is per-slot.
                    self.store.append_transition(
                        job.job_id, job.state, JobState.FAILED,
                        {"reason": "heartbeat-lost",
                         "heartbeat_s": self.heartbeat_s,
                         "completed": run.completed})
                    job.advance(JobState.FAILED)
                    job.detail = {"reason": "heartbeat-lost"}
                    run.abandoned = True
                    run.cancel.set()
                    self.slots[slot] = None
                    logger.warning(
                        "watchdog: worker for %s (slot %d) silent > %.3gs; "
                        "job failed", job.job_id, slot, self.heartbeat_s)
                continue
            kind, info = run.outcome
            job.completed = run.completed
            self.slots[slot] = None
            if kind == "completed":
                payload = self._finalize_result(job)
                self.store.append_transition(job.job_id, job.state,
                                             JobState.COMPLETED, payload)
                job.advance(JobState.COMPLETED)
                job.detail = payload
                logger.info("completed %s (%d spec(s))", job.job_id,
                            len(job.specs))
            elif kind == "preempted":
                self.store.append_transition(
                    job.job_id, job.state, JobState.PREEMPTED,
                    {"completed": run.completed, "by": run.preempted_by,
                     "reason": "drain" if run.preempted_by is None
                     else "priority"})
                job.advance(JobState.PREEMPTED)
                job.enqueued_t = time.time()
                self.queue.push(job)
                logger.info("preempted %s at spec %d/%d (by %s)", job.job_id,
                            run.completed, len(job.specs),
                            run.preempted_by or "drain")
            elif kind == "killed":
                self.store.append_transition(
                    job.job_id, job.state, JobState.KILLED,
                    {"reason": "cancelled", "completed": run.completed})
                job.advance(JobState.KILLED)
                job.detail = {"reason": "cancelled"}
                marker = self.spool_dir / f"{job.job_id}.cancel"
                self._deferred.append(
                    lambda p=marker: p.unlink(missing_ok=True))
            elif kind == "failed":
                self.store.append_transition(
                    job.job_id, job.state, JobState.FAILED,
                    {"error": str(info), "completed": run.completed})
                job.advance(JobState.FAILED)
                job.detail = {"error": str(info)}
                logger.warning("job %s failed: %s", job.job_id, info)
            else:  # pragma: no cover - worker writes only the kinds above
                raise ServiceError(f"unknown worker outcome {kind!r}")

    # ------------------------------------------------------------------
    # overload control
    # ------------------------------------------------------------------

    def _overload_control(self) -> None:
        """Queue-age expiry, brownout level machine, breaker journaling.

        Runs in the tick thread between supervision and preemption, so
        every shed/expiry is journaled through the same group commit as
        the rest of the tick and nothing races the slot threads.
        """
        now = time.time()
        if self.queue_ttl_s > 0:
            for job in self.queue.jobs():
                if job.enqueued_t <= 0:
                    continue
                age = now - job.enqueued_t
                if age > self.queue_ttl_s:
                    self._expel(job, JobState.TIMED_OUT, {
                        "reason": "queue-ttl", "age_s": round(age, 3),
                        "ttl_s": self.queue_ttl_s,
                        "completed": job.completed,
                        "priority": job.priority})
        change = self.brownout.observe(
            len(self.queue), self.queue.capacity,
            self.queue.oldest_age_s(now))
        if change is not None:
            self.store.append_meta(
                "brownout", level=self.brownout.level,
                name=self.brownout.name, depth=len(self.queue),
                pressure=self.brownout.pressure)
            log = logger.warning if change[1] > change[0] else logger.info
            log("brownout %s: level %d -> %d (%s), pressure %.3f, "
                "%d queued",
                "escalated" if change[1] > change[0] else "eased",
                change[0], change[1], self.brownout.name,
                self.brownout.pressure, len(self.queue))
        if self.brownout.level > 0:
            for job in self.queue.jobs():
                protected = (job.state is JobState.PREEMPTED
                             or job.completed > 0)
                if self.brownout.sheds(job.priority, protected):
                    self._expel(job, JobState.SHED, {
                        "reason": "brownout",
                        "level": self.brownout.level,
                        "name": self.brownout.name,
                        "completed": job.completed,
                        "priority": job.priority})
        state = self.breaker.state
        if state != self._breaker_journaled:
            self.store.append_meta("breaker", state=state,
                                   trips=self.breaker.trips,
                                   probes=self.breaker.probes)
            logger.warning("circuit breaker %s -> %s (%d trip(s))",
                           self._breaker_journaled, state,
                           self.breaker.trips)
            self._breaker_journaled = state

    def _expel(self, job: Job, new_state: JobState,
               payload: Dict[str, Any]) -> None:
        """Drop one queued job into a journaled overload terminal state."""
        self.store.append_transition(job.job_id, job.state, new_state,
                                     payload)
        job.advance(new_state)
        job.detail = dict(payload)
        self.queue.remove(job.job_id)
        logger.warning("%s %s (%s, priority %d)", new_state.value,
                       job.job_id, payload.get("reason"), job.priority)

    def _effective_workers(self) -> int:
        """Slots dispatch may fill: all of them with a healthy pool,
        one while the circuit breaker is open/probing (inline execution
        shares the GIL, so fanning out buys nothing and hides the
        degradation)."""
        if self.breaker.state != CircuitBreaker.CLOSED:
            return 1
        return self.workers

    def _estimated_wait_s(self, priority: int) -> Optional[float]:
        """Estimated queue wait for a new job of ``priority``, or None
        when the EWMA has no data for some job ahead of it.

        Backlog = remaining specs on every busy slot plus every queued
        job that would sort ahead (priority >= the candidate's — a new
        submission always loses FIFO ties), divided by the slots
        dispatch may currently fill.
        """
        backlog = 0.0
        for run in self.slots:
            if run is None:
                continue
            est = self.estimator.estimate_specs(
                run.job.specs[run.completed:])
            if est is None:
                return None
            backlog += est
        for job in self.queue.jobs():
            if job.priority < priority:
                continue
            est = self.estimator.estimate_specs(job.specs[job.completed:])
            if est is None:
                return None
            backlog += est
        return backlog / self._effective_workers()

    def _retry_after_hint(self) -> float:
        """How long a rejected client should wait before resubmitting:
        the estimated time for the queue to drain to the brownout exit
        watermark, floored by the level dwell."""
        floor = max(self.brownout.dwell_s, 0.05)
        mean = self.estimator.mean_estimate()
        if mean is None or not len(self.queue):
            return round(max(floor, 1.0), 3)
        target = int(self.brownout.exit_frac * self.queue.capacity)
        excess = max(1, len(self.queue) - target)
        return round(max(floor, excess * mean / self._effective_workers()),
                     3)

    def _maybe_preempt(self) -> None:
        """Cross-slot victim selection (Chimera's cheapest-victim cost).

        Only fires when every slot is busy — a free slot serves the
        challenger without violence. The strongest waiting jobs are
        matched greedily against the cheapest victims: lowest priority
        first, then least completed-but-unmerged work (cheapest
        checkpoint to carry), then longest into its current spec
        (nearest its next boundary, so the yield lands soonest).
        """
        if self._draining or any(run is None for run in self.slots):
            return
        challengers = self.queue.top(len(self.slots))
        if not challengers:
            return
        now = time.monotonic()
        victims = [run for run in self.slots
                   if run is not None and run.outcome is None
                   and not run.preempt.is_set() and not run.abandoned]
        victims.sort(key=lambda run: (
            run.job.priority,
            run.completed - run.base_completed,
            -(now - run.heartbeat),
            run.slot))
        vi = 0
        for challenger in challengers:
            if vi >= len(victims):
                break
            victim = victims[vi]
            if victim.job.priority >= challenger.priority:
                # Victims are cost-sorted (priority first) and the
                # challengers strength-sorted: if the strongest waiter
                # cannot beat the cheapest victim, nobody can.
                break
            victim.preempted_by = challenger.job_id
            victim.preempt.set()
            vi += 1
            logger.info("preemption requested: %s (prio %d, slot %d) yields "
                        "to %s (prio %d)", victim.job.job_id,
                        victim.job.priority, victim.slot,
                        challenger.job_id, challenger.priority)

    def _dispatch(self) -> None:
        if self._draining:
            return
        # An open (or probing) circuit breaker degrades dispatch to a
        # single slot; slots already busy keep draining their jobs.
        limit = min(self._effective_workers(), len(self.slots))
        for slot in range(limit):
            occupant = self.slots[slot]
            if occupant is not None:
                continue
            if not self.queue:
                return
            job = self.queue.pop()
            if job.state is JobState.QUEUED:
                self.store.append_transition(job.job_id, JobState.QUEUED,
                                             JobState.ADMITTED,
                                             {"ordinal": self._ordinal})
                job.advance(JobState.ADMITTED)
            next_state = (JobState.RESUMED if job.state is JobState.PREEMPTED
                          else JobState.RUNNING)
            job.ordinal = self._ordinal
            self._ordinal += 1
            job.slot = slot
            self.store.append_transition(
                job.job_id, job.state, next_state,
                {"completed": job.completed, "ordinal": job.ordinal,
                 "slot": slot})
            job.advance(next_state)
            run = _RunningJob(job, slot)
            run.thread = threading.Thread(
                target=self._worker_main, args=(run,), daemon=True,
                name=f"chimera-worker-s{slot}-{job.job_id}")
            self.slots[slot] = run
            # Journal-before-act: the thread starts only after the
            # RUNNING/RESUMED record is fsync'd by the group commit.
            self._deferred.append(run.thread.start)

    # ------------------------------------------------------------------
    # the worker
    # ------------------------------------------------------------------

    def _worker_main(self, run: _RunningJob) -> None:
        """Execute the job's remaining specs, yielding at boundaries."""
        job = run.job
        try:
            if faults.worker_hang_fires(run.slot):
                time.sleep(faults.hang_seconds())
            for i in range(run.completed, len(job.specs)):
                if run.cancel.is_set():
                    run.outcome = ("killed", i)
                    return
                if run.preempt.is_set():
                    run.outcome = ("preempted", i)
                    return
                started = time.monotonic()
                summary = self._execute_spec(job, i)
                wall = max(0.0, time.monotonic() - started)
                factor = faults.slow_slot_factor(run.slot)
                if factor is not None and factor > 1.0:
                    # slow-slot fault: this slot's machine is factor×
                    # slower — sleep the difference so queue pressure
                    # (and the EWMA) build honestly.
                    time.sleep(wall * (factor - 1.0))
                    wall *= factor
                self.estimator.observe(job.specs[i], wall)
                if run.abandoned:
                    # The watchdog already failed this job; stay silent.
                    return
                _atomic_write_json(self._spec_result_path(job, i), summary)
                run.completed = i + 1
                run.heartbeat = time.monotonic()
            run.outcome = ("completed", len(job.specs))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            run.outcome = ("failed", f"{type(exc).__name__}: {exc}")
        finally:
            self._ring()

    def _execute_spec(self, job: Job, index: int) -> Dict[str, Any]:
        """Run one spec (through the shared result cache) and summarize.

        Cache hits are served in the slot thread (cheap, no pickling).
        Misses normally go to the process pool; the circuit breaker
        guards that path — a :class:`BrokenProcessPool` (or an injected
        ``pool-break``) counts as a breaker failure and the spec falls
        back to inline execution, so jobs *survive* a sick pool at
        degraded concurrency instead of failing.
        """
        spec = job.specs[index]
        key = spec.cache_key()
        entry = self.cache.get(key)
        if entry is not None:
            result, duration = entry.result, entry.duration_s
            return {"index": index, "spec": spec.describe(), "key": key,
                    "duration_s": round(duration, 6),
                    "qos": result_qos(result),
                    "slo": result_slo(result)}
        summary: Optional[Dict[str, Any]] = None
        # Thread-mode daemons have no real pool; an active pool-break
        # fault still routes misses through the breaker path so the
        # breaker is exercisable without forked workers.
        pool_candidate = self.use_processes or faults.has_pool_break()
        if pool_candidate and self.breaker.allow_pool():
            try:
                summary = self._submit_to_pool(spec)
            except (BrokenProcessPool, faults.InjectedPoolBreak) as exc:
                opened = self.breaker.record_failure()
                self._retire_pool()
                logger.warning(
                    "worker pool failed executing a spec of %s: %s%s",
                    job.job_id, exc,
                    " (circuit opened; degrading to inline execution)"
                    if opened else "")
            else:
                if self.breaker.record_success():
                    logger.info("breaker probe succeeded; full-slot "
                                "dispatch restored")
        if summary is None:
            result, duration = execute_timed(spec)
            self.cache.put(key, result, duration)
            summary = {"duration_s": round(duration, 6),
                       "qos": result_qos(result),
                       "slo": result_slo(result)}
        return {"index": index, "spec": spec.describe(), "key": key,
                **summary}

    def _submit_to_pool(self, spec: RunSpec) -> Dict[str, Any]:
        """Execute one spec through the (breaker-guarded) pool path.

        Rebuilds the pool lazily when a half-open probe arrives after a
        failure retired it. Thread-mode daemons (``use_processes=False``)
        execute inline here — a surrogate pool that exists so injected
        ``pool-break`` faults have a submission to break.
        """
        faults.inject_pool_break()
        pool = None
        if self.use_processes:
            with self._pool_lock:
                if self._pool is None and self._started:
                    self._start_pool()
                pool = self._pool
        if pool is None:
            result, duration = execute_timed(spec)
            self.cache.put(spec.cache_key(), result, duration)
            return {"duration_s": round(duration, 6),
                    "qos": result_qos(result),
                    "slo": result_slo(result)}
        future = pool.submit(_process_spec, spec,
                             str(self.cache.directory),
                             self.cache.enabled)
        return future.result()

    def _retire_pool(self) -> None:
        """Tear down a broken pool; the next half-open probe rebuilds it."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _spec_result_path(self, job: Job, index: int) -> Path:
        return self.results_dir / f"{job.job_id}.d" / f"spec-{index}.json"

    def _finalize_result(self, job: Job) -> Dict[str, Any]:
        """Merge per-spec results into the job result file (the *act*
        preceding the COMPLETED journal record) and return the journal
        payload, including the job's merged QoS ledger."""
        parts: List[Dict[str, Any]] = []
        for i in range(len(job.specs)):
            path = self._spec_result_path(job, i)
            parts.append(json.loads(path.read_text()))
        qos = merge_qos_summaries(p.get("qos") or {} for p in parts)
        slo = merge_slo_summaries(p.get("slo") or {} for p in parts)
        result = {"job_id": job.job_id, "priority": job.priority,
                  "specs": parts, "qos": qos, "slo": slo}
        _atomic_write_json(self.results_dir / f"{job.job_id}.json", result)
        return {"completed": len(job.specs), "specs": len(job.specs),
                "qos": qos, "slo": slo}


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    except OSError as exc:  # pragma: no cover - platform oddities
        return exc.errno not in (errno.ESRCH,)
    return True


# ----------------------------------------------------------------------
# reconciliation
# ----------------------------------------------------------------------


def reconcile_qos(directory: Optional[os.PathLike] = None) -> Dict[str, Any]:
    """Check the QoS ledger against the journal, job by job.

    For every COMPLETED job the journal payload carries the merged QoS
    summary the daemon computed when it finalized the result file; this
    recomputes the same summary from the result files on disk and
    reports any divergence. ``consistent`` is True when every completed
    job's result file exists and its ledger matches the journal.
    """
    base = Path(directory if directory is not None else
                default_service_dir())
    store = JournalStore(base)
    table = JobTable.from_records(store.replay())
    mismatches: List[str] = []
    summaries: List[Dict[str, Any]] = []
    completed = 0
    for job in table.iter_jobs():
        if job.state is not JobState.COMPLETED:
            continue
        completed += 1
        journal_qos = dict(job.detail.get("qos") or {})
        result_path = base / "results" / f"{job.job_id}.json"
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            mismatches.append(job.job_id)
            continue
        disk_qos = merge_qos_summaries(
            p.get("qos") or {} for p in result.get("specs", ()))
        if disk_qos != journal_qos:
            mismatches.append(job.job_id)
            continue
        # The SLO rollup must reconcile the same way (older journals
        # predate it: both sides are then empty and trivially agree).
        journal_slo = dict(job.detail.get("slo") or {})
        disk_slo = merge_slo_summaries(
            p.get("slo") or {} for p in result.get("specs", ()))
        if disk_slo != journal_slo:
            mismatches.append(job.job_id)
            continue
        summaries.append(journal_qos)
    return {
        "completed_jobs": completed,
        "totals": merge_qos_summaries(summaries),
        "mismatches": sorted(mismatches),
        "consistent": not mismatches,
    }
