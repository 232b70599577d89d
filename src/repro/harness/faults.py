"""Deterministic fault injection for the sweep harness and the daemon.

Production sweeps must survive worker crashes, hangs, and cache
corruption — and those recovery paths are worthless if they cannot be
exercised on demand. This module injects faults *deterministically*,
keyed on the position of a spec within its batch of cache misses and on
the attempt number, so a test (or a CI smoke job) can script "spec 1
crashes its worker on the first attempt" and assert the exact recovery
path.

Fault plans come from two sources:

* **Environment** — ``CHIMERA_FAULTS`` holds a comma-separated list of
  directives; worker processes inherit it, so faults fire inside the
  process pool too.
* **Fixtures** — :func:`install` / :func:`injected` set a process-local
  plan, for in-process (serial) tests that should not leak state
  through the environment.

Directive syntax: ``kind@index[:attempts]`` where ``index`` is the
0-based position of the spec in the executed (cache-missing) batch or
``*`` for every spec, and ``attempts`` bounds how many attempts the
fault fires on (default ``1`` — fire on attempt 0 only, i.e.
flaky-then-succeed; ``inf`` fires forever). Kinds:

* ``fail``    — raise :class:`FaultInjected` (a plain failing spec)
* ``crash``   — ``os._exit(13)`` *in worker processes only*, killing
  the spec's worker; a no-op in the main process, so a spec the circuit
  breaker sends inline recovers
* ``hang``    — sleep ``CHIMERA_FAULT_HANG_S`` seconds (default 3600),
  tripping the per-spec timeout
* ``corrupt`` — overwrite the ``index``-th cache ``put()`` of this
  process with garbage bytes, exercising corrupt-entry recovery

No kind changes what a spec computes, so the result cache stays on
under every plan. The perturbations that exercise the preemption-QoS
guard (:mod:`repro.sched.guard`), a straggler drain and a skewed cost
estimate, are the :class:`~repro.gpu.config.GPUConfig` fields
``drain_stall`` and ``estimate_skew``: part of the spec, and of its
cache key.

Five more kinds target the scheduling daemon (:mod:`repro.service`), so
its crash-recovery paths are provable the same way. ``index`` names the
global journal record sequence number (``crash-before-commit``,
``crash-after-commit``, ``torn-journal``), the number of jobs
concurrently mid-dispatch (``crash-inflight``), or the execution slot
(``hang-worker``):

* ``crash-before-commit@seq`` — the daemon dies immediately *before*
  journal record ``seq`` is written: the decided transition must be
  lost, and restart recovery re-derives it
* ``crash-after-commit@seq``  — the daemon dies immediately *after*
  record ``seq`` is durable but before it is acted on: restart recovery
  must act on it idempotently
* ``torn-journal@seq``        — record ``seq`` is half-written (torn)
  and the daemon dies mid-write: restart must truncate the torn tail
  and recover from the previous record
* ``crash-inflight@K``        — the daemon dies at the first journal
  append made while exactly ``K`` jobs sit in a dispatch state
  (admitted/running/resumed), so recovery of *any subset* of
  concurrently in-flight jobs is exercisable on a multi-slot daemon
* ``hang-worker@slot``        — the worker on execution slot ``slot``
  sleeps instead of making progress, tripping the daemon's per-slot
  heartbeat watchdog

Two overload-control kinds drive the daemon's graceful-degradation
paths (:mod:`repro.service.overload`) deterministically:

* ``slow-slot@slot[:factor]`` — specs executing on slot ``slot`` (or
  every slot with ``*``) take ``factor``× their real wall time (default
  8): the worker sleeps the difference after executing, so queue
  pressure builds honestly and brownout/deadline admission paths fire
  under test without wall-clock-scale workloads. Its trailing slot is
  a positive float factor, not an attempt budget.
* ``pool-break@k``            — the ``k``-th task the executor hands
  to a worker process (0-based, counted process-locally like
  ``corrupt``) raises :class:`InjectedPoolBreak` instead of executing,
  modeling a lost worker, for the sweep and the daemon alike; the
  circuit breaker must count it, open after K of them, and degrade to
  inline execution. ``k`` of ``*`` breaks every worker submission
  while the fault is active; ``pool-break@0,pool-break@1,pool-break@2``
  breaks exactly the first three.

Daemon crash kinds raise :class:`InjectedCrash` (a ``BaseException``, so
no library handler can swallow it); ``chimera serve`` converts it to a
real ``os._exit`` so the process dies exactly like ``kill -9``, while
in-process tests catch it at the crash boundary.

Examples::

    CHIMERA_FAULTS="fail@1"            # spec 1 fails once, retry succeeds
    CHIMERA_FAULTS="crash@0:inf"       # spec 0 always crashes its worker
    CHIMERA_FAULTS="hang@2,corrupt@0"  # spec 2 hangs; first put corrupted
    CHIMERA_FAULTS="slow-slot@*:4"     # every daemon slot runs 4x slower
    CHIMERA_FAULTS="crash-after-commit@5"  # daemon dies after record 5
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

from repro.env import env_float
from repro.errors import ConfigError, ReproError

#: Garbage written over a cache entry by the ``corrupt`` fault.
CORRUPT_PAYLOAD = b"\x00chimera fault injection: deliberately corrupt\x00"

#: Worker exit code used by the ``crash`` fault.
CRASH_EXIT_CODE = 13

_KINDS = ("fail", "crash", "hang", "corrupt", "crash-before-commit",
          "crash-after-commit", "torn-journal", "crash-inflight",
          "hang-worker", "slow-slot", "pool-break")

#: Daemon fault kinds that kill the process at a journal boundary.
SERVICE_CRASH_KINDS = ("crash-before-commit", "crash-after-commit",
                       "torn-journal", "crash-inflight")

#: Kinds whose trailing slot is a float factor, with their defaults.
_FACTOR_DEFAULTS = {"slow-slot": 8.0}

#: PID of the process that imported this module. Forked pool workers
#: inherit the value, so a differing ``os.getpid()`` marks a worker.
_MAIN_PID = os.getpid()

_installed: Optional["FaultPlan"] = None
_env_cache: Tuple[Optional[str], Optional["FaultPlan"]] = (None, None)
_put_seq = 0
_pool_seq = 0


class FaultInjected(ReproError):
    """Raised by the ``fail`` fault to simulate a failing spec."""


class InjectedCrash(BaseException):
    """A daemon crash point fired (``crash-before-commit`` /
    ``crash-after-commit`` / ``torn-journal``).

    Derives from ``BaseException`` so that no ``except Exception``
    handler in the daemon can accidentally survive an injected crash —
    the whole point is to model ``kill -9``. ``chimera serve`` converts
    it to ``os._exit(CRASH_EXIT_CODE)``; in-process tests catch it at
    the crash boundary and then exercise recovery with a fresh daemon.
    """

    def __init__(self, kind: str, seq: int):
        super().__init__(f"injected daemon crash: {kind} at journal seq {seq}")
        self.kind = kind
        self.seq = seq


class InjectedPoolBreak(ReproError):
    """The ``pool-break`` fault fired on a worker submission.

    Modeled as an ordinary exception (unlike :class:`InjectedCrash`):
    a lost worker is survivable — the executor's circuit breaker counts
    it and degrades to inline execution, which is exactly the path
    under test.
    """

    def __init__(self, seq: int):
        super().__init__(f"injected worker-pool break (submission {seq})")
        self.seq = seq


@dataclass(frozen=True)
class Fault:
    """One directive: a kind, a target index, a trailing number.

    For most kinds the trailing number is an attempt budget; for
    ``slow-slot`` it is a positive float factor.
    """

    kind: str
    index: Optional[int]      # None targets every index
    attempts: float = 1.0     # fire while attempt < attempts; inf = always

    def matches(self, index: int, attempt: int) -> bool:
        """Does this fault fire for the given spec attempt?"""
        return ((self.index is None or self.index == index)
                and attempt < self.attempts)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of faults, queried by the execution layer."""

    faults: Tuple[Fault, ...] = ()

    def fires(self, kind: str, index: int, attempt: int) -> bool:
        """Does any fault of ``kind`` fire for this spec attempt?"""
        return any(f.kind == kind and f.matches(index, attempt)
                   for f in self.faults)

    def has_corrupt(self) -> bool:
        """Does the plan contain any cache-corruption fault?"""
        return any(f.kind == "corrupt" for f in self.faults)

    def corrupts_put(self, seq: int) -> bool:
        """Should the ``seq``-th cache put of this process be corrupted?"""
        return any(f.kind == "corrupt" and (f.index is None or f.index == seq)
                   for f in self.faults)


def parse_plan(text: str) -> FaultPlan:
    """Parse a ``CHIMERA_FAULTS`` directive string into a plan."""
    faults = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        kind, sep, target = part.partition("@")
        kind = kind.strip().lower()
        if not sep or kind not in _KINDS:
            raise ConfigError(
                f"bad CHIMERA_FAULTS entry {part!r}: expected "
                f"kind@index[:attempts] with kind in {_KINDS}")
        index_s, _, attempts_s = target.partition(":")
        index_s = index_s.strip()
        if index_s in ("", "*"):
            index: Optional[int] = None
        else:
            try:
                index = int(index_s)
            except ValueError as exc:
                raise ConfigError(
                    f"bad CHIMERA_FAULTS index {index_s!r} in {part!r}"
                ) from exc
            if index < 0:
                raise ConfigError(f"CHIMERA_FAULTS index must be >= 0: {part!r}")
        attempts_s = attempts_s.strip()
        if kind in _FACTOR_DEFAULTS:
            if not attempts_s:
                attempts = _FACTOR_DEFAULTS[kind]
            else:
                try:
                    attempts = float(attempts_s)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad CHIMERA_FAULTS factor {attempts_s!r} in {part!r}"
                    ) from exc
                if attempts <= 0 or not math.isfinite(attempts):
                    raise ConfigError(
                        f"CHIMERA_FAULTS factor must be a positive finite "
                        f"number: {part!r}")
        elif not attempts_s:
            attempts = 1.0
        elif attempts_s in ("inf", "*"):
            attempts = math.inf
        else:
            try:
                attempts = float(int(attempts_s))
            except ValueError as exc:
                raise ConfigError(
                    f"bad CHIMERA_FAULTS attempts {attempts_s!r} in {part!r}"
                ) from exc
            if attempts < 1:
                raise ConfigError(
                    f"CHIMERA_FAULTS attempts must be >= 1: {part!r}")
        faults.append(Fault(kind=kind, index=index, attempts=attempts))
    return FaultPlan(tuple(faults))


def install(plan: Union[FaultPlan, str]) -> None:
    """Install a process-local plan (overrides ``CHIMERA_FAULTS``)."""
    global _installed, _put_seq, _pool_seq
    _installed = parse_plan(plan) if isinstance(plan, str) else plan
    _put_seq = 0
    _pool_seq = 0


def clear() -> None:
    """Remove any installed plan and reset the put/pool counters."""
    global _installed, _put_seq, _pool_seq
    _installed = None
    _put_seq = 0
    _pool_seq = 0


@contextmanager
def injected(plan: Union[FaultPlan, str]) -> Iterator[None]:
    """Context manager: install a plan, always clear it on exit."""
    install(plan)
    try:
        yield
    finally:
        clear()


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from ``CHIMERA_FAULTS``."""
    if _installed is not None:
        return _installed
    text = os.environ.get("CHIMERA_FAULTS", "").strip()
    if not text:
        return None
    global _env_cache
    if _env_cache[0] != text:
        _env_cache = (text, parse_plan(text))
    return _env_cache[1]


def hang_seconds() -> float:
    """Sleep duration for the ``hang`` fault (``CHIMERA_FAULT_HANG_S``)."""
    return env_float("CHIMERA_FAULT_HANG_S", 3600.0, minimum=0.0)


def in_worker() -> bool:
    """True inside a forked pool worker, False in the main process."""
    return os.getpid() != _MAIN_PID


def inject_before_execute(index: int, attempt: int) -> None:
    """Fire any fault targeting this (spec index, attempt).

    Called by the sweep layer immediately before a spec executes, both
    in worker processes and inline. ``crash`` only fires in workers:
    killing the main process would take the whole sweep (and test
    suite) down, and a crash-prone spec *should* succeed once the
    circuit breaker runs it inline.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.fires("crash", index, attempt) and in_worker():
        os._exit(CRASH_EXIT_CODE)
    if plan.fires("hang", index, attempt):
        time.sleep(hang_seconds())
    if plan.fires("fail", index, attempt):
        raise FaultInjected(
            f"injected failure (spec {index}, attempt {attempt})")


def should_corrupt_put(key: str) -> bool:
    """Should the cache corrupt the entry it just wrote for ``key``?

    Counts puts process-locally; the counter resets on
    :func:`install`/:func:`clear` so fixture-driven tests are
    deterministic. Returns False (and does not count) when no corrupt
    fault is active.
    """
    global _put_seq
    plan = active_plan()
    if plan is None or not plan.has_corrupt():
        return False
    seq = _put_seq
    _put_seq += 1
    return plan.corrupts_put(seq)


def service_crash_point(kind: str, seq: int) -> None:
    """Fire a daemon crash fault at a journal boundary, if planned.

    Called by the persistent store around every journal append:
    ``kind`` is ``crash-before-commit`` or ``crash-after-commit`` and
    ``seq`` is the global journal sequence number about to be (or just)
    written. Raises :class:`InjectedCrash` when the plan fires.
    """
    plan = active_plan()
    if plan is not None and plan.fires(kind, seq, 0):
        raise InjectedCrash(kind, seq)


def torn_journal_fires(seq: int) -> bool:
    """Should journal record ``seq`` be written torn (then crash)?

    The store handles the actual half-write itself — it needs to flush
    the partial bytes before dying — and then raises
    :class:`InjectedCrash` on its own.
    """
    plan = active_plan()
    return plan is not None and plan.fires("torn-journal", seq, 0)


def service_inflight_crash(in_flight: int, seq: int) -> None:
    """Fire ``crash-inflight`` when ``in_flight`` jobs are mid-dispatch.

    Called by the persistent store on every journal append with the
    number of jobs currently in a dispatch state
    (admitted/running/resumed) as reported by the daemon. Raises
    :class:`InjectedCrash` at the first append made while exactly ``K``
    jobs are in flight, so multi-slot crash recovery is provable for
    any concurrency level.
    """
    plan = active_plan()
    if plan is not None and plan.fires("crash-inflight", in_flight, 0):
        raise InjectedCrash("crash-inflight", seq)


def slow_slot_factor(slot: int) -> Optional[float]:
    """Service-time inflation factor for execution slot ``slot``, or
    None when unfaulted.

    The daemon's worker sleeps ``(factor - 1) × wall`` after executing
    a spec on a faulted slot, so observed service times (and therefore
    queue pressure, deadline admission, and brownout escalation) behave
    as if the machine were ``factor``× slower — without wall-clock-scale
    workloads in tests or CI.
    """
    plan = active_plan()
    if plan is None:
        return None
    for fault in plan.faults:
        if fault.kind == "slow-slot" and (fault.index is None
                                          or fault.index == slot):
            return fault.attempts
    return None


def inject_pool_break() -> None:
    """Raise :class:`InjectedPoolBreak` if the plan breaks this
    worker submission. Counts submissions process-locally.

    Called by the executor immediately before handing a task to a
    worker; the counter resets on :func:`install`/:func:`clear` so
    fixture-driven tests are deterministic. A no-op (that does not
    count) when no ``pool-break`` fault is active.
    """
    global _pool_seq
    plan = active_plan()
    if plan is None or not any(f.kind == "pool-break" for f in plan.faults):
        return
    seq = _pool_seq
    _pool_seq += 1
    if plan.fires("pool-break", seq, 0):
        raise InjectedPoolBreak(seq)


def worker_hang_fires(slot: int) -> bool:
    """Should the worker on execution slot ``slot`` hang?

    The daemon's worker sleeps :func:`hang_seconds` instead of
    executing, so the per-slot heartbeat watchdog observes a stalled
    job on that slot while its siblings keep making progress. (With a
    single-slot daemon this degenerates to the pre-multi-slot
    behavior: slot 0 is the only worker.)
    """
    plan = active_plan()
    return plan is not None and plan.fires("hang-worker", slot, 0)


__all__ = [
    "CORRUPT_PAYLOAD",
    "CRASH_EXIT_CODE",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "InjectedCrash",
    "InjectedPoolBreak",
    "SERVICE_CRASH_KINDS",
    "active_plan",
    "clear",
    "hang_seconds",
    "in_worker",
    "inject_before_execute",
    "inject_pool_break",
    "injected",
    "install",
    "parse_plan",
    "service_crash_point",
    "service_inflight_crash",
    "should_corrupt_put",
    "slow_slot_factor",
    "torn_journal_fires",
    "worker_hang_fires",
]
