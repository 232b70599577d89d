"""Declarative sweep execution: RunSpecs, a fault-tolerant runner, caching.

Every paper artifact is a sweep of independent, deterministic
simulations. A :class:`RunSpec` captures one such simulation — scenario
kind, every parameter, the seed, the machine configuration — as a
picklable value with a canonical content hash. A :class:`SweepRunner`
executes batches of RunSpecs through a
:class:`~repro.harness.executor.WorkerExecutor`, on forked worker
processes when more than one job is configured, and consults an on-disk
:class:`~repro.harness.cache.ResultCache` so re-running a figure is a
cache hit.

Parallel execution is bit-identical to serial execution: each RunSpec
builds its whole simulation (engine, RNG streams, GPU) from scratch
inside ``execute()``, so results depend only on the spec — never on
which process ran it, in which order, or after how many retries.

The runner is built to survive worker failure (DESIGN.md §7 has the
full state machine):

* every spec is its own task and its result is persisted to the cache
  *the moment it completes* — a later sibling failure can never discard
  finished work;
* a failing attempt is retried up to ``max_retries`` times with
  exponential backoff before becoming a :class:`SpecFailure`;
* a per-spec wall-clock ``timeout`` bounds hung specs: only the hung
  spec's worker is killed and replaced, and the spec is retried or
  reported as a timeout failure — no sibling is re-run;
* a crashed worker costs only the spec it ran, which is requeued at the
  same attempt; the circuit ``breaker`` counts crashes, and while it is
  open specs run inline in this process (where timeouts are
  unenforceable but every remaining spec still runs) until a half-open
  probe restores the workers — as does a spec that has itself crashed
  the breaker's ``K`` workers;
* ``strict=True`` (default) raises :class:`~repro.errors.SweepError`
  *after* the whole batch has been driven to completion; ``strict=False``
  (keep-going) returns :class:`SpecFailure` objects in the result list.

Environment knobs:

* ``CHIMERA_JOBS``          — worker count (default ``os.cpu_count()``;
  ``1`` runs every spec serially in-process)
* ``CHIMERA_SPEC_TIMEOUT``  — per-spec wall-clock timeout in seconds
  (default: none; ``0`` also disables)
* ``CHIMERA_MAX_RETRIES``   — retry budget per spec (default ``1``)
* ``CHIMERA_RETRY_BACKOFF`` — base backoff in seconds, doubled per
  attempt (default ``0.1``)
* ``CHIMERA_KEEP_GOING``    — any non-empty value makes runners
  non-strict by default
* ``CHIMERA_FAULTS``        — deterministic fault injection; see
  :mod:`repro.harness.faults`
* ``CHIMERA_CACHE_DIR`` / ``CHIMERA_NO_CACHE`` — see
  :mod:`repro.harness.cache`
* ``CHIMERA_TRACE``         — directory for per-spec event traces;
  every executed spec writes ``<describe>-<hash>.jsonl`` there (cache
  hits skip execution and therefore write no trace — disable the cache
  to capture everything, as ``--trace`` does)
* ``CHIMERA_TRACE_CAPACITY`` — per-spec trace record cap (default
  500000; overflow counts in the file's ``dropped`` header field)
* ``CHIMERA_WORKER_GROUP``   — ``"i/N"`` splits a sweep across N
  detached runner processes coordinated only through the shared
  content-addressed cache: this runner executes the misses whose key
  hashes to group ``i`` and polls the cache for every other group's
  results
* ``CHIMERA_SHARD_WAIT``     — seconds a worker group waits for foreign
  groups' results to appear in the cache (default 600; ``0`` fails
  foreign misses immediately)
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.env import env_float, env_int
from repro.errors import ConfigError, SweepError
from repro.gpu.config import GPUConfig
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.executor import CircuitBreaker, TaskFailure, WorkerExecutor
from repro.harness.runner import (
    PairResult,
    PeriodicResult,
    SoloResult,
    run_pair,
    run_periodic,
    run_solo,
)
from repro.harness.scenario import ScenarioSpec, TrafficResult, run_traffic
from repro.sched.kernel_scheduler import SchedulerMode
from repro.sim.trace import Tracer, dump_jsonl
from repro.workloads.multiprogram import MultiprogramWorkload

logger = logging.getLogger("repro.harness.sweep")

RunResult = Union[SoloResult, PairResult, PeriodicResult, TrafficResult]

#: Spec-format version: bump when RunSpec semantics change so stale
#: cache entries from an older layout can never be replayed.
#: v2: GPUConfig gained qos_mode/qos_slack and results carry a ``qos``
#: ledger summary — v1 entries predate both.
#: v3: RunSpec gained the ``scenario`` field (traffic kind) and traffic
#: results carry an ``slo`` report.
SPEC_VERSION = 3


@dataclass(frozen=True)
class RunSpec:
    """One deterministic simulation, as a picklable value.

    Use the :meth:`solo`, :meth:`pair`, and :meth:`periodic`
    constructors rather than filling fields by hand.
    """

    kind: str                                  # "solo" | "pair" | "periodic"
    seed: int = 12345
    config: Optional[GPUConfig] = None
    # solo + periodic
    label: Optional[str] = None
    target_kernel_us: Optional[float] = None
    # solo + pair
    budget_insts: Optional[float] = None
    # pair
    labels: Optional[Tuple[str, ...]] = None
    policy: Optional[str] = None               # None + mode=fcfs: baseline
    mode: str = SchedulerMode.SPATIAL.value
    latency_limit_us: float = 30.0
    restart: bool = True
    workload_name: Optional[str] = None
    # periodic
    constraint_us: float = 15.0
    periods: int = 10
    # traffic
    scenario: Optional[ScenarioSpec] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def solo(cls, label: str, budget_insts: float, seed: int = 12345,
             config: Optional[GPUConfig] = None,
             target_kernel_us: Optional[float] = None) -> "RunSpec":
        """A benchmark running alone (ANTT/STP baseline)."""
        return cls(kind="solo", label=label, budget_insts=budget_insts,
                   seed=seed, config=config,
                   target_kernel_us=target_kernel_us)

    @classmethod
    def pair(cls, workload: MultiprogramWorkload, policy: Optional[str],
             mode: SchedulerMode = SchedulerMode.SPATIAL,
             seed: int = 12345, latency_limit_us: float = 30.0,
             config: Optional[GPUConfig] = None,
             target_kernel_us: Optional[float] = None) -> "RunSpec":
        """A multiprogrammed combination (``policy=None`` + FCFS mode is
        the paper's non-preemptive baseline)."""
        return cls(kind="pair", labels=tuple(workload.labels),
                   budget_insts=workload.budget_insts,
                   restart=workload.restart, policy=policy, mode=mode.value,
                   seed=seed, latency_limit_us=latency_limit_us,
                   config=config, target_kernel_us=target_kernel_us,
                   workload_name=workload.name)

    @classmethod
    def periodic(cls, label: str, policy: str, constraint_us: float = 15.0,
                 periods: int = 10, seed: int = 12345,
                 config: Optional[GPUConfig] = None,
                 target_kernel_us: Optional[float] = None) -> "RunSpec":
        """A benchmark sharing the GPU with the periodic real-time task."""
        return cls(kind="periodic", label=label, policy=policy,
                   constraint_us=constraint_us, periods=periods, seed=seed,
                   config=config, target_kernel_us=target_kernel_us)

    @classmethod
    def traffic(cls, scenario: ScenarioSpec, policy: str = "chimera",
                seed: int = 12345, latency_limit_us: float = 30.0,
                config: Optional[GPUConfig] = None,
                target_kernel_us: Optional[float] = None) -> "RunSpec":
        """An open-arrival traffic scenario replay (SLO serving)."""
        return cls(kind="traffic", scenario=scenario, policy=policy,
                   seed=seed, latency_limit_us=latency_limit_us,
                   config=config, target_kernel_us=target_kernel_us)

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------

    def canonical(self) -> str:
        """Canonical JSON form of every result-determining field.

        ``config=None`` normalizes to the default :class:`GPUConfig`, so
        an explicit default config and an omitted one share a hash. The
        workload display name is excluded — it carries no behavior.
        """
        fields = dataclasses.asdict(self)
        fields.pop("workload_name", None)
        fields["config"] = dataclasses.asdict(self.config or GPUConfig())
        fields["spec_version"] = SPEC_VERSION
        return json.dumps(fields, sort_keys=True, default=repr)

    def cache_key(self) -> str:
        """Content hash of the spec, the config fingerprint, and the
        repro version — the on-disk cache invalidation key."""
        return ResultCache.digest(f"{repro.__version__}:{self.canonical()}")

    def describe(self) -> str:
        """Short human-readable identity for logs and failure reports."""
        if self.kind == "pair":
            name = self.workload_name or "+".join(self.labels or ())
            return f"pair[{name}] policy={self.policy or 'fcfs'}"
        if self.kind == "periodic":
            return f"periodic[{self.label}] policy={self.policy}"
        if self.kind == "traffic":
            tenants = len(self.scenario.tenants) if self.scenario else 0
            horizon = self.scenario.horizon_us if self.scenario else 0
            return (f"traffic[{tenants}t/{horizon:g}us] "
                    f"policy={self.policy}")
        return f"{self.kind}[{self.label}]"

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, tracer: Optional[Tracer] = None) -> RunResult:
        """Run this spec's simulation from scratch and return its result.

        ``tracer`` (optional) captures the run's event trace; the spec's
        identity is stamped into the trace metadata.
        """
        if tracer is not None:
            tracer.meta.setdefault("spec", self.describe())
            tracer.meta.setdefault("spec_key", self.cache_key())
        if self.kind == "solo":
            return run_solo(self.label, self.budget_insts, seed=self.seed,
                            config=self.config,
                            target_kernel_us=self.target_kernel_us,
                            tracer=tracer)
        if self.kind == "pair":
            workload = MultiprogramWorkload(self.labels, self.budget_insts,
                                            restart=self.restart)
            return run_pair(workload, self.policy,
                            mode=SchedulerMode(self.mode), seed=self.seed,
                            latency_limit_us=self.latency_limit_us,
                            config=self.config,
                            target_kernel_us=self.target_kernel_us,
                            tracer=tracer)
        if self.kind == "periodic":
            return run_periodic(self.label, self.policy,
                                constraint_us=self.constraint_us,
                                periods=self.periods, seed=self.seed,
                                config=self.config,
                                target_kernel_us=self.target_kernel_us,
                                tracer=tracer)
        if self.kind == "traffic":
            if self.scenario is None:
                raise ConfigError("traffic spec needs a scenario")
            return run_traffic(self.scenario, policy_name=self.policy,
                               seed=self.seed, config=self.config,
                               target_kernel_us=self.target_kernel_us,
                               latency_limit_us=self.latency_limit_us,
                               tracer=tracer)
        raise ConfigError(f"unknown RunSpec kind {self.kind!r}")


@dataclass(frozen=True)
class SpecFailure:
    """A spec that failed permanently after exhausting its retries.

    In keep-going mode (``strict=False``) these appear in the result
    list at the failed spec's positions; in strict mode they ride on the
    raised :class:`~repro.errors.SweepError`.
    """

    spec: RunSpec
    kind: str        # "error" | "timeout"
    error: str
    attempts: int

    def describe(self) -> str:
        """One-line summary for failure reports."""
        return (f"{self.spec.describe()}: {self.kind} after "
                f"{self.attempts} attempt(s): {self.error}")


def format_failures(failures: Sequence[SpecFailure]) -> str:
    """Multi-line per-spec failure summary (shared by CLI and SweepError)."""
    lines = [f"{len(failures)} spec(s) failed permanently:"]
    lines.extend(f"  - {failure.describe()}" for failure in failures)
    return "\n".join(lines)


def default_trace_dir() -> Optional[str]:
    """Trace output directory from ``CHIMERA_TRACE`` (unset: no traces)."""
    raw = os.environ.get("CHIMERA_TRACE", "").strip()
    return raw or None


def default_trace_capacity() -> int:
    """Per-spec trace record cap from ``CHIMERA_TRACE_CAPACITY``."""
    return env_int("CHIMERA_TRACE_CAPACITY", 500_000, minimum=1)


def trace_path_for(spec: RunSpec, trace_dir: str) -> str:
    """Where :func:`execute_timed` writes ``spec``'s trace under
    ``trace_dir``: a sanitized describe() plus a content-hash prefix, so
    distinct specs never collide and reruns overwrite deterministically."""
    slug = re.sub(r"[^A-Za-z0-9_.+-]+", "_", spec.describe()).strip("_")
    return os.path.join(trace_dir, f"{slug}-{spec.cache_key()[:12]}.jsonl")


def execute_timed(spec: RunSpec) -> Tuple[RunResult, float]:
    """Execute a spec, returning (result, wall seconds). Module-level so
    it pickles by reference into worker processes.

    When ``CHIMERA_TRACE`` names a directory (the env var is inherited
    by worker processes), the run is captured to a per-spec JSONL trace
    there; the dump happens outside the timed region.
    """
    trace_dir = default_trace_dir()
    tracer = (Tracer(capacity=default_trace_capacity())
              if trace_dir is not None else None)
    start = time.perf_counter()
    result = spec.execute(tracer=tracer)
    duration = time.perf_counter() - start
    if tracer is not None:
        dump_jsonl(tracer, trace_path_for(spec, trace_dir))
    return result, duration


def execute_faulted(spec: RunSpec, index: int,
                    attempt: int) -> Tuple[RunResult, float]:
    """Fault-injection-aware :func:`execute_timed`: fires any configured
    fault for (batch index, attempt) first. Module-level and picklable;
    this is the task the runner submits to its executor."""
    faults.inject_before_execute(index, attempt)
    return execute_timed(spec)


@dataclass
class SweepStats:
    """Accounting for one or more SweepRunner.run() calls."""

    jobs: int = 1
    specs: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    failed: int = 0
    #: Results produced by other worker groups and picked up from the
    #: shared cache (zero unless CHIMERA_WORKER_GROUP splits the sweep).
    foreign: int = 0
    #: Workers lost mid-spec (crashes and injected pool breaks); each
    #: requeued its spec at the same attempt.
    worker_deaths: int = 0
    #: True when the circuit breaker sent some spec inline.
    degraded: bool = False
    wall_s: float = 0.0
    #: Sum of per-spec execution times — what a one-process sweep would
    #: have cost (cached specs contribute their recorded durations).
    serial_equiv_s: float = 0.0
    #: QoS guard rollup over every executed result that carried a
    #: ledger summary: budget overruns and mid-flight escalations.
    qos_violations: int = 0
    qos_escalations: int = 0
    #: SLO rollup over every executed traffic result: offered arrivals,
    #: arrivals that met their SLO, and arrivals dropped at the horizon.
    slo_arrivals: int = 0
    slo_met: int = 0
    slo_dropped: int = 0

    def merge(self, other: "SweepStats") -> None:
        """Fold another accumulator into this one."""
        self.specs += other.specs
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.failed += other.failed
        self.foreign += other.foreign
        self.worker_deaths += other.worker_deaths
        self.degraded = self.degraded or other.degraded
        self.wall_s += other.wall_s
        self.serial_equiv_s += other.serial_equiv_s
        self.qos_violations += other.qos_violations
        self.qos_escalations += other.qos_escalations
        self.slo_arrivals += other.slo_arrivals
        self.slo_met += other.slo_met
        self.slo_dropped += other.slo_dropped

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for the timings log."""
        return {
            "jobs": self.jobs,
            "specs": self.specs,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failed": self.failed,
            "foreign": self.foreign,
            "worker_deaths": self.worker_deaths,
            "degraded": self.degraded,
            "wall_s": round(self.wall_s, 4),
            "serial_equiv_s": round(self.serial_equiv_s, 4),
            "qos_violations": self.qos_violations,
            "qos_escalations": self.qos_escalations,
            "slo_arrivals": self.slo_arrivals,
            "slo_met": self.slo_met,
            "slo_dropped": self.slo_dropped,
        }


def default_jobs() -> int:
    """Worker count from ``CHIMERA_JOBS``, default ``os.cpu_count()``."""
    return env_int("CHIMERA_JOBS", os.cpu_count() or 1, minimum=1)


def default_spec_timeout() -> Optional[float]:
    """Per-spec timeout in seconds from ``CHIMERA_SPEC_TIMEOUT``.

    Unset or ``0`` means no timeout (returns None).
    """
    return env_float("CHIMERA_SPEC_TIMEOUT", 0.0, minimum=0.0) or None


def default_max_retries() -> int:
    """Retry budget per spec from ``CHIMERA_MAX_RETRIES`` (default 1)."""
    return env_int("CHIMERA_MAX_RETRIES", 1, minimum=0)


def default_retry_backoff() -> float:
    """Base retry backoff seconds from ``CHIMERA_RETRY_BACKOFF``
    (default 0.1; doubled on every subsequent attempt)."""
    return env_float("CHIMERA_RETRY_BACKOFF", 0.1, minimum=0.0)


def default_strict() -> bool:
    """Strictness default: ``CHIMERA_KEEP_GOING`` set means non-strict."""
    return not os.environ.get("CHIMERA_KEEP_GOING", "").strip()


def default_worker_group() -> Optional[Tuple[int, int]]:
    """Worker-group membership ``(index, total)`` from
    ``CHIMERA_WORKER_GROUP`` (format ``"i/N"`` with ``0 <= i < N``), or
    None when the sweep is not split across detached runners."""
    raw = os.environ.get("CHIMERA_WORKER_GROUP", "").strip()
    if not raw:
        return None
    match = re.fullmatch(r"(\d+)/(\d+)", raw)
    if not match:
        raise ConfigError(
            f"CHIMERA_WORKER_GROUP must look like 'i/N', got {raw!r}")
    index, total = int(match.group(1)), int(match.group(2))
    if total < 1 or not 0 <= index < total:
        raise ConfigError(
            f"CHIMERA_WORKER_GROUP needs 0 <= i < N, got {raw!r}")
    return (index, total)


def default_shard_wait() -> float:
    """Seconds to wait for foreign worker groups' cache entries, from
    ``CHIMERA_SHARD_WAIT`` (default 600; 0 fails foreign misses
    immediately)."""
    return env_float("CHIMERA_SHARD_WAIT", 600.0, minimum=0.0)


def group_of(key: str, total: int) -> int:
    """Deterministic worker group of a cache key: the first 8 hex
    digits of the content hash modulo the group count, so every runner
    partitions a sweep identically with no coordination."""
    return int(key[:8], 16) % total


class SweepRunner:
    """Executes batches of RunSpecs, in parallel, fault-tolerantly, and
    through the cache.

    Results come back in submission order. Identical specs in one batch
    (or across batches on the same runner) execute once: an in-memory
    memo keyed by content hash returns the *same* result object, and the
    on-disk cache replays results across processes and sessions. Each
    result is persisted the moment its spec completes, so a failing
    sibling can never discard finished work.

    Failure handling (see the module docstring and DESIGN.md §7) is the
    executor's: per-spec ``timeout``, bounded ``max_retries`` with
    exponential backoff, and a circuit ``breaker`` that sends specs
    inline after repeated worker crashes. The runner adds the
    ``strict``/keep-going result contracts. Workers live for one
    :meth:`run` call.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 timeout: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 retry_backoff: Optional[float] = None,
                 strict: Optional[bool] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 worker_group: Optional[Tuple[int, int]] = None,
                 shard_wait: Optional[float] = None):
        self.jobs = default_jobs() if jobs is None else jobs
        if self.jobs < 1:
            raise ConfigError("SweepRunner needs at least one worker")
        self.cache = ResultCache.from_env() if cache is None else cache
        self.timeout = default_spec_timeout() if timeout is None \
            else (timeout or None)
        if self.timeout is not None and self.timeout < 0:
            raise ConfigError("timeout must be >= 0")
        self.max_retries = default_max_retries() if max_retries is None \
            else max_retries
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        self.retry_backoff = default_retry_backoff() if retry_backoff is None \
            else retry_backoff
        if self.retry_backoff < 0:
            raise ConfigError("retry_backoff must be >= 0")
        self.strict = default_strict() if strict is None else strict
        #: Counts worker crashes across this runner's run() calls.
        self.breaker = CircuitBreaker() if breaker is None else breaker
        self.worker_group = default_worker_group() if worker_group is None \
            else worker_group
        if self.worker_group is not None:
            index, total = self.worker_group
            if total < 1 or not 0 <= index < total:
                raise ConfigError(
                    f"worker_group needs 0 <= i < N, got {self.worker_group}")
        self.shard_wait = default_shard_wait() if shard_wait is None \
            else shard_wait
        if self.shard_wait < 0:
            raise ConfigError("shard_wait must be >= 0")
        if self.worker_group is not None and not self.cache.enabled:
            raise ConfigError(
                "worker groups coordinate through the shared result cache; "
                "unset CHIMERA_NO_CACHE to use CHIMERA_WORKER_GROUP")
        self._memo: Dict[str, RunResult] = {}
        self._memo_duration: Dict[str, float] = {}
        #: Stats of the most recent run() call.
        self.last_stats: Optional[SweepStats] = None
        #: Stats accumulated over this runner's lifetime.
        self.total_stats = SweepStats(jobs=self.jobs)

    def run(self, specs: Sequence[RunSpec],
            strict: Optional[bool] = None
            ) -> List[Union[RunResult, SpecFailure]]:
        """Execute every spec; returns results in submission order.

        With ``strict=True`` (the default contract) a permanently failed
        spec raises :class:`~repro.errors.SweepError` — but only after
        the whole batch has been driven to completion and every finished
        result persisted. With ``strict=False`` the result list carries
        a :class:`SpecFailure` at each failed position instead.
        """
        strict = self.strict if strict is None else strict
        specs = list(specs)
        stats = SweepStats(jobs=self.jobs, specs=len(specs))
        start = time.perf_counter()
        results: List[Optional[Union[RunResult, SpecFailure]]] = \
            [None] * len(specs)
        misses: Dict[str, List[int]] = {}
        order: List[Tuple[str, RunSpec]] = []
        for i, spec in enumerate(specs):
            key = spec.cache_key()
            hit = self._lookup(key)
            if hit is not None:
                results[i] = hit
                stats.cache_hits += 1
                stats.serial_equiv_s += self._memo_duration.get(key, 0.0)
                continue
            if key not in misses:
                order.append((key, spec))
            misses.setdefault(key, []).append(i)
        failures = self._drive_misses(order, stats)
        failed: List[SpecFailure] = []
        for (key, _), failure in zip(order, failures):
            if failure is not None:
                failed.append(failure)
                stats.failed += 1
                for i in misses[key]:
                    results[i] = failure
            else:
                result = self._memo[key]
                for i in misses[key]:
                    results[i] = result
        stats.wall_s = time.perf_counter() - start
        self.last_stats = stats
        self.total_stats.merge(stats)
        if failed and strict:
            raise SweepError(format_failures(failed), failures=failed)
        return results  # type: ignore[return-value]

    def _lookup(self, key: str) -> Optional[RunResult]:
        """Memo, then disk. A disk hit is promoted into the memo so the
        same key later returns the identical object."""
        if key in self._memo:
            return self._memo[key]
        entry = self.cache.get(key)
        if entry is None:
            return None
        self._memo[key] = entry.result
        self._memo_duration[key] = entry.duration_s
        return entry.result

    def _record(self, key: str, result: RunResult, duration: float,
                stats: SweepStats) -> None:
        """Persist one completed result immediately (memo + disk)."""
        self._memo[key] = result
        self._memo_duration[key] = duration
        self.cache.put(key, result, duration)
        stats.executed += 1
        stats.serial_equiv_s += duration
        qos = getattr(result, "qos", None)
        if qos:
            stats.qos_violations += int(qos.get("violations", 0))
            stats.qos_escalations += int(qos.get("escalations", 0))
        slo = getattr(result, "slo", None)
        if slo:
            stats.slo_arrivals += int(slo.get("arrivals", 0))
            stats.slo_met += int(slo.get("met", 0))
            stats.slo_dropped += int(slo.get("dropped", 0))

    def _drive_misses(self, order: List[Tuple[str, RunSpec]],
                      stats: SweepStats) -> List[Optional[SpecFailure]]:
        """Run the deduplicated misses: partition by worker group, then
        execute this runner's share. Returns failures aligned with
        ``order``."""
        failures: List[Optional[SpecFailure]] = [None] * len(order)
        if self.worker_group is not None:
            index, total = self.worker_group
            mine = [(pos, item) for pos, item in enumerate(order)
                    if group_of(item[0], total) == index]
            theirs = [(pos, item) for pos, item in enumerate(order)
                      if group_of(item[0], total) != index]
        else:
            mine = list(enumerate(order))
            theirs = []
        if mine:
            self._execute(mine, failures, stats)
        if theirs:
            self._await_foreign(theirs, failures, stats)
        return failures

    def _execute(self, mine: List[Tuple[int, Tuple[str, RunSpec]]],
                 failures: List[Optional[SpecFailure]],
                 stats: SweepStats) -> None:
        """Run ``mine`` through an executor whose workers live for this
        call, recording each result the moment it lands.

        ``jobs=1`` runs inline, and so does a one-spec batch without a
        timeout; an enforced timeout always needs a worker, because an
        inline spec cannot be preempted. Each spec's position in
        ``mine`` is its fault-injection index.
        """
        single = len(mine) == 1 and not self.timeout
        workers = (0 if self.jobs == 1 or single
                   else min(self.jobs, len(mine)))
        executor = WorkerExecutor(workers, breaker=self.breaker,
                                  deadline_s=self.timeout,
                                  max_retries=self.max_retries,
                                  retry_backoff=self.retry_backoff)
        with executor:
            # Looked up now, not at import: callers patch this name.
            tasks = [(spec, index)
                     for index, (_, (_, spec)) in enumerate(mine)]
            for index, outcome in executor.map(execute_faulted, tasks):
                pos, (key, spec) = mine[index]
                if isinstance(outcome, TaskFailure):
                    failures[pos] = SpecFailure(
                        spec=spec, kind=outcome.kind, error=outcome.error,
                        attempts=outcome.attempts)
                    logger.warning("spec %s failed permanently (%s): %s",
                                   spec.describe(), outcome.kind,
                                   outcome.error)
                else:
                    self._record(key, *outcome, stats)
        stats.retries += executor.retries
        stats.timeouts += executor.timeouts
        stats.worker_deaths += executor.deaths
        stats.degraded = executor.degraded

    def _await_foreign(self,
                       theirs: List[Tuple[int, Tuple[str, RunSpec]]],
                       failures: List[Optional[SpecFailure]],
                       stats: SweepStats) -> None:
        """Wait for other worker groups' results to land in the cache.

        Detached groups coordinate only through the content-addressed
        cache: every runner partitions the key space the same way
        (:func:`group_of`), executes its share, and polls the shared
        cache for the rest. A foreign result that does not appear
        within ``shard_wait`` seconds becomes a timeout
        :class:`SpecFailure` (attempts=0 — this runner never executed
        it).
        """
        index, total = self.worker_group
        deadline = time.monotonic() + self.shard_wait
        pending = list(theirs)
        while pending:
            still_waiting = []
            for pos, (key, spec) in pending:
                if self._lookup(key) is not None:
                    stats.foreign += 1
                    stats.serial_equiv_s += self._memo_duration.get(key, 0.0)
                else:
                    still_waiting.append((pos, (key, spec)))
            pending = still_waiting
            if not pending or time.monotonic() >= deadline:
                break
            time.sleep(min(0.2, max(0.0, deadline - time.monotonic())))
        for pos, (key, spec) in pending:
            failures[pos] = SpecFailure(
                spec=spec, kind="timeout",
                error=(f"worker group {index}/{total}: foreign group "
                       f"{group_of(key, total)} did not publish "
                       f"{key[:12]}… within {self.shard_wait:.3g}s"),
                attempts=0)
            logger.warning("foreign spec %s missing from shared cache "
                           "after %.3gs", spec.describe(), self.shard_wait)


__all__ = [
    "RunSpec",
    "RunResult",
    "SpecFailure",
    "SweepRunner",
    "SweepStats",
    "default_jobs",
    "default_max_retries",
    "default_retry_backoff",
    "default_shard_wait",
    "default_spec_timeout",
    "default_strict",
    "default_worker_group",
    "group_of",
    "default_trace_capacity",
    "default_trace_dir",
    "execute_faulted",
    "execute_timed",
    "format_failures",
    "trace_path_for",
]
