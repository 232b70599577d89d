"""Figure-level experiment drivers.

Each function regenerates one of the paper's evaluation artifacts
(DESIGN.md §4 maps them). They build declarative
:class:`~repro.harness.sweep.RunSpec` batches, submit them through a
:class:`~repro.harness.sweep.SweepRunner` (parallel workers + on-disk
result cache), and assemble structured results the benchmark harness
formats into tables. Pass ``runner=`` to share one runner (and its
memoized results) across figures; by default each call builds a runner
from the ``CHIMERA_JOBS``/``CHIMERA_CACHE_DIR``/``CHIMERA_NO_CACHE``
environment knobs (plus the fault-tolerance knobs —
``CHIMERA_SPEC_TIMEOUT``, ``CHIMERA_MAX_RETRIES``,
``CHIMERA_KEEP_GOING`` — documented in :mod:`repro.harness.sweep`).

With a strict runner (the default) a permanently failed spec raises
:class:`~repro.errors.SweepError`. With a keep-going runner
(``strict=False`` / ``CHIMERA_KEEP_GOING``) each driver returns partial
results: failed cells are skipped and the per-spec
:class:`~repro.harness.sweep.SpecFailure` records accumulate on the
returned object's ``failures`` list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.chimera import POLICY_NAMES
from repro.core.techniques import Technique
from repro.gpu.config import GPUConfig
from repro.harness.runner import PairResult, PeriodicResult
from repro.harness.sweep import RunSpec, SpecFailure, SweepRunner
from repro.metrics.metrics import antt, normalized_turnaround, stp
from repro.sched.kernel_scheduler import SchedulerMode
from repro.workloads.multiprogram import MultiprogramWorkload
from repro.workloads.specs import benchmark_labels

#: Default scaled instruction budget for case-study runs.
DEFAULT_BUDGET = 8e6

#: Default number of 1 ms periods for the periodic-task scenario.
DEFAULT_PERIODS = 10


@dataclass
class PeriodicSweepResult:
    """Violations + overheads for a set of (benchmark, policy) runs."""

    constraint_us: float
    results: Dict[str, Dict[str, PeriodicResult]] = field(default_factory=dict)
    #: Permanently failed specs (keep-going mode only; strict raises).
    failures: List[SpecFailure] = field(default_factory=list)

    def add(self, result: PeriodicResult) -> None:
        """Add a value/sample (or record a keep-going failure)."""
        if isinstance(result, SpecFailure):
            self.failures.append(result)
            return
        self.results.setdefault(result.label, {})[result.policy] = result

    @property
    def complete(self) -> bool:
        """True when every submitted spec produced a result."""
        return not self.failures

    def policies(self) -> List[str]:
        """Policy names present, in insertion order."""
        seen: List[str] = []
        for per_policy in self.results.values():
            for policy in per_policy:
                if policy not in seen:
                    seen.append(policy)
        return seen

    def violation_rate(self, label: str, policy: str) -> float:
        """Fraction of requests that missed the deadline."""
        return self.results[label][policy].violations.violation_rate

    def overhead(self, label: str, policy: str) -> float:
        """Throughput overhead for one (benchmark, policy) run."""
        return self.results[label][policy].throughput_overhead

    def average_violation_rate(self, policy: str) -> float:
        """Mean violation rate across benchmarks."""
        rates = [per_policy[policy].violations.violation_rate
                 for per_policy in self.results.values() if policy in per_policy]
        return sum(rates) / len(rates) if rates else 0.0

    def average_overhead(self, policy: str) -> float:
        """Mean throughput overhead across benchmarks."""
        rates = [per_policy[policy].throughput_overhead
                 for per_policy in self.results.values() if policy in per_policy]
        return sum(rates) / len(rates) if rates else 0.0

    def technique_fractions(self, policy: str) -> Dict[Technique, float]:
        """Aggregate per-technique preemption shares."""
        counts: Dict[Technique, int] = {t: 0 for t in Technique}
        for per_policy in self.results.values():
            if policy not in per_policy:
                continue
            for tech, count in per_policy[policy].technique_mix.counts.items():
                counts[tech] += count
        total = sum(counts.values())
        if total == 0:
            return {t: 0.0 for t in Technique}
        return {t: counts[t] / total for t in Technique}


def figure6_7(labels: Optional[Sequence[str]] = None,
              policies: Sequence[str] = POLICY_NAMES,
              constraint_us: float = 15.0,
              periods: int = DEFAULT_PERIODS,
              seed: int = 12345,
              config: Optional[GPUConfig] = None,
              runner: Optional[SweepRunner] = None) -> PeriodicSweepResult:
    """Deadline violations (Fig. 6) and throughput overhead (Fig. 7)
    for each benchmark sharing the GPU with the periodic task."""
    labels = list(labels) if labels is not None else benchmark_labels()
    runner = runner or SweepRunner()
    specs = [
        RunSpec.periodic(label, policy, constraint_us=constraint_us,
                         periods=periods, seed=seed, config=config)
        for label in labels for policy in policies
    ]
    sweep = PeriodicSweepResult(constraint_us=constraint_us)
    for result in runner.run(specs):
        sweep.add(result)
    return sweep


def figure8(labels: Optional[Sequence[str]] = None,
            constraints_us: Sequence[float] = (5.0, 10.0, 15.0, 20.0),
            periods: int = DEFAULT_PERIODS,
            seed: int = 12345,
            config: Optional[GPUConfig] = None,
            runner: Optional[SweepRunner] = None
            ) -> Dict[float, PeriodicSweepResult]:
    """Chimera under varying latency constraints: violation rate (8a),
    throughput overhead (8b) and technique distribution (8c)."""
    labels = list(labels) if labels is not None else benchmark_labels()
    runner = runner or SweepRunner()
    specs = [
        RunSpec.periodic(label, "chimera", constraint_us=constraint,
                         periods=periods, seed=seed, config=config)
        for constraint in constraints_us for label in labels
    ]
    results = iter(runner.run(specs))
    out: Dict[float, PeriodicSweepResult] = {}
    for constraint in constraints_us:
        sweep = PeriodicSweepResult(constraint_us=constraint)
        for _ in labels:
            sweep.add(next(results))
        out[constraint] = sweep
    return out


def figure9(labels: Optional[Sequence[str]] = None,
            constraint_us: float = 15.0,
            periods: int = DEFAULT_PERIODS,
            seed: int = 12345,
            config: Optional[GPUConfig] = None,
            policies: Sequence[str] = ("flush-strict", "flush"),
            runner: Optional[SweepRunner] = None
            ) -> PeriodicSweepResult:
    """Strict vs relaxed idempotence for SM flushing (Fig. 9).

    Flushing with kernel-level flushability (strict) cannot preempt any
    non-idempotent kernel — those blocks must drain — against the
    per-block relaxed condition. Pass ``("chimera-strict", "chimera")``
    to see the same comparison inside the full collaborative policy.
    """
    return figure6_7(labels=labels, policies=policies,
                     constraint_us=constraint_us, periods=periods, seed=seed,
                     config=config, runner=runner)


@dataclass
class CaseStudyResult:
    """ANTT / STP improvements over FCFS for one workload combination."""

    workload_name: str
    labels: Sequence[str]
    #: policy -> per-benchmark normalized turnaround time.
    ntts: Dict[str, Dict[str, float]] = field(default_factory=dict)
    preemption_requests: Dict[str, int] = field(default_factory=dict)
    #: Permanently failed specs (keep-going mode only; strict raises).
    #: A non-empty list means the metrics above are unavailable: ANTT /
    #: STP need every solo baseline and pair run of the workload.
    failures: List[SpecFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when every spec of this workload produced a result."""
        return not self.failures

    def antt(self, policy: str) -> float:
        """Average normalized turnaround time for a policy."""
        return antt(list(self.ntts[policy].values()))

    def stp(self, policy: str) -> float:
        """System throughput for a policy."""
        return stp(list(self.ntts[policy].values()))

    def antt_improvement(self, policy: str, baseline: str = "fcfs") -> float:
        """How many times better (lower) ANTT is than the baseline."""
        return self.antt(baseline) / self.antt(policy)

    def stp_improvement(self, policy: str, baseline: str = "fcfs") -> float:
        """Relative STP gain over the baseline."""
        base = self.stp(baseline)
        return (self.stp(policy) - base) / base


def figure10_11(workload: MultiprogramWorkload,
                policies: Sequence[str] = POLICY_NAMES,
                latency_limit_us: float = 30.0,
                seed: int = 12345,
                config: Optional[GPUConfig] = None,
                runner: Optional[SweepRunner] = None
                ) -> CaseStudyResult:
    """ANTT (Fig. 10) and STP (Fig. 11) for one workload combination
    under each policy, normalized against non-preemptive FCFS.

    Solo baselines dedupe through the runner's cache (keyed on the full
    RunSpec — label, budget, seed, config, kernel-duration target — so
    a sweep mixing configs can never reuse a wrong baseline). Share one
    ``runner`` across calls to reuse solo runs in-process.
    """
    return case_study_sweep([workload], policies=policies,
                            latency_limit_us=latency_limit_us, seed=seed,
                            config=config, runner=runner)[workload.name]


def case_study_sweep(workloads: Sequence[MultiprogramWorkload],
                     policies: Sequence[str] = POLICY_NAMES,
                     latency_limit_us: float = 30.0,
                     seed: int = 12345,
                     config: Optional[GPUConfig] = None,
                     runner: Optional[SweepRunner] = None
                     ) -> Dict[str, CaseStudyResult]:
    """Figure 10/11 over many workload combinations in one batch.

    Every solo baseline and every (workload, policy) pair run across the
    whole sweep is submitted to the runner at once, so the fan-out sees
    the full parallelism of the sweep and duplicate solo runs (e.g. LUD
    appearing in 13 pairs) execute exactly once.

    With a keep-going runner, a workload with any permanently failed
    spec comes back with its ``failures`` list populated and no metrics
    (ANTT/STP need every baseline); the other workloads are unaffected.
    """
    runner = runner or SweepRunner()
    specs: List[RunSpec] = []
    for workload in workloads:
        for label in workload.labels:
            specs.append(RunSpec.solo(label, workload.budget_insts,
                                      seed=seed, config=config))
        specs.append(RunSpec.pair(workload, None, mode=SchedulerMode.FCFS,
                                  seed=seed, config=config))
        for policy in policies:
            specs.append(RunSpec.pair(workload, policy,
                                      latency_limit_us=latency_limit_us,
                                      seed=seed, config=config))
    all_results = runner.run(specs)

    out: Dict[str, CaseStudyResult] = {}
    pos = 0
    for workload in workloads:
        count = len(workload.labels) + 1 + len(policies)
        chunk = all_results[pos:pos + count]
        pos += count
        result = CaseStudyResult(workload_name=workload.name,
                                 labels=workload.labels)
        seen = set()
        for item in chunk:
            if isinstance(item, SpecFailure) and id(item) not in seen:
                seen.add(id(item))  # duplicate specs share one failure
                result.failures.append(item)
        out[workload.name] = result
        if result.failures:
            continue
        results = iter(chunk)
        solo_times = {label: next(results).metric_time_cycles
                      for label in workload.labels}

        def record(policy_key: str, pair: PairResult) -> None:
            """Record one observation."""
            result.ntts[policy_key] = {
                label: normalized_turnaround(solo_times[label],
                                             pair.metric_time_cycles[label])
                for label in workload.labels
            }
            result.preemption_requests[policy_key] = pair.preemption_records

        record("fcfs", next(results))
        for policy in policies:
            record(policy, next(results))
    return out
