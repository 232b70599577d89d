"""Scenario runners: solo, multiprogrammed pair, periodic real-time task.

These assemble the full stack (engine, GPU, two-level scheduler, policy,
synthetic workloads) and execute the paper's three experimental
protocols. Runs are deterministic in ``(seed, scenario parameters)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.chimera import PreemptionPolicy, make_policy
from repro.core.cost import CostEstimator
from repro.errors import ConfigError, SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU
from repro.gpu.kernel import Kernel
from repro.gpu.sm import PreemptionRecord
from repro.metrics.metrics import TechniqueMix, ViolationSummary
from repro.sched.guard import GuardPolicy, PreemptionGuard
from repro.sched.kernel_scheduler import KernelScheduler, SchedulerMode
from repro.sched.process import BenchmarkProcess
from repro.sched.tb_scheduler import ThreadBlockScheduler
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim import trace as trace_mod
from repro.sim.trace import Tracer
from repro.units import cycles_to_us
from repro.workloads.multiprogram import MultiprogramWorkload
from repro.workloads.periodic import PeriodicTaskSpec, synthetic_rt_kernel_spec
from repro.workloads.synthetic import SyntheticKernelFactory

#: Default sampling interval for budget latching, in microseconds.
SAMPLE_US = 10.0

#: Safety cap so a wedged scenario cannot spin forever, in milliseconds.
MAX_HORIZON_MS = 400.0


class SimSystem:
    """A fully wired simulation: GPU + schedulers + workload factory."""

    def __init__(self, config: Optional[GPUConfig] = None,
                 policy_name: Optional[str] = "chimera",
                 mode: SchedulerMode = SchedulerMode.SPATIAL,
                 seed: int = 12345,
                 latency_limit_us: float = 30.0,
                 target_kernel_us: Optional[float] = None,
                 tracer: Optional[Tracer] = None):
        self.config = config or GPUConfig()
        self.tracer = tracer
        if tracer is not None:
            tracer.meta.setdefault("clock_mhz", self.config.clock_mhz)
            tracer.meta.setdefault("num_sms", self.config.num_sms)
            tracer.meta.setdefault("max_tbs_per_sm",
                                   self.config.max_tbs_per_sm)
            tracer.meta.setdefault("policy", policy_name)
            tracer.meta.setdefault("mode", mode.value)
            tracer.meta.setdefault("seed", seed)
        self.engine = Engine()
        self.rng = RngStreams(seed)
        factory_kwargs = {}
        if target_kernel_us is not None:
            factory_kwargs["target_kernel_us"] = target_kernel_us
        self.factory = SyntheticKernelFactory(self.config, self.rng,
                                              **factory_kwargs)
        self.tb_scheduler = ThreadBlockScheduler()
        policy: Optional[PreemptionPolicy] = None
        if mode is SchedulerMode.SPATIAL:
            if policy_name is None:
                raise ConfigError("spatial mode needs a policy name")
            policy = make_policy(policy_name, self.config)
        self.policy = policy
        guard_policy = GuardPolicy.parse(self.config.qos_mode)
        estimator = getattr(policy, "estimator", None)
        if estimator is None:
            estimator = CostEstimator(self.config)
        self.guard = PreemptionGuard(self.engine, guard_policy,
                                     slack=self.config.qos_slack,
                                     estimator=estimator, tracer=tracer)
        if tracer is not None and guard_policy is not GuardPolicy.OFF:
            # Stamped only when the guard is active so that guarded-off
            # runs keep producing byte-identical traces (golden files).
            tracer.meta.setdefault("qos_mode", guard_policy.value)
            tracer.meta.setdefault("qos_slack", self.config.qos_slack)
        self.kernel_scheduler = KernelScheduler(
            self.engine, self.config, self.tb_scheduler, policy, mode,
            latency_limit_us, tracer=tracer, guard=self.guard)
        self.gpu = GPU(self.config, self.engine, self.tb_scheduler,
                       tracer=tracer)
        self.kernel_scheduler.attach_gpu(self.gpu)
        self.processes: List[BenchmarkProcess] = []

    def add_benchmark(self, label: str, budget_insts: float,
                      restart: bool = True,
                      weight: float = 1.0) -> BenchmarkProcess:
        """Register a benchmark process on this system."""
        process = BenchmarkProcess(label, self.factory, budget_insts,
                                   restart=restart, weight=weight)
        self.processes.append(process)
        self.kernel_scheduler.add_process(process)
        return process

    def start(self) -> None:
        """Launch the first kernel of every process."""
        self.kernel_scheduler.start()
        self._schedule_sampler()

    def _schedule_sampler(self) -> None:
        """Latch per-process budget crossings at a fine sampling grid.

        Only processes with a finite instruction budget can ever latch a
        budget crossing; infinite-budget processes (the periodic
        scenario's benchmark) reach their metric target through kernel
        completion instead, so sampling them would reschedule forever
        without observing anything.
        """
        watched = [p for p in self.processes
                   if math.isfinite(p.budget_insts) and not p.done_recording]
        if not watched:
            return

        def sample() -> None:
            now = self.engine.now
            for process in watched:
                process.check_budget(now)
            self._schedule_sampler()

        self.engine.schedule(self.config.us(SAMPLE_US), sample, "budget-sample")

    def run(self, horizon_ms: Optional[float] = None,
            stop=None) -> None:
        """Run to completion and return the aggregate result."""
        until = None
        if horizon_ms is not None:
            if horizon_ms > MAX_HORIZON_MS:
                raise ConfigError(f"horizon above safety cap {MAX_HORIZON_MS}ms")
            until = self.engine.now + self.config.us(horizon_ms * 1000.0)
        else:
            until = self.engine.now + self.config.us(MAX_HORIZON_MS * 1000.0)
        self.engine.run(until=until, stop=stop)

    @property
    def records(self) -> List[PreemptionRecord]:
        """Completed SM preemption records so far."""
        return self.kernel_scheduler.records

    def technique_mix(self) -> TechniqueMix:
        """Per-technique block counts over all preemptions."""
        mix = TechniqueMix()
        for record in self.records:
            for tech, count in record.techniques.items():
                mix.add(tech, count)
        return mix

    def qos_summary(self) -> Dict[str, Any]:
        """The guard's ledger rollup (violations, escalations,
        calibration) for this run."""
        return self.guard.summary()

    def close(self) -> None:
        """Break the run's reference cycles, once its result is built.

        A wired system is cyclic: the two schedulers point at each
        other, every SM points back at its listener, a pending event's
        callback holds what scheduled it, a resident block and its
        kernel's live-block map point at each other, and the callbacks
        of active kernels hold the runner's closures. Reference counting
        frees none of that, so the whole graph would wait for a full
        collection, and back-to-back runs in one process would each run
        beside the last one's. With those edges cut, what is left is
        freed as soon as the last reference to the system goes. The
        system cannot run afterwards.
        """
        self.engine.clear()
        self.kernel_scheduler.close()


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class SoloResult:
    """A benchmark running alone (baseline for ANTT/STP)."""

    label: str
    metric_time_cycles: float
    useful_insts: float
    seed: int


@dataclass
class PairResult:
    """A multiprogrammed run of several benchmarks."""

    workload_name: str
    policy: str
    metric_time_cycles: Dict[str, float]
    wasted_insts: Dict[str, float]
    useful_insts: Dict[str, float]
    preemption_records: int
    technique_mix: TechniqueMix
    #: QoS guard ledger rollup (see :meth:`SimSystem.qos_summary`).
    qos: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PeriodicResult:
    """A benchmark sharing the GPU with the periodic real-time task."""

    label: str
    policy: str
    constraint_us: float
    violations: ViolationSummary
    throughput_overhead: float
    technique_mix: TechniqueMix
    useful_insts: float
    wasted_insts: float
    periods: int
    #: QoS guard ledger rollup (see :meth:`SimSystem.qos_summary`).
    qos: Dict[str, Any] = field(default_factory=dict)


def result_qos(result: Any) -> Dict[str, Any]:
    """The QoS ledger rollup of any scenario result, or ``{}``.

    Solo runs carry no ledger; pair/periodic results carry the rollup
    their :class:`SimSystem` closed with. The scheduling daemon folds
    these per-spec dicts into its per-job ledger, so this accessor is
    the single place that defines "the QoS of a result".
    """
    qos = getattr(result, "qos", None)
    return dict(qos) if isinstance(qos, dict) else {}


# ----------------------------------------------------------------------
# scenario: solo
# ----------------------------------------------------------------------


def run_solo(label: str, budget_insts: float, seed: int = 12345,
             config: Optional[GPUConfig] = None,
             target_kernel_us: Optional[float] = None,
             tracer: Optional[Tracer] = None) -> SoloResult:
    """Run one benchmark alone until its metric target is reached."""
    system = SimSystem(config=config, policy_name="chimera", seed=seed,
                       target_kernel_us=target_kernel_us, tracer=tracer)
    process = system.add_benchmark(label, budget_insts, restart=False)
    system.start()
    system.run(stop=lambda: process.done_recording)
    if process.metric_time is None:
        raise SimulationError(f"solo run of {label} never reached its target")
    result = SoloResult(label, process.metric_time,
                        process.useful_insts(system.engine.now), seed)
    system.close()
    return result


# ----------------------------------------------------------------------
# scenario: multiprogrammed pair / combination
# ----------------------------------------------------------------------


def run_pair(workload: MultiprogramWorkload, policy_name: Optional[str],
             mode: SchedulerMode = SchedulerMode.SPATIAL,
             seed: int = 12345, latency_limit_us: float = 30.0,
             config: Optional[GPUConfig] = None,
             target_kernel_us: Optional[float] = None,
             tracer: Optional[Tracer] = None) -> PairResult:
    """Run a multiprogrammed workload until every benchmark has reached
    its metric target (first budget or first completed execution).

    ``policy_name=None`` with ``mode=FCFS`` gives the paper's
    non-preemptive baseline.
    """
    system = SimSystem(config=config, policy_name=policy_name, mode=mode,
                       seed=seed, latency_limit_us=latency_limit_us,
                       target_kernel_us=target_kernel_us, tracer=tracer)
    if tracer is not None:
        # The run stops at the metric horizon, so a preemption may
        # legitimately still be in flight at the last record.
        tracer.meta.setdefault("allow_open_at_end", True)
    processes = [
        system.add_benchmark(label, workload.budget_insts,
                             restart=workload.restart)
        for label in workload.labels
    ]
    system.start()
    system.run(stop=lambda: all(p.done_recording for p in processes))
    times: Dict[str, float] = {}
    waste: Dict[str, float] = {}
    useful: Dict[str, float] = {}
    now = system.engine.now
    for process in processes:
        if process.metric_time is None:
            raise SimulationError(
                f"{process.label} never reached its target in "
                f"{workload.name} under {policy_name or mode.value}")
        times[process.label] = process.metric_time
        waste[process.label] = process.wasted_insts()
        useful[process.label] = process.useful_insts(now)
    result = PairResult(
        workload_name=workload.name,
        policy=policy_name or mode.value,
        metric_time_cycles=times,
        wasted_insts=waste,
        useful_insts=useful,
        preemption_records=len(system.records),
        technique_mix=system.technique_mix(),
        qos=system.qos_summary(),
    )
    system.close()
    return result


# ----------------------------------------------------------------------
# scenario: periodic real-time task (paper §4.1)
# ----------------------------------------------------------------------


def run_periodic(label: str, policy_name: str,
                 constraint_us: float = 15.0,
                 periods: int = 10,
                 seed: int = 12345,
                 config: Optional[GPUConfig] = None,
                 task: Optional[PeriodicTaskSpec] = None,
                 target_kernel_us: Optional[float] = None,
                 tracer: Optional[Tracer] = None) -> PeriodicResult:
    """Run a benchmark against the 1 ms-period synthetic task.

    Each launch preempts half the SMs with the configured policy. The
    task is killed when it misses its deadline (execution time plus the
    latency constraint); the fraction of killed launches is the paper's
    violation metric (Figures 6, 8a, 9).
    """
    config = config or GPUConfig()
    task = (task or PeriodicTaskSpec(
        latency_constraint_us=constraint_us)).for_config(config)
    if task.latency_constraint_us != constraint_us:
        task = PeriodicTaskSpec(task.period_us, task.exec_us,
                                task.sms_demanded, constraint_us)
    system = SimSystem(config=config, policy_name=policy_name, seed=seed,
                       latency_limit_us=constraint_us,
                       target_kernel_us=target_kernel_us, tracer=tracer)
    if tracer is not None:
        # Stops shortly after the last deadline; hand-overs may be open.
        tracer.meta.setdefault("allow_open_at_end", True)
    process = system.add_benchmark(label, budget_insts=float("inf"),
                                   restart=True)
    rt_spec = synthetic_rt_kernel_spec(task)
    violations = ViolationSummary()

    def launch_rt(period_index: int) -> None:
        kernel = Kernel(rt_spec, task.sms_demanded, system.rng,
                        name=f"RT#{period_index}",
                        clock_mhz=config.clock_mhz)
        launch_time = system.engine.now
        info = {"finished": False, "acquired": None}

        def on_full(_k: Kernel) -> None:
            info["acquired"] = system.engine.now

        def on_done(_k: Kernel) -> None:
            info["finished"] = True

        def at_deadline() -> None:
            deadline_us = task.deadline_us
            if info["finished"]:
                latency = (info["acquired"] - launch_time
                           if info["acquired"] is not None else 0.0)
                latency_us = cycles_to_us(latency, config.clock_mhz)
                if system.tracer is not None:
                    system.tracer.emit(
                        system.engine.now, trace_mod.DEADLINE,
                        f"{kernel.name} met", kernel=kernel.name,
                        violated=False, latency_us=latency_us)
                violations.record(latency_us, violated=False)
                return
            if system.tracer is not None:
                system.tracer.emit(
                    system.engine.now, trace_mod.DEADLINE,
                    f"{kernel.name} missed", kernel=kernel.name,
                    violated=True, latency_us=deadline_us)
            system.kernel_scheduler.kill_kernel(kernel)
            violations.record(deadline_us, violated=True)

        system.kernel_scheduler.launch_kernel(
            kernel, fixed_demand=task.sms_demanded,
            on_finished=on_done, on_fully_dispatched=on_full)
        system.engine.schedule(config.us(task.deadline_us), at_deadline,
                               f"rt-deadline-{period_index}")

    system.start()
    for k in range(1, periods + 1):
        system.engine.schedule_at(config.us(k * task.period_us),
                                  lambda k=k: launch_rt(k), f"rt-launch-{k}")
    horizon_us = (periods + 1) * task.period_us
    system.run(horizon_ms=horizon_us / 1000.0)

    now = system.engine.now
    useful = process.useful_insts(now)
    wasted = process.wasted_insts()
    overhead = wasted / useful if useful > 0 else 0.0
    result = PeriodicResult(
        label=label,
        policy=policy_name,
        constraint_us=constraint_us,
        violations=violations,
        throughput_overhead=overhead,
        technique_mix=system.technique_mix(),
        useful_insts=useful,
        wasted_insts=wasted,
        periods=periods,
        qos=system.qos_summary(),
    )
    system.close()
    return result
