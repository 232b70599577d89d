"""Traffic-scenario driver: replay an open-arrival stream end to end.

This is the bridge between the traffic layer and the two execution
substrates. A :class:`ScenarioSpec` freezes everything that determines
a scenario's outcome — the tenant set, the horizon, the drain window —
and :func:`run_traffic` replays its stream through a fully wired
:class:`~repro.harness.runner.SimSystem`: each arrival becomes a real
kernel launch at its timestamp, tenant priority becomes the kernel's
share in the priority-proportional partition, and every completion (or
failure to complete before the horizon) becomes an
:class:`~repro.metrics.slo.ArrivalOutcome`.

The *same* spec can be executed two ways:

* in process — ``RunSpec.traffic(spec, ...).execute()`` (what
  ``chimera traffic`` and the tests use directly);
* through the service — submit the same RunSpec to the scheduling
  daemon, which executes it through the shared result cache.

Because a scenario is a pure function of ``(spec, seed, policy,
config)``, both paths must produce identical per-arrival outcomes and
identical SLO reports — the acceptance test for this layer diff-checks
exactly that.

Overload semantics: arrivals keep their timestamps regardless of how
far behind the GPU is (open arrivals — no backpressure). A kernel
still running when the scenario ends (horizon + drain) is *dropped*:
its outcome has ``finish_us=None`` and counts against SLO attainment.
That is what makes goodput-under-overload honest — offered load that
the system cannot serve within SLO shows up as misses, not as silently
stretched completion times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Kernel
from repro.harness.runner import MAX_HORIZON_MS, SimSystem
from repro.metrics.slo import ArrivalOutcome, slo_report
from repro.sim import trace as trace_mod
from repro.sim.trace import Tracer
from repro.units import cycles_to_us
from repro.workloads.specs import kernel_spec
from repro.workloads.traffic import Arrival, TenantSpec, build_stream

__all__ = ["ScenarioSpec", "TrafficResult", "run_traffic", "result_slo"]

#: Default post-horizon drain window, us: arrivals stop at the horizon,
#: the simulation keeps running this much longer so in-flight kernels
#: can finish before the drop cut-off.
DEFAULT_DRAIN_US = 20_000.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines a traffic scenario's stream and
    scoring (the execution substrate adds seed/policy/config)."""

    tenants: Tuple[TenantSpec, ...]
    #: Arrival window, us: the stream covers [0, horizon_us).
    horizon_us: float = 100_000.0
    #: Extra drain time after the last possible arrival, us.
    drain_us: float = DEFAULT_DRAIN_US
    #: Sliding-window width for windowed ANTT/STP; None:
    #: ``DEFAULT_WINDOW_US``.
    window_us: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("a scenario needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")
        if self.horizon_us <= 0:
            raise ConfigError("scenario horizon must be positive")
        if self.drain_us < 0:
            raise ConfigError("drain window cannot be negative")
        total_ms = (self.horizon_us + self.drain_us) / 1000.0
        if total_ms > MAX_HORIZON_MS:
            raise ConfigError(
                f"scenario spans {total_ms:g}ms, above the "
                f"{MAX_HORIZON_MS:g}ms simulation safety cap")
        if self.window_us is not None and self.window_us <= 0:
            raise ConfigError("SLO window must be positive")

    @property
    def total_us(self) -> float:
        """Full simulated span: arrival window plus drain."""
        return self.horizon_us + self.drain_us

    def stream(self, seed: int) -> List[Arrival]:
        """The scenario's merged arrival stream for a seed."""
        return build_stream(self.tenants, seed, self.horizon_us)


@dataclass
class TrafficResult:
    """Outcome of one traffic scenario replay."""

    policy: str
    seed: int
    horizon_us: float
    outcomes: List[ArrivalOutcome]
    #: Full SLO report (see :func:`repro.metrics.slo.slo_report`).
    slo: Dict[str, Any]
    preemption_records: int
    #: QoS guard ledger rollup (see :meth:`SimSystem.qos_summary`).
    qos: Dict[str, Any] = field(default_factory=dict)


def result_slo(result: Any) -> Dict[str, Any]:
    """The SLO report of any scenario result, or ``{}``.

    Only traffic results carry one; the scheduling daemon folds these
    per-spec dicts into its per-job rollup, so — like
    :func:`~repro.harness.runner.result_qos` — this accessor is the
    single place that defines "the SLO report of a result".
    """
    slo = getattr(result, "slo", None)
    return dict(slo) if isinstance(slo, dict) else {}


def _isolated_us(spec_label: str, grid_tbs: int,
                 config: GPUConfig) -> float:
    """Estimated standalone service time of one arrival's kernel — the
    NTT denominator (same wave model as
    :func:`~repro.workloads.synthetic.plan_duration_us`)."""
    spec = kernel_spec(spec_label)
    slots = config.num_sms * spec.tbs_per_sm
    waves = max(1.0, grid_tbs / slots)
    return waves * spec.mean_tb_exec_us


def run_traffic(scenario: ScenarioSpec,
                policy_name: str = "chimera",
                seed: int = 12345,
                config: Optional[GPUConfig] = None,
                target_kernel_us: Optional[float] = None,
                latency_limit_us: float = 30.0,
                tracer: Optional[Tracer] = None) -> TrafficResult:
    """Replay a scenario's stream through one :class:`SimSystem`.

    Each arrival is scheduled at its timestamp and launched with
    ``weight = 1 + max(0, priority)`` so higher-priority tenants hold a
    proportionally larger share of the priority-proportional SM
    partition. The run stops as soon as every arrival has finished, or
    at ``horizon + drain`` — whichever comes first; still-running
    kernels at that point become drops.
    """
    system = SimSystem(config=config, policy_name=policy_name, seed=seed,
                       latency_limit_us=latency_limit_us,
                       target_kernel_us=target_kernel_us, tracer=tracer)
    config = system.config
    if tracer is not None:
        # The drain cut-off can leave kernels (and hand-overs) open.
        tracer.meta.setdefault("allow_open_at_end", True)
        tracer.meta.setdefault("scenario_tenants",
                               [t.name for t in scenario.tenants])
    stream = scenario.stream(seed)
    # Arrival bookkeeping is materialized lazily, at launch time: a
    # 100k-arrival stream costs two pointer arrays up front, not 100k
    # state dicts, grids, and pending events before the first fire.
    states: List[Optional[Dict[str, Optional[float]]]] = [None] * len(stream)
    grids: List[int] = [0] * len(stream)
    finished = [0]

    def launch(arrival: Arrival, state: Dict[str, Optional[float]],
               grid_tbs: int) -> None:
        kernel = Kernel(kernel_spec(arrival.kernel), grid_tbs, system.rng,
                        name=f"ARR{arrival.seq}.{arrival.tenant}",
                        clock_mhz=config.clock_mhz)
        t0 = system.engine.now
        if tracer is not None:
            tracer.emit(t0, trace_mod.ARRIVAL,
                        f"{arrival.tenant}#{arrival.seq} {arrival.kernel}",
                        tenant=arrival.tenant, seq=arrival.seq,
                        kern=arrival.kernel, prio=arrival.priority)

        def on_full(_k: Kernel) -> None:
            state["dispatch"] = cycles_to_us(system.engine.now,
                                             config.clock_mhz)

        def on_done(_k: Kernel) -> None:
            now = system.engine.now
            state["finish"] = cycles_to_us(now, config.clock_mhz)
            finished[0] += 1
            if tracer is not None:
                latency_us = cycles_to_us(now - t0, config.clock_mhz)
                tracer.emit(now, trace_mod.SLO,
                            f"{arrival.tenant}#{arrival.seq} done",
                            tenant=arrival.tenant, seq=arrival.seq,
                            met=latency_us <= arrival.slo_us,
                            latency_us=round(latency_us, 4))

        system.kernel_scheduler.launch_kernel(
            kernel, on_finished=on_done, on_fully_dispatched=on_full,
            weight=1.0 + max(0, arrival.priority))

    def fire(index: int) -> None:
        # Chain: each arrival schedules the next *before* launching, so
        # the engine holds at most one pending arrival event and the
        # chain survives anything launch() does. ``schedule_at_exact``
        # pins the precomputed timestamp bit-identically to the old
        # schedule-everything-at-t=0 form.
        if index + 1 < len(stream):
            nxt = stream[index + 1]
            system.engine.schedule_at_exact(
                config.us(nxt.t_us), lambda: fire(index + 1),
                f"traffic-arrival-{nxt.seq}")
        arrival = stream[index]
        grid = system.factory.grid_for(kernel_spec(arrival.kernel))
        grids[arrival.seq] = grid
        state: Dict[str, Optional[float]] = {"dispatch": None,
                                             "finish": None}
        states[arrival.seq] = state
        launch(arrival, state, grid)

    if stream:
        system.engine.schedule_at_exact(
            config.us(stream[0].t_us), lambda: fire(0),
            f"traffic-arrival-{stream[0].seq}")

    system.start()
    system.run(horizon_ms=scenario.total_us / 1000.0,
               stop=lambda: finished[0] >= len(stream))

    outcomes: List[ArrivalOutcome] = []
    for arrival, state, grid in zip(stream, states, grids):
        if state is None:
            # Never launched (horizon cut the chain): same shape as a
            # drop, with the grid recomputed for the NTT denominator.
            state = {"dispatch": None, "finish": None}
            grid = system.factory.grid_for(kernel_spec(arrival.kernel))
        if tracer is not None and state["finish"] is None:
            tracer.emit(system.engine.now, trace_mod.SLO,
                        f"{arrival.tenant}#{arrival.seq} dropped",
                        tenant=arrival.tenant, seq=arrival.seq,
                        met=False, dropped=True)
        outcomes.append(ArrivalOutcome(
            seq=arrival.seq, tenant=arrival.tenant, kernel=arrival.kernel,
            priority=arrival.priority, t_us=arrival.t_us,
            slo_us=arrival.slo_us,
            isolated_us=_isolated_us(arrival.kernel, grid, config),
            dispatch_us=state["dispatch"], finish_us=state["finish"]))

    preempt_us = [cycles_to_us(r.realized_latency, config.clock_mhz)
                  for r in system.records]
    report = slo_report(outcomes, preempt_us, scenario.total_us,
                        window_us=scenario.window_us)
    return TrafficResult(
        policy=policy_name, seed=seed, horizon_us=scenario.total_us,
        outcomes=outcomes, slo=report,
        preemption_records=len(system.records),
        qos=system.qos_summary())
