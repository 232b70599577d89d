"""Tests for the preemption QoS guard (repro.sched.guard).

The deterministic scenario used throughout: one SM draining thread
blocks whose completion ``GPUConfig.drain_stall`` delays by a factor,
supervised by a guard whose budget equals the honest remaining-time
estimate. The stall makes the drain blow its deadline, and each
GuardPolicy must react per its contract:

* ``off``      — nothing happens mid-flight; the overrun is still
  recorded in the QoS ledger at resolve time.
* ``warn``     — a VIOLATION trace event fires at the deadline.
* ``escalate`` — the lagging block is re-planned (flush, here) and the
  realized latency lands within ``budget × (1 + slack)``.
* ``strict``   — the run aborts with PreemptionDeadlineError.
"""

from __future__ import annotations

import math

import pytest

from repro.core.cost import CostEstimator, OnlineKernelStats, SMPlan, TBCost
from repro.core.chimera import make_policy, plan_escalation
from repro.core.techniques import Technique
from repro.errors import ConfigError, EscalationError, PreemptionDeadlineError
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU
from repro.gpu.memory import MemorySubsystem
from repro.gpu.sm import StreamingMultiprocessor
from repro.metrics.qos import QoSLedger, QoSRecord, TechniqueSample
from repro.sched.guard import GuardPolicy, PreemptionGuard
from repro.sched.kernel_scheduler import KernelScheduler, SchedulerMode
from repro.sched.tb_scheduler import ThreadBlockScheduler
from repro.sim.engine import Engine
from repro.sim import trace as T
from repro.sim.trace import Tracer
from repro.sim.trace_check import TraceChecker
from tests.conftest import StubListener, make_kernel, make_spec


class SchedulerStub(StubListener):
    """Mimics the kernel scheduler's hand-over wiring for SM-level
    tests: emit the RELEASE record the trace checker expects, then give
    the record to the guard."""

    def __init__(self, engine, tracer=None):
        super().__init__()
        self.engine = engine
        self.tracer = tracer
        self.guard = None

    def on_sm_released(self, sm, record):
        super().on_sm_released(sm, record)
        if self.tracer is not None:
            extra = {}
            if record.escalations:
                extra["escalated"] = record.escalations
            self.tracer.emit(self.engine.now, T.RELEASE,
                             f"SM{sm.sm_id} <- {record.kernel_name}",
                             sm=sm.sm_id, kernel=record.kernel_name,
                             latency=record.realized_latency,
                             est_latency=record.estimated_latency, **extra)
        if self.guard is not None:
            self.guard.resolve(sm, record)


class Scenario:
    """One guarded single-SM preemption, fully deterministic."""

    def __init__(self, mode, *, slack=0.25, n_tbs=1, trace=True,
                 spec_overrides=None, config=None):
        self.config = config or GPUConfig()
        self.engine = Engine()
        self.tracer = Tracer() if trace else None
        if self.tracer is not None and mode != "off":
            self.tracer.meta["qos_mode"] = mode
        self.listener = SchedulerStub(self.engine, self.tracer)
        self.sm = StreamingMultiprocessor(
            0, self.config, self.engine, MemorySubsystem(self.config),
            self.listener, tracer=self.tracer)
        self.kernel = make_kernel(make_spec(**(spec_overrides or {})),
                                  grid=n_tbs)
        if self.tracer is not None:
            self.tracer.emit(0.0, T.LAUNCH, self.kernel.name,
                             kernel=self.kernel.name, grid=n_tbs)
        self.sm.assign(self.kernel)
        self.tbs = [self.kernel.make_tb() for _ in range(n_tbs)]
        for tb in self.tbs:
            self.sm.dispatch(tb)
        self.guard = PreemptionGuard(
            self.engine, GuardPolicy.parse(mode), slack=slack,
            estimator=CostEstimator(self.config), tracer=self.tracer)
        self.listener.guard = self.guard

    def preempt(self, assignments, budget, predicted_latency=None):
        """Preempt with explicit per-block costs and register the plan."""
        plan = SMPlan(sm=self.sm)
        for tb, tech in assignments.items():
            latency = (tb.remaining_cycles if predicted_latency is None
                       else predicted_latency)
            plan.assignments[tb] = tech
            plan.costs[tb] = TBCost(tb, tech, latency, 0.0)
        plan.latency_cycles = max(
            (c.latency_cycles for c in plan.costs.values()), default=0.0)
        if self.tracer is not None:
            self.tracer.emit(self.engine.now, T.PREEMPT,
                             f"SM0 of {self.kernel.name}",
                             sm=0, kernel=self.kernel.name)
        record = self.sm.preempt(plan.assignments,
                                 estimated_latency=plan.latency_cycles)
        self.guard.register(self.sm, record, plan, budget)
        return record

    def categories(self):
        return [r.category for r in self.tracer.records]

    def check_trace(self):
        report = TraceChecker().check(self.tracer)
        assert report.ok, report.summary()
        return report


def _stalled_drain(mode, factor=8.0, slack=0.25):
    """The acceptance scenario: one draining block stalled ``factor``×
    past its honest estimate, budget == the estimate."""
    scenario = Scenario(mode, slack=slack,
                        config=GPUConfig(drain_stall=factor))
    scenario.engine.run(until=100.0)
    scenario.sm.advance()
    tb = scenario.tbs[0]
    budget = tb.remaining_cycles
    record = scenario.preempt({tb: Technique.DRAIN}, budget)
    scenario.engine.run()
    return scenario, record, budget


class TestGuardPolicyParse:
    def test_modes_roundtrip(self):
        for mode in ("off", "warn", "escalate", "strict"):
            assert GuardPolicy.parse(mode).value == mode

    def test_case_and_whitespace_tolerant(self):
        assert GuardPolicy.parse(" Strict ") is GuardPolicy.STRICT

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown QoS mode"):
            GuardPolicy.parse("panic")

    def test_negative_slack_rejected(self):
        with pytest.raises(ConfigError, match="slack"):
            PreemptionGuard(Engine(), GuardPolicy.OFF, slack=-0.1)


class TestOffMode:
    """off = passive: identical timeline, violations only in the ledger."""

    def test_overrun_recorded_in_ledger(self):
        scenario, record, budget = _stalled_drain("off")
        assert scenario.guard.ledger.violations == 1
        assert scenario.guard.ledger.escalations == 0
        ledger_record = scenario.guard.ledger.records[0]
        assert ledger_record.violated
        assert ledger_record.realized_latency == pytest.approx(8 * budget)
        assert ledger_record.budget_ratio == pytest.approx(8.0)

    def test_no_guard_trace_events(self):
        scenario, _, _ = _stalled_drain("off")
        cats = scenario.categories()
        assert T.ESCALATE not in cats
        assert T.VIOLATION not in cats

    def test_timeline_matches_warn_mode(self):
        """The guard never perturbs the simulation outside escalate:
        off and warn resolve the stalled preemption at the same time."""
        off, off_record, _ = _stalled_drain("off")
        warn, warn_record, _ = _stalled_drain("warn")
        assert off_record.release_time == warn_record.release_time
        assert off.engine.now == warn.engine.now

    def test_on_time_preemption_not_violated(self):
        scenario = Scenario("off")
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        scenario.preempt({tb: Technique.DRAIN}, budget=tb.remaining_cycles)
        scenario.engine.run()
        assert scenario.guard.ledger.violations == 0
        assert len(scenario.guard.ledger) == 1


class TestWarnMode:
    def test_violation_traced_at_deadline(self):
        scenario, record, budget = _stalled_drain("warn")
        violations = [r for r in scenario.tracer.records
                      if r.category == T.VIOLATION]
        assert len(violations) == 1
        payload = violations[0].payload
        assert payload["at_expiry"] is True
        assert payload["budget"] == pytest.approx(budget)
        # Fired exactly at the enforcement deadline, not at resolve.
        assert violations[0].time == pytest.approx(
            record.request_time + budget * 1.25)
        assert scenario.guard.ledger.violations == 1

    def test_run_continues_to_natural_completion(self):
        scenario, record, budget = _stalled_drain("warn")
        assert record.realized_latency == pytest.approx(8 * budget)
        assert scenario.guard.pending == 0


class TestEscalateMode:
    def test_lagging_drain_flushed_within_slack(self):
        scenario, record, budget = _stalled_drain("escalate")
        # Escalation flushed the straggler exactly at the deadline.
        assert record.realized_latency <= budget * 1.25 + 1e-9
        assert record.escalations == 1
        assert record.techniques == {Technique.FLUSH: 1}
        assert scenario.guard.ledger.violations == 0
        assert scenario.guard.ledger.escalations == 1
        cats = scenario.categories()
        assert T.ESCALATE in cats
        assert T.VIOLATION not in cats

    def test_escalate_precedes_flush_and_release(self):
        scenario, _, _ = _stalled_drain("escalate")
        cats = scenario.categories()
        assert cats.index(T.ESCALATE) < cats.index(T.FLUSH)
        assert cats.index(T.FLUSH) < cats.index(T.RELEASE)

    def test_trace_passes_checker_with_new_invariants(self):
        scenario, _, _ = _stalled_drain("escalate")
        report = scenario.check_trace()
        assert report.counts.get(T.ESCALATE) == 1

    def test_release_payload_carries_escalation_count(self):
        scenario, _, _ = _stalled_drain("escalate")
        release = [r for r in scenario.tracer.records
                   if r.category == T.RELEASE][0]
        assert release.payload["escalated"] == 1

    def test_nonidempotent_drain_escalates_to_switch(self):
        """A block past its non-idempotent point cannot flush; the
        escalation planner moves it to a context switch instead."""
        scenario = Scenario("escalate",
                            spec_overrides={"idempotent": False},
                            config=GPUConfig(drain_stall=8.0))
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        tb.nonidem_at = 1.0  # already executed past it
        budget = tb.remaining_cycles
        record = scenario.preempt({tb: Technique.DRAIN}, budget)
        scenario.engine.run()
        assert record.escalations == 1
        assert record.techniques == {Technique.SWITCH: 1}
        assert tb.state.value == "saved"
        # The save DMA still takes time, so the escalated preemption may
        # finish past the deadline — that is a violation, traced at
        # resolve time with the final latency.
        assert scenario.guard.ledger.escalations == 1

    def test_stuck_save_escalates_to_flush(self):
        """A block whose context-save DMA outlives the budget is
        flushed mid-save (it is still idempotent: it halted early)."""
        scenario = Scenario("escalate")
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        # Budget far below the save DMA time forces the watchdog to
        # fire while the save is still in flight.
        save_cycles = scenario.config.context_switch_cycles(tb.context_bytes)
        budget = save_cycles / 100.0
        record = scenario.preempt({tb: Technique.SWITCH}, budget)
        assert scenario.guard.pending == 1
        scenario.engine.run()
        assert record.escalations == 1
        assert record.techniques == {Technique.FLUSH: 1}
        assert record.realized_latency <= budget * 1.25 + 1e-9
        assert scenario.guard.ledger.violations == 0
        scenario.check_trace()

    def test_calibration_separates_escalated_samples(self):
        scenario, record, budget = _stalled_drain("escalate")
        samples = scenario.guard.ledger.records[0].samples
        assert len(samples) == 1
        assert samples[0].escalated  # excluded from calibration
        assert scenario.guard.ledger.calibration() == {}


class TestStrictMode:
    def test_deadline_miss_raises(self):
        with pytest.raises(PreemptionDeadlineError) as excinfo:
            _stalled_drain("strict")
        err = excinfo.value
        assert err.sm_id == 0
        assert err.snapshot["lagging_draining"] == [0]
        assert err.snapshot["deadline"] == pytest.approx(
            100.0 + err.snapshot["budget_cycles"] * 1.25)
        assert err.snapshot["predicted"]["0"]["technique"] == "drain"

    def test_on_time_preemption_does_not_raise(self):
        scenario = Scenario("strict")
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        scenario.preempt({tb: Technique.DRAIN}, budget=tb.remaining_cycles)
        scenario.engine.run()
        assert scenario.guard.ledger.violations == 0

    def test_strict_trace_has_no_violation_records(self):
        """strict aborts instead of recording; the checker enforces it."""
        try:
            _stalled_drain("strict")
        except PreemptionDeadlineError:
            pass
        # A hand-built strict trace containing VIOLATION must be flagged.
        tracer = Tracer()
        tracer.meta["qos_mode"] = "strict"
        tracer.emit(0.0, T.VIOLATION, "bad", sm=0)
        report = TraceChecker(allow_open_at_end=True).check(tracer)
        assert [v.rule for v in report.violations] == ["violation-in-strict"]


class TestEscalateInvariantChecker:
    def test_escalate_outside_preempt_flagged(self):
        tracer = Tracer()
        tracer.emit(0.0, T.ESCALATE, "stray", sm=3)
        report = TraceChecker(allow_open_at_end=True).check(tracer)
        assert [v.rule for v in report.violations] == [
            "escalate-outside-preempt"]


class TestRegisterResolveOrdering:
    def test_synchronous_release_closes_ledger(self):
        """An all-flush plan releases the SM inside preempt(), before
        register() runs; the guard must still close one ledger record
        and must not arm a watchdog against the freed SM."""
        scenario = Scenario("strict")
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        record = scenario.preempt({tb: Technique.FLUSH}, budget=1000.0)
        assert record.release_time == 100.0
        assert scenario.guard.pending == 0
        assert len(scenario.guard.ledger) == 1
        assert scenario.guard.ledger.violations == 0
        scenario.engine.run()  # the cancelled-watchdog-free queue drains

    def test_unbounded_budget_arms_no_watchdog(self):
        scenario = Scenario("strict")
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        scenario.preempt({tb: Technique.DRAIN}, budget=math.inf)
        entry = scenario.guard._entries[0]
        assert entry.watchdog is None
        scenario.engine.run()  # no deadline, no raise
        assert scenario.guard.ledger.violations == 0


class TestEscalateErrors:
    def test_escalate_without_preemption_rejected(self):
        scenario = Scenario("escalate")
        with pytest.raises(EscalationError, match="no preemption"):
            scenario.sm.escalate({})

    def test_unknown_block_rejected(self):
        scenario = Scenario("escalate", config=GPUConfig(drain_stall=8.0))
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        scenario.preempt({tb: Technique.DRAIN},
                         budget=tb.remaining_cycles * 100)
        stranger = make_kernel(make_spec(), grid=1, seed=9).make_tb()
        with pytest.raises(EscalationError, match="not in flight"):
            scenario.sm.escalate({stranger: Technique.FLUSH})

    def test_drain_target_rejected(self):
        scenario = Scenario("escalate", config=GPUConfig(drain_stall=8.0))
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        scenario.preempt({tb: Technique.DRAIN},
                         budget=tb.remaining_cycles * 100)
        with pytest.raises(EscalationError, match="cannot escalate"):
            scenario.sm.escalate({tb: Technique.DRAIN})


class TestKillPath:
    """A kernel killed while a guard watchdog is pending must cancel the
    watchdog and release the in-flight preemption records."""

    def _preempting_system(self, qos_mode):
        config = GPUConfig(num_sms=4, num_memory_partitions=2,
                           memory_bandwidth_gbps=177.4 * 4 / 30,
                           qos_mode=qos_mode)
        engine = Engine()
        policy = make_policy("drain", config)
        guard = PreemptionGuard(engine, GuardPolicy.parse(qos_mode),
                                slack=0.25, estimator=policy.estimator)
        tb_sched = ThreadBlockScheduler()
        scheduler = KernelScheduler(engine, config, tb_sched, policy,
                                    SchedulerMode.SPATIAL,
                                    latency_limit_us=30.0, guard=guard)
        gpu = GPU(config, engine, tb_sched)
        scheduler.attach_gpu(gpu)
        victim = make_kernel(make_spec(name="victim"), grid=16, seed=3)
        scheduler.launch_kernel(victim)
        engine.run(until=100.0)
        intruder = make_kernel(make_spec(name="intruder"), grid=8, seed=4)
        scheduler.launch_kernel(intruder)
        assert guard.pending > 0, "scenario must have preemptions in flight"
        return engine, scheduler, guard, victim

    def test_strict_watchdog_fires_without_kill(self):
        """Sanity: the watchdog in this scenario really would fire."""
        engine, scheduler, guard, victim = self._preempting_system("strict")
        with pytest.raises(PreemptionDeadlineError):
            engine.run()

    def test_kill_cancels_pending_watchdogs(self):
        engine, scheduler, guard, victim = self._preempting_system("strict")
        pending = guard.pending
        scheduler.kill_kernel(victim)
        assert guard.pending == 0
        engine.run()  # completes without PreemptionDeadlineError
        assert guard.ledger.aborted == pending
        aborted = [r for r in guard.ledger.records if r.aborted]
        assert all(r.kernel == victim.name for r in aborted)

    def test_kill_of_unrelated_kernel_keeps_watchdogs(self):
        engine, scheduler, guard, victim = self._preempting_system("strict")
        pending = guard.pending
        other = make_kernel(make_spec(name="other"), grid=1, seed=5)
        guard.on_kernel_killed(other)
        assert guard.pending == pending


class TestCorruptEstimateFault:
    """``GPUConfig.estimate_skew`` scales the switch and drain latency
    predictions, and only those."""

    def test_skews_drain_and_switch_estimates(self):
        scenario = Scenario("off", trace=False)
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        # Oracle statistics give the drain a finite latency to skew.
        stats = OnlineKernelStats(scenario.kernel, oracle=True)
        honest = CostEstimator(scenario.config, oracle=True)
        skewed = CostEstimator(GPUConfig(estimate_skew=0.25), oracle=True)
        for cost in (lambda est: est.switch_cost(tb, stats),
                     lambda est: est.drain_cost(tb, stats, 0.0)):
            truth = cost(honest).latency_cycles
            assert 0 < truth < math.inf
            assert cost(skewed).latency_cycles == truth * 0.25

    def test_flush_cost_immune(self):
        scenario = Scenario("off", trace=False)
        tb = scenario.tbs[0]
        config = GPUConfig(flush_reset_cycles=10.0, estimate_skew=0.25)
        cost = CostEstimator(config).flush_cost(tb)
        assert cost.latency_cycles == 10.0


class TestPlanEscalation:
    def test_flushable_drain_prefers_flush(self):
        scenario = Scenario("escalate", config=GPUConfig(drain_stall=8.0))
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        scenario.preempt({tb: Technique.DRAIN},
                         budget=tb.remaining_cycles * 100)
        plan = plan_escalation(scenario.sm, CostEstimator(scenario.config))
        assert plan == {tb: Technique.FLUSH}

    def test_nothing_in_flight_plans_nothing(self):
        scenario = Scenario("escalate")
        assert plan_escalation(scenario.sm,
                               CostEstimator(scenario.config)) == {}

    def test_plans_on_progress_advanced_to_now(self):
        """A drain that crossed its non-idempotent point since the SM
        last advanced its blocks must plan a switch, not a flush that
        :meth:`escalate` would then reject."""
        scenario = Scenario("escalate", spec_overrides={"idempotent": False})
        scenario.engine.run(until=100.0)
        scenario.sm.advance()
        tb = scenario.tbs[0]
        tb.nonidem_at = tb.executed_insts + 50.0 * tb.rate
        scenario.preempt({tb: Technique.DRAIN},
                         budget=tb.remaining_cycles * 100)
        scenario.engine.run(until=200.0)
        plan = plan_escalation(scenario.sm, CostEstimator(scenario.config))
        assert plan == {tb: Technique.SWITCH}
        scenario.sm.escalate(plan)
        assert tb.state.value == "frozen"


class TestLedger:
    def test_summary_shape(self):
        ledger = QoSLedger()
        ledger.add(QoSRecord(
            sm_id=0, kernel="K", request_time=0.0, resolve_time=100.0,
            budget_cycles=200.0, deadline=250.0, realized_latency=100.0,
            samples=(TechniqueSample("drain", 80.0, 100.0),)))
        summary = ledger.summary()
        assert summary["preemptions"] == 1
        assert summary["violations"] == 0
        assert summary["worst_budget_ratio"] == pytest.approx(0.5)
        assert summary["calibration"]["drain"]["mean_ratio"] == (
            pytest.approx(1.25))

    def test_conservative_predictions_excluded_from_calibration(self):
        sample = TechniqueSample("drain", math.inf, 50.0)
        assert sample.ratio is None
        ledger = QoSLedger()
        ledger.add(QoSRecord(
            sm_id=0, kernel="K", request_time=0.0, resolve_time=1.0,
            budget_cycles=math.inf, deadline=math.inf, realized_latency=1.0,
            samples=(sample,)))
        assert ledger.calibration() == {}
        assert ledger.worst_budget_ratio() is None

    def test_aborted_excluded_from_tail(self):
        ledger = QoSLedger()
        ledger.add(QoSRecord(
            sm_id=0, kernel="K", request_time=0.0, resolve_time=900.0,
            budget_cycles=100.0, deadline=125.0, realized_latency=900.0,
            aborted=True))
        assert ledger.worst_budget_ratio() is None
        assert ledger.aborted == 1


class TestRunnerIntegration:
    def test_qos_summary_rides_on_periodic_result(self):
        from repro.harness.runner import run_periodic
        config = GPUConfig(num_sms=4, num_memory_partitions=2,
                           memory_bandwidth_gbps=177.4 * 4 / 30,
                           qos_mode="escalate")
        result = run_periodic("BS", "chimera", constraint_us=15.0,
                              periods=2, seed=7, config=config)
        assert result.qos["mode"] == "escalate"
        assert result.qos["preemptions"] >= 1

    def test_escalation_of_a_drain_past_its_nonidempotent_point(self):
        """FWT's drains cross their non-idempotent point between SM
        events; escalating one must switch it instead of aborting the
        run with an EscalationError."""
        from repro.harness.runner import run_periodic
        result = run_periodic("FWT", "drain", periods=3, seed=7,
                              config=GPUConfig(qos_mode="escalate"))
        assert result.qos["escalations"] > 0

    def test_figure6_7_escalate_clean_path_zero_violations(self):
        """CI qos-smoke: with no faults, escalation keeps every
        preemption within budget × (1 + slack)."""
        from repro.harness.experiments import figure6_7
        from repro.harness.sweep import SweepRunner
        config = GPUConfig(num_sms=4, num_memory_partitions=2,
                           memory_bandwidth_gbps=177.4 * 4 / 30,
                           qos_mode="escalate")
        sweep = figure6_7(labels=["BS"], policies=("chimera",),
                          periods=3, seed=11, config=config,
                          runner=SweepRunner(jobs=1))
        result = sweep.results["BS"]["chimera"]
        assert result.qos["mode"] == "escalate"
        assert result.qos["violations"] == 0
