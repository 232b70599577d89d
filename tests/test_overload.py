"""Overload-control tests: deadline admission, brownout, breaker, TTL.

The acceptance properties of the graceful-degradation layer are proven
here deterministically:

* the brownout state machine escalates/de-escalates with hysteresis
  under an injectable clock, journals every transition, and a daemon
  abandoned mid-brownout (modeling ``kill -9`` — the journal was group-
  committed, the process just stops ticking) recovers the *exact* level
  on restart with zero jobs lost;
* a bursty burst at ~3x queue capacity sheds best-effort work into
  journaled ``SHED`` records while every critical-priority job
  completes (attainment 1.0 >= the 0.9 floor), and the accounting
  reconciles: every submission is exactly one of
  completed/shed/rejected;
* the circuit breaker provably opens under injected ``pool-break``
  faults (jobs *survive* inline at single-slot dispatch) and a
  half-open probe restores full-slot dispatch — all under a fake clock;
* queued jobs past ``CHIMERA_QUEUE_TTL`` expire to ``TIMED_OUT``
  through the validated state machine;
* deadline-aware admission rejects ``unmeetable-slo`` jobs only once
  the service-time EWMA has real data, with a ``retry_after_s`` hint
  the client-side retry loop honors.

Daemon tests follow the ``test_service.py`` idioms: a monkeypatched
``execute_timed`` fake, ``poll_s=0``, and explicit ``tick()`` driving.
"""

from __future__ import annotations

import json
import threading
import time
import types
from pathlib import Path

import pytest

from repro.errors import (
    AdmissionError,
    ConfigError,
    JobStateError,
    ServiceError,
)
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.sweep import RunSpec
from repro.metrics.slo import service_report
from repro.service import (
    BROWNOUT_LEVELS,
    AdmissionQueue,
    BrownoutController,
    CircuitBreaker,
    Job,
    JobState,
    JobTable,
    JournalStore,
    SchedulerDaemon,
    ServiceClient,
    ServiceTimeEstimator,
    default_queue_ttl,
    is_terminal,
    reconcile_qos,
)
from repro.service.overload import (
    default_breaker_config,
    default_brownout_config,
)
from repro.service.state import TRANSITIONS, validate_transition
from repro.service.store import spec_to_dict


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.clear()
    yield
    faults.clear()


class FakeClock:
    """Injectable monotonic clock for hysteresis/cooldown tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _spec(label="BS", seed=7, policy="drain"):
    return RunSpec.periodic(label, policy, periods=2, seed=seed)


def _fake_executor(qos=None, block_on=None):
    """A stand-in for ``execute_timed``: instant, deterministic, and
    optionally blocking on an event keyed by call order."""
    calls = []

    def run(spec):
        calls.append(spec)
        if block_on is not None:
            block_on.wait(timeout=30.0)
        result = types.SimpleNamespace(
            qos=dict(qos or {"preemptions": 1, "violations": 0,
                             "escalations": 0, "aborted": 0,
                             "worst_budget_ratio": 0.5,
                             "calibration": {}}))
        return result, 0.001

    run.calls = calls
    return run


def _daemon(tmp_path, monkeypatch=None, executor=None, **kwargs):
    kwargs.setdefault("capacity", 8)
    kwargs.setdefault("heartbeat_s", 30.0)
    kwargs.setdefault("poll_s", 0.0)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("cache", ResultCache(tmp_path / "cache",
                                           enabled=False))
    if executor is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("repro.service.daemon.execute_timed", executor)
    return SchedulerDaemon(tmp_path / "svc", **kwargs)


def _tick_until(daemon, predicate, what, timeout_s=30.0):
    """Tick the daemon until ``predicate()`` holds (bounded)."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        daemon.tick()


def _replay_table(svc) -> JobTable:
    return JobTable.from_records(JournalStore(svc).replay())


def _job_state(daemon, job_id):
    """The job's live state, or None while it is still spooled."""
    job = daemon.table.jobs.get(job_id)
    return None if job is None else job.state


# ----------------------------------------------------------------------
# unit: service-time estimator
# ----------------------------------------------------------------------


class TestServiceTimeEstimator:
    def test_empty_estimator_declines_to_guess(self):
        est = ServiceTimeEstimator()
        assert est.estimate_spec(_spec()) is None
        assert est.estimate_specs([_spec(), _spec(seed=8)]) is None
        assert est.mean_estimate() is None
        assert est.snapshot() == {"samples": 0, "shapes": 0, "mean_s": None}

    def test_per_shape_ewma_folding(self):
        est = ServiceTimeEstimator(alpha=0.25)
        est.observe(_spec(), 1.0)
        assert est.estimate_spec(_spec()) == pytest.approx(1.0)
        est.observe(_spec(), 2.0)
        # 1.0 + 0.25 * (2.0 - 1.0)
        assert est.estimate_spec(_spec()) == pytest.approx(1.25)
        assert est.samples == 2

    def test_seed_does_not_split_shapes(self):
        est = ServiceTimeEstimator()
        est.observe(_spec(seed=1), 3.0)
        # Same (kind, label, policy), different seed: same shape key.
        assert est.estimate_spec(_spec(seed=999)) == pytest.approx(3.0)
        assert est.snapshot()["shapes"] == 1

    def test_unknown_shape_falls_back_to_global(self):
        est = ServiceTimeEstimator()
        est.observe(_spec(label="BS"), 2.0)
        assert est.estimate_spec(_spec(label="ST")) == pytest.approx(2.0)
        assert est.estimate_specs(
            [_spec(label="BS"), _spec(label="ST")]) == pytest.approx(4.0)

    def test_negative_observation_ignored(self):
        est = ServiceTimeEstimator()
        est.observe(_spec(), -1.0)
        assert est.samples == 0
        assert est.mean_estimate() is None

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigError):
            ServiceTimeEstimator(alpha=0.0)
        with pytest.raises(ConfigError):
            ServiceTimeEstimator(alpha=1.5)


# ----------------------------------------------------------------------
# unit: brownout state machine
# ----------------------------------------------------------------------


def _brownout(clock, **kwargs):
    kwargs.setdefault("enter_frac", 0.8)
    kwargs.setdefault("exit_frac", 0.3)
    kwargs.setdefault("age_full_s", 30.0)
    kwargs.setdefault("dwell_s", 1.0)
    kwargs.setdefault("best_effort_max", 0)
    kwargs.setdefault("critical_min", 5)
    return BrownoutController(clock=clock, **kwargs)


class TestBrownoutController:
    def test_config_validation(self):
        clk = FakeClock()
        with pytest.raises(ConfigError):
            _brownout(clk, enter_frac=0.0)
        with pytest.raises(ConfigError):
            _brownout(clk, exit_frac=0.8, enter_frac=0.8)
        with pytest.raises(ConfigError):
            _brownout(clk, dwell_s=-1.0)
        with pytest.raises(ConfigError):
            _brownout(clk, best_effort_max=5, critical_min=5)

    def test_escalates_one_level_per_dwell(self):
        clk = FakeClock()
        bc = _brownout(clk)
        # Within the initial dwell nothing moves, however hard the load.
        assert bc.observe(10, 10, None) is None
        assert bc.level == 0
        clk.advance(1.0)
        assert bc.observe(10, 10, None) == (0, 1)
        assert bc.name == "shed-best-effort"
        # Dwell again: the next observation holds even at full pressure.
        assert bc.observe(10, 10, None) is None
        clk.advance(1.0)
        assert bc.observe(10, 10, None) == (1, 2)
        clk.advance(1.0)
        assert bc.observe(10, 10, None) == (2, 3)
        assert bc.name == "critical-only"
        clk.advance(1.0)
        # Already at the ceiling.
        assert bc.observe(10, 10, None) is None
        assert bc.level == len(BROWNOUT_LEVELS) - 1

    def test_hysteresis_band_holds_level(self):
        clk = FakeClock()
        bc = _brownout(clk)
        clk.advance(1.0)
        assert bc.observe(8, 10, None) == (0, 1)
        # Pressure 0.5 sits between exit (0.3) and enter (0.8): hold,
        # no matter how much time passes.
        for _ in range(5):
            clk.advance(10.0)
            assert bc.observe(5, 10, None) is None
        assert bc.level == 1
        clk.advance(1.0)
        assert bc.observe(2, 10, None) == (1, 0)
        assert bc.name == "normal"

    def test_age_pressure_escalates_without_depth(self):
        clk = FakeClock()
        bc = _brownout(clk, age_full_s=30.0)
        clk.advance(1.0)
        # One ancient job in a near-empty queue is still an emergency.
        assert bc.observe(1, 64, 30.0) == (0, 1)
        assert bc.pressure == pytest.approx(1.0)

    def test_age_pressure_disabled_at_zero(self):
        clk = FakeClock()
        bc = _brownout(clk, age_full_s=0.0)
        clk.advance(1.0)
        assert bc.observe(1, 64, 10_000.0) is None
        assert bc.level == 0

    def test_admits_by_level(self):
        clk = FakeClock()
        bc = _brownout(clk)
        assert bc.admits(0) and bc.admits(-3)
        bc.restore(1)
        assert not bc.admits(0)
        assert bc.admits(1) and bc.admits(9)
        bc.restore(2)
        assert not bc.admits(4)
        assert bc.admits(5)
        bc.restore(3)
        assert not bc.admits(4)
        assert bc.admits(5)

    def test_sheds_by_level_and_protection(self):
        clk = FakeClock()
        bc = _brownout(clk)
        assert not bc.sheds(0)
        bc.restore(1)
        assert bc.sheds(0) and bc.sheds(-1)
        assert not bc.sheds(1)
        assert not bc.sheds(0, protected=True)
        bc.restore(2)
        assert bc.sheds(4)
        assert not bc.sheds(5)
        assert not bc.sheds(4, protected=True)
        bc.restore(3)
        # critical-only sheds checkpointed non-critical work too.
        assert bc.sheds(4, protected=True)
        assert not bc.sheds(5, protected=True)

    def test_restore_clamps(self):
        clk = FakeClock()
        bc = _brownout(clk)
        bc.restore(99)
        assert bc.level == len(BROWNOUT_LEVELS) - 1
        bc.restore(-2)
        assert bc.level == 0

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_BROWNOUT_ENTER", "0.6")
        monkeypatch.setenv("CHIMERA_BROWNOUT_EXIT", "0.1")
        monkeypatch.setenv("CHIMERA_BROWNOUT_DWELL_S", "0.25")
        monkeypatch.setenv("CHIMERA_BROWNOUT_CRITICAL", "3")
        config = default_brownout_config()
        assert config["enter_frac"] == 0.6
        assert config["exit_frac"] == 0.1
        assert config["dwell_s"] == 0.25
        assert config["critical_min"] == 3
        bc = BrownoutController.from_env()
        assert bc.enter_frac == 0.6 and bc.critical_min == 3

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_BROWNOUT_ENTER", "many")
        with pytest.raises(ConfigError):
            default_brownout_config()
        monkeypatch.setenv("CHIMERA_BROWNOUT_ENTER", "1.5")
        with pytest.raises(ConfigError):
            default_brownout_config()
        monkeypatch.setenv("CHIMERA_BROWNOUT_ENTER", "0.4")
        monkeypatch.setenv("CHIMERA_BROWNOUT_EXIT", "0.6")
        with pytest.raises(ConfigError):
            BrownoutController.from_env()

    def test_queue_ttl_env(self, monkeypatch):
        assert default_queue_ttl() == 0.0
        monkeypatch.setenv("CHIMERA_QUEUE_TTL", "12.5")
        assert default_queue_ttl() == 12.5
        monkeypatch.setenv("CHIMERA_QUEUE_TTL", "-1")
        with pytest.raises(ConfigError):
            default_queue_ttl()


# ----------------------------------------------------------------------
# unit: circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_on_kth_failure(self):
        clk = FakeClock()
        cb = CircuitBreaker(k=3, window_s=30.0, cooldown_s=5.0, clock=clk)
        assert cb.state == CircuitBreaker.CLOSED
        assert not cb.record_failure()
        assert not cb.record_failure()
        assert cb.state == CircuitBreaker.CLOSED
        assert cb.record_failure()
        assert cb.state == CircuitBreaker.OPEN
        assert cb.trips == 1

    def test_window_prunes_stale_failures(self):
        clk = FakeClock()
        cb = CircuitBreaker(k=2, window_s=10.0, cooldown_s=5.0, clock=clk)
        cb.record_failure()
        clk.advance(11.0)
        # The first failure fell out of the window: still one strike.
        assert not cb.record_failure()
        assert cb.state == CircuitBreaker.CLOSED
        assert cb.failures_in_window() == 1
        clk.advance(1.0)
        assert cb.record_failure()
        assert cb.state == CircuitBreaker.OPEN

    def test_open_blocks_until_cooldown_then_single_probe(self):
        clk = FakeClock()
        cb = CircuitBreaker(k=1, window_s=30.0, cooldown_s=5.0, clock=clk)
        assert cb.record_failure()
        assert not cb.allow_pool()
        clk.advance(4.9)
        assert not cb.allow_pool()
        clk.advance(0.2)
        # Cooldown elapsed: exactly one caller wins the probe token.
        assert cb.allow_pool()
        assert cb.state == CircuitBreaker.HALF_OPEN
        assert not cb.allow_pool()
        assert cb.probes == 1

    def test_probe_success_closes(self):
        clk = FakeClock()
        cb = CircuitBreaker(k=1, window_s=30.0, cooldown_s=1.0, clock=clk)
        cb.record_failure()
        clk.advance(2.0)
        assert cb.allow_pool()
        assert cb.record_success()
        assert cb.state == CircuitBreaker.CLOSED
        # Fully closed again: no probe gating, failures count fresh.
        assert cb.allow_pool() and cb.allow_pool()
        assert cb.failures_in_window() == 0

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clk = FakeClock()
        cb = CircuitBreaker(k=1, window_s=30.0, cooldown_s=5.0, clock=clk)
        cb.record_failure()
        clk.advance(6.0)
        assert cb.allow_pool()
        assert cb.record_failure()
        assert cb.state == CircuitBreaker.OPEN
        assert cb.trips == 2
        assert not cb.allow_pool()
        clk.advance(5.1)
        assert cb.allow_pool()

    def test_success_while_closed_is_quiet(self):
        cb = CircuitBreaker(k=2)
        assert not cb.record_success()
        assert cb.snapshot() == {"state": "closed", "trips": 0,
                                 "probes": 0, "failures_in_window": 0}

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_BREAKER_K", "7")
        monkeypatch.setenv("CHIMERA_BREAKER_WINDOW", "2.5")
        monkeypatch.setenv("CHIMERA_BREAKER_COOLDOWN", "0.5")
        cb = CircuitBreaker.from_env()
        assert (cb.k, cb.window_s, cb.cooldown_s) == (7, 2.5, 0.5)
        monkeypatch.setenv("CHIMERA_BREAKER_K", "0")
        with pytest.raises(ConfigError):
            default_breaker_config()

    def test_bad_construction_rejected(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(k=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(cooldown_s=-1.0)


# ----------------------------------------------------------------------
# unit: admission-queue edge cases (satellite)
# ----------------------------------------------------------------------


def _job(job_id, priority=0, seq=0, enqueued_t=0.0):
    job = Job(job_id=job_id, specs=(_spec(),), priority=priority,
              submit_seq=seq)
    job.enqueued_t = enqueued_t
    return job


class TestAdmissionQueueEdges:
    def test_duplicate_push_refused(self):
        q = AdmissionQueue(capacity=4)
        q.push(_job("a"))
        with pytest.raises(ServiceError, match="duplicate"):
            q.push(_job("a"))
        assert len(q) == 1

    def test_membership_tracks_pop_and_remove(self):
        q = AdmissionQueue(capacity=4)
        q.push(_job("a", seq=1))
        q.push(_job("b", seq=2))
        assert "a" in q and "b" in q
        assert q.pop().job_id == "a"
        assert "a" not in q
        # Once popped, the id may legitimately re-enter (preemption).
        q.push(_job("a", seq=1))
        assert q.remove("a").job_id == "a"
        assert "a" not in q and "b" in q
        assert q.remove("ghost") is None

    def test_priority_ties_resolve_fifo(self):
        q = AdmissionQueue(capacity=8)
        q.push(_job("late", priority=3, seq=9))
        q.push(_job("early", priority=3, seq=2))
        q.push(_job("weak", priority=1, seq=1))
        assert [j.job_id for j in q.top(3)] == ["early", "late", "weak"]
        assert [j.job_id for j in q.jobs()] == ["early", "late", "weak"]
        assert q.top(0) == []
        assert q.peek().job_id == "early"
        assert q.pop().job_id == "early"

    def test_recovery_pushes_bypass_capacity(self):
        q = AdmissionQueue(capacity=2)
        for i in range(4):
            q.push(_job(f"j{i}", seq=i))
        assert len(q) == 4 and q.full
        with pytest.raises(AdmissionError) as excinfo:
            q.check_capacity("j5")
        assert excinfo.value.reason == "capacity"

    def test_oldest_age_ignores_unstamped_jobs(self):
        q = AdmissionQueue(capacity=4)
        assert q.oldest_age_s(100.0) is None
        q.push(_job("unstamped", seq=1))
        assert q.oldest_age_s(100.0) is None
        q.push(_job("old", seq=2, enqueued_t=40.0))
        q.push(_job("new", seq=3, enqueued_t=90.0))
        assert q.oldest_age_s(100.0) == pytest.approx(60.0)
        # A clock step backwards never reports negative age.
        assert q.oldest_age_s(10.0) == 0.0


# ----------------------------------------------------------------------
# state machine + journal replay of the overload records
# ----------------------------------------------------------------------


class TestOverloadStateMachine:
    def test_shed_and_timed_out_are_terminal(self):
        assert TRANSITIONS[JobState.SHED] == frozenset()
        assert TRANSITIONS[JobState.TIMED_OUT] == frozenset()
        assert is_terminal(JobState.SHED)
        assert is_terminal(JobState.TIMED_OUT)
        validate_transition("j", JobState.QUEUED, JobState.SHED)
        validate_transition("j", JobState.PREEMPTED, JobState.TIMED_OUT)
        with pytest.raises(JobStateError):
            validate_transition("j", JobState.RUNNING, JobState.SHED)
        with pytest.raises(JobStateError):
            validate_transition("j", JobState.SHED, JobState.QUEUED)

    def test_replay_recovers_brownout_and_breaker_meta(self, tmp_path):
        store = JournalStore(tmp_path / "svc")
        store.open()
        store.append_meta("brownout", level=2, name="shed-low-priority",
                          depth=7, pressure=0.9)
        store.append_meta("breaker", state="open", trips=1, probes=0)
        seq = store.append_transition(
            "j1", None, JobState.QUEUED,
            {"specs": [spec_to_dict(_spec())], "priority": 0})
        store.append_transition("j1", JobState.QUEUED, JobState.SHED,
                                {"reason": "brownout", "level": 2})
        store.close()
        table = _replay_table(tmp_path / "svc")
        assert table.brownout_level == 2
        assert table.brownout_name == "shed-low-priority"
        assert table.breaker_state == "open"
        job = table.jobs["j1"]
        assert job.state is JobState.SHED
        assert job.detail["reason"] == "brownout"
        assert job.submit_seq == seq
        # The QUEUED record's timestamp became the queue-age lease.
        assert job.enqueued_t > 0


# ----------------------------------------------------------------------
# fault directives (satellite: slow-slot / pool-break)
# ----------------------------------------------------------------------


class TestOverloadFaults:
    def test_slow_slot_parsing_and_lookup(self):
        faults.install("slow-slot@1")
        assert faults.slow_slot_factor(1) == 8.0  # default factor
        assert faults.slow_slot_factor(0) is None
        faults.install("slow-slot@*:2.5")
        assert faults.slow_slot_factor(3) == 2.5

    def test_slow_slot_bad_factor_rejected(self):
        with pytest.raises(ConfigError):
            faults.parse_plan("slow-slot@0:zero")
        with pytest.raises(ConfigError):
            faults.parse_plan("slow-slot@0:-2")

    def test_pool_break_counts_submissions(self):
        faults.install("pool-break@1")
        assert faults.has_pool_break()
        faults.inject_pool_break()  # submission 0: unfaulted
        with pytest.raises(faults.InjectedPoolBreak) as excinfo:
            faults.inject_pool_break()  # submission 1 fires
        assert excinfo.value.seq == 1
        faults.inject_pool_break()  # submission 2: past the fault

    def test_pool_break_noop_without_plan(self):
        assert not faults.has_pool_break()
        faults.inject_pool_break()  # must not raise or count
        faults.install("fail@0")
        assert not faults.has_pool_break()
        faults.inject_pool_break()


# ----------------------------------------------------------------------
# daemon: deadline-aware admission
# ----------------------------------------------------------------------


class TestDeadlineAdmission:
    def test_permissive_without_observations(self, tmp_path, monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        try:
            # An absurd SLO, but the EWMA has no data: admit, don't
            # reject on fiction.
            client.submit([_spec()], job_id="hopeful", slo_s=1e-6)
            daemon.run_until_idle()
            assert daemon.table.jobs["hopeful"].state is JobState.COMPLETED
        finally:
            daemon.shutdown()

    def test_unmeetable_slo_rejected_with_hint(self, tmp_path, monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        try:
            daemon.estimator.observe(_spec(), 10.0)
            client.submit([_spec(seed=21)], job_id="doomed", slo_s=0.05)
            daemon.tick()
            assert client.job_state("doomed") == "rejected"
            record = client.rejection("doomed")
            assert record["reason"] == "unmeetable-slo"
            # ~10s estimate against a 0.05s budget: the hint says how
            # late the job would have been.
            assert record["retry_after_s"] == pytest.approx(9.95, abs=0.5)
            assert "doomed" not in daemon.table.jobs
        finally:
            daemon.shutdown()

    def test_queue_wait_counts_against_budget(self, tmp_path, monkeypatch):
        gate = threading.Event()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate))
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        try:
            daemon.estimator.observe(_spec(), 10.0)
            client.submit([_spec(seed=31)], job_id="ahead")
            _tick_until(daemon, lambda: daemon.running is not None,
                        "dispatch of the blocking job")
            # Service alone (10s) fits a 15s budget, but the busy slot
            # owes ~10s first: 20s ETA blows the deadline.
            client.submit([_spec(seed=32)], job_id="tight", slo_s=15.0)
            daemon.tick()
            assert client.job_state("tight") == "rejected"
            assert client.rejection("tight")["reason"] == "unmeetable-slo"
            # The same job with slack for the wait is admitted.
            client.submit([_spec(seed=33)], job_id="roomy", slo_s=60.0)
            daemon.tick()
            assert daemon.table.jobs["roomy"].state is JobState.QUEUED
        finally:
            gate.set()
            daemon.run_until_idle()
            daemon.shutdown()

    def test_client_validates_slo(self, tmp_path):
        client = ServiceClient(tmp_path / "svc")
        with pytest.raises(AdmissionError) as excinfo:
            client.submit([_spec()], slo_s=0.0)
        assert excinfo.value.reason == "invalid-spec"


# ----------------------------------------------------------------------
# daemon: queue-age expiry
# ----------------------------------------------------------------------


class TestQueueTTL:
    def test_stale_queued_job_expires(self, tmp_path, monkeypatch):
        gate = threading.Event()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate), queue_ttl_s=5.0)
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        try:
            client.submit([_spec(seed=41)], job_id="busy")
            _tick_until(daemon, lambda: daemon.running is not None,
                        "dispatch")
            client.submit([_spec(seed=42)], job_id="stale")
            _tick_until(daemon,
                        lambda: "stale" in daemon.table.jobs, "admission")
            # Backdate the lease instead of sleeping out a real TTL.
            daemon.table.jobs["stale"].enqueued_t = time.time() - 10.0
            daemon.tick()
            job = daemon.table.jobs["stale"]
            assert job.state is JobState.TIMED_OUT
            assert job.detail["reason"] == "queue-ttl"
            assert job.detail["ttl_s"] == 5.0
            assert "stale" not in daemon.queue
        finally:
            gate.set()
            daemon.run_until_idle()
            daemon.shutdown()
        replayed = _replay_table(tmp_path / "svc")
        assert replayed.jobs["stale"].state is JobState.TIMED_OUT
        assert replayed.jobs["busy"].state is JobState.COMPLETED
        status = ServiceClient(tmp_path / "svc").status()
        assert status["overload"]["timed_out"] == 1

    def test_ttl_zero_never_expires(self, tmp_path, monkeypatch):
        gate = threading.Event()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate), queue_ttl_s=0.0,
                         brownout=BrownoutController(age_full_s=0.0))
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        try:
            client.submit([_spec(seed=43)], job_id="busy")
            _tick_until(daemon, lambda: daemon.running is not None,
                        "dispatch")
            client.submit([_spec(seed=44)], job_id="patient")
            _tick_until(daemon,
                        lambda: "patient" in daemon.table.jobs, "admission")
            daemon.table.jobs["patient"].enqueued_t = time.time() - 9999.0
            daemon.tick()
            assert daemon.table.jobs["patient"].state is JobState.QUEUED
        finally:
            gate.set()
            daemon.run_until_idle()
            daemon.shutdown()

    def test_negative_ttl_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            _daemon(tmp_path, queue_ttl_s=-1.0)


# ----------------------------------------------------------------------
# daemon: brownout shedding + journaled recovery
# ----------------------------------------------------------------------


def _pressure_brownout(enter_frac=0.5):
    """Deterministic brownout for daemon tests: no dwell, depth-only
    pressure, escalate at ``enter_frac`` depth, ease below 20%."""
    return BrownoutController(enter_frac=enter_frac, exit_frac=0.2,
                              age_full_s=0.0, dwell_s=0.0,
                              best_effort_max=0, critical_min=5)


class TestBrownoutDaemon:
    def test_shed_reject_and_recover_levels(self, tmp_path, monkeypatch):
        gate = threading.Event()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate), capacity=4,
                         brownout=_pressure_brownout(enter_frac=0.6))
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        try:
            client.submit([_spec(seed=50)], job_id="crit", priority=9)
            _tick_until(daemon, lambda: daemon.running is not None,
                        "dispatch of the critical job")
            # Burst of best-effort + low-priority work: depth 3/4 blows
            # through the 0.5 watermark the same tick it is admitted.
            client.submit([_spec(seed=51)], job_id="be-0", priority=0)
            client.submit([_spec(seed=52)], job_id="be-1", priority=0)
            client.submit([_spec(seed=53)], job_id="low", priority=2)
            daemon.tick()
            assert daemon.brownout.level == 1
            for jid in ("be-0", "be-1"):
                job = daemon.table.jobs[jid]
                assert job.state is JobState.SHED
                assert job.detail["reason"] == "brownout"
                assert job.detail["level"] == 1
            assert daemon.table.jobs["low"].state is JobState.QUEUED

            # Level 1 refuses new best-effort submissions outright...
            client.submit([_spec(seed=54)], job_id="be-late", priority=0)
            daemon.tick()
            assert client.job_state("be-late") == "rejected"
            record = client.rejection("be-late")
            assert record["reason"] == "brownout"
            assert record["retry_after_s"] > 0
            # ...but anything above the best-effort class still lands.
            client.submit([_spec(seed=55)], job_id="low-2", priority=2)
            daemon.tick()
            assert daemon.table.jobs["low-2"].state is JobState.QUEUED

            # Refill to 3/4: the next tick escalates to level 2, which
            # sheds everything below the critical class.
            client.submit([_spec(seed=56)], job_id="crit-2", priority=7)
            daemon.tick()
            assert daemon.brownout.level == 2
            assert daemon.table.jobs["low"].state is JobState.SHED
            assert daemon.table.jobs["low-2"].state is JobState.SHED
            assert daemon.table.jobs["crit-2"].state is JobState.QUEUED

            # The beacon mirrors the live level for `chimera status`
            # (depth 1/4 sits in the hysteresis band). Ticks publish it
            # once per BEACON_PERIOD_S, so publish it now.
            daemon.tick()
            assert daemon.brownout.level == 2
            daemon._publish_beacon()
            beacon = json.loads(
                (tmp_path / "svc" / "control" / "daemon.json").read_text())
            assert beacon["brownout"]["level"] == 2
            assert beacon["queue"]["depth"] == 1

            # Drain: pressure collapses, one level eased per tick, every
            # transition journaled.
            gate.set()
            daemon.run_until_idle()
            _tick_until(daemon, lambda: daemon.brownout.level == 0,
                        "brownout to ease back to normal")
        finally:
            gate.set()
            daemon.shutdown()
        table = _replay_table(tmp_path / "svc")
        assert table.brownout_level == 0
        assert table.jobs["crit"].state is JobState.COMPLETED
        assert table.jobs["crit-2"].state is JobState.COMPLETED
        status = ServiceClient(tmp_path / "svc").status()
        assert status["overload"]["shed"] == 4
        assert status["overload"]["brownout"]["level"] == 0
        report = status["service"]
        assert report["shed"] == 4
        assert report["priorities"]["9"]["attainment"] == 1.0
        assert report["priorities"]["7"]["attainment"] == 1.0
        assert report["priorities"]["0"]["attainment"] == 0.0

    def test_kill_minus_nine_mid_brownout_recovers_level(
            self, tmp_path, monkeypatch):
        gate = threading.Event()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate), capacity=4,
                         brownout=_pressure_brownout())
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        client.submit([_spec(seed=60)], job_id="running", priority=9)
        _tick_until(daemon, lambda: daemon.running is not None, "dispatch")
        for i in range(3):
            client.submit([_spec(seed=61 + i)], job_id=f"crit-{i}",
                          priority=6)
        daemon.tick()   # admit 3 critical jobs -> escalate to level 1
        daemon.tick()   # still 3/4 queued (nothing sheddable) -> level 2
        assert daemon.brownout.level == 2
        submitted = {"running", "crit-0", "crit-1", "crit-2"}
        assert set(daemon.table.jobs) == submitted

        # kill -9: the process stops ticking with the journal durable
        # (every tick group-committed). No shutdown, no lock release —
        # the worker thread is parked on the gate and never ticks again.
        gate.set()
        deadline = time.monotonic() + 30.0
        while daemon.running is not None \
                and daemon.running.outcome is None:
            assert time.monotonic() < deadline
            time.sleep(0.001)

        recovered = _daemon(tmp_path, monkeypatch, _fake_executor(),
                            capacity=4, brownout=_pressure_brownout())
        recovered.start()
        try:
            # The journaled level survives the crash verbatim...
            assert recovered.brownout.level == 2
            assert recovered.table.brownout_level == 2
            # ...and zero jobs were lost: the running job was re-queued,
            # the queued ones stand as they were.
            assert set(recovered.table.jobs) == submitted
            assert recovered.table.jobs["running"].requeues == 1
            assert all(not is_terminal(j.state)
                       for j in recovered.table.jobs.values())
            recovered.run_until_idle()
            _tick_until(recovered, lambda: recovered.brownout.level == 0,
                        "post-recovery brownout to ease")
        finally:
            recovered.shutdown()
        table = _replay_table(tmp_path / "svc")
        assert table.brownout_level == 0
        assert all(table.jobs[jid].state is JobState.COMPLETED
                   for jid in submitted)
        assert table.restarts == 2


# ----------------------------------------------------------------------
# daemon: circuit breaker around the worker pool
# ----------------------------------------------------------------------


class TestCircuitBreakerDaemon:
    def test_open_degrade_probe_restore(self, tmp_path, monkeypatch):
        clk = FakeClock()
        breaker = CircuitBreaker(k=2, window_s=60.0, cooldown_s=5.0,
                                 clock=clk)
        gate = threading.Event()
        gate.set()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate), workers=2,
                         use_processes=False, breaker=breaker)
        client = ServiceClient(tmp_path / "svc")
        # Break the first two pool submissions; the third (the probe)
        # goes through clean.
        faults.install("pool-break@0,pool-break@1")
        daemon.start()
        try:
            assert daemon._effective_workers() == 2
            client.submit([_spec(seed=70), _spec(seed=71)], job_id="victim")
            _tick_until(
                daemon,
                lambda: _job_state(daemon, "victim")
                is JobState.COMPLETED,
                "the job to survive the broken pool")
            # Both specs' pool submissions broke -> circuit open, but
            # the job completed inline: a sick pool degrades, it does
            # not fail work.
            assert breaker.state == CircuitBreaker.OPEN
            assert breaker.trips == 1
            _tick_until(daemon,
                        lambda: daemon._breaker_journaled
                        == CircuitBreaker.OPEN,
                        "the tick loop to journal the open circuit")
            assert daemon._effective_workers() == 1

            # While open, dispatch fills only slot 0 even with two
            # waiting jobs and two slots.
            gate.clear()
            client.submit([_spec(seed=72)], job_id="inline-0")
            client.submit([_spec(seed=73)], job_id="inline-1")
            _tick_until(daemon, lambda: daemon.slots[0] is not None,
                        "single-slot dispatch")
            daemon.tick()
            assert daemon.slots[1] is None
            assert len(daemon.queue) == 1
            gate.set()
            _tick_until(
                daemon,
                lambda: all(daemon.table.jobs[j].state is JobState.COMPLETED
                            for j in ("inline-0", "inline-1")),
                "inline jobs to drain at degraded concurrency")
            assert breaker.state == CircuitBreaker.OPEN

            # Cooldown elapses: the next spec execution is the half-open
            # probe; it succeeds and full-slot dispatch is restored.
            clk.advance(6.0)
            client.submit([_spec(seed=74)], job_id="probe")
            _tick_until(
                daemon,
                lambda: _job_state(daemon, "probe")
                is JobState.COMPLETED,
                "the probe job")
            assert breaker.state == CircuitBreaker.CLOSED
            assert breaker.probes == 1
            _tick_until(daemon,
                        lambda: daemon._breaker_journaled
                        == CircuitBreaker.CLOSED,
                        "the tick loop to journal the closed circuit")
            assert daemon._effective_workers() == 2
        finally:
            gate.set()
            daemon.shutdown()
        table = _replay_table(tmp_path / "svc")
        assert table.breaker_state == CircuitBreaker.CLOSED
        assert all(j.state is JobState.COMPLETED
                   for j in table.jobs.values())

    def test_restart_resets_journaled_open_breaker(self, tmp_path,
                                                   monkeypatch):
        store = JournalStore(tmp_path / "svc")
        store.open()
        store.append_meta("breaker", state="open", trips=3, probes=1)
        store.close()
        assert _replay_table(tmp_path / "svc").breaker_state == "open"
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        daemon.start()
        daemon.shutdown()
        # The breaker guards the (fresh) process-local pool: a restart
        # journals the reset so replay matches reality.
        assert _replay_table(tmp_path / "svc").breaker_state == "closed"


# ----------------------------------------------------------------------
# daemon: spool-read robustness (satellite)
# ----------------------------------------------------------------------


class TestSpoolRobustness:
    def test_transient_read_error_defers_not_rejects(self, tmp_path,
                                                     monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        try:
            job_id = client.submit([_spec(seed=80)])
            strikes = {"left": 2}
            real_read = Path.read_text

            def flaky(self, *args, **kwargs):
                if self.name == f"{job_id}.json" and strikes["left"]:
                    strikes["left"] -= 1
                    raise OSError(5, "injected transient I/O error")
                return real_read(self, *args, **kwargs)

            monkeypatch.setattr(Path, "read_text", flaky)
            daemon.tick()
            # Deferred, not rejected: the submission is still spooled.
            assert job_id not in daemon.table.jobs
            assert (tmp_path / "svc" / "spool" / f"{job_id}.json").exists()
            assert client.rejection(job_id) is None
            daemon.tick()   # second strike
            daemon.run_until_idle()
            assert daemon.table.jobs[job_id].state is JobState.COMPLETED
            assert strikes["left"] == 0
        finally:
            daemon.shutdown()

    def test_durable_damage_still_rejects(self, tmp_path, monkeypatch):
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor())
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        try:
            spool = tmp_path / "svc" / "spool"
            (spool / "garbled.json").write_text("{not json")
            (spool / "empty.json").write_text(
                json.dumps({"job_id": "empty", "specs": []}))
            (spool / "badslo.json").write_text(json.dumps({
                "job_id": "badslo", "priority": 0, "slo_s": -1,
                "specs": [{"kind": "periodic", "label": "BS",
                           "policy": "drain", "periods": 1, "seed": 1}]}))
            daemon.tick()
            for jid in ("garbled", "empty", "badslo"):
                record = client.rejection(jid)
                assert record is not None and \
                    record["reason"] == "invalid-spec", jid
                assert jid not in daemon.table.jobs
        finally:
            daemon.shutdown()


# ----------------------------------------------------------------------
# client: backoff + retry budget (satellite)
# ----------------------------------------------------------------------


class TestClientBackoff:
    def _patched_sleeps(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep",
                            sleeps.append)
        return sleeps

    def test_wait_backs_off_exponentially(self, tmp_path, monkeypatch):
        client = ServiceClient(tmp_path / "svc")
        states = iter(["pending"] * 6 + ["completed"])
        monkeypatch.setattr(client, "job_state", lambda jid: next(states))
        sleeps = self._patched_sleeps(monkeypatch)
        assert client.wait("j", timeout_s=60.0, poll_s=0.01) == "completed"
        # Six sleeps with bases 0.01, 0.02, ... 0.32, jittered within
        # [0.5, 1.5): the schedule grows instead of fixed-rate polling.
        assert len(sleeps) == 6
        assert sleeps[0] <= 0.015
        assert sleeps[5] >= 0.16 * 0.5
        assert sleeps[5] > sleeps[0]

    def test_wait_backoff_resets_on_progress(self, tmp_path, monkeypatch):
        client = ServiceClient(tmp_path / "svc")
        states = iter(["queued"] * 4 + ["running"] * 2 + ["completed"])
        monkeypatch.setattr(client, "job_state", lambda jid: next(states))
        sleeps = self._patched_sleeps(monkeypatch)
        assert client.wait("j", timeout_s=60.0, poll_s=0.01) == "completed"
        assert len(sleeps) == 6
        # QUEUED->RUNNING resets the schedule: the first post-progress
        # sleep is near poll_s again, well under the pre-progress one.
        assert sleeps[3] >= 0.08 * 0.5
        assert sleeps[4] <= 0.015
        assert sleeps[4] < sleeps[3]

    def test_submit_and_wait_honors_retry_after(self, tmp_path,
                                                monkeypatch):
        client = ServiceClient(tmp_path / "svc")
        submits = []
        monkeypatch.setattr(
            client, "submit",
            lambda specs, priority=0, job_id=None, slo_s=None:
            submits.append(job_id) or job_id)
        outcomes = iter(["rejected", "rejected", "completed"])
        monkeypatch.setattr(
            client, "wait",
            lambda job_id, timeout_s=0.0, poll_s=0.0: next(outcomes))
        monkeypatch.setattr(
            client, "rejection",
            lambda job_id: {"reason": "brownout", "retry_after_s": 0.2})
        sleeps = self._patched_sleeps(monkeypatch)
        state = client.submit_and_wait([_spec()], job_id="j", retries=5,
                                       timeout_s=60.0)
        assert state == "completed"
        assert submits == ["j", "j", "j"]
        assert len(sleeps) == 2
        # Each sleep is the daemon's hint, jittered into [0.1, 0.3).
        assert all(0.2 * 0.5 <= s < 0.2 * 1.5 for s in sleeps)

    def test_submit_and_wait_gives_up_after_budget(self, tmp_path,
                                                   monkeypatch):
        client = ServiceClient(tmp_path / "svc")
        submits = []
        monkeypatch.setattr(
            client, "submit",
            lambda specs, priority=0, job_id=None, slo_s=None:
            submits.append(job_id) or job_id)
        monkeypatch.setattr(
            client, "wait",
            lambda job_id, timeout_s=0.0, poll_s=0.0: "rejected")
        monkeypatch.setattr(
            client, "rejection",
            lambda job_id: {"reason": "capacity"})  # no hint: fallback
        sleeps = self._patched_sleeps(monkeypatch)
        state = client.submit_and_wait([_spec()], job_id="j", retries=2,
                                       timeout_s=60.0)
        assert state == "rejected"
        assert submits == ["j", "j", "j"]    # 1 attempt + 2 retries
        assert len(sleeps) == 2

    def test_permanent_rejection_is_not_retried(self, tmp_path,
                                                monkeypatch):
        client = ServiceClient(tmp_path / "svc")
        submits = []
        monkeypatch.setattr(
            client, "submit",
            lambda specs, priority=0, job_id=None, slo_s=None:
            submits.append(job_id) or job_id)
        monkeypatch.setattr(
            client, "wait",
            lambda job_id, timeout_s=0.0, poll_s=0.0: "rejected")
        monkeypatch.setattr(
            client, "rejection",
            lambda job_id: {"reason": "invalid-spec"})
        state = client.submit_and_wait([_spec()], job_id="j", retries=5,
                                       timeout_s=60.0)
        assert state == "rejected"
        assert submits == ["j"]

    def test_resubmission_retracts_stale_rejection(self, tmp_path,
                                                   monkeypatch):
        gate = threading.Event()
        daemon = _daemon(
            tmp_path, monkeypatch, _fake_executor(block_on=gate),
            capacity=1,
            brownout=BrownoutController(age_full_s=0.0, dwell_s=3600.0))
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        try:
            client.submit([_spec(seed=90)], job_id="hog")
            _tick_until(daemon, lambda: daemon.running is not None,
                        "dispatch")
            client.submit([_spec(seed=91)], job_id="filler")
            daemon.tick()   # filler fills the 1-job queue
            client.submit([_spec(seed=92)], job_id="bounced")
            daemon.tick()
            assert client.job_state("bounced") == "rejected"
            assert client.rejection("bounced")["reason"] == "capacity"
            gate.set()
            daemon.run_until_idle()
            # Resubmitting the same id supersedes the stale record.
            client.submit([_spec(seed=92)], job_id="bounced")
            assert client.job_state("bounced") == "pending"
            daemon.run_until_idle()
            assert client.job_state("bounced") == "completed"
            assert client.rejection("bounced") is None
        finally:
            daemon.shutdown()


# ----------------------------------------------------------------------
# service report (satellite: per-priority attainment)
# ----------------------------------------------------------------------


class TestServiceReport:
    def test_buckets_and_attainment(self):
        def job(jid, state, priority=0):
            j = Job(job_id=jid, specs=(_spec(),), priority=priority)
            j.state = state
            return j

        jobs = [job("a", JobState.COMPLETED, 5),
                job("b", JobState.COMPLETED, 0),
                job("c", JobState.SHED, 0),
                job("d", JobState.TIMED_OUT, 0),
                job("e", JobState.FAILED, 5),
                job("f", JobState.RUNNING, 0)]
        report = service_report(jobs)
        assert report["completed"] == 2
        assert report["shed"] == 1
        assert report["timed_out"] == 1
        assert report["failed"] == 1
        assert report["live"] == 1
        assert report["terminal"] == 5
        assert report["attainment"] == pytest.approx(2 / 5)
        assert report["priorities"]["5"]["attainment"] == pytest.approx(0.5)
        # The report rounds to 4 decimals.
        assert report["priorities"]["0"]["attainment"] == pytest.approx(
            1 / 3, abs=1e-3)

    def test_empty_report(self):
        report = service_report([])
        assert report["terminal"] == 0
        assert report["attainment"] == 0.0
        assert report["priorities"] == {}


# ----------------------------------------------------------------------
# the acceptance scenario: bursty 3x-capacity overload
# ----------------------------------------------------------------------


class TestBurstyOverload:
    def test_bursts_shed_best_effort_protect_critical(self, tmp_path,
                                                      monkeypatch):
        """Three bursts at ~3x queue capacity on a slowed slot: the
        daemon never crashes, critical attainment is 1.0 (>= the 0.9
        floor), best-effort work sheds with journaled records, and the
        accounting reconciles — every submission ends exactly one of
        completed / shed / rejected, none lost, none duplicated."""
        faults.install("slow-slot@*:5")
        daemon = _daemon(tmp_path, monkeypatch, _fake_executor(),
                         capacity=6, brownout=_pressure_brownout())
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        submitted, critical, seed = [], [], 100
        try:
            for burst in range(3):
                for i in range(2):      # critical class first in glob order
                    jid = f"a-crit-{burst}-{i}"
                    client.submit([_spec(seed=seed)], job_id=jid,
                                  priority=7)
                    submitted.append(jid)
                    critical.append(jid)
                    seed += 1
                for i in range(6):      # 8 jobs/burst vs capacity 6
                    jid = f"b-be-{burst}-{i}"
                    client.submit([_spec(seed=seed)], job_id=jid,
                                  priority=0)
                    submitted.append(jid)
                    seed += 1
                daemon.run_until_idle(timeout_s=60.0)
                _tick_until(daemon, lambda: daemon.brownout.level == 0,
                            "brownout to ease between bursts")
        finally:
            daemon.shutdown()

        table = _replay_table(tmp_path / "svc")
        status = ServiceClient(tmp_path / "svc").status()
        rejected_ids = {r["job_id"] for r in status["rejected"]}
        # Exactly-once accounting: every submission is terminal in the
        # journal or holds a rejection record, never both, never neither.
        for jid in submitted:
            in_journal = jid in table.jobs
            assert in_journal != (jid in rejected_ids), jid
            if in_journal:
                assert is_terminal(table.jobs[jid].state), jid
        assert len(submitted) == len(table.jobs) + len(rejected_ids)

        # Critical work rode out the storm untouched.
        for jid in critical:
            assert table.jobs[jid].state is JobState.COMPLETED, jid
        report = status["service"]
        assert report["priorities"]["7"]["attainment"] == 1.0  # >= the 0.9 floor
        # Best-effort paid for it: real shedding happened and was
        # journaled with its brownout level.
        assert report["shed"] >= 4
        shed_jobs = [j for j in table.jobs.values()
                     if j.state is JobState.SHED]
        assert all(j.detail["reason"] == "brownout" and j.priority == 0
                   for j in shed_jobs)
        assert status["overload"]["shed"] == len(shed_jobs)
        # The slowed slot fed the estimator real (inflated) samples.
        assert daemon.estimator.samples >= len(critical)
        # And the ledger still reconciles after all that violence.
        assert reconcile_qos(tmp_path / "svc")["consistent"]


# ----------------------------------------------------------------------
# CLI surfacing
# ----------------------------------------------------------------------


class TestOverloadCLI:
    def test_status_renders_overload_lines(self, tmp_path, capsys,
                                           monkeypatch):
        from repro.cli import main

        gate = threading.Event()
        daemon = _daemon(tmp_path, monkeypatch,
                         _fake_executor(block_on=gate), capacity=4,
                         brownout=_pressure_brownout())
        client = ServiceClient(tmp_path / "svc")
        daemon.start()
        try:
            client.submit([_spec(seed=120)], job_id="crit", priority=9)
            _tick_until(daemon, lambda: daemon.running is not None,
                        "dispatch")
            for i in range(3):
                client.submit([_spec(seed=121 + i)], job_id=f"be-{i}")
            # A low-priority job survives level 1 and holds queue depth
            # inside the hysteresis band while we inspect the status.
            client.submit([_spec(seed=124)], job_id="low", priority=2)
            daemon.tick()   # admit, escalate, shed the best-effort jobs
            daemon.tick()
            assert daemon.brownout.level == 1
            daemon._publish_beacon()   # the escalated level, now
            code = main(["status", "--dir", str(tmp_path / "svc")])
            out = capsys.readouterr().out
            assert code == 0
            assert "brownout           shed-best-effort (level 1)" in out
            assert "3 shed" in out
            assert "breaker            closed" in out
            assert "queue" in out
            code = main(["status", "--dir", str(tmp_path / "svc"),
                         "--json"])
            snapshot = json.loads(capsys.readouterr().out)
            assert code == 0
            assert snapshot["overload"]["brownout"]["level"] == 1
            assert snapshot["overload"]["shed"] == 3
            assert snapshot["service"]["priorities"]["0"]["attainment"] == 0.0
        finally:
            gate.set()
            daemon.run_until_idle()
            daemon.shutdown()

    def test_serve_queue_ttl_flag(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["serve", "--dir", str(tmp_path / "svc"),
                     "--poll", "0", "--idle-exit", "0.01",
                     "--queue-ttl", "30"])
        assert code == 0

    def test_submit_slo_and_retries_flags(self, tmp_path, capsys):
        from repro.cli import main

        svc = str(tmp_path / "svc")
        code = main(["submit", "--dir", svc, "--kind", "periodic",
                     "--bench", "BS", "--periods", "1", "--job-id", "slo-1",
                     "--slo", "600"])
        assert code == 0
        payload = json.loads(
            (tmp_path / "svc" / "spool" / "slo-1.json").read_text())
        assert payload["slo_s"] == 600.0
