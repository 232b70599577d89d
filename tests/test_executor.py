"""The supervised worker executor: inline and forked execution, one
failure policy, and the regressions it fixes for its two callers.

Unit tests drive :class:`WorkerExecutor` with module-level task
functions (they pickle by reference into the forked workers). The
regression tests run fake specs on real forked workers through the
sweep runner and the daemon:

* a daemon spec that hangs in its worker fails its job, its worker is
  killed within one more heartbeat, and later specs are not stuck
  behind it;
* one worker dying under a 3-slot daemon costs only its own spec — the
  breaker records one failure and stays closed;
* a sweep spec past its timeout gets only its own worker killed: the
  sibling in flight at the kill executes exactly once.
"""

from __future__ import annotations

import os
import time
import types
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.executor import CircuitBreaker, TaskFailure, WorkerExecutor
from repro.harness.sweep import RunSpec, SpecFailure, SweepRunner
from repro.service import JobState, SchedulerDaemon, ServiceClient


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.clear()
    yield
    faults.clear()


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


def _square(x, attempt):
    return x * x


def _pid(attempt):
    return os.getpid()


def _flaky(attempt):
    if attempt == 0:
        raise ValueError("first attempt fails")
    return attempt


def _raise(attempt):
    raise ValueError(f"always fails (attempt {attempt})")


def _sleep(seconds, pid_file, attempt):
    Path(pid_file).write_text(str(os.getpid()))
    time.sleep(seconds)
    return os.getpid()


def _die_once(marker, attempt):
    if not os.path.exists(marker):
        Path(marker).touch()
        os._exit(3)
    return os.getpid()


#: Forked workers inherit this, so it names the process that forked them.
_PARENT_PID = os.getpid()


def _crash_in_worker(seconds, attempt):
    if os.getpid() == _PARENT_PID:
        return "inline"
    time.sleep(seconds)
    os._exit(3)


def _alive(pid: int) -> bool:
    """True until the process is reaped (a zombie still counts)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_for(predicate, what, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


class TestInline:
    def test_runs_in_the_caller_and_retries_with_attempt_numbers(self):
        executor = WorkerExecutor(0, max_retries=2)
        with executor:
            assert executor.run(_pid) == os.getpid()
            assert executor.run(_flaky) == 1
        assert executor.retries == 1 and not executor.degraded

    def test_exhausted_retries_settle_as_failure(self):
        with WorkerExecutor(0, max_retries=1) as executor:
            [(pos, outcome)] = list(executor.map(_raise, [()]))
        assert pos == 0 and isinstance(outcome, TaskFailure)
        assert (outcome.kind, outcome.attempts) == ("error", 2)
        assert outcome.error == "ValueError: always fails (attempt 1)"
        assert isinstance(outcome.cause, ValueError)

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ConfigError):
            WorkerExecutor(-1)


class TestWorkers:
    def test_every_position_settles_on_a_worker(self):
        with WorkerExecutor(2) as executor:
            outcomes = dict(executor.map(_square, [(n,) for n in range(6)]))
            pid = executor.run(_pid)
        assert outcomes == {n: n * n for n in range(6)}
        assert pid != os.getpid()

    def test_run_raises_what_the_task_raised(self):
        with WorkerExecutor(1) as executor:
            with pytest.raises(ValueError, match="always fails"):
                executor.run(_raise)

    def test_deadline_kills_only_that_worker(self, tmp_path):
        hung, healthy = tmp_path / "hung.pid", tmp_path / "healthy.pid"
        with WorkerExecutor(2, deadline_s=1.0) as executor:
            outcomes = dict(executor.map(
                _sleep, [(60.0, str(hung)), (0.05, str(healthy)),
                         (0.05, str(healthy)), (0.05, str(healthy))]))
            hung_pid = int(hung.read_text())
            pids = {worker.pid for worker in executor._workers}
        failure = outcomes.pop(0)
        assert isinstance(failure, TaskFailure)
        assert (failure.kind, failure.attempts) == ("timeout", 1)
        assert executor.timeouts == 1 and executor.deaths == 0
        # The hung worker was killed and replaced; its sibling lived on.
        assert not _alive(hung_pid)
        assert len(pids) == 2 and hung_pid not in pids
        assert outcomes[1] in pids and set(outcomes.values()) <= pids

    def test_death_requeues_at_the_same_attempt(self, tmp_path):
        breaker = CircuitBreaker(k=3)
        with WorkerExecutor(1, breaker=breaker, max_retries=0) as executor:
            pid = executor.run(_die_once, str(tmp_path / "marker"))
        assert pid != os.getpid()
        assert executor.deaths == 1 and executor.retries == 0
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failures_in_window() == 1

    def test_a_task_that_lost_k_workers_runs_inline(self):
        # Crashes spread wider than the window never open the circuit;
        # the task's own loss count still ends the loop.
        breaker = CircuitBreaker(k=2, window_s=0.1)
        with WorkerExecutor(1, breaker=breaker) as executor:
            assert executor.run(_crash_in_worker, 0.2) == "inline"
        assert executor.deaths == 2 and executor.degraded
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_circuit_runs_inline_until_a_probe_succeeds(self,
                                                             tmp_path):
        clock = FakeClock()
        breaker = CircuitBreaker(k=1, cooldown_s=5.0, clock=clock)
        with WorkerExecutor(1, breaker=breaker) as executor:
            # The death opens the circuit; the requeued task runs here.
            assert executor.run(_die_once, str(tmp_path / "m")) \
                == os.getpid()
            assert breaker.state == CircuitBreaker.OPEN
            assert executor.degraded
            assert executor.run(_pid) == os.getpid()
            clock.t += 6.0
            assert executor.run(_pid) != os.getpid()   # the probe
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.probes == 1

    def test_pool_break_fault_counts_as_a_lost_worker(self):
        breaker = CircuitBreaker(k=3)
        with faults.injected("pool-break@0"):
            with WorkerExecutor(1, breaker=breaker) as executor:
                assert executor.run(_pid) != os.getpid()
        assert executor.deaths == 1
        assert breaker.failures_in_window() == 1

    def test_close_kills_every_worker(self):
        executor = WorkerExecutor(2)
        executor.start()
        pids = [worker.pid for worker in executor._workers]
        executor.close()
        assert len(pids) == 2 and not any(_alive(pid) for pid in pids)
        [(_, outcome)] = list(executor.map(_pid, [()]))
        assert isinstance(outcome, TaskFailure) and outcome.kind == "closed"


# ----------------------------------------------------------------------
# regressions: fake specs on real forked workers
# ----------------------------------------------------------------------


_QOS = {"preemptions": 0, "violations": 0, "escalations": 0, "aborted": 0,
        "worst_budget_ratio": 0.0, "calibration": {}}


def _spec(seed):
    return RunSpec.periodic("BS", "drain", periods=2, seed=seed)


def _fake_execute_timed(log: Path, seconds: float, hang_seed=None,
                        crash_seed=None):
    """``execute_timed`` stand-in: logs ``seed pid`` per execution,
    hangs on ``hang_seed``, and exits the worker once on ``crash_seed``
    (a marker file makes its retry succeed)."""
    marker = log.with_suffix(".crashed")

    def run(spec):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{spec.seed} {os.getpid()}\n")
        if spec.seed == hang_seed:
            time.sleep(3600)
        if spec.seed == crash_seed and not marker.exists():
            marker.touch()
            time.sleep(0.5)
            os._exit(3)
        time.sleep(seconds)
        return types.SimpleNamespace(qos=dict(_QOS)), seconds

    return run


def _executions(log: Path):
    """(seed, pid) of every logged execution."""
    return [tuple(int(x) for x in line.split())
            for line in log.read_text().splitlines()]


def _tick_until(daemon, predicate, what, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        daemon.tick()
        time.sleep(0.005)


def _state(daemon, job_id):
    job = daemon.table.jobs.get(job_id)
    return None if job is None else job.state


def _daemon(tmp_path, workers, heartbeat_s):
    return SchedulerDaemon(
        tmp_path / "svc", capacity=8, heartbeat_s=heartbeat_s, poll_s=0.0,
        workers=workers, cache=ResultCache(tmp_path / "cache",
                                           enabled=False))


class TestDaemonRegressions:
    def test_hung_spec_frees_its_worker(self, tmp_path, monkeypatch):
        log = tmp_path / "runs.log"
        monkeypatch.setattr("repro.service.daemon.execute_timed",
                            _fake_execute_timed(log, 1.2, hang_seed=1))
        daemon = _daemon(tmp_path, workers=2, heartbeat_s=2.0)
        client = ServiceClient(tmp_path / "svc")
        client.submit([_spec(1)], job_id="hung")
        try:
            _tick_until(daemon,
                        lambda: _state(daemon, "hung") is JobState.FAILED,
                        "the hung job to fail")
            [(_, pid)] = _executions(log)
            _wait_for(lambda: not _alive(pid),
                      "the hung worker to be killed", timeout_s=2.0)
            client.submit([_spec(2)], job_id="a")
            client.submit([_spec(3)], job_id="b")
            _tick_until(daemon,
                        lambda: all(_state(daemon, j) in (
                            JobState.COMPLETED, JobState.FAILED)
                            for j in ("a", "b")),
                        "both healthy jobs to settle")
            assert _state(daemon, "a") is JobState.COMPLETED
            assert _state(daemon, "b") is JobState.COMPLETED
        finally:
            daemon.shutdown()

    def test_one_worker_death_costs_only_its_spec(self, tmp_path,
                                                   monkeypatch):
        log = tmp_path / "runs.log"
        monkeypatch.setattr("repro.service.daemon.execute_timed",
                            _fake_execute_timed(log, 1.5, crash_seed=11))
        daemon = _daemon(tmp_path, workers=3, heartbeat_s=30.0)
        client = ServiceClient(tmp_path / "svc")
        for seed in (11, 12, 13):
            client.submit([_spec(seed)], job_id=f"j{seed}")
        try:
            _tick_until(daemon,
                        lambda: all(_state(daemon, f"j{s}")
                                    is JobState.COMPLETED
                                    for s in (11, 12, 13)),
                        "every job to complete")
            assert daemon.breaker.state == CircuitBreaker.CLOSED
            assert daemon.breaker.failures_in_window() == 1
            assert daemon._effective_workers() == 3
        finally:
            daemon.shutdown()
        runs = _executions(log)
        assert sorted(seed for seed, _ in runs) == [11, 11, 12, 13]
        pids = {seed: pid for seed, pid in runs if seed != 11}
        crashed = {pid for seed, pid in runs if seed == 11}
        assert len({pids[12], pids[13]} | crashed) == 4


class TestSweepRegression:
    def test_timeout_kills_only_the_hung_spec(self, tmp_path, monkeypatch):
        # Spec 0 hangs; spec 1 runs 0-0.9 s on the other worker and spec
        # 2 runs 0.9-1.8 s after it, so it is in flight when spec 0's
        # worker is killed at 1.5 s.
        log = tmp_path / "runs.log"
        monkeypatch.setattr("repro.harness.sweep.execute_timed",
                            _fake_execute_timed(log, 0.9))
        runner = SweepRunner(jobs=2, cache=ResultCache(tmp_path / "cache"),
                             timeout=1.5, max_retries=0, strict=False)
        with faults.injected("hang@0:inf"):
            results = runner.run([_spec(1), _spec(2), _spec(3)])
        assert isinstance(results[0], SpecFailure)
        assert results[0].kind == "timeout"
        assert not any(isinstance(r, SpecFailure) for r in results[1:])
        assert sorted(seed for seed, _ in _executions(log)) == [2, 3]
        assert runner.last_stats.timeouts == 1
        assert runner.last_stats.executed == 2
