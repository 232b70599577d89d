"""Fault-injection tests: every recovery path of the resilient sweep
runner, exercised deterministically via :mod:`repro.harness.faults`.

Acceptance paths covered here:

* a spec that fails on its first attempt succeeds on retry;
* a hung spec is timed out and reported as ``SpecFailure`` without
  aborting the sweep;
* a crashed worker costs only its own spec, requeued at the same
  attempt; repeated crashes open the circuit breaker, the sweep
  finishes inline, and a half-open probe later restores the workers;
* after a sweep where spec k of n fails permanently, the other n-1
  results are in the on-disk cache and a re-run executes only spec k;
* parallel results stay bit-identical to serial under retries and
  worker crashes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError, SweepError
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.executor import CircuitBreaker
from repro.harness.sweep import (
    RunSpec,
    SpecFailure,
    SweepRunner,
    default_max_retries,
    default_retry_backoff,
    default_spec_timeout,
    default_strict,
    format_failures,
)

LABELS = ("BS", "HS", "KM")  # three fast benchmarks
PERIODS = 2
SEED = 21


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """Never leak an installed fault plan into another test."""
    faults.clear()
    yield
    faults.clear()


def _specs():
    return [RunSpec.periodic(label, "drain", periods=PERIODS, seed=SEED)
            for label in LABELS]


def _runner(tmp_path, subdir="cache", **kwargs):
    kwargs.setdefault("retry_backoff", 0.0)
    return SweepRunner(cache=ResultCache(tmp_path / subdir), **kwargs)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Clean serial reference results for the three specs."""
    tmp = tmp_path_factory.mktemp("ref")
    return SweepRunner(jobs=1, cache=ResultCache(tmp / "c")).run(
        [RunSpec.periodic(label, "drain", periods=PERIODS, seed=SEED)
         for label in LABELS])


def _assert_identical(results, reference):
    assert len(results) == len(reference)
    for got, want in zip(results, reference):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


class TestPlanParsing:
    def test_kinds_indices_attempts(self):
        plan = faults.parse_plan("fail@1, crash@0:inf ,hang@*:3,corrupt@2")
        kinds = [(f.kind, f.index, f.attempts) for f in plan.faults]
        assert kinds == [("fail", 1, 1.0), ("crash", 0, float("inf")),
                         ("hang", None, 3.0), ("corrupt", 2, 1.0)]

    def test_fires_respects_attempt_budget(self):
        plan = faults.parse_plan("fail@1:2")
        assert plan.fires("fail", 1, 0)
        assert plan.fires("fail", 1, 1)
        assert not plan.fires("fail", 1, 2)
        assert not plan.fires("fail", 0, 0)

    @pytest.mark.parametrize("bad", [
        "explode@1", "fail", "fail@x", "fail@-1", "fail@1:zero", "fail@1:0",
    ])
    def test_bad_directives_rejected(self, bad):
        with pytest.raises(ConfigError):
            faults.parse_plan(bad)

    def test_parse_error_chains_cause(self):
        with pytest.raises(ConfigError) as excinfo:
            faults.parse_plan("fail@notanint")
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_env_plan_used_when_nothing_installed(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_FAULTS", "fail@3")
        plan = faults.active_plan()
        assert plan is not None and plan.fires("fail", 3, 0)

    def test_installed_plan_overrides_env(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_FAULTS", "fail@3")
        with faults.injected("hang@1"):
            plan = faults.active_plan()
            assert plan.fires("hang", 1, 0) and not plan.fires("fail", 3, 0)
        assert faults.active_plan().fires("fail", 3, 0)

    def test_sim_kinds_get_default_factors(self):
        plan = faults.parse_plan("stall-drain@0,corrupt-estimate@*")
        kinds = [(f.kind, f.index, f.attempts) for f in plan.faults]
        assert kinds == [("stall-drain", 0, 8.0),
                         ("corrupt-estimate", None, 0.25)]

    def test_sim_kinds_accept_explicit_factors(self):
        plan = faults.parse_plan("stall-drain@2:3.5, corrupt-estimate@1:0.5")
        kinds = [(f.kind, f.index, f.attempts) for f in plan.faults]
        assert kinds == [("stall-drain", 2, 3.5),
                         ("corrupt-estimate", 1, 0.5)]

    @pytest.mark.parametrize("bad", [
        "stall-drain@0:0", "stall-drain@0:-2", "stall-drain@0:inf",
        "corrupt-estimate@0:nan", "corrupt-estimate@0:fast",
    ])
    def test_sim_factors_must_be_positive_finite(self, bad):
        with pytest.raises(ConfigError):
            faults.parse_plan(bad)

    def test_sim_factor_helpers(self):
        with faults.injected("stall-drain@0:4,corrupt-estimate@*:0.5"):
            assert faults.drain_stall_factor(0) == 4.0
            assert faults.drain_stall_factor(1) is None
            assert faults.estimate_skew(3) == 0.5
        assert faults.drain_stall_factor(0) is None
        assert faults.estimate_skew(3) is None


class TestDaemonFaultDirectives:
    """The four scheduling-daemon kinds ride the same grammar."""

    def test_daemon_kinds_parse(self):
        plan = faults.parse_plan(
            "crash-before-commit@4, crash-after-commit@0,"
            "torn-journal@7,hang-worker@1")
        kinds = [(f.kind, f.index, f.attempts) for f in plan.faults]
        assert kinds == [("crash-before-commit", 4, 1.0),
                         ("crash-after-commit", 0, 1.0),
                         ("torn-journal", 7, 1.0),
                         ("hang-worker", 1, 1.0)]

    @pytest.mark.parametrize("bad", [
        "crash-after-commit", "torn-journal@x", "hang-worker@-1",
        "crash-before-commit@1:zero",
    ])
    def test_bad_daemon_directives_rejected(self, bad):
        with pytest.raises(ConfigError):
            faults.parse_plan(bad)

    def test_crash_point_raises_injected_crash(self):
        with faults.injected("crash-after-commit@5"):
            faults.service_crash_point("crash-after-commit", 4)  # no fire
            faults.service_crash_point("crash-before-commit", 5)  # wrong kind
            with pytest.raises(faults.InjectedCrash) as excinfo:
                faults.service_crash_point("crash-after-commit", 5)
        assert excinfo.value.kind == "crash-after-commit"
        assert excinfo.value.seq == 5
        # a BaseException: no `except Exception` can swallow it
        assert not isinstance(excinfo.value, Exception)
        # cleared plan -> crash points never fire
        faults.service_crash_point("crash-after-commit", 5)

    def test_torn_journal_and_hang_worker_fire_helpers(self):
        with faults.injected("torn-journal@2,hang-worker@0"):
            assert faults.torn_journal_fires(2)
            assert not faults.torn_journal_fires(1)
            assert faults.worker_hang_fires(0)
            assert not faults.worker_hang_fires(3)
        assert not faults.torn_journal_fires(2)
        assert not faults.worker_hang_fires(0)

    def test_wildcard_targets_every_boundary(self):
        with faults.injected("torn-journal@*"):
            assert all(faults.torn_journal_fires(seq) for seq in range(5))

    def test_env_driven_daemon_faults(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_FAULTS", "crash-before-commit@2")
        with pytest.raises(faults.InjectedCrash):
            faults.service_crash_point("crash-before-commit", 2)


class TestRetry:
    def test_flaky_spec_succeeds_on_retry_serial(self, tmp_path, reference):
        with faults.injected("fail@1"):
            runner = _runner(tmp_path, jobs=1, max_retries=1)
            results = runner.run(_specs())
        assert runner.last_stats.retries == 1
        assert runner.last_stats.failed == 0
        assert runner.last_stats.executed == 3
        _assert_identical(results, reference)

    def test_flaky_specs_succeed_on_retry_parallel(self, tmp_path, reference):
        with faults.injected("fail@0,fail@2"):
            runner = _runner(tmp_path, jobs=2, max_retries=1)
            results = runner.run(_specs())
        assert runner.last_stats.retries == 2
        assert runner.last_stats.failed == 0
        _assert_identical(results, reference)

    def test_env_driven_flakiness(self, tmp_path, monkeypatch, reference):
        monkeypatch.setenv("CHIMERA_FAULTS", "fail@1")
        runner = _runner(tmp_path, jobs=1, max_retries=1)
        results = runner.run(_specs())
        assert runner.last_stats.retries == 1
        _assert_identical(results, reference)


class TestPermanentFailure:
    def test_keep_going_returns_partial_results(self, tmp_path, reference):
        with faults.injected("fail@1:inf"):
            runner = _runner(tmp_path, jobs=1, max_retries=1, strict=False)
            results = runner.run(_specs())
        failure = results[1]
        assert isinstance(failure, SpecFailure)
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert "FaultInjected" in failure.error
        assert runner.last_stats.failed == 1
        _assert_identical([results[0], results[2]],
                          [reference[0], reference[2]])
        assert "HS" in format_failures([failure])

    def test_siblings_cached_and_only_failed_spec_reruns(self, tmp_path,
                                                         reference):
        with faults.injected("fail@1:inf"):
            _runner(tmp_path, jobs=1, max_retries=0, strict=False)\
                .run(_specs())
        # n-1 sibling results are on disk; a clean re-run executes only
        # the spec that failed.
        fresh = _runner(tmp_path, jobs=1)
        results = fresh.run(_specs())
        assert fresh.last_stats.cache_hits == 2
        assert fresh.last_stats.executed == 1
        _assert_identical(results, reference)

    def test_strict_raises_after_completing_batch(self, tmp_path, reference):
        with faults.injected("fail@1:inf"):
            runner = _runner(tmp_path, jobs=1, max_retries=0, strict=True)
            with pytest.raises(SweepError) as excinfo:
                runner.run(_specs())
        assert len(excinfo.value.failures) == 1
        assert "failed permanently" in str(excinfo.value)
        # strict still persisted every completed sibling before raising
        fresh = _runner(tmp_path, jobs=1)
        fresh.run(_specs())
        assert fresh.last_stats.cache_hits == 2
        assert fresh.last_stats.executed == 1

    def test_run_strict_override_beats_runner_default(self, tmp_path):
        with faults.injected("fail@0:inf"):
            runner = _runner(tmp_path, jobs=1, max_retries=0, strict=True)
            results = runner.run(_specs()[:1], strict=False)
        assert isinstance(results[0], SpecFailure)


class TestTimeout:
    def test_hung_spec_times_out_without_aborting_sweep(self, tmp_path,
                                                        reference):
        with faults.injected("hang@0:inf"):
            runner = _runner(tmp_path, jobs=2, timeout=1.0, max_retries=0,
                             strict=False)
            results = runner.run(_specs())
        failure = results[0]
        assert isinstance(failure, SpecFailure)
        assert failure.kind == "timeout"
        assert runner.last_stats.timeouts == 1
        assert runner.last_stats.failed == 1
        # the siblings ran on their own workers, untouched by the kill
        _assert_identical(results[1:], reference[1:])

    def test_hang_then_succeed_is_retried(self, tmp_path, reference):
        # hang@2 fires on attempt 0 only: the retry after the timeout
        # kill completes normally.
        with faults.injected("hang@2"):
            runner = _runner(tmp_path, jobs=2, timeout=1.5, max_retries=1,
                             strict=False)
            results = runner.run(_specs())
        assert runner.last_stats.timeouts == 1
        assert runner.last_stats.retries == 1
        assert runner.last_stats.failed == 0
        _assert_identical(results, reference)

    def test_single_spec_batch_still_enforces_timeout(self, tmp_path):
        # Regression: a one-spec batch used to take the serial shortcut
        # even with jobs>1, silently disabling the timeout for e.g. the
        # CLI's single-spec `periodic` command. With a timeout set it
        # must go to a worker so a hung spec can be killed.
        with faults.injected("hang@0:inf"):
            runner = _runner(tmp_path, jobs=2, timeout=1.0, max_retries=0,
                             strict=False)
            results = runner.run(_specs()[:1])
        assert isinstance(results[0], SpecFailure)
        assert results[0].kind == "timeout"
        assert runner.last_stats.timeouts == 1


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestBrokenPool:
    def test_crash_degrades_to_serial_and_completes(self, tmp_path,
                                                    reference):
        # crash@0:inf kills spec 0's worker on every worker attempt.
        # Each death requeues it at the same attempt (no retry spent);
        # the second opens the K=2 breaker, spec 0 then runs inline,
        # where crash faults are inert, and every result still comes
        # back bit-identical to the clean serial reference.
        with faults.injected("crash@0:inf"):
            runner = _runner(tmp_path, jobs=2, max_retries=1,
                             breaker=CircuitBreaker(k=2))
            results = runner.run(_specs())
        assert runner.last_stats.worker_deaths == 2
        assert runner.last_stats.retries == 0
        assert runner.last_stats.degraded
        assert runner.last_stats.failed == 0
        _assert_identical(results, reference)

    def test_degraded_runner_stays_serial(self, tmp_path):
        # While the circuit is open, later batches on the same runner
        # run inline too; once the cooldown passes, a half-open probe on
        # a worker closes it again.
        clock = FakeClock()
        breaker = CircuitBreaker(k=1, cooldown_s=5.0, clock=clock)
        with faults.injected("crash@0:inf"):
            runner = _runner(tmp_path, jobs=2, max_retries=1,
                             breaker=breaker)
            runner.run(_specs())
            assert runner.last_stats.degraded
            assert breaker.state == CircuitBreaker.OPEN
            more = [RunSpec.periodic("BS", "drain", periods=PERIODS, seed=s)
                    for s in (98, 99)]
            results = runner.run(more)
        assert runner.last_stats.degraded
        assert runner.last_stats.worker_deaths == 0
        assert not any(isinstance(r, SpecFailure) for r in results)
        # Past the cooldown one spec probes a worker (its sibling still
        # runs inline while the probe is out); the probe closes the
        # circuit, and the next batch runs on workers throughout.
        clock.t += 6.0
        for label in ("HS", "KM"):
            later = [RunSpec.periodic(label, "drain", periods=PERIODS,
                                      seed=s) for s in (98, 99)]
            results = runner.run(later)
            assert not any(isinstance(r, SpecFailure) for r in results)
            assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.probes == 1
        assert not runner.last_stats.degraded


class TestCorruptionFault:
    def test_corrupt_put_recovers_on_next_read(self, tmp_path, caplog,
                                               reference):
        spec = _specs()[0]
        with faults.injected("corrupt@0"):
            _runner(tmp_path, jobs=1).run([spec])
        path = ResultCache(tmp_path / "cache").path_for(spec.cache_key())
        assert path.read_bytes() == faults.CORRUPT_PAYLOAD
        with caplog.at_level("WARNING", logger="repro.harness.cache"):
            fresh = _runner(tmp_path, jobs=1)
            results = fresh.run([spec])
        assert fresh.last_stats.executed == 1  # recomputed, not replayed
        _assert_identical(results, reference[:1])
        discards = [r for r in caplog.records
                    if "discarding unreadable cache entry" in r.message]
        assert len(discards) == 1
        assert spec.cache_key() in discards[0].getMessage()


class TestKnobValidation:
    def test_spec_timeout_env(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_SPEC_TIMEOUT", "2.5")
        assert default_spec_timeout() == 2.5
        monkeypatch.setenv("CHIMERA_SPEC_TIMEOUT", "0")
        assert default_spec_timeout() is None
        monkeypatch.setenv("CHIMERA_SPEC_TIMEOUT", "soon")
        with pytest.raises(ConfigError) as excinfo:
            default_spec_timeout()
        assert isinstance(excinfo.value.__cause__, ValueError)
        monkeypatch.setenv("CHIMERA_SPEC_TIMEOUT", "-1")
        with pytest.raises(ConfigError):
            default_spec_timeout()

    def test_max_retries_env(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_MAX_RETRIES", "3")
        assert default_max_retries() == 3
        monkeypatch.setenv("CHIMERA_MAX_RETRIES", "many")
        with pytest.raises(ConfigError) as excinfo:
            default_max_retries()
        assert isinstance(excinfo.value.__cause__, ValueError)
        monkeypatch.setenv("CHIMERA_MAX_RETRIES", "-1")
        with pytest.raises(ConfigError):
            default_max_retries()

    def test_retry_backoff_env(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_RETRY_BACKOFF", "0.25")
        assert default_retry_backoff() == 0.25
        monkeypatch.setenv("CHIMERA_RETRY_BACKOFF", "slow")
        with pytest.raises(ConfigError) as excinfo:
            default_retry_backoff()
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_keep_going_env_flips_strict_default(self, monkeypatch):
        assert default_strict() is True
        monkeypatch.setenv("CHIMERA_KEEP_GOING", "1")
        assert default_strict() is False
        runner = SweepRunner(jobs=1, cache=ResultCache("unused",
                                                       enabled=False))
        assert runner.strict is False

    def test_hang_seconds_env(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_FAULT_HANG_S", "12")
        assert faults.hang_seconds() == 12.0
        monkeypatch.setenv("CHIMERA_FAULT_HANG_S", "forever")
        with pytest.raises(ConfigError) as excinfo:
            faults.hang_seconds()
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestCLI:
    def test_periodic_keep_going_reports_failure_nonzero(self, capsys,
                                                         monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("CHIMERA_FAULTS", "fail@0:inf")
        monkeypatch.setenv("CHIMERA_RETRY_BACKOFF", "0")
        code = main(["periodic", "--bench", "BS", "--periods", "2",
                     "--seed", "1", "--no-cache", "--max-retries", "0",
                     "--keep-going"])
        out = capsys.readouterr().out
        assert code == 1
        assert "failed permanently" in out
        assert "periodic[BS]" in out

    def test_periodic_strict_reports_failure_nonzero(self, capsys,
                                                     monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("CHIMERA_FAULTS", "fail@0:inf")
        monkeypatch.setenv("CHIMERA_RETRY_BACKOFF", "0")
        code = main(["periodic", "--bench", "BS", "--periods", "2",
                     "--seed", "1", "--no-cache", "--max-retries", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "failed permanently" in out

    def test_periodic_retry_still_succeeds(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("CHIMERA_FAULTS", "fail@0")
        monkeypatch.setenv("CHIMERA_RETRY_BACKOFF", "0")
        code = main(["periodic", "--bench", "BS", "--periods", "2",
                     "--seed", "1", "--no-cache", "--max-retries", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "violations" in out

    def test_pair_keep_going_reports_failure_nonzero(self, capsys,
                                                     monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("CHIMERA_FAULTS", "fail@0:inf")
        monkeypatch.setenv("CHIMERA_RETRY_BACKOFF", "0")
        monkeypatch.setenv("CHIMERA_JOBS", "1")
        code = main(["pair", "--benchmarks", "LUD", "BS",
                     "--policies", "chimera", "--budget", "1e6",
                     "--seed", "1", "--no-cache", "--max-retries", "0",
                     "--keep-going"])
        out = capsys.readouterr().out
        assert code == 1
        assert "failed permanently" in out
