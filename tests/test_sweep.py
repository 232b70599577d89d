"""Tests for the sweep-execution layer: RunSpec hashing, the parallel
runner's serial-equivalence guarantee, and the on-disk result cache."""

from __future__ import annotations

import dataclasses
import errno
import logging
import pickle
import types

import pytest

from repro.gpu.config import GPUConfig
from repro.harness import faults
from repro.harness.cache import CacheEntry, ResultCache
from repro.harness.executor import CircuitBreaker
from repro.harness.experiments import figure6_7
from repro.harness.runner import run_periodic
from repro.harness.sweep import RunSpec, SweepRunner, default_jobs
from repro.sched.kernel_scheduler import SchedulerMode
from repro.workloads.multiprogram import MultiprogramWorkload

LABELS = ("BS", "HS", "KM")  # three fast benchmarks
PERIODS = 2


def _runner(tmp_path, jobs=1, subdir="cache", enabled=True):
    return SweepRunner(jobs=jobs,
                       cache=ResultCache(tmp_path / subdir, enabled=enabled))


class TestRunSpec:
    def test_roundtrips_through_pickle(self):
        spec = RunSpec.pair(MultiprogramWorkload(("LUD", "BS"), 2e6),
                            "chimera", seed=7)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_hash_is_stable_across_instances(self):
        a = RunSpec.periodic("BS", "chimera", periods=3, seed=9)
        b = RunSpec.periodic("BS", "chimera", periods=3, seed=9)
        assert a.cache_key() == b.cache_key()

    def test_hash_covers_every_scenario_knob(self):
        base = RunSpec.periodic("BS", "chimera", periods=3, seed=9)
        variants = [
            RunSpec.periodic("HS", "chimera", periods=3, seed=9),
            RunSpec.periodic("BS", "drain", periods=3, seed=9),
            RunSpec.periodic("BS", "chimera", periods=4, seed=9),
            RunSpec.periodic("BS", "chimera", periods=3, seed=10),
            RunSpec.periodic("BS", "chimera", constraint_us=5.0,
                             periods=3, seed=9),
            RunSpec.periodic("BS", "chimera", periods=3, seed=9,
                             config=GPUConfig(num_sms=8)),
            RunSpec.periodic("BS", "chimera", periods=3, seed=9,
                             target_kernel_us=500.0),
            RunSpec.periodic("BS", "chimera", periods=3, seed=9,
                             config=GPUConfig(drain_stall=8.0)),
            RunSpec.periodic("BS", "chimera", periods=3, seed=9,
                             config=GPUConfig(estimate_skew=0.5)),
        ]
        keys = {spec.cache_key() for spec in variants}
        assert base.cache_key() not in keys
        assert len(keys) == len(variants)

    def test_default_config_normalizes(self):
        implicit = RunSpec.solo("BS", 1e6)
        explicit = RunSpec.solo("BS", 1e6, config=GPUConfig())
        assert implicit.cache_key() == explicit.cache_key()

    def test_execute_matches_direct_runner_call(self):
        spec = RunSpec.periodic("BS", "chimera", periods=PERIODS, seed=3)
        direct = run_periodic("BS", "chimera", periods=PERIODS, seed=3)
        assert spec.execute() == direct

    def test_unknown_kind_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            RunSpec(kind="nope").execute()


class TestParallelEqualsSerial:
    def test_fig67_parallel_matches_serial_field_for_field(self, tmp_path):
        """The hard requirement: a CHIMERA_JOBS=4 sweep is bit-identical
        to the serial sweep for the same seeds."""
        kwargs = dict(labels=LABELS, periods=PERIODS, seed=11)
        serial = figure6_7(runner=_runner(tmp_path, jobs=1, subdir="s"),
                           **kwargs)
        parallel = figure6_7(runner=_runner(tmp_path, jobs=4, subdir="p"),
                             **kwargs)
        assert set(serial.results) == set(parallel.results)
        for label in serial.results:
            for policy, s in serial.results[label].items():
                p = parallel.results[label][policy]
                assert dataclasses.asdict(s) == dataclasses.asdict(p), \
                    (label, policy)

    def test_fault_injected_parallel_matches_clean_serial(self, tmp_path):
        """Bit-identity survives the failure machinery: a parallel sweep
        where every spec flakes once (forcing a retry of each) and one
        spec crashes its worker (opening the circuit breaker, so the
        rest run inline) still equals the clean serial sweep."""
        kwargs = dict(labels=LABELS, policies=("drain", "flush"),
                      periods=PERIODS, seed=11)
        serial = figure6_7(runner=_runner(tmp_path, jobs=1, subdir="s"),
                           **kwargs)
        runner = SweepRunner(jobs=4, cache=ResultCache(tmp_path / "p"),
                             max_retries=2, retry_backoff=0.0,
                             breaker=CircuitBreaker(k=1))
        try:
            with faults.injected("fail@*,crash@2:inf"):
                parallel = figure6_7(runner=runner, **kwargs)
        finally:
            faults.clear()
        stats = runner.last_stats
        assert stats.retries >= 1 and stats.failed == 0
        assert stats.worker_deaths >= 1 and stats.degraded
        assert set(serial.results) == set(parallel.results)
        for label in serial.results:
            for policy, s in serial.results[label].items():
                p = parallel.results[label][policy]
                assert dataclasses.asdict(s) == dataclasses.asdict(p), \
                    (label, policy)

    def test_results_come_back_in_submission_order(self, tmp_path):
        specs = [RunSpec.periodic(label, "drain", periods=PERIODS, seed=2)
                 for label in LABELS]
        results = _runner(tmp_path, jobs=2).run(specs)
        assert [r.label for r in results] == list(LABELS)

    def test_duplicate_specs_execute_once(self, tmp_path):
        runner = _runner(tmp_path, jobs=1)
        spec = RunSpec.periodic("BS", "drain", periods=PERIODS, seed=2)
        a, b = runner.run([spec, spec])
        assert a is b
        assert runner.last_stats.executed == 1


class TestResultCache:
    def test_hit_returns_identical_result_object(self, tmp_path):
        runner = _runner(tmp_path)
        spec = RunSpec.periodic("BS", "chimera", periods=PERIODS, seed=4)
        first = runner.run([spec])[0]
        again = runner.run([spec])[0]
        assert again is first
        assert runner.last_stats.cache_hits == 1
        assert runner.last_stats.executed == 0

    def test_disk_hit_across_runners_equals_fresh_run(self, tmp_path):
        spec = RunSpec.periodic("BS", "chimera", periods=PERIODS, seed=4)
        first = _runner(tmp_path).run([spec])[0]
        replayed = _runner(tmp_path).run([spec])[0]  # fresh memo, same disk
        assert dataclasses.asdict(replayed) == dataclasses.asdict(first)

    def test_changed_seed_constraint_or_config_misses(self, tmp_path):
        runner = _runner(tmp_path)
        runner.run([RunSpec.periodic("BS", "chimera", periods=PERIODS,
                                     seed=4)])
        for variant in (
            RunSpec.periodic("BS", "chimera", periods=PERIODS, seed=5),
            RunSpec.periodic("BS", "chimera", constraint_us=10.0,
                             periods=PERIODS, seed=4),
            RunSpec.periodic("BS", "chimera", periods=PERIODS, seed=4,
                             config=GPUConfig(num_sms=8)),
        ):
            runner.run([variant])
            assert runner.last_stats.cache_hits == 0
            assert runner.last_stats.executed == 1

    def test_corrupted_entry_discarded_not_crashed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec.periodic("BS", "chimera", periods=PERIODS, seed=4)
        runner = SweepRunner(jobs=1, cache=cache)
        first = runner.run([spec])[0]
        path = cache.path_for(spec.cache_key())
        assert path.is_file()
        path.write_bytes(b"not a pickle")
        fresh = SweepRunner(jobs=1, cache=cache)
        recomputed = fresh.run([spec])[0]
        assert dataclasses.asdict(recomputed) == dataclasses.asdict(first)
        assert fresh.last_stats.executed == 1  # it really recomputed

    def test_wrong_key_payload_discarded(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec.periodic("BS", "chimera", periods=PERIODS, seed=4)
        path = cache.path_for(spec.cache_key())
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(CacheEntry("other-key", 42, 0.0)))
        assert cache.get(spec.cache_key()) is None
        assert not path.exists()

    def test_perturbed_machine_keeps_its_own_entry(self, tmp_path):
        """A drain-stalled spec and its clean twin are two specs: the
        stalled run neither poisons the clean entry nor is served it."""
        clean = RunSpec.periodic("BS", "drain", periods=2, seed=3)
        stalled = RunSpec.periodic("BS", "drain", periods=2, seed=3,
                                   config=GPUConfig(drain_stall=8.0))
        assert stalled.cache_key() != clean.cache_key()
        fresh = {spec: dataclasses.asdict(spec.execute())
                 for spec in (clean, stalled)}
        assert fresh[stalled] != fresh[clean]
        SweepRunner(jobs=1, cache=ResultCache(tmp_path / "c")).run(
            [stalled, clean])
        for spec in (clean, stalled):
            warm = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "c"))
            assert dataclasses.asdict(warm.run([spec])[0]) == fresh[spec]
            assert warm.last_stats.executed == 0

    def test_results_persist_as_each_future_completes(self, tmp_path):
        """Regression: one failing spec must not discard completed
        siblings. Results are cached as each future completes, so after
        a sweep where one spec fails permanently the other results are
        on disk and only the failed spec re-executes."""
        from repro.errors import SweepError

        cache = ResultCache(tmp_path / "cache")
        specs = [RunSpec.periodic(label, "drain", periods=PERIODS, seed=2)
                 for label in LABELS]
        runner = SweepRunner(jobs=1, cache=cache, max_retries=0,
                             retry_backoff=0.0)
        try:
            with faults.injected("fail@1:inf"):
                with pytest.raises(SweepError):
                    runner.run(specs)
        finally:
            faults.clear()
        # the two siblings were persisted before the batch raised
        on_disk = [spec for spec in specs
                   if cache.get(spec.cache_key()) is not None]
        assert [s.label for s in on_disk] == ["BS", "KM"]
        fresh = SweepRunner(jobs=1, cache=cache)
        fresh.run(specs)
        assert fresh.last_stats.cache_hits == 2
        assert fresh.last_stats.executed == 1  # only the failed spec

    def test_disabled_cache_never_writes(self, tmp_path):
        runner = _runner(tmp_path, enabled=False)
        runner.run([RunSpec.periodic("BS", "drain", periods=PERIODS,
                                     seed=4)])
        assert not (tmp_path / "cache").exists()

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(jobs=1, cache=cache).run(
            [RunSpec.periodic("BS", "drain", periods=PERIODS, seed=4)])
        assert cache.clear() == 1
        assert cache.get(RunSpec.periodic(
            "BS", "drain", periods=PERIODS, seed=4).cache_key()) is None


class TestKnobs:
    def test_default_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_JOBS", "7")
        assert default_jobs() == 7

    def test_default_jobs_rejects_garbage(self, monkeypatch):
        from repro.errors import ConfigError
        monkeypatch.setenv("CHIMERA_JOBS", "zero")
        with pytest.raises(ConfigError) as excinfo:
            default_jobs()
        # the original ValueError is chained for debuggability
        assert isinstance(excinfo.value.__cause__, ValueError)
        monkeypatch.setenv("CHIMERA_JOBS", "0")
        with pytest.raises(ConfigError):
            default_jobs()

    def test_no_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_NO_CACHE", "1")
        assert ResultCache.from_env().enabled is False

    def test_pair_spec_executes_fcfs_baseline(self, tmp_path):
        workload = MultiprogramWorkload(("LUD", "BS"), budget_insts=2e6)
        spec = RunSpec.pair(workload, None, mode=SchedulerMode.FCFS, seed=3)
        result = _runner(tmp_path).run([spec])[0]
        assert result.policy == "fcfs"
        assert set(result.metric_time_cycles) == {"LUD", "BS"}


class TestTraceKnobs:
    def test_trace_dir_default_is_off(self, monkeypatch):
        from repro.harness.sweep import default_trace_dir
        monkeypatch.delenv("CHIMERA_TRACE", raising=False)
        assert default_trace_dir() is None

    def test_trace_capacity_default_and_override(self, monkeypatch):
        from repro.harness.sweep import default_trace_capacity
        monkeypatch.delenv("CHIMERA_TRACE_CAPACITY", raising=False)
        assert default_trace_capacity() == 500_000
        monkeypatch.setenv("CHIMERA_TRACE_CAPACITY", "1234")
        assert default_trace_capacity() == 1234

    def test_trace_capacity_rejects_garbage(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.harness.sweep import default_trace_capacity
        monkeypatch.setenv("CHIMERA_TRACE_CAPACITY", "many")
        with pytest.raises(ConfigError):
            default_trace_capacity()
        monkeypatch.setenv("CHIMERA_TRACE_CAPACITY", "0")
        with pytest.raises(ConfigError):
            default_trace_capacity()

    def test_trace_path_is_filesystem_safe_and_distinct(self, tmp_path):
        from repro.harness.sweep import trace_path_for
        workload = MultiprogramWorkload(("LUD", "BS"), budget_insts=2e6)
        a = trace_path_for(RunSpec.pair(workload, "chimera", seed=1),
                           str(tmp_path))
        b = trace_path_for(RunSpec.pair(workload, "chimera", seed=2),
                           str(tmp_path))
        for path in (a, b):
            name = path.split("/")[-1]
            assert name.endswith(".jsonl")
            assert "[" not in name and " " not in name
        assert a != b  # seed is part of the cache key -> distinct files

    def test_executed_spec_writes_trace_with_identity(self, tmp_path,
                                                      monkeypatch):
        from repro.sim.trace import load_jsonl
        trace_dir = tmp_path / "traces"
        monkeypatch.setenv("CHIMERA_TRACE", str(trace_dir))
        spec = RunSpec.periodic("BS", "chimera", periods=PERIODS, seed=5)
        _runner(tmp_path, enabled=False).run([spec])
        files = list(trace_dir.glob("*.jsonl"))
        assert len(files) == 1
        tracer = load_jsonl(files[0])
        assert tracer.meta["spec"] == spec.describe()
        assert tracer.meta["spec_key"] == spec.cache_key()
        assert tracer.meta["policy"] == "chimera"
        assert tracer.records

    def test_capacity_env_caps_capture(self, tmp_path, monkeypatch):
        from repro.sim.trace import load_jsonl
        trace_dir = tmp_path / "traces"
        monkeypatch.setenv("CHIMERA_TRACE", str(trace_dir))
        monkeypatch.setenv("CHIMERA_TRACE_CAPACITY", "10")
        spec = RunSpec.periodic("BS", "chimera", periods=PERIODS, seed=5)
        _runner(tmp_path, enabled=False).run([spec])
        tracer = load_jsonl(next(trace_dir.glob("*.jsonl")))
        assert len(tracer.records) == 10
        assert tracer.dropped > 0


class TestShardedCache:
    """Two-hex-prefix cache sharding."""

    def test_entries_land_in_shard_subdirectories(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec.periodic("BS", "chimera", periods=PERIODS, seed=4)
        SweepRunner(jobs=1, cache=cache).run([spec])
        key = spec.cache_key()
        path = cache.path_for(key)
        assert path.is_file()
        assert path.parent.name == key[:2]
        assert path.parent.parent == cache.directory

    def test_clear_removes_both_layouts(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("aa" * 32, {"x": 1}, 0.1)
        cache.put("bb" * 32, 2, 0.1)
        assert cache.clear() == 2
        assert cache.get("aa" * 32) is None
        assert cache.get("bb" * 32) is None


class TestReadOnlyCache:
    """A cache on a read-only mount degrades instead of failing."""

    KEY = "ab" * 32

    def test_put_becomes_logged_noop_once(self, tmp_path, monkeypatch,
                                          caplog):
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(
            "repro.harness.cache.tempfile",
            types.SimpleNamespace(mkstemp=_raise_permission))
        with caplog.at_level(logging.WARNING, logger="repro.harness.cache"):
            cache.put(self.KEY, {"x": 1}, 0.1)
            cache.put("cd" * 32, {"x": 2}, 0.2)
        notes = [r for r in caplog.records if "not writable" in r.message]
        assert len(notes) == 1
        assert cache._readonly
        assert cache.get(self.KEY) is None  # nothing was stored

    def test_other_write_errors_still_raise(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")

        def _no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(
            "repro.harness.cache.tempfile",
            types.SimpleNamespace(mkstemp=_no_space))
        with pytest.raises(OSError):
            cache.put(self.KEY, {"x": 1}, 0.1)
        assert not cache._readonly


def _raise_permission(*args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied")


class TestSweepScaling:
    """Detached worker groups."""

    def test_worker_group_env_parsing(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.harness.sweep import default_worker_group
        assert default_worker_group() is None
        monkeypatch.setenv("CHIMERA_WORKER_GROUP", "1/3")
        assert default_worker_group() == (1, 3)
        for bad in ("3/3", "x/2", "2", "-1/2"):
            monkeypatch.setenv("CHIMERA_WORKER_GROUP", bad)
            with pytest.raises(ConfigError):
                default_worker_group()

    def test_group_partition_is_total_and_deterministic(self):
        from repro.harness.sweep import group_of
        specs = [RunSpec.periodic(label, policy, periods=PERIODS, seed=s)
                 for label in LABELS for policy in ("drain", "chimera")
                 for s in (1, 2)]
        keys = [spec.cache_key() for spec in specs]
        groups = [group_of(key, 3) for key in keys]
        assert all(0 <= g < 3 for g in groups)
        assert groups == [group_of(key, 3) for key in keys]  # stable

    def test_two_worker_groups_cover_a_sweep_via_shared_cache(self,
                                                              tmp_path):
        """Two detached runner 'groups' sharing one cache directory:
        each executes only its share, and after both have run, either
        group resolves the full sweep from the shared cache."""
        specs = [RunSpec.periodic(label, policy, periods=PERIODS, seed=2)
                 for label in LABELS for policy in ("drain", "flush")]
        serial = SweepRunner(jobs=1,
                             cache=ResultCache(tmp_path / "ref")).run(specs)
        shared = tmp_path / "shared"
        # Group 0 runs first: its own share executes and is published;
        # group 1 has not run yet, so its keys time out (keep-going).
        first = SweepRunner(jobs=1, cache=ResultCache(shared),
                            worker_group=(0, 2), shard_wait=0.0,
                            strict=False)
        first.run(specs)
        assert 0 < first.last_stats.executed < len(specs)
        # Group 1 then executes only its share; group 0's published
        # results resolve straight from the shared cache (as upfront
        # hits — they are already on disk when the run starts).
        second = SweepRunner(jobs=1, cache=ResultCache(shared),
                             worker_group=(1, 2), shard_wait=30.0)
        results = second.run(specs)
        assert second.last_stats.cache_hits == first.last_stats.executed
        assert first.last_stats.executed + second.last_stats.executed \
            == len(specs)  # no spec ran twice
        for a, b in zip(serial, results):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_foreign_result_published_mid_wait_is_picked_up(self, tmp_path):
        """The cache-polling wait: a foreign group's result that lands
        while this runner is waiting resolves the sweep (counted as
        ``foreign``, not as an upfront hit)."""
        import threading

        specs = [RunSpec.periodic(label, "drain", periods=PERIODS, seed=s)
                 for label in LABELS for s in (1, 2)]
        from repro.harness.sweep import SpecFailure, group_of
        index = group_of(specs[0].cache_key(), 2)
        foreign_specs = [s for s in specs
                         if group_of(s.cache_key(), 2) != index]
        assert foreign_specs, "need at least one foreign spec"
        shared = ResultCache(tmp_path / "shared")

        def publish():
            # Simulates the detached foreign group finishing mid-wait.
            SweepRunner(jobs=1, cache=ResultCache(tmp_path / "shared"),
                        worker_group=(1 - index, 2), shard_wait=0.0,
                        strict=False).run(specs)

        timer = threading.Timer(0.5, publish)
        timer.start()
        try:
            runner = SweepRunner(jobs=1, cache=shared,
                                 worker_group=(index, 2), shard_wait=60.0)
            results = runner.run(specs)
        finally:
            timer.join()
        assert runner.last_stats.foreign >= len(foreign_specs)
        assert not any(isinstance(r, SpecFailure) for r in results)

    def test_missing_foreign_group_times_out_as_spec_failure(self,
                                                             tmp_path):
        from repro.errors import SweepError
        from repro.harness.sweep import SpecFailure, group_of
        specs = [RunSpec.periodic(label, "drain", periods=PERIODS, seed=s)
                 for label in LABELS for s in (1, 2)]
        # pick a group index owning at least one spec, and note a key
        # that belongs to the other group
        keys = [spec.cache_key() for spec in specs]
        index = group_of(keys[0], 2)
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "c"),
                             worker_group=(index, 2), shard_wait=0.0,
                             strict=False)
        results = runner.run(specs)
        failures = [r for r in results if isinstance(r, SpecFailure)]
        assert failures and all(f.kind == "timeout" for f in failures)
        assert all(f.attempts == 0 for f in failures)
        # strict mode raises for the same situation
        strict_runner = SweepRunner(jobs=1,
                                    cache=ResultCache(tmp_path / "c2"),
                                    worker_group=(index, 2),
                                    shard_wait=0.0, strict=True)
        with pytest.raises(SweepError):
            strict_runner.run(specs)

    def test_worker_group_requires_enabled_cache(self, tmp_path):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            SweepRunner(jobs=1,
                        cache=ResultCache(tmp_path / "c", enabled=False),
                        worker_group=(0, 2))

    def test_shard_wait_env_parsing(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.harness.sweep import default_shard_wait
        monkeypatch.delenv("CHIMERA_SHARD_WAIT", raising=False)
        assert default_shard_wait() == 600.0
        monkeypatch.setenv("CHIMERA_SHARD_WAIT", "2.5")
        assert default_shard_wait() == 2.5
        monkeypatch.setenv("CHIMERA_SHARD_WAIT", "0")
        assert default_shard_wait() == 0.0
        for bad in ("-1", "later"):
            monkeypatch.setenv("CHIMERA_SHARD_WAIT", bad)
            with pytest.raises(ConfigError):
                default_shard_wait()

    def test_env_shard_wait_timeout_yields_spec_failures(self, tmp_path,
                                                         monkeypatch):
        """The CHIMERA_SHARD_WAIT foreign-result path, env-driven end to
        end: group i of 2 with no foreign group running and a zero wait
        fails exactly the foreign specs, each as a timeout SpecFailure."""
        from repro.harness.sweep import SpecFailure, group_of
        specs = [RunSpec.periodic(label, "drain", periods=PERIODS, seed=s)
                 for label in LABELS for s in (1, 2)]
        index = group_of(specs[0].cache_key(), 2)
        foreign = [s for s in specs
                   if group_of(s.cache_key(), 2) != index]
        assert foreign, "partition must split the specs"
        monkeypatch.setenv("CHIMERA_WORKER_GROUP", f"{index}/2")
        monkeypatch.setenv("CHIMERA_SHARD_WAIT", "0")
        monkeypatch.setenv("CHIMERA_KEEP_GOING", "1")
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "c"))
        results = runner.run(specs)
        failures = [r for r in results if isinstance(r, SpecFailure)]
        assert len(failures) == len(foreign)
        assert all(f.kind == "timeout" and f.attempts == 0
                   for f in failures)
        failed_keys = {f.spec.cache_key() for f in failures}
        assert failed_keys == {s.cache_key() for s in foreign}

    def test_single_worker_group_owns_everything(self, tmp_path,
                                                 monkeypatch):
        """CHIMERA_WORKER_GROUP=0/1 is a valid degenerate split: one
        group, zero foreign specs, no waiting."""
        from repro.harness.sweep import default_worker_group
        monkeypatch.setenv("CHIMERA_WORKER_GROUP", "0/1")
        assert default_worker_group() == (0, 1)
        monkeypatch.setenv("CHIMERA_SHARD_WAIT", "0")
        specs = [RunSpec.periodic(label, "drain", periods=PERIODS, seed=2)
                 for label in LABELS]
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "c"))
        results = runner.run(specs)
        assert runner.last_stats.executed == len(specs)
        assert runner.last_stats.foreign == 0
        from repro.harness.sweep import SpecFailure
        assert not any(isinstance(r, SpecFailure) for r in results)

    def test_group_with_empty_partition(self, tmp_path):
        """A group that owns none of the batch executes nothing; every
        spec is foreign. With the other group's results published it
        resolves the sweep purely from cache; alone with a zero wait it
        reports per-spec timeouts."""
        from repro.harness.sweep import SpecFailure, group_of
        specs = [RunSpec.periodic(label, "drain", periods=PERIODS, seed=2)
                 for label in LABELS]
        total = 2
        owner = group_of(specs[0].cache_key(), total)
        mine = [s for s in specs if group_of(s.cache_key(), total) == owner]
        empty_index = 1 - owner
        assert all(group_of(s.cache_key(), total) == owner for s in mine)
        shared = tmp_path / "shared"
        # the empty group alone: nothing to execute, everything times out
        lonely = SweepRunner(jobs=1, cache=ResultCache(shared),
                             worker_group=(empty_index, total),
                             shard_wait=0.0, strict=False)
        results = lonely.run(mine)
        assert lonely.last_stats.executed == 0
        assert all(isinstance(r, SpecFailure) and r.kind == "timeout"
                   for r in results)
        # the owning group publishes; the empty group then resolves all
        SweepRunner(jobs=1, cache=ResultCache(shared),
                    worker_group=(owner, total), shard_wait=0.0).run(mine)
        again = SweepRunner(jobs=1, cache=ResultCache(shared),
                            worker_group=(empty_index, total),
                            shard_wait=5.0)
        results = again.run(mine)
        assert again.last_stats.executed == 0
        assert not any(isinstance(r, SpecFailure) for r in results)
