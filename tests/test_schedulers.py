"""Integration tests for the two-level scheduler."""

from __future__ import annotations

import pytest

from repro.core.chimera import ChimeraPolicy, SingleTechniquePolicy, make_policy
from repro.core.techniques import Technique
from repro.gpu.kernel import Kernel
from repro.gpu.sm import SMState
from repro.sched.kernel_scheduler import SchedulerMode
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from tests.conftest import build_system, make_spec


def make_kernel(spec, grid, seed=7):
    return Kernel(spec, grid, RngStreams(seed))


def _blocks_preempted(ks, kernel, technique):
    """Blocks of ``kernel`` handed over by ``technique``, over every
    completed preemption."""
    return sum(record.techniques.get(technique, 0) for record in ks.records
               if record.kernel_name == kernel.name)


class TestSingleKernel:
    def test_kernel_occupies_all_sms(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine,
                                  ChimeraPolicy(small_config))
        spec = make_spec(tbs_per_sm=2)
        kernel = make_kernel(spec, grid=40)
        ks.launch_kernel(kernel)
        assert len(gpu.sms_of(kernel)) == small_config.num_sms
        for sm in gpu.sms_of(kernel):
            assert len(sm.resident) == 2

    def test_kernel_runs_to_completion(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine,
                                  ChimeraPolicy(small_config))
        kernel = make_kernel(make_spec(tbs_per_sm=2, tb_cv=0.0), grid=16)
        finished = []
        ks.launch_kernel(kernel, on_finished=lambda k: finished.append(k))
        engine.run()
        assert finished == [kernel]
        assert kernel.finished
        assert all(sm.state is SMState.IDLE for sm in gpu.sms)
        # 16 TBs over 4 SMs x 2 slots = 2 waves.
        expected = 2 * kernel.mean_tb_insts / kernel.spec.tb_rate
        assert engine.now == pytest.approx(expected)

    def test_size_bound_kernel_takes_fewer_sms(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine,
                                  ChimeraPolicy(small_config))
        kernel = make_kernel(make_spec(tbs_per_sm=4), grid=4)
        ks.launch_kernel(kernel)
        assert len(gpu.sms_of(kernel)) == 1
        assert len(gpu.idle_sms()) == small_config.num_sms - 1


class TestTwoKernelsEvenSplit:
    def test_launch_triggers_preemption(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine,
                                  ChimeraPolicy(small_config))
        spec_a = make_spec(benchmark="AA", idempotent=True, avg_drain_us=500.0)
        a = make_kernel(spec_a, grid=64)
        ks.launch_kernel(a)
        engine.run(until=1000.0)
        spec_b = make_spec(benchmark="BB", idempotent=True)
        b = make_kernel(spec_b, grid=64)
        ks.launch_kernel(b)
        engine.run(until=200_000.0)
        occ = gpu.occupancy()
        assert occ.get(a.name, 0) == 2
        assert occ.get(b.name, 0) == 2
        assert len(ks.records) >= 1

    def test_flushed_blocks_requeue_and_rerun(self, small_config, engine):
        tb_sched, ks, gpu = build_system(small_config, engine,
                                         SingleTechniquePolicy(
                                             small_config, Technique.FLUSH))
        spec_a = make_spec(benchmark="AA", idempotent=True,
                           avg_drain_us=2000.0, tbs_per_sm=2, tb_cv=0.0)
        a = make_kernel(spec_a, grid=8)
        done = []
        ks.launch_kernel(a, on_finished=lambda k: done.append("a"))
        engine.run(until=100_000.0)
        b = make_kernel(make_spec(benchmark="BB", idempotent=True,
                                  tbs_per_sm=2, avg_drain_us=100.0), grid=4)
        ks.launch_kernel(b, on_finished=lambda k: done.append("b"))
        engine.run()
        assert "a" in done and "b" in done
        assert _blocks_preempted(ks, a, Technique.FLUSH) > 0
        assert a.stats.insts_discarded > 0
        assert a.finished

    def test_switched_blocks_resume_with_progress(self, small_config, engine):
        tb_sched, ks, gpu = build_system(small_config, engine,
                                         SingleTechniquePolicy(
                                             small_config, Technique.SWITCH))
        spec_a = make_spec(benchmark="AA", idempotent=False,
                           avg_drain_us=2000.0, tbs_per_sm=2, tb_cv=0.0)
        a = make_kernel(spec_a, grid=8)
        ks.launch_kernel(a)
        engine.run(until=100_000.0)
        b = make_kernel(make_spec(benchmark="BB", tbs_per_sm=2,
                                  avg_drain_us=100.0), grid=4)
        ks.launch_kernel(b)
        engine.run()
        assert _blocks_preempted(ks, a, Technique.SWITCH) > 0
        assert a.stats.insts_discarded == 0  # switching never discards
        assert a.finished
        # Work was not redone: retired == grid x per-TB insts exactly.
        assert a.stats.insts_retired == pytest.approx(
            sum(8 * [a.mean_tb_insts]), rel=1e-9)

    def test_drain_policy_never_destroys_work(self, small_config, engine):
        tb_sched, ks, gpu = build_system(small_config, engine,
                                         SingleTechniquePolicy(
                                             small_config, Technique.DRAIN))
        a = make_kernel(make_spec(benchmark="AA", avg_drain_us=500.0,
                                  tbs_per_sm=2, tb_cv=0.0), grid=8)
        ks.launch_kernel(a)
        engine.run(until=100_000.0)
        b = make_kernel(make_spec(benchmark="BB", tbs_per_sm=2,
                                  avg_drain_us=100.0), grid=4)
        ks.launch_kernel(b)
        engine.run()
        assert a.finished and b.finished
        assert _blocks_preempted(ks, a, Technique.DRAIN) > 0
        assert a.stats.insts_discarded == 0
        assert a.stats.stall_insts == 0


class TestKernelFinishHandoff:
    def test_sms_move_to_survivor(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine,
                                  ChimeraPolicy(small_config))
        short = make_kernel(make_spec(benchmark="SH", avg_drain_us=50.0,
                                      tbs_per_sm=2, tb_cv=0.0), grid=4)
        long_k = make_kernel(make_spec(benchmark="LO", avg_drain_us=5000.0,
                                       tbs_per_sm=2, tb_cv=0.0), grid=64)
        ks.launch_kernel(long_k)
        ks.launch_kernel(short)
        engine.run(until=1_000_000.0)
        # Short kernel finished; survivor should take the whole machine.
        assert short.finished
        assert len(gpu.sms_of(long_k)) == small_config.num_sms


class TestKillKernel:
    def test_kill_releases_sms(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine,
                                  ChimeraPolicy(small_config))
        kernel = make_kernel(make_spec(tbs_per_sm=2), grid=64)
        ks.launch_kernel(kernel)
        engine.run(until=1000.0)
        ks.kill_kernel(kernel)
        assert all(sm.kernel is not kernel for sm in gpu.sms)
        assert not kernel.finished

    def test_kill_is_idempotent(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine,
                                  ChimeraPolicy(small_config))
        kernel = make_kernel(make_spec(tbs_per_sm=2), grid=8)
        ks.launch_kernel(kernel)
        ks.kill_kernel(kernel)
        ks.kill_kernel(kernel)  # no-op

    def test_kill_reassigns_to_survivor(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine,
                                  ChimeraPolicy(small_config))
        a = make_kernel(make_spec(benchmark="AA", avg_drain_us=5000.0,
                                  tbs_per_sm=2), grid=64)
        b = make_kernel(make_spec(benchmark="BB", avg_drain_us=5000.0,
                                  tbs_per_sm=2), grid=64)
        ks.launch_kernel(a)
        engine.run(until=1000.0)
        ks.launch_kernel(b)
        engine.run(until=3_000_000.0)
        if not a.finished:
            ks.kill_kernel(a)
            assert len(gpu.sms_of(b)) >= small_config.num_sms - sum(
                1 for sm in gpu.sms if sm.is_preempting)


class TestFCFS:
    def test_kernels_serialize(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine, None,
                                  mode=SchedulerMode.FCFS)
        a = make_kernel(make_spec(benchmark="AA", avg_drain_us=500.0,
                                  tbs_per_sm=2, tb_cv=0.0), grid=8)
        b = make_kernel(make_spec(benchmark="BB", avg_drain_us=500.0,
                                  tbs_per_sm=2, tb_cv=0.0), grid=8)
        order = []
        ks.launch_kernel(a, on_finished=lambda k: order.append("a"))
        ks.launch_kernel(b, on_finished=lambda k: order.append("b"))
        # b must not occupy anything while a runs.
        assert gpu.occupancy().get(b.name, 0) == 0
        engine.run()
        assert order == ["a", "b"]
        assert b.launch_time == 0.0
        assert b.finish_time > a.finish_time

    def test_no_preemption_records_in_fcfs(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine, None,
                                  mode=SchedulerMode.FCFS)
        a = make_kernel(make_spec(benchmark="AA", tbs_per_sm=2, tb_cv=0.0),
                        grid=8)
        b = make_kernel(make_spec(benchmark="BB", tbs_per_sm=2, tb_cv=0.0),
                        grid=8)
        ks.launch_kernel(a)
        ks.launch_kernel(b)
        engine.run()
        assert ks.records == []

    def test_spatial_mode_requires_policy(self, small_config, engine):
        from repro.errors import SchedulingError
        from repro.sched.tb_scheduler import ThreadBlockScheduler
        from repro.sched.kernel_scheduler import KernelScheduler
        with pytest.raises(SchedulingError):
            KernelScheduler(engine, small_config, ThreadBlockScheduler(),
                            None, SchedulerMode.SPATIAL)


class TestRecords:
    def test_records_capture_latency_and_techniques(self, small_config, engine):
        _, ks, gpu = build_system(small_config, engine,
                                  SingleTechniquePolicy(small_config,
                                                        Technique.SWITCH))
        a = make_kernel(make_spec(benchmark="AA", avg_drain_us=2000.0,
                                  tbs_per_sm=2, tb_cv=0.0), grid=32)
        ks.launch_kernel(a)
        engine.run(until=100_000.0)
        b = make_kernel(make_spec(benchmark="BB", tbs_per_sm=2,
                                  avg_drain_us=100.0), grid=8)
        ks.launch_kernel(b)
        engine.run(until=200_000.0)
        assert ks.records
        for record in ks.records:
            assert record.realized_latency > 0
            assert Technique.SWITCH in record.techniques
            expected = small_config.context_switch_cycles(
                2 * a.spec.context_bytes_per_tb)
            assert record.realized_latency == pytest.approx(expected, rel=1e-6)
