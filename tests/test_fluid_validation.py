"""Validation of the fluid-timing model against closed-form arithmetic.

The fluid model is exact by construction for deterministic kernels
(cv = 0): solo execution times, preemption latencies and waste figures
all have closed forms. These tests pin the simulator to that arithmetic
so regressions in event handling, progress accounting or DMA timing
cannot hide in statistical noise.
"""

from __future__ import annotations

import pytest

from repro.core.chimera import SingleTechniquePolicy
from repro.core.techniques import Technique
from repro.functional.gpusim import CycleGPU
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Kernel
from repro.idempotence.instrument import instrument
from repro.idempotence.kernels import vector_add
from repro.sim import trace as trace_cat
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer
from repro.sim.trace_check import TraceChecker
from repro.units import cycles_to_us
from repro.workloads.specs import kernel_spec
from tests.conftest import build_system, make_spec


def det_spec(**overrides):
    defaults = dict(tb_cv=0.0, cpi_cv=0.0)
    defaults.update(overrides)
    return make_spec(**defaults)


class TestSoloTiming:
    @pytest.mark.parametrize("waves", [1, 2, 5])
    def test_kernel_duration_is_waves_times_block_time(self, small_config,
                                                       waves):
        spec = det_spec(tbs_per_sm=2)
        engine = Engine()
        from repro.core.chimera import ChimeraPolicy
        _, ks, gpu = build_system(small_config, engine,
                                  ChimeraPolicy(small_config))
        slots = small_config.num_sms * spec.tbs_per_sm
        kernel = Kernel(spec, waves * slots, RngStreams(1))
        ks.launch_kernel(kernel)
        engine.run()
        block_cycles = small_config.us(spec.mean_tb_exec_us)
        assert engine.now == pytest.approx(waves * block_cycles, rel=1e-9)

    def test_partial_last_wave_costs_a_full_block(self, small_config):
        spec = det_spec(tbs_per_sm=2)
        engine = Engine()
        from repro.core.chimera import ChimeraPolicy
        _, ks, gpu = build_system(small_config, engine,
                                  ChimeraPolicy(small_config))
        slots = small_config.num_sms * spec.tbs_per_sm
        kernel = Kernel(spec, slots + 1, RngStreams(1))
        ks.launch_kernel(kernel)
        engine.run()
        block_cycles = small_config.us(spec.mean_tb_exec_us)
        assert engine.now == pytest.approx(2 * block_cycles, rel=1e-9)


class TestPreemptionLatencyArithmetic:
    def _two_kernel_system(self, small_config, policy, spec_a):
        engine = Engine()
        _, ks, gpu = build_system(small_config, engine, policy)
        a = Kernel(spec_a, 64, RngStreams(1), name="victim")
        ks.launch_kernel(a)
        return engine, ks, gpu, a

    def test_switch_latency_equals_context_over_share(self, small_config):
        spec = det_spec(avg_drain_us=5000.0, tbs_per_sm=3,
                        context_kb_per_tb=20.0)
        policy = SingleTechniquePolicy(small_config, Technique.SWITCH)
        engine, ks, gpu, a = self._two_kernel_system(small_config, policy,
                                                     spec)
        engine.run(until=100_000.0)
        b = Kernel(make_spec(benchmark="NK", tbs_per_sm=2), 8, RngStreams(2))
        ks.launch_kernel(b)
        engine.run(until=300_000.0)
        expected = small_config.context_switch_cycles(3 * 20 * 1024)
        for record in ks.records:
            assert record.realized_latency == pytest.approx(expected, rel=1e-9)

    def test_drain_latency_equals_remaining_time(self, small_config):
        spec = det_spec(avg_drain_us=500.0, tbs_per_sm=1)
        policy = SingleTechniquePolicy(small_config, Technique.DRAIN)
        engine, ks, gpu, a = self._two_kernel_system(small_config, policy,
                                                     spec)
        t_preempt = 100_000.0
        engine.run(until=t_preempt)
        b = Kernel(make_spec(benchmark="NK", tbs_per_sm=2), 8, RngStreams(2))
        ks.launch_kernel(b)
        engine.run(until=3_000_000.0)
        # All blocks started at 0 with duration 1000us; preemption at
        # t_preempt leaves exactly block_time - t_preempt remaining.
        block_cycles = small_config.us(spec.mean_tb_exec_us)
        expected = block_cycles - t_preempt
        assert ks.records
        for record in ks.records:
            assert record.realized_latency == pytest.approx(expected, rel=1e-6)

    def test_flush_latency_is_zero_and_waste_equals_progress(self,
                                                             small_config):
        spec = det_spec(avg_drain_us=2000.0, tbs_per_sm=2, idempotent=True)
        policy = SingleTechniquePolicy(small_config, Technique.FLUSH)
        engine, ks, gpu, a = self._two_kernel_system(small_config, policy,
                                                     spec)
        t_preempt = 70_000.0
        engine.run(until=t_preempt)
        b = Kernel(make_spec(benchmark="NK", tbs_per_sm=2), 8, RngStreams(2))
        ks.launch_kernel(b)
        # Flush happens synchronously inside the launch.
        n_flushed = sum(record.techniques.get(Technique.FLUSH, 0)
                        for record in ks.records)
        assert n_flushed > 0
        expected_discard = n_flushed * t_preempt * a.spec.tb_rate
        assert a.stats.insts_discarded == pytest.approx(expected_discard,
                                                        rel=1e-9)
        for record in ks.records:
            assert record.realized_latency == 0.0

    def test_switch_stall_accounting(self, small_config):
        spec = det_spec(avg_drain_us=5000.0, tbs_per_sm=2,
                        context_kb_per_tb=10.0)
        policy = SingleTechniquePolicy(small_config, Technique.SWITCH)
        engine, ks, gpu, a = self._two_kernel_system(small_config, policy,
                                                     spec)
        engine.run(until=50_000.0)
        b = Kernel(make_spec(benchmark="NK", tbs_per_sm=2), 8, RngStreams(2))
        ks.launch_kernel(b)
        engine.run(until=100_000.0)
        # Each switched block stalls for the whole serialized save DMA.
        save = small_config.context_switch_cycles(2 * 10 * 1024)
        switched = sum(record.techniques.get(Technique.SWITCH, 0)
                       for record in ks.records)
        expected = switched * save * a.spec.tb_rate
        assert a.stats.stall_insts == pytest.approx(expected, rel=1e-9)


class TestDifferentialTracing:
    """The same tiny workload traced on both timing substrates.

    A 4-block kernel runs on the cycle-level :class:`CycleGPU` and, with
    matching geometry, on the fluid model. The substrates share nothing
    but the trace vocabulary, so agreement on event counts and causal
    ordering is evidence the instrumentation means the same thing in
    both — and both traces must satisfy the scheduler invariants.
    """

    GRID, SMS, PER_SM = 4, 2, 2

    def _cycle_trace(self, flush_at=None):
        prog = instrument(vector_add(64))
        tracer = Tracer(clock_mhz=1400.0)
        gpu = CycleGPU(prog, self.GRID, 16, num_sms=self.SMS,
                       blocks_per_sm=self.PER_SM, tracer=tracer)
        if flush_at is not None:
            gpu.step(flush_at)
            assert gpu.try_flush(0)
        gpu.run()
        return tracer

    def _fluid_trace(self):
        config = GPUConfig(num_sms=self.SMS, num_memory_partitions=1,
                           memory_bandwidth_gbps=177.4 * 2 / 30)
        engine = Engine()
        tracer = Tracer(clock_mhz=config.clock_mhz)
        from repro.core.chimera import ChimeraPolicy
        from repro.gpu.gpu import GPU
        from repro.sched.kernel_scheduler import (KernelScheduler,
                                                  SchedulerMode)
        from repro.sched.tb_scheduler import ThreadBlockScheduler
        tb = ThreadBlockScheduler()
        ks = KernelScheduler(engine, config, tb, ChimeraPolicy(config),
                             SchedulerMode.SPATIAL, tracer=tracer)
        gpu = GPU(config, engine, tb, tracer=tracer)
        ks.attach_gpu(gpu)
        kernel = Kernel(det_spec(tbs_per_sm=self.PER_SM), self.GRID,
                        RngStreams(1), name="vector_add")
        ks.launch_kernel(kernel)
        engine.run()
        return tracer

    def test_event_counts_agree(self):
        cyc = self._cycle_trace().counts()
        flu = self._fluid_trace().counts()
        for cat in (trace_cat.LAUNCH, trace_cat.FINISH, trace_cat.DISPATCH,
                    trace_cat.COMPLETE):
            assert cyc.get(cat, 0) == flu.get(cat, 0), cat
        assert cyc[trace_cat.DISPATCH] == self.GRID
        # Both machines bind every SM to the kernel exactly once.
        assert cyc[trace_cat.ASSIGN] == flu[trace_cat.ASSIGN] == self.SMS

    def test_causal_ordering_agrees(self):
        """LAUNCH precedes every DISPATCH; each block's DISPATCH precedes
        its COMPLETE; FINISH follows every COMPLETE — on both substrates."""
        for tracer in (self._cycle_trace(), self._fluid_trace()):
            order = {cat: [] for cat in trace_cat.CATEGORIES}
            for index, record in enumerate(tracer.records):
                order[record.category].append(index)
            assert order[trace_cat.LAUNCH][0] < min(order[trace_cat.DISPATCH])
            assert max(order[trace_cat.COMPLETE]) <= order[trace_cat.FINISH][0]
            dispatched = {}
            for record in tracer.records:
                if record.category == trace_cat.DISPATCH:
                    dispatched.setdefault(record.payload["tb"], record.time)
                elif record.category == trace_cat.COMPLETE:
                    assert record.payload["tb"] in dispatched
                    assert record.time >= dispatched[record.payload["tb"]]

    def test_both_traces_pass_the_checker(self):
        for tracer in (self._cycle_trace(), self._fluid_trace()):
            report = TraceChecker(max_tbs_per_sm=self.PER_SM).check(tracer)
            assert report.ok, report.summary()

    def test_cycle_level_flush_is_traced_and_clean(self):
        tracer = self._cycle_trace(flush_at=300)
        counts = tracer.counts()
        assert counts.get(trace_cat.FLUSH, 0) >= 1
        # Flushed blocks rerun: extra dispatches match the flushes.
        assert counts[trace_cat.DISPATCH] == self.GRID + counts[trace_cat.FLUSH]
        assert counts[trace_cat.COMPLETE] == self.GRID
        report = TraceChecker(max_tbs_per_sm=self.PER_SM).check(tracer)
        assert report.ok, report.summary()


class TestTable2Consistency:
    def test_fluid_block_times_match_spec(self):
        """A Table 2 kernel's simulated block duration equals twice its
        drain-time column (cv jitter aside, checked at cv=0)."""
        import dataclasses
        config = GPUConfig()
        base = kernel_spec("BS.0")
        spec = dataclasses.replace(base, tb_cv=0.0, cpi_cv=0.0)
        kernel = Kernel(spec, 4, RngStreams(1), clock_mhz=config.clock_mhz)
        tb = kernel.make_tb()
        duration_us = cycles_to_us(tb.total_insts / tb.rate, config.clock_mhz)
        assert duration_us == pytest.approx(2 * base.avg_drain_us, rel=1e-9)
