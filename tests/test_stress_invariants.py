"""Randomized stress tests of the full scheduler stack.

Hypothesis generates small machines, random kernel mixes, staggered
launch times, and a policy; the scenario runs to quiescence and the
suite asserts the invariants that must hold no matter what the
scheduler decided:

* every kernel finishes, with exactly ``grid_tbs`` blocks retired;
* retired instructions equal the sum of the blocks' true sizes (work is
  neither lost nor double-counted, whatever was flushed or switched);
* at quiescence no SM is stuck preempting and nothing is resident;
* preemption hand-overs never precede their requests;
* flushing discards exactly the work that gets re-executed.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.chimera import make_policy
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU
from repro.gpu.kernel import Kernel
from repro.gpu.sm import SMState
from repro.sched.kernel_scheduler import KernelScheduler, SchedulerMode
from repro.sched.tb_scheduler import ThreadBlockScheduler
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.workloads.specs import KernelSpec

POLICIES = ("switch", "drain", "flush", "chimera")


def spec_strategy(tag: str):
    return st.builds(
        lambda drain, ctx, tbs, idem, ipc, cv, beta_a: KernelSpec(
            benchmark=tag, index=0, name=f"{tag}_kernel", source="stress",
            avg_drain_us=drain, context_kb_per_tb=ctx, tbs_per_sm=tbs,
            switch_time_us=1.0, idempotent=idem, sm_ipc=ipc, tb_cv=cv,
            cpi_cv=0.05, nonidem_beta=(beta_a, 2.0)),
        drain=st.floats(2.0, 300.0),
        ctx=st.floats(2.0, 64.0),
        tbs=st.integers(1, 8),
        idem=st.booleans(),
        ipc=st.floats(0.5, 6.0),
        cv=st.floats(0.0, 0.8),
        beta_a=st.floats(1.0, 10.0),
    )


scenario = st.fixed_dictionaries({
    "num_sms": st.integers(2, 8),
    "policy": st.sampled_from(POLICIES),
    "spec_a": spec_strategy("SA"),
    "spec_b": spec_strategy("SB"),
    "grid_a": st.integers(1, 40),
    "grid_b": st.integers(1, 40),
    "launch_gap_us": st.floats(0.0, 500.0),
    "limit_us": st.sampled_from([5.0, 15.0, 30.0]),
    "seed": st.integers(0, 2**31),
})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(scn=scenario)
def test_random_two_kernel_scenarios(scn):
    config = GPUConfig(num_sms=scn["num_sms"],
                       memory_bandwidth_gbps=177.4 * scn["num_sms"] / 30)
    engine = Engine()
    tb_sched = ThreadBlockScheduler()
    policy = make_policy(scn["policy"], config)
    ks = KernelScheduler(engine, config, tb_sched, policy,
                         SchedulerMode.SPATIAL, scn["limit_us"])
    gpu = GPU(config, engine, tb_sched)
    ks.attach_gpu(gpu)

    rng = RngStreams(scn["seed"])
    a = Kernel(scn["spec_a"], scn["grid_a"], rng, name="A")
    b = Kernel(scn["spec_b"], scn["grid_b"], rng, name="B")
    finished = []
    ks.launch_kernel(a, on_finished=lambda k: finished.append(k.name))
    engine.schedule(config.us(scn["launch_gap_us"]),
                    lambda: ks.launch_kernel(
                        b, on_finished=lambda k: finished.append(k.name)))
    engine.run(max_events=500_000)

    # 1. Everything finishes.
    assert set(finished) == {"A", "B"}
    for kernel in (a, b):
        assert kernel.finished
        assert kernel.stats.tbs_completed == kernel.grid_tbs

        # 2. Retired work equals the blocks' intrinsic sizes.
        #    (All blocks completed, so retired == sum of total_insts;
        #    discarded work was re-executed, not lost.)
        assert kernel.stats.insts_retired > 0
        assert kernel.useful_insts(engine.now) == pytest.approx(
            kernel.stats.insts_retired)

        # 5. Flush accounting is consistent with the chosen policy.
        if scn["policy"] in ("switch", "drain"):
            assert kernel.stats.insts_discarded == 0.0
        if scn["policy"] == "drain":
            assert kernel.stats.stall_insts == 0.0

    # 3. Quiescence: machine fully idle, queues empty.
    for sm in gpu.sms:
        assert sm.state is SMState.IDLE
        assert not sm.resident
    assert tb_sched.preempted_queue_len(a) == 0
    assert tb_sched.preempted_queue_len(b) == 0
    assert engine.peek_time() is None

    # 4. Records are sane.
    for record in ks.records:
        assert record.release_time >= record.request_time
        assert sum(record.techniques.values()) >= 0


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scn=scenario)
def test_random_scenarios_fcfs_baseline(scn):
    """FCFS: same invariants, plus strict serialization."""
    config = GPUConfig(num_sms=scn["num_sms"],
                       memory_bandwidth_gbps=177.4 * scn["num_sms"] / 30)
    engine = Engine()
    tb_sched = ThreadBlockScheduler()
    ks = KernelScheduler(engine, config, tb_sched, None, SchedulerMode.FCFS)
    gpu = GPU(config, engine, tb_sched)
    ks.attach_gpu(gpu)

    rng = RngStreams(scn["seed"])
    a = Kernel(scn["spec_a"], scn["grid_a"], rng, name="A")
    b = Kernel(scn["spec_b"], scn["grid_b"], rng, name="B")
    ks.launch_kernel(a)
    ks.launch_kernel(b)
    engine.run(max_events=500_000)

    assert a.finished and b.finished
    assert ks.records == []
    # Serialization: B starts only after A's last block retired.
    assert b.finish_time >= a.finish_time
    for kernel in (a, b):
        assert kernel.stats.wasted_insts == 0.0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scn=scenario, kill_after_us=st.floats(10.0, 2000.0))
def test_random_kill_mid_flight(scn, kill_after_us):
    """Killing a kernel mid-run must leave a consistent machine and let
    the survivor finish."""
    config = GPUConfig(num_sms=scn["num_sms"],
                       memory_bandwidth_gbps=177.4 * scn["num_sms"] / 30)
    engine = Engine()
    tb_sched = ThreadBlockScheduler()
    policy = make_policy(scn["policy"], config)
    ks = KernelScheduler(engine, config, tb_sched, policy,
                         SchedulerMode.SPATIAL, scn["limit_us"])
    gpu = GPU(config, engine, tb_sched)
    ks.attach_gpu(gpu)

    rng = RngStreams(scn["seed"])
    a = Kernel(scn["spec_a"], scn["grid_a"], rng, name="A")
    b = Kernel(scn["spec_b"], scn["grid_b"], rng, name="B")
    ks.launch_kernel(a)
    ks.launch_kernel(b)
    engine.schedule(config.us(kill_after_us), lambda: ks.kill_kernel(b))
    engine.run(max_events=500_000)

    assert a.finished
    for sm in gpu.sms:
        assert sm.state is SMState.IDLE
        assert sm.kernel is None
