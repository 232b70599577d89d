"""Differential property tests: fused fluid engine vs its reference.

:class:`~repro.gpu.sm.StreamingMultiprocessor` runs plain completion as
one fused stack frame, and :class:`~repro.sim.rng.RngStreams` fills
grids of ``_VECTOR_MIN_N`` or more blocks through the numpy replay in
:mod:`repro.sim.rng_vector`. Both must be *bit-identical* to the
per-call chain they replace. That chain lives here as the test-local
:class:`ReferenceSM` (``mark_done`` -> ``note_completed`` ->
``listener.on_tb_complete``), and the reference run also forces every
batch draw through the stdlib loop. Random scenarios — pair and
periodic runs across preemption policies, seeds, QoS guard modes and
perturbed machines (``drain_stall``, ``estimate_skew``) — are executed
once per engine and compared on

* the full result dataclass (metrics, per-benchmark rollups and the
  QoS guard ledger), both structurally and through a canonical JSON
  rendering that distinguishes float bit patterns, and
* the serialized trace JSONL **bytes**, which pins every event, its
  timestamp, its payload and its emission order.

Any divergence — a reordered heap tie, a float that went through numpy
instead of libm, a skipped trace record — fails these tests.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import gpu as gpu_mod
from repro.gpu.config import GPUConfig
from repro.gpu.sm import SMState, StreamingMultiprocessor
from repro.harness.runner import run_pair, run_periodic, run_solo
from repro.sched.kernel_scheduler import SchedulerMode
from repro.sim import rng as rng_mod
from repro.sim import trace as trace_mod
from repro.sim.trace import Tracer, dumps_jsonl
from repro.workloads.multiprogram import MultiprogramWorkload


class ReferenceSM(StreamingMultiprocessor):
    """The SM with the per-call completion chain the runtime fuses."""

    def _complete(self, tb):
        self._completion_events.pop(tb.index, None)
        now = self.engine.now
        tb.mark_done(now)
        self.resident.remove(tb)
        tb.kernel.note_completed(tb)
        if self.state is SMState.PREEMPTING:
            self._drained(tb, now)
            return
        if self.tracer is not None:
            self._trace(trace_mod.COMPLETE, f"{tb.kernel.name}#{tb.index}",
                        kernel=tb.kernel.name, tb=tb.index)
        self.listener.on_tb_complete(self, tb)


BUDGET = 2e6

PAIRS = (("LUD", "BS"), ("HS", "KM"), ("MUM", "FWT"), ("BS", "HS", "KM"))
PERIODIC_LABELS = ("BS", "HS", "LUD", "MUM")
POLICIES = ("chimera", "drain", "flush", "switch")
QOS_MODES = ("off", "warn", "escalate")


def _canon(obj):
    """Recursively canonicalize a result tree for exact comparison:
    floats via ``repr`` (distinguishes bit patterns, including the sign
    of zero), dict keys via ``repr`` (results use enum keys json cannot
    sort), everything unknown via ``repr``."""
    if isinstance(obj, dict):
        return [[repr(k), _canon(v)]
                for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return repr(obj)


def _canonical(result) -> str:
    """Result dataclass as canonical JSON text."""
    return json.dumps(_canon(dataclasses.asdict(result)))


def _observe(reference: bool, scenario):
    """Run ``scenario(tracer)`` on the runtime engine or, with
    ``reference``, on :class:`ReferenceSM` with every batch draw on the
    stdlib loop; return (result, trace)."""
    tracer = Tracer()
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(gpu_mod, "StreamingMultiprocessor", ReferenceSM)
            mp.setattr(rng_mod, "_VECTOR_MIN_N", sys.maxsize)
        result = scenario(tracer)
    return result, dumps_jsonl(tracer)


def assert_paths_identical(scenario):
    """Run ``scenario`` on both engines and require bit-identity."""
    ref_result, ref_trace = _observe(True, scenario)
    result, trace = _observe(False, scenario)
    assert dataclasses.asdict(result) == dataclasses.asdict(ref_result)
    assert _canonical(result) == _canonical(ref_result)
    assert trace == ref_trace
    return ref_result


class TestPairDifferential:
    @settings(max_examples=10, deadline=None)
    @given(labels=st.sampled_from(PAIRS),
           policy=st.sampled_from(POLICIES),
           seed=st.integers(min_value=0, max_value=2**16),
           qos_mode=st.sampled_from(QOS_MODES))
    def test_random_pair_scenarios(self, labels, policy, seed, qos_mode):
        workload = MultiprogramWorkload(labels, budget_insts=BUDGET)
        config = GPUConfig(qos_mode=qos_mode)

        result = assert_paths_identical(
            lambda tracer: run_pair(workload, policy, seed=seed,
                                    config=config, tracer=tracer))
        assert result.qos["mode"] == qos_mode

    def test_fcfs_baseline(self):
        workload = MultiprogramWorkload(("LUD", "BS"), budget_insts=BUDGET)
        assert_paths_identical(
            lambda tracer: run_pair(workload, None, mode=SchedulerMode.FCFS,
                                    tracer=tracer))

    def test_solo_run(self):
        assert_paths_identical(
            lambda tracer: run_solo("BS", BUDGET, tracer=tracer))


class TestPeriodicDifferential:
    @settings(max_examples=8, deadline=None)
    @given(label=st.sampled_from(PERIODIC_LABELS),
           policy=st.sampled_from(POLICIES),
           seed=st.integers(min_value=0, max_value=2**16),
           constraint_us=st.sampled_from((10.0, 15.0, 25.0)),
           qos_mode=st.sampled_from(QOS_MODES))
    def test_random_periodic_scenarios(self, label, policy, seed,
                                       constraint_us, qos_mode):
        config = GPUConfig(qos_mode=qos_mode)
        assert_paths_identical(
            lambda tracer: run_periodic(label, policy, periods=2, seed=seed,
                                        constraint_us=constraint_us,
                                        config=config, tracer=tracer))


class TestFaultDifferential:
    """A perturbed machine must perturb both engines identically."""

    @pytest.mark.parametrize("perturbation", [
        pytest.param(dict(drain_stall=4.0), id="drain_stall"),
        pytest.param(dict(estimate_skew=0.5), id="estimate_skew"),
        pytest.param(dict(drain_stall=4.0, estimate_skew=0.5), id="both"),
    ])
    def test_periodic_under_faults(self, perturbation):
        config = GPUConfig(qos_mode="escalate", **perturbation)
        assert_paths_identical(
            lambda tracer: run_periodic("BS", "drain", periods=2,
                                        config=config, tracer=tracer))

    def test_strict_qos_failure_is_identical(self):
        """A guard blow-up under ``strict`` must raise the same error
        at the same point on both engines (the partial trace agrees)."""
        config = GPUConfig(qos_mode="strict", qos_slack=0.0,
                           drain_stall=64.0)

        def scenario(tracer):
            try:
                run_periodic("BS", "drain", periods=2,
                             config=config, tracer=tracer)
            except Exception as exc:
                return ("raised", type(exc).__name__, str(exc))
            return ("completed",)

        reference, reference_trace = _observe(True, scenario)
        outcome, trace = _observe(False, scenario)
        assert outcome == reference
        assert trace == reference_trace

