"""The scheduler with hundreds of kernels queued.

The golden diurnal SLO report (``tests/test_scenario.py``) never holds
more than three active kernels, so it cannot catch a changed partition
decision when many are queued. The saturated scenario here is the
three-tenant serving mix on 8 SMs, past saturation: a mean of ~51 and a
maximum of 94 active kernels at each partition. Two checks ride on it:

* its canonical SLO report plus QoS summary, pinned byte for byte;
* a spy on ``KernelScheduler._targets`` that compares every partition
  the scheduler uses with the reference water-fill over demands built
  afresh from every active kernel's progress (a need the scheduler
  failed to re-read fails it), and a spy on ``on_sm_released`` that
  fails if a hand-over leaves a finished kernel active.

Regenerate the golden after an intentional scheduling change with
``PYTHONPATH=src python tests/test_saturated.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.gpu.config import GPUConfig
from repro.harness.runner import run_periodic
from repro.harness.scenario import ScenarioSpec, run_traffic
from repro.sched.kernel_scheduler import KernelScheduler
from repro.workloads.traffic import ArrivalSpec, TenantSpec
from tests.test_partition import Demand, reference_nonzero

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_slo_saturated.json")


def saturated_scenario() -> ScenarioSpec:
    """Three tenants (latency-critical, diurnal inference, bursty
    training) arriving faster than 8 SMs can serve them."""
    return ScenarioSpec(
        tenants=(
            TenantSpec(name="web", mix="table2-short", priority=2,
                       slo_us=3_000.0,
                       arrival=ArrivalSpec(kind="poisson",
                                           rate_per_s=3_000.0)),
            TenantSpec(name="day", mix="dl-infer", priority=1,
                       slo_us=5_000.0,
                       arrival=ArrivalSpec(kind="diurnal",
                                           rate_per_s=1_500.0,
                                           amplitude=0.8,
                                           period_us=30_000.0)),
            TenantSpec(name="batch", mix="dl-train", priority=0,
                       slo_us=10_000.0,
                       arrival=ArrivalSpec(kind="bursty",
                                           rate_per_s=1_000.0,
                                           burst_factor=6.0)),
        ),
        horizon_us=20_000.0, drain_us=10_000.0)


def saturated_config() -> GPUConfig:
    return GPUConfig(num_sms=8, num_memory_partitions=2,
                     memory_bandwidth_gbps=177.4 * 8 / 30)


def run_saturated():
    return run_traffic(saturated_scenario(), policy_name="chimera", seed=7,
                       config=saturated_config(), target_kernel_us=150.0)


def golden_report() -> dict:
    result = run_saturated()
    return {"slo": result.slo, "qos": result.qos}


def encode_report(report: dict) -> str:
    """Canonical JSON for golden comparison (sorted keys, 2-space)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class TestSaturatedGolden:
    def test_report_matches_golden_bytes(self):
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert encode_report(golden_report()) == golden, (
            "saturated SLO/QoS report changed; if intentional, regenerate "
            "with `PYTHONPATH=src python tests/test_saturated.py`")

    def test_golden_is_canonical_json(self):
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert encode_report(json.loads(golden)) == golden


# ----------------------------------------------------------------------
# spies on the scheduler's partition and hand-over bookkeeping
# ----------------------------------------------------------------------


def fresh_partition(scheduler: KernelScheduler) -> dict:
    """The reference's nonzero targets over demands rebuilt from every
    active kernel's current progress, in launch order, as if nothing
    were kept between calls."""
    limit = scheduler.config.max_tbs_per_sm
    demands = []
    for kid, entry in scheduler._active.items():
        kernel = entry.kernel
        unfinished = kernel.grid_tbs - kernel.stats.tbs_completed
        per_sm = min(kernel.spec.tbs_per_sm, limit)
        demands.append(Demand(kid, -(-unfinished // per_sm),
                              entry.fixed_demand, weight=entry.weight))
    return reference_nonzero(demands, scheduler.config.num_sms)


@pytest.fixture
def spied(monkeypatch):
    """Install both spies; yields their call counters."""
    calls = {"targets": 0, "released": 0, "max_active": 0}
    targets = KernelScheduler._targets
    released = KernelScheduler.on_sm_released

    def spy_targets(self):
        result = targets(self)
        expected = fresh_partition(self)
        assert list(result.items()) == list(expected.items())
        calls["targets"] += 1
        calls["max_active"] = max(calls["max_active"], len(self._active))
        return result

    def spy_released(self, sm, record):
        released(self, sm, record)
        left = [entry.kernel.name for entry in self._active.values()
                if entry.kernel.finished]
        assert not left, f"finished kernels still active: {left}"
        calls["released"] += 1

    monkeypatch.setattr(KernelScheduler, "_targets", spy_targets)
    monkeypatch.setattr(KernelScheduler, "on_sm_released", spy_released)
    yield calls


class TestPartitionMatchesFreshDemands:
    def test_saturated_replay(self, spied):
        run_saturated()
        assert spied["targets"] > 500
        assert spied["max_active"] > 50
        assert spied["released"] > 100

    def test_periodic_spec(self, spied):
        # The real-time task takes its fixed demand through the same
        # partition, so this covers the fixed-demand pass.
        run_periodic("LUD", "chimera", periods=3, seed=1)
        assert spied["targets"] > 100


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(encode_report(golden_report()))
    print(f"wrote {GOLDEN}")
