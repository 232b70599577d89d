"""Traffic-serving throughput benchmark: arrivals/s through the stack.

One scenario pins the open-arrival serving path PR-over-PR:

* ``serving_throughput`` — a three-tenant Poisson + diurnal + bursty
  mix replayed in-process through :func:`repro.harness.scenario.run_traffic`
  under two policies. Records simulated arrivals per wall second (the
  harness's serving capacity), overall SLO attainment, goodput, and the
  p99 preemption latency, into machine-readable
  ``benchmarks/results/BENCH_traffic.json`` (with the machine's
  ``cpu_count`` in ``_meta``) like ``BENCH_cycle.json``.

Determinism is asserted before any number is recorded: the same
scenario must yield the same SLO report on a second run.

Scale knobs:

* ``CHIMERA_BENCH_TRAFFIC_QUICK`` — shrink the horizon for CI smoke
* ``CHIMERA_TRAFFIC_FAIL_BELOW``  — fail if the chimera policy's SLO
  attainment drops below this fraction
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import RESULTS_DIR, once, record_bench
from repro.gpu.config import GPUConfig
from repro.harness.scenario import ScenarioSpec, run_traffic
from repro.workloads.traffic import ArrivalSpec, TenantSpec

BENCH_PATH = RESULTS_DIR / "BENCH_traffic.json"

QUICK = bool(os.environ.get("CHIMERA_BENCH_TRAFFIC_QUICK", "").strip())

#: Arrival window, us (quick mode shrinks it for CI smoke).
HORIZON_US = 40_000.0 if QUICK else 120_000.0

SEED = int(os.environ.get("CHIMERA_BENCH_SEED", "12345"))

TENANTS = (
    TenantSpec(name="web", mix="table2-short", priority=2, slo_us=3_000.0,
               arrival=ArrivalSpec(kind="poisson", rate_per_s=3_000.0)),
    TenantSpec(name="day", mix="dl-infer", priority=1, slo_us=5_000.0,
               arrival=ArrivalSpec(kind="diurnal", rate_per_s=1_500.0,
                                   amplitude=0.8, period_us=30_000.0)),
    TenantSpec(name="batch", mix="dl-train", priority=0, slo_us=10_000.0,
               arrival=ArrivalSpec(kind="bursty", rate_per_s=1_000.0,
                                   burst_factor=6.0)),
)


def test_serving_throughput(benchmark):
    config = GPUConfig(num_sms=8, num_memory_partitions=2,
                       memory_bandwidth_gbps=177.4 * 8 / 30)
    scenario = ScenarioSpec(tenants=TENANTS, horizon_us=HORIZON_US,
                            drain_us=30_000.0)

    def drive() -> dict:
        entry: dict = {}
        for policy in ("chimera", "drain"):
            start = time.perf_counter()
            result = run_traffic(scenario, policy_name=policy, seed=SEED,
                                 config=config, target_kernel_us=150.0)
            wall = time.perf_counter() - start
            # Same spec, second run: the serving path must be a pure
            # function of (scenario, seed, policy, config).
            again = run_traffic(scenario, policy_name=policy, seed=SEED,
                                config=config, target_kernel_us=150.0)
            assert again.slo == result.slo, f"{policy} replay diverged"
            report = result.slo
            entry[policy] = {
                "arrivals": report["arrivals"],
                "attainment": report["attainment"],
                "goodput_per_s": report["goodput_per_s"],
                "p99_latency_us": report["latency_us"]["p99"],
                "p99_preempt_us": report["preemption_us"]["p99"],
                "wall_s": round(wall, 4),
                "arrivals_per_wall_s": round(report["arrivals"]
                                             / max(wall, 1e-9)),
            }
        return entry

    entry = once(benchmark, drive)
    record_bench(BENCH_PATH, "serving_throughput", {
        "horizon_us": HORIZON_US,
        "tenants": [t.name for t in TENANTS],
        **entry,
    }, QUICK)
    floor = os.environ.get("CHIMERA_TRAFFIC_FAIL_BELOW", "").strip()
    if floor:
        attainment = entry["chimera"]["attainment"]
        assert attainment >= float(floor), (
            f"chimera SLO attainment {attainment:.4f} is below the "
            f"{floor} floor")
