"""Overload-control benchmarks: admission-gate overhead and shed drain.

Two numbers guard the overload subsystem:

* ``control_plane`` — ops/s through the hot admission-gate trio
  (service-time EWMA fold + estimate, brownout observe/admit, breaker
  bookkeeping). These run on every spool scan and every tick, so they
  must stay decisively cheaper than the journal fsync they precede.
* ``shed_drain`` — end-to-end wall for a daemon to absorb a burst at
  ~3x its worker throughput with an aggressive brownout: admit, shed
  best-effort, finish every critical job, journal the lot. The counts
  land next to the wall so a regression in *what* was shed is as
  visible as a regression in how long it took.

Results land in ``benchmarks/results/BENCH_overload.json``.

Scale knobs:

* ``CHIMERA_BENCH_OVERLOAD_QUICK`` — shrink iterations for CI smoke
* ``CHIMERA_OVERLOAD_FAIL_BELOW``  — fail if control-plane ops/s drops
  below this floor (off by default; CI may arm it)
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import RESULTS_DIR, once, record_bench
from repro.harness.cache import ResultCache
from repro.harness.sweep import RunSpec
from repro.service import (
    BrownoutController,
    CircuitBreaker,
    JobState,
    JobTable,
    JournalStore,
    SchedulerDaemon,
    ServiceClient,
    ServiceTimeEstimator,
)

BENCH_PATH = RESULTS_DIR / "BENCH_overload.json"

QUICK = bool(os.environ.get("CHIMERA_BENCH_OVERLOAD_QUICK", "").strip())

#: Admission-gate iterations for the control-plane ops/s number.
CONTROL_OPS = 2_000 if QUICK else 50_000

#: (critical jobs, best-effort jobs) in the burst; capacity admits the
#: whole burst so the brownout — not the queue bound — does the shedding.
BURST = (3, 6) if QUICK else (6, 12)


def _control_plane_wall() -> float:
    estimator = ServiceTimeEstimator()
    brownout = BrownoutController(dwell_s=0.0)
    breaker = CircuitBreaker()
    spec = RunSpec.periodic("BS", "drain", periods=2, seed=77)
    specs = (spec,)
    t0 = time.perf_counter()
    for i in range(CONTROL_OPS):
        estimator.observe(spec, 0.01 + (i % 7) * 1e-3)
        estimator.estimate_specs(specs)
        brownout.observe(i % 24, 24, float(i % 3))
        brownout.admits(i % 10)
        breaker.allow_pool()
        breaker.record_success()
    return time.perf_counter() - t0


def test_control_plane_ops(benchmark):
    wall = once(benchmark, _control_plane_wall)
    ops_per_s = CONTROL_OPS / wall if wall > 0 else float("inf")
    entry = {
        "iterations": CONTROL_OPS,
        "wall_s": round(wall, 4),
        "ops_per_s": round(ops_per_s, 1),
    }
    record_bench(BENCH_PATH, "control_plane", entry, QUICK)
    floor = os.environ.get("CHIMERA_OVERLOAD_FAIL_BELOW", "").strip()
    if floor:
        assert ops_per_s >= float(floor), (
            f"admission-gate control plane at {ops_per_s:.0f} ops/s "
            f"(floor {floor})")


def _shed_drain(tmp_path) -> dict:
    crit, best_effort = BURST
    svc = tmp_path / "svc"
    client = ServiceClient(svc)
    seed = 50_000
    # Critical first in glob order so they hold the slots through the
    # brownout escalation.
    for i in range(crit):
        client.submit([RunSpec.periodic("BS", "drain", periods=2,
                                        seed=seed)],
                      priority=7, job_id=f"a-crit-{i}")
        seed += 1
    for i in range(best_effort):
        client.submit([RunSpec.periodic("BS", "drain", periods=2,
                                        seed=seed)],
                      priority=0, job_id=f"b-be-{i}")
        seed += 1
    daemon = SchedulerDaemon(
        svc, capacity=crit + best_effort, heartbeat_s=600.0, poll_s=0.005,
        workers=2,
        brownout=BrownoutController(enter_frac=0.5, exit_frac=0.2,
                                    age_full_s=0.0, dwell_s=0.0),
        cache=ResultCache(tmp_path / "cache", enabled=False))
    daemon.start()
    t0 = time.perf_counter()
    try:
        daemon.run_until_idle(timeout_s=600.0)
        wall = time.perf_counter() - t0
    finally:
        daemon.shutdown()
    table = JobTable.from_records(JournalStore(svc).replay())
    states = {j.job_id: j.state for j in table.iter_jobs()}
    completed_crit = sum(1 for i in range(crit)
                         if states.get(f"a-crit-{i}") is JobState.COMPLETED)
    shed = sum(1 for s in states.values() if s is JobState.SHED)
    assert completed_crit == crit, "burst drain lost critical work"
    assert shed > 0, "aggressive brownout shed nothing"
    return {"wall_s": wall, "completed_critical": completed_crit,
            "shed": shed, "jobs": crit + best_effort,
            "estimator_samples": daemon.estimator.snapshot()["samples"]}


def test_shed_drain(benchmark, tmp_path):
    out = once(benchmark, lambda: _shed_drain(tmp_path))
    out["wall_s"] = round(out["wall_s"], 4)
    record_bench(BENCH_PATH, "shed_drain", out, QUICK)
