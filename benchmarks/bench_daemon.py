"""Daemon drain-throughput benchmark: multi-slot scaling regression.

Submits a fixed batch of periodic jobs to a fresh service directory and
measures the end-to-end drain wall (intake -> journal -> execute ->
idle) at 1, 2, and 4 workers. One worker runs specs in the slot thread
(the PR 7 execution model); two and four run them in the forked process
pool, so the 2-worker speedup is the number that proves the multi-slot
rewrite actually escapes the GIL on multi-core machines.

Every worker count gets its own service directory *and* its own result
cache: the point is raw execution scaling, not cache replay.

Results land in ``benchmarks/results/BENCH_daemon.json`` with the host
``cpu_count`` in ``_meta`` — on a single-core runner the honest speedup
is ~1.0x, which is why the floor only arms when the environment asks
for it.

Scale knobs:

* ``CHIMERA_BENCH_DAEMON_QUICK`` — shrink the batch for CI smoke
* ``CHIMERA_DAEMON_FAIL_BELOW``  — fail if the 2-worker drain speedup
  over 1 worker drops below this factor (CI sets 1.5 on multi-core
  runners)
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import RESULTS_DIR, once, record_bench
from repro.harness.cache import ResultCache
from repro.harness.sweep import RunSpec
from repro.service import (
    JobState,
    JobTable,
    JournalStore,
    SchedulerDaemon,
    ServiceClient,
)

BENCH_PATH = RESULTS_DIR / "BENCH_daemon.json"

QUICK = bool(os.environ.get("CHIMERA_BENCH_DAEMON_QUICK", "").strip())

#: (jobs, specs per job, periods per spec). Job counts divide evenly
#: across 2 and 4 slots: jobs are the unit of slot parallelism, so a
#: remainder would cap the ideal speedup below worker count.
BATCH = (4, 2, 2) if QUICK else (8, 3, 2)

WORKER_COUNTS = (1, 2, 4)


def _batch_specs():
    jobs, per_job, periods = BATCH
    batch = []
    seed = 40_000
    for _ in range(jobs):
        specs = []
        for _ in range(per_job):
            specs.append(RunSpec.periodic("BS", "drain", periods=periods,
                                          seed=seed))
            seed += 1
        batch.append(specs)
    return batch


def _drain_wall(tmp_path, workers: int) -> float:
    svc = tmp_path / f"svc-w{workers}"
    client = ServiceClient(svc)
    for i, specs in enumerate(_batch_specs()):
        client.submit(specs, job_id=f"job-{i}")
    daemon = SchedulerDaemon(
        svc, capacity=64, heartbeat_s=600.0, poll_s=0.005, workers=workers,
        cache=ResultCache(tmp_path / f"cache-w{workers}", enabled=True))
    # Pool fork + warmup happens in start(), outside the timed region:
    # the number is sustained drain throughput, not cold-start cost.
    daemon.start()
    t0 = time.perf_counter()
    try:
        daemon.run_until_idle(timeout_s=1200.0)
        wall = time.perf_counter() - t0
    finally:
        daemon.shutdown()
    table = JobTable.from_records(JournalStore(svc).replay())
    jobs, per_job, _ = BATCH
    done = [j for j in table.iter_jobs()
            if j.state is JobState.COMPLETED and j.completed == per_job]
    assert len(done) == jobs, f"drain left work behind at {workers} workers"
    return wall


def test_drain_scaling(benchmark, tmp_path):
    walls = once(benchmark,
                 lambda: {w: _drain_wall(tmp_path, w)
                          for w in WORKER_COUNTS})
    jobs, per_job, periods = BATCH
    entry = {
        "walls_s": {str(w): round(walls[w], 4) for w in WORKER_COUNTS},
        "speedup_2w": round(walls[1] / walls[2], 4),
        "speedup_4w": round(walls[1] / walls[4], 4),
        "jobs": jobs,
        "specs_per_job": per_job,
        "periods": periods,
    }
    record_bench(BENCH_PATH, "drain_scaling", entry, QUICK)
    floor = os.environ.get("CHIMERA_DAEMON_FAIL_BELOW", "").strip()
    if floor:
        assert entry["speedup_2w"] >= float(floor), (
            f"2-worker drain only {entry['speedup_2w']:.2f}x the "
            f"single-worker wall (floor {floor}x)")
