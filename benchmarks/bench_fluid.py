"""Sweep-harness throughput benchmark.

``sweep_throughput`` drives a 10k-spec sweep through the sharded result
cache, spec execution stubbed to a constant so the number measures the
*harness* (hashing, dedupe, atomic cache writes, shard reads) rather
than the simulator. A cold pass
executes everything; a warm pass must replay entirely from the sharded
cache. The simulator's end-to-end speed is recorded by the repository
benchmark's ``fig67_sweep`` workload (``perfbench/run.py``).

Results land in machine-readable ``benchmarks/results/BENCH_fluid.json``
(wall seconds and specs/s, with the machine's ``cpu_count`` in
``_meta``) like ``BENCH_cycle.json``.

Scale knob:

* ``CHIMERA_BENCH_FLUID_QUICK`` — shrink the sweep to 1k specs for CI
  smoke
"""

from __future__ import annotations

import os

from benchmarks.conftest import RESULTS_DIR, once, record_bench
from repro.harness import sweep as sweep_mod
from repro.harness.cache import ResultCache
from repro.harness.sweep import RunSpec, SweepRunner
from repro.workloads.specs import benchmark_labels

BENCH_PATH = RESULTS_DIR / "BENCH_fluid.json"

QUICK = bool(os.environ.get("CHIMERA_BENCH_FLUID_QUICK", "").strip())


def test_sweep_throughput(benchmark, tmp_path, monkeypatch):
    n = 1_000 if QUICK else 10_000
    labels = benchmark_labels()
    policies = ("switch", "drain", "flush", "chimera")
    specs = []
    seed = 0
    while len(specs) < n:
        for label in labels:
            for policy in policies:
                specs.append(RunSpec.periodic(label, policy, periods=1,
                                              seed=seed))
                if len(specs) == n:
                    break
            else:
                continue
            break
        seed += 1
    # Stub the executor: this scenario times the sweep harness, not the
    # simulator.
    monkeypatch.setattr(
        sweep_mod, "execute_faulted",
        lambda spec, index, attempt: ({"spec": spec.describe()}, 1e-4))

    cache_dir = tmp_path / "fluid-sweep-cache"

    def drive() -> dict:
        cold = SweepRunner(jobs=1, cache=ResultCache(cache_dir))
        import time
        start = time.perf_counter()
        cold.run(specs)
        cold_wall = time.perf_counter() - start
        assert cold.last_stats.executed == n
        warm = SweepRunner(jobs=1, cache=ResultCache(cache_dir))
        start = time.perf_counter()
        warm.run(specs)
        warm_wall = time.perf_counter() - start
        assert warm.last_stats.cache_hits == n
        assert warm.last_stats.executed == 0
        return {"cold_wall_s": cold_wall, "warm_wall_s": warm_wall}

    run = once(benchmark, drive)
    # Every entry must have landed in a two-hex shard subdirectory.
    assert not list(cache_dir.glob("*.pkl"))
    sharded = list(cache_dir.glob("*/*.pkl"))
    assert len(sharded) == n
    assert all(p.parent.name == p.stem[:2] for p in sharded)
    record_bench(BENCH_PATH, "sweep_throughput", {
        "specs": n,
        "cold_wall_s": round(run["cold_wall_s"], 4),
        "warm_wall_s": round(run["warm_wall_s"], 4),
        "cold_specs_per_s": round(n / max(run["cold_wall_s"], 1e-9)),
        "warm_specs_per_s": round(n / max(run["warm_wall_s"], 1e-9)),
    }, QUICK)
