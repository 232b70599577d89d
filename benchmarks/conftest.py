"""Shared machinery for the figure-regeneration benchmarks.

Every paper table/figure has one ``bench_*`` file. Expensive sweeps are
computed once per session (cached here) and shared between figures that
the paper derives from the same runs (Fig. 6 and Fig. 7; Fig. 10 and
Fig. 11). Each benchmark writes its regenerated table to
``benchmarks/results/<name>.txt``.

All sweeps submit RunSpecs through one session-wide
:class:`~repro.harness.sweep.SweepRunner`: runs fan out over
``CHIMERA_JOBS`` worker processes and replay from the on-disk result
cache (``.chimera-cache/``) on re-runs. Per-sweep wall-clock and
serial-equivalent times land in ``benchmarks/results/timings.json`` so
the performance trajectory is trackable across commits.

Scale knobs (environment variables):

* ``CHIMERA_BENCH_PERIODS`` — 1 ms periods per periodic run (default 10)
* ``CHIMERA_BENCH_BUDGET``  — per-benchmark instruction budget for the
  case study (default 8e6)
* ``CHIMERA_BENCH_SEED``    — root seed (default 12345)
* ``CHIMERA_JOBS`` / ``CHIMERA_CACHE_DIR`` / ``CHIMERA_NO_CACHE`` — see
  :mod:`repro.harness.sweep`
* ``CHIMERA_SPEC_TIMEOUT`` / ``CHIMERA_MAX_RETRIES`` /
  ``CHIMERA_RETRY_BACKOFF`` / ``CHIMERA_KEEP_GOING`` /
  ``CHIMERA_FAULTS`` — fault-tolerance + fault-injection knobs; the
  session runner inherits them, so a crashed or hung worker costs one
  spec's retries, not the whole figure, and every completed sibling is
  already persisted in the cache. The ``retries`` / ``timeouts`` /
  ``failed`` / ``worker_deaths`` / ``degraded`` counters land in
  ``results/timings.json`` next to the wall-clock numbers.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Callable, Dict

import pytest

from repro.harness.experiments import (
    case_study_sweep,
    figure6_7,
    figure8,
    figure9,
)
from repro.harness.sweep import SweepRunner
from repro.workloads.multiprogram import pair_with_lud

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TIMINGS_PATH = RESULTS_DIR / "timings.json"

PERIODS = int(os.environ.get("CHIMERA_BENCH_PERIODS", "10"))
BUDGET = float(os.environ.get("CHIMERA_BENCH_BUDGET", "8e6"))
SEED = int(os.environ.get("CHIMERA_BENCH_SEED", "12345"))


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def _update_json(path: pathlib.Path, entries: dict) -> None:
    """Merge ``entries`` into the JSON object at ``path`` (a missing or
    unreadable file starts empty) and rewrite it with sorted keys."""
    RESULTS_DIR.mkdir(exist_ok=True)
    try:
        results = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        results = {}
    results.update(entries)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def record_bench(path: pathlib.Path, name: str, entry: dict, quick: bool,
                 **meta) -> None:
    """Store ``entry`` as scenario ``name`` of the BENCH record at
    ``path``, keeping its other scenarios, and stamp the record's
    ``_meta`` with ``quick``, the host's ``cpu_count`` and ``meta``."""
    _update_json(path, {name: entry, "_meta": {
        "quick": quick, "cpu_count": os.cpu_count(), **meta}})


def record_timing(name: str, wall_s: float, stats) -> None:
    """Append one sweep's timing record to ``results/timings.json``.

    ``wall_s`` is the whole sweep's wall clock; ``stats`` a
    :class:`~repro.harness.sweep.SweepStats` whose ``serial_equiv_s`` is
    what a one-worker, cold-cache sweep would have cost.
    """
    record = stats.as_dict()
    record["wall_s"] = round(wall_s, 4)
    record["cpu_count"] = os.cpu_count()
    _update_json(TIMINGS_PATH, {name: record})


@pytest.fixture(scope="session")
def sweep_runner() -> SweepRunner:
    """One runner for the whole benchmark session: solo baselines and
    repeated sweeps dedupe through its memo + disk cache. Retry, timeout
    and degradation warnings surface on stderr via the repro logger."""
    import repro

    repro.setup_logging()
    return SweepRunner()


class _Lazy:
    """Compute-once holder so paired figures share one sweep."""

    def __init__(self, name: str, runner: SweepRunner, fn: Callable):
        self._name = name
        self._runner = runner
        self._fn = fn
        self._value = None
        self._done = False

    def get(self):
        if not self._done:
            start = time.perf_counter()
            self._value = self._fn(self._runner)
            wall = time.perf_counter() - start
            if self._runner.last_stats is not None:
                record_timing(self._name, wall, self._runner.last_stats)
            self._done = True
        return self._value


@pytest.fixture(scope="session")
def fig67_sweep(sweep_runner) -> _Lazy:
    return _Lazy("fig6_7", sweep_runner,
                 lambda r: figure6_7(periods=PERIODS, seed=SEED, runner=r))


@pytest.fixture(scope="session")
def fig8_sweep(sweep_runner) -> _Lazy:
    return _Lazy("fig8", sweep_runner,
                 lambda r: figure8(periods=PERIODS, seed=SEED, runner=r))


@pytest.fixture(scope="session")
def fig9_sweep(sweep_runner) -> _Lazy:
    return _Lazy("fig9", sweep_runner, lambda r: figure9(
        periods=PERIODS, seed=SEED, runner=r,
        policies=("flush-strict", "flush", "flush-strict-nofallback")))


@pytest.fixture(scope="session")
def case_study(sweep_runner) -> _Lazy:
    def run(runner: SweepRunner) -> Dict[str, object]:
        return case_study_sweep(pair_with_lud(budget_insts=BUDGET),
                                seed=SEED, runner=runner)
    return _Lazy("fig10_11", sweep_runner, run)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
