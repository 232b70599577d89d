"""The two simulator workloads: the Figure 6/7 sweep and traffic replay.

Both run in this process, through the program's public entry points,
exactly as a user's script would: ``figure6_7`` through a
``SweepRunner`` into a fresh result cache, and ``run_traffic`` on the
three-tenant scenario. The amount of work per run is fixed by
``--seconds`` alone (never by how fast the code is), so the simulated
results and their digest depend only on the seed. Each run holds enough
operations (specs, or arrivals) for its p95 to have at least
:data:`~perfbench.common.MIN_BEYOND` samples beyond it.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import threading
import time
import traceback
from typing import Callable, List

from perfbench.common import (
    PeakRss,
    derive_seed,
    digest,
    min_samples,
    percentile,
    seeded_rng,
)
from perfbench.layers import install
from perfbench.spans import SpanRecorder, collect, patch
from perfbench.workload import Context, Outcome

#: Fig. 6/7 latency constraint, us, and 1 ms periods per spec. Five
#: periods instead of the figure's ten make a grid cheap enough that a
#: run holds the four grids its p95 needs.
FIG67_CONSTRAINT_US = 15.0
FIG67_PERIODS = 5
#: Nominal host seconds of one grid; sets how many grids fit a run.
FIG67_NOMINAL_S = 8
#: Specs re-executed in-process to cross-check the pool's results.
FIG67_CROSSCHECK = 1
#: Paper's Chimera averages (Fig. 6 violations, Fig. 7 overhead), %.
PAPER_VIOLATION_PCT = 0.2
PAPER_OVERHEAD_PCT = 10.1

#: Nominal host seconds of one traffic replay.
TRAFFIC_NOMINAL_S = 4.5
TRAFFIC_HORIZON_US = 120_000.0
TRAFFIC_DRAIN_US = 30_000.0
TRAFFIC_TARGET_KERNEL_US = 150.0

#: Longest a set-up's import may take before it is killed, s.
SETUP_TIMEOUT_S = 120
MODULES_FIG67 = ["repro.harness.experiments", "repro.harness.sweep"]
MODULES_TRAFFIC = ["repro.harness.scenario", "repro.workloads.traffic"]


def fig67_specs(seed: int):
    """The grid ``figure6_7`` submits: 14 benchmarks x 4 policies."""
    from repro.core.chimera import POLICY_NAMES
    from repro.harness.sweep import RunSpec
    from repro.workloads.specs import benchmark_labels

    return [RunSpec.periodic(label, policy, constraint_us=FIG67_CONSTRAINT_US,
                             periods=FIG67_PERIODS, seed=seed)
            for label in benchmark_labels() for policy in POLICY_NAMES]


def _fig67_tables(sweep) -> str:
    from repro.core.chimera import POLICY_NAMES
    from repro.metrics.report import format_percent, format_table

    def table(title: str, cell) -> str:
        rows = [[label] + [format_percent(cell(label, p)) for p in POLICY_NAMES]
                for label in sweep.results]
        return format_table(["benchmark", *POLICY_NAMES], rows, title=title)

    return "\n\n".join([
        table("Figure 6. Deadline violations @ 15us", sweep.violation_rate),
        table("Figure 7. Throughput overhead @ 15us", sweep.overhead)])


def fig67_grids(seconds: int, specs: int) -> int:
    """Grids per run: ``round(seconds / 8)``, and never fewer than the
    p95 of their specs' latencies needs."""
    return max(math.ceil(min_samples(95) / specs),
               round(seconds / FIG67_NOMINAL_S))


def fig67(ctx: Context, traced: bool) -> Outcome:
    """Run the Figure 6/7 grid :func:`fig67_grids` times, each into a
    fresh, empty cache through ``SweepRunner(jobs=width)``.

    An operation is one spec of the grid; its latency runs from the
    sweep's start until its result lands in the cache, read from the
    cache entry's modification time, so no code is wrapped to get it.
    """
    from repro.harness.cache import ResultCache
    from repro.harness.experiments import figure6_7
    from repro.harness.sweep import SweepRunner

    specs = fig67_specs(ctx.seed)
    grids = fig67_grids(ctx.seconds, len(specs))
    tag = "traced" if traced else "plain"
    recorder = (SpanRecorder(worker_dir=ctx.fresh_dir(f"fig67-{tag}-spans"))
                if traced else None)
    walls: List[float] = []
    runs = []
    with PeakRss() as rss:
        uninstall = install(recorder) if recorder is not None else None
        try:
            for g in range(grids):
                cache = ResultCache(ctx.fresh_dir(f"fig67-{tag}-cache-{g}"),
                                    enabled=True)
                runner = SweepRunner(jobs=ctx.width, cache=cache,
                                     strict=False)
                started = time.time()
                start = time.perf_counter()
                sweep = figure6_7(constraint_us=FIG67_CONSTRAINT_US,
                                  periods=FIG67_PERIODS, seed=ctx.seed,
                                  runner=runner)
                _fig67_tables(sweep)
                walls.append(time.perf_counter() - start)
                runs.append((sweep, runner.last_stats, cache, started))
        finally:
            if uninstall is not None:
                uninstall()

    durations: List[float] = []
    turnaround_ms: List[float] = []
    failed = 0
    for sweep, _, cache, started in runs:
        failed += len(sweep.failures)
        for spec in specs:
            key = spec.cache_key()
            entry = cache.get(key)
            if entry is not None:
                durations.append(entry.duration_s)
                turnaround_ms.append(
                    1000.0 * (cache.path_for(key).stat().st_mtime - started))
    sweep = runs[0][0]
    digests = [digest(r[0].results) for r in runs]
    cells = sum(len(per_policy) for per_policy in sweep.results.values())

    rng = seeded_rng(ctx.seed, "fig67-crosscheck")
    sample = rng.sample(specs, FIG67_CROSSCHECK)
    crosscheck = all(
        digest(spec.execute()) == digest(sweep.results[spec.label][spec.policy])
        for spec in sample if spec.label in sweep.results
        and spec.policy in sweep.results[spec.label])

    out = Outcome(
        wall_s=statistics.median(walls),
        latencies_ms=turnaround_ms,
        attempted=len(specs) * grids,
        failed=failed,
        digest=digests[0],
        peak_rss_mb=rss.peak_mb,
    )
    out.sim = {
        "violation_pct": (100.0 * sweep.average_violation_rate("chimera"),
                          "%", "lower", PAPER_VIOLATION_PCT),
        "overhead_pct": (100.0 * sweep.average_overhead("chimera"), "%",
                         "lower", PAPER_OVERHEAD_PCT),
    }
    out.checks = {
        "every cell of the 14x4 grid has a result": cells == len(specs),
        "no spec failed": failed == 0,
        "every grid of the run gives the same digest": len(set(digests)) == 1,
        f"{FIG67_CROSSCHECK} sampled specs re-executed in-process match":
            crosscheck,
    }
    total_spec_s = sum(d for d in durations[:len(specs)])
    out.layer = {
        "harness.sweep.executed": float(sum(r[1].executed for r in runs)),
        "harness.sweep.retries": float(sum(r[1].retries for r in runs)),
        "harness.sweep.failed": float(sum(r[1].failed for r in runs)),
        "harness.sweep.spec_s_p50": percentile(durations, 50)
        if durations else 0.0,
        "harness.sweep.spec_s_max": max(durations, default=0.0),
        "harness.sweep.imbalance": ctx.width * walls[0] / total_spec_s
        if total_spec_s else 0.0,
    }
    out.notes = [f"grids: {grids} x {len(specs)} specs, jobs={ctx.width}, "
                 f"walls_s={[round(w, 3) for w in walls]}",
                 f"cache hits in the fresh caches: "
                 f"{sum(r[1].cache_hits for r in runs)}"]
    if recorder is not None:
        out.spans = collect(recorder)
    return out


# ----------------------------------------------------------------------
# traffic replay
# ----------------------------------------------------------------------


def traffic_scenario():
    """The three-tenant scenario on 8 SMs, as
    ``benchmarks/bench_traffic.py`` defines it at full size."""
    from repro.gpu.config import GPUConfig
    from repro.harness.scenario import ScenarioSpec
    from repro.workloads.traffic import ArrivalSpec, TenantSpec

    tenants = (
        TenantSpec(name="web", mix="table2-short", priority=2,
                   slo_us=3_000.0,
                   arrival=ArrivalSpec(kind="poisson", rate_per_s=3_000.0)),
        TenantSpec(name="day", mix="dl-infer", priority=1, slo_us=5_000.0,
                   arrival=ArrivalSpec(kind="diurnal", rate_per_s=1_500.0,
                                       amplitude=0.8, period_us=30_000.0)),
        TenantSpec(name="batch", mix="dl-train", priority=0,
                   slo_us=10_000.0,
                   arrival=ArrivalSpec(kind="bursty", rate_per_s=1_000.0,
                                       burst_factor=6.0)),
    )
    config = GPUConfig(num_sms=8, num_memory_partitions=2,
                       memory_bandwidth_gbps=177.4 * 8 / 30)
    scenario = ScenarioSpec(tenants=tenants, horizon_us=TRAFFIC_HORIZON_US,
                            drain_us=TRAFFIC_DRAIN_US)
    return scenario, config


def traffic_seeds(seed: int, seconds: int) -> List[int]:
    """One derived stream seed per replay of the run."""
    replays = max(1, round(seconds / TRAFFIC_NOMINAL_S))
    return [derive_seed(seed, "traffic", k) % (2 ** 31)
            for k in range(replays)]


def clock_launches(stamps: List[float]) -> Callable[[], None]:
    """Append the host time of every kernel launch that carries a
    completion callback (in a replay, each arrival is one) to ``stamps``;
    returns a function that unhooks. This one wrapper is the only hook
    in an untraced pass: one clock read per arrival."""
    from repro.sched.kernel_scheduler import KernelScheduler

    def hook(launch: Callable) -> Callable:
        def clocked(self, kernel, *args, **kwargs):
            if kwargs.get("on_finished") is not None:
                stamps.append(time.perf_counter())
            return launch(self, kernel, *args, **kwargs)
        return clocked

    undo: List[Callable[[], None]] = []
    patch(KernelScheduler, "launch_kernel", hook, undo)
    return undo[0]


def _matches_stream(scenario, seed: int, result) -> bool:
    """The SLO report accounts for exactly the arrivals of its stream."""
    stream = scenario.stream(seed)
    slo = result.slo
    return (slo["arrivals"] == len(result.outcomes) == len(stream)
            and [o.seq for o in result.outcomes] == [a.seq for a in stream]
            and slo["met"] <= slo["arrivals"]
            and slo["completed"] + slo["dropped"] == slo["arrivals"])


def traffic(ctx: Context, traced: bool) -> Outcome:
    """Replay the scenario under ``chimera`` once per derived seed,
    ``round(seconds / 4.5)`` times (at least once). ``wall_s`` is the
    mean replay, from its input to its SLO report: the replays differ by
    their streams far more than by host noise (one takes 3.5 s, another
    5.7 s), and over a handful of them the mean of such a spread moves
    less between seeds than the median does. An operation is one
    arrival step: the host time from an arrival's launch to the next
    one's (:func:`clock_launches`), what the simulator takes to carry
    the replay through that arrival's interval. A replay holds hundreds,
    so the p95 is a tail estimate. The time from an arrival's launch to
    its completion is no use here: past saturation most arrivals are
    dropped at the drain cut-off, and the few long waits that set its
    tail change with the stream, so its p95 changes several-fold from
    one seed to the next."""
    from repro.harness.scenario import run_traffic

    scenario, config = traffic_scenario()
    seeds = traffic_seeds(ctx.seed, ctx.seconds)
    recorder = SpanRecorder() if traced else None
    walls: List[float] = []
    steps: List[float] = []
    reports, digests, matched, launched, errors = [], [], [], [], []
    with PeakRss() as rss:
        stamps: List[float] = []
        unhook = clock_launches(stamps)
        uninstall = install(recorder) if recorder is not None else None
        try:
            for s in seeds:
                stamps.clear()
                start = time.perf_counter()
                try:
                    result = run_traffic(
                        scenario, policy_name="chimera", seed=s,
                        config=config,
                        target_kernel_us=TRAFFIC_TARGET_KERNEL_US)
                except Exception:  # noqa: BLE001 - counted, reported
                    errors.append(f"replay of seed {s} failed:\n"
                                  + traceback.format_exc().rstrip())
                    continue
                walls.append(time.perf_counter() - start)
                steps += [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]
                reports.append(result.slo)
                digests.append(digest((result.slo, result.outcomes,
                                       result.qos)))
                matched.append(_matches_stream(scenario, s, result))
                launched.append(len(stamps) == result.slo["arrivals"])
                # Only these summaries outlive the replay, so the peak
                # memory is one replay's, not every replay's held at once.
                del result
        finally:
            if uninstall is not None:
                uninstall()
            unhook()

    arrivals = sum(r["arrivals"] for r in reports)
    met = sum(r["met"] for r in reports)
    out = Outcome(
        wall_s=statistics.fmean(walls) if walls else float("nan"),
        latencies_ms=steps,
        attempted=len(seeds),
        failed=len(errors),
        digest=digest(digests),
        peak_rss_mb=rss.peak_mb,
    )
    out.sim = {"slo_attainment": (met / arrivals if arrivals else 0.0,
                                  "ratio", "higher", None)}
    out.checks = {
        "every replay finished": not errors,
        "each report matches its arrival stream": all(matched),
        "every arrival launched once": all(launched),
    }
    out.notes = [f"replays: {len(seeds)} (seeds {seeds}), "
                 f"walls_s={[round(w, 3) for w in walls]}, "
                 f"arrivals={arrivals}, met={met}"] + errors
    if recorder is not None:
        out.spans = collect(recorder)
    return out


def setup_s(ctx: Context, workload: str) -> float:
    """One set-up of a simulator workload: the seconds a fresh
    interpreter takes to import, from source, what the workload runs, as
    a user's first command pays it."""
    modules = MODULES_FIG67 if workload == "fig67_sweep" else MODULES_TRAFFIC
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c",
                              "; ".join(f"import {m}" for m in modules)],
                             env=ctx.env(), cwd=ctx.scratch)
    # wait() with a timeout polls every 50 ms, a sixth of an import's
    # time; without one it returns as the child exits, and the timer
    # bounds it instead.
    killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
    seconds = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, child.args)
    return seconds
