"""The open-loop daemon workload.

Independent users submit jobs through ``ServiceClient`` to a fresh
``python -m repro serve --workers <width>`` subprocess at a fixed
Poisson rate; the schedule never adapts to how fast the daemon is.
Each job holds one or two 1-period periodic specs. About three fifths of
the specs repeat a small hot set that set-up precomputes into the
shared result cache, so those are served inline as cache hits; the
rest are distinct and run in the daemon's worker pool.

Every latency is measured from the job's *due* time to its COMPLETED
journal record, so generator lateness, submit cost, spool pickup,
queueing, execution, merge and fsync all count. The breakdown comes
from the journal's own timestamps and the per-spec result parts
(:func:`breakdown`), which is why it exists for untraced runs too.

Once the open loop has drained, closed batches follow, one after
another: each is the whole Figure 6/7 grid as fresh 1-period specs, two
per job, submitted at once. Their median makespan is the daemon's
``wall_s``, the time a user waits for a batch when the pool runs at
full width. The open-loop window is fixed by the schedule, so it could
not serve as a wall.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from perfbench.common import (
    MIN_BEYOND,
    PeakRss,
    digest,
    min_samples,
    percentile,
    seeded_rng,
)
from perfbench.layers import install
from perfbench.spans import SpanRecorder, collect
from perfbench.workload import Context, Outcome

#: Jobs that are re-executed in-process to check their results.
SAMPLE_JOBS = 3
#: The p95 latency limit every run is judged against, ms.
P95_LIMIT_MS = 1000.0
#: Specs per job of the closed batch. With 56 grid specs that is 28
#: jobs, well under the admission capacity (64) and the brownout
#: watermark (0.85 of it), so none is refused or shed.
BATCH_SPECS_PER_JOB = 2
#: Closed batches per pass; ``wall_s`` is their median makespan, as
#: one batch's makespan moves by a tenth or more with the host alone.
BATCH_ROUNDS = 3
#: How long to wait for the last jobs after the arrival window, s.
DRAIN_TIMEOUT_S = 60.0
#: Benchmarks whose specs are the open loop's misses: three whose
#: 1-period specs cost about the same, and little (6-33 ms each on a
#: 2-vCPU Xeon VM, where the grid spans 3-300 ms). Even costs make the
#: jobs with misses a dense group instead of a long, sparse tail set by
#: where the few costliest specs land; small ones keep the pool rarely
#: busy, so a slower host does not also queue jobs behind it, which
#: would multiply its slowdown in the latencies. The open loop measures
#: the serving path; the closed batches run the whole grid.
MISS_LABELS = ("BS", "KM", "ST")
#: A run is overloaded when, over the second half of the arrival
#: window, the backlog grows faster than this share of the rate.
GROWTH_SHARE = 0.05


@dataclass
class Job:
    job_id: str
    specs: Tuple[Any, ...]
    #: Wall-clock (``time.time()``) second the job is due.
    due: float = 0.0
    submit_start: float = 0.0
    submit_end: float = 0.0
    #: Why the client could not submit the job, if it could not.
    rejected: Optional[str] = None


def plan_jobs(seed: int, count: int, rate_per_s: float
              ) -> Tuple[List[Any], List[Job], List[float]]:
    """The hot set, the jobs, and their due offsets (s) for a seed.

    The seed decides the order of everything and every spec's own seed;
    the mix is fixed so that runs on different seeds carry the same
    amount and shape of work. Jobs hold one or two specs, and 15 of
    every 24 specs (62%) come from the hot set. 65% of the jobs are hits
    only, 25% hold one miss and 10% two, so the p50 falls inside the
    hit-only jobs and the p95 among the jobs with misses, mostly the
    two-miss ones: neither sits at a gap between two groups, where a
    small shift in their shares would move it by the width of the gap.
    The hot set holds one spec per benchmark; the misses cycle through
    every (benchmark, policy) pair of :data:`MISS_LABELS`, reshuffled
    each cycle, each with a spec seed of its own. Arrivals are a Poisson
    process of ``count`` jobs at ``rate_per_s``: given their number,
    Poisson arrival times are independent and uniform over the window
    ``count / rate_per_s``.
    """
    from repro.core.chimera import POLICY_NAMES
    from repro.harness.sweep import RunSpec
    from repro.workloads.specs import benchmark_labels

    rng = seeded_rng(seed, "daemon-jobs")
    labels = benchmark_labels()

    def spec(label: str, policy: str) -> Any:
        return RunSpec.periodic(label, policy, periods=1,
                                seed=rng.randrange(2 ** 31))

    def cycle(items: List[Any]):
        while True:
            order = list(items)
            rng.shuffle(order)
            yield from order

    hot = [spec(label, rng.choice(POLICY_NAMES)) for label in labels]
    # Each shape lists which of its specs are hits, in job order.
    shapes = [(True,), (True, True), (False,), (True, False),
              (False, False)]
    weights = [12, 1, 4, 1, 2]  # twentieths of ``count``
    plan = [shape for shape, w in zip(shapes, weights)
            for _ in range(count * w // 20)]
    plan += [shapes[i % len(shapes)] for i in range(count - len(plan))]
    rng.shuffle(plan)
    hot_picks = cycle(hot)
    pairs = cycle([(label, policy) for label in MISS_LABELS
                   for policy in POLICY_NAMES])
    jobs = [Job(job_id=f"job-{i:05d}",
                specs=tuple(next(hot_picks) if hit else spec(*next(pairs))
                            for hit in shape))
            for i, shape in enumerate(plan)]
    window = count / rate_per_s
    offsets = sorted(rng.uniform(0.0, window) for _ in range(count))
    return hot, jobs, offsets


def plan_batch(seed: int, round_: int) -> List[Job]:
    """One closed batch for a seed: every (benchmark, policy) pair of the
    Figure 6/7 grid once, as a 1-period spec with a seed of its own,
    :data:`BATCH_SPECS_PER_JOB` specs per job. The seed and the round
    decide only the spec seeds: jobs and their order follow the grid, so
    that the makespan does not hinge on where the seed puts the
    costliest jobs."""
    from repro.core.chimera import POLICY_NAMES
    from repro.harness.sweep import RunSpec
    from repro.workloads.specs import benchmark_labels

    rng = seeded_rng(seed, "daemon-batch", round_)
    specs = [RunSpec.periodic(label, policy, periods=1,
                              seed=rng.randrange(2 ** 31))
             for label in benchmark_labels() for policy in POLICY_NAMES]
    n = BATCH_SPECS_PER_JOB
    return [Job(job_id=f"batch-{round_}-{i // n:03d}",
                specs=tuple(specs[i:i + n]))
            for i in range(0, len(specs), n)]


# ----------------------------------------------------------------------
# the daemon subprocess
# ----------------------------------------------------------------------


class Daemon:
    """A ``serve`` subprocess in its own session, stopped on exit."""

    def __init__(self, ctx: Context, svc: Path, cache: Path,
                 span_dir: Optional[Path] = None):
        self.svc = svc
        command = [sys.executable]
        if span_dir is None:
            command += ["-m", "repro"]
        else:
            command += [str(ctx.root / "perfbench" / "daemon_launcher.py"),
                        str(span_dir)]
        command += ["serve", "--dir", str(svc), "--workers", str(ctx.width)]
        self.log = open(svc.parent / f"{svc.name}.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=ctx.scratch, stdout=self.log, stderr=subprocess.STDOUT,
            env=ctx.env(CHIMERA_CACHE_DIR=str(cache)), start_new_session=True)

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Until the first tick's beacon shows the pool is up."""
        beacon = self.svc / "control" / "daemon.json"
        deadline = time.monotonic() + timeout_s
        while not beacon.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}"
                                   f" during start-up; see {self.log.name}")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not start in time")
            time.sleep(0.002)

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGTERM (a drain), then kill whatever is left of the session."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=timeout_s)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=timeout_s)
        finally:
            _reap_session(self.proc.pid)
            self.log.close()
        return self.proc.returncode


def _session_members(sid: int) -> List[int]:
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # Fields after the command: state, ppid, pgrp, session, ...
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(name))
    return members


def _reap_session(sid: int, timeout_s: float = 30.0) -> None:
    """Kill every process left in the daemon's session and wait until
    none is alive."""
    try:
        os.killpg(sid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout_s
    while _session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.01)


def setup(ctx: Context, name: str, hot: Sequence[Any],
          span_dir: Optional[Path] = None) -> Tuple[Daemon, Path, float]:
    """Fresh service dir and cache, hot set precomputed into the cache,
    daemon started and ready. Returns the daemon, the cache dir, and the
    seconds it took."""
    from repro.harness.cache import ResultCache
    from repro.harness.sweep import SweepRunner

    start = time.perf_counter()
    svc = ctx.fresh_dir(f"{name}-svc")
    cache = ctx.fresh_dir(f"{name}-cache")
    SweepRunner(jobs=1, cache=ResultCache(cache, enabled=True)).run(hot)
    daemon = Daemon(ctx, svc, cache, span_dir)
    try:
        daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return daemon, cache, time.perf_counter() - start


def setup_s(ctx: Context, name: str) -> float:
    """One full set-up, then a clean stop (for the set-up median)."""
    hot, _, _ = plan_jobs(ctx.seed, 1, ctx.rate_per_s)
    daemon, _, seconds = setup(ctx, name, hot)
    daemon.stop()
    return seconds


# ----------------------------------------------------------------------
# journal-derived latency breakdown
# ----------------------------------------------------------------------


def breakdown(records: Sequence[Dict[str, Any]], jobs: Sequence[Job],
              parts: Dict[str, List[Dict[str, Any]]],
              cached: Set[str]) -> Dict[str, Dict[str, float]]:
    """Per completed job, where its time went, in ms.

    ``spool_wait`` runs from the end of the client's submit to the QUEUED
    record, ``queue_wait`` from QUEUED to the first RUNNING record, and
    ``run`` from there to COMPLETED. ``handoff`` is ``run`` minus the
    execution time the workers reported for the job's specs that were
    not already in the cache (``cached`` keys report the duration stored
    with the cached result, not time spent now): pool hand-off, cache
    reads, result writes, merge and commit. ``latency`` runs from the due
    time to COMPLETED.
    """
    stamps: Dict[str, Dict[str, float]] = {}
    for record in records:
        if record.get("type") != "transition":
            continue
        seen = stamps.setdefault(record["job"], {})
        seen.setdefault(record["to"], float(record["t"]))
    out: Dict[str, Dict[str, float]] = {}
    for job in jobs:
        seen = stamps.get(job.job_id, {})
        if not {"queued", "running", "completed"} <= set(seen):
            continue
        run = seen["completed"] - seen["running"]
        worked = sum(float(p.get("duration_s", 0.0))
                     for p in parts.get(job.job_id, ())
                     if p.get("key") not in cached)
        out[job.job_id] = {
            "latency": 1000.0 * (seen["completed"] - job.due),
            "late": 1000.0 * (job.submit_start - job.due),
            "submit": 1000.0 * (job.submit_end - job.submit_start),
            "spool_wait": 1000.0 * (seen["queued"] - job.submit_end),
            "queue_wait": 1000.0 * (seen["running"] - seen["queued"]),
            "run": 1000.0 * run,
            "handoff": 1000.0 * (run - worked),
        }
    return out


def backlog_growth(samples: Sequence[Tuple[float, int]]) -> float:
    """Least-squares slope (jobs/s) of outstanding jobs over time."""
    if len(samples) < 2:
        return 0.0
    n = len(samples)
    mt = sum(t for t, _ in samples) / n
    mb = sum(b for _, b in samples) / n
    var = sum((t - mt) ** 2 for t, _ in samples)
    if var == 0:
        return 0.0
    return sum((t - mt) * (b - mb) for t, b in samples) / var


# ----------------------------------------------------------------------
# the open loop
# ----------------------------------------------------------------------


def _count(directory: Path, suffix: str) -> int:
    try:
        return sum(1 for p in os.scandir(directory) if p.name.endswith(suffix))
    except FileNotFoundError:
        return 0


def job_count(ctx: Context) -> int:
    """Jobs per run: the rate over the run, and never fewer than the p95
    needs to have ``MIN_BEYOND`` samples beyond it."""
    return max(min_samples(95, MIN_BEYOND),
               round(ctx.rate_per_s * ctx.seconds))


def _submit(client: Any, job: Job) -> None:
    from repro.errors import ReproError

    job.submit_start = time.time()
    try:
        client.submit(job.specs, job_id=job.job_id)
    except ReproError as exc:
        job.rejected = f"client: {type(exc).__name__}: {exc}"
    job.submit_end = time.time()


def drive(client: Any, svc: Path, jobs: Sequence[Job],
          offsets: Sequence[float], batches: Sequence[Sequence[Job]]
          ) -> Tuple[float, List[Tuple[float, int]]]:
    """Submit every job at its due time and wait for the last ones; then
    submit each batch at once and wait for it.

    Returns when the arrival window ended and the backlog (submitted but
    not yet completed or rejected) sampled every 0.25 s during it.
    """
    samples: List[Tuple[float, int]] = []
    submitted = [0]
    batched = [job for batch in batches for job in batch]
    stop = threading.Event()

    def done() -> int:
        return (_count(svc / "results", ".json")
                + _count(svc / "spool", ".rejected.json")
                + sum(1 for job in (*jobs, *batched) if job.rejected))

    def wait_for(total: int) -> None:
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while done() < total and time.monotonic() < deadline:
            time.sleep(0.01)

    def sample() -> None:
        while not stop.wait(0.25):
            samples.append((time.time(), submitted[0] - done()))

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        t0 = time.time() + 0.05
        for job, offset in zip(jobs, offsets):
            job.due = t0 + offset
            delay = job.due - time.time()
            if delay > 0:
                time.sleep(delay)
            _submit(client, job)
            submitted[0] += 1
        window_end = time.time()
        wait_for(len(jobs))
    finally:
        stop.set()
        sampler.join(timeout=5.0)
    total = len(jobs)
    for batch in batches:
        for job in batch:
            _submit(client, job)
        total += len(batch)
        wait_for(total)
    return window_end, [(t, b) for t, b in samples if t <= window_end]


def check(ctx: Context, svc: Path, cache_dir: Path, jobs: Sequence[Job],
          records: Sequence[Dict[str, Any]],
          results: Dict[str, Dict[str, Any]]) -> Dict[str, bool]:
    """The output checks of one pass over the open loop."""
    from repro.harness.cache import ResultCache
    from repro.harness.runner import result_qos
    from repro.harness.scenario import result_slo
    from repro.service import JobState, JobTable
    from repro.service.daemon import reconcile_qos

    table = JobTable.from_records(list(records))
    created: Dict[str, int] = {}
    finished: Dict[str, int] = {}
    for record in records:
        if record.get("type") != "transition":
            continue
        job_id = record["job"]
        if record["from"] is None:
            created[job_id] = created.get(job_id, 0) + 1
        if record["to"] == JobState.COMPLETED.value:
            finished[job_id] = finished.get(job_id, 0) + 1
    ids = {job.job_id for job in jobs}
    qos = reconcile_qos(svc)

    cache = ResultCache(cache_dir, enabled=True)
    sample = seeded_rng(ctx.seed, "daemon-sample").sample(
        list(jobs), min(SAMPLE_JOBS, len(jobs)))
    matches = []
    for job in sample:
        parts = results.get(job.job_id, {}).get("specs", [])
        if len(parts) != len(job.specs):
            matches.append(False)
            continue
        for spec, part in zip(job.specs, parts):
            result = spec.execute()
            entry = cache.get(spec.cache_key())
            matches.append(
                part["key"] == spec.cache_key()
                and _json(part["qos"]) == _json(result_qos(result))
                and _json(part["slo"]) == _json(result_slo(result))
                and entry is not None
                and digest(entry.result) == digest(result))
    return {
        "every job completed": all(
            table.jobs.get(i) is not None
            and table.jobs[i].state is JobState.COMPLETED
            and table.jobs[i].completed == len(table.jobs[i].specs)
            for i in ids),
        "journal has every job exactly once": set(table.jobs) == ids and all(
            created.get(i) == 1 and finished.get(i) == 1 for i in ids),
        "reconcile_qos is clean": bool(qos["consistent"])
        and qos["completed_jobs"] == len(ids),
        f"{len(matches)} sampled specs match in-process RunSpec.execute":
            bool(matches) and all(matches),
    }


def openloop(ctx: Context, traced: bool) -> Outcome:
    """One pass: set up, drive the open loop, stop, check, measure."""
    from repro.service import JobState, JobTable, JournalStore, ServiceClient

    tag = "traced" if traced else "plain"
    hot, jobs, offsets = plan_jobs(ctx.seed, job_count(ctx), ctx.rate_per_s)
    batches = [plan_batch(ctx.seed, r) for r in range(BATCH_ROUNDS)]
    batched = [job for batch in batches for job in batch]
    span_dir = ctx.fresh_dir(f"daemon-{tag}-spans") if traced else None
    recorder = SpanRecorder() if traced else None
    with PeakRss() as rss:
        daemon, cache_dir, setup_seconds = setup(ctx, f"daemon-{tag}", hot,
                                                 span_dir)
        uninstall = install(recorder) if recorder is not None else None
        try:
            window_end, backlog = drive(ServiceClient(daemon.svc),
                                        daemon.svc, jobs, offsets, batches)
        finally:
            if uninstall is not None:
                uninstall()
            code = daemon.stop()
    svc = daemon.svc

    records = JournalStore(svc).replay()
    everyone = [*jobs, *batched]
    results = {}
    for job in everyone:
        path = svc / "results" / f"{job.job_id}.json"
        if path.exists():
            results[job.job_id] = json.loads(path.read_text())
    rejections = {job.job_id: job.rejected for job in everyone
                  if job.rejected}
    for path in (svc / "spool").glob("*.rejected.json"):
        record = json.loads(path.read_text())
        rejections[record["job_id"]] = record.get("reason", "unknown")
    per_job = breakdown(records, jobs,
                        {i: r["specs"] for i, r in results.items()},
                        {spec.cache_key() for spec in hot})
    done = [job for job in jobs if job.job_id in per_job]

    def pct(key: str, q: float) -> float:
        values = [per_job[j.job_id][key] for j in done]
        return percentile(values, q) if values else 0.0

    latencies = [per_job[j.job_id]["latency"] for j in done]
    completed_t = {r["job"]: float(r["t"]) for r in records
                   if r.get("type") == "transition"
                   and r["to"] == JobState.COMPLETED.value}
    batch_done = [job.job_id for job in batched
                  if job.job_id in completed_t]
    # A batch's makespan, when every job of it completed.
    makespans = [max(completed_t[job.job_id] for job in batch)
                 - batch[0].submit_start for batch in batches
                 if all(job.job_id in completed_t for job in batch)]
    half = [(t, b) for t, b in backlog
            if t >= (jobs[0].due + window_end) / 2]
    growth = backlog_growth(half)
    outstanding = backlog[-1][1] if backlog else 0
    overloaded = outstanding > 0 and growth > GROWTH_SHARE * ctx.rate_per_s
    out = Outcome(
        wall_s=(statistics.median(makespans) if makespans
                else float("nan")),
        latencies_ms=latencies,
        attempted=len(everyone),
        failed=len(jobs) - len(done) + len(batched) - len(batch_done),
        digest=digest(sorted(
            (job_id, [(p["key"], p["qos"], p["slo"]) for p in r["specs"]])
            for job_id, r in results.items())),
        peak_rss_mb=rss.peak_mb,
        setup_s=setup_seconds,
        overloaded=overloaded,
    )
    out.checks = check(ctx, svc, cache_dir, everyone, records, results)
    out.checks["daemon drained and exited with 0"] = code == 0

    reasons = [r if r in ("capacity", "brownout", "unmeetable-slo")
               else "other" for r in rejections.values()]
    counts = JobTable.from_records(records).counts()
    late = [per_job[j.job_id]["late"] for j in done]
    out.layer = {
        f"service.daemon.{key}_ms_p{q}": pct(key, q)
        for key in ("spool_wait", "queue_wait", "run", "handoff")
        for q in (50, 95)
    }
    out.layer.update({
        "service.store.journal_bytes":
            float((svc / JournalStore.JOURNAL_NAME).stat().st_size),
        "service.admission.rejected_capacity": float(reasons.count("capacity")),
        "service.admission.rejected_brownout": float(reasons.count("brownout")),
        "service.admission.rejected_unmeetable_slo":
            float(reasons.count("unmeetable-slo")),
        "service.admission.rejected_other": float(reasons.count("other")),
        "service.overload.shed": float(counts.get(JobState.SHED.value, 0)),
        "service.overload.timed_out":
            float(counts.get(JobState.TIMED_OUT.value, 0)),
        "bench.generator_late_ms_p50": percentile(late, 50) if late else 0.0,
        "bench.generator_late_ms_p95": percentile(late, 95) if late else 0.0,
    })
    hits = sum(1 for job in jobs for spec in job.specs if spec in hot)
    specs = sum(len(job.specs) for job in jobs)
    p95 = percentile(latencies, 95) if latencies else float("inf")
    out.notes = [
        f"open loop: {len(jobs)} jobs at {ctx.rate_per_s:g}/s over "
        f"{window_end - jobs[0].due:.1f} s, {specs} specs, {hits} from the "
        f"hot set ({100.0 * hits / specs:.0f}%), workers={ctx.width}",
        f"p95 limit {P95_LIMIT_MS:g} ms: "
        f"{'met' if p95 <= P95_LIMIT_MS else 'MISSED'} (p95 {p95:.1f} ms)",
        f"closed batches: {len(batches)} of {len(batches[0])} jobs, "
        f"{sum(len(j.specs) for j in batches[0])} fresh specs each, each "
        f"submitted at once; makespans_s="
        f"{[round(m, 3) for m in makespans]}, the median is wall_s",
        "journal breakdown, p50/p95 ms: " + ", ".join(
            f"{key} {pct(key, 50):.1f}/{pct(key, 95):.1f}"
            for key in ("late", "submit", "spool_wait", "queue_wait", "run",
                        "handoff")),
        "latency deciles, ms: " + " ".join(
            f"{percentile(latencies, q):.0f}" for q in range(10, 100, 10))
        if latencies else "latency deciles: none",
        f"backlog at window end: {outstanding} job(s), growing "
        f"{growth:+.2f} jobs/s over the window's second half",
        f"rejections: {dict(sorted(rejections.items())) or 'none'}",
    ]
    if recorder is not None:
        out.spans = collect(recorder, span_dir)
    return out


def _json(obj: Any) -> Any:
    return json.loads(json.dumps(obj, sort_keys=True))
