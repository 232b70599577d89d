"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the paper's experiments:

* ``table1`` / ``table2``          — print the configuration tables
* ``estimate``                     — Figure 2/3 analytic estimates
* ``periodic``                     — §4.1 periodic-task scenario
* ``pair``                         — §4.4 multiprogrammed case study
* ``analyze``                      — idempotence analysis of the sample
                                     IR kernels
* ``trace``                        — inspect, validate, or export event
                                     traces captured with ``--trace`` /
                                     ``CHIMERA_TRACE``
* ``traffic``                      — replay an open-arrival multi-tenant
                                     traffic scenario and report SLO
                                     attainment / goodput
* ``serve``                        — run the crash-safe scheduling
                                     daemon over a service directory
* ``submit`` / ``status`` / ``cancel`` — client side of the daemon

Examples::

    python -m repro periodic --bench MUM --policy chimera --periods 10
    python -m repro pair --benchmarks LUD MUM --budget 8e6
    python -m repro pair --trace traces/ --benchmarks LUD MUM
    python -m repro trace traces/*.jsonl --check
    python -m repro trace traces/pair.jsonl --chrome pair.json
    python -m repro traffic --tenant web:poisson:3000 --tenant bg:bursty:1000
    python -m repro traffic --tenant web:diurnal:2500 --report slo.json
    python -m repro estimate
    python -m repro serve --dir .chimera-service &
    python -m repro submit --kind periodic --bench MUM --priority 5 --wait

Exit codes are uniform across subcommands: ``0`` success, ``1`` a spec
or job failed (or an invariant was violated), ``2`` usage or
configuration errors. The installed console script ``chimera`` is an
alias for ``python -m repro``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.chimera import POLICY_NAMES
from repro.core.estimates import figure2_rows, figure3_rows
from repro.gpu.config import DEFAULT_QOS_SLACK, GPUConfig, QOS_MODES
from repro.metrics.report import format_percent, format_table
from repro.workloads.specs import all_kernel_specs, benchmark_labels

ALL_POLICIES = ("switch", "drain", "flush", "flush-strict",
                "flush-nofallback", "flush-strict-nofallback",
                "chimera", "chimera-strict", "chimera-oracle")


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chimera (ASPLOS'15) reproduction: GPU preemptive "
                    "multitasking experiments")
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="attach a stderr handler to the 'repro' "
                             "logger tree at this level")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the machine configuration")
    sub.add_parser("table2", help="print the benchmark specification")
    sub.add_parser("estimate", help="analytic Figure 2/3 estimates")
    sub.add_parser("analyze", help="idempotence analysis of sample IR kernels")

    periodic = sub.add_parser("periodic",
                              help="run the periodic real-time task scenario")
    periodic.add_argument("--bench", default="BS", choices=benchmark_labels())
    periodic.add_argument("--policy", default="chimera", choices=ALL_POLICIES)
    periodic.add_argument("--constraint-us", type=float, default=15.0)
    periodic.add_argument("--periods", type=int, default=10)
    periodic.add_argument("--seed", type=int, default=12345)
    _add_sweep_options(periodic)

    pair = sub.add_parser("pair", help="run a multiprogrammed combination")
    pair.add_argument("--benchmarks", nargs="+", default=["LUD", "MUM"],
                      choices=benchmark_labels())
    pair.add_argument("--policies", nargs="+", default=list(POLICY_NAMES),
                      choices=ALL_POLICIES)
    pair.add_argument("--budget", type=float, default=8e6)
    pair.add_argument("--latency-limit-us", type=float, default=30.0)
    pair.add_argument("--seed", type=int, default=12345)
    _add_sweep_options(pair)

    trace = sub.add_parser(
        "trace", help="inspect, validate, or export captured event traces")
    trace.add_argument("files", nargs="+", metavar="TRACE.jsonl",
                       help="JSONL trace files written by --trace / "
                            "CHIMERA_TRACE")
    trace.add_argument("--check", action="store_true",
                       help="validate scheduler invariants; exit 1 on any "
                            "violation")
    trace.add_argument("--allow-open", action="store_true",
                       help="accept preemptions still in flight at the end "
                            "of the trace (horizon-cut runs)")
    trace.add_argument("--chrome", metavar="OUT.json", default=None,
                       help="export one trace to Chrome trace_event JSON "
                            "(chrome://tracing, Perfetto)")

    cycle = sub.add_parser(
        "cycle", help="run a sample IR kernel on the cycle-level GPU")
    cycle.add_argument("--kernel", default="vector_add",
                       help="sample kernel name (see `repro analyze`)")
    cycle.add_argument("--n", type=_positive_int, default=256,
                       help="problem size passed to the kernel factory")
    cycle.add_argument("--sms", type=_positive_int, default=4)
    cycle.add_argument("--tpb", type=_positive_int, default=16,
                       help="threads per block")
    cycle.add_argument("--blocks-per-sm", type=_positive_int, default=2)
    cycle.add_argument("--scheduler", default="gto", choices=("rr", "gto"))

    traffic = sub.add_parser(
        "traffic",
        help="replay an open-arrival traffic scenario and report SLOs")
    traffic.add_argument(
        "--tenant", action="append", default=None, metavar="SPEC",
        help="one tenant as NAME:KIND:RATE[:MIX[:PRIO[:SLO_US]]] with "
             "KIND in poisson|diurnal|bursty and RATE in arrivals/s "
             "(repeatable; default: a web+batch pair)")
    traffic.add_argument("--policy", default="chimera", choices=ALL_POLICIES)
    traffic.add_argument("--horizon-us", type=_nonnegative_float,
                         default=60_000.0,
                         help="arrival window in microseconds")
    traffic.add_argument("--drain-us", type=_nonnegative_float,
                         default=20_000.0,
                         help="post-horizon drain window in microseconds")
    traffic.add_argument("--window-us", type=_nonnegative_float, default=None,
                         help="sliding-window width for windowed ANTT/STP "
                              "(default: CHIMERA_TRAFFIC_WINDOW_US or 10000)")
    traffic.add_argument("--target-kernel-us", type=_nonnegative_float,
                         default=150.0,
                         help="standalone duration of one arrival's kernel")
    traffic.add_argument("--seed", type=int, default=12345)
    traffic.add_argument("--json", action="store_true",
                         help="print the full SLO report as JSON")
    traffic.add_argument("--report", metavar="OUT.json", default=None,
                         help="also write the SLO report to this file")
    traffic.add_argument("--fail-below", type=_nonnegative_float,
                         default=None, metavar="FRAC",
                         help="exit 1 if overall SLO attainment is below "
                              "this fraction")
    traffic.add_argument("--submit", action="store_true",
                         help="submit the scenario to the scheduling daemon "
                              "instead of running it in-process")
    traffic.add_argument("--priority", type=int, default=0,
                         help="job admission priority for --submit")
    traffic.add_argument("--job-id", default=None,
                         help="explicit job id for --submit")
    _add_service_dir(traffic)
    _add_sweep_options(traffic)

    serve = sub.add_parser(
        "serve", help="run the crash-safe scheduling daemon")
    _add_service_dir(serve)
    serve.add_argument("--capacity", type=_positive_int, default=None,
                       help="admission queue bound "
                            "(default: CHIMERA_SERVICE_CAPACITY or 64)")
    serve.add_argument("--heartbeat", type=_nonnegative_float, default=None,
                       metavar="S",
                       help="worker heartbeat watchdog timeout "
                            "(default: CHIMERA_HEARTBEAT or 30)")
    serve.add_argument("--workers", type=_positive_int, default=None,
                       metavar="N",
                       help="concurrent execution slots (default: "
                            "CHIMERA_SERVICE_WORKERS or cpu count); >1 "
                            "runs specs in forked worker processes")
    serve.add_argument("--poll", type=_nonnegative_float, default=0.05,
                       metavar="S",
                       help="longest sleep between ticks when nothing "
                            "rings the doorbell")
    serve.add_argument("--idle-exit", type=_nonnegative_float, default=None,
                       metavar="S",
                       help="exit once idle this long (smoke tests/CI)")
    serve.add_argument("--max-wall", type=_nonnegative_float, default=None,
                       metavar="S", help="hard wall-clock stop")
    serve.add_argument("--queue-ttl", type=_nonnegative_float, default=None,
                       metavar="S",
                       help="expire jobs queued longer than this to "
                            "timed-out (default: CHIMERA_QUEUE_TTL or "
                            "0 = never)")

    submit = sub.add_parser(
        "submit", help="submit a job (a batch of runs) to the daemon")
    _add_service_dir(submit)
    submit.add_argument("--kind", default="periodic",
                        choices=("periodic", "pair"))
    submit.add_argument("--bench", default="BS", choices=benchmark_labels(),
                        help="benchmark for --kind periodic")
    submit.add_argument("--benchmarks", nargs="+", default=["LUD", "MUM"],
                        choices=benchmark_labels(),
                        help="combination for --kind pair")
    submit.add_argument("--policies", nargs="+", default=["chimera"],
                        choices=ALL_POLICIES,
                        help="one spec per policy x seed")
    submit.add_argument("--constraint-us", type=_nonnegative_float,
                        default=15.0)
    submit.add_argument("--periods", type=_positive_int, default=10)
    submit.add_argument("--budget", type=float, default=8e6)
    submit.add_argument("--seeds", nargs="+", type=int, default=[12345])
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--job-id", default=None,
                        help="explicit id (default: generated)")
    submit.add_argument("--slo", type=_nonnegative_float, default=None,
                        metavar="S",
                        help="completion deadline budget in seconds; the "
                             "daemon rejects up front (unmeetable-slo) "
                             "when its estimates say it is already blown")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job reaches a terminal "
                             "state; exit 1 unless it completed")
    submit.add_argument("--timeout", type=_nonnegative_float, default=300.0,
                        metavar="S", help="--wait timeout")
    submit.add_argument("--retries", type=int, default=0, metavar="N",
                        help="with --wait: resubmit up to N times after "
                             "transient overload rejections, honoring "
                             "the daemon's retry_after_s hint")

    status = sub.add_parser(
        "status", help="inspect the service journal (daemon not required)")
    _add_service_dir(status)
    status.add_argument("--job", default=None, metavar="ID",
                        help="print just this job's state")
    status.add_argument("--json", action="store_true",
                        help="print the full snapshot as JSON")

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    _add_service_dir(cancel)
    cancel.add_argument("job_id", metavar="ID")
    return parser


def _add_service_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dir", default=None, metavar="DIR",
                        help="service directory "
                             "(default: CHIMERA_SERVICE_DIR or "
                             ".chimera-service)")


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _nonnegative_float(raw: str) -> float:
    value = float(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Sweep-runner knobs shared by the simulation commands."""
    parser.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                        help="parallel worker processes "
                             "(default: CHIMERA_JOBS or CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--timeout", type=_nonnegative_float, default=None,
                        metavar="S",
                        help="per-spec wall-clock timeout in seconds "
                             "(default: CHIMERA_SPEC_TIMEOUT; 0 disables)")
    parser.add_argument("--max-retries", type=_nonnegative_int, default=None,
                        metavar="N",
                        help="retry budget per failing/hung spec "
                             "(default: CHIMERA_MAX_RETRIES or 1)")
    parser.add_argument("--keep-going", action="store_true",
                        help="finish the sweep and report partial results "
                             "plus a failure summary instead of aborting on "
                             "a permanently failed spec")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="capture a per-spec event trace (JSONL) into "
                             "DIR; implies --no-cache so every spec "
                             "actually executes")
    parser.add_argument("--qos-mode", default=None, choices=QOS_MODES,
                        help="preemption QoS guard: off (passive ledger), "
                             "warn (trace VIOLATION at deadline), escalate "
                             "(re-plan lagging blocks), strict (abort the "
                             "run); default: CHIMERA_QOS_MODE or off")
    parser.add_argument("--qos-slack", type=_nonnegative_float, default=None,
                        metavar="FRAC",
                        help="guard deadline slack as a fraction of the "
                             "latency budget (default: CHIMERA_QOS_SLACK "
                             f"or {DEFAULT_QOS_SLACK})")


def _make_runner(args: argparse.Namespace):
    """Build the SweepRunner the CLI commands submit RunSpecs through."""
    from repro.harness.cache import ResultCache
    from repro.harness.sweep import SweepRunner

    cache = ResultCache.from_env()
    if args.no_cache:
        cache.enabled = False
    if getattr(args, "trace", None):
        # Workers read CHIMERA_TRACE from their inherited environment; a
        # cache hit would skip execution and write no trace, so capture
        # runs bypass the cache entirely.
        os.environ["CHIMERA_TRACE"] = args.trace
        cache.enabled = False
    # The guard config reaches worker processes the same way the trace
    # destination does: GPUConfig defaults read these variables, and the
    # qos fields participate in each spec's cache key.
    if getattr(args, "qos_mode", None):
        os.environ["CHIMERA_QOS_MODE"] = args.qos_mode
    if getattr(args, "qos_slack", None) is not None:
        os.environ["CHIMERA_QOS_SLACK"] = repr(args.qos_slack)
    return SweepRunner(jobs=args.jobs, cache=cache, timeout=args.timeout,
                       max_retries=args.max_retries,
                       strict=False if args.keep_going else None)


def _print_failures(failures) -> None:
    """Print the per-spec failure summary for a failed sweep."""
    from repro.harness.sweep import format_failures

    print(format_failures(failures))


def cmd_table1() -> int:
    """``table1``: print the machine configuration."""
    print(GPUConfig().describe())
    return 0


def cmd_table2() -> int:
    """``table2``: print the Table 2 benchmark specification."""
    rows = [[s.label, s.name, f"{s.avg_drain_us:.1f}",
             f"{s.context_kb_per_tb:.0f}", s.tbs_per_sm,
             f"{s.switch_time_us:.1f}", "Yes" if s.idempotent else "No"]
            for s in all_kernel_specs()]
    print(format_table(
        ["kernel", "name", "drain us", "ctx kB/TB", "TB/SM", "switch us",
         "idempotent"], rows, title="Table 2. Benchmark specification"))
    return 0


def cmd_estimate() -> int:
    """``estimate``: print the Figure 2/3 analytic estimates."""
    fig2 = figure2_rows()
    fig3 = figure3_rows()
    rows = []
    for lat, ovh in zip(fig2, fig3):
        rows.append([lat["kernel"], f"{lat['switch']:.1f}",
                     f"{lat['drain']:.1f}", f"{lat['flush']:.1f}",
                     format_percent(ovh["switch"]),
                     format_percent(ovh["drain"]),
                     format_percent(ovh["flush"])])
    print(format_table(
        ["kernel", "switch us", "drain us", "flush us",
         "switch ovh", "drain ovh", "flush ovh"],
        rows, title="Figures 2-3. Estimated preemption latency and overhead"))
    return 0


def cmd_analyze() -> int:
    """``analyze``: idempotence analysis of the sample kernels."""
    from repro.idempotence.affine import refine_analysis
    from repro.idempotence.analysis import analyze
    from repro.idempotence.instrument import instrument, mark_count
    from repro.idempotence.kernels import all_sample_kernels, shift_halves

    kernels = dict(all_sample_kernels())
    kernels["shift_halves"] = shift_halves(64)
    rows = []
    for name, prog in kernels.items():
        report = analyze(prog)
        refined = refine_analysis(prog, num_threads=16, num_blocks=4)
        rows.append([
            name,
            "Yes" if report.idempotent else "No",
            "Yes" if refined.idempotent else "No",
            len(report.nonidempotent_indices),
            mark_count(instrument(prog, refined)),
            "; ".join(refined.reasons or report.reasons) or "-",
        ])
    print(format_table(
        ["kernel", "idempotent", "refined", "non-idem ops",
         "marks inserted", "reasons"],
        rows, title="Idempotence analysis (paper Section 3.4)"))
    return 0


def cmd_periodic(args: argparse.Namespace) -> int:
    """``periodic``: run the paper's periodic-task scenario."""
    from repro.errors import SweepError
    from repro.harness.sweep import RunSpec, SpecFailure

    spec = RunSpec.periodic(args.bench, args.policy,
                            constraint_us=args.constraint_us,
                            periods=args.periods, seed=args.seed)
    try:
        result = _make_runner(args).run([spec])[0]
    except SweepError as exc:
        _print_failures(exc.failures)
        return 1
    if isinstance(result, SpecFailure):
        _print_failures([result])
        return 1
    mix = {tech.value: count
           for tech, count in result.technique_mix.counts.items()}
    print(f"benchmark          {result.label}")
    print(f"policy             {result.policy}")
    print(f"latency constraint {result.constraint_us} us")
    print(f"requests           {result.violations.requests}")
    print(f"violations         {result.violations.violations} "
          f"({format_percent(result.violations.violation_rate)})")
    print(f"mean latency       {result.violations.mean_latency_us:.1f} us")
    print(f"throughput ovh     {format_percent(result.throughput_overhead)}")
    print(f"technique mix      {mix}")
    return 0


def cmd_pair(args: argparse.Namespace) -> int:
    """``pair``: run a multiprogrammed combination vs FCFS."""
    from repro.errors import SweepError
    from repro.harness.experiments import figure10_11
    from repro.workloads.multiprogram import MultiprogramWorkload

    workload = MultiprogramWorkload(tuple(args.benchmarks),
                                    budget_insts=args.budget)
    try:
        result = figure10_11(workload, policies=tuple(args.policies),
                             latency_limit_us=args.latency_limit_us,
                             seed=args.seed, runner=_make_runner(args))
    except SweepError as exc:
        _print_failures(exc.failures)
        return 1
    if result.failures:
        _print_failures(result.failures)
        return 1
    rows = []
    for policy in ("fcfs", *args.policies):
        rows.append([
            policy, f"{result.antt(policy):.2f}",
            f"{result.stp(policy):.3f}",
            f"{result.antt_improvement(policy):.1f}x",
            format_percent(result.stp_improvement(policy)),
            result.preemption_requests.get(policy, 0),
        ])
    print(format_table(
        ["policy", "ANTT", "STP", "ANTT impr", "STP impr", "preemptions"],
        rows, title=f"Case study {workload.name} "
                    f"(budget {args.budget:.0f} instructions)"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: summarize, validate, or export captured traces."""
    from repro.errors import ReproError
    from repro.metrics.timeline import TraceTimelines
    from repro.sim.trace import load_jsonl
    from repro.sim.trace_check import TraceChecker
    from repro.sim.trace_export import dump_chrome

    if args.chrome and len(args.files) != 1:
        print("--chrome exports exactly one trace file", file=sys.stderr)
        return 2
    status = 0
    # --allow-open forces acceptance; otherwise defer to the trace's own
    # metadata (horizon-cut runners stamp allow_open_at_end themselves).
    checker = TraceChecker(
        allow_open_at_end=True if args.allow_open else None)
    for path in args.files:
        try:
            tracer = load_jsonl(path)
        except (OSError, ReproError) as exc:
            print(f"== {path}\n  unreadable: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"== {path}")
        try:
            print(TraceTimelines.from_trace(tracer).summary())
        except ValueError as exc:
            print(f"  no timeline: {exc}")
        if args.check:
            report = checker.check(tracer)
            print(report.summary())
            if not report.ok:
                status = 1
        if args.chrome:
            try:
                dump_chrome(tracer, args.chrome)
            except ReproError as exc:
                print(f"  chrome export failed: {exc}", file=sys.stderr)
                status = 1
            else:
                print(f"wrote {args.chrome}")
    return status


def cmd_cycle(args: argparse.Namespace) -> int:
    """``cycle``: run one sample kernel on the cycle-level device."""
    import time

    from repro.functional.gpusim import CycleGPU
    from repro.functional.warpsim import SchedulerKind
    from repro.idempotence.kernels import all_sample_kernels

    if args.n % args.tpb:
        print("--n must be a multiple of --tpb", file=sys.stderr)
        return 2
    grid = args.n // args.tpb
    kernels = all_sample_kernels(n=args.n, threads_per_block=args.tpb,
                                 num_blocks=grid)
    if args.kernel not in kernels:
        print(f"unknown kernel {args.kernel!r}; choose from "
              f"{', '.join(sorted(kernels))}", file=sys.stderr)
        return 2
    sched = (SchedulerKind.ROUND_ROBIN if args.scheduler == "rr"
             else SchedulerKind.GREEDY_THEN_OLDEST)
    gpu = CycleGPU(kernels[args.kernel], grid_blocks=grid,
                   threads_per_block=args.tpb, num_sms=args.sms,
                   blocks_per_sm=args.blocks_per_sm, scheduler=sched)
    start = time.perf_counter()
    result = gpu.run()
    wall = time.perf_counter() - start
    ipc = result.total_instructions / max(result.cycles, 1)
    print(f"kernel             {args.kernel}")
    print(f"grid               {grid} blocks x {args.tpb} threads")
    print(f"device             {args.sms} SMs x {args.blocks_per_sm} blocks")
    print(f"scheduler          {args.scheduler}")
    print(f"cycles             {result.cycles}")
    print(f"warp instructions  {result.total_instructions}")
    print(f"device IPC         {ipc:.3f}")
    print(f"wall time          {wall:.3f} s "
          f"({result.cycles / max(wall, 1e-9):,.0f} cycles/s)")
    return 0


#: Default tenant set for ``traffic``: a latency-sensitive web tenant
#: over a bursty low-priority batch tenant.
DEFAULT_TENANTS = ("web:poisson:3000:table2-short:2:3000",
                   "batch:bursty:1500:dl-train:0:8000")


def _parse_tenant(raw: str):
    """Parse one ``--tenant`` SPEC string into a TenantSpec."""
    from repro.errors import ConfigError
    from repro.workloads.traffic import ArrivalSpec, TenantSpec

    parts = raw.split(":")
    if not 2 <= len(parts) <= 6:
        raise ConfigError(
            f"tenant spec {raw!r} is not "
            f"NAME:KIND:RATE[:MIX[:PRIO[:SLO_US]]]")
    parts += [""] * (6 - len(parts))
    name, kind, rate, mix_name, prio, slo = parts
    try:
        arrival = ArrivalSpec(kind=kind or "poisson",
                              rate_per_s=float(rate or 2000.0))
        return TenantSpec(name=name, arrival=arrival, mix=mix_name,
                          priority=int(prio or 0),
                          slo_us=float(slo or 2000.0))
    except ValueError as exc:
        raise ConfigError(f"tenant spec {raw!r}: {exc}") from exc


def cmd_traffic(args: argparse.Namespace) -> int:
    """``traffic``: replay an open-arrival scenario and score SLOs."""
    import json

    from repro.errors import SweepError
    from repro.harness.scenario import ScenarioSpec
    from repro.harness.sweep import RunSpec, SpecFailure

    tenants = tuple(_parse_tenant(raw)
                    for raw in (args.tenant or DEFAULT_TENANTS))
    scenario = ScenarioSpec(tenants=tenants, horizon_us=args.horizon_us,
                            drain_us=args.drain_us,
                            window_us=args.window_us)
    spec = RunSpec.traffic(scenario, policy=args.policy, seed=args.seed,
                           target_kernel_us=args.target_kernel_us)
    if args.submit:
        from repro.service.client import ServiceClient

        job_id = ServiceClient(args.dir).submit(
            [spec], priority=args.priority, job_id=args.job_id)
        print(job_id)
        return 0
    try:
        result = _make_runner(args).run([spec])[0]
    except SweepError as exc:
        _print_failures(exc.failures)
        return 1
    if isinstance(result, SpecFailure):
        _print_failures([result])
        return 1
    report = result.slo
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rows = [[name, t["arrivals"], t["completed"], t["dropped"],
                 format_percent(t["attainment"]),
                 f"{t['latency_us']['p50']:.1f}",
                 f"{t['latency_us']['p99']:.1f}",
                 f"{t['goodput_per_s']:.0f}"]
                for name, t in report["tenants"].items()]
        print(format_table(
            ["tenant", "arrivals", "done", "dropped", "attain",
             "p50 us", "p99 us", "goodput/s"], rows,
            title=f"Traffic scenario ({args.policy}, seed {args.seed}, "
                  f"{report['horizon_us']:.0f} us)"))
        print(f"overall attainment {format_percent(report['attainment'])} "
              f"({report['met']}/{report['arrivals']})")
        print(f"goodput            {report['goodput_per_s']:.0f}/s of "
              f"{report['offered_per_s']:.0f}/s offered")
        print(f"completion latency p50 {report['latency_us']['p50']:.1f} us, "
              f"p99 {report['latency_us']['p99']:.1f} us")
        print(f"preemption latency p50 "
              f"{report['preemption_us']['p50']:.1f} us, p99 "
              f"{report['preemption_us']['p99']:.1f} us "
              f"({report['preemption_us']['samples']} preemptions)")
    if args.fail_below is not None \
            and report["attainment"] < args.fail_below:
        print(f"attainment {report['attainment']:.4f} is below the "
              f"{args.fail_below:g} floor", file=sys.stderr)
        return 1
    return 0


def _submit_specs(args: argparse.Namespace):
    """Build the RunSpec batch for ``submit`` from the scenario flags."""
    from repro.harness.sweep import RunSpec
    from repro.workloads.multiprogram import MultiprogramWorkload

    specs = []
    for seed in args.seeds:
        for policy in args.policies:
            if args.kind == "periodic":
                specs.append(RunSpec.periodic(
                    args.bench, policy, constraint_us=args.constraint_us,
                    periods=args.periods, seed=seed))
            else:
                workload = MultiprogramWorkload(tuple(args.benchmarks),
                                                budget_insts=args.budget)
                specs.append(RunSpec.pair(workload, policy, seed=seed))
    return specs


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the scheduling daemon until drained or idle."""
    import signal

    from repro.harness import faults
    from repro.service.daemon import SchedulerDaemon

    daemon = SchedulerDaemon(directory=args.dir, capacity=args.capacity,
                             heartbeat_s=args.heartbeat, poll_s=args.poll,
                             workers=args.workers,
                             queue_ttl_s=args.queue_ttl)

    def _on_sigterm(signum, frame):  # noqa: ARG001 - signal signature
        daemon.request_drain()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        daemon.serve(idle_exit_s=args.idle_exit, max_wall_s=args.max_wall)
    except faults.InjectedCrash:
        # Model kill -9 faithfully: no cleanup, no atexit, no flush —
        # except the forked spec workers, which a real SIGKILL of the
        # process group would take down with us.
        daemon.emergency_stop()
        os._exit(faults.CRASH_EXIT_CODE)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """``submit``: drop a job into the service spool."""
    from repro.service.client import ServiceClient
    from repro.service.state import JobState

    client = ServiceClient(args.dir)
    specs = _submit_specs(args)
    if args.wait and args.retries > 0:
        import uuid

        job_id = args.job_id or f"job-{uuid.uuid4().hex[:12]}"
        print(job_id)
        final = client.submit_and_wait(
            specs, priority=args.priority, job_id=job_id, slo_s=args.slo,
            timeout_s=args.timeout, retries=args.retries)
    else:
        job_id = client.submit(specs, priority=args.priority,
                               job_id=args.job_id, slo_s=args.slo)
        print(job_id)
        if not args.wait:
            return 0
        final = client.wait(job_id, timeout_s=args.timeout)
    print(f"{job_id} {final}", file=sys.stderr)
    if final == "rejected":
        record = client.rejection(job_id) or {}
        print(f"rejected: {record.get('reason')}: {record.get('detail')}",
              file=sys.stderr)
    return 0 if final == JobState.COMPLETED.value else 1


def cmd_status(args: argparse.Namespace) -> int:
    """``status``: read-only journal replay + QoS reconciliation."""
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.dir)
    if args.job is not None:
        state = client.job_state(args.job)
        if state is None:
            print(f"unknown job {args.job!r}", file=sys.stderr)
            return 1
        print(state)
        return 0
    snapshot = client.status()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0 if snapshot["qos"]["consistent"] else 1
    rows = [[j["job_id"], j["state"], j["priority"],
             f"{j['completed']}/{j['specs']}",
             "-" if j.get("slot", -1) < 0 else str(j["slot"]),
             j["detail"].get("reason") or j["detail"].get("error") or "-"]
            for j in snapshot["jobs"]]
    print(format_table(["job", "state", "prio", "specs", "slot", "detail"],
                       rows,
                       title=f"Service {snapshot['directory']} "
                             f"({snapshot['restarts']} start(s))"))
    for entry in snapshot.get("slots") or ():
        if entry.get("job_id") is None:
            print(f"slot {entry['slot']:<14} idle")
        else:
            print(f"slot {entry['slot']:<14} {entry['job_id']} "
                  f"at {entry['checkpoint']}/{entry['specs']} "
                  f"(heartbeat {entry['heartbeat_age_s']:.3f}s ago)")
    overload = snapshot.get("overload") or {}
    brownout = overload.get("brownout") or {}
    breaker = overload.get("breaker") or {}
    depth = overload.get("queue_depth")
    capacity = overload.get("queue_capacity")
    oldest = overload.get("oldest_queued_age_s")
    print(f"queue              "
          f"{'-' if depth is None else depth}"
          f"{'' if capacity is None else '/' + str(capacity)} waiting"
          f"{'' if oldest is None else f', oldest {oldest:.3f}s'}")
    print(f"brownout           {brownout.get('name', 'normal')} "
          f"(level {brownout.get('level', 0)}); "
          f"{overload.get('shed', 0)} shed, "
          f"{overload.get('timed_out', 0)} expired")
    print(f"breaker            {breaker.get('state', 'closed')}"
          + (f" ({breaker['trips']} trip(s))"
             if breaker.get("trips") else ""))
    qos = snapshot["qos"]
    print(f"qos ledger         {qos['totals']['preemptions']} preemptions, "
          f"{qos['totals']['violations']} violations "
          f"({'reconciled' if qos['consistent'] else 'MISMATCH: ' + ', '.join(qos['mismatches'])})")
    for record in snapshot["rejected"]:
        print(f"rejected           {record['job_id']}: {record['reason']}")
    return 0 if qos["consistent"] else 1


def cmd_cancel(args: argparse.Namespace) -> int:
    """``cancel``: request cancellation of a queued/running job."""
    from repro.service.client import ServiceClient

    if ServiceClient(args.dir).cancel(args.job_id):
        print(f"cancel requested for {args.job_id}")
        return 0
    print(f"job {args.job_id!r} is unknown or already finished",
          file=sys.stderr)
    return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "table1":
        return cmd_table1()
    if args.command == "table2":
        return cmd_table2()
    if args.command == "estimate":
        return cmd_estimate()
    if args.command == "analyze":
        return cmd_analyze()
    if args.command == "periodic":
        return cmd_periodic(args)
    if args.command == "pair":
        return cmd_pair(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "cycle":
        return cmd_cycle(args)
    if args.command == "traffic":
        return cmd_traffic(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "status":
        return cmd_status(args)
    if args.command == "cancel":
        return cmd_cancel(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes are uniform: 0 success, 1 spec/job failure, 2 usage or
    configuration error (argparse's own usage failures also exit 2).
    """
    import logging

    from repro import setup_logging
    from repro.errors import ConfigError, ReproError

    args = build_parser().parse_args(argv)
    if args.log_level:
        setup_logging(getattr(logging, args.log_level.upper()))
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
