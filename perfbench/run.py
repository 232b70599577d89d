"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --width 2 --rate 8 \
        --workload fig67_sweep --seed 12345 --seconds 30 --trace 0

``BENCHMARK.json`` holds the command with its fixed parameters: the
pool/slot width, the daemon's open-loop rate, and the default seed (a
later ``--seed`` overrides it).

Workloads:

* ``fig67_sweep``     — the Figure 6/7 grid (14 benchmarks x 4 policies
  @ 15 us) through ``SweepRunner(jobs=width)`` into a fresh cache;
* ``traffic_replay``  — the three-tenant traffic scenario on 8 SMs under
  ``chimera``, replayed in-process by ``run_traffic``;
* ``daemon_openloop`` — jobs submitted through ``ServiceClient`` to a
  ``python -m repro serve`` subprocess at a fixed Poisson rate, then
  three closed batches, one after another.

End-to-end metrics (host time, tracing off), on every workload:

* ``setup_s``        — the median of three set-ups;
* ``wall_s``         — the median grid, the mean replay, or the
  daemon's median closed-batch makespan;
* ``latency_p50_ms``, ``latency_p95_ms`` — per operation: a spec of a
  grid (from the sweep's start to its cache entry), an arrival step of
  a replay (host time from one arrival's launch to the next), or an
  open-loop job (from its due time to its COMPLETED record). Every run
  holds at least 200 operations, so ten or more lie beyond the p95;
* ``peak_rss_mb``    — the summed resident memory of the process tree.

The program's ``CHIMERA_*`` settings are cleared before anything runs,
so the benchmark always measures the defaults; the stamp records what
was cleared.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off. With ``--trace 1`` it makes that same untraced pass, then a
separate traced pass that wraps each layer's public entry points from
this directory (:mod:`perfbench.layers`), checks that both passes give
identical simulated results, and reports the per-layer metrics and the
tracing overhead. Either way, the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``correct`` is false when any output check fails, or when the open
loop was overloaded: its latencies are then not steady-state figures.
Everything the run writes stays under ``.perfbench-run/`` (removed at
exit) and ``.perfbench-out/`` (the traced pass's spans) in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers  # noqa: E402
from perfbench.common import (  # noqa: E402
    MIN_BEYOND,
    percentile,
    run_stamp,
    samples_beyond,
)
from perfbench.daemon_workload import P95_LIMIT_MS  # noqa: E402
from perfbench.spans import write_spans  # noqa: E402
from perfbench.workload import Context, Outcome  # noqa: E402

WORKLOADS = ("fig67_sweep", "traffic_replay", "daemon_openloop")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: (name, unit, better) of every end-to-end metric, as BENCHMARK.json
#: lists them.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

UNVALIDATED = ("The simulator is a model of the paper's GPU; it is not "
               "validated against hardware, so simulated figures carry no "
               "error bar against a measurement.")


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--width", type=int, required=True,
                        help="sweep jobs and daemon workers")
    parser.add_argument("--rate", type=float, required=True,
                        help="daemon open-loop arrivals per second")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.width < 1 or args.rate <= 0:
        parser.error("--seconds, --width and --rate must be positive")
    return args


def measure(ctx: Context, workload: str, traced: bool) -> Outcome:
    if workload == "fig67_sweep":
        from perfbench.sim_workloads import fig67
        return fig67(ctx, traced)
    if workload == "traffic_replay":
        from perfbench.sim_workloads import traffic
        return traffic(ctx, traced)
    from perfbench.daemon_workload import openloop
    return openloop(ctx, traced)


def setup_once(ctx: Context, workload: str, index: int) -> float:
    if workload == "daemon_openloop":
        from perfbench.daemon_workload import setup_s
        return setup_s(ctx, f"setup-{index}")
    from perfbench.sim_workloads import setup_s
    return setup_s(ctx, workload)


def clear_program_env() -> Dict[str, str]:
    """Remove every ``CHIMERA_*`` variable from this process's
    environment (children inherit it); returns what was removed."""
    found = {k: v for k, v in os.environ.items() if k.startswith("CHIMERA_")}
    for name in found:
        del os.environ[name]
    return found


def checks_of(out: Outcome) -> Dict[str, bool]:
    """A pass's output checks, with the open-loop rule added where the
    pass had an open loop."""
    checks = dict(out.checks)
    if out.overloaded is not None:
        checks["open loop not overloaded (backlog not growing at the end "
               "of the arrival window)"] = not out.overloaded
    return checks


def result(passes: Sequence[Outcome], metrics: dict,
           digests_agree: bool = True) -> dict:
    """The object printed as the last line of standard output."""
    return {"correct": digests_agree
            and all(all(checks_of(out).values()) for out in passes),
            "attempted": sum(out.attempted for out in passes),
            "failed": sum(out.failed for out in passes),
            "metrics": metrics}


def end_to_end(out: Outcome, setups) -> dict:
    lat = out.latencies_ms
    return {
        "setup_s": statistics.median(setups),
        "wall_s": out.wall_s,
        "latency_p50_ms": percentile(lat, 50) if lat else float("nan"),
        "latency_p95_ms": percentile(lat, 95) if lat else float("nan"),
        "peak_rss_mb": out.peak_rss_mb,
    }


def primary_s(workload: str, out: Outcome) -> float:
    """The timing the tracing overhead is judged on: the wall of the
    simulator workloads, the median job latency of the daemon."""
    if workload == "daemon_openloop":
        return percentile(out.latencies_ms, 50) / 1000.0
    return out.wall_s


def report(workload: str, stamp: dict, values: dict, out: Outcome,
           setups) -> None:
    print(f"== perfbench {workload}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for note in out.notes:
        print(f"  {note}")
    n = len(out.latencies_ms)
    print("end-to-end (host time, tracing off):")
    for name, unit, better in END_TO_END:
        print(f"  {name:<16} {values[name]:>12.4f} {unit:<3} "
              f"({better} is better)")
    print(f"  setup samples: {[round(s, 4) for s in setups]}")
    beyond = samples_beyond(n, 95)
    print(f"  latency samples: n={n}, {beyond} beyond p95"
          + ("" if beyond >= MIN_BEYOND else
             f" (fewer than {MIN_BEYOND}: p95 is not a tail estimate here)"))
    print(f"  failed_frac      {out.failed / max(out.attempted, 1):>12.4f} "
          f"ratio (lower is better; {out.failed} of {out.attempted})")
    if out.sim:
        print("simulated (sim time; identical for a given seed):")
        for name, (value, unit, better, paper) in out.sim.items():
            paper_text = f"; paper {paper:g}{unit}" if paper is not None else ""
            print(f"  {name:<16} {value:>12.4f} {unit:<5} ({better} is "
                  f"better{paper_text})")
        print(f"  {UNVALIDATED}")
    print(f"digest: {out.digest}")
    print("checks:")
    for name, ok in checks_of(out).items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")


def main(argv=None) -> int:
    args = parse(argv)
    cleared = clear_program_env()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench-run"
    scratch = run_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    ctx = Context(root=ROOT, scratch=scratch, seed=args.seed,
                  seconds=args.seconds, width=args.width,
                  rate_per_s=args.rate)
    params = {"width": args.width, "seconds": args.seconds,
              "rate_per_s": args.rate, "p95_limit_ms": P95_LIMIT_MS,
              "trace": args.trace}
    try:
        stamp = run_stamp(ROOT, args.workload, args.seed, params)
        stamp["cleared_env"] = cleared
        plain = measure(ctx, args.workload, traced=False)
        setups = [] if plain.setup_s is None else [plain.setup_s]
        setups += [setup_once(ctx, args.workload, i)
                   for i in range(SETUPS - len(setups))]
        values = end_to_end(plain, setups)
        report(args.workload, stamp, values, plain, setups)
        passes, same = [plain], True
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
        if args.trace:
            traced = measure(ctx, args.workload, traced=True)
            same = traced.digest == plain.digest
            print(f"traced pass digest: {traced.digest} "
                  f"({'identical to' if same else 'DIFFERS from'} the "
                  f"untraced pass)")
            for name, ok in checks_of(traced).items():
                print(f"  [{'ok' if ok else 'FAIL'}] traced: {name}")
            passes.append(traced)
            per_layer = layers.span_metrics(traced.spans)
            per_layer.update(traced.layer)
            base = primary_s(args.workload, plain)
            per_layer["bench.tracing_overhead_pct"] = (
                100.0 * (primary_s(args.workload, traced) - base) / base)
            per_layer = layers.complete(per_layer)
            out_dir = ROOT / ".perfbench-out"
            spans_path = out_dir / f"spans-{args.workload}.jsonl"
            if spans_path.exists():
                spans_path.unlink()
            for pid, spans in traced.spans.items():
                write_spans(spans_path, spans, mode="a", pid=pid)
            print(f"per-layer (traced pass; spans in {spans_path}):")
            for name, unit in layers.PER_LAYER:
                print(f"  {name:<44} {per_layer[name]:>14.4f} {unit}")
            print("self time by span (s):")
            for name, seconds in layers.layer_shares(traced.spans).items():
                print(f"  {name:<44} {seconds:>14.4f}")
            metrics = {name: {"value": per_layer[name], "unit": unit}
                       for name, unit in layers.PER_LAYER}
        line = result(passes, metrics, same)
        print(f"correct: {line['correct']}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            run_dir.rmdir()
        except OSError:
            pass
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
