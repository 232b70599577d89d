"""Which calls into the program are traced, and the per-layer metrics.

:func:`install` wraps the public entry points of each layer from the
outside, through a :class:`~perfbench.spans.SpanRecorder`; nothing in
``src/`` changes. :data:`PER_LAYER` is the full list of per-layer
metrics every traced run reports, in the order ``BENCHMARK.json`` lists
them. A layer the workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from perfbench.common import percentile
from perfbench.spans import LayerTotals, Span, SpanRecorder, child_counts, patch

#: (name, unit) of every per-layer metric.
PER_LAYER: List[Tuple[str, str]] = [
    ("sim.engine.events", "count"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.ns_per_event", "ns"),
    ("gpu.kernel.builds", "count"),
    ("gpu.kernel.tbs", "count"),
    ("gpu.kernel.build_s", "s"),
    ("gpu.kernel.vector_tb_share", "ratio"),
    ("core.plan.calls", "count"),
    ("core.plan_s", "s"),
    ("sched.launch_s", "s"),
    ("sched.partition.calls", "count"),
    ("sched.partition.mean_kernels", "count"),
    ("sched.partition_s", "s"),
    ("harness.sweep.executed", "count"),
    ("harness.sweep.retries", "count"),
    ("harness.sweep.failed", "count"),
    ("harness.sweep.spec_s_p50", "s"),
    ("harness.sweep.spec_s_max", "s"),
    ("harness.sweep.imbalance", "ratio"),
    ("harness.cache.gets", "count"),
    ("harness.cache.hit_ratio", "ratio"),
    ("harness.cache.get_ms", "ms"),
    ("harness.cache.put_ms", "ms"),
    ("service.client.submits", "count"),
    ("service.client.submit_ms_p50", "ms"),
    ("service.client.submit_ms_p95", "ms"),
    ("service.daemon.spool_wait_ms_p50", "ms"),
    ("service.daemon.spool_wait_ms_p95", "ms"),
    ("service.daemon.queue_wait_ms_p50", "ms"),
    ("service.daemon.queue_wait_ms_p95", "ms"),
    ("service.daemon.run_ms_p50", "ms"),
    ("service.daemon.run_ms_p95", "ms"),
    ("service.daemon.handoff_ms_p50", "ms"),
    ("service.daemon.handoff_ms_p95", "ms"),
    ("service.daemon.ticks", "count"),
    ("service.daemon.tick_ms", "ms"),
    ("service.daemon.idle_tick_frac", "ratio"),
    ("service.store.appends", "count"),
    ("service.store.fsyncs", "count"),
    ("service.store.commit_ms", "ms"),
    ("service.store.journal_bytes", "bytes"),
    ("service.admission.rejected_capacity", "count"),
    ("service.admission.rejected_brownout", "count"),
    ("service.admission.rejected_unmeetable_slo", "count"),
    ("service.admission.rejected_other", "count"),
    ("service.overload.shed", "count"),
    ("service.overload.timed_out", "count"),
    ("bench.generator_late_ms_p50", "ms"),
    ("bench.generator_late_ms_p95", "ms"),
    ("bench.tracing_overhead_pct", "%"),
]

PER_LAYER_UNITS: Dict[str, str] = dict(PER_LAYER)


def _engine_before(args: tuple, kwargs: dict) -> int:
    return args[0].fired_events


def _engine_after(before: int, args: tuple, kwargs: dict, result) -> float:
    return float(args[0].fired_events - before)


def _kernel_after(token, args: tuple, kwargs: dict, result) -> float:
    return float(args[0].grid_tbs)


def _partition_before(args: tuple, kwargs: dict) -> int:
    demands = args[0] if args else kwargs["demands"]
    return len(demands)


def _returns_token(token, args: tuple, kwargs: dict, result) -> float:
    return float(token)


def _cache_hit(token, args: tuple, kwargs: dict, result) -> float:
    return 1.0 if result is not None else 0.0


def _fsyncs_before(args: tuple, kwargs: dict) -> int:
    return args[0].fsyncs


def _fsyncs_after(before: int, args: tuple, kwargs: dict, result) -> float:
    return float(args[0].fsyncs - before)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced entry point; returns a function that unwraps."""
    from repro.core import chimera
    from repro.gpu.kernel import Kernel
    from repro.harness import sweep
    from repro.harness.cache import ResultCache
    from repro.sched import kernel_scheduler
    from repro.service import client, daemon, store
    from repro.sim.engine import Engine

    undo: List[Callable[[], None]] = []

    def wrap(name: str, **kw) -> Callable[[Callable], Callable]:
        return lambda fn: recorder.wrap(name, fn, **kw)

    patch(Engine, "run", wrap("sim.engine", before=_engine_before,
                              after=_engine_after), undo)
    patch(Kernel, "__init__", wrap("gpu.kernel", after=_kernel_after), undo)
    policies = list(chimera.PreemptionPolicy.__subclasses__())
    while policies:
        cls = policies.pop()
        policies.extend(cls.__subclasses__())
        if "plan" in cls.__dict__:
            patch(cls, "plan", wrap("core.plan"), undo)
    patch(kernel_scheduler.KernelScheduler, "launch_kernel",
          wrap("sched.launch"), undo)
    # The scheduler calls the partition function through the name it
    # imported, so that is the name wrapped.
    patch(kernel_scheduler, "compute_partition",
          wrap("sched.partition", before=_partition_before,
               after=_returns_token), undo)
    patch(ResultCache, "get", wrap("harness.cache.get", after=_cache_hit),
          undo)
    patch(ResultCache, "put", wrap("harness.cache.put"), undo)
    # Pool workers run these two; they are each worker's top-level call.
    patch(sweep, "execute_faulted", wrap("harness.sweep.spec", flush=True),
          undo)
    patch(daemon, "_process_spec", wrap("service.daemon.spec", flush=True),
          undo)
    patch(daemon.SchedulerDaemon, "tick", wrap("service.daemon.tick"), undo)
    patch(store.JournalStore, "append_transition",
          wrap("service.store.append"), undo)
    patch(store.JournalStore, "append_meta", wrap("service.store.append"),
          undo)
    patch(store.JournalStore, "commit",
          wrap("service.store.commit", before=_fsyncs_before,
               after=_fsyncs_after), undo)
    patch(client.ServiceClient, "submit", wrap("service.client.submit"),
          undo)

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


def vector_threshold() -> Optional[int]:
    """Grid size from which the program draws a kernel's randomness on
    the numpy path, or None when that path is off or absent."""
    from repro.sim import rng

    threshold = getattr(rng, "_VECTOR_MIN_N", None)
    try:
        from repro.vector import vector_enabled
    except ImportError:
        return None
    return threshold if threshold is not None and vector_enabled() else None


def _mean_ms(totals: LayerTotals, name: str) -> float:
    calls = totals.calls.get(name, 0)
    return 1000.0 * sum(totals.durations[name]) / calls if calls else 0.0


def _pct_ms(values: List[float], q: float) -> float:
    return 1000.0 * percentile(values, q) if values else 0.0


def span_metrics(by_pid: Dict[int, List[Span]]) -> Dict[str, float]:
    """The per-layer metrics that come from spans alone."""
    totals = LayerTotals.from_processes(by_pid)
    events = totals.count.get("sim.engine", 0.0)
    engine_self = totals.self_s.get("sim.engine", 0.0)
    tbs = totals.count.get("gpu.kernel", 0.0)
    threshold = vector_threshold()
    vector_tbs = sum(n for n in totals.counts.get("gpu.kernel", [])
                     if threshold is not None and n >= threshold)
    partitions = totals.calls.get("sched.partition", 0)
    gets = totals.calls.get("harness.cache.get", 0)
    ticks = totals.calls.get("service.daemon.tick", 0)
    busy = [n for n in child_counts(by_pid, "service.daemon.tick",
                                    "service.store.append") if n]
    submits = totals.durations.get("service.client.submit", [])
    return {
        "sim.engine.events": events,
        "sim.engine.self_s": engine_self,
        "sim.engine.ns_per_event": 1e9 * engine_self / events
        if events else 0.0,
        "gpu.kernel.builds": float(totals.calls.get("gpu.kernel", 0)),
        "gpu.kernel.tbs": tbs,
        "gpu.kernel.build_s": totals.self_s.get("gpu.kernel", 0.0),
        "gpu.kernel.vector_tb_share": vector_tbs / tbs if tbs else 0.0,
        "core.plan.calls": float(totals.calls.get("core.plan", 0)),
        "core.plan_s": totals.self_s.get("core.plan", 0.0),
        "sched.launch_s": totals.self_s.get("sched.launch", 0.0),
        "sched.partition.calls": float(partitions),
        "sched.partition.mean_kernels":
            totals.count.get("sched.partition", 0.0) / partitions
            if partitions else 0.0,
        "sched.partition_s": totals.self_s.get("sched.partition", 0.0),
        "harness.cache.gets": float(gets),
        "harness.cache.hit_ratio":
            totals.count.get("harness.cache.get", 0.0) / gets
            if gets else 0.0,
        "harness.cache.get_ms": _mean_ms(totals, "harness.cache.get"),
        "harness.cache.put_ms": _mean_ms(totals, "harness.cache.put"),
        "service.client.submits": float(len(submits)),
        "service.client.submit_ms_p50": _pct_ms(submits, 50),
        "service.client.submit_ms_p95": _pct_ms(submits, 95),
        "service.daemon.ticks": float(ticks),
        "service.daemon.tick_ms": _mean_ms(totals, "service.daemon.tick"),
        "service.daemon.idle_tick_frac":
            1.0 - len(busy) / ticks if ticks else 0.0,
        "service.store.appends":
            float(totals.calls.get("service.store.append", 0)),
        "service.store.fsyncs": totals.count.get("service.store.commit", 0.0),
        "service.store.commit_ms": _mean_ms(totals, "service.store.commit"),
    }


def layer_shares(by_pid: Dict[int, List[Span]]) -> Dict[str, float]:
    """Self time per span name, for the printed breakdown."""
    totals = LayerTotals.from_processes(by_pid)
    return dict(sorted(totals.self_s.items(), key=lambda kv: -kv[1]))


def complete(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 where the workload left it unset."""
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}
