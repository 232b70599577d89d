"""In-memory timing spans recorded around calls into the program.

A :class:`SpanRecorder` wraps functions from the outside: each call
becomes one span ``(id, parent, name, t0, t1, n)`` on the monotonic
``perf_counter`` clock, where ``parent`` is the span that was open on
the same thread when the call began and ``n`` is an optional count the
wrapper measured (events fired, thread blocks built, ...). Spans stay
in memory and are written out once, when the benchmark ends.

Forked worker processes inherit the wrappers but not the parent's
spans: a fork hook clears the copy, and :meth:`SpanRecorder.flush`
appends a worker's spans to its own per-pid file after each top-level
call, because pool workers are never given a clean exit to dump at.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One recorded span: (id, parent id or 0, name, t0, t1, n).
Span = Tuple[int, int, str, float, float, float]

Before = Callable[[tuple, dict], Any]
After = Callable[[Any, tuple, dict, Any], float]


class SpanRecorder:
    """Collects spans from wrapped calls in this process (and, through
    per-pid files, from workers forked after the wrappers went in)."""

    def __init__(self, worker_dir: Optional[os.PathLike] = None):
        self.spans: List[Span] = []
        self.owner_pid = os.getpid()
        #: Where forked workers append their spans (None: discard them).
        self.worker_dir = Path(worker_dir) if worker_dir is not None else None
        self._ids = itertools.count(1)
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, before: Optional[Before] = None,
             after: Optional[After] = None, flush: bool = False) -> Callable:
        """``fn`` wrapped so that every call records a span ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(token, args, kwargs, result)``, which returns
        the span's count. ``flush`` marks a worker's top-level entry
        point: in a forked worker the spans recorded so far are written
        out when it returns. ``functools.wraps`` keeps the module and
        qualified name, so a wrapped module-level function still pickles
        by reference into pool workers.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            sid = next(recorder._ids)
            parent = stack[-1] if stack else 0
            token = before(args, kwargs) if before is not None else None
            stack.append(sid)
            n = 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    n = after(token, args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                recorder.spans.append((sid, parent, name, t0, t1, n))
                if flush and not stack:
                    recorder.flush()

        return wrapper

    def flush(self) -> None:
        """In a forked worker, append this process's spans to its file."""
        if os.getpid() == self.owner_pid or self.worker_dir is None:
            return
        spans, self.spans = self.spans, []
        write_spans(self.worker_dir / f"spans-{os.getpid()}.jsonl", spans,
                    mode="a")


def patch(target: Any, attr: str, wrapper_factory: Callable[[Callable],
                                                              Callable],
          undo: List[Callable[[], None]]) -> None:
    """Replace ``target.attr`` by ``wrapper_factory(original)`` and
    remember how to put the original back."""
    original = target.__dict__[attr] if isinstance(target, type) \
        else getattr(target, attr)
    setattr(target, attr, wrapper_factory(original))
    undo.append(lambda: setattr(target, attr, original))


def write_spans(path: Path, spans: Iterable[Span], mode: str = "w",
                pid: Optional[int] = None) -> None:
    """Write spans as JSON lines, one ``[pid, id, parent, name, t0, t1,
    n]`` list per line; ``pid`` defaults to this process."""
    path.parent.mkdir(parents=True, exist_ok=True)
    pid = os.getpid() if pid is None else pid
    with open(path, mode, encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps([pid, *span]) + "\n")


def read_spans(paths: Iterable[Path]) -> Dict[int, List[Span]]:
    """Spans from JSON-lines files, grouped by the process that wrote them."""
    by_pid: Dict[int, List[Span]] = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                pid, sid, parent, name, t0, t1, n = json.loads(line)
                by_pid[pid].append((sid, parent, name, t0, t1, n))
    return by_pid


def collect(recorder: SpanRecorder,
            directory: Optional[Path] = None) -> Dict[int, List[Span]]:
    """The recorder's own spans plus every span file under ``directory``
    (default: where its forked workers write), grouped by process."""
    directory = directory or recorder.worker_dir
    by_pid = read_spans(sorted(directory.glob("spans-*.jsonl"))
                        if directory is not None else [])
    by_pid[os.getpid()].extend(recorder.spans)
    return by_pid


def covered(intervals: List[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span of one process: its duration minus the
    part of its interval that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, t0, t1, _ in spans:
        if parent:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - covered(children.get(sid, []), t0, t1)
            for sid, _, _, t0, t1, _ in spans}


class LayerTotals:
    """Per-name rollup of spans: calls, summed self time, summed count,
    and the individual durations and counts for percentiles and shares."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, List[float]] = defaultdict(list)

    @classmethod
    def from_processes(cls, by_pid: Dict[int, List[Span]]) -> "LayerTotals":
        totals = cls()
        for spans in by_pid.values():
            own = self_times(spans)
            for sid, _, name, t0, t1, n in spans:
                totals.calls[name] += 1
                totals.self_s[name] += own[sid]
                totals.count[name] += n
                totals.durations[name].append(t1 - t0)
                totals.counts[name].append(n)
        return totals


def child_counts(by_pid: Dict[int, List[Span]], parent_name: str,
                 child_name: str) -> List[int]:
    """For every span named ``parent_name``, how many direct children
    named ``child_name`` it has."""
    out: List[int] = []
    for spans in by_pid.values():
        hits: Dict[int, int] = {sid: 0 for sid, _, name, *_ in spans
                                if name == parent_name}
        for _, parent, name, *_ in spans:
            if name == child_name and parent in hits:
                hits[parent] += 1
        out.extend(hits.values())
    return out
