"""Shared helpers: percentiles, digests, run stamps, memory sampling.

Percentiles use the nearest-rank rule. A percentile is *supported* by a
sample when at least :data:`MIN_BEYOND` samples rank above it; the
benchmark reports the sample count beside every percentile and says when
a tail percentile is not supported.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import platform
import random
import subprocess
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Samples that must rank above a percentile for it to be reported as
#: a tail estimate.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


def supported(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when ``n`` samples leave at least ``min_beyond`` beyond the
    ``q``-th percentile."""
    return samples_beyond(n, q) >= min_beyond


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample size that supports the ``q``-th percentile."""
    n = 1
    while not supported(n, q, min_beyond):
        n += 1
    return n


def derive_seed(seed: int, *parts: Any) -> int:
    """A stable 63-bit seed derived from ``seed`` and ``parts``."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                          "big") >> 1


def seeded_rng(seed: int, *parts: Any) -> random.Random:
    return random.Random(derive_seed(seed, *parts))


# ----------------------------------------------------------------------
# canonical digests of simulated results
# ----------------------------------------------------------------------


def canonical(obj: Any) -> Any:
    """A JSON-ready tree that keeps every bit of every float.

    Floats become ``repr`` strings, dataclasses their field dicts,
    enums their values, and mapping keys are sorted by ``repr``, so two
    results print the same canonical form only when they are identical.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return canonical({f.name: getattr(obj, f.name)
                          for f in dataclasses.fields(obj)})
    if isinstance(obj, dict):
        return [[canonical(k), canonical(v)]
                for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if hasattr(obj, "__slots__"):
        return canonical({name: getattr(obj, name) for name in obj.__slots__
                          if hasattr(obj, name)})
    if hasattr(obj, "__dict__"):
        return canonical(vars(obj))
    return repr(obj)


def digest(obj: Any) -> str:
    """Short SHA-256 of :func:`canonical` ``obj``."""
    text = json.dumps(canonical(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# run stamp
# ----------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checkout's commit, or ``"unknown"`` when ``root`` is not a git
    work tree (git is kept from searching the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_stamp(root: Path, workload: str, seed: int,
              params: Dict[str, Any]) -> Dict[str, Any]:
    """What produced this result: host, interpreter, commit, inputs."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # numpy is a declared dependency of the program
        numpy_version = "absent"
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = None
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(root),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# whole-process-tree memory
# ----------------------------------------------------------------------


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            continue
    return kids


def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb(root_pid: Optional[int] = None) -> float:
    """Summed resident memory of ``root_pid`` and all its descendants, MB
    (a page shared after a fork counts in every process that maps it)."""
    pending = [root_pid or os.getpid()]
    seen = set()
    total = 0
    while pending:
        pid = pending.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _rss_kib(pid)
        pending.extend(_children(pid))
    return total / 1024.0


class PeakRss:
    """Samples the process tree's resident memory on a thread until
    stopped; ``peak_mb`` is the largest sum seen."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-rss")

    def _run(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, tree_rss_mb())
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.peak_mb = max(self.peak_mb, tree_rss_mb())
