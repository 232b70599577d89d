"""Start the scheduling daemon with the benchmark's span wrappers in place.

Usage: ``python perfbench/daemon_launcher.py SPAN_DIR serve [serve args]``.

The traced daemon run starts through this file instead of
``python -m repro``: it installs the wrappers from
:mod:`perfbench.layers` before the daemon forks its worker pool, runs
the program's own CLI entry point, and writes the daemon process's
spans to ``SPAN_DIR`` when the CLI returns. Pool workers write theirs
there after each spec.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.layers import install  # noqa: E402
from perfbench.spans import SpanRecorder, write_spans  # noqa: E402


def main(argv: list) -> int:
    span_dir = Path(argv[0])
    recorder = SpanRecorder(worker_dir=span_dir)
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        write_spans(span_dir / f"spans-{os.getpid()}.jsonl", recorder.spans,
                    mode="a")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
