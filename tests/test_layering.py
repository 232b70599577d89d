"""The model does not import the layers that drive it.

The simulated machine and everything it is built from (``core``,
``gpu``, ``sim``, ``sched``, ``metrics``, ``workloads``, ``functional``,
``idempotence``) must compute a result from its arguments alone. The
harness and the service sit above it and read process state: the
environment, fault plans, caches. An import of either from the model,
even one deferred into a function body, lets that state reach a result
behind the spec's cache key.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODEL = ("core", "gpu", "sim", "sched", "metrics", "workloads",
         "functional", "idempotence")

DRIVERS = ("repro.harness", "repro.service")


def _imported_modules(tree: ast.AST, package: str):
    """(line, dotted name) of every module an import statement names,
    at any depth; ``from a import b`` yields ``a.b`` too, since ``b``
    may be a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) + 1 - node.level]
                base = ".".join(parts + [base] if base else parts)
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _is_driver(name: str) -> bool:
    return any(name == d or name.startswith(d + ".") for d in DRIVERS)


def driver_imports():
    """``path:line`` of every model import of a driver layer."""
    found = []
    for layer in MODEL:
        for path in sorted((SRC / "repro" / layer).rglob("*.py")):
            rel = path.relative_to(SRC)
            package = ".".join(rel.parent.parts)
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            found += sorted({f"{rel.relative_to('repro')}:{line}"
                             for line, name in _imported_modules(tree, package)
                             if _is_driver(name)})
    return found


def test_model_imports_no_driver_layer():
    assert driver_imports() == []


def test_checker_sees_deferred_and_relative_imports():
    source = ("def f():\n"
              "    from repro.harness import faults\n"
              "import repro.service.daemon\n"
              "from repro import harness\n"
              "from ..harness import cache\n"
              "from repro.gpu import config\n"
              "from . import sm\n")
    tree = ast.parse(source)
    flagged = {line for line, name in _imported_modules(tree, "repro.gpu")
               if _is_driver(name)}
    assert flagged == {2, 3, 4, 5}
