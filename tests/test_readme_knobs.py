"""README.md is the one table of ``CHIMERA_*`` environment knobs.

Every name the program or the benchmarks mention must have a README
row, and every README row must name something they still read. A row
is a table line (``| `CHIMERA_X` | ...``) or a list item
(``- `CHIMERA_X` — ...``); its knobs are the names in its first cell or
before the dash. Prefix mentions such as ``CHIMERA_BROWNOUT_*`` name a
family, not a knob, and are ignored.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NAME = re.compile(r"CHIMERA_[A-Z0-9_]+")


def _names(text: str) -> set:
    return {name for name in _NAME.findall(text) if not name.endswith("_")}


def code_names() -> set:
    names = set()
    for top in ("src", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            names |= _names(path.read_text(encoding="utf-8"))
    return names


def readme_rows() -> set:
    names = set()
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("| `CHIMERA_"):
            names |= _names(line.split("|")[1])
        elif line.startswith("- `CHIMERA_"):
            names |= _names(line.split(" — ")[0])
    return names


def test_readme_rows_are_exactly_the_knobs_in_the_code():
    code, readme = code_names(), readme_rows()
    assert sorted(code - readme) == [], "knobs without a README row"
    assert sorted(readme - code) == [], "README rows for knobs nothing reads"
