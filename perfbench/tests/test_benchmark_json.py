"""BENCHMARK.json agrees with what the command reports."""

import json
import re
from pathlib import Path

from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END, WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_exact_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60


def test_workloads_match_the_command():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_metrics_match_what_the_command_prints():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == PER_LAYER


def test_metric_format_limits():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in BENCHMARK[key]] + [w["name"]
                                         for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
