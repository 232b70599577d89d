"""The result line, and the environment the benchmark runs in."""

import json
import os

from perfbench.run import checks_of, clear_program_env, result
from perfbench.workload import Outcome

METRICS = {"latency_p50_ms": {"value": 80.5, "unit": "ms"}}


def _outcome(**kw):
    return Outcome(wall_s=1.0, latencies_ms=[80.5], attempted=4, failed=0,
                   digest="d", checks={"ok": True}, **kw)


def test_an_overloaded_open_loop_is_not_a_correct_run():
    line = json.loads(json.dumps(result([_outcome(overloaded=True)],
                                        METRICS)))
    assert line == {"correct": False, "attempted": 4, "failed": 0,
                    "metrics": METRICS}
    assert not all(checks_of(_outcome(overloaded=True)).values())
    assert result([_outcome(overloaded=False)], METRICS)["correct"] is True


def test_a_pass_without_an_open_loop_gets_no_overload_check():
    assert checks_of(_outcome()) == {"ok": True}
    assert result([_outcome()], METRICS)["correct"] is True


def test_a_failed_check_or_a_differing_traced_digest_is_not_correct():
    failed = _outcome()
    failed.checks["journal has every job exactly once"] = False
    assert result([failed], METRICS)["correct"] is False
    both = result([_outcome(), _outcome()], METRICS, digests_agree=False)
    assert both["correct"] is False and both["attempted"] == 8


def test_program_settings_are_cleared_and_reported(monkeypatch):
    monkeypatch.setenv("CHIMERA_NO_CACHE", "1")
    monkeypatch.setenv("PERFBENCH_TEST_OTHER", "kept")
    found = clear_program_env()
    assert found == {"CHIMERA_NO_CACHE": "1"}
    assert "CHIMERA_NO_CACHE" not in os.environ
    assert os.environ["PERFBENCH_TEST_OTHER"] == "kept"
