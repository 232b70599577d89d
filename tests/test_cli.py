"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table1(capsys):
    code, out = run_cli(capsys, "table1")
    assert code == 0
    assert "30 SMs" in out
    assert "177.4 GB/s" in out


def test_table2(capsys):
    code, out = run_cli(capsys, "table2")
    assert code == 0
    assert "BS.0" in out and "ST.0" in out
    assert out.count("\n") >= 28


def test_estimate(capsys):
    code, out = run_cli(capsys, "estimate")
    assert code == 0
    assert "average" in out
    assert "30.7%" in out  # flush overhead constant


def test_analyze(capsys):
    code, out = run_cli(capsys, "analyze")
    assert code == 0
    assert "vector_add" in out
    assert "histogram_atomic" in out
    assert "atomic" in out  # a reason string


def test_periodic(capsys):
    code, out = run_cli(capsys, "periodic", "--bench", "BS",
                        "--policy", "chimera", "--periods", "3",
                        "--seed", "1")
    assert code == 0
    assert "violations" in out
    assert "technique mix" in out


def test_periodic_rejects_unknown_bench(capsys):
    with pytest.raises(SystemExit):
        main(["periodic", "--bench", "NOPE"])


def test_pair(capsys):
    code, out = run_cli(capsys, "pair", "--benchmarks", "LUD", "BS",
                        "--policies", "chimera", "--budget", "1e6",
                        "--seed", "1")
    assert code == 0
    assert "fcfs" in out
    assert "chimera" in out
    assert "ANTT" in out


def test_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


class TestTraceCommand:
    @pytest.fixture
    def trace_file(self, tmp_path):
        from repro.sim import trace as T
        from repro.sim.trace import Tracer, dump_jsonl
        tracer = Tracer(clock_mhz=1400.0)
        tracer.meta["num_sms"] = 2
        tracer.emit(0.0, T.LAUNCH, "A", kernel="A", grid=1)
        tracer.emit(0.0, T.ASSIGN, "a", sm=0, kernel="A")
        tracer.emit(0.0, T.DISPATCH, "d", sm=0, kernel="A", tb=0)
        tracer.emit(1400.0, T.COMPLETE, "c", sm=0, kernel="A", tb=0)
        tracer.emit(1400.0, T.FINISH, "A", kernel="A")
        tracer.emit(1400.0, T.IDLE, "i", sm=0, kernel="A")
        path = tmp_path / "run.jsonl"
        dump_jsonl(tracer, path)
        return path

    @pytest.fixture
    def broken_trace_file(self, tmp_path):
        """A trace that violates the checker: PREEMPT never released."""
        from repro.sim import trace as T
        from repro.sim.trace import Tracer, dump_jsonl
        tracer = Tracer(clock_mhz=1400.0)
        tracer.emit(0.0, T.LAUNCH, "A", kernel="A")
        tracer.emit(0.0, T.ASSIGN, "a", sm=0, kernel="A")
        tracer.emit(700.0, T.PREEMPT, "p", sm=0, kernel="A")
        path = tmp_path / "broken.jsonl"
        dump_jsonl(tracer, path)
        return path

    def test_summary(self, capsys, trace_file):
        code, out = run_cli(capsys, "trace", str(trace_file))
        assert code == 0
        assert "span:" in out and "launch=1" in out

    def test_check_clean(self, capsys, trace_file):
        code, out = run_cli(capsys, "trace", str(trace_file), "--check")
        assert code == 0
        assert "OK" in out

    def test_check_violation_fails(self, capsys, broken_trace_file):
        code, out = run_cli(capsys, "trace", str(broken_trace_file),
                            "--check")
        assert code == 1
        assert "preempt-unreleased" in out

    def test_allow_open_accepts_cut_trace(self, capsys, broken_trace_file):
        code, out = run_cli(capsys, "trace", str(broken_trace_file),
                            "--check", "--allow-open")
        assert code == 0

    def test_chrome_export(self, capsys, trace_file, tmp_path):
        import json
        out_path = tmp_path / "chrome.json"
        code, out = run_cli(capsys, "trace", str(trace_file),
                            "--chrome", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]

    def test_chrome_refuses_multiple_files(self, capsys, trace_file,
                                           tmp_path):
        code = main(["trace", str(trace_file), str(trace_file),
                     "--chrome", str(tmp_path / "x.json")])
        assert code == 2

    def test_unreadable_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.jsonl"
        code = main(["trace", str(missing)])
        assert code == 1

    def test_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code = main(["trace", str(bad)])
        assert code == 1


def test_periodic_with_trace_capture(capsys, tmp_path, monkeypatch):
    """--trace wires end to end: run, capture, then validate via the
    trace subcommand."""
    trace_dir = tmp_path / "traces"
    # Pre-set via monkeypatch so the CLI's own os.environ write (same
    # value) is rolled back at teardown instead of leaking.
    monkeypatch.setenv("CHIMERA_TRACE", str(trace_dir))
    code, out = run_cli(capsys, "periodic", "--bench", "BS",
                        "--policy", "chimera", "--periods", "2",
                        "--seed", "1", "--jobs", "1",
                        "--trace", str(trace_dir))
    assert code == 0
    files = sorted(trace_dir.glob("*.jsonl"))
    assert len(files) == 1
    code, out = run_cli(capsys, "trace", str(files[0]), "--check")
    assert code == 0
    assert "OK" in out


class TestLogLevelAndExitCodes:
    """Global --log-level wiring and the uniform exit-code contract:
    0 success, 1 spec/job failure, 2 usage or configuration error."""

    def test_log_level_configures_repro_logger(self, capsys):
        import logging

        root = logging.getLogger("repro")
        before = root.level
        try:
            code, _ = run_cli(capsys, "--log-level", "debug", "table1")
            assert code == 0
            assert root.level == logging.DEBUG
            assert any(isinstance(h, logging.StreamHandler)
                       for h in root.handlers)
        finally:
            root.setLevel(before)

    def test_rejects_unknown_log_level(self):
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", "loud", "table1"])
        assert exc.value.code == 2  # argparse usage errors exit 2

    def test_config_error_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CHIMERA_BROWNOUT_ENTER", "many")
        code = main(["serve", "--dir", str(tmp_path / "svc"),
                     "--idle-exit", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "CHIMERA_BROWNOUT_ENTER" in err

    def test_unknown_job_exits_1(self, tmp_path, capsys):
        code = main(["status", "--dir", str(tmp_path / "svc"),
                     "--job", "nope"])
        assert code == 1
        assert "unknown job" in capsys.readouterr().err


class TestServiceCommands:
    """submit / serve / status / cancel wired end to end in-process."""

    def test_submit_serve_status_roundtrip(self, tmp_path, capsys):
        svc = str(tmp_path / "svc")
        code, out = run_cli(capsys, "submit", "--dir", svc,
                            "--kind", "periodic", "--bench", "BS",
                            "--periods", "1", "--seeds", "3",
                            "--policies", "drain", "--job-id", "job-1")
        assert code == 0
        assert out.strip() == "job-1"
        code, _ = run_cli(capsys, "serve", "--dir", svc, "--poll", "0",
                          "--idle-exit", "0.05", "--max-wall", "120")
        assert code == 0
        code, out = run_cli(capsys, "status", "--dir", svc, "--job", "job-1")
        assert code == 0
        assert out.strip() == "completed"
        code, out = run_cli(capsys, "status", "--dir", svc)
        assert code == 0
        assert "job-1" in out and "reconciled" in out

    def test_cancel_unknown_job_exits_1(self, tmp_path, capsys):
        code = main(["cancel", "--dir", str(tmp_path / "svc"), "ghost"])
        assert code == 1
        assert "unknown or already finished" in capsys.readouterr().err

    def test_submit_duplicate_id_is_job_failure(self, tmp_path, capsys):
        svc = str(tmp_path / "svc")
        args = ["submit", "--dir", svc, "--kind", "periodic",
                "--bench", "BS", "--periods", "1", "--job-id", "dup"]
        assert main(args) == 0
        capsys.readouterr()
        code = main(args)
        assert code == 1
        assert "error:" in capsys.readouterr().err
