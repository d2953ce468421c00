"""CLI surface of request-scoped telemetry: ``--log`` on the one-shot
subcommands, cold/warm artifact determinism for ``optimize``, the batch
``--report`` percentile line, and ``repro obs report``."""

import json

import pytest

from repro.cli import main
from repro.obs import context, log, trace
from repro.obs.log import validate_log_records
from repro.obs.trace import validate_chrome_trace, validate_stitched_trace
from repro.testkit import TRI_PROGRAM


@pytest.fixture(autouse=True)
def _telemetry_reset():
    """CLI commands must leave no telemetry state behind; start each
    test clean too."""
    yield
    assert log.active() is None, "a command leaked an enabled logger"
    assert trace.active() is None, "a command leaked an enabled tracer"
    assert context.current() is None, "a command leaked a context"
    log.disable()
    trace.disable()
    context.clear()


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.f"
    path.write_text(TRI_PROGRAM)
    return str(path)


class TestLogFlag:
    def test_analyze_log_file(self, program_file, tmp_path, capsys):
        log_path = tmp_path / "run.log"
        assert main(["analyze", program_file,
                     "--log", str(log_path)]) == 0
        err = capsys.readouterr().err
        assert f"[log written to {log_path}" in err
        lines = log_path.read_text().splitlines()
        assert validate_log_records(lines) == []
        records = [json.loads(line) for line in lines]
        assert [r["event"] for r in records] == ["cli.start", "cli.end"]
        assert all(r["request_id"] == "cli-analyze" for r in records)
        assert records[-1]["exit_code"] == 0

    def test_log_dash_goes_to_stderr(self, program_file, capsys):
        assert main(["analyze", program_file, "--log", "-"]) == 0
        captured = capsys.readouterr()
        log_lines = [line for line in captured.err.splitlines()
                     if line.startswith("{")]
        assert validate_log_records(log_lines) == []
        # stdout still carries the report, uncontaminated
        assert "CONSTANTS(" in captured.out
        assert not any(line.startswith("{")
                       for line in captured.out.splitlines())

    def test_exit_code_recorded_on_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.f"
        bad.write_text("      GARBAGE\n")
        log_path = tmp_path / "run.log"
        assert main(["analyze", str(bad), "--log", str(log_path)]) == 1
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        assert records[-1]["event"] == "cli.end"
        assert records[-1]["exit_code"] == 1

    def test_optimize_and_link_accept_log(self, program_file, tmp_path,
                                          capsys):
        for command in (["optimize", program_file],
                        ["link", program_file]):
            log_path = tmp_path / f"{command[0]}.log"
            assert main(command + ["--log", str(log_path)]) == 0
            records = [json.loads(line)
                       for line in log_path.read_text().splitlines()]
            assert records[0]["request_id"] == f"cli-{command[0]}"


class TestTraceCorrelation:
    def test_analyze_trace_has_flow_root(self, program_file, tmp_path,
                                         capsys):
        trace_path = tmp_path / "run.trace.json"
        assert main(["analyze", program_file,
                     "--trace", str(trace_path)]) == 0
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert validate_stitched_trace(payload) == []
        events = payload["traceEvents"]
        (root,) = [e for e in events
                   if e.get("ph") == "X" and e["name"] == "analyze"]
        assert root["args"]["request_id"] == "cli-analyze"
        (start,) = [e for e in events if e.get("ph") == "s"]
        assert start["args"]["request_id"] == "cli-analyze"

    def test_batch_trace_stitches_worker_roots(self, tmp_path, capsys):
        paths = []
        for index in range(3):
            path = tmp_path / f"p{index}.f"
            path.write_text(TRI_PROGRAM)
            paths.append(str(path))
        trace_path = tmp_path / "batch.trace.json"
        log_path = tmp_path / "batch.log"
        assert main(["batch", *paths, "--jobs", "2",
                     "--trace", str(trace_path),
                     "--log", str(log_path)]) == 0
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert validate_stitched_trace(payload) == []
        file_starts = [e for e in payload["traceEvents"]
                       if e.get("ph") == "s"
                       and (e.get("args") or {}).get(
                           "request_id", "").startswith("file:")]
        assert len(file_starts) == 3


class TestProfileMatchesTrace:
    """``--profile`` and ``--trace`` read one stage recorder: the same
    stages, each timed once."""

    def test_profile_stages_are_the_trace_stage_spans(self, tmp_path,
                                                      capsys):
        from repro.suite.generator import ScaleConfig, generate_scaled_program

        source = tmp_path / "scaled.f"
        source.write_text(
            generate_scaled_program(0, ScaleConfig(procedures=80))
        )
        profile_path = tmp_path / "profile.json"
        trace_path = tmp_path / "run.trace.json"
        assert main(["analyze", str(source),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--profile", str(profile_path),
                     "--trace", str(trace_path)]) == 0
        profile = json.loads(profile_path.read_text())
        stages = profile["stages"]
        spans = {}
        for event in json.loads(trace_path.read_text())["traceEvents"]:
            if event.get("ph") == "X" and event["name"].startswith("stage."):
                name = event["name"][len("stage."):]
                spans.setdefault(name, []).append(event["dur"])
        assert set(stages) == set(spans)
        assert "fingerprint" in stages  # the engine's, nested
        for name, entry in stages.items():
            assert entry["calls"] == len(spans[name])
            assert abs(entry["seconds"] - sum(spans[name]) / 1e6) <= (
                1e-6 * entry["calls"]
            ), name
        # fingerprint runs inside prepare: counted once
        outermost = sum(
            entry["seconds"] for name, entry in stages.items()
            if name != "fingerprint"
        )
        assert profile["total_seconds"] == pytest.approx(outermost, abs=1e-5)
        assert stages["fingerprint"]["seconds"] > 1e-5


class TestBatchReportPercentiles:
    def test_report_prints_quantile_line(self, tmp_path, capsys):
        paths = []
        for index in range(3):
            path = tmp_path / f"p{index}.f"
            path.write_text(TRI_PROGRAM)
            paths.append(str(path))
        assert main(["batch", *paths, "--report"]) == 0
        out = capsys.readouterr().out
        assert "--- metrics (aggregated) ---" in out
        (line,) = [l for l in out.splitlines()
                   if l.strip().startswith("batch_file_seconds")]
        assert "p50=" in line and "p95=" in line and "p99=" in line


class TestOptimizeArtifactDeterminism:
    """Satellite: cold vs warm ``repro optimize`` with --trace/--metrics
    must be byte-deterministic where the contract promises it."""

    def test_cold_warm_byte_identity(self, program_file, tmp_path,
                                     capsys):
        def run(tag):
            trace_path = tmp_path / f"{tag}.trace.json"
            metrics_path = tmp_path / f"{tag}.prom"
            ir_path = tmp_path / f"{tag}.ir"
            assert main([
                "optimize", program_file, "--cache",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
                "--output", str(ir_path),
            ]) == 0
            stdout = capsys.readouterr().out
            return trace_path, metrics_path, ir_path, stdout

        cold_trace, cold_metrics, cold_ir, cold_out = run("cold")
        warm_trace, warm_metrics, warm_ir, warm_out = run("warm")
        # the optimized IR is byte-identical cold vs warm
        assert cold_ir.read_bytes() == warm_ir.read_bytes()
        # stdout identical except the written-IR filename line
        def scrub(text):
            return [line for line in text.splitlines()
                    if not line.startswith("[optimized IR written")]
        assert scrub(cold_out) == scrub(warm_out)
        # warm trace replays from the opt cache: no live pass spans
        warm_events = json.loads(warm_trace.read_text())["traceEvents"]
        warm_names = [e["name"] for e in warm_events]
        assert "opt_cache.hit" in warm_names
        assert not any(name.startswith("opt.") for name in warm_names)
        cold_names = [e["name"] for e in
                      json.loads(cold_trace.read_text())["traceEvents"]]
        assert any(name.startswith("opt.") for name in cold_names)
        for path in (cold_trace, warm_trace):
            assert validate_chrome_trace(
                json.loads(path.read_text())) == []
        # both metrics artifacts parse as Prometheus text
        assert cold_metrics.read_text().strip()
        assert warm_metrics.read_text().strip()

    def test_warm_replay_is_itself_deterministic(self, program_file,
                                                 tmp_path, capsys):
        args = ["optimize", program_file, "--cache",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestObsReportCommand:
    def test_joins_cli_artifacts(self, program_file, tmp_path, capsys):
        log_path = tmp_path / "run.log"
        trace_path = tmp_path / "run.trace.json"
        assert main(["analyze", program_file, "--log", str(log_path),
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace_path),
                     str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "request" in out and "cli-analyze" in out

    def test_unknown_artifact_skipped_with_note(self, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_text("\x00\x01 not telemetry")
        assert main(["obs", "report", str(junk)]) == 1
        captured = capsys.readouterr()
        assert "not a recognized" in captured.err
        assert "no usable artifacts" in captured.err

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "absent")]) == 2
        assert "cannot read" in capsys.readouterr().err
