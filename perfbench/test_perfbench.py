"""The benchmark's own tests: ``python3 -m pytest perfbench/test_perfbench.py``.

Smoke runs of every workload (a few ops each) check the output
contract; in-process runs check that a corrupted answer is counted as
a failed op, that the daemon is stopped or killed, and that nothing is
left behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import common
import run as bench

common.import_program()

import cli_cold  # noqa: E402  (needs the program on sys.path)
import daemon_edit  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def test_benchmark_json_names_the_metrics_the_runs_print():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "AA.json")) as handle:
        evidence = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        bench.E2E_UNITS
    )
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]} == (
        evidence["bounds"]
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        common.PER_LAYER_UNITS
    )
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    before = _shm()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = common.PER_LAYER_UNITS if trace else bench.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(
            line.split()[:1] == [name] and line.endswith(f" {unit}")
            for line in lines[:-1]
        ), name
    assert any(line.split()[:1] == ["error_rate"] for line in lines)
    if trace:
        assert "validate_chrome_trace: ok" in proc.stdout
        coverage = [line for line in lines if "layer spans cover" in line]
        assert len(coverage) == 1
        assert float(coverage[0].split(">= ")[1].split("%")[0]) >= 90.0
    assert not os.path.exists(common.WORK_ROOT)
    assert not {n for n in _shm() - before if n.startswith("repro")}


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            with open(os.path.join(HERE, name), "rb") as handle:
                (tmp_path / "perfbench" / name).write_bytes(handle.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def work(monkeypatch):
    monkeypatch.chdir(common.ROOT)
    with common.work_dir("test") as path:
        yield path
    assert not os.path.exists(path)


def test_a_corrupted_cli_answer_counts_as_a_failed_op(work, monkeypatch):
    real = common.run_repro
    calls = []

    def corrupting(args, env, timeout=120.0):
        result = real(args, env, timeout)
        calls.append(args)
        if len(calls) == cli_cold.WARMUPS + 1:
            result.stdout = result.stdout.replace("=", "=1", 1)
        return result

    monkeypatch.setattr(cli_cold, "run_repro", corrupting)
    outcome = cli_cold.run(seed=3, seconds=1, traced=False, work=work)
    assert outcome.attempted == cli_cold.PROJECTS
    assert outcome.failed == 1
    assert outcome.metrics["error_rate"][0] == pytest.approx(
        1 / cli_cold.PROJECTS
    )


def test_a_corrupted_replay_counts_as_a_failed_op(work, monkeypatch):
    from repro.serve.client import ReproClient

    real = ReproClient.analyze
    calls = []

    def corrupting(self, path, **kwargs):
        response = real(self, path, **kwargs)
        calls.append(path)
        if len(calls) == daemon_edit.SETUPS * daemon_edit.FILES + 2:
            response["result"]["substituted"] += 1
        return response

    monkeypatch.setattr(ReproClient, "analyze", corrupting)
    outcome = daemon_edit.run(seed=3, seconds=1, traced=False, work=work)
    assert outcome.failed == 1
    assert outcome.metrics["error_rate"][0] == pytest.approx(
        1 / outcome.attempted
    )
    assert "replay differs" in outcome.failures[0]


def test_the_daemon_stops_through_shutdown_or_is_killed(work, monkeypatch):
    daemons = []
    real_init = daemon_edit.Daemon.__init__

    def recording(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        daemons.append(self)

    monkeypatch.setattr(daemon_edit.Daemon, "__init__", recording)
    daemon_edit.run(seed=5, seconds=1, traced=False, work=work)
    assert [d.proc.returncode for d in daemons] == [0] * daemon_edit.SETUPS

    daemons.clear()
    real_calibrate = common.calibrate
    samples = []

    def broken():
        samples.append(real_calibrate())
        if len(samples) > daemon_edit.SETUPS:
            raise RuntimeError("benchmark failure mid-session")
        return samples[-1]

    monkeypatch.setattr(common, "calibrate", broken)
    with pytest.raises(RuntimeError):
        daemon_edit.run(seed=5, seconds=1, traced=False, work=work)
    assert daemons[-1].proc.returncode is not None
    assert daemons[-1].proc.returncode != 0


def _processes_mentioning(text):
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if text.encode() in handle.read():
                    found.append(pid)
        except OSError:
            pass
    return found


def test_sigterm_kills_the_daemon_and_removes_the_work_dir():
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "daemon-edit", "--seed", "2", "--seconds", "2", "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    work = os.path.join(common.WORK_ROOT, f"daemon-edit-{proc.pid}")
    deadline = time.monotonic() + 120
    while not os.path.exists(os.path.join(work, "serve.sock")):
        assert time.monotonic() < deadline and proc.poll() is None
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) != 0
    assert not os.path.exists(work)
    assert _processes_mentioning(work) == []


def test_an_op_span_its_layer_spans_do_not_cover_fails_the_run():
    run = common.TracedRun()
    with run.tracer.span("op", 0):
        common.calibrate()  # time that no layer span accounts for
    with pytest.raises(common.BenchError, match="not traced"):
        run.layer_metrics(common.Outcome())


def test_tail_names_the_highest_percentile_with_ten_ops_beyond():
    assert common.tail(list(range(40))) == (75, 29)
    assert common.tail(list(range(36))) == (72, 25)
    assert common.tail([1.0, 2.0]) == (100, 2.0)
