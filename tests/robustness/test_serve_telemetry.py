"""Request-scoped telemetry under the daemon: correlated structured
logs, stitched traces, the ``obs`` protocol op, slow-request capture,
and metrics-scope isolation across concurrent requests."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.log import validate_log_records
from repro.obs.trace import validate_chrome_trace, validate_stitched_trace
from repro.serve import (
    ReproClient,
    ReproServer,
    ServeConfig,
    wait_for_server,
)
from repro.testkit import TRI_PROGRAM


@pytest.fixture
def workdir(tmp_path):
    program = tmp_path / "prog.f"
    program.write_text(TRI_PROGRAM)
    return tmp_path


def make_server(tmp_path, **overrides) -> ReproServer:
    settings = dict(
        socket_path=str(tmp_path / "repro.sock"),
        cache_dir=str(tmp_path / "cache"),
        drain_timeout_s=2.0,
    )
    settings.update(overrides)
    server = ReproServer(ServeConfig(**settings))
    server.start()
    assert wait_for_server(server.config.socket_path, timeout=5.0)
    return server


def run_and_stop(server, requests):
    """Drive ``requests(client)`` against ``server``, shut down, and
    finish the drain (which flushes log/trace/metrics artifacts)."""
    with ReproClient(server.config.socket_path) as client:
        outcome = requests(client)
        client.shutdown()
    server.wait(timeout=10.0)
    server.finish()
    return outcome


class TestObsOp:
    def test_latency_and_ring_payload(self, workdir):
        server = make_server(workdir, obs_window=4)
        program = str(workdir / "prog.f")

        def drive(client):
            client.analyze(program)
            client.analyze(program)
            return client.obs()["result"]

        result = run_and_stop(server, drive)
        assert result["window"] == 4
        assert result["requests_seen"] == 2
        assert result["slow_threshold_s"] is None
        assert result["slow_requests"] == 0
        latency = result["latency"]
        for name in (
            "serve_queue_seconds",
            "serve_request_seconds",
            "serve_stage_queue_seconds",
            "serve_stage_parse_seconds",
            "serve_stage_solve_seconds",
            "serve_stage_opt_seconds",
            "serve_stage_render_seconds",
        ):
            stats = latency[name]
            assert set(stats) == {"count", "sum", "p50", "p95", "p99"}
        stats = latency["serve_request_seconds"]
        assert stats["count"] == 2
        assert stats["p50"] <= stats["p95"] <= stats["p99"]
        entries = result["recent"]
        assert [e["op"] for e in entries] == ["analyze", "analyze"]
        first = entries[0]
        assert first["request_id"] == "r000001"
        assert first["status"] == "ok"
        for bucket in ("queue", "parse", "solve", "opt", "render"):
            assert f"{bucket}_ms" in first
        assert first["total_ms"] >= 0.0

    def test_ring_window_and_limit(self, workdir):
        server = make_server(workdir, obs_window=2)
        program = str(workdir / "prog.f")

        def drive(client):
            for _ in range(4):
                client.analyze(program)
            full = client.obs()["result"]
            limited = client.obs(limit=1)["result"]
            return full, limited

        full, limited = run_and_stop(server, drive)
        assert full["requests_seen"] >= 4
        assert len(full["recent"]) == 2  # window caps retention
        assert len(limited["recent"]) == 1
        assert limited["recent"][0]["request_id"] > full["recent"][0][
            "request_id"
        ]


class TestLogArtifact:
    def test_every_record_correlated_and_schema_clean(self, workdir):
        log_path = workdir / "serve.log"
        server = make_server(workdir, log_path=str(log_path))
        program = str(workdir / "prog.f")
        run_and_stop(
            server, lambda client: (client.analyze(program),
                                    client.analyze(program))
        )
        lines = log_path.read_text().splitlines()
        assert validate_log_records(lines) == []
        records = [json.loads(line) for line in lines]
        assert all(record["request_id"] not in ("", "-")
                   for record in records)
        events = [record["event"] for record in records]
        assert events[0] == "server.start"
        assert events[-1] == "server.stop"
        assert events.count("request.start") == events.count("request.end")
        assert events.count("request.start") >= 2
        # request records carry the admission-assigned id; lifecycle
        # records carry the session id
        starts = [r for r in records if r["event"] == "request.start"]
        assert [r["request_id"] for r in starts][:2] == [
            "r000001", "r000002",
        ]
        ends = {r["request_id"]: r for r in records
                if r["event"] == "request.end"}
        assert ends["r000001"]["status"] == "ok"
        assert ends["r000002"]["replayed"] is True
        for bucket in ("queue", "parse", "solve", "opt", "render"):
            assert f"{bucket}_ms" in ends["r000001"]
        (stop,) = [r for r in records if r["event"] == "server.stop"]
        assert stop["request_id"] == "server"

    def test_slow_request_capture(self, workdir):
        log_path = workdir / "serve.log"
        server = make_server(
            workdir, log_path=str(log_path), slow_request_s=1e-7
        )
        program = str(workdir / "prog.f")

        def drive(client):
            client.analyze(program)
            return client.obs()["result"]

        result = run_and_stop(server, drive)
        assert result["slow_requests"] >= 1
        assert result["slow_threshold_s"] == 1e-7
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        slow = [r for r in records if r["event"] == "request.slow"]
        assert slow, "expected request.slow records"
        first = slow[0]
        assert first["level"] == "warn"
        assert first["request_id"] == "r000001"
        assert first["threshold_ms"] == 0.0  # rounds below 1us
        assert result["slow_threshold_s"] == 1e-7
        assert "stages" in first and "total_ms" in first

    def test_log_level_filters(self, workdir):
        log_path = workdir / "serve.log"
        server = make_server(
            workdir, log_path=str(log_path), log_level="error",
            slow_request_s=1e-9,
        )
        program = str(workdir / "prog.f")
        run_and_stop(server, lambda client: client.analyze(program))
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        # info lifecycle records and warn slow records are all filtered
        assert records == []


class TestTraceArtifact:
    def test_stitched_trace_with_request_roots(self, workdir):
        trace_path = workdir / "serve.trace.json"
        server = make_server(workdir, trace_path=str(trace_path))
        program = str(workdir / "prog.f")
        run_and_stop(
            server, lambda client: (client.analyze(program),
                                    client.analyze(program))
        )
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert validate_stitched_trace(payload) == []
        events = payload["traceEvents"]
        roots = [e for e in events
                 if e.get("ph") == "X" and e["name"] == "serve.request"]
        assert len(roots) >= 2
        root_ids = {e["args"]["request_id"] for e in roots}
        assert {"r000001", "r000002"} <= root_ids
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        start_requests = {e["args"]["request_id"] for e in starts}
        assert {"r000001", "r000002"} <= start_requests
        assert {e["id"] for e in finishes} <= {e["id"] for e in starts}


    def test_ring_entry_buckets_are_the_stage_spans(self, workdir):
        """The timeline and the trace read one stage recorder: an edited
        file's parse/solve buckets are exactly its stage spans."""
        trace_path = workdir / "serve.trace.json"
        server = make_server(workdir, trace_path=str(trace_path))
        program = workdir / "prog.f"

        def drive(client):
            client.analyze(str(program))
            program.write_text(TRI_PROGRAM.replace("N = 100", "N = 101"))
            client.analyze(str(program))
            return client.obs()["result"]["recent"]

        recent = run_and_stop(server, drive)
        (entry,) = [e for e in recent if e["request_id"] == "r000002"]
        assert entry["replayed"] is False
        events = json.loads(trace_path.read_text())["traceEvents"]
        (root,) = [e for e in events if e.get("ph") == "X"
                   and e["name"] == "serve.request"
                   and e["args"]["request_id"] == "r000002"]
        durations = {}
        for event in events:
            if (event.get("ph") == "X" and event["name"].startswith("stage.")
                    and event["tid"] == root["tid"]
                    and root["ts"] <= event["ts"] <= root["ts"] + root["dur"]):
                name = event["name"][len("stage."):]
                durations[name] = durations.get(name, 0) + event["dur"]
        assert "fingerprint" in durations  # nested: in no bucket
        parse_us = durations["parse"] + durations["lower"]
        solve_us = sum(durations[name] for name in (
            "prepare", "return_functions", "forward_functions",
            "propagate", "substitution",
        ))
        assert entry["parse_ms"] == pytest.approx(parse_us / 1000, abs=5e-4)
        assert entry["solve_ms"] == pytest.approx(solve_us / 1000, abs=5e-4)


class TestGcPauses:
    def test_a_collection_inside_a_stage_is_reported(self, workdir,
                                                     monkeypatch):
        """A request that forces a collection inside its propagate stage
        reports the pause as ``gc_ms``, in its ring entry and in its
        ``request.slow`` record; the stage's time still holds it."""
        import gc

        from repro.ipcp import driver

        real_propagate = driver.propagate

        def collecting(*args, **kwargs):
            for _ in range(20000):
                cycle = []
                cycle.append(cycle)
            gc.collect()
            return real_propagate(*args, **kwargs)

        monkeypatch.setattr(driver, "propagate", collecting)
        callbacks = list(gc.callbacks)
        log_path = workdir / "serve.log"
        server = make_server(
            workdir, log_path=str(log_path), slow_request_s=1e-7
        )

        def drive(client):
            client.analyze(str(workdir / "prog.f"))
            return client.obs()["result"]["recent"]

        recent = run_and_stop(server, drive)
        assert gc.callbacks == callbacks
        (entry,) = [e for e in recent if e["request_id"] == "r000001"]
        assert 0 < entry["gc_ms"] <= entry["solve_ms"]
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        (slow,) = [r for r in records if r["event"] == "request.slow"
                   and r["request_id"] == "r000001"]
        assert slow["gc_ms"] == entry["gc_ms"]


class TestScopeIsolation:
    """Concurrent requests must see non-overlapping per-request metric
    deltas: the dispatcher scopes the registry per request, so handler
    threads and neighbors can never leak counters into a delta."""

    def test_sequential_deltas_do_not_accumulate(self, workdir):
        server = make_server(workdir)
        program = str(workdir / "prog.f")

        def drive(client):
            cold = client.analyze(program)["result"]["metrics"]
            warm = client.analyze(program)["result"]["metrics"]
            return cold, warm

        cold, warm = run_and_stop(server, drive)
        assert cold.get("parses", 0) == 1
        assert cold.get("run_cache_misses", 0) == 1
        # the warm replay did no fresh analysis and its delta says so
        assert warm.get("parses", 0) == 0
        assert warm.get("run_cache_hits", 0) == 1
        assert warm.get("serve_replayed", 0) == 1
        # admission-side counters never appear in request deltas
        for delta in (cold, warm):
            assert "serve_requests" not in delta
            assert "serve_shed" not in delta

    def test_concurrent_deltas_are_disjoint(self, tmp_path):
        # Distinct programs so no request can replay another's work;
        # each delta must account for exactly one analysis.
        programs = []
        for index in range(4):
            path = tmp_path / f"p{index}.f"
            path.write_text(
                TRI_PROGRAM.replace("PROGRAM main", "PROGRAM main")
                + f"\nC variant {index}\n"
            )
            programs.append(str(path))
        server = make_server(tmp_path)
        deltas = [None] * len(programs)
        errors = []

        def worker(index):
            try:
                with ReproClient(server.config.socket_path) as client:
                    response = client.analyze(programs[index])
                    deltas[index] = response["result"]["metrics"]
            except Exception as err:  # noqa: BLE001 - collected for assert
                errors.append(err)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(programs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert errors == []
            for delta in deltas:
                assert delta is not None
                # exactly this request's analysis, not a neighbor's
                assert delta.get("parses", 0) == 1
                assert delta.get("run_cache_misses", 0) == 1
                assert delta.get("run_cache_hits", 0) == 0
        finally:
            with ReproClient(server.config.socket_path) as client:
                client.shutdown()
            server.wait(timeout=10.0)
            server.finish()
