"""The daemon's fault matrix, in-process: one :class:`ReproServer` per
test on a tmp unix socket, driven through the real client over the real
wire. Each test arms one fault and asserts the *contract*: well-formed
responses, sound (byte-identical) analysis content, and a degradation
that is visible — in ``degraded`` notes, error codes, or counters —
never silent."""

from __future__ import annotations

import gc
import os
import threading
import warnings

import pytest

from repro import faults
from repro.config import AnalysisConfig
from repro.ipcp.driver import analyze_source
from repro.serve import (
    ReproClient,
    ReproServer,
    ServeConfig,
    ServeRequestError,
    wait_for_server,
)
from repro.serve.server import SocketBusyError
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


def serial_truth():
    result = analyze_source(TRI_PROGRAM, AnalysisConfig())
    return (
        result.constants.format_report(),
        result.constants.total_pairs(),
        result.substituted_constants,
        dict(result.substitution.per_procedure),
    )


def record_reads(cache):
    """Route ``cache.get`` through a recorder; returns the list of
    namespaces read, in order."""
    namespaces = []
    real_get = cache.get

    def get(namespace, key):
        namespaces.append(namespace)
        return real_get(namespace, key)

    cache.get = get
    return namespaces


def content_of(response):
    result = response["result"]
    return (
        result["constants_report"],
        result["total_pairs"],
        result["substituted"],
        result["per_procedure"],
    )


class TestServeBaseline:
    def test_cold_warm_and_explain(self, workdir):
        server = make_server(workdir)
        program = str(workdir / "prog.f")
        try:
            with ReproClient(server.config.socket_path) as client:
                cold = client.analyze(program)
                assert cold["ok"] and not cold["result"]["replayed"]
                assert content_of(cold) == serial_truth()
                assert cold["degraded"] == []
                warm = client.analyze(program)
                assert warm["result"]["replayed"]
                assert content_of(warm) == content_of(cold)
                explained = client.explain(program, "G2@bar")
                result = explained["result"]
                assert "explain" in result or "explain_error" in result
        finally:
            server.request_stop()
            assert server.finish() == 0
        assert not os.path.exists(server.config.socket_path)

    def test_plain_replay_reads_no_provenance(
        self, workdir, provenance_builds
    ):
        """Provenance lives in its own ``prov`` entry: a plain replay
        reads only the ``run`` entry, an explain replay reads both, and
        a live explain builds the provenance it records only once."""
        server = make_server(workdir)
        program = str(workdir / "prog.f")
        reads = record_reads(server.engine.cache)
        try:
            with ReproClient(server.config.socket_path) as client:
                cold = client.explain(program, "g1@bar")["result"]
                assert not cold["replayed"]
                assert len(provenance_builds) == 1
                reads.clear()
                warm = client.analyze(program)["result"]
                assert warm["replayed"] and "explain" not in warm
                assert reads == ["run"]
                reads.clear()
                explained = client.explain(program, "g1@bar")["result"]
                assert explained["replayed"]
                assert reads == ["run", "prov"]
                assert explained["explain"] == cold["explain"]
                assert len(provenance_builds) == 1
        finally:
            server.request_stop()
            server.finish()

    def test_invalidate_then_dirty_set_only_recompute(self, workdir):
        """The acceptance loop: ``invalidate`` evicts only the run-level
        replay entry, so the next ``analyze`` re-walks the engine where
        every clean procedure is served from the summary cache — the
        per-request ``recomputed_*`` counters must say *exactly* the
        dirty set was recomputed (for an unchanged file: nothing; after
        an edit: the invalidation report's dirty procedures)."""
        server = make_server(workdir)
        program = workdir / "prog.f"
        try:
            with ReproClient(server.config.socket_path) as client:
                client.analyze(str(program))
                evicted = client.invalidate(str(program))
                assert evicted["result"]["invalidated"]
                rerun = client.analyze(str(program))
                result = rerun["result"]
                assert not result["replayed"]
                counters = result["metrics"]
                for namespace in ("ret", "fwd", "sub"):
                    assert f"recomputed_{namespace}" not in counters, (
                        f"unchanged file recomputed {namespace} summaries: "
                        f"{counters}"
                    )
                assert counters.get("summary_cache_hits", 0) > 0
                assert not counters.get("summary_cache_misses")

                edited = TRI_PROGRAM.replace("N = 100", "N = 123")
                assert edited != TRI_PROGRAM
                program.write_text(edited)
                after_edit = client.analyze(str(program))
                report = after_edit["result"]["invalidation"]
                counters = after_edit["result"]["metrics"]
                assert report["edited"], "the edit must be classified"
                assert counters.get("recomputed_ret", 0) == \
                    report["dirty_count"], (
                        "recomputed ret summaries must equal the dirty "
                        f"set: {counters} vs {report}"
                    )
        finally:
            server.request_stop()
            server.finish()


class TestServeFaults:
    def test_deadline_expiry_is_a_clean_error(self, workdir):
        faults.install("delay-request:op=analyze,ms=300", export_env=False)
        server = make_server(workdir)
        program = str(workdir / "prog.f")
        try:
            with ReproClient(server.config.socket_path) as client:
                with pytest.raises(ServeRequestError) as excinfo:
                    client.analyze(program, deadline_ms=50)
                assert excinfo.value.code == "deadline_expired"
                faults.clear()
                recovered = client.analyze(program)
                assert recovered["ok"], (
                    "one expired request must not poison the dispatcher"
                )
                status = client.status()["result"]
                assert status["counters"].get("serve_deadline_expired") == 1
        finally:
            server.request_stop()
            server.finish()

    def test_overload_sheds_with_retry_hint(self, workdir):
        faults.install("delay-request:ms=400", export_env=False)
        server = make_server(workdir, queue_limit=1)
        program = str(workdir / "prog.f")
        outcomes = []
        lock = threading.Lock()

        def one_request():
            try:
                with ReproClient(server.config.socket_path) as client:
                    response = client.request("analyze", program)
                with lock:
                    outcomes.append(("ok", response))
            except ServeRequestError as err:
                with lock:
                    outcomes.append((err.code, err))

        threads = [threading.Thread(target=one_request) for _ in range(6)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            codes = [kind for kind, _ in outcomes]
            assert codes.count("ok") >= 1
            assert "overloaded" in codes, f"nothing was shed: {codes}"
            shed = next(err for kind, err in outcomes
                        if kind == "overloaded")
            assert shed.retry_after is not None and shed.retry_after > 0
            faults.clear()
            with ReproClient(server.config.socket_path) as client:
                status = client.status()["result"]
                assert status["counters"].get("serve_shed", 0) >= 1
        finally:
            server.request_stop()
            server.finish()

    def test_drain_under_load(self, workdir):
        """SIGTERM-equivalent mid-stream: every in-flight client gets a
        well-formed answer — completed analyses as ``ok``, the rest as
        ``shutting_down`` — and the server still exits cleanly."""
        faults.install("delay-request:ms=250", export_env=False)
        server = make_server(workdir, queue_limit=32, drain_timeout_s=0.4)
        program = str(workdir / "prog.f")
        outcomes = []
        lock = threading.Lock()

        def one_request():
            try:
                with ReproClient(server.config.socket_path) as client:
                    response = client.request("analyze", program)
                with lock:
                    outcomes.append(("ok", response))
            except ServeRequestError as err:
                with lock:
                    outcomes.append((err.code, err))

        threads = [threading.Thread(target=one_request) for _ in range(6)]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.3)  # let the first request start, the rest queue
        server.request_stop(0)
        for thread in threads:
            thread.join(timeout=30)
        assert server.finish() == 0
        codes = sorted(kind for kind, _ in outcomes)
        assert len(codes) == 6, f"every client must be answered: {codes}"
        assert all(kind in ("ok", "shutting_down") for kind in codes), codes
        assert "shutting_down" in codes, (
            f"a 0.4s grace cannot drain six 250ms requests: {codes}"
        )
        completed = [resp for kind, resp in outcomes if kind == "ok"]
        for response in completed:
            assert content_of(response) == serial_truth()

    def test_new_requests_rejected_while_draining(self, workdir):
        server = make_server(workdir, drain_timeout_s=1.0)
        program = str(workdir / "prog.f")
        client = ReproClient(server.config.socket_path)
        try:
            server.request_stop(0)
            with pytest.raises(ServeRequestError) as excinfo:
                client.request("analyze", program)
            assert excinfo.value.code == "shutting_down"
        finally:
            client.close()
            server.finish()

    def test_corrupt_cache_recomputes_soundly(self, workdir):
        """Poisoned summary cache: the daemon quarantines on read and
        recomputes — same analysis content, visible counter."""
        faults.install("truncate-cache", export_env=False)
        server = make_server(workdir)
        program = str(workdir / "prog.f")
        try:
            with ReproClient(server.config.socket_path) as client:
                first = client.analyze(program)  # every store torn
                faults.clear()
                second = client.analyze(program)
                assert not second["result"]["replayed"], (
                    "the torn run entry must quarantine, not replay"
                )
                assert content_of(second) == content_of(first)
                assert content_of(second) == serial_truth()
                status = client.status()["result"]
                assert status["cache"]["quarantined"] > 0
                assert status["counters"].get("cache_quarantined", 0) > 0
        finally:
            server.request_stop()
            server.finish()

    def test_corrupt_prov_entry_explains_live(self, workdir):
        """A rotted ``prov`` entry cannot serve an explain replay: the
        daemon quarantines it and answers from a live analysis."""
        faults.install("corrupt-cache:namespace=prov", export_env=False)
        server = make_server(workdir)
        program = str(workdir / "prog.f")
        try:
            with ReproClient(server.config.socket_path) as client:
                cold = client.explain(program, "g1@bar")["result"]
                faults.clear()
                warm = client.explain(program, "g1@bar")["result"]
                assert not warm["replayed"]
                assert warm["explain"] == cold["explain"]
                assert warm["metrics"].get("cache_quarantined") == 1
                again = client.explain(program, "g1@bar")["result"]
                assert again["replayed"]
                assert again["explain"] == cold["explain"]
        finally:
            server.request_stop()
            server.finish()


class TestServeProtocolEdges:
    def test_malformed_frame_gets_bad_request(self, workdir):
        import socket as socketlib

        server = make_server(workdir)
        try:
            raw = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            raw.settimeout(5)
            raw.connect(server.config.socket_path)
            stream = raw.makefile("rb")
            import json

            raw.sendall(b"this is not json\n")
            error = json.loads(stream.readline())
            assert error["ok"] is False
            assert error["error"]["code"] == "bad_request"
            raw.sendall(b'{"op": "launch-missiles"}\n')
            error = json.loads(stream.readline())
            assert error["error"]["code"] == "bad_request"
            # The connection survives garbage: a real request still works.
            raw.sendall(b'{"op": "status", "id": 9}\n')
            response = json.loads(stream.readline())
            assert response["ok"] is True and response["id"] == 9
            raw.close()
        finally:
            server.request_stop()
            server.finish()

    @pytest.mark.parametrize("explain", [123, ["x"], ""])
    def test_analyze_explain_must_name_a_cell(self, workdir, explain):
        """``params.explain`` that is not a NAME@PROC string is the
        client's fault (``bad_request``), as ``params.cell`` is for the
        ``explain`` op, not an ``internal`` crash in the explainer."""
        server = make_server(workdir)
        try:
            with ReproClient(server.config.socket_path) as client:
                with pytest.raises(ServeRequestError) as caught:
                    client.analyze(str(workdir / "prog.f"), explain=explain)
                assert caught.value.code == "bad_request"
                assert "params.explain" in str(caught.value)
                # The connection survives: a good request still works.
                assert client.analyze(str(workdir / "prog.f"))["ok"]
        finally:
            server.request_stop()
            server.finish()

    def test_unreadable_file_is_analysis_level_error(self, workdir):
        server = make_server(workdir)
        try:
            with ReproClient(server.config.socket_path) as client:
                response = client.analyze(str(workdir / "missing.f"))
                assert response["ok"], (
                    "an unreadable input is the analysis' outcome, not a "
                    "protocol failure"
                )
                assert response["result"]["status"] == "error"
                assert response["result"]["error"]
        finally:
            server.request_stop()
            server.finish()

    def test_live_socket_is_not_stolen(self, workdir):
        server = make_server(workdir)
        try:
            with pytest.raises(SocketBusyError):
                ReproServer(
                    ServeConfig(socket_path=server.config.socket_path)
                ).start()
        finally:
            server.request_stop()
            server.finish()

    def test_stale_socket_is_reclaimed(self, workdir):
        first = make_server(workdir)
        first.request_stop()
        first.finish()
        # Simulate a crashed daemon's leftover socket file.
        import socket as socketlib

        leftover = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        leftover.bind(first.config.socket_path)
        leftover.close()
        assert os.path.exists(first.config.socket_path)
        second = make_server(workdir)
        try:
            with ReproClient(second.config.socket_path) as client:
                assert client.status()["ok"]
        finally:
            second.request_stop()
            second.finish()

    def test_refused_connect_leaks_no_socket(self, workdir):
        import socket as socketlib

        stale = str(workdir / "stale.sock")
        leftover = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        leftover.bind(stale)
        leftover.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ConnectionRefusedError):
                ReproClient(stale)
            gc.collect()
        leaks = [w for w in caught if w.category is ResourceWarning]
        assert not leaks, [str(w.message) for w in leaks]

    def test_shutdown_op_drains_and_exits_zero(self, workdir):
        server = make_server(workdir)
        with ReproClient(server.config.socket_path) as client:
            response = client.shutdown()
            assert response["result"]["stopping"] is True
        assert server.wait(timeout=5)
        assert server.finish() == 0
