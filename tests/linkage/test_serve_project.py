"""The daemon serving linked multi-file projects: protocol validation
of ``params.project``, cold/warm/invalidate round trips over the real
wire, cross-file explain, and cache isolation between a project and
its member files."""

from __future__ import annotations

import pytest

from repro.linkage import analyze_linked_files
from repro.serve import (
    ReproClient,
    ReproServer,
    ServeConfig,
    ServeRequestError,
    wait_for_server,
)
from repro.serve.protocol import ProtocolError, parse_request

MAIN_F = (
    "      PROGRAM MAIN\n"
    "      EXTERNAL WORK\n"
    "      COMMON /SHARED/ BASE, SCALE\n"
    "      BASE = 40\n"
    "      SCALE = 2\n"
    "      CALL WORK(100)\n"
    "      END\n"
)
WORK_F = (
    "      SUBROUTINE WORK(N)\n"
    "      COMMON /SHARED/ BASE, SCALE\n"
    "      M = BASE + N * SCALE\n"
    "      PRINT *, M\n"
    "      RETURN\n"
    "      END\n"
)


@pytest.fixture
def project(tmp_path):
    main = tmp_path / "main.f"
    work = tmp_path / "work.f"
    main.write_text(MAIN_F)
    work.write_text(WORK_F)
    return [str(main), str(work)]


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


class TestProtocol:
    def test_project_accepted_without_path(self):
        request = parse_request(
            {"op": "analyze", "params": {"project": ["a.f", "b.f"]}}
        )
        assert request.path is None
        assert request.params["project"] == ["a.f", "b.f"]

    def test_project_and_path_are_mutually_exclusive(self):
        with pytest.raises(ProtocolError, match="not both"):
            parse_request(
                {"op": "analyze", "path": "a.f",
                 "params": {"project": ["b.f"]}}
            )

    @pytest.mark.parametrize("bad", [[], ["a.f", ""], "a.f", [1]])
    def test_malformed_project_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(
                {"op": "analyze", "params": {"project": bad}}
            )

    def test_bad_entry_rejected(self):
        with pytest.raises(ProtocolError, match="entry"):
            parse_request(
                {"op": "analyze",
                 "params": {"project": ["a.f"], "entry": ""}}
            )

    def test_path_still_required_without_project(self):
        with pytest.raises(ProtocolError, match="non-empty 'path'"):
            parse_request({"op": "analyze"})


class TestServeProject:
    def test_cold_warm_invalidate_round_trip(self, tmp_path, project):
        truth, _ = analyze_linked_files(project)
        server = make_server(tmp_path)
        try:
            with ReproClient(server.config.socket_path) as client:
                cold = client.analyze_project(project)
                result = cold["result"]
                assert result["status"] == "ok"
                assert not result["replayed"]
                assert result["project"] == project
                assert (
                    result["constants_report"]
                    == truth.constants.format_report()
                )
                assert result["substituted"] == truth.substituted_constants

                warm = client.analyze_project(project)
                assert warm["result"]["replayed"]
                assert (
                    warm["result"]["constants_report"]
                    == result["constants_report"]
                )

                evicted = client.invalidate_project(project)
                assert evicted["result"]["invalidated"]
                rerun = client.analyze_project(project)
                assert not rerun["result"]["replayed"]
                # Unchanged project: the manifest diff is empty, so no
                # summaries were recomputed.
                counters = rerun["result"]["metrics"]
                for namespace in ("ret", "fwd"):
                    assert f"recomputed_{namespace}" not in counters
        finally:
            server.request_stop()
            assert server.finish() == 0

    def test_cross_file_explain(self, tmp_path, project):
        server = make_server(tmp_path)
        try:
            with ReproClient(server.config.socket_path) as client:
                response = client.analyze_project(
                    project, explain="base@work"
                )
                rendering = response["result"]["explain"]
                assert "base@work = 40" in rendering
                assert "main.f" in rendering
        finally:
            server.request_stop()
            server.finish()

    def test_link_errors_are_diagnostics_not_crashes(self, tmp_path):
        bad = tmp_path / "bad.f"
        bad.write_text(
            "      PROGRAM MAIN\n"
            "      EXTERNAL MISSING\n"
            "      CALL MISSING\n"
            "      END\n"
        )
        server = make_server(tmp_path)
        try:
            with ReproClient(server.config.socket_path) as client:
                response = client.analyze_project([str(bad)])
                result = response["result"]
                assert result["status"] == "diagnostics"
                assert "E005" in result["diagnostics"]
                # The daemon survives and keeps serving.
                assert client.status()["result"]["counters"].get(
                    "serve_internal_errors", 0
                ) == 0
        finally:
            server.request_stop()
            server.finish()

    def test_missing_member_file_is_an_error_status(self, tmp_path, project):
        server = make_server(tmp_path)
        try:
            with ReproClient(server.config.socket_path) as client:
                response = client.analyze_project(
                    project + [str(tmp_path / "ghost.f")]
                )
                assert response["result"]["status"] == "error"
        finally:
            server.request_stop()
            server.finish()

    def test_project_and_member_file_do_not_share_replay(
        self, tmp_path, project
    ):
        """Analyzing main.f alone must not replay the project's run
        (and vice versa): the bundle text keys a distinct entry."""
        server = make_server(tmp_path)
        try:
            with ReproClient(server.config.socket_path) as client:
                client.analyze_project(project)
                alone = client.analyze(project[0])
                assert not alone["result"]["replayed"]
                again = client.analyze_project(project)
                assert again["result"]["replayed"]
        finally:
            server.request_stop()
            server.finish()

    def test_mid_stream_invalidate_after_edit_recomputes_dirty_set(
        self, tmp_path, project
    ):
        """The chaos-smoke scenario, in-process: analyze a project,
        edit one file mid-stream, invalidate, re-analyze — the warm run
        recomputes exactly the dirty procedures (cross-file closure):
        WORK now assigns BASE, which MAIN reads through WORK's
        export."""
        invalidation = self._edit_mid_stream(
            tmp_path, project,
            WORK_F.replace("      PRINT *, M\n",
                           "      PRINT *, M\n      BASE = M\n"),
        )
        assert set(invalidation["edited"]) == {"work"}
        assert invalidation["downstream"] == ["main"]
        assert invalidation["dirty_count"] == 2

    def test_mid_stream_edit_keeping_the_export_leaves_main_clean(
        self, tmp_path, project
    ):
        """WORK's edit changes only a local value: its export is
        unchanged, so MAIN in the other file is served from the
        cache."""
        invalidation = self._edit_mid_stream(
            tmp_path, project,
            WORK_F.replace("N * SCALE", "N * SCALE + 1"),
        )
        assert set(invalidation["edited"]) == {"work"}
        assert invalidation["downstream"] == []
        assert invalidation["dirty_count"] == 1

    @staticmethod
    def _edit_mid_stream(tmp_path, project, edited_work) -> dict:
        server = make_server(tmp_path)
        try:
            with ReproClient(server.config.socket_path) as client:
                client.analyze_project(project)
                with open(project[1], "w", encoding="utf-8") as handle:
                    handle.write(edited_work)
                client.invalidate_project(project)
                rerun = client.analyze_project(project)
                result = rerun["result"]
                assert not result["replayed"]
                return result["invalidation"]
        finally:
            server.request_stop()
            server.finish()
