"""The one request pipeline (:mod:`repro.pipeline`) behind ``repro
analyze``/``link``/``optimize``, ``repro batch`` and the daemon.

- a cold/warm parity matrix: over one cache directory, the warm run of
  every entry point prints what the cold run printed (apart from the
  ``[replayed]`` marker and count), and replays where the cache holds
  every section the request renders;
- each source is opened once per request, cold or warm;
- ``repro optimize --explain-invalidation`` reports like ``analyze``;
- plain ``analyze``/``link`` import none of the heavy subsystems.
"""

from __future__ import annotations

import builtins
import os
import re
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs import metrics
from repro.serve import ReproServer, ServeConfig, wait_for_server
from repro.testkit import TRI_PROGRAM

#: A program the optimizer changes, with a constant (``a@show``) whose
#: explanation names the pass that consumed it.
OPT_PROGRAM = (
    "      PROGRAM MAIN\n"
    "      INTEGER I, S, K\n"
    "      K = 3\n"
    "      S = 0\n"
    "      DO 10 I = 1, 20\n"
    "      IF (K .GT. 0) THEN\n"
    "      S = S + I\n"
    "      ELSE\n"
    "      S = S - I\n"
    "      ENDIF\n"
    " 10   CONTINUE\n"
    "      PRINT *, S\n"
    "      CALL SHOW(K, S)\n"
    "      END\n"
    "      SUBROUTINE SHOW(A, B)\n"
    "      INTEGER A, B\n"
    "      PRINT *, A + B\n"
    "      END\n"
)
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
def sources(tmp_path):
    paths = {}
    for name, text in (("tri", TRI_PROGRAM), ("opt", OPT_PROGRAM),
                       ("main", MAIN_F), ("work", WORK_F)):
        path = tmp_path / f"{name}.f"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _scrub(text: str) -> str:
    """Drop what a replay is documented to print differently: the
    ``[replayed]`` marker, batch's replayed count, and the invalidation
    section's body (``replayed from the run cache`` vs ``cold run``)."""
    text = text.replace("  [replayed]", "")
    text = re.sub(r", \d+ replayed\]", ", N replayed]", text)
    return re.sub(r"(--- invalidation ---\n)[^\n]*", r"\1<report>", text)


#: (case id, argv after the subcommand with {name} placeholders,
#: whether the warm run replays). ``batch --report`` output is compared
#: up to its aggregated-metrics block, which counts what each run did.
CLI_CASES = [
    ("analyze-plain", ["analyze", "{tri}"], True),
    ("analyze-transform", ["analyze", "{tri}", "--transform"], True),
    ("analyze-stats", ["analyze", "{tri}", "--stats"], True),
    ("analyze-dump-ir", ["analyze", "{tri}", "--dump-ir"], True),
    ("analyze-explain", ["analyze", "{tri}", "--explain", "g1@bar"], True),
    ("analyze-explain-unknown",
     ["analyze", "{tri}", "--explain", "nope@bar"], True),
    ("analyze-explain-invalidation",
     ["analyze", "{tri}", "--explain-invalidation"], True),
    ("analyze-every-section",
     ["analyze", "{tri}", "--transform", "--stats", "--dump-ir",
      "--explain", "g1@bar", "--explain-invalidation"], True),
    ("analyze-optimize", ["analyze", "{opt}", "--optimize"], True),
    ("analyze-optimize-explain-ir",
     ["analyze", "{opt}", "--optimize", "--explain", "a@show",
      "--dump-ir", "--transform"], True),
    # Statistics of an optimized program are not recorded: live.
    ("analyze-optimize-stats",
     ["analyze", "{opt}", "--optimize", "--stats"], False),
    ("link-plain", ["link", "{main}", "{work}"], True),
    # The symbol table is not recorded: live, and identical.
    ("link-symbols", ["link", "{main}", "{work}", "--symbols"], False),
    ("link-explain",
     ["link", "{main}", "{work}", "--explain", "base@work"], True),
    ("link-optimize-dump-ir",
     ["link", "{main}", "{work}", "--optimize", "--dump-ir",
      "--explain-invalidation"], True),
    ("optimize-dump-ir", ["optimize", "{opt}", "--dump-ir"], True),
    ("optimize-output",
     ["optimize", "{opt}", "-o", "{out}", "--explain-invalidation"],
     True),
    ("batch-report-optimize",
     ["batch", "{tri}", "{opt}", "--report", "--optimize"], True),
    ("batch-link", ["batch", "{main}", "{work}", "--link"], True),
]


@pytest.mark.parametrize(
    "argv, replays", [case[1:] for case in CLI_CASES],
    ids=[case[0] for case in CLI_CASES],
)
def test_cli_cold_warm_parity(argv, replays, sources, tmp_path, capsys):
    names = dict(sources, out=str(tmp_path / "opt.ir"))
    argv = [arg.format(**names) for arg in argv]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    runs = []
    for _ in range(2):
        parses = metrics.value("parses")
        code = main(argv)
        captured = capsys.readouterr()
        out = captured.out.split("\n--- metrics (aggregated) ---")[0]
        written = (tmp_path / "opt.ir").read_text() if "-o" in argv else None
        runs.append((code, _scrub(out), captured.err, written,
                     metrics.value("parses") - parses))
    (cold_code, cold, cold_err, cold_ir, cold_parses), \
        (warm_code, warm, warm_err, warm_ir, warm_parses) = runs
    assert cold_parses > 0
    assert (warm_parses == 0) is replays
    assert (warm_code, warm, warm_err, warm_ir) == \
        (cold_code, cold, cold_err, cold_ir)


DAEMON_CASES = [
    ("file-analyze", ["analyze", "{tri}"]),
    ("file-explain", ["explain", "{tri}", "--explain", "g1@bar"]),
    ("project-analyze", ["analyze", "{main}", "{work}"]),
    ("project-explain",
     ["explain", "{main}", "{work}", "--explain", "base@work"]),
]


@pytest.mark.parametrize(
    "argv", [case[1] for case in DAEMON_CASES],
    ids=[case[0] for case in DAEMON_CASES],
)
def test_daemon_cold_warm_parity(argv, sources, tmp_path, capsys):
    socket_path = str(tmp_path / "repro.sock")
    server = ReproServer(ServeConfig(
        socket_path=socket_path, cache_dir=str(tmp_path / "cache"),
        drain_timeout_s=2.0,
    ))
    server.start()
    try:
        assert wait_for_server(socket_path, timeout=5.0)
        argv = ["client"] + [arg.format(**sources) for arg in argv]
        argv += ["--socket", socket_path]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "[replayed]" not in cold
        assert "[replayed]" in warm
        assert _scrub(warm) == cold
    finally:
        server.request_stop()
        assert server.finish() == 0


class TestReadOnce:
    """Each request opens each of its sources once: the run key and
    the analysis come from the same bytes."""

    @pytest.fixture
    def opens(self, sources, monkeypatch):
        counted = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if file == sources["tri"]:
                counted.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        return counted

    @pytest.mark.parametrize("command", [
        ["analyze"],
        ["analyze", "--explain", "g1@bar"],
        ["optimize"],
        ["batch"],
    ])
    def test_cli_cold_and_warm(self, command, sources, opens, tmp_path,
                               capsys):
        argv = [command[0], sources["tri"], *command[1:],
                "--cache-dir", str(tmp_path / "cache")]
        for _ in range(2):
            opens.clear()
            assert main(argv) == 0
            assert len(opens) == 1
        capsys.readouterr()

    def test_daemon_cold_and_warm(self, sources, opens, tmp_path):
        from repro.serve import ReproClient

        socket_path = str(tmp_path / "repro.sock")
        server = ReproServer(ServeConfig(
            socket_path=socket_path, cache_dir=str(tmp_path / "cache"),
            drain_timeout_s=2.0,
        ))
        server.start()
        try:
            assert wait_for_server(socket_path, timeout=5.0)
            with ReproClient(socket_path) as client:
                for replayed in (False, True):
                    opens.clear()
                    result = client.analyze(sources["tri"])["result"]
                    assert result["replayed"] is replayed
                    assert len(opens) == 1
        finally:
            server.request_stop()
            server.finish()


def _invalidation(out: str) -> str:
    return out.split("--- invalidation ---\n", 1)[1]


def test_optimize_explains_invalidation_like_analyze(sources, tmp_path,
                                                     capsys):
    """Cold, warm and edited: ``optimize --explain-invalidation`` prints
    the section ``analyze`` prints (each over its own cache)."""
    path = sources["opt"]
    seen = {}
    for command in ("analyze", "optimize"):
        argv = [command, path, "--explain-invalidation",
                "--cache-dir", str(tmp_path / f"{command}-cache")]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(OPT_PROGRAM)
        reports = []
        for edit in (None, None, ("K = 3", "K = 4")):
            if edit is not None:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(OPT_PROGRAM.replace(*edit))
            assert main(argv) == 0
            reports.append(_invalidation(capsys.readouterr().out))
        seen[command] = reports
    cold, warm, edited = seen["optimize"]
    assert "no previous manifest — cold run" in cold
    assert "replayed from the run cache" in warm
    assert "edited      main:" in edited
    assert seen["optimize"] == seen["analyze"]


#: Subsystems a plain ``analyze`` (or ``link``) must not import: cli-cold
#: pays every import on every op.
HEAVY = ("repro.engine", "repro.opt", "repro.serve", "repro.oracle",
         "repro.suite", "repro.linkage")


def _imported(argv) -> set:
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.startswith('repro'))))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    )
    return set(done.stdout.strip().splitlines()[-1].split())


def test_plain_requests_import_no_heavy_subsystem(sources):
    analyze = _imported(["analyze", sources["tri"]])
    assert not {m for m in analyze if m.startswith(HEAVY)}
    link = _imported(["link", sources["main"], sources["work"]])
    added = link - analyze
    assert added and all(m.startswith("repro.linkage") for m in added)
