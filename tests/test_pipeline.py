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


def test_provenance_recorded_only_when_explained(sources, tmp_path, capsys):
    """A plain cached run records no ``prov`` entry. The first
    ``--explain`` after it runs live, prints what a cold ``--explain``
    prints and records the entry; the next ``--explain`` replays it."""
    cache = tmp_path / "cache"
    plain = ["analyze", sources["tri"], "--cache-dir", str(cache)]
    explain = [*plain, "--explain", "g1@bar"]

    def run(argv):
        parses = metrics.value("parses")
        assert main(argv) == 0
        return capsys.readouterr().out, metrics.value("parses") - parses

    def prov_entries():
        return list(cache.glob("v*/prov/*/*.json"))

    run(plain)
    assert not prov_entries()
    after_plain, parses = run(explain)
    assert parses > 0, "no prov entry: the explain runs live"
    assert len(prov_entries()) == 1
    replayed, parses = run(explain)
    assert parses == 0
    cold, _ = run([
        "analyze", sources["tri"], "--cache-dir", str(tmp_path / "cold"),
        "--explain", "g1@bar",
    ])
    assert after_plain == cold
    assert _scrub(replayed) == cold


def test_run_entries_hold_the_rendered_sections(sources, tmp_path, capsys):
    """A plain cached run records no ``transformed_source``, ``ir`` or
    ``stats``. A ``--stats`` after it runs live and records the table;
    the next ``--stats`` replays. An entry keeps what earlier requests
    recorded under its key: ``--transform``, then ``--dump-ir``, then
    ``--transform`` replays on the third run, and a live ``repro
    optimize`` in between keeps both."""
    import json

    def run(cache, *flags, command="analyze"):
        parses = metrics.value("parses")
        argv = [command, sources["tri"], "--cache-dir", str(cache), *flags]
        assert main(argv) == 0
        capsys.readouterr()
        return metrics.value("parses") - parses

    def entry(cache):
        (path,) = cache.glob("v*/run/*/*.json")
        return json.loads(path.read_text())["body"]

    first = tmp_path / "first"
    assert run(first) > 0
    recorded = entry(first)
    assert recorded["constants_report"]
    assert [recorded[k] for k in ("transformed_source", "ir", "stats")] == [
        None, None, None
    ]
    assert run(first) == 0
    assert run(first, "--stats") > 0, "no table recorded: runs live"
    assert entry(first)["stats"] is not None
    assert run(first, "--stats") == 0

    second = tmp_path / "second"
    assert run(second, "--transform") > 0
    assert run(second, "--dump-ir") > 0
    assert run(second, "--transform") == 0
    assert run(second, command="optimize") > 0
    assert run(second, "--dump-ir") == 0
    assert None not in (entry(second)["transformed_source"],
                        entry(second)["ir"])


def test_a_finished_run_leaves_no_program_behind(sources, tmp_path):
    """Once :func:`repro.pipeline.run` returns, the engine holds neither
    the analyzed program nor its call graph. Between requests a daemon
    keeps its cache, its parsed units and, in place of their trees, the
    procedures the run left unconverted with the COMMON blocks they
    reference; a request that reads the whole program leaves none."""
    import gc
    import weakref

    from repro import pipeline
    from repro.config import AnalysisConfig
    from repro.engine.core import Engine
    from repro.ir.instructions import Phi

    programs = []

    class Watched(Engine):
        def start(self, prepared, *args):
            programs.append(weakref.ref(prepared.program))
            super().start(prepared, *args)

    def kept():
        return [entry for found in engine._units._paths[tri].values()
                for entry in found if entry.kept is not None]

    engine = Watched(cache_dir=str(tmp_path / "cache"))
    tri = sources["tri"]
    plain = pipeline.Request(AnalysisConfig(), path=tri)
    assert pipeline.run(plain, engine).ok  # cold: converts everything
    assert not kept()
    with open(tri, "w") as handle:
        handle.write(TRI_PROGRAM.replace("N = 100", "N = 101"))
    assert pipeline.run(plain, engine).ok
    gc.collect()
    assert len(programs) == 2
    assert all(program() is None for program in programs)
    assert [entry.name for entry in kept()] == ["bar"]
    for entry in kept():
        procedure = entry.kept.procedure
        commons = entry.kept.context.commons
        assert entry.unit is None  # the lowering took the tree's place
        for instruction in procedure.cfg.instructions():
            assert not isinstance(instruction, Phi)
            assert all(d.version is None for d in instruction.defs())
        assert list(commons) == ["blk"]
        assert procedure.visible_globals == commons["blk"].members
    # Rendering the IR converts every procedure: nothing is kept.
    request = pipeline.Request(AnalysisConfig(), path=tri,
                               renders=frozenset({"constants", "ir"}))
    outcome = pipeline.run(request, engine)
    assert outcome.ok and outcome.ir
    gc.collect()
    assert programs[-1]() is None and not kept()
    # The parsed units stay; the one whose kept lowering that request
    # used up parses again.
    assert pipeline.forget(request, engine)
    parsed = metrics.value("parse_units_parsed")
    assert pipeline.run(request, engine).ok
    assert metrics.value("parse_units_parsed") == parsed + 1


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
#: Modules of the analysis packages that ``import repro.cli`` and a plain
#: ``analyze``/``link`` never call, so must not load either: without
#: bytecode caching, every module loaded is compiled again in every
#: process.
UNCALLED = frozenset({
    "repro.obs.provenance", "repro.obs.log", "repro.obs.context",
    "repro.ir.verify", "repro.ir.clone",
    "repro.ipcp.cloning", "repro.ipcp.inlining", "repro.ipcp.stats",
    "repro.analysis.loops", "repro.analysis.ssa_out", "repro.analysis.dce",
    "repro.profiling", "repro.obs.timeline", "repro.frontend.unit_memo",
    "repro.ir.kept",
})
#: Standard-library modules a plain request never needs: ``dataclasses``
#: imports ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``),
#: all compiled again by every process that imports it.
UNNEEDED_STDLIB = frozenset({"dataclasses", "inspect"})
#: Packages whose ``__init__`` resolves its public names lazily.
LAZY_PACKAGES = ("repro", "repro.analysis", "repro.engine", "repro.frontend",
                 "repro.ipcp", "repro.ir", "repro.obs", "repro.serve")


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    )
    return done.stdout


def _imported(argv=None) -> set:
    """The ``repro`` modules, and those of :data:`UNNEEDED_STDLIB`,
    loaded by ``import repro.cli`` and, given ``argv``, one
    ``main(argv)`` request."""
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        + (f"assert main({argv!r}) == 0\n" if argv is not None else "")
        + "print(' '.join(sorted(m for m in sys.modules "
        f"if m.startswith('repro') or m in {sorted(UNNEEDED_STDLIB)!r})))\n"
    )
    return set(_fresh(code).strip().splitlines()[-1].split())


def test_plain_requests_import_no_heavy_subsystem(sources):
    cli = _imported()
    assert not cli & (UNCALLED | UNNEEDED_STDLIB)
    analyze = _imported(["analyze", sources["tri"]])
    assert not {m for m in analyze if m.startswith(HEAVY)}
    assert not analyze & (UNCALLED | UNNEEDED_STDLIB)
    link = _imported(["link", sources["main"], sources["work"]])
    assert not link & UNNEEDED_STDLIB
    added = link - analyze
    assert added and all(m.startswith("repro.linkage") for m in added)


def test_serve_client_imports_no_analysis_or_daemon_code():
    """``repro client`` and the daemon's other clients load the client
    and the wire format only."""
    loaded = set(_fresh(
        "import sys, repro.serve.client\n"
        "print(' '.join(m for m in sys.modules if m.startswith('repro') "
        f"or m in {sorted(UNNEEDED_STDLIB)!r}))\n"
    ).split())
    assert not loaded & UNNEEDED_STDLIB
    assert loaded == {"repro", "repro._lazy", "repro._record", "repro.serve",
                      "repro.serve.client", "repro.serve.protocol"}


def test_running_the_cli_module_compiles_it_once(tmp_path):
    """``python -m repro.cli`` runs ``cli.py`` as ``__main__``; a
    subcommand of :mod:`repro.cli_tools`, which imports its helpers from
    ``repro.cli``, gets that module rather than a second compile of the
    file (``-X importtime`` lists every module the import system
    loads)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", "client",
         "status", "--socket", str(tmp_path / "missing.sock")],
        capture_output=True, text=True, env=env,
    )
    imported = {
        line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.cli_tools" in imported
    assert "repro.cli" not in imported


#: Modules only an engine with a cache runs.
CACHE_MODULES = frozenset({
    "repro.engine.cache", "repro.engine.fingerprint",
    "repro.engine.summaries", "repro.engine.incremental",
})


#: Modules only an engine runs: a cacheless batch runs the plain driver.
ENGINE_MODULES = frozenset({"repro.engine.core", "repro.frontend.unit_memo"})


def test_cacheless_batch_imports_no_cache_or_linker_code(sources):
    batch = _imported(["batch", sources["tri"], sources["opt"]])
    assert "repro.engine.batch" in batch
    assert not batch & (CACHE_MODULES | ENGINE_MODULES | UNNEEDED_STDLIB)
    assert not {m for m in batch if m.startswith("repro.linkage")}


def test_batch_parent_loads_the_analysis_before_it_forks(sources):
    """The pool's workers are forked from a parent that has already
    loaded the driver (so no worker compiles it) and no engine code."""
    argv = ["batch", sources["tri"], sources["opt"], "--jobs", "2"]
    code = (
        "import concurrent.futures as cf, sys\n"
        "from repro.cli import main\n"
        "loaded = []\n"
        "start = cf.ProcessPoolExecutor.__init__\n"
        "def recording(self, *args, **kwargs):\n"
        "    loaded.extend(m for m in sys.modules if m.startswith('repro'))\n"
        "    start(self, *args, **kwargs)\n"
        "cf.ProcessPoolExecutor.__init__ = recording\n"
        f"assert main({argv!r}) == 0\n"
        "print(' '.join(loaded))\n"
    )
    loaded = set(_fresh(code).strip().splitlines()[-1].split())
    assert "repro.ipcp.driver" in loaded
    assert not loaded & (CACHE_MODULES | ENGINE_MODULES)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_resolve(package):
    """In a fresh interpreter, ``dir(package)`` lists every name in its
    ``__all__`` before any is read, and each resolves to the object its
    defining module holds (a submodule to the module itself): some
    module other than the package binds the name to that object."""
    code = (
        "import importlib, sys, types\n"
        f"package = importlib.import_module({package!r})\n"
        "own = set(vars(package))\n"
        "missing = set(package.__all__) - set(dir(package))\n"
        "assert not missing, missing\n"
        "for name in package.__all__:\n"
        "    value = getattr(package, name)\n"
        "    if name in own:\n"
        "        continue\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        assert value is sys.modules[package.__name__ + '.' + name]\n"
        "        continue\n"
        "    assert any(\n"
        "        vars(module).get(name) is value\n"
        "        for key, module in list(sys.modules.items())\n"
        "        if key.startswith('repro.') and module is not package\n"
        "    ), name\n"
        "print(len(package.__all__))\n"
    )
    assert int(_fresh(code)) > 0
