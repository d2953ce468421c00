"""Command-line interface tests."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

PROGRAM = (
    "      PROGRAM MAIN\n"
    "      N = 6\n"
    "      CALL S(N)\n"
    "      END\n"
    "      SUBROUTINE S(K)\n"
    "      A = K + 1\n"
    "      RETURN\n"
    "      END\n"
)


def fresh_env() -> dict:
    """The environment of a fresh ``repro`` process on this checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.f"
    path.write_text(PROGRAM)
    return str(path)


class TestAnalyze:
    def test_default_run(self, program_file, capsys):
        assert main(["analyze", program_file]) == 0
        out = capsys.readouterr().out
        assert "CONSTANTS(s)" in out
        assert "k=6" in out
        assert "substituted constant references: 2" in out

    def test_jump_kind_flag(self, program_file, capsys):
        assert main(["analyze", program_file, "--jump", "literal"]) == 0
        out = capsys.readouterr().out
        assert "literal" in out
        assert "no interprocedural constants" in out

    def test_no_mod_flag(self, program_file, capsys):
        assert main(["analyze", program_file, "--no-mod"]) == 0
        assert "nomod" in capsys.readouterr().out

    def test_intra_only_flag(self, program_file, capsys):
        assert main(["analyze", program_file, "--intra-only"]) == 0
        out = capsys.readouterr().out
        assert "intraprocedural" in out

    def test_complete_flag(self, program_file, capsys):
        assert main(["analyze", program_file, "--complete"]) == 0
        assert "complete" in capsys.readouterr().out

    def test_transform_flag(self, program_file, capsys):
        assert main(["analyze", program_file, "--transform"]) == 0
        out = capsys.readouterr().out
        assert "A = 6 + 1" in out

    def test_dump_ir_flag(self, program_file, capsys):
        assert main(["analyze", program_file, "--dump-ir"]) == 0
        out = capsys.readouterr().out
        assert "SSA IR" in out
        assert "subroutine s" in out


class TestEngineFlags:
    def test_unknown_solver_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["analyze", program_file, "--solver", "chaos"])

    @pytest.mark.parametrize("command", ["analyze", "batch", "serve"])
    def test_solver_flag_is_a_usage_error(
        self, command, program_file, tmp_path, capsys
    ):
        """One worklist discipline: ``--solver`` names none, its old
        default included. argparse reads ``--solver`` as a prefix of
        ``--solver-fuel``, which takes a count."""
        target = (
            ["--socket", str(tmp_path / "s.sock")] if command == "serve"
            else [program_file]
        )
        with pytest.raises(SystemExit) as exited:
            main([command, *target, "--solver", "fifo"])
        assert exited.value.code == 2
        assert "invalid int value: 'fifo'" in capsys.readouterr().err

    def test_cache_dir_output_matches_serial(
        self, program_file, tmp_path, capsys
    ):
        assert main(["analyze", program_file, "--transform"]) == 0
        serial = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        for _ in range(2):  # cold, then warm (run-cache replay path)
            assert main(
                ["analyze", program_file, "--transform", "--cache-dir", cache]
            ) == 0
            assert capsys.readouterr().out == serial

    def test_replay_serves_stats_and_ir(self, program_file, tmp_path, capsys):
        """A warm run-cache replay renders --stats and --dump-ir from
        the recorded payload, byte-identical to the cold run."""
        cache = str(tmp_path / "cache")
        flags = ["--stats", "--dump-ir", "--transform", "--cache-dir", cache]
        assert main(["analyze", program_file] + flags) == 0
        cold = capsys.readouterr().out
        assert main(["analyze", program_file] + flags) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert "--- statistics ---" in warm
        assert "--- SSA IR ---" in warm

    def test_replay_skipped_when_stats_not_recorded(
        self, program_file, tmp_path, capsys
    ):
        """A payload recorded by a plain run (v2 always records the
        renderings, so simulate a degraded one) falls through to a live
        analysis instead of dropping the section."""
        from repro.config import AnalysisConfig
        from repro.pipeline import Request, serves

        request = Request(AnalysisConfig(), path=program_file,
                          renders=frozenset({"ir"}))
        assert not serves(request, {"ir": None})
        assert serves(request, {"ir": "text", "stats": None})

    def test_explain_invalidation_cold_warm_edited(
        self, program_file, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        flags = ["--cache-dir", cache, "--explain-invalidation"]
        assert main(["analyze", program_file] + flags) == 0
        assert "cold run" in capsys.readouterr().out
        assert main(["analyze", program_file] + flags) == 0
        assert "replayed from the run cache" in capsys.readouterr().out
        # S now modifies its formal: MAIN reads that through S's export.
        with open(program_file, "w") as handle:
            handle.write(PROGRAM.replace("A = K + 1", "K = K + 1"))
        assert main(["analyze", program_file] + flags) == 0
        out = capsys.readouterr().out
        assert "edited      s: lowered IR changed" in out
        assert "downstream  main: callee export changed: s" in out

    def test_explain_invalidation_edit_keeping_the_export(
        self, program_file, tmp_path, capsys
    ):
        """S's edit changes only a local value: S's export is
        unchanged, so MAIN is served from the cache."""
        flags = ["--cache-dir", str(tmp_path / "cache"),
                 "--explain-invalidation"]
        assert main(["analyze", program_file] + flags) == 0
        capsys.readouterr()
        with open(program_file, "w") as handle:
            handle.write(PROGRAM.replace("K + 1", "K + 2"))
        assert main(["analyze", program_file] + flags) == 0
        out = capsys.readouterr().out
        assert "1/2 procedure(s) dirty, 1 served from cache" in out
        assert "edited      s: lowered IR changed" in out
        assert "downstream" not in out

    def test_explain_invalidation_implies_cache(self, program_file, capsys):
        import os

        from repro.engine.cache import default_cache_root

        # No --cache/--cache-dir: the flag alone must still produce a
        # report (using the default cache root).
        env = os.environ.get("REPRO_CACHE_DIR")
        try:
            os.environ["REPRO_CACHE_DIR"] = os.path.join(
                os.path.dirname(program_file), "implied-cache"
            )
            assert main(
                ["analyze", program_file, "--explain-invalidation"]
            ) == 0
            assert "--- invalidation ---" in capsys.readouterr().out
        finally:
            if env is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = env

    def test_profile_to_stdout(self, program_file, capsys):
        assert main(["analyze", program_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "--- profile ---" in out
        assert '"stages"' in out

    def test_link_profile_lists_parse_and_lower(self, tmp_path, capsys):
        main_path, sub_path = tmp_path / "main.f", tmp_path / "s.f"
        main_path.write_text(
            "      PROGRAM MAIN\n      EXTERNAL S\n      N = 6\n"
            "      CALL S(N)\n      END\n"
        )
        sub_path.write_text(
            "      SUBROUTINE S(K)\n      A = K + 1\n      RETURN\n"
            "      END\n"
        )
        destination = tmp_path / "profile.json"
        assert main(["link", str(main_path), str(sub_path),
                     "--profile", str(destination)]) == 0
        stages = json.loads(destination.read_text())["stages"]
        assert {"parse", "lower", "prepare", "substitution"} <= set(stages)

    def test_profile_to_file(self, program_file, tmp_path, capsys):
        import json

        destination = tmp_path / "profile.json"
        assert main(
            ["analyze", program_file, "--profile", str(destination)]
        ) == 0
        assert "profile written" in capsys.readouterr().out
        data = json.loads(destination.read_text())
        assert "stages" in data and "counters" in data


class TestEntryPoints:
    """``python -m repro`` and ``python -m repro.cli`` print what an
    in-process ``main`` prints; the entry point freezes the collector
    once the subcommand returned, ``main`` never does."""

    @pytest.mark.parametrize("module", ["repro", "repro.cli"])
    def test_fresh_process_prints_what_main_prints(self, module,
                                                  program_file, capsys):
        assert main(["analyze", program_file]) == 0
        expected = capsys.readouterr().out
        done = subprocess.run(
            [sys.executable, "-m", module, "analyze", program_file],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, expected)

    def test_only_the_entry_point_freezes(self, program_file, capsys):
        import gc

        frozen = gc.get_freeze_count()
        assert main(["analyze", program_file]) == 0
        assert gc.get_freeze_count() == frozen
        done = subprocess.run(
            [sys.executable, "-c",
             "import gc, sys\n"
             "from repro.cli import entry_point\n"
             f"sys.argv = ['repro-ipcp', 'analyze', {program_file!r}]\n"
             "code = entry_point()\n"
             "print(code, gc.get_freeze_count() > 0, file=sys.stderr)\n"],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
        )
        assert done.stderr.split() == ["0", "True"]


class TestCompare:
    def test_compare_lists_all_kinds(self, program_file, capsys):
        assert main(["compare", program_file]) == 0
        out = capsys.readouterr().out
        for kind in ("literal", "intraprocedural", "pass_through", "polynomial"):
            assert kind in out


#: Every subcommand, in the order ``repro --help`` lists them.
SUBCOMMANDS = ("analyze", "link", "batch", "optimize", "serve", "client",
               "top", "obs", "compare", "run", "clone", "integrate",
               "suite", "tables", "oracle")


def usage_error(capsys, argv) -> str:
    """stderr of ``main(argv)``, which must exit 2 with a usage line."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro-ipcp")
    return err


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_jump_kind_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["analyze", program_file, "--jump", "quantum"])

    def test_help_names_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(SUBCOMMANDS) + "}" in out
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("    ") and line[4] != " "]
        assert listed == list(SUBCOMMANDS)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(
            f"usage: repro-ipcp {command} [-h]"
        )

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        err = usage_error(capsys, ["bogus"])
        assert "argument command: invalid choice: 'bogus'" in err

    def test_jobs_must_be_positive(self, program_file, capsys):
        err = usage_error(capsys, ["batch", program_file, "--jobs", "0"])
        assert "argument --jobs: must be at least 1, got 0" in err

    @pytest.mark.parametrize(
        "flag", ["--solver-fuel", "--sccp-fuel", "--max-poly-terms"]
    )
    def test_budgets_must_not_be_negative(self, flag, program_file, capsys):
        err = usage_error(capsys, ["analyze", program_file, flag, "-1"])
        assert f"argument {flag}: must be at least 0, got -1" in err
        err = usage_error(capsys, ["analyze", program_file, flag, "x"])
        assert f"argument {flag}: invalid int value: 'x'" in err

    def test_run_batch_still_rejects_zero_jobs(self, program_file):
        from repro.engine.batch import run_batch

        with pytest.raises(ValueError):
            run_batch([program_file], jobs=0)


PROGRAM_WITH_IO = (
    "      PROGRAM MAIN\n"
    "      READ *, X\n"
    "      PRINT *, X * 2\n"
    "      END\n"
)

CONFLICT_PROGRAM = (
    "      PROGRAM MAIN\n"
    "      CALL C(4)\n      CALL C(8)\n      END\n"
    "      SUBROUTINE C(S)\n      A = S + 1\n      END\n"
)


class TestRun:
    def test_executes_and_prints(self, tmp_path, capsys):
        path = tmp_path / "io.f"
        path.write_text(PROGRAM_WITH_IO)
        assert main(["run", str(path), "--input", "21"]) == 0
        out = capsys.readouterr().out
        assert "42" in out
        assert "instructions executed" in out

    def test_fuel_flag(self, tmp_path):
        path = tmp_path / "loop.f"
        path.write_text(
            "      PROGRAM MAIN\n      X = 1\n"
            "      DO WHILE (X .GT. 0)\n      X = X + 1\n      ENDDO\n"
            "      END\n"
        )
        import pytest as _pytest
        from repro.ir.interp import InterpreterError

        with _pytest.raises(InterpreterError):
            main(["run", str(path), "--fuel", "500"])


class TestCloneCommand:
    def test_reports_clones(self, tmp_path, capsys):
        path = tmp_path / "c.f"
        path.write_text(CONFLICT_PROGRAM)
        assert main(["clone", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cloned c ->" in out
        assert "after cloning" in out


class TestIntegrateCommand:
    def test_reports_growth(self, tmp_path, capsys):
        path = tmp_path / "c.f"
        path.write_text(CONFLICT_PROGRAM)
        assert main(["integrate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "procedure integration" in out
        assert "code growth" in out


class TestSuiteCommand:
    def test_writes_programs(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert main(["suite", "--out", str(out)]) == 0
        written = sorted(p.name for p in out.glob("*.f"))
        assert "ocean.f" in written
        assert len(written) == 12
        # Each written program must itself parse and analyze.
        from repro.ipcp.driver import analyze_file

        result = analyze_file(str(out / "trfd.f"))
        assert result.substituted_constants > 0


class TestStatsFlag:
    def test_stats_printed(self, program_file, capsys):
        assert main(["analyze", program_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "statistics" in out
        assert "forward jump functions" in out


class TestDotAndGsaFlags:
    def test_dot_writes_files(self, program_file, tmp_path, capsys):
        out = tmp_path / "dots"
        assert main(["analyze", program_file, "--dot", str(out)]) == 0
        assert (out / "callgraph.dot").exists()
        assert "Graphviz files written" in capsys.readouterr().out

    def test_gsa_flag(self, program_file, capsys):
        assert main(["analyze", program_file, "--gsa"]) == 0
        assert "gsa" in capsys.readouterr().out


BROKEN_PROGRAM = (
    "      PROGRAM MAIN\n"
    "      N = 6 +\n"
    "      CALL S(N\n"
    "      END\n"
)

MIXED_PROGRAM = (
    "      PROGRAM MAIN\n"
    "      CALL GOOD(2)\n"
    "      END\n"
    "      SUBROUTINE GOOD(K)\n"
    "      A = K + 1\n"
    "      RETURN\n"
    "      END\n"
    "      SUBROUTINE BAD(X)\n"
    "      Y = ((X\n"
    "      RETURN\n"
    "      END\n"
)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.f"
    path.write_text(BROKEN_PROGRAM)
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.f"
    path.write_text(MIXED_PROGRAM)
    return str(path)


class TestAnalyzeExitCodes:
    """The documented 0/1/2 contract across --strict and budget flags."""

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--strict"],
            ["--verify-ir"],
            ["--strict", "--verify-ir"],
            ["--solver-fuel", "1000"],
            ["--sccp-fuel", "100000"],
            ["--strict", "--solver-fuel", "1000"],
        ],
        ids=lambda extra: " ".join(extra) or "default",
    )
    def test_exit_0_clean(self, program_file, extra, capsys):
        assert main(["analyze", program_file, *extra]) == 0

    @pytest.mark.parametrize(
        "extra",
        [[], ["--strict"], ["--solver-fuel", "1000"]],
        ids=lambda extra: " ".join(extra) or "default",
    )
    def test_exit_1_diagnostics(self, broken_file, extra, capsys):
        assert main(["analyze", broken_file, *extra]) == 1
        assert "error" in capsys.readouterr().err

    def test_exit_1_mixed_still_reports_healthy_procedures(
        self, mixed_file, capsys
    ):
        """Resilient mode: diagnostics exit, but CONSTANTS of the
        parseable procedures are still printed."""
        assert main(["analyze", mixed_file]) == 1
        captured = capsys.readouterr()
        assert "CONSTANTS(good)" in captured.out
        assert "error" in captured.err

    def test_exit_2_strict_budget_demotion(self, program_file, capsys):
        """--strict turns a budget demotion into an internal failure."""
        assert main(["analyze", program_file, "--strict", "--solver-fuel", "0"]) == 2
        assert "degraded" in capsys.readouterr().err

    def test_exit_0_resilient_budget_demotion(self, program_file, capsys):
        """Without --strict the same starved budget only degrades."""
        assert main(["analyze", program_file, "--solver-fuel", "0"]) == 0
        assert "degraded" in capsys.readouterr().err

    def test_exit_2_strict_tight_budget_matrix(self, program_file, capsys):
        """Every strict budget-exhaustion combination lands on 2, never
        an unhandled exception."""
        for flags in (
            ["--solver-fuel", "0"],
            ["--solver-fuel", "0", "--max-poly-terms", "0"],
        ):
            code = main(["analyze", program_file, "--strict", *flags])
            assert code == 2, flags
            capsys.readouterr()

    def test_exit_1_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.f")]) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,rendered",
        [([], "error[E001]"), (["--strict"], "error")],
        ids=["default", "strict"],
    )
    def test_exit_1_digit_int_rejects(self, tmp_path, extra, rendered):
        """``2²``: ``str.isdigit()`` accepts ``²`` but ``int()`` does
        not. The lexer reports it as a located unexpected character, in
        a fresh ``repro analyze`` process, never a traceback."""
        path = tmp_path / "digit.f"
        path.write_text(
            "      PROGRAM MAIN\n      X = 2\u00b2\n      END\n",
            encoding="utf-8",
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(path), *extra],
            capture_output=True, encoding="utf-8",
            env=dict(fresh_env(), PYTHONIOENCODING="utf-8"), timeout=120,
        )
        assert done.returncode == 1
        assert f"{path}:2:12: {rendered}: unexpected character '\u00b2'" \
            in done.stderr
        assert "Traceback" not in done.stderr


class TestOracleCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["oracle", "--trials", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "3 trial(s)" in out
        assert "0 failed" in out

    def test_profile_times_trials(self, tmp_path, capsys):
        path = tmp_path / "oracle.profile.json"
        assert main(["oracle", "--trials", "3", "--seed", "0",
                     "--profile", str(path)]) == 0
        profile = json.loads(path.read_text())
        stages = profile["stages"]
        assert stages["trial"]["calls"] == 3
        assert profile["counters"]["parses"] >= 3
        # the analyses inside each trial are nested stages: recorded,
        # but not added to the total a second time
        assert "propagate" in stages
        outermost = sum(
            stages[name]["seconds"] for name in ("trial", "minimize")
            if name in stages
        )
        assert profile["total_seconds"] == pytest.approx(outermost, abs=2e-6)

    def test_property_filter_and_size_flags(self, capsys):
        code = main(
            [
                "oracle", "--trials", "2", "--seed", "5",
                "--procedures", "2", "--max-statements", "4",
                "--property", "soundness",
            ]
        )
        assert code == 0

    def test_failing_campaign_writes_corpus_and_exits_one(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.lattice import LatticeValue

        original = LatticeValue.meet

        def broken(self, other):
            if (
                self.is_constant
                and other.is_constant
                and self.value != other.value
            ):
                return self
            return original(self, other)

        monkeypatch.setattr(LatticeValue, "meet", broken)
        corpus = tmp_path / "corpus"
        code = main(
            ["oracle", "--trials", "4", "--seed", "0", "--corpus", str(corpus)]
        )
        assert code == 1
        assert list(corpus.glob("seed*_soundness.f"))
        assert "failed" in capsys.readouterr().out
