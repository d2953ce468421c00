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
    def test_solver_flag(self, program_file, capsys):
        assert main(
            ["analyze", program_file, "--solver", "priority", "--stats"]
        ) == 0
        assert "priority" in capsys.readouterr().out

    def test_unknown_solver_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["analyze", program_file, "--solver", "chaos"])

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
        with open(program_file, "w") as handle:
            handle.write(PROGRAM.replace("K + 1", "K + 2"))
        assert main(["analyze", program_file] + flags) == 0
        out = capsys.readouterr().out
        assert "edited      s: lowered IR changed" in out
        assert "downstream  main: calls dirty procedure(s): s" in out

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

    def test_profile_to_file(self, program_file, tmp_path, capsys):
        import json

        destination = tmp_path / "profile.json"
        assert main(
            ["analyze", program_file, "--profile", str(destination)]
        ) == 0
        assert "profile written" in capsys.readouterr().out
        data = json.loads(destination.read_text())
        assert "stages" in data and "counters" in data


class TestCompare:
    def test_compare_lists_all_kinds(self, program_file, capsys):
        assert main(["compare", program_file]) == 0
        out = capsys.readouterr().out
        for kind in ("literal", "intraprocedural", "pass_through", "polynomial"):
            assert kind in out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_jump_kind_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["analyze", program_file, "--jump", "quantum"])


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
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=(
            os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        ))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(path), *extra],
            capture_output=True, encoding="utf-8", env=env, timeout=120,
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
