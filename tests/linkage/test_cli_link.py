"""CLI surface of the linkage layer: ``repro link``, ``repro batch
--link``, and the satellite-4 regression — duplicate top-level
procedure names across per-file batch inputs get a deterministic
isolation note (and a hard exit-2 error in ``--link`` mode)."""

import pytest

from repro.cli import main

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
    main_path = tmp_path / "main.f"
    work_path = tmp_path / "work.f"
    main_path.write_text(MAIN_F)
    work_path.write_text(WORK_F)
    return [str(main_path), str(work_path)]


class TestLinkCommand:
    def test_links_and_reports_cross_file_constants(self, project, capsys):
        assert main(["link", *project]) == 0
        out = capsys.readouterr().out
        assert "linked 2 file(s) -> 2 procedure(s)" in out
        assert "CONSTANTS(work) = {base=40, n=100, scale=2}" in out

    def test_symbols_flag_prints_symbol_table(self, project, capsys):
        assert main(["link", *project, "--symbols"]) == 0
        out = capsys.readouterr().out
        assert "symbol table" in out
        assert "/shared/" in out

    def test_explain_crosses_files(self, project, capsys):
        assert main(["link", *project, "--explain", "base@work"]) == 0
        out = capsys.readouterr().out
        assert "base@work = 40" in out
        assert "main.f" in out

    def test_link_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.f"
        bad.write_text(
            "      PROGRAM MAIN\n"
            "      EXTERNAL MISSING\n"
            "      CALL MISSING\n"
            "      END\n"
        )
        assert main(["link", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "E005" in err and "missing" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["link", str(tmp_path / "nope.f")]) == 1

    def test_entry_flag(self, tmp_path, capsys):
        one = tmp_path / "one.f"
        two = tmp_path / "two.f"
        one.write_text("      PROGRAM ALPHA\n      CALL S(1)\n      END\n")
        two.write_text(
            "      PROGRAM BETA\n      CALL S(2)\n      END\n"
            "\n      SUBROUTINE S(N)\n      PRINT *, N\n"
            "      RETURN\n      END\n"
        )
        assert main(["link", str(one), str(two)]) == 2  # ambiguous
        capsys.readouterr()
        assert main(["link", str(one), str(two), "--entry", "alpha"]) == 0
        out = capsys.readouterr().out
        assert "CONSTANTS(s) = {n=1}" in out

    def test_replay_round_trip(self, project, tmp_path, capsys):
        from repro.obs import metrics

        cache = str(tmp_path / "cache")
        assert main(["link", *project, "--cache-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert "linked 2 file(s) -> 2 procedure(s)" in cold
        hits = metrics.value("run_cache_hits")
        assert main(["link", *project, "--cache-dir", cache]) == 0
        # The warm run replays the recorded payload and prints exactly
        # what the cold run printed, the linked-files line included.
        assert metrics.value("run_cache_hits") == hits + 1
        assert capsys.readouterr().out == cold

    def test_symbols_replay_round_trip(self, project, tmp_path, capsys):
        """The symbol table is not recorded, so ``--symbols`` runs live
        against a warm cache and prints the same bytes."""
        cache = str(tmp_path / "cache")
        argv = ["link", *project, "--cache-dir", cache, "--symbols"]
        assert main(["link", *project, "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "--- symbol table ---" in first
        assert "/shared/" in first
        assert second == first


class TestBatchLink:
    def test_batch_link_delegates_to_linker(self, project, capsys):
        assert main(["batch", *project, "--link"]) == 0
        out = capsys.readouterr().out
        assert "CONSTANTS(work) = {base=40, n=100, scale=2}" in out

    def test_duplicate_names_exit_2_in_link_mode(
        self, project, tmp_path, capsys
    ):
        copy = tmp_path / "copy.f"
        copy.write_text(WORK_F)
        assert main(["batch", *project, str(copy), "--link"]) == 2
        err = capsys.readouterr().err
        assert "duplicate definition of 'work'" in err


class TestDuplicateBatchNote:
    """Satellite 4: per-file batch mode used to silently analyze files
    whose top-level names collide (shared caches keyed per file make
    that sound but surprising); now it says so, deterministically."""

    def test_note_names_the_unit_and_both_files(self, project, tmp_path, capsys):
        copy = tmp_path / "copy.f"
        copy.write_text(WORK_F)
        assert main(["batch", *project, str(copy)]) == 0
        err = capsys.readouterr().err
        assert "unit 'work' is defined in" in err
        assert "work.f" in err and "copy.f" in err
        assert "use --link" in err

    def test_note_is_deterministic(self, project, tmp_path, capsys):
        copy = tmp_path / "copy.f"
        copy.write_text(WORK_F)
        main(["batch", *project, str(copy)])
        first = capsys.readouterr().err
        main(["batch", *project, str(copy)])
        second = capsys.readouterr().err
        assert first == second

    def test_no_note_without_duplicates(self, project, capsys):
        assert main(["batch", *project]) == 0
        err = capsys.readouterr().err
        assert "defined in" not in err

    def test_per_file_results_unchanged_by_duplicates(
        self, project, tmp_path, capsys
    ):
        copy = tmp_path / "copy.f"
        copy.write_text(WORK_F)
        assert main(["batch", *project, str(copy)]) == 0
        out = capsys.readouterr().out
        # Closed-world per-file analysis: the EXTERNAL call clobbers
        # everything, so no file reports interprocedural constants.
        assert "main.f: 0 constant(s), 0 substituted" in out


class TestOracleLinkTrials:
    def test_small_campaign_passes(self, capsys):
        assert main(["oracle", "--link-trials", "4", "--seed", "50"]) == 0
        out = capsys.readouterr().out
        assert "4 link trial(s): 4 passed, 0 failed" in out
