"""Unit tests of the whole-program linker: symbol-table construction,
deterministic link diagnostics, entry selection, project identity for
caching, and the cheap duplicate scan used by per-file batch mode."""

import os

import pytest

from repro.diagnostics import E_IO, E_LINK, W_LINK, Severity
from repro.engine.batch import duplicate_units_across_files, scan_unit_names
from repro.linkage import (
    analyze_linked_sources,
    link_files,
    link_sources,
    project_bundle_text,
    project_label,
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


def errors_with(link, code):
    return [d for d in link.diagnostics.errors() if d.code == code]


class TestSuccessfulLink:
    def test_symbol_table_and_merge(self):
        link = link_sources([("main.f", MAIN_F), ("work.f", WORK_F)])
        assert link.ok
        assert [u.name for u in link.units] == ["main", "work"]
        assert link.entry == "main"
        table = link.format_symbol_table()
        assert "main" in table and "work.f" in table
        assert "/shared/" in table
        assert link.module is not None
        assert [u.name for u in link.module.units] == ["main", "work"]

    def test_cross_file_constants(self):
        result, link = analyze_linked_sources(
            [("main.f", MAIN_F), ("work.f", WORK_F)]
        )
        assert link.ok and result is not None
        constants = result.constants.constants_of("work")
        assert {v.name: c for v, c in constants.items()} == {
            "base": 40, "n": 100, "scale": 2,
        }

    def test_single_file_degenerate_case(self):
        link = link_sources([("only.f", MAIN_F.replace("CALL WORK(100)\n", "") .replace("      EXTERNAL WORK\n", ""))])
        assert link.ok


class TestLinkErrors:
    def test_undefined_external(self):
        link = link_sources(
            [("a.f", "      PROGRAM MAIN\n      EXTERNAL NOPE\n"
              "      CALL NOPE\n      END\n")]
        )
        assert not link.ok
        (err,) = errors_with(link, E_LINK)
        assert "nope" in err.message and "not defined" in err.message

    def test_undefined_symbol_without_external(self):
        link = link_sources(
            [("a.f", "      PROGRAM MAIN\n      CALL GHOST\n      END\n")]
        )
        assert not link.ok
        (err,) = errors_with(link, E_LINK)
        assert "ghost" in err.message

    def test_duplicate_definition_lists_every_site(self):
        link = link_sources(
            [
                ("a.f", "      SUBROUTINE S\n      RETURN\n      END\n"),
                ("b.f", "      SUBROUTINE S\n      RETURN\n      END\n"),
                ("m.f", "      PROGRAM MAIN\n      CALL S\n      END\n"),
            ]
        )
        assert not link.ok
        (err,) = errors_with(link, E_LINK)
        assert "a.f" in err.message and "b.f" in err.message

    def test_no_program_unit(self):
        link = link_sources([("a.f", WORK_F)])
        assert not link.ok
        assert any(
            "no PROGRAM unit" in d.message for d in link.diagnostics.errors()
        )

    def test_common_shape_mismatch(self):
        link = link_sources(
            [
                ("a.f", "      PROGRAM MAIN\n      COMMON /B/ X, Y\n"
                 "      X = 1\n      CALL S\n      END\n"),
                ("b.f", "      SUBROUTINE S\n      COMMON /B/ X\n"
                 "      PRINT *, X\n      RETURN\n      END\n"),
            ]
        )
        assert not link.ok
        (err,) = errors_with(link, E_LINK)
        assert "/b/" in err.message


class TestEntrySelection:
    TWO_MAINS = [
        ("one.f", "      PROGRAM ALPHA\n      CALL S(1)\n      END\n"),
        ("two.f", "      PROGRAM BETA\n      CALL S(2)\n      END\n"
         "\n      SUBROUTINE S(N)\n      PRINT *, N\n"
         "      RETURN\n      END\n"),
    ]

    def test_ambiguous_without_entry(self):
        link = link_sources(self.TWO_MAINS)
        assert not link.ok
        assert any("--entry" in d.message for d in link.diagnostics.errors())

    def test_entry_selects_and_warns_about_dropped(self):
        link = link_sources(self.TWO_MAINS, entry="beta")
        assert link.ok
        assert link.entry == "beta"
        warnings = [
            d for d in link.diagnostics
            if d.severity is Severity.WARNING and d.code == W_LINK
        ]
        assert any("alpha" in w.message for w in warnings)
        assert "alpha" not in [u.name for u in link.module.units]

    def test_unknown_entry(self):
        link = link_sources(self.TWO_MAINS, entry="gamma")
        assert not link.ok
        assert any("gamma" in d.message for d in link.diagnostics.errors())


class TestLinkFiles:
    def test_unreadable_file_is_fatal(self, tmp_path):
        missing = str(tmp_path / "nope.f")
        link = link_files([missing])
        assert not link.ok
        assert errors_with(link, E_IO)

    def test_round_trip(self, tmp_path):
        a = tmp_path / "a.f"
        b = tmp_path / "b.f"
        a.write_text(MAIN_F)
        b.write_text(WORK_F)
        link = link_files([str(a), str(b)])
        assert link.ok


class TestProjectIdentity:
    def test_bundle_text_is_injective_on_file_splits(self):
        one = project_bundle_text([("a.f", "X"), ("b.f", "Y")])
        other = project_bundle_text([("a.f", "XY"), ("b.f", "")])
        merged = project_bundle_text([("a.f", "X\x00Y")])
        assert len({one, other, merged}) == 3

    def test_bundle_text_includes_entry(self):
        named = [("a.f", MAIN_F)]
        assert project_bundle_text(named, "main") != project_bundle_text(named)

    def test_label_is_cwd_independent_and_rooted(self, tmp_path, monkeypatch):
        paths = [str(tmp_path / "a.f"), str(tmp_path / "b.f")]
        before = project_label(paths)
        monkeypatch.chdir(tmp_path)
        assert project_label(paths) == before
        assert before.startswith("/repro-linked/")

    def test_label_depends_on_entry_and_paths(self, tmp_path):
        paths = [str(tmp_path / "a.f")]
        assert project_label(paths) != project_label(paths, "main")
        assert project_label(paths) != project_label(
            [str(tmp_path / "b.f")]
        )


class TestDuplicateScan:
    def test_scan_unit_names(self):
        assert scan_unit_names(MAIN_F + "\n" + WORK_F) == ["main", "work"]
        assert scan_unit_names(
            "      INTEGER FUNCTION F(X)\n      F = X\n      RETURN\n"
            "      END\n"
        ) == ["f"]

    def test_duplicates_across_files(self, tmp_path):
        a = tmp_path / "a.f"
        b = tmp_path / "b.f"
        c = tmp_path / "c.f"
        a.write_text(MAIN_F)
        b.write_text(WORK_F)
        c.write_text(WORK_F)
        duplicates = duplicate_units_across_files(
            [str(a), str(b), str(c)]
        )
        assert list(duplicates) == ["work"]
        assert duplicates["work"] == [str(b), str(c)]

    def test_unreadable_files_are_skipped(self, tmp_path):
        a = tmp_path / "a.f"
        a.write_text(MAIN_F)
        assert duplicate_units_across_files(
            [str(a), str(tmp_path / "missing.f")]
        ) == {}
