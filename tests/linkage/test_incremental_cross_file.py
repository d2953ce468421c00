"""Cross-file incremental re-analysis.

The PR-4 incremental property, lifted to linked projects: after editing
one procedure in one file of a multi-file program, a warm linked run
must recompute exactly the edited procedure's SCC and its transitive
callers — *even when those callers live in other files* — and produce
output byte-identical to a cold linked run. The engine's
``recomputed_ret``/``recomputed_fwd`` tracking is the counter-assertion
that nothing outside the dirty set was touched.

Edit scripts and the dirty-set closure helper are shared with the
single-file property test (:mod:`tests.engine.test_incremental`).
"""

from __future__ import annotations

import pytest

from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.ir.printer import format_program
from repro.linkage import analyze_linked_files, project_label
from repro.obs import metrics
from repro.oracle.partition import split_program
from repro.suite.generator import GeneratorConfig, generate_program
from tests.engine.test_incremental import (
    apply_edit,
    callers_closure,
    changed_chunks,
    parse_counters,
    rebuilt,
    ssa_built,
)

GEN_CONFIG = GeneratorConfig(procedures=5)


def render_linked(result) -> str:
    """Every externally visible linked-run output (there is no
    transformed source: the merged module has no single source file)."""
    return "\n".join(
        [
            result.constants.format_report(),
            str(result.substituted_constants),
            repr(sorted(result.substitution.per_procedure.items())),
            format_program(result.program),
        ]
    )


def write_project(tmp_path, files):
    paths = []
    for name, text in files:
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return paths


def placement(files):
    """unit name -> file name, scanned from the split file texts."""
    import re

    placed = {}
    for name, text in files:
        for match in re.finditer(
            r"(?:PROGRAM|SUBROUTINE|FUNCTION)\s+(\w+)", text
        ):
            placed[match.group(1).lower()] = name
    return placed


@pytest.mark.parametrize("seed", range(24))
def test_cross_file_incremental_matches_cold_and_touches_only_dirty(
    seed, tmp_path
):
    source = generate_program(seed, GEN_CONFIG)
    parts = 2 + seed % 3
    config = AnalysisConfig()
    cache_dir = str(tmp_path / "cache")

    files = split_program(source, parts, seed)
    paths = write_project(tmp_path, files)
    label = project_label(paths)

    with Engine(cache_dir=cache_dir) as engine:
        result, link = analyze_linked_files(paths, config, engine=engine)
        assert link.ok, link.diagnostics.format()
        first = engine.finish_incremental(label)
        assert first.cold

    # Edit one unit, re-split under the SAME partition (the splitter is
    # deterministic in (unit count, seed), so every unit stays in its
    # file and only the edited unit's file changes on disk).
    edited_source, edited_name = apply_edit(source, seed)
    edited_files = split_program(edited_source, parts, seed)
    write_project(tmp_path, edited_files)

    with Engine(cache_dir=cache_dir) as engine:
        before = metrics.snapshot()
        warm, link = analyze_linked_files(paths, config, engine=engine)
        converted = ssa_built(before)
        assert link.ok, link.diagnostics.format()
        report = engine.finish_incremental(label)
        recomputed_ret = set(engine.recomputed["ret"])
        recomputed_fwd = set(engine.recomputed["fwd"])
        recomputed = rebuilt(engine)

    cold, _ = analyze_linked_files(paths, config)
    assert render_linked(warm) == render_linked(cold)

    assert not report.cold and not report.replayed
    dirty = set(report.dirty)
    assert edited_name in dirty
    allowed = callers_closure(warm.callgraph, edited_name)
    assert dirty <= allowed, (seed, dirty, allowed)
    assert recomputed_ret == dirty, (seed, recomputed_ret, dirty)
    assert recomputed_fwd == dirty, (seed, recomputed_fwd, dirty)
    assert set(report.clean).isdisjoint(recomputed_ret | recomputed_fwd)
    assert set(report.clean) | dirty == {p.name for p in warm.program}
    assert converted == len(recomputed), (seed, converted, recomputed)


@pytest.mark.parametrize("seed", range(24))
def test_one_engine_across_the_edit_matches_cold(seed, tmp_path):
    """The same partitions and edits through ONE engine, which keeps
    every file's parsed units: byte-identical to a cold linked run, and
    only the changed chunks of the edited file re-parse."""
    source = generate_program(seed, GEN_CONFIG)
    parts = 2 + seed % 3
    config = AnalysisConfig()
    files = split_program(source, parts, seed)
    paths = write_project(tmp_path, files)
    edited_source, edited_name = apply_edit(source, seed)
    edited_files = split_program(edited_source, parts, seed)
    changed = total = 0
    for (_, before), (_, after) in zip(files, edited_files):
        file_changed, file_total = changed_chunks(before, after)
        changed += file_changed
        total += file_total

    with Engine(cache_dir=str(tmp_path / "cache")) as engine:
        _, link = analyze_linked_files(paths, config, engine=engine)
        assert link.ok, link.diagnostics.format()
        engine.finish_incremental(project_label(paths))
        write_project(tmp_path, edited_files)
        before = metrics.snapshot()
        warm, link = analyze_linked_files(paths, config, engine=engine)
        counts = parse_counters(before)
        converted = ssa_built(before)
        assert link.ok, link.diagnostics.format()
        report = engine.finish_incremental(project_label(paths))
        recomputed = rebuilt(engine)

    cold, _ = analyze_linked_files(paths, config)
    assert render_linked(warm) == render_linked(cold)
    assert changed >= 1
    assert counts == {
        "parses": parts,
        "parse_units_parsed": changed,
        "parse_units_reused": total - changed,
    }, (seed, counts, changed)
    assert edited_name in report.dirty
    assert converted == len(recomputed), (seed, converted, recomputed)


#: A two-file project: MAIN calls STEP, which adds one to its formal,
#: and OTHER, which nothing affects.
CROSS_MAIN = (
    "      PROGRAM MAIN\n"
    "      EXTERNAL STEP\n"
    "      K = 4\n"
    "      CALL STEP(K)\n"
    "      CALL OTHER\n"
    "      PRINT *, K\n"
    "      END\n"
)
CROSS_LIB = (
    "      SUBROUTINE STEP(N)\n"
    "      PRINT *, N + 1\n"
    "      N = N + 1\n"
    "      RETURN\n"
    "      END\n"
    "\n"
    "      SUBROUTINE OTHER\n"
    "      PRINT *, 0\n"
    "      RETURN\n"
    "      END\n"
)


def edit_cross_file_project(tmp_path, edited_lib):
    """Analyze the project, then again after ``lib.f`` became
    ``edited_lib``; returns the second run's report and recomputed
    return summaries."""
    config = AnalysisConfig()
    cache_dir = str(tmp_path / "cache")
    main_path = tmp_path / "main.f"
    lib_path = tmp_path / "lib.f"
    main_path.write_text(CROSS_MAIN)
    lib_path.write_text(CROSS_LIB)
    paths = [str(main_path), str(lib_path)]
    label = project_label(paths)

    with Engine(cache_dir=cache_dir) as engine:
        analyze_linked_files(paths, config, engine=engine)
        assert engine.finish_incremental(label).cold

    lib_path.write_text(edited_lib)
    with Engine(cache_dir=cache_dir) as engine:
        warm, link = analyze_linked_files(paths, config, engine=engine)
        assert link.ok
        report = engine.finish_incremental(label)
        recomputed = set(engine.recomputed["ret"])
    cold, _ = analyze_linked_files(paths, config)
    assert render_linked(warm) == render_linked(cold)
    return report, recomputed


def test_dirty_set_crosses_the_file_boundary(tmp_path):
    """Deterministic demonstration that invalidation follows call
    edges across files: STEP, in lib.f, now adds two to its formal, so
    MAIN (defined in main.f), which reads that through STEP's export,
    is downstream-dirty; OTHER is untouched."""
    report, recomputed = edit_cross_file_project(
        tmp_path, CROSS_LIB.replace("N = N + 1", "N = N + 2")
    )
    assert set(report.dirty) == {"step", "main"}
    assert recomputed == {"step", "main"}
    assert report.clean == ["other"]
    assert report.reasons["main"] == "callee export changed: step"


def test_an_edit_keeping_the_export_stops_at_the_file_boundary(tmp_path):
    """STEP's edit changes only what it prints: its export is
    unchanged, so MAIN in the other file stays clean."""
    report, recomputed = edit_cross_file_project(
        tmp_path, CROSS_LIB.replace("PRINT *, N + 1", "PRINT *, N + 2")
    )
    assert report.dirty == ["step"]
    assert recomputed == {"step"}
    assert set(report.clean) == {"main", "other"}


def test_unchanged_project_rerun_recomputes_nothing(tmp_path):
    source = generate_program(9, GEN_CONFIG)
    files = split_program(source, 3, 9)
    paths = write_project(tmp_path, files)
    label = project_label(paths)
    config = AnalysisConfig()
    cache_dir = str(tmp_path / "cache")
    with Engine(cache_dir=cache_dir) as engine:
        analyze_linked_files(paths, config, engine=engine)
        engine.finish_incremental(label)
    with Engine(cache_dir=cache_dir) as engine:
        analyze_linked_files(paths, config, engine=engine)
        report = engine.finish_incremental(label)
        assert engine.recomputed["ret"] == []
        assert engine.recomputed["fwd"] == []
    assert report.dirty == []


def test_project_manifest_is_isolated_from_member_files(tmp_path):
    """Analyzing a member file alone and the project must not share a
    manifest: the synthetic project label keys its own namespace."""
    from repro.ipcp.driver import analyze_file

    source = generate_program(2, GEN_CONFIG)
    files = split_program(source, 2, 2)
    paths = write_project(tmp_path, files)
    label = project_label(paths)
    config = AnalysisConfig()
    cache_dir = str(tmp_path / "cache")
    with Engine(cache_dir=cache_dir) as engine:
        analyze_linked_files(paths, config, engine=engine)
        assert engine.finish_incremental(label).cold
    # A fresh engine analyzing one member file alone is its own cold
    # manifest, not an (incorrect) warm diff against the project's.
    with Engine(cache_dir=cache_dir) as engine:
        analyze_file(paths[-1], config, engine=engine)
        assert engine.finish_incremental(paths[-1]).cold
