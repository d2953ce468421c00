"""Summary keys before SSA, SSA on a miss.

The engine keys every procedure's summaries on its lowered IR before
call-effect annotation and SSA, converts a procedure only when one of
its summaries misses, and completes the rest for any reader of the
whole program's IR. These tests pin both halves: an edit misses exactly
where a summary's value can change (even when the procedure's own text
did not), nothing else is converted, and every reader of a warm cached
run sees the plain driver's output byte for byte.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import pipeline
from repro.analysis.ssa import construct_ssa
from repro.config import AnalysisConfig
from repro.engine import Engine, fingerprint
from repro.ipcp.driver import analyze_source, prepare
from repro.ir.printer import format_program
from repro.obs import metrics
from repro.opt import PASS_NAMES
from repro.oracle.golden import golden_programs
from repro.summary.modref import annotate_call_effects
from repro.testkit import TRI_PROGRAM

from tests.conftest import lower

#: MAIN -> P -> Q -> R, and U called by nobody. R writes nothing
#: observable until the MOD edit below makes it write the global G.
PROGRAM = (
    "      PROGRAM MAIN\n"
    "      COMMON /C/ G\n"
    "      G = 1\n"
    "      CALL P(3)\n"
    "      PRINT *, G\n"
    "      END\n"
    "\n"
    "      SUBROUTINE P(N)\n"
    "      COMMON /C/ G\n"
    "      K = N + 1\n"
    "      CALL Q(N)\n"
    "      M = G + K\n"
    "      PRINT *, M\n"
    "      END\n"
    "\n"
    "      SUBROUTINE Q(K)\n"
    "      CALL R(K)\n"
    "      END\n"
    "\n"
    "      SUBROUTINE R(K)\n"
    "      COMMON /C/ G\n"
    "      J = K\n"
    "      PRINT *, J\n"
    "      END\n"
    "\n"
    "      SUBROUTINE U(N)\n"
    "      M = N * 2\n"
    "      PRINT *, M\n"
    "      END\n"
)
PROCEDURES = {"main", "p", "q", "r", "u"}


def render(result) -> str:
    return "\n".join([
        result.constants.format_report(),
        repr(sorted(result.substitution.per_procedure.items())),
        result.transformed_source(),
        format_program(result.program),
    ])


def index_of(text: str) -> dict:
    program = lower(text)
    prepared = prepare(program, AnalysisConfig())
    return fingerprint.summary_index(
        program, prepared.callgraph, AnalysisConfig()
    )


class Edit:
    """Analyze ``before`` then ``after`` through one cached engine;
    record what the second run rebuilt and converted."""

    def __init__(self, before: str, after: str, tmp_path):
        path = tmp_path / "prog.f"
        path.write_text(before)
        self.engine = Engine(cache_dir=str(tmp_path / "cache"))
        analyze_source(before, filename=str(path), engine=self.engine)
        self.engine.finish_incremental(str(path))
        path.write_text(after)
        snapshot = metrics.snapshot()
        self.result = analyze_source(
            after, filename=str(path), engine=self.engine
        )
        counters = metrics.delta_since(snapshot)["counters"]
        self.converted = counters.get("ssa_procedures", 0)
        self.report = self.engine.finish_incremental(str(path))
        self.recomputed = {
            namespace: set(names)
            for namespace, names in self.engine.recomputed.items()
        }
        self.cold = analyze_source(after, filename=str(path))
        self.engine.close()

    def assert_matches_cold(self):
        # Nothing outside the rebuilt summaries was converted before
        # the rendering below completes the program.
        assert self.converted == len(set().union(*self.recomputed.values()))
        assert render(self.result) == render(self.cold)


class TestKeysMissWhereTheyMust:
    def test_a_callee_mod_change_dirties_unedited_callers(self, tmp_path):
        """R starts writing G: MOD(R), and so MOD(Q), gain G, so P's
        call to Q now kills G. P's and Q's text did not change, their
        digests did not either, and their keys must."""
        after = PROGRAM.replace("      J = K\n", "      G = K\n")
        before_index, after_index = index_of(PROGRAM), index_of(after)
        for name in ("main", "p", "q"):
            assert before_index[name]["digest"] == after_index[name]["digest"]
            assert before_index[name]["key"] != after_index[name]["key"]
        assert before_index["u"] == after_index["u"]

        edit = Edit(PROGRAM, after, tmp_path)
        assert edit.report.edited == ["r"]
        assert set(edit.report.downstream) == {"main", "p", "q"}
        assert edit.recomputed["ret"] == {"main", "p", "q", "r"}
        assert edit.recomputed["fwd"] == {"main", "p", "q", "r"}
        edit.assert_matches_cold()

    def test_another_units_kind_is_part_of_its_key(self, tmp_path):
        """U turns from a SUBROUTINE into a FUNCTION (same body): its
        own summaries miss; no other procedure's key moves."""
        after = PROGRAM.replace(
            "      SUBROUTINE U(N)\n", "      INTEGER FUNCTION U(N)\n"
        )
        before_index, after_index = index_of(PROGRAM), index_of(after)
        changed = {
            name for name in PROCEDURES
            if before_index[name]["key"] != after_index[name]["key"]
        }
        assert changed == {"u"}

        edit = Edit(PROGRAM, after, tmp_path)
        assert edit.recomputed["ret"] == {"u"}
        assert edit.recomputed["fwd"] == {"u"}
        edit.assert_matches_cold()

    def test_a_unit_shadowing_an_intrinsic_changes_its_callers(
        self, tmp_path
    ):
        """A new FUNCTION named MAX turns P's intrinsic ``MAX(N, 2)``
        into a call: P's lowered IR changes although its text did
        not."""
        before = PROGRAM.replace("      K = N + 1\n", "      K = MAX(N, 2)\n")
        after = before + (
            "\n      INTEGER FUNCTION MAX(A, B)\n"
            "      MAX = A + B\n"
            "      END\n"
        )
        edit = Edit(before, after, tmp_path)
        assert edit.report.edited == ["p"]
        assert set(edit.report.downstream) == {"main"}
        assert edit.report.added == ["max"]
        assert edit.recomputed["ret"] == {"main", "p", "max"}
        edit.assert_matches_cold()

    def test_a_common_layout_change_dirties_everything(self, tmp_path):
        """A new COMMON member anywhere changes every call's entry uses
        and every procedure's entry domain: every key must move."""
        after = PROGRAM.replace(
            "      SUBROUTINE U(N)\n",
            "      SUBROUTINE U(N)\n      COMMON /D/ H\n",
        )
        before_index, after_index = index_of(PROGRAM), index_of(after)
        for name in PROCEDURES:
            assert before_index[name]["digest"] != after_index[name]["digest"]

        edit = Edit(PROGRAM, after, tmp_path)
        assert edit.recomputed["ret"] == PROCEDURES
        assert edit.recomputed["fwd"] == PROCEDURES
        edit.assert_matches_cold()


class TestCommentOnlyEdit:
    def test_keeps_summaries_and_rerecords_moved_sites(self, tmp_path):
        """A comment inside Q moves Q's later lines and every unit below
        it: their substitution sites are re-recorded at the new
        coordinates, everything else (every return and forward summary
        included) is served from the cache, and only the re-measured
        procedures are converted to SSA."""
        after = PROGRAM.replace(
            "      SUBROUTINE Q(K)\n",
            "      SUBROUTINE Q(K)\nC     a comment moves what follows\n",
        )
        edit = Edit(PROGRAM, after, tmp_path)
        assert edit.report.dirty == []
        assert edit.recomputed["ret"] == set()
        assert edit.recomputed["fwd"] == set()
        assert edit.recomputed["sub"] == {"q", "r", "u"}
        edit.assert_matches_cold()


class TestLocationDigest:
    @pytest.mark.parametrize("text", [PROGRAM, TRI_PROGRAM],
                             ids=["program", "tri"])
    def test_same_before_annotation_after_it_and_after_ssa(self, text):
        program = lower(text)
        prepared = prepare(program, AnalysisConfig())

        def digests():
            return [fingerprint.location_digest(p) for p in program]

        lowered = digests()
        annotate_call_effects(program, prepared.callgraph, prepared.modref)
        annotated = digests()
        for procedure in program:
            construct_ssa(procedure)
        assert lowered == annotated == digests()

    def test_moves_with_the_text(self):
        program, moved = lower(PROGRAM), lower("C     header\n" + PROGRAM)
        for before, after in zip(program, moved):
            assert (fingerprint.location_digest(before)
                    != fingerprint.location_digest(after))


# -- every reader of a warm cached run sees the plain driver's program -------


GOLDEN = golden_programs()


def warm_engine(text: str, path: str, config, tmp_path) -> Engine:
    """An engine whose summary cache holds ``text``'s summaries under
    ``config``, and whose run cache does not hold the sections the
    tests below ask for."""
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    analyze_source(text, config, filename=path, engine=engine)
    engine.close()
    return engine


def test_gsa_refinement_completes_the_program_first(tmp_path):
    member = GOLDEN["edge_gsa_refinement"]
    assert member.config.gsa_refinement
    plain = analyze_source(member.source, member.config)
    engine = warm_engine(member.source, "<string>", member.config, tmp_path)
    snapshot = metrics.snapshot()
    warm = analyze_source(member.source, member.config, engine=engine)
    counters = metrics.delta_since(snapshot)["counters"]
    assert "summary_cache_misses" not in counters
    assert render(warm) == render(plain)


def test_verify_ir_completes_the_program_first(tmp_path):
    config = replace(AnalysisConfig(), verify_ir=True)
    plain = analyze_source(TRI_PROGRAM, config)
    engine = warm_engine(TRI_PROGRAM, "<string>", AnalysisConfig(), tmp_path)
    warm = analyze_source(TRI_PROGRAM, config, engine=engine)
    assert engine.recomputed["fwd"] == []
    assert render(warm) == render(plain)


@pytest.mark.parametrize("sections", [
    {"renders": frozenset({"constants", "ir", "stats"})},
    {"explain": "g1@bar"},
    {"passes": tuple(PASS_NAMES), "renders": frozenset({"ir", "stats"})},
], ids=["ir-stats", "explain", "optimize"])
def test_sections_match_the_plain_driver(sections, tmp_path):
    path = str(tmp_path / "tri.f")
    with open(path, "w") as handle:
        handle.write(TRI_PROGRAM)
    request = pipeline.Request(config=AnalysisConfig(), path=path, **sections)
    plain = pipeline.run(request)
    engine = warm_engine(TRI_PROGRAM, path, AnalysisConfig(), tmp_path)
    snapshot = metrics.snapshot()
    warm = pipeline.run(request, engine)
    counters = metrics.delta_since(snapshot)["counters"]
    assert not warm.replayed
    assert "recomputed_ret" not in counters
    assert "summary_cache_misses" not in counters
    for field in ("constants_report", "transformed_source", "ir", "stats",
                  "explain", "opt_report", "substituted"):
        assert getattr(warm, field) == getattr(plain, field), field
