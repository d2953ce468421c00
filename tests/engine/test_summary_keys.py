"""Summary keys before SSA, SSA on a miss, early cutoff.

The engine keys every procedure's summaries on its lowered IR before
call-effect annotation and SSA and on the *exports* of its callees (what
it reads of them), converts a procedure only when one of its summaries
misses, and completes the rest for any reader of the whole program's
IR. These tests pin all three: an edit misses exactly where a summary's
value can change (even when the procedure's own text did not) and
nowhere else, nothing else is converted, and every reader of a warm
cached run sees the plain driver's output byte for byte.
"""

from __future__ import annotations

import pytest

from repro import pipeline
from repro.analysis.ssa import construct_ssa
from repro.config import AnalysisBudget, AnalysisConfig
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
MAX_FUNCTION = (
    "\n      INTEGER FUNCTION MAX(A, B)\n"
    "      MAX = A + B\n"
    "      END\n"
)


def render(result) -> str:
    return "\n".join([
        result.constants.format_report(),
        repr(sorted(result.substitution.per_procedure.items())),
        result.transformed_source(),
        format_program(result.program),
        repr([(d.component, d.site, d.from_kind, d.to_kind, d.reason)
              for d in result.resilience.demotions]),
    ])


def index_of(text: str, cache_dir) -> dict:
    """Every procedure's digest, key and export in a cold cached run of
    ``text`` (keys need the exports, which need the summaries)."""
    with Engine(cache_dir=str(cache_dir)) as engine:
        analyze_source(text, engine=engine)
        return engine.summary_index()


class Edit:
    """Analyze ``before`` then ``after`` through one cached engine;
    record what the second run rebuilt and converted."""

    def __init__(self, before: str, after: str, tmp_path, config=None):
        config = config or AnalysisConfig()
        path = tmp_path / "prog.f"
        path.write_text(before)
        self.engine = Engine(cache_dir=str(tmp_path / "cache"))
        self.before_constants = analyze_source(
            before, config, filename=str(path), engine=self.engine
        ).constants.format_report()
        self.engine.finish_incremental(str(path))
        path.write_text(after)
        snapshot = metrics.snapshot()
        self.result = analyze_source(
            after, config, filename=str(path), engine=self.engine
        )
        counters = metrics.delta_since(snapshot)["counters"]
        self.converted = counters.get("ssa_procedures", 0)
        self.report = self.engine.finish_incremental(str(path))
        self.recomputed = {
            namespace: set(names)
            for namespace, names in self.engine.recomputed.items()
        }
        self.cold = analyze_source(after, config, filename=str(path))
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
        before_index = index_of(PROGRAM, tmp_path / "before")
        after_index = index_of(after, tmp_path / "after")
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
        before_index = index_of(PROGRAM, tmp_path / "before")
        after_index = index_of(after, tmp_path / "after")
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
        into a call: P's lowered IR changes although its text did not,
        and so does the value it leaves in G (now N + 2), which MAIN
        reads."""
        before = PROGRAM.replace(
            "      K = N + 1\n", "      K = N + 1\n      G = MAX(N, 2)\n"
        )
        edit = Edit(before, before + MAX_FUNCTION, tmp_path)
        assert edit.report.edited == ["p"]
        assert edit.report.downstream == ["main"]
        assert edit.report.reasons["main"] == "callee export changed: p"
        assert edit.report.added == ["max"]
        assert edit.recomputed["ret"] == {"main", "p", "max"}
        edit.assert_matches_cold()

    def test_a_unit_shadowing_an_intrinsic_in_a_local_keeps_callers(
        self, tmp_path
    ):
        """The same shadowing where P keeps ``MAX(N, 2)`` in a local:
        P's IR changes, its export does not, so MAIN stays clean."""
        before = PROGRAM.replace("      K = N + 1\n", "      K = MAX(N, 2)\n")
        edit = Edit(before, before + MAX_FUNCTION, tmp_path)
        assert edit.report.edited == ["p"]
        assert edit.report.downstream == []
        assert edit.report.added == ["max"]
        assert edit.recomputed["ret"] == {"p", "max"}
        edit.assert_matches_cold()

    def test_a_common_layout_change_dirties_everything(self, tmp_path):
        """A new COMMON member anywhere changes every call's entry uses
        and every procedure's entry domain: every key must move."""
        after = PROGRAM.replace(
            "      SUBROUTINE U(N)\n",
            "      SUBROUTINE U(N)\n      COMMON /D/ H\n",
        )
        before_index = index_of(PROGRAM, tmp_path / "before")
        after_index = index_of(after, tmp_path / "after")
        for name in PROCEDURES:
            assert before_index[name]["digest"] != after_index[name]["digest"]

        edit = Edit(PROGRAM, after, tmp_path)
        assert edit.recomputed["ret"] == PROCEDURES
        assert edit.recomputed["fwd"] == PROCEDURES
        edit.assert_matches_cold()


#: MAIN calls Q(X) once; Q's edits below each move one input of its
#: export, which MAIN's key reads instead of Q's key.
CALLER = (
    "      PROGRAM MAIN\n"
    "      COMMON /C/ G\n"
    "      G = 7\n"
    "      X = 2\n"
    "      CALL Q(X)\n"
    "      PRINT *, X, G\n"
    "      END\n"
)
CALLEE = (
    "      SUBROUTINE Q(A)\n"
    "      COMMON /C/ G\n"
    "      A = A + 1\n"
    "      K = 5\n"
    "      PRINT *, K\n"
    "      END\n"
)


def assert_caller_rebuilt(edit):
    """Q was edited and MAIN, whose text did not change, was rebuilt
    because what it reads of Q did."""
    assert edit.report.edited == ["q"]
    assert edit.report.downstream == ["main"]
    assert edit.report.reasons["main"] == "callee export changed: q"
    assert edit.recomputed["ret"] == {"main", "q"}
    assert edit.recomputed["fwd"] == {"main", "q"}
    edit.assert_matches_cold()


class TestEveryExportInputDirtiesTheCaller:
    """Each edit changes one input of Q's export: MAIN must be rebuilt
    (downstream of Q wherever its own text is unchanged), and the warm
    run must equal a cold one byte for byte."""

    def test_return_function(self, tmp_path):
        """``A = A + 1`` becomes ``A = A + 2``: the return summary."""
        after = CALLER + CALLEE.replace("A + 1", "A + 2")
        assert_caller_rebuilt(Edit(CALLER + CALLEE, after, tmp_path))

    def test_modified_formal(self, tmp_path):
        """Q starts reading into its formal: its return summary stays
        empty (a READ value is unknown), only MOD moves, and X no longer
        survives MAIN's call."""
        before = CALLER + CALLEE.replace("      A = A + 1\n", "")
        after = before.replace(
            "      PRINT *, K\n", "      PRINT *, K\n      READ *, A\n"
        )
        assert_caller_rebuilt(Edit(before, after, tmp_path))

    def test_modified_global(self, tmp_path):
        """Q gains a MOD global through ``READ *, G``: its return
        summary stays empty, only MOD moves, and G no longer survives
        MAIN's call."""
        before = CALLER + CALLEE.replace("      A = A + 1\n", "")
        after = before.replace(
            "      PRINT *, K\n", "      PRINT *, K\n      READ *, G\n"
        )
        assert_caller_rebuilt(Edit(before, after, tmp_path))

    def test_modified_global_read_by_a_later_call(self, tmp_path):
        """MAIN calls Q and then R(GV1); Q gains ``READ *, GV1``. MAIN's
        summaries read MOD(Q) only through the value GV1 carries into
        R, which must stop being 5."""
        before = (
            "      PROGRAM MAIN\n"
            "      COMMON /GEN/ GV1\n"
            "      GV1 = 5\n"
            "      CALL Q\n"
            "      CALL R(GV1)\n"
            "      END\n"
            "      SUBROUTINE Q\n"
            "      COMMON /GEN/ GV1\n"
            "      PRINT *, 1\n"
            "      END\n"
            "      SUBROUTINE R(K)\n"
            "      PRINT *, K\n"
            "      END\n"
        )
        after = before.replace(
            "      PRINT *, 1\n", "      PRINT *, 1\n      READ *, GV1\n"
        )
        edit = Edit(before, after, tmp_path)
        assert_caller_rebuilt(edit)
        line = "CONSTANTS(r) = {gv1=5, k=5}"
        assert line in edit.before_constants
        assert line not in edit.result.constants.format_report()

    @pytest.mark.parametrize("change", ["added", "array"])
    def test_formals(self, change, tmp_path):
        """A formal is added or made an array. Lowering checks every
        call against its callee's formals, so MAIN's call changes with
        them and MAIN is edited itself, not only downstream."""
        if change == "added":
            before = CALLER + CALLEE
            after = (CALLER.replace("CALL Q(X)", "CALL Q(X, 1)")
                     + CALLEE.replace("Q(A)", "Q(A, B)"))
        else:
            before = CALLER.replace("      X = 2\n", "") + CALLEE.replace(
                "      A = A + 1\n", ""
            )
            after = before.replace(
                "      COMMON /C/ G\n      G = 7\n",
                "      COMMON /C/ G\n      DIMENSION X(3)\n      G = 7\n",
            ).replace(
                "      SUBROUTINE Q(A)\n",
                "      SUBROUTINE Q(A)\n      DIMENSION A(3)\n",
            ).replace("PRINT *, X, G", "PRINT *, G")
        edit = Edit(before, after, tmp_path)
        assert set(edit.report.edited) == {"main", "q"}
        assert edit.recomputed["ret"] == {"main", "q"}
        edit.assert_matches_cold()

    def test_subroutine_becomes_function(self, tmp_path):
        """SUBROUTINE Q turns into a FUNCTION (its result variable
        joins its interface); MAIN's call turns into a reference."""
        before = CALLER + CALLEE
        after = CALLER.replace(
            "      CALL Q(X)\n", "      Y = Q(X)\n"
        ) + CALLEE.replace(
            "      SUBROUTINE Q(A)\n", "      INTEGER FUNCTION Q(A)\n"
        ).replace("      K = 5\n", "      K = 5\n      Q = K\n")
        edit = Edit(before, after, tmp_path)
        assert set(edit.report.edited) == {"main", "q"}
        assert edit.recomputed["ret"] == {"main", "q"}
        edit.assert_matches_cold()

    @pytest.mark.parametrize("terms", [2, 3], ids=["over-budget",
                                                   "other-demotion"])
    def test_demotion_under_a_tight_term_budget(self, terms, tmp_path):
        """With at most 2 polynomial terms, Q's return function for A
        is demoted: from 2 terms to 3 it disappears; from 3 terms to 4
        it stays absent and only the demotion changes."""
        config = AnalysisConfig().replace(
            budget=AnalysisBudget(polynomial_terms=2)
        )
        sum_of = " + ".join("ABC"[:terms])
        before = CALLER.replace("CALL Q(X)", "CALL Q(X, 3, 4)") + (
            CALLEE.replace("Q(A)", "Q(A, B, C)")
            .replace("A = A + 1", f"A = {sum_of}")
        )
        after = before.replace(f"A = {sum_of}", f"A = {sum_of} + 7")
        edit = Edit(before, after, tmp_path, config)
        assert edit.result.resilience.demotions
        assert_caller_rebuilt(edit)


class TestEarlyCutoff:
    def test_a_local_literal_edit_leaves_every_caller_clean(self, tmp_path):
        """``K = 5`` becomes ``K = 6`` in Q: Q's export is unchanged, so
        only Q is rebuilt, and only Q is converted to SSA."""
        after = CALLER + CALLEE.replace("K = 5", "K = 6")
        edit = Edit(CALLER + CALLEE, after, tmp_path)
        assert edit.report.edited == ["q"]
        assert edit.report.downstream == []
        assert edit.report.clean == ["main"]
        assert edit.recomputed == {"ret": {"q"}, "fwd": {"q"}, "sub": {"q"}}
        assert edit.converted == 1
        edit.assert_matches_cold()

    def test_an_edit_inside_a_recursive_component(self, tmp_path):
        """B, in a component with A, changes its recursion step: the
        component is rebuilt whole, and MAIN, which reads only A's
        export (A leaves ``K + 1`` in G whatever B does), stays
        clean."""
        before = (
            "      PROGRAM MAIN\n      COMMON /C/ G\n      G = 3\n"
            "      CALL A(5, 2)\n      PRINT *, G\n      END\n"
            "      SUBROUTINE A(N, K)\n      COMMON /C/ G\n"
            "      IF (N .GT. 0) THEN\n      CALL B(N - 1, K)\n"
            "      ENDIF\n      G = K + 1\n      END\n"
            "      SUBROUTINE B(N, K)\n"
            "      IF (N .GT. 0) THEN\n      CALL A(N - 1, K)\n"
            "      ENDIF\n      END\n"
        )
        after = before.replace("CALL A(N - 1, K)", "CALL A(N - 2, K)")
        edit = Edit(before, after, tmp_path)
        assert edit.report.edited == ["b"]
        assert edit.report.downstream == ["a"]
        assert edit.report.reasons["a"] == "recursive co-member edited: b"
        assert edit.report.clean == ["main"]
        assert edit.recomputed["ret"] == {"a", "b"}
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
    config = AnalysisConfig().replace(verify_ir=True)
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
