"""MOD summary and call-effect annotation tests."""

from repro.callgraph.callgraph import build_call_graph
from repro.ir.instructions import Return
from repro.summary.modref import annotate_call_effects, compute_modref

from tests.conftest import lower

PROGRAM = (
    "      PROGRAM MAIN\n      COMMON /B/ G1, G2\n      N = 1\n"
    "      CALL OUTER(N)\n      END\n"
    "      SUBROUTINE OUTER(X)\n      COMMON /B/ G1, G2\n"
    "      CALL SETG(X)\n      END\n"
    "      SUBROUTINE SETG(Y)\n      COMMON /B/ G1, G2\n"
    "      G1 = Y\n      Y = 0\n      Z = G2\n      END\n"
)


def analyzed(text=PROGRAM):
    program = lower(text)
    graph = build_call_graph(program)
    return program, graph, compute_modref(program, graph)


def names(variables):
    return {v.name for v in variables}


class TestDirectEffects:
    def test_direct_mod(self):
        program, _, info = analyzed()
        setg = program.procedure("setg")
        mod = info.mod["setg"]
        assert "g1" in names(mod)
        assert "y" in names(mod)

    def test_unmodified_global_not_in_mod(self):
        _, _, info = analyzed()
        assert "g2" not in names(info.mod["setg"])


class TestPropagation:
    def test_global_mod_propagates_up(self):
        _, _, info = analyzed()
        assert "g1" in names(info.mod["outer"])
        assert "g1" in names(info.mod["main"])

    def test_formal_mod_binds_through_actual(self):
        _, _, info = analyzed()
        # SETG modifies Y; OUTER passes X: so OUTER may modify X.
        assert "x" in names(info.mod["outer"])
        # MAIN passes N to OUTER: N may be modified.
        assert "n" in names(info.mod["main"])

    def test_recursion_converges(self):
        _, _, info = analyzed(
            "      PROGRAM MAIN\n      COMMON /B/ G\n      CALL R(3)\n"
            "      END\n"
            "      SUBROUTINE R(N)\n      COMMON /B/ G\n"
            "      IF (N .GT. 0) THEN\n      G = N\n      CALL R(N - 1)\n"
            "      ENDIF\n      END\n"
        )
        assert "g" in names(info.mod["r"])
        assert "g" in names(info.mod["main"])

    def test_expression_actual_does_not_bind(self):
        # T passes J+0 (a temporary) to S, which modifies its formal:
        # the modification cannot reach J through the expression actual.
        _, _, info = analyzed(
            "      PROGRAM MAIN\n      N = 1\n      CALL T(N)\n      END\n"
            "      SUBROUTINE T(J)\n      CALL S(J + 0)\n      END\n"
            "      SUBROUTINE S(K)\n      K = 2\n      END\n"
        )
        assert "j" not in names(info.mod["t"])

    def test_array_actual_binds(self):
        _, _, info = analyzed(
            "      PROGRAM MAIN\n      INTEGER A(5)\n      CALL S(A)\n"
            "      END\n"
            "      SUBROUTINE S(B)\n      INTEGER B(5)\n      B(1) = 2\n"
            "      END\n"
        )
        assert "a" in names(info.mod["main"])

    def test_helpers(self):
        program, _, info = analyzed()
        setg = program.procedure("setg")
        assert info.may_modify("setg", setg.formals[0])
        modified = info.modified_formals(setg)
        assert names(modified) == {"y"}


class TestAnnotation:
    def test_with_mod_filters_kills(self):
        program, graph, info = analyzed()
        annotate_call_effects(program, graph, info)
        outer_call = program.procedure("outer").call_sites()[0]
        defined = names(d.var for d in outer_call.may_define)
        assert "g1" in defined  # really modified
        assert "g2" not in defined  # never modified
        assert "x" in defined  # bound to modified formal

    def test_worst_case_kills_everything(self):
        program, graph, _ = analyzed()
        annotate_call_effects(program, graph, None)
        outer_call = program.procedure("outer").call_sites()[0]
        defined = names(d.var for d in outer_call.may_define)
        assert {"g1", "g2", "x"} <= defined

    def test_entry_uses_cover_all_globals(self):
        program, graph, info = analyzed()
        annotate_call_effects(program, graph, info)
        for call in program.call_sites():
            assert names(u.var for u in call.entry_uses) == {"g1", "g2"}

    def test_return_exit_uses_cover_formals_and_globals(self):
        program, graph, info = analyzed()
        annotate_call_effects(program, graph, info)
        setg = program.procedure("setg")
        returns = [
            i for i in setg.cfg.instructions() if isinstance(i, Return)
        ]
        assert returns
        assert names(u.var for u in returns[0].exit_uses) == {"y", "g1", "g2"}

    def test_literal_actual_never_killed(self):
        program, graph, info = analyzed(
            "      PROGRAM MAIN\n      CALL S(3)\n      END\n"
            "      SUBROUTINE S(K)\n      K = 2\n      END\n"
        )
        annotate_call_effects(program, graph, info)
        call = program.procedure("main").call_sites()[0]
        assert call.may_define == []
