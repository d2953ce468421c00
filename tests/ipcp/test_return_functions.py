"""Return jump function tests (§3.2)."""

from repro.config import AnalysisConfig
from repro.ipcp.driver import prepare_program
from repro.ipcp.return_functions import (
    ReturnFunctionMap,
    build_return_functions,
    callee_target_for,
)

from tests.conftest import lower


def return_map_for(text, use_mod=True):
    program = lower(text)
    config = AnalysisConfig(use_mod=use_mod)
    callgraph, modref = prepare_program(program, config)
    return program, build_return_functions(program, callgraph, modref)


class TestConstruction:
    def test_constant_global_assignment(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      COMMON /C/ G\n      CALL INIT\n"
            "      END\n"
            "      SUBROUTINE INIT\n      COMMON /C/ G\n      G = 64\n"
            "      END\n"
        )
        g = program.scalar_globals()[0]
        rjf = return_map.lookup("init", g)
        assert rjf is not None
        assert rjf.polynomial.constant_value() == 64

    def test_polynomial_of_entry_values(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      N = 1\n      CALL S(N)\n      END\n"
            "      SUBROUTINE S(K)\n      K = K * 3 + 1\n      END\n"
        )
        s = program.procedure("s")
        k = s.formals[0]
        rjf = return_map.lookup("s", k)
        assert rjf is not None
        assert rjf.polynomial.evaluate({k: 5}) == 16
        assert rjf.support == frozenset((k,))

    def test_function_result(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      X = F(2)\n      END\n"
            "      INTEGER FUNCTION F(Q)\n      F = Q + 10\n      END\n"
        )
        f = program.procedure("f")
        rjf = return_map.lookup("f", f.result_var)
        assert rjf is not None
        assert rjf.polynomial.evaluate({f.formals[0]: 2}) == 12

    def test_unmodified_vars_skipped_with_mod(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      COMMON /C/ G\n      N = 1\n"
            "      CALL S(N)\n      END\n"
            "      SUBROUTINE S(K)\n      COMMON /C/ G\n      X = K\n"
            "      END\n"
        )
        g = program.scalar_globals()[0]
        # With MOD: S modifies nothing, so no return functions exist.
        assert return_map.lookup("s", g) is None

    def test_identity_functions_without_mod(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      COMMON /C/ G\n      N = 1\n"
            "      CALL S(N)\n      END\n"
            "      SUBROUTINE S(K)\n      COMMON /C/ G\n      X = K\n"
            "      END\n",
            use_mod=False,
        )
        g = program.scalar_globals()[0]
        rjf = return_map.lookup("s", g)
        assert rjf is not None
        assert rjf.polynomial.is_single_variable_identity() is g

    def test_divergent_exits_get_no_function(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      N = 1\n      CALL S(N)\n      END\n"
            "      SUBROUTINE S(K)\n"
            "      IF (K .GT. 0) THEN\n      K = 1\n      RETURN\n      ENDIF\n"
            "      K = 2\n      RETURN\n      END\n"
        )
        s = program.procedure("s")
        assert return_map.lookup("s", s.formals[0]) is None

    def test_agreeing_exits_get_function(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      N = 1\n      CALL S(N)\n      END\n"
            "      SUBROUTINE S(K)\n"
            "      IF (K .GT. 0) THEN\n      K = 5\n      RETURN\n      ENDIF\n"
            "      K = 5\n      RETURN\n      END\n"
        )
        s = program.procedure("s")
        rjf = return_map.lookup("s", s.formals[0])
        assert rjf is not None
        assert rjf.polynomial.constant_value() == 5

    def test_read_modified_gets_no_function(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      N = 1\n      CALL S(N)\n      END\n"
            "      SUBROUTINE S(K)\n      READ *, K\n      END\n"
        )
        s = program.procedure("s")
        assert return_map.lookup("s", s.formals[0]) is None

    def test_recursive_scc_conservative(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      COMMON /C/ G\n      CALL R(3)\n"
            "      END\n"
            "      SUBROUTINE R(N)\n      COMMON /C/ G\n"
            "      G = 7\n"
            "      IF (N .GT. 0) THEN\n      CALL R(N - 1)\n      ENDIF\n"
            "      END\n"
        )
        g = program.scalar_globals()[0]
        # G = 7 then possibly a recursive call that (per MOD) may write G;
        # inside the SCC no return function is available, so the exits
        # disagree -> no function. Conservative but sound.
        assert return_map.lookup("r", g) is None

    def test_composition_through_callees(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      COMMON /C/ G\n      CALL OUTER\n"
            "      END\n"
            "      SUBROUTINE OUTER\n      COMMON /C/ G\n      CALL INNER\n"
            "      END\n"
            "      SUBROUTINE INNER\n      COMMON /C/ G\n      G = 11\n"
            "      END\n"
        )
        g = program.scalar_globals()[0]
        rjf = return_map.lookup("outer", g)
        assert rjf is not None
        assert rjf.polynomial.constant_value() == 11

    def test_main_gets_no_functions(self):
        _, return_map = return_map_for(
            "      PROGRAM MAIN\n      COMMON /C/ G\n      G = 1\n      END\n"
        )
        assert return_map.functions_of("main") == []


class TestBindingHelpers:
    def test_callee_target_for_global(self):
        program, _ = return_map_for(
            "      PROGRAM MAIN\n      COMMON /C/ G\n      CALL S\n      END\n"
            "      SUBROUTINE S\n      COMMON /C/ G\n      G = 1\n      END\n"
        )
        g = program.scalar_globals()[0]
        call = program.procedure("main").call_sites()[0]
        callee = program.procedure("s")
        assert callee_target_for(call, callee, g) is g

    def test_callee_target_for_formal(self):
        program, _ = return_map_for(
            "      PROGRAM MAIN\n      N = 1\n      CALL S(N)\n      END\n"
            "      SUBROUTINE S(K)\n      K = 2\n      END\n"
        )
        call = program.procedure("main").call_sites()[0]
        callee = program.procedure("s")
        n = program.procedure("main").symbols.lookup("n")
        assert callee_target_for(call, callee, n) is callee.formals[0]

    def test_aliased_actual_ambiguous(self):
        program, _ = return_map_for(
            "      PROGRAM MAIN\n      N = 1\n      CALL S(N, N)\n      END\n"
            "      SUBROUTINE S(A, B)\n      A = 2\n      B = 3\n      END\n"
        )
        call = program.procedure("main").call_sites()[0]
        callee = program.procedure("s")
        n = program.procedure("main").symbols.lookup("n")
        assert callee_target_for(call, callee, n) is None


class TestMapBasics:
    def test_empty_map(self):
        empty = ReturnFunctionMap()
        assert len(empty) == 0
        assert list(empty) == []

    def test_functions_of(self):
        program, return_map = return_map_for(
            "      PROGRAM MAIN\n      COMMON /C/ G, H\n      CALL INIT\n"
            "      END\n"
            "      SUBROUTINE INIT\n      COMMON /C/ G, H\n      G = 1\n"
            "      H = 2\n      END\n"
        )
        assert len(return_map.functions_of("init")) == 2

    def test_functions_of_matches_a_scan_of_the_whole_map(self):
        """The per-procedure index answers exactly what scanning every
        function would: same functions, same order, and an overwritten
        (procedure, target) entry keeps its first position."""
        from dataclasses import replace

        from repro.analysis.expr import ConstExpr
        from repro.suite.generator import GeneratorConfig, generate_case

        text = generate_case(
            4, GeneratorConfig(procedures=8, max_statements_per_procedure=10)
        ).source
        # Without MOD every scalar formal and global gets a function.
        _, built = return_map_for(text, use_mod=False)
        per_procedure = {}
        for fn in built:
            per_procedure.setdefault(fn.procedure_name, []).append(fn)
        assert sum(len(fns) > 1 for fns in per_procedure.values()) >= 1
        # Interleave procedures so a procedure's functions are not
        # contiguous in the map, then overwrite one entry.
        return_map = ReturnFunctionMap()
        rounds = max(len(fns) for fns in per_procedure.values())
        for index in range(rounds):
            for fns in per_procedure.values():
                if index < len(fns):
                    return_map.add(fns[index])
        target = next(fns[0] for fns in per_procedure.values() if len(fns) > 1)
        overwrite = replace(target, expr=ConstExpr(99))
        return_map.add(overwrite)
        assert len(return_map) == len(built)

        for name in list(per_procedure) + ["main", "nosuchproc"]:
            scan = [fn for fn in return_map if fn.procedure_name == name]
            assert return_map.functions_of(name) == scan
        owner = return_map.functions_of(target.procedure_name)
        assert owner[0] is overwrite


class TestAliasingConservatism:
    """FORTRAN forbids redefining aliased dummy/global pairs; where the
    analyzer can *see* the aliasing at a call site, it refuses to apply
    return jump functions rather than trust conformance."""

    def test_global_passed_as_actual_is_ambiguous(self):
        program, _ = return_map_for(
            "      PROGRAM MAIN\n      COMMON /C/ G\n      G = 1\n"
            "      CALL S(G)\n      END\n"
            "      SUBROUTINE S(K)\n      COMMON /C/ G\n      K = 5\n"
            "      END\n"
        )
        g = program.scalar_globals()[0]
        call = program.procedure("main").call_sites()[0]
        callee = program.procedure("s")
        assert callee_target_for(call, callee, g) is None

    def test_global_alias_kills_constant(self):
        # G=1 passed as K; S writes K (i.e. G through the alias). The
        # analyzer must not claim G=1 survives the call.
        from repro.ipcp.driver import analyze_source

        result = analyze_source(
            "      PROGRAM MAIN\n      COMMON /C/ G\n      G = 1\n"
            "      CALL S(G)\n      CALL W\n      END\n"
            "      SUBROUTINE S(K)\n      COMMON /C/ G\n      K = 5\n"
            "      END\n"
            "      SUBROUTINE W\n      COMMON /C/ G\n      X = G\n"
            "      END\n"
        )
        w_constants = {
            var.name: value
            for var, value in result.constants.constants_of("w").items()
        }
        assert "g" not in w_constants

    def test_global_alias_claim_matches_execution(self):
        from repro.ipcp.driver import analyze_source
        from repro.ir.interp import run_source

        source = (
            "      PROGRAM MAIN\n      COMMON /C/ G\n      G = 1\n"
            "      CALL S(G)\n      CALL W\n      END\n"
            "      SUBROUTINE S(K)\n      COMMON /C/ G\n      K = 5\n"
            "      END\n"
            "      SUBROUTINE W\n      COMMON /C/ G\n      PRINT *, G\n"
            "      END\n"
        )
        trace = run_source(source)
        assert trace.output == ["5"]  # the alias really writes G
        result = analyze_source(source)
        for proc in ("s", "w"):
            claimed = result.constants.constants_of(proc)
            assert trace.constant_violations(proc, claimed) == []
