"""Interprocedural propagation solver tests (§2)."""

from repro.config import AnalysisConfig, JumpFunctionKind
from repro.ipcp.driver import prepare_program
from repro.ipcp.jump_functions import build_forward_jump_functions
from repro.ipcp.return_functions import build_return_functions
from repro.ipcp.solver import entry_domain, propagate

from tests.conftest import lower


def solve(text, kind=JumpFunctionKind.POLYNOMIAL):
    program = lower(text)
    config = AnalysisConfig(jump_function=kind)
    callgraph, modref = prepare_program(program, config)
    return_map = build_return_functions(program, callgraph, modref)
    table = build_forward_jump_functions(program, callgraph, kind, return_map)
    result = propagate(program, callgraph, table)
    return program, result


DEEP_CHAIN = (
    "      PROGRAM MAIN\n      CALL C1(5)\n      END\n"
    "      SUBROUTINE C1(X)\n      CALL C2(X)\n      END\n"
    "      SUBROUTINE C2(X)\n      CALL C3(X)\n      END\n"
    "      SUBROUTINE C3(X)\n      Y = X\n      END\n"
)


class TestFixpoint:
    def test_single_edge_constant(self):
        program, result = solve(
            "      PROGRAM MAIN\n      CALL S(3)\n      END\n"
            "      SUBROUTINE S(K)\n      X = K\n      END\n"
        )
        s = program.procedure("s")
        assert result.constants.constants_of("s") == {s.formals[0]: 3}

    def test_deep_chain_propagates(self):
        program, result = solve(DEEP_CHAIN)
        for name in ("c1", "c2", "c3"):
            proc = program.procedure(name)
            assert result.constants.constants_of(name) == {proc.formals[0]: 5}

    def test_agreeing_edges_meet_to_constant(self):
        program, result = solve(
            "      PROGRAM MAIN\n      CALL S(3)\n      CALL S(3)\n      END\n"
            "      SUBROUTINE S(K)\n      X = K\n      END\n"
        )
        assert len(result.constants.constants_of("s")) == 1

    def test_conflicting_edges_meet_to_bottom(self):
        program, result = solve(
            "      PROGRAM MAIN\n      CALL S(3)\n      CALL S(4)\n      END\n"
            "      SUBROUTINE S(K)\n      X = K\n      END\n"
        )
        assert result.constants.constants_of("s") == {}
        s = program.procedure("s")
        assert result.constants.val_of("s", s.formals[0]).is_bottom

    def test_never_called_procedure_stays_top(self):
        program, result = solve(
            "      PROGRAM MAIN\n      X = 1\n      END\n"
            "      SUBROUTINE ORPHAN(K)\n      Y = K\n      END\n"
        )
        orphan = program.procedure("orphan")
        assert result.constants.val_of("orphan", orphan.formals[0]).is_top

    def test_called_only_from_dead_procedure_stays_top(self):
        program, result = solve(
            "      PROGRAM MAIN\n      X = 1\n      END\n"
            "      SUBROUTINE DEAD\n      CALL LEAF(9)\n      END\n"
            "      SUBROUTINE LEAF(K)\n      Y = K\n      END\n"
        )
        leaf = program.procedure("leaf")
        # LEAF's only caller is itself never called: the jump function
        # evaluates against DEAD's all-TOP VAL set, so LEAF keeps the
        # optimistic constant 9 (the paper: T means never invoked —
        # claiming 9 for an uninvoked procedure is vacuously sound).
        value = result.constants.val_of("leaf", leaf.formals[0])
        assert value.is_constant and value.value == 9

    def test_main_globals_are_bottom(self):
        program, result = solve(
            "      PROGRAM MAIN\n      COMMON /C/ G\n      X = G\n      END\n"
        )
        g = program.scalar_globals()[0]
        assert result.constants.val_of("main", g).is_bottom

    def test_recursion_converges(self):
        program, result = solve(
            "      PROGRAM MAIN\n      CALL R(10)\n      END\n"
            "      SUBROUTINE R(N)\n"
            "      IF (N .GT. 0) THEN\n      CALL R(N - 1)\n      ENDIF\n"
            "      END\n"
        )
        r = program.procedure("r")
        # Edges carry 10 and N-1: the meet is bottom (not a constant).
        assert result.constants.val_of("r", r.formals[0]).is_bottom

    def test_recursive_pass_through_keeps_constant(self):
        program, result = solve(
            "      PROGRAM MAIN\n      CALL R(10, 7)\n      END\n"
            "      SUBROUTINE R(N, V)\n"
            "      IF (N .GT. 0) THEN\n      CALL R(N - 1, V)\n      ENDIF\n"
            "      END\n"
        )
        r = program.procedure("r")
        assert result.constants.constants_of("r") == {r.formals[1]: 7}


class TestDomain:
    def test_entry_domain_contents(self):
        program, _ = solve(DEEP_CHAIN)
        c1 = program.procedure("c1")
        domain = entry_domain(c1, program)
        assert c1.formals[0] in domain

    def test_array_formals_excluded(self):
        program, result = solve(
            "      PROGRAM MAIN\n      INTEGER A(5)\n      CALL S(A, 1)\n"
            "      END\n"
            "      SUBROUTINE S(B, K)\n      INTEGER B(5)\n      B(1) = K\n"
            "      END\n"
        )
        s = program.procedure("s")
        domain = entry_domain(s, program)
        assert s.formals[0] not in domain  # the array
        assert s.formals[1] in domain


class TestStats:
    def test_stats_populated(self):
        _, result = solve(DEEP_CHAIN)
        assert result.stats.procedure_visits > 0
        assert result.stats.jump_function_evaluations > 0
        assert result.stats.lowerings > 0


DIAMOND = (
    "      PROGRAM MAIN\n      CALL L(1)\n      CALL R(2)\n      END\n"
    "      SUBROUTINE L(X)\n      CALL B(X)\n      END\n"
    "      SUBROUTINE R(X)\n      CALL B(X)\n      END\n"
    "      SUBROUTINE B(X)\n      Y = X\n      END\n"
)


class TestDiamondRequeue:
    """Regression guard for the worklist's pending-set pruning.

    In a diamond (main -> l, r -> b) the shared callee b is pushed while
    already pending when both parents lower in the same wave.  If a pop
    ever failed to prune the pending set (the hazard the ``_Worklist``
    class exists to prevent), a later lowering of l or r could not
    re-queue b and b would keep a stale, unsoundly-constant VAL set."""

    def test_shared_callee_sees_both_parents(self):
        program, result = solve(DIAMOND)
        b = program.procedure("b")
        # l passes 1 and r passes 2: b's formal must meet to bottom.
        assert result.constants.constants_of("b") == {}
        from repro.lattice import BOTTOM

        assert result.constants.val_set("b")[b.formals[0]] is BOTTOM

    def test_agreeing_parents_stay_constant(self):
        agreeing = DIAMOND.replace("CALL R(2)", "CALL R(1)")
        program, result = solve(agreeing)
        b = program.procedure("b")
        assert result.constants.constants_of("b") == {b.formals[0]: 1}


class TestWorklist:
    class FakeProc:
        def __init__(self, name):
            self.name = name

    def make(self, names=("a", "b", "c")):
        from repro.ipcp.solver import _Worklist

        return _Worklist(), [self.FakeProc(n) for n in names]

    def test_duplicate_push_dropped(self):
        wl, (a, _, _) = self.make()
        assert wl.push(a) is True
        assert wl.push(a) is False
        assert len(wl) == 1

    def test_pop_prunes_pending(self):
        wl, (a, b, _) = self.make()
        wl.push(a)
        wl.push(b)
        popped = wl.pop()
        assert wl.push(popped) is True, "popped item must be re-queueable"

    def test_fifo_order(self):
        wl, (a, b, c) = self.make()
        for p in (a, b, c):
            wl.push(p)
        assert [wl.pop(), wl.pop(), wl.pop()] == [a, b, c]

    def test_empty_is_falsy(self):
        wl, (a, _, _) = self.make()
        assert not wl
        wl.push(a)
        assert wl
        wl.pop()
        assert not wl
