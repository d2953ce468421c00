"""Structural IR/SSA verifier tests: hand-corrupt a lowered program and
check that :func:`verify_program` pinpoints the procedure and block."""

import pytest

from repro.analysis.ssa import construct_ssa
from repro.config import AnalysisConfig
from repro.frontend.parser import parse_source
from repro.frontend.source import SourceFile
from repro.ipcp.driver import analyze_program, prepare_program
from repro.ir.cfg import BasicBlock
from repro.ir.instructions import Assign, Const, Def, Jump, Phi, Use
from repro.ir.lowering import lower_module
from repro.ir.symbols import Variable, VarKind
from repro.ir.verify import VerificationError, verify_procedure, verify_program
from repro.oracle.golden import golden_programs
from repro.suite.programs import SUITE_PROGRAM_NAMES

SOURCE = (
    "      PROGRAM MAIN\n"
    "      N = 1\n"
    "      IF (N .GT. 0) THEN\n"
    "      N = N + 1\n"
    "      ELSE\n"
    "      N = N - 1\n"
    "      ENDIF\n"
    "      CALL S(N)\n"
    "      END\n"
    "      SUBROUTINE S(K)\n"
    "      A = K + 2\n"
    "      RETURN\n"
    "      END\n"
)


def lowered():
    return lower_module(parse_source(SOURCE), SourceFile("v.f", SOURCE))


def ssa_program():
    program = lowered()
    prepare_program(program, AnalysisConfig())
    return program


def find_phi(program):
    for procedure in program:
        for block in procedure.cfg.blocks:
            for phi in block.phis():
                return procedure, block, phi
    raise AssertionError("expected at least one phi in the test program")


class TestCleanPrograms:
    def test_lowered_program_verifies_pre_ssa(self):
        verify_program(lowered(), ssa=False)

    def test_ssa_program_verifies(self):
        verify_program(ssa_program(), ssa=True)

    def test_analyzed_program_verifies(self):
        result = analyze_program(lowered(), AnalysisConfig())
        verify_program(result.program, ssa=True)

    def test_complete_propagation_output_verifies(self):
        result = analyze_program(
            lowered(), AnalysisConfig.complete_propagation()
        )
        verify_program(result.program, ssa=True)


class TestCfgCorruption:
    def test_dangling_successor_edge_is_pinpointed(self):
        program = ssa_program()
        main = program.main
        orphan = BasicBlock("orphan")
        source_block = None
        for block in main.cfg.blocks:
            term = block.terminator
            if isinstance(term, Jump):
                term.target = orphan
                source_block = block
                break
        assert source_block is not None
        with pytest.raises(VerificationError) as exc:
            verify_program(program, ssa=True, stage="test corruption")
        message = str(exc.value)
        assert "after test corruption" in message
        assert main.name in message
        assert source_block.name in message
        assert "not in the CFG" in message

    def test_duplicate_block_detected(self):
        program = ssa_program()
        main = program.main
        main.cfg.blocks.append(main.cfg.blocks[-1])
        issues = verify_procedure(main, ssa=False)
        assert any("duplicate block" in issue for issue in issues)

    def test_unterminated_reachable_block_detected(self):
        program = ssa_program()
        main = program.main
        victim = None
        for block in main.cfg.reachable_blocks():
            if block.is_terminated:
                victim = block
                block.instructions.pop()
                break
        issues = verify_procedure(main, ssa=False)
        assert any(
            "no terminator" in issue and victim.name in issue
            for issue in issues
        )


class TestPhiCorruption:
    def test_missing_phi_operand_names_block_and_predecessor(self):
        program = ssa_program()
        procedure, block, phi = find_phi(program)
        removed = next(iter(phi.incoming))
        del phi.incoming[removed]
        with pytest.raises(VerificationError) as exc:
            verify_program(program, ssa=True)
        message = str(exc.value)
        assert procedure.name in message
        assert block.name in message
        assert removed.name in message
        assert "missing the incoming value" in message

    def test_extra_phi_operand_detected(self):
        program = ssa_program()
        procedure, block, phi = find_phi(program)
        stranger = BasicBlock("stranger")
        phi.incoming[stranger] = Const(0)
        issues = verify_procedure(procedure, ssa=False)
        assert any(
            "not a predecessor" in issue and "stranger" in issue
            for issue in issues
        )

    def test_phi_after_non_phi_detected(self):
        program = ssa_program()
        procedure, block, phi = find_phi(program)
        block.instructions.remove(phi)
        block.instructions.insert(1, phi)
        issues = verify_procedure(procedure, ssa=False)
        assert any("phi after a non-phi" in issue for issue in issues)


class TestSsaCorruption:
    def test_double_assignment_detected(self):
        program = ssa_program()
        main = program.main
        defs = []
        for block in main.cfg.blocks:
            for instruction in block.instructions:
                for definition in instruction.defs():
                    defs.append(definition)
        pairs = {}
        clobbered = None
        for definition in defs:
            key = definition.var
            if key in pairs:
                definition.version = pairs[key]
                clobbered = definition
                break
            pairs[key] = definition.version
        assert clobbered is not None, "need two defs of one variable"
        issues = verify_procedure(main, ssa=True)
        assert any("assigned more than once" in issue for issue in issues)

    def test_use_of_undefined_version_detected(self):
        program = ssa_program()
        main = program.main
        corrupted = None
        for block in main.cfg.reachable_blocks():
            for instruction in block.instructions:
                if isinstance(instruction, Phi):
                    continue
                for use in instruction.uses():
                    if use.version:
                        use.version = 999
                        corrupted = use
                        break
                if corrupted:
                    break
            if corrupted:
                break
        assert corrupted is not None
        issues = verify_procedure(main, ssa=True)
        assert any(
            "never defined" in issue and f"{corrupted.var.name}.999" in issue
            for issue in issues
        )

    def test_unversioned_def_detected_in_ssa_mode(self):
        program = ssa_program()
        main = program.main
        for block in main.cfg.blocks:
            for instruction in block.instructions:
                for definition in instruction.defs():
                    definition.version = None
                    issues = verify_procedure(main, ssa=True)
                    assert any(
                        "unversioned def" in issue for issue in issues
                    )
                    return
        raise AssertionError("no defs found")

    def test_use_before_def_in_same_block_detected(self):
        program = ssa_program()
        main = program.main
        for block in main.cfg.reachable_blocks():
            movable = None
            for position, instruction in enumerate(block.instructions):
                if isinstance(instruction, Phi) or instruction.is_terminator:
                    continue
                # The move lands just after the phis, so only a non-phi
                # definition ends up after its use. Which block comes
                # first depends on the set's order (object addresses).
                defining = {
                    (d.var, d.version)
                    for earlier in block.instructions[:position]
                    if not isinstance(earlier, Phi)
                    for d in earlier.defs()
                }
                if any(
                    (u.var, u.version) in defining for u in instruction.uses()
                ):
                    movable = instruction
                    break
            if movable is not None:
                insert_at = len(list(block.phis()))
                block.instructions.remove(movable)
                block.instructions.insert(insert_at, movable)
                issues = verify_procedure(main, ssa=True)
                assert any("before its definition" in issue for issue in issues)
                return
        raise AssertionError("no same-block def/use pair in this program")


class TestSymbolCorruption:
    def test_shadowed_symbol_table_entry_detected(self):
        program = ssa_program()
        sub = program.procedure("s")
        impostor = Variable("k", VarKind.LOCAL)
        sub.symbols.declare(impostor)
        issues = verify_procedure(sub, ssa=False)
        assert any(
            "does not resolve to itself" in issue and "'k'" in issue
            for issue in issues
        )

    def test_error_lists_every_issue(self):
        program = ssa_program()
        sub = program.procedure("s")
        sub.symbols.declare(Variable("k", VarKind.LOCAL))
        sub.symbols.declare(Variable("a", VarKind.LOCAL))
        with pytest.raises(VerificationError) as exc:
            verify_program(program, ssa=True)
        assert len(exc.value.issues) >= 2


#: MAIN never declares /S/, but its call to DOWN carries G through the
#: call's effects (the shape of the ``edge_recursion`` golden program).
HIDDEN_GLOBAL = (
    "      PROGRAM MAIN\n"
    "      CALL DOWN(3)\n"
    "      END\n"
    "      SUBROUTINE DOWN(K)\n"
    "      COMMON /S/ G\n"
    "      G = K\n"
    "      IF (K .GT. 0) CALL DOWN(K - 1)\n"
    "      RETURN\n"
    "      END\n"
)


class TestCallEffectGlobals:
    """A COMMON member reaches a procedure that does not declare it only
    through call effects; the verifier accepts exactly those globals."""

    @staticmethod
    def annotated():
        program = lower_module(
            parse_source(HIDDEN_GLOBAL), SourceFile("h.f", HIDDEN_GLOBAL)
        )
        prepare_program(program, AnalysisConfig())
        return program

    @staticmethod
    def insert(procedure, variable):
        """Put ``variable = 1`` at the head of the entry block."""
        procedure.cfg.entry.instructions.insert(
            0, Assign(Def(variable), Const(1))
        )

    def test_undeclared_common_member_verifies_after_ssa(self):
        program = self.annotated()
        main = program.main
        (member,) = program.scalar_globals()
        assert main.symbols.lookup(member.name) is None
        assert any(
            use.var is member
            for call in main.call_sites() for use in call.entry_uses
        )
        verify_program(program, ssa=True, stage="SSA construction")

    def test_call_effect_global_must_be_the_programs_own(self):
        program = self.annotated()
        self.insert(program.main, Variable("g", VarKind.GLOBAL))
        with pytest.raises(VerificationError) as exc:
            verify_program(program, ssa=False)
        assert "'g'" in str(exc.value)
        assert "does not resolve to itself" in str(exc.value)

    def test_another_procedures_local_still_fails(self):
        program = self.annotated()
        (formal,) = program.procedure("down").formals
        self.insert(program.main, formal)
        with pytest.raises(VerificationError) as exc:
            verify_program(program, ssa=False)
        assert "'k'" in str(exc.value)

    @pytest.mark.parametrize(
        "name",
        [f"suite_{name}" for name in SUITE_PROGRAM_NAMES] + ["edge_recursion"],
    )
    def test_verify_ir_cli_accepts_golden(self, name, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / f"{name}.f"
        path.write_text(golden_programs()[name].source)
        assert main(["analyze", str(path), "--verify-ir"]) == 0
