"""Codec round-trips: summaries must decode into structurally equal
objects against an isomorphic (freshly re-lowered) program.

The on-disk cache is the codec's only wire, so the round-trips below
that matter for reuse go through a real :class:`SummaryCache` entry
(canonical JSON text) rather than stopping at the in-memory payload."""

from dataclasses import replace

import pytest

from repro.analysis.expr import ConstExpr, EntryExpr, OpExpr, UnknownExpr
from repro.config import AnalysisConfig, JumpFunctionKind
from repro.engine import summaries
from repro.engine.cache import SummaryCache
from repro.ipcp.constants import ConstantsResult
from repro.ipcp.driver import analyze_source, prepare_program
from repro.ipcp.jump_functions import build_forward_jump_functions
from repro.ipcp.resilience import ResilienceReport
from repro.ipcp.return_functions import build_return_functions
from repro.ipcp.solver import entry_domain
from repro.ipcp.substitution import SubstitutionReport
from repro.lattice import BOTTOM, TOP, const
from repro.poly.polynomial import Polynomial
from repro.suite.programs import SUITE_PROGRAM_NAMES, program_source

from tests.conftest import lower

SOURCE = (
    "      PROGRAM MAIN\n      COMMON /C/ G\n      G = 4\n"
    "      CALL S(3, 10)\n      X = F(2)\n      END\n"
    "      SUBROUTINE S(A, B)\n      COMMON /C/ G\n"
    "      A = 2 * B + G\n      END\n"
    "      INTEGER FUNCTION F(N)\n      F = N * N + 1\n      END\n"
)


#: One call site whose actuals exercise every forward-function payload:
#: a pass-through formal, a polynomial, a local (bottom) and a literal.
CALL_KINDS = (
    "      PROGRAM MAIN\n      COMMON /C/ G\n      G = 4\n"
    "      CALL S(3, 10)\n      END\n"
    "      SUBROUTINE S(A, B)\n      COMMON /C/ G\n      K = A + 1\n"
    "      CALL T(A, 2 * B + G, K, 7)\n      END\n"
    "      SUBROUTINE T(X, Y, Z, W)\n      COMMON /C/ G\n"
    "      V = X + Y + Z + W + G\n      END\n"
)

#: Exact-integer edge cases: small magnitudes, the 32- and 64-bit
#: limits, the first integer a float cannot hold, and huge ones
#: (polynomial coefficients and VAL constants are unbounded ints).
INTEGERS = {
    "0": 0, "1": 1, "-1": -1, "63": 63, "64": 64, "-64": -64, "-65": -65,
    "2^31-1": 2**31 - 1, "-2^31": -(2**31), "2^53+1": 2**53 + 1,
    "2^63": 2**63, "-2^63-1": -(2**63) - 1,
    "2^200+1": 2**200 + 1, "-(2^200+1)": -(2**200 + 1),
}


def built(text=SOURCE, config=None):
    program = lower(text)
    config = config or AnalysisConfig()
    callgraph, modref = prepare_program(program, config)
    return_map = build_return_functions(program, callgraph, modref)
    table = build_forward_jump_functions(
        program, callgraph, config.jump_function, return_map
    )
    return program, callgraph, return_map, table


def stored(data, tmp_path):
    """``data`` as a later run reads it back from the on-disk cache."""
    cache = SummaryCache(str(tmp_path / "cache"))
    cache.put("test", "entry", {"data": data})
    return cache.get("test", "entry")["data"]


class TestVarrefs:
    def test_formal_roundtrip(self):
        program, *_ = built()
        s = program.procedure("s")
        ref = summaries.encode_varref(s.formals[1], s)
        assert summaries.resolve_varref(ref, program) is s.formals[1]

    def test_global_roundtrip(self):
        program, *_ = built()
        g = program.scalar_globals()[0]
        ref = summaries.encode_varref(g, program.procedure("s"))
        assert summaries.resolve_varref(ref, program) is g

    def test_result_roundtrip(self):
        program, *_ = built()
        f = program.procedure("f")
        ref = summaries.encode_varref(f.result_var, f)
        assert summaries.resolve_varref(ref, program) is f.result_var

    def test_local_rejected(self):
        program, *_ = built()
        main = program.procedure("main")
        local = main.symbols.lookup("x")
        assert local is not None and not local.is_global
        with pytest.raises(ValueError):
            summaries.encode_varref(local, main)

    @pytest.mark.parametrize(
        "ref",
        [["x", "s", 0], ["g", "c", "nosuch"], ["r", "s"]],
        ids=["unknown-tag", "unknown-global", "no-result-variable"],
    )
    def test_unresolvable_reference_rejected(self, ref):
        program, *_ = built()
        with pytest.raises(ValueError):
            summaries.resolve_varref(ref, program)

    def test_roundtrip_across_fresh_lowering(self):
        program, *_ = built()
        s = program.procedure("s")
        ref = summaries.encode_varref(s.formals[0], s)
        other = lower(SOURCE)
        resolved = summaries.resolve_varref(ref, other)
        assert resolved is other.procedure("s").formals[0]
        assert resolved is not s.formals[0]


def expression_shapes(program):
    """Each shape with the procedure whose references it encodes."""
    s = program.procedure("s")
    f = program.procedure("f")
    b = s.formals[1]
    g = program.scalar_globals()[0]
    return {
        "constant": (ConstExpr(7), s),
        "huge-constant": (ConstExpr(-(2**200 + 1)), s),
        "formal": (EntryExpr(b), s),
        "global": (EntryExpr(g), s),
        "result": (EntryExpr(f.result_var), f),
        "nested": (
            OpExpr("+", (OpExpr("*", (ConstExpr(2), EntryExpr(b))),
                         EntryExpr(g))),
            s,
        ),
    }


class TestExprCodec:
    @pytest.mark.parametrize(
        "shape",
        ["constant", "huge-constant", "formal", "global", "result", "nested"],
    )
    def test_roundtrip_through_cache(self, shape, tmp_path):
        program, *_ = built()
        expr, owner = expression_shapes(program)[shape]
        data = stored(summaries.encode_expr(expr, owner), tmp_path)
        back = summaries.decode_expr(data, program)
        assert back == expr
        assert back.support() == expr.support()

    def test_unknown_expression_refused(self):
        program, *_ = built()
        with pytest.raises(ValueError):
            summaries.encode_expr(UnknownExpr(), program.procedure("s"))

    def test_unknown_tag_rejected(self):
        program, *_ = built()
        with pytest.raises(ValueError):
            summaries.decode_expr(["u", 1], program)


class TestPolynomialCodec:
    @pytest.mark.parametrize("name", [n for n in INTEGERS if INTEGERS[n]])
    def test_coefficient_exact_through_cache(self, name, tmp_path):
        coefficient = INTEGERS[name]
        program, *_ = built()
        s = program.procedure("s")
        b = Polynomial.variable(s.formals[1])
        g = Polynomial.variable(program.scalar_globals()[0])
        poly = Polynomial.constant(coefficient) * b * g * g + (
            Polynomial.constant(coefficient)
        )
        data = stored(summaries.encode_polynomial(poly, s), tmp_path)
        back = summaries.decode_polynomial(data, program)
        assert back == poly
        assert all(type(c) is int for c in back.terms.values())

    def test_zero_polynomial(self):
        program, *_ = built()
        data = summaries.encode_polynomial(Polynomial(), program.procedure("s"))
        assert data == []
        assert summaries.decode_polynomial(data, program).is_zero()

    def test_encoding_independent_of_term_order(self):
        program, *_ = built()
        s = program.procedure("s")
        a, b = (Polynomial.variable(v) for v in s.formals)
        g = Polynomial.variable(program.scalar_globals()[0])
        one = a * b + g + Polynomial.constant(3)
        other = Polynomial.constant(3) + g + b * a
        assert summaries.encode_polynomial(one, s) == (
            summaries.encode_polynomial(other, s)
        )


class TestReturnFunctionCodec:
    def test_roundtrip_structural_equality(self):
        program, _, return_map, _ = built()
        for fn in return_map:
            data = summaries.encode_return_function(fn, program)
            back = summaries.decode_return_function(data, program)
            assert back.procedure_name == fn.procedure_name
            assert back.target is fn.target
            assert back.expr == fn.expr
            assert back.polynomial == fn.polynomial

    def test_roundtrip_is_json_safe(self):
        import json

        program, _, return_map, _ = built()
        for fn in return_map:
            data = summaries.encode_return_function(fn, program)
            rehydrated = json.loads(json.dumps(data))
            back = summaries.decode_return_function(rehydrated, program)
            assert back.polynomial == fn.polynomial

    def test_encoding_is_deterministic(self):
        program, _, return_map, _ = built()
        a = lower(SOURCE)
        config = AnalysisConfig()
        cg, mr = prepare_program(a, config)
        other_map = build_return_functions(a, cg, mr)
        ours = sorted(
            str(summaries.encode_return_function(fn, program))
            for fn in return_map
        )
        theirs = sorted(
            str(summaries.encode_return_function(fn, a)) for fn in other_map
        )
        assert ours == theirs


class TestForwardFunctionCodec:
    def test_roundtrip(self):
        program, callgraph, _, table = built()
        for procedure in program:
            calls = procedure.call_sites()
            for encoded in summaries.encode_forward_functions_of(
                table, procedure, program
            ):
                fn = summaries.decode_forward_function(encoded, program, calls)
                original = table.lookup(fn.call, fn.target)
                assert original is not None
                assert fn.kind == original.kind
                assert fn.constant == original.constant
                assert fn.source_var is original.source_var
                assert fn.polynomial == original.polynomial

    @pytest.mark.parametrize("kind", list(JumpFunctionKind),
                             ids=lambda kind: kind.value)
    def test_every_kind_through_cache(self, kind, tmp_path):
        config = replace(AnalysisConfig(), jump_function=kind)
        program, _, _, table = built(CALL_KINDS, config)
        caller = program.procedure("s")
        data = stored(
            summaries.encode_forward_functions_of(table, caller, program),
            tmp_path,
        )
        calls = caller.call_sites()
        originals = table.for_call(calls[0])
        decoded = [
            summaries.decode_forward_function(d, program, calls) for d in data
        ]
        assert len(decoded) == len(originals) == 5
        for fn, original in zip(decoded, originals):
            assert fn.kind is kind
            assert fn.call is original.call
            assert fn.target is original.target
            assert fn.constant == original.constant
            assert fn.source_var is original.source_var
            assert fn.polynomial == original.polynomial
            assert fn.is_bottom == original.is_bottom


CELLS = {
    **{f"const({name})": const(n) for name, n in INTEGERS.items()},
    "top": TOP,
    "bottom": BOTTOM,
}


class TestConstantsCodec:
    def test_roundtrip(self):
        result = analyze_source(SOURCE)
        payload = summaries.encode_constants(result.constants, result.program)
        back = summaries.decode_constants(payload, result.program)
        assert back.format_report() == result.constants.format_report()
        for procedure in result.program:
            assert back.val_set(procedure.name) == result.constants.val_set(
                procedure.name
            )

    @pytest.mark.parametrize("cell", list(CELLS))
    def test_cell_exact_through_cache(self, cell, tmp_path):
        program, *_ = built()
        value = CELLS[cell]
        val = {
            procedure.name: {
                var: value for var in entry_domain(procedure, program)
            }
            for procedure in program
        }
        data = stored(
            summaries.encode_constants(ConstantsResult(val), program), tmp_path
        )
        back = summaries.decode_constants(data, program)
        for procedure in program:
            cells = back.val_set(procedure.name)
            assert cells == val[procedure.name]
            if value.is_constant:
                assert all(type(c.value) is int for c in cells.values())

    def test_missing_procedure_decodes_empty(self):
        program, *_ = built()
        back = summaries.decode_constants({}, program)
        assert all(back.val_set(p.name) == {} for p in program)


class TestSubstitutionCodec:
    def test_roundtrip(self):
        result = analyze_source(SOURCE)
        rebuilt = SubstitutionReport()
        for procedure in result.program:
            data = summaries.encode_substitution_of(
                result.substitution, procedure.name
            )
            summaries.decode_substitution_into(data, procedure, rebuilt)
        assert rebuilt.per_procedure == result.substitution.per_procedure
        assert rebuilt.total == result.substitution.total
        original = result.transformed_source()
        result.substitution = rebuilt
        assert result.transformed_source() == original

    def test_first_site_skips_earlier_sites(self):
        result = analyze_source(SOURCE)
        report = result.substitution
        first = next(
            i for i, site in enumerate(report.sites)
            if site.procedure_name == "s"
        )
        whole = summaries.encode_substitution_of(report, "s")
        tail = summaries.encode_substitution_of(report, "s", first + 1)
        assert tail["n"] == whole["n"] == 2
        assert tail["sites"] == whole["sites"][1:]

    def test_unknown_variable_rejected(self):
        result = analyze_source(SOURCE)
        data = {"n": 1, "sites": [["nosuch", 0, ["x.f", 1, 7], 3]]}
        with pytest.raises(ValueError, match="nosuch"):
            summaries.decode_substitution_into(
                data, result.program.procedure("s"), SubstitutionReport()
            )

    def test_non_ascii_filename_through_cache(self, tmp_path):
        filename = "naïve Σ.f"
        result = analyze_source(SOURCE, filename=filename)
        rebuilt = SubstitutionReport()
        for procedure in result.program:
            data = stored(
                summaries.encode_substitution_of(
                    result.substitution, procedure.name
                ),
                tmp_path / procedure.name,
            )
            summaries.decode_substitution_into(data, procedure, rebuilt)
        assert [s.location for s in rebuilt.sites] == [
            s.location for s in result.substitution.sites
        ]
        assert {s.location.filename for s in rebuilt.sites} == {filename}


class TestDemotionCodec:
    def test_roundtrip_through_cache(self, tmp_path):
        original = ResilienceReport()
        original.record("jump_function", "s@0", "polynomial", "bottom",
                        "budget: 12 > 8 terms")
        original.record("substitution", "f", "sccp", "bottom", "naïve Σ")
        data = stored(summaries.encode_demotions(original), tmp_path)
        rebuilt = ResilienceReport()
        summaries.apply_demotions(data, rebuilt)
        assert rebuilt.demotions == original.demotions

    def test_slice_encodes_only_its_demotions(self):
        report = ResilienceReport()
        report.record("solver", "main", "worklist", "bottom", "visits")
        report.record("dce", "s", "complete", "single", "rounds")
        assert summaries.encode_demotions(report.demotions[1:]) == [
            ["dce", "s", "complete", "single", "rounds"]
        ]

    def test_apply_without_report_is_a_noop(self):
        summaries.apply_demotions([["dce", "s", "a", "b", "c"]], None)


@pytest.mark.parametrize("name", SUITE_PROGRAM_NAMES)
class TestSuiteProgramsAcrossRuns:
    """What one run stores, a later run decodes against its own, freshly
    lowered program: it must equal what that run would have built."""

    def test_return_functions(self, name, tmp_path):
        ours, _, our_map, _ = built(program_source(name))
        theirs, _, their_map, _ = built(program_source(name))
        for procedure in ours:
            data = stored(
                summaries.encode_return_functions_of(
                    our_map, procedure.name, ours
                ),
                tmp_path / procedure.name,
            )
            decoded = [
                summaries.decode_return_function(d, theirs) for d in data
            ]
            expected = their_map.functions_of(procedure.name)
            assert [fn.target for fn in decoded] == [
                fn.target for fn in expected
            ]
            assert [(fn.expr, fn.polynomial) for fn in decoded] == [
                (fn.expr, fn.polynomial) for fn in expected
            ]

    def test_forward_functions(self, name, tmp_path):
        ours, _, _, our_table = built(program_source(name))
        theirs, _, _, their_table = built(program_source(name))
        for procedure in ours:
            data = stored(
                summaries.encode_forward_functions_of(
                    our_table, procedure, ours
                ),
                tmp_path / procedure.name,
            )
            calls = theirs.procedure(procedure.name).call_sites()
            decoded = [
                summaries.decode_forward_function(d, theirs, calls)
                for d in data
            ]
            expected = [
                fn
                for call in theirs.procedure(procedure.name).call_sites()
                for fn in their_table.for_call(call)
            ]
            assert len(decoded) == len(expected)
            for fn, original in zip(decoded, expected):
                assert fn.call is original.call
                assert fn.target is original.target
                assert fn.kind == original.kind
                assert fn.constant == original.constant
                assert fn.source_var is original.source_var
                assert fn.polynomial == original.polynomial

    def test_constants_and_substitution(self, name, tmp_path):
        ours = analyze_source(program_source(name))
        theirs = analyze_source(program_source(name))
        constants = summaries.decode_constants(
            stored(
                summaries.encode_constants(ours.constants, ours.program),
                tmp_path / "constants",
            ),
            theirs.program,
        )
        assert constants.format_report() == theirs.constants.format_report()
        rebuilt = SubstitutionReport()
        for procedure in theirs.program:
            data = stored(
                summaries.encode_substitution_of(
                    ours.substitution, procedure.name
                ),
                tmp_path / procedure.name,
            )
            summaries.decode_substitution_into(data, procedure, rebuilt)
        assert rebuilt.per_procedure == theirs.substitution.per_procedure
        expected = theirs.transformed_source()
        theirs.substitution = rebuilt
        assert theirs.transformed_source() == expected
