"""Whole-pipeline properties over randomly generated programs.

The central invariant is *soundness*: every ``(name, value)`` pair the
analyzer places in ``CONSTANTS(p)`` must hold at every run-time
invocation of ``p`` — checked by executing the program with the
reference interpreter and comparing entry snapshots. This exercises the
entire stack at once: parser, lowering, MOD/REF, SSA, value numbering,
return jump functions, forward jump functions, and the solver.

Secondary invariants: determinism, the jump-function power hierarchy
(more powerful kinds never substitute fewer references), and
configuration monotonicity (removing MOD or return information never
loses a constant in live code).
"""

import pytest
from hypothesis import (
    HealthCheck,
    assume,
    example,
    given,
    settings,
    strategies as st,
)

from repro.config import AnalysisConfig, JumpFunctionKind
from repro.frontend.parser import parse_source
from repro.frontend.source import SourceFile
from repro.ipcp.driver import analyze_program, analyze_source
from repro.ir.interp import run_program
from repro.ir.lowering import lower_module
from repro.suite.generator import GeneratorConfig, generate_program

#: Small generator shape keeps each case fast while still covering
#: branches, loops, reads, call chains, and globals.
FAST = GeneratorConfig(procedures=4, max_statements_per_procedure=8)

KINDS = list(JumpFunctionKind)

CONFIGS = [
    AnalysisConfig(),
    AnalysisConfig(use_mod=False),
    AnalysisConfig(use_return_functions=False),
    AnalysisConfig.complete_propagation(),
    AnalysisConfig(jump_function=JumpFunctionKind.PASS_THROUGH),
    AnalysisConfig(jump_function=JumpFunctionKind.LITERAL),
]


def fresh_program(source):
    return lower_module(parse_source(source), SourceFile("gen.f", source))


def execute(source, inputs):
    """Run a generated program; discard the (rare) cases whose nested
    loop/call structure multiplies into astronomically long — but finite
    — executions (the generator guarantees termination, not speed)."""
    from repro.ir.interp import InterpreterError

    try:
        return run_program(fresh_program(source), inputs=inputs, fuel=3_000_000)
    except InterpreterError:
        assume(False)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    inputs=st.lists(st.integers(-9, 9), min_size=0, max_size=20),
)
def test_soundness_of_every_configuration(seed, inputs):
    """CONSTANTS claims hold at runtime, under every configuration."""
    source = generate_program(seed, FAST)
    trace = execute(source, inputs)
    for config in CONFIGS:
        result = analyze_program(fresh_program(source), config)
        for procedure in result.program:
            claimed = result.constants.constants_of(procedure.name)
            if not claimed:
                continue
            violations = trace.constant_violations(procedure.name, claimed)
            assert violations == [], (config.describe(), violations)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_determinism(seed):
    """Identical source analyzes to identical counts and CONSTANTS."""
    source = generate_program(seed, FAST)
    first = analyze_source(source)
    second = analyze_source(source)
    assert first.substituted_constants == second.substituted_constants
    assert first.constants.total_pairs() == second.constants.total_pairs()


def _reference(procedure_name, use):
    """A source reference: procedure, line, column and variable."""
    return (procedure_name, use.location.line, use.location.column,
            use.var.name)


def assert_no_live_constant_lost(weaker, stronger, context):
    """Every reference ``weaker`` substitutes, ``stronger`` substitutes
    with the same value, unless ``stronger``'s SCCP proves the
    reference's block unreachable. Comparing counts is too strong: more
    information can prove code dead, and references in dead code are
    not substituted (seed 3493: with return functions an IF's ELSE arm
    is dead, so two references in it stop counting while another
    gains; seed 4615 loses three the same way, and at seed 4954 the
    intraprocedural run substitutes two references the interprocedural
    run proves dead)."""
    found = {
        _reference(site.procedure_name, site.use): site.value
        for site in stronger.substitution.sites
    }
    dead = {
        _reference(name, use)
        for name, sccp in stronger.substitution.sccp_results.items()
        for block in sccp.dead_blocks()
        for instruction in block.instructions
        for use in instruction.uses()
        if use.from_source
    }
    for site in weaker.substitution.sites:
        reference = _reference(site.procedure_name, site.use)
        assert found.get(reference) == site.value or reference in dead, (
            context, reference, site.value, found.get(reference)
        )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
@example(seed=5062)
@example(seed=8006)
def test_jump_function_hierarchy(seed):
    """§3.1: more powerful jump functions never lose a constant in live
    code (seed 8006: literal jump functions substitute 6 references,
    the stronger kinds 3, because they prove the block holding the
    other 3 dead)."""
    source = generate_program(seed, FAST)
    results = [
        analyze_source(source, AnalysisConfig(jump_function=kind))
        for kind in KINDS
    ]
    for kind, weaker, stronger in zip(KINDS, results, results[1:]):
        assert_no_live_constant_lost(weaker, stronger, (seed, kind))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
@example(seed=3493)
@example(seed=4615)
@example(seed=4954)
def test_information_monotonicity(seed):
    """Removing MOD or return-function information never loses a
    constant in live code."""
    source = generate_program(seed, FAST)
    full = analyze_source(source)
    for weaker in (
        AnalysisConfig(use_mod=False),
        AnalysisConfig(use_return_functions=False),
        AnalysisConfig.intraprocedural_only(),
    ):
        assert_no_live_constant_lost(
            analyze_source(source, weaker), full, (seed, weaker.describe())
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_complete_at_least_plain_on_live_code(seed):
    """Complete propagation never loses constants *in live code*. It can
    legitimately report fewer total substitutions than plain propagation
    when DCE orphans a whole procedure: the plain run substitutes inside
    the never-invoked body (vacuously sound), the complete run deletes
    its only call site — so the comparison is restricted to procedures
    still reachable from MAIN after DCE."""
    source = generate_program(seed, FAST)
    plain = analyze_source(source)
    complete = analyze_source(source, AnalysisConfig.complete_propagation())
    live = {p.name for p in complete.callgraph.reachable_from_main()}
    plain_live = sum(
        count
        for name, count in plain.substitution.per_procedure.items()
        if name in live
    )
    complete_live = sum(
        count
        for name, count in complete.substitution.per_procedure.items()
        if name in live
    )
    assert complete_live >= plain_live


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    inputs=st.lists(st.integers(-9, 9), min_size=0, max_size=10),
)
def test_transformed_source_preserves_behaviour(seed, inputs):
    """Substituting constants into the source must not change what the
    program prints."""
    source = generate_program(seed, FAST)
    original = execute(source, inputs)
    result = analyze_source(source, filename="gen.f")
    transformed = result.transformed_source()
    after = run_program(
        lower_module(
            parse_source(transformed, "gen.f"), SourceFile("gen.f", transformed)
        ),
        inputs=inputs,
        fuel=10_000_000,
    )
    assert after.output == original.output


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    inputs=st.lists(st.integers(-9, 9), min_size=0, max_size=10),
)
def test_complete_propagation_preserves_behaviour(seed, inputs):
    """Branch folding + dead-code removal under complete propagation,
    checked end to end: destruct the mutated SSA program and execute."""
    from repro.analysis.ssa_out import destruct_program

    source = generate_program(seed, FAST)
    original = execute(source, inputs)
    program = fresh_program(source)
    analyze_program(program, AnalysisConfig.complete_propagation())
    destruct_program(program)
    after = run_program(program, inputs=inputs, fuel=3_000_000)
    assert after.output == original.output


#: Characters chosen to break tokens in interesting ways: operators,
#: brackets, characters no MiniFortran token contains, and quotes (which
#: open unterminated strings).
MUTATION_CHARS = "()*+-=,.$%&!\"'#@;:?^~|<>"


def mutate(source, mutations):
    """Apply (position-fraction, char) character substitutions."""
    text = list(source)
    for fraction, char in mutations:
        if not text:
            break
        text[int(fraction * (len(text) - 1))] = char
    return "".join(text)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    mutations=st.lists(
        st.tuples(
            st.floats(0.0, 1.0, allow_nan=False),
            st.sampled_from(MUTATION_CHARS),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_resilient_frontend_survives_token_mutation(seed, mutations):
    """Fuzz invariant: randomly corrupted source either analyzes or is
    rejected with located diagnostics — never an AttributeError,
    RecursionError, IndexError, or hang out of the pipeline."""
    from repro.ipcp.driver import analyze_source_resilient

    source = mutate(generate_program(seed, FAST), mutations)
    result, diagnostics = analyze_source_resilient(source)
    for diagnostic in diagnostics:
        assert diagnostic.location is None or diagnostic.location.line >= 0
    if result is None:
        assert diagnostics.has_errors
    else:
        result.constants.format_report()  # reportable without crashing


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    solver_fuel=st.integers(0, 40),
    poly_terms=st.integers(1, 3),
)
def test_degraded_runs_find_subset_of_full_constants(seed, solver_fuel, poly_terms):
    """Graceful degradation never *invents* constants: every
    (procedure, parameter) -> value pair a budget-starved run reports is
    reported identically by the unrestricted run (it may only rise to ⊤,
    mirroring ``test_constant_sets_nest_by_kind``)."""
    from repro.config import AnalysisBudget

    source = generate_program(seed, FAST)
    full = analyze_source(source)
    starved = analyze_source(
        source,
        AnalysisConfig(
            budget=AnalysisBudget(
                solver_visits=solver_fuel,
                polynomial_terms=poly_terms,
                polynomial_degree=1,
            )
        ),
    )
    full_pairs = {}
    for procedure in full.program:
        for var, value in full.constants.constants_of(procedure.name).items():
            full_pairs[(procedure.name, var.name)] = value
    for procedure in starved.program:
        for var, value in starved.constants.constants_of(procedure.name).items():
            key = (procedure.name, var.name)
            if key in full_pairs:
                assert full_pairs[key] == value, (seed, key)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_verifier_accepts_every_pipeline_stage(seed):
    """The structural verifier never flags a program the pipeline
    itself produced — before SSA, after SSA, and after complete
    propagation's DCE rounds."""
    from repro.ir.verify import verify_program

    source = generate_program(seed, FAST)
    program = fresh_program(source)
    verify_program(program, ssa=False, stage="lowering")
    result = analyze_program(
        program, AnalysisConfig.complete_propagation()
    )
    verify_program(result.program, ssa=True, stage="complete propagation")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_constant_sets_nest_by_kind(seed):
    """§3.1's set-inclusion claim, stronger than count comparison: every
    (procedure, parameter, value) pair a weaker jump function proves is
    preserved by every stronger kind (it may only rise to ⊤ when a
    never-taken optimistic edge is involved — same value, never a
    different one)."""
    source = generate_program(seed, FAST)
    results = {}
    for kind in KINDS:
        result = analyze_program(
            fresh_program(source), AnalysisConfig(jump_function=kind)
        )
        pairs = {}
        for procedure in result.program:
            for var, value in result.constants.constants_of(procedure.name).items():
                pairs[(procedure.name, var.name)] = value
        results[kind] = pairs
    for weaker, stronger in zip(KINDS, KINDS[1:]):
        for key, value in results[weaker].items():
            if key in results[stronger]:
                assert results[stronger][key] == value, (seed, weaker, key)
