"""Lowerings kept across requests (:func:`repro.ir.lowering.lower_module`
with parse memo entries, :meth:`repro.engine.core.Engine.close` with
``keep``).

A single edit after a cold run never reaches a kept lowering, because
the cold run converts every procedure. These tests edit one path two
or more times through one engine, so the later edits reuse what the
earlier ones left unconverted, and require each time what a cold run
gives: the same output, the same summary index (IR digests, keys and
exports, which hash the encoded return summaries), the same
diagnostics; and that an edit lowers exactly the units whose chunk
changed plus those the previous run converted.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import pipeline
from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.frontend.unit_memo import split_chunks
from repro.ipcp.driver import analyze_file
from repro.ir.printer import format_program
from repro.obs import metrics
from repro.suite.generator import GeneratorConfig, generate_program

from tests.engine.test_incremental import apply_edit, rebuilt

CONFIG = AnalysisConfig()
GEN_CONFIG = GeneratorConfig(procedures=5)
COUNTERS = ("lower_units_lowered", "lower_units_reused")


def counted(before: dict) -> dict:
    delta = metrics.delta_since(before)["counters"]
    return {name: delta.get(name, 0) for name in COUNTERS}


def shown(result) -> str:
    """Everything a run shows that does not read its IR (reading it
    converts every procedure, which leaves nothing to keep)."""
    return "\n".join([
        result.constants.format_report(),
        str(result.substituted_constants),
        repr(sorted(result.substitution.per_procedure.items())),
        result.transformed_source(),
    ])


@dataclasses.dataclass
class Run:
    shown: str
    index: dict
    counters: dict
    converted: set
    result: object


def engine_run(engine, path, keep: bool = True) -> Run:
    """One analysis of ``path`` through ``engine``; with ``keep`` the
    engine then keeps what it left unconverted, as after a request."""
    before = metrics.snapshot()
    result = analyze_file(str(path), CONFIG, engine=engine)
    run = Run(shown(result), engine.summary_index(), counted(before),
              rebuilt(engine), result)
    if keep:
        engine.close(keep=True)
    return run


def cold_index(tmp_path, path, tag: str) -> dict:
    """The summary index of a cold cached run of ``path``."""
    with Engine(cache_dir=str(tmp_path / f"cold-{tag}")) as engine:
        analyze_file(str(path), CONFIG, engine=engine)
        return engine.summary_index()


def lowered_again(before: str, after: str, converted: set) -> int:
    """Units of ``after`` whose chunk ``before`` lacks, plus the units
    whose chunk it kept and the previous run converted."""
    from repro.frontend.parser import parse_source

    old = set(split_chunks(before))
    count = 0
    for chunk in split_chunks(after):
        units = parse_source(chunk[1], "c.f").units if chunk[1].strip() else []
        for unit in units:
            count += chunk not in old or unit.name in converted
    return count


def variable_ranks(result) -> list:
    """Every variable of the program ``result`` analyzed (a global by
    its block, any other by its procedure), in the order analyses sort
    them; no two share an order. Reads the program as the run left it
    (``result.program`` would complete it)."""
    owners = {}
    for procedure in result.prepared.program:
        named = procedure.symbols.variables()
        defined = (definition.var
                   for instruction in procedure.cfg.instructions()
                   for definition in instruction.defs())
        for variable in (*named, *defined):
            owners[variable] = variable.common_block or procedure.name
    assert len({variable.order for variable in owners}) == len(owners)
    return [(owners[variable], variable.name)
            for variable in sorted(owners, key=lambda v: v.order)]


@pytest.mark.parametrize("seed", range(54))
def test_successive_edits_through_one_engine_match_cold(seed, tmp_path):
    """Each seeded edit script, then two more seeded edits of the same
    path, through one engine: every edit's output and summary index
    equal a cold run's, and it lowers the changed chunks plus the
    previous run's converted units, reusing every other lowering."""
    texts = [generate_program(seed, GEN_CONFIG)]
    for step in range(3):
        texts.append(apply_edit(texts[-1], seed + 1000 * step)[0])
    path = tmp_path / "prog.f"
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    previous = converted = None
    for step, text in enumerate(texts):
        path.write_text(text)
        last = step == len(texts) - 1
        warm = engine_run(engine, path, keep=not last)
        cold = analyze_file(str(path), CONFIG)
        assert warm.shown == shown(cold), (seed, step)
        assert variable_ranks(warm.result) == variable_ranks(cold), (
            seed, step)
        assert warm.index == cold_index(tmp_path, path, str(step)), (
            seed, step)
        units = len(cold.program)
        if previous is not None:
            expected = lowered_again(previous, text, converted)
            assert warm.counters == {
                "lower_units_lowered": expected,
                "lower_units_reused": units - expected,
            }, (seed, step, warm.counters, converted)
        previous, converted = text, warm.converted
    # The last run's program, completed, is the cold run's.
    assert format_program(warm.result.program) == format_program(cold.program)
    engine.close()


# -- what invalidates a kept lowering ----------------------------------------

MATRIX_BASE = """\
      PROGRAM MAIN
      COMMON /G/ A, B
      A = 1
      CALL S(A, 2)
      K = F(3)
      CALL T
      PRINT *, B, K
      END

      SUBROUTINE S(X, Y)
      COMMON /G/ A, B
      COMMON /H/ C, W
      B = X + Y + A
      C = B
      RETURN
      END

      INTEGER FUNCTION F(N)
      F = N + 4
      RETURN
      END

      SUBROUTINE T
      COMMON /H/ C, W
      L = 7
      RETURN
      END

      SUBROUTINE U
      COMMON /G/ A, B
      A = B + 1
      RETURN
      END

      BLOCK DATA INIT
      COMMON /G/ A, B
      DATA B /5/
      END
"""
#: An edit of U alone: U is called by no unit, so only U is rebuilt
#: and MAIN, S, F and T stay unconverted.
FIRST_EDIT = ("A = B + 1", "A = B + 2")

MATRIX = [
    # (case, replacements in units other than MAIN, the error expected
    # or None, whether the lowering context changes)
    ("common-member-renamed",
     [("COMMON /H/ C, W\n", "COMMON /H/ C, V\n")] * 2, None, True),
    ("common-member-reshaped",
     [("COMMON /H/ C, W\n", "COMMON /H/ C, W(4)\n")] * 2, None, True),
    ("subroutine-turned-function",
     [("      SUBROUTINE T\n", "      INTEGER FUNCTION T\n"),
      ("      L = 7\n", "      L = 7\n      T = L\n")],
     "function 't' called as a subroutine", True),
    ("block-data-value", [("DATA B /5/", "DATA B /6/")], None, True),
    ("callee-formal-count",
     [("SUBROUTINE S(X, Y)", "SUBROUTINE S(X, Y, Z)")],
     "passes 2 arguments, expected 3", False),
]


def outcome_fields(outcome) -> tuple:
    return (outcome.status, outcome.constants_report, outcome.total_pairs,
            outcome.substituted, outcome.per_procedure, outcome.diagnostics,
            outcome.error, outcome.error_codes, outcome.degraded)


def request_run(engine, path, **fields):
    before = metrics.snapshot()
    if path is not None:
        fields["path"] = str(path)
    outcome = pipeline.run(pipeline.Request(CONFIG, **fields), engine)
    return outcome, counted(before)


def assert_like_cold(engine, path, **fields):
    """A request through ``engine`` answers as one with no engine."""
    warm, counters = request_run(engine, path, **fields)
    cold, _ = request_run(None, path, **fields)
    assert outcome_fields(warm) == outcome_fields(cold)
    return warm, counters


def replace_all(text: str, replacements) -> str:
    for old, new in replacements:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


def test_a_handed_off_program_cannot_be_completed(tmp_path):
    """After ``close(keep=True)`` the procedures the run left
    unconverted belong to the engine: reading the run's program raises
    instead of converting them in place, and the next edit still
    reuses them and answers, lowers and orders as a cold run does."""
    path = tmp_path / "m.f"
    path.write_text(MATRIX_BASE)
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    engine_run(engine, path)
    path.write_text(MATRIX_BASE.replace(*FIRST_EDIT))
    handed = engine_run(engine, path)
    assert handed.converted == {"u"}
    with pytest.raises(RuntimeError, match="handed to its engine"):
        handed.result.program
    prepared = handed.result.prepared
    with pytest.raises(RuntimeError, match="handed to its engine"):
        prepared.convert(prepared.program.procedure("main"))
    path.write_text(MATRIX_BASE.replace("A = B + 1", "A = B + 3"))
    warm = engine_run(engine, path, keep=False)
    cold = analyze_file(str(path), CONFIG)
    assert warm.shown == shown(cold)
    assert variable_ranks(warm.result) == variable_ranks(cold)
    assert warm.index == cold_index(tmp_path, path, "after")
    assert warm.counters == {"lower_units_lowered": 1,
                             "lower_units_reused": len(cold.program) - 1}
    assert format_program(warm.result.program) == format_program(cold.program)
    engine.close()


@pytest.mark.parametrize(
    "replacements, error, changed",
    [case[1:] for case in MATRIX], ids=[case[0] for case in MATRIX],
)
def test_an_edit_elsewhere_invalidates_kept_lowerings(replacements, error,
                                                      changed, tmp_path):
    """MAIN's text never changes, and it is kept from the run before.
    A change of the module's lowering context lowers every unit again;
    a callee's formal count changes no context, and the kept caller's
    call fails as in a cold run. Either way the answer, diagnostics
    included, is the cold run's, and going back to the earlier text
    reuses what the failed or context-changing run did not use up."""
    path = tmp_path / "prog.f"
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    path.write_text(MATRIX_BASE)
    assert_like_cold(engine, path)
    kept_text = MATRIX_BASE.replace(*FIRST_EDIT)
    path.write_text(kept_text)
    _, counters = assert_like_cold(engine, path)
    assert counters["lower_units_reused"] == 0  # the cold run kept none
    kept = {entry.name for entry in memo_entries(engine, path)
            if entry.kept is not None}
    assert kept == {"main", "s", "f", "t"}, kept

    path.write_text(replace_all(kept_text, replacements))
    outcome, counters = assert_like_cold(engine, path)
    if error is not None:
        assert outcome.status == pipeline.DIAGNOSTICS
        assert error in outcome.diagnostics, outcome.diagnostics
    else:
        assert outcome.status == pipeline.OK, outcome.error
        assert counters == {"lower_units_lowered": 5,
                            "lower_units_reused": 0}
    # Back to the text before that edit, with U edited again.
    path.write_text(kept_text.replace("A = B + 2", "A = B + 3"))
    _, counters = assert_like_cold(engine, path)
    if not changed:
        # The failed run left MAIN, F and T kept; S and U lower again.
        assert counters == {"lower_units_lowered": 2,
                            "lower_units_reused": 3}
    engine.close()


RESHAPED_LATER = """\
      PROGRAM MAIN
      COMMON /H/ C, W
      W = 1
      C = 2
      CALL S
      PRINT *, C
      END

      SUBROUTINE S
      COMMON /H/ C, W(4)
      C = C + 1
      RETURN
      END

      SUBROUTINE T
      L = 1
      RETURN
      END
"""


def test_a_member_reshaped_by_a_later_unit_is_never_reused(tmp_path):
    """MAIN lowers while W is still a scalar; S, after it, makes W an
    array. A kept W would have the final shape, so MAIN lowered again
    against it would fail where a cold run does not. So the engine
    keeps no lowering of this file: every entry keeps its tree, and an
    edit parses only its own chunk and lowers every unit."""
    path = tmp_path / "prog.f"
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    edited = RESHAPED_LATER.replace("L = 1", "L = 2")
    texts = (RESHAPED_LATER, edited, edited.replace("W = 1", "W = 3"))
    for step, text in enumerate(texts):
        path.write_text(text)
        before = metrics.snapshot()
        outcome, counters = assert_like_cold(engine, path)
        assert outcome.status == pipeline.OK
        assert not any(entry.kept is not None
                       for entry in memo_entries(engine, path))
        parsed = metrics.delta_since(before)["counters"].get(
            "parse_units_parsed", 0)
        assert parsed == (3 if step == 0 else 1), (step, parsed)
        assert counters == {"lower_units_lowered": 3, "lower_units_reused": 0}
    engine.close()


def memo_entries(engine, path):
    return [entry for found in engine._units._paths[str(path)].values()
            for entry in found]


# -- variable order ----------------------------------------------------------

ORDER_PROGRAM = """\
      SUBROUTINE PRE(Q)
      CALL INIT(Q)
      L = 1
      RETURN
      END

      SUBROUTINE INIT(K)
      INTEGER P
      COMMON /G/ A, B
      B = K + A
      A = K * 2
      M = 1
      RETURN
      END

      PROGRAM MAIN
      COMMON /G/ A, B
      A = 3
      CALL PRE(4)
      CALL USE(A)
      PRINT *, B
      END

      SUBROUTINE USE(X)
      COMMON /G/ A, B
      B = X + B
      RETURN
      END
"""


@pytest.mark.parametrize("unit, old, news", [
    # the first COMMON declarer, which has a formal
    ("init", "M = 1", ("M = 2", "M = 3")),
    # the same, declaring more locals before its COMMON statement than
    # when the kept members were made
    ("init-declares", "INTEGER P\n", ("INTEGER P, Z\n", "INTEGER P, Z, Y\n")),
    # a unit before the first declarer
    ("pre", "L = 1", ("L = 2", "L = 3")),
])
def test_a_unit_lowered_again_keeps_cold_variable_order(unit, old, news,
                                                        tmp_path):
    """Variables sort by creation order, and a cold lowering creates
    /G/'s members in INIT after its formal K and local P, and after
    every variable of PRE. Editing one of the two while the others stay
    kept must still order every variable as a cold lowering does, and
    so give a cold run's return summaries (``B = K + A`` in INIT,
    ``B = Q + A`` through PRE), hence exports, and explanations."""
    path = tmp_path / "prog.f"
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    texts = [ORDER_PROGRAM] + [ORDER_PROGRAM.replace(old, new)
                               for new in news]
    for step, text in enumerate(texts):
        path.write_text(text)
        warm = engine_run(engine, path)
        cold = analyze_file(str(path), CONFIG)
        assert variable_ranks(warm.result) == variable_ranks(cold)
        assert warm.index == cold_index(tmp_path, path, str(step))
        assert warm.shown == shown(cold)
        if step == 2:
            assert warm.counters == {"lower_units_lowered": 1,
                                     "lower_units_reused": 3}
    for cell in ("b@use", "a@use", "x@use"):
        warm, _ = request_run(engine, path, explain=cell)
        cold, _ = request_run(None, path, explain=cell)
        assert (warm.explain, warm.explain_error) == (
            cold.explain, cold.explain_error)
    engine.close()


# -- requests that use the lowerings up --------------------------------------


@pytest.mark.parametrize("fields", [
    {"explain": "g2@bar"},
    {"renders": frozenset({"constants", "ir"})},
    {"renders": frozenset({"constants", "stats"})},
], ids=["explain", "ir", "stats"])
def test_a_request_that_completes_the_program_keeps_nothing(fields,
                                                            tmp_path):
    """``explain``, ``ir`` and ``stats`` read the whole program, so
    they convert every procedure: the next edit lowers every unit, and
    its output is still the cold run's."""
    from repro.testkit import TRI_PROGRAM

    path = tmp_path / "tri.f"
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    path.write_text(TRI_PROGRAM)
    assert_like_cold(engine, path)
    path.write_text(TRI_PROGRAM.replace("N = 100", "N = 101"))
    assert_like_cold(engine, path)
    assert any(entry.kept is not None for entry in memo_entries(engine, path))
    _, counters = request_run(engine, path, **fields)
    assert not any(entry.kept is not None
                   for entry in memo_entries(engine, path))
    path.write_text(TRI_PROGRAM.replace("N = 100", "N = 101")
                    .replace(".GT. 10", ".GT. 11"))
    _, counters = assert_like_cold(engine, path)
    assert counters == {"lower_units_lowered": 3, "lower_units_reused": 0}
    engine.close()


def test_an_aborted_edit_keeps_only_what_was_still_pending(tmp_path):
    """A run stopped by its checkpoint (a daemon's deadline) keeps the
    procedures still unconverted when it stopped, and the retry lowers
    the others again and answers as a cold run."""

    class Stop(Exception):
        pass

    pending = []

    class Watched(Engine):
        def close(self, keep=False):
            prepared = self._prepared
            if prepared is not None:
                pending.append({p.name for p in prepared.program
                                if prepared.is_pending(p)})
            super().close(keep)

    source = generate_program(7, GEN_CONFIG)
    path = tmp_path / "prog.f"
    engine = Watched(cache_dir=str(tmp_path / "cache"))
    path.write_text(source)
    assert_like_cold(engine, path)
    first = apply_edit(source, 7)[0]
    path.write_text(first)
    assert_like_cold(engine, path)
    second = next(text for text in (apply_edit(first, seed)[0]
                                    for seed in range(8, 20))
                  if text != source)  # not a replay
    path.write_text(second)
    before = metrics.snapshot()

    def checkpoint():  # stop at the first check after a conversion
        if metrics.delta_since(before)["counters"].get("ssa_procedures"):
            raise Stop()

    pending.clear()
    with pytest.raises(Stop):
        pipeline.run(pipeline.Request(CONFIG, path=str(path)), engine,
                     checkpoint)
    kept = {entry.name for entry in memo_entries(engine, path)
            if entry.kept is not None}
    assert kept == pending[-1]
    _, counters = assert_like_cold(engine, path)
    units = counters["lower_units_lowered"] + counters["lower_units_reused"]
    assert 0 < counters["lower_units_reused"] == len(kept) < units
    engine.close()


# -- a linked project over a file analyzed alone -----------------------------

APP_F = """\
      PROGRAM MAIN
      COMMON /BLK/ G1, G2
      EXTERNAL WORK
      G1 = 7
      CALL FOO(100, 5)
      CALL WORK(3)
      PRINT *, G2
      END

      SUBROUTINE FOO(X, Y)
      COMMON /BLK/ G1, G2
      Z = X + Y
      G2 = Z + 1
      RETURN
      END

      SUBROUTINE BAZ(A)
      COMMON /BLK/ G1, G2
      PRINT *, A + G1 + 1
      RETURN
      END
"""
LIB_F = """\
      SUBROUTINE WORK(N)
      COMMON /BLK/ G1, G2
      M = G1 + N
      PRINT *, M
      RETURN
      END
"""


def test_a_linked_project_after_its_file_alone(tmp_path):
    """The linker parses trees: the kept lowerings of a file analyzed
    alone give way to its parsed units, and both the project and the
    file alone keep answering as cold runs."""
    app, lib = tmp_path / "app.f", tmp_path / "lib.f"
    app.write_text(APP_F)
    lib.write_text(LIB_F)
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    assert_like_cold(engine, app)
    app.write_text(APP_F.replace("A + G1 + 1", "A + G1 + 2"))
    assert_like_cold(engine, app)
    assert any(entry.kept is not None for entry in memo_entries(engine, app))
    project = [str(app), str(lib)]
    for step in range(2):
        linked, _ = assert_like_cold(engine, None, project=project)
        assert linked.status == pipeline.OK, linked.diagnostics
        app.write_text(APP_F.replace("A + G1 + 1", f"A + G1 + {3 + step}"))
        assert_like_cold(engine, app)
    engine.close()


def test_procedure_digests_follow_the_lowered_units(tmp_path, monkeypatch):
    """An edit computes a procedure digest only for the units it lowered
    again; the kept lowerings' digests stay with their memo entries."""
    import re

    from repro.engine import fingerprint
    from repro.suite.generator import ScaleConfig, generate_scaled_program

    source = generate_scaled_program(
        0, ScaleConfig(procedures=300, layer_width=32)
    )
    path = tmp_path / "big.f"
    computed = []
    real = fingerprint.procedure_digest

    def counting(procedure, layout):
        computed.append(procedure.name)
        return real(procedure, layout)

    monkeypatch.setattr(fingerprint, "procedure_digest", counting)
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    literal = re.compile(r"(?m)^      \w+ = (-?\d+)$")
    text = source
    for count in range(3):
        if count:  # bump a literal in a later unit each time
            match = list(literal.finditer(text))[40 * count]
            text = (text[:match.start(1)] + str(int(match.group(1)) + 1)
                    + text[match.end(1):])
        path.write_text(text)
        computed.clear()
        outcome, counters = request_run(engine, path)
        assert outcome.ok
        assert len(computed) <= counters["lower_units_lowered"]
        if count > 1:  # the cold run, then an edit, converted all
            assert counters["lower_units_reused"] > 250, counters
    engine.close()
