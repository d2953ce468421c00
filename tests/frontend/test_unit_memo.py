"""The engine's parse memo (:mod:`repro.frontend.unit_memo`) against the
whole-file parse it replaces.

A hypothesis test builds random sequences of program units, parses
them through one memo cold and again after a random unit edit, and
requires, each time, exactly what :func:`parse_source` gives: the same
tree, the same lowered program (or lowering error), and the same
diagnostics or exception, in raising and in recovery mode. The
sequences mix comments, blank lines, ``end``, ``END ! x``, a labelled
``END``, a missing ``END``, broken units, ``\\r\\n``/``\\f`` line
breaks, BLOCK DATA and duplicate names. Unit tests pin the counters,
the chunk split and the retention rule.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.diagnostics import DiagnosticEngine
from repro.frontend.errors import FrontendError
from repro.frontend.parser import parse_source
from repro.frontend.source import SourceFile
from repro.frontend.unit_memo import PATH_CAPACITY, UnitMemo, split_chunks
from repro.ir.lowering import lower_module
from repro.ir.printer import format_program
from repro.obs import metrics

NAMES = ("MAIN", "S1", "S2", "F1")

#: Unit bodies; ``{n}`` is the unit's name, ``{v}`` a literal.
TEMPLATES = (
    ("      PROGRAM {n}", "      X = {v}", "      CALL S1(X)"),
    ("      SUBROUTINE {n}(A)", "      A = A + {v}", "      RETURN"),
    ("      INTEGER FUNCTION {n}(N)", "      {n} = N * {v}"),
    ("      BLOCK DATA {n}", "      COMMON /G/ K", "      DATA K /{v}/"),
    ("      SUBROUTINE {n}(A)", "      IF (A .GT. {v}) THEN",
     "      A = 1", "      END IF"),
    ("      SUBROUTINE {n}", "      X = = {v}"),  # a syntax error
    ("      X = {v}",),  # a statement outside any unit
)
#: How a unit ends: "" leaves its END out.
ENDS = ("      END", "      end", "      END ! x", "   End  ", "10    END", "")
FILLERS = ("C a comment card", "! a comment", "", "      ", "* star card")
BREAKS = ("\n", "\r\n", "\x0c")

units = st.tuples(
    st.integers(0, len(TEMPLATES) - 1),
    st.sampled_from(NAMES),
    st.integers(-9, 99),
    st.sampled_from(ENDS),
    st.lists(st.sampled_from(FILLERS), max_size=2),
)


def unit_lines(piece):
    template, name, value, end, fillers = piece
    lines = [line.format(n=name, v=value) for line in TEMPLATES[template]]
    return list(fillers) + lines + ([end] if end else [])


def render(pieces, breaks) -> str:
    lines = [line for piece in pieces for line in unit_lines(piece)]
    return "".join(
        line + breaks[index % len(breaks)] for index, line in enumerate(lines)
    )


def outcome(parse, text: str, recover: bool):
    """What a parse of ``text`` shows: the tree and its lowering (or the
    lowering's error), and the diagnostics or the exception raised."""
    diagnostics = DiagnosticEngine() if recover else None
    try:
        module = parse(text, "m.f", diagnostics)
    except FrontendError as err:
        return ("raised", type(err).__name__, str(err))
    try:
        lowered = format_program(lower_module(module, SourceFile("m.f", text)))
    except FrontendError as err:
        lowered = ("lowering failed", type(err).__name__, str(err))
    shown = diagnostics.format() if recover else None
    return ("parsed", module, lowered, shown)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    pieces=st.lists(units, min_size=1, max_size=6),
    breaks=st.lists(st.sampled_from(BREAKS), min_size=1, max_size=3),
    edit=st.tuples(st.integers(0, 5), units),
    recover=st.booleans(),
)
def test_memo_parses_exactly_like_parse_source(pieces, breaks, edit, recover):
    memo = UnitMemo()
    text = render(pieces, breaks)
    assert outcome(memo.parse, text, recover) == (
        outcome(parse_source, text, recover)
    )
    index, replacement = edit
    edited = list(pieces)
    edited[index % len(edited)] = replacement
    text = render(edited, breaks)
    assert outcome(memo.parse, text, recover) == (
        outcome(parse_source, text, recover)
    )


PROGRAM = """\
C leading comment
      PROGRAM MAIN
      CALL S1(3)
      END
      SUBROUTINE S1(A)
      B = A + 1
      END ! closes S1
      SUBROUTINE S2(A)
      B = A + 2
      end
"""


def counted(parse):
    """Run ``parse()``; return its result and the parse counters it
    moved."""
    before = metrics.snapshot()
    result = parse()
    delta = metrics.delta_since(before)["counters"]
    return result, {
        name: delta.get(name, 0)
        for name in ("parses", "parse_units_parsed", "parse_units_reused")
    }


def test_split_after_every_bare_end():
    chunks = split_chunks(PROGRAM + "C trailing comment\n")
    assert [first for first, _ in chunks] == [1, 5, 8, 11]
    assert chunks[1][1].splitlines()[-1] == "      END ! closes S1"
    assert split_chunks("a\r\nEND\x0cb\n") == [(1, "a\nEND"), (3, "b")]


def test_an_edit_reparses_only_its_unit():
    memo = UnitMemo()
    _, cold = counted(lambda: memo.parse(PROGRAM, "m.f"))
    assert cold == {"parses": 1, "parse_units_parsed": 3,
                    "parse_units_reused": 0}
    edited = PROGRAM.replace("A + 1", "A + 7")
    module, warm = counted(lambda: memo.parse(edited, "m.f"))
    assert warm == {"parses": 1, "parse_units_parsed": 1,
                    "parse_units_reused": 2}
    assert module == parse_source(edited, "m.f")


def test_a_line_shift_reparses_the_units_it_moves():
    memo = UnitMemo()
    memo.parse(PROGRAM, "m.f")
    shifted = PROGRAM.replace("      B = A + 1\n", "      B = A + 1\n\n")
    module, counts = counted(lambda: memo.parse(shifted, "m.f"))
    assert counts["parse_units_parsed"] == 2  # S1's text, S2's line
    assert module == parse_source(shifted, "m.f")


def test_a_broken_unit_parses_the_whole_file_once():
    memo = UnitMemo()
    memo.parse(PROGRAM, "m.f")
    broken = PROGRAM.replace("B = A + 1", "B = = 1")
    diagnostics = DiagnosticEngine()
    module, counts = counted(lambda: memo.parse(broken, "m.f", diagnostics))
    expected = DiagnosticEngine()
    assert module == parse_source(broken, "m.f", expected)
    assert diagnostics.format() == expected.format() != ""
    assert counts["parses"] == 1
    # The units after the broken one were kept: fixing it re-parses one.
    _, fixed = counted(lambda: memo.parse(PROGRAM, "m.f"))
    assert fixed["parse_units_parsed"] == 1
    assert fixed["parse_units_reused"] == 2


def test_reparsing_a_path_drops_its_previous_text():
    memo = UnitMemo()
    edited = PROGRAM.replace("A + 2", "A + 5")
    memo.parse(PROGRAM, "m.f")
    memo.parse(edited, "m.f")
    # S2's first text is gone: going back re-parses it.
    _, back = counted(lambda: memo.parse(PROGRAM, "m.f"))
    assert back["parse_units_parsed"] == 1
    assert back["parse_units_reused"] == 2


def test_least_recently_parsed_paths_are_forgotten():
    memo = UnitMemo()
    paths = [f"f{index}.f" for index in range(PATH_CAPACITY + 1)]
    for path in paths:
        memo.parse(PROGRAM, path)
    assert len(memo) == PATH_CAPACITY
    _, newest = counted(lambda: memo.parse(PROGRAM, paths[-1]))
    assert newest["parse_units_parsed"] == 0
    _, oldest = counted(lambda: memo.parse(PROGRAM, paths[0]))
    assert oldest["parse_units_parsed"] == 3
    assert len(memo) == PATH_CAPACITY
