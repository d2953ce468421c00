"""Differential test: the table-driven lexer against the per-character
lexer it replaced (``reference_lexer.py``).

Both lex the same generated text, in recovery mode (a diagnostics engine)
and in raising mode, and must agree on every token (kind, text, location,
value) and every diagnostic. The generated lines mix ASCII with Unicode
letters, decimal and non-decimal digits, blanks and other whitespace,
``!`` comments, strings with and without their closing quote, dotted
operators next to digits and names, labels, and ``C``/``*`` comment
cards.

The one allowed difference: the reference lexer starts and continues an
integer literal on any ``str.isdigit()`` character, so a digit that
``int()`` rejects (``²``, ``①``) makes it raise ``ValueError``. The
table-driven lexer reports that character as unexpected instead
(:func:`test_non_decimal_digit_is_a_diagnostic_not_a_crash`).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.diagnostics import E_LEX, DiagnosticEngine
from repro.frontend.errors import LexError
from repro.frontend.lexer import Lexer
from repro.frontend.source import SourceFile

from tests.frontend.reference_lexer import ReferenceLexer

#: Characters a generated fragment draws from, one group per kind.
LETTERS = "abcxyzABCXYZ_" + "éßΩжİıſKǅ中"  # ASCII, Unicode (incl. case oddities)
DECIMAL = "0123456789" + "٣५５"  # Nd: Arabic-Indic, Devanagari, fullwidth
NON_DECIMAL = "²³①½Ⅻ〇"  # No/Nl: numeric, but int() rejects them
BLANKS = " \t" + "\u00a0\u3000\u2003\x0b"  # blanks, then other whitespace
PUNCT = "(),+-*/=.'!$;:\"#@"
ALPHABET = LETTERS + DECIMAL + NON_DECIMAL + BLANKS + PUNCT

#: Whole fragments the lexer treats specially.
FRAGMENTS = [
    "1.EQ.2", "A.and.B", "X .NE. Y", ".not.", ".Or.", ".le.", ".GT.",
    ".e.", ".eqx.", "..", "1.5", "3.", ".ge", "'str'", "'open", "'a!b'",
    "''", "! comment", "CALL", "call f(a, b)", "DO 10 I = 1, N",
    "IF (K .GT. 0) THEN", "END", "x²", "12²", "Ⅻ1", "½x", "٣٣", "a_1",
    "INTEGER FUNCTION F(X)",
]

fragments = st.one_of(
    st.sampled_from(FRAGMENTS),
    st.text(alphabet=ALPHABET, max_size=4),
)
#: Statement bodies: fragments joined by blanks (or not at all).
bodies = st.lists(
    st.tuples(st.sampled_from(["", " ", "  ", "\t"]), fragments), max_size=6
).map(lambda parts: "".join(sep + frag for sep, frag in parts))
#: What a line starts with: the statement column, a label, a comment
#: card, or nothing.
prefixes = st.sampled_from([
    "", "      ", "\t", " 10   ", "10 ", "٣ ", "C ", "c\t", "C", "*",
    "* ", "!", "   ! note", "Cx", "*x",
])
lines = st.tuples(prefixes, bodies).map("".join)
texts = st.lists(lines, min_size=1, max_size=8).map("\n".join)


def _recovering(lexer_class, text):
    engine = DiagnosticEngine(max_errors=1000)
    tokens = lexer_class(SourceFile("gen.f", text), engine).tokens()
    return tokens, engine


def _raising(lexer_class, text):
    """Tokens, or the LexError's (message, location)."""
    try:
        return lexer_class(SourceFile("gen.f", text)).tokens()
    except LexError as err:
        return (err.message, err.location)


def _fields(tokens):
    return [(t.kind, t.text, t.location, t.value) for t in tokens]


def _reference_crashes(text) -> bool:
    try:
        _recovering(ReferenceLexer, text)
    except ValueError:
        return True
    return False


@settings(
    max_examples=600, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(texts)
def test_same_tokens_and_diagnostics(text):
    if _reference_crashes(text):
        return  # the allowed difference, checked below
    expected, expected_engine = _recovering(ReferenceLexer, text)
    got, engine = _recovering(Lexer, text)
    assert _fields(got) == _fields(expected)
    assert got == expected
    assert engine.diagnostics == expected_engine.diagnostics
    reference = _raising(ReferenceLexer, text)
    table = _raising(Lexer, text)
    if isinstance(reference, tuple):
        assert table == reference
    else:
        assert _fields(table) == _fields(reference)


@settings(max_examples=200, deadline=None)
@given(texts, st.sampled_from(NON_DECIMAL[:3]))
def test_non_decimal_digit_is_a_diagnostic_not_a_crash(text, digit):
    """Where the reference lexer dies on ``int()`` of a digit such as
    ``²``, the table-driven lexer records an unexpected-character error
    at that digit and keeps lexing."""
    text = text + "\n      X = 2" + digit
    assert _reference_crashes(text)
    tokens, engine = _recovering(Lexer, text)
    last_line = len(SourceFile("gen.f", text).lines)
    assert any(
        d.code == E_LEX
        and d.message == f"unexpected character {digit!r}"
        and d.location.line == last_line
        for d in engine.diagnostics
    )
    assert [t.text for t in tokens if t.location.line == last_line][-2:] \
        == ["2", "\n"]
