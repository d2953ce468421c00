"""The per-character MiniFortran lexer, kept as a test oracle.

This is the lexer :mod:`repro.frontend.lexer` replaced with a
table-driven one; ``test_lexer_differential.py`` checks that the two
produce the same tokens and diagnostics. It tests ``str.isdigit()`` to
start and continue an integer literal, which also accepts digits that
``int()`` rejects (``²``, ``①``): on those it raises ``ValueError``,
where the table-driven lexer reports an unexpected character.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, TYPE_CHECKING

from repro.frontend.errors import LexError
from repro.frontend.source import SourceFile, SourceLocation
from repro.frontend.tokens import DOTTED_OPERATORS, KEYWORDS, Token, TokenKind

if TYPE_CHECKING:
    from repro.diagnostics import DiagnosticEngine

_SINGLE_CHAR_TOKENS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "=": TokenKind.EQUALS,
}


def _is_comment_line(line: str) -> bool:
    """True for classic FORTRAN comment cards and ``!`` comment lines."""
    stripped = line.strip()
    if not stripped:
        return True
    if stripped.startswith("!"):
        return True
    first = line[:1].upper()
    if first in ("C", "*") and (len(line) == 1 or line[1:2] in (" ", "\t")):
        return True
    return False


class ReferenceLexer:
    """Tokenizes one :class:`SourceFile` into a stream of tokens.

    Without a :class:`~repro.diagnostics.DiagnosticEngine` the lexer
    raises :class:`LexError` on the first bad character (the historic
    contract). With one, it *recovers*: the error is recorded and the
    offending character skipped (an unterminated string consumes the
    rest of its line), so one typo no longer hides every later
    diagnostic in the file.
    """

    def __init__(
        self,
        source: SourceFile,
        diagnostics: Optional["DiagnosticEngine"] = None,
    ):
        self.source = source
        self.diagnostics = diagnostics

    def _lex_error(self, message: str, location: SourceLocation) -> None:
        """Raise or record, depending on recovery mode."""
        if self.diagnostics is None:
            raise LexError(message, location)
        from repro.diagnostics import E_LEX

        self.diagnostics.error(E_LEX, message, location)

    def tokens(self) -> List[Token]:
        """Tokenize the whole file, ending with a single EOF token."""
        result: List[Token] = []
        line_count = len(self.source.lines)
        for line_number, line in enumerate(self.source.lines, start=1):
            if _is_comment_line(line):
                continue
            line_tokens = list(self._lex_line(line, line_number))
            if line_tokens:
                result.extend(line_tokens)
                result.append(
                    Token(
                        TokenKind.NEWLINE,
                        "\n",
                        SourceLocation(self.source.name, line_number, len(line) + 1),
                    )
                )
        result.append(
            Token(TokenKind.EOF, "", SourceLocation(self.source.name, line_count + 1, 1))
        )
        return result

    def _lex_line(self, line: str, line_number: int) -> Iterator[Token]:
        pos = 0
        length = len(line)
        at_statement_start = True
        while pos < length:
            char = line[pos]
            if char in (" ", "\t"):
                pos += 1
                continue
            if char == "!":
                return  # inline comment: rest of line ignored
            location = SourceLocation(self.source.name, line_number, pos + 1)
            if char.isdigit():
                end = pos
                while end < length and line[end].isdigit():
                    end += 1
                text = line[pos:end]
                kind = TokenKind.LABEL if at_statement_start else TokenKind.INT_LITERAL
                yield Token(kind, text, location, int(text))
                pos = end
                at_statement_start = False
                continue
            at_statement_start = False
            if char == "." and self._looks_like_dotted_operator(line, pos):
                end = line.index(".", pos + 1) + 1
                spelled = line[pos:end].lower()
                yield Token(DOTTED_OPERATORS[spelled], line[pos:end], location)
                pos = end
                continue
            if char.isalpha() or char == "_":
                end = pos
                while end < length and (line[end].isalnum() or line[end] == "_"):
                    end += 1
                text = line[pos:end]
                lowered = text.lower()
                kind = KEYWORDS.get(lowered, TokenKind.IDENT)
                yield Token(kind, text, location, lowered)
                pos = end
                continue
            if char == "'":
                end = line.find("'", pos + 1)
                if end < 0:
                    self._lex_error("unterminated string literal", location)
                    # Recovery: treat the rest of the line as the string.
                    yield Token(
                        TokenKind.STRING, line[pos:], location, line[pos + 1 :]
                    )
                    return
                yield Token(
                    TokenKind.STRING, line[pos : end + 1], location, line[pos + 1 : end]
                )
                pos = end + 1
                continue
            if char in _SINGLE_CHAR_TOKENS:
                yield Token(_SINGLE_CHAR_TOKENS[char], char, location)
                pos += 1
                continue
            self._lex_error(f"unexpected character {char!r}", location)
            pos += 1  # recovery: skip the offending character

    @staticmethod
    def _looks_like_dotted_operator(line: str, pos: int) -> bool:
        """True when the text at ``pos`` spells one of ``.EQ.`` etc."""
        close = line.find(".", pos + 1)
        if close < 0:
            return False
        spelled = line[pos : close + 1].lower()
        return spelled in DOTTED_OPERATORS

