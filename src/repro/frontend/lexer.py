"""A line-oriented lexer for MiniFortran.

MiniFortran keeps FORTRAN's statement-per-line structure but relaxes the
fixed-column card format:

- a line whose first column is ``C`` or ``*`` followed by whitespace (or
  nothing), or whose first non-blank character is ``!``, is a comment;
- ``!`` starts an inline comment anywhere outside a string;
- an integer at the very start of a statement is a statement *label*;
- statements end at end of line (a NEWLINE token); there are no
  continuation cards.

Identifiers and keywords are case-insensitive; identifier tokens carry
their lower-cased spelling in ``value``, interned (``sys.intern``), so
every reference to a name in the trees an engine keeps shares one
string.

The lexer is table-driven: one compiled regular expression (``_TOKEN``)
matches the blanks before a token and the token itself, and the number
of the alternative that matched picks the token kind, so each token
costs one match instead of a Python-level loop over its characters.
"""

from __future__ import annotations

import re
import sys
from typing import List, Optional, TYPE_CHECKING

from repro.frontend.errors import LexError
from repro.frontend.source import SourceFile, SourceLocation
from repro.frontend.tokens import DOTTED_OPERATORS, KEYWORDS, Token, TokenKind

if TYPE_CHECKING:
    from repro.diagnostics import DiagnosticEngine

#: Blanks, then one token. The number of the group that matched says
#: what the token is; the group numbers are the ``_INT`` ... constants
#: below. ``\d`` is a Unicode decimal digit (category Nd), exactly the
#: digits ``int()`` accepts; ``\w`` is a character for which
#: ``str.isalnum()`` holds, or ``_``. Blanks are spaces and tabs only,
#: and the error alternative excludes them, so the engine never
#: backtracks into the blanks to report one as an unexpected character.
_TOKEN = re.compile(
    r"[ \t]*(?:"
    r"(\d+)"  # 1: integer literal, or label at statement start
    r"|([A-Za-z_]\w*)"  # 2: identifier or keyword
    r"|([(),+\-*/=])"  # 3: one-character operator
    r"|(\.(?:[Ee][Qq]|[Nn][Ee]|[Ll][TtEe]|[Gg][TtEe]"
    r"|[Aa][Nn][Dd]|[Oo][Rr]|[Nn][Oo][Tt])\.)"  # 4: dotted operator
    r"|('[^']*')"  # 5: string literal
    r"|(!)"  # 6: inline comment: the rest of the line is ignored
    r"|('.*)"  # 7: unterminated string literal: the rest of the line
    r"|([^\W\d]\w*)"  # 8: identifier, if its first character is a letter
    r"|([^ \t])"  # 9: unexpected character
    r")"
)
_INT, _NAME, _PUNCT, _DOTTED, _STRING, _COMMENT, _OPEN, _UNAME = range(1, 9)

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


class Lexer:
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

    def tokens(self, first_line: int = 1) -> List[Token]:
        """Tokenize the whole file, ending with a single EOF token.

        ``first_line`` is the number of the source's first line: a
        chunk of a larger file lexes to the tokens, locations included,
        that the same lines have in the whole file (no lexer state
        crosses a line)."""
        result: List[Token] = []
        lines = self.source.lines
        for line_number, line in enumerate(lines, start=first_line):
            if not _is_comment_line(line):
                self._lex_line(line, line_number, result)
        result.append(Token(
            TokenKind.EOF, "",
            SourceLocation(self.source.name, first_line + len(lines), 1),
        ))
        return result

    def _lex_line(self, line: str, line_number: int,
                  result: List[Token]) -> None:
        """Append the tokens of one line to ``result``, then its NEWLINE
        if the line produced any token."""
        filename = self.source.name
        match = _TOKEN.match
        keywords = KEYWORDS
        ident = TokenKind.IDENT
        intern = sys.intern
        before = len(result)
        pos = 0
        at_start = True  # a digit string that starts a line is a label
        while True:
            found = match(line, pos)
            if found is None:
                break  # end of line, or nothing but blanks left
            group = found.lastindex
            text = found[group]
            pos = found.end()
            start = pos - len(text)
            location = SourceLocation(filename, line_number, start + 1)
            if group == _NAME or group == _UNAME and text[0].isalpha():
                lowered = intern(text.lower())
                result.append(Token(
                    keywords.get(lowered, ident), text, location, lowered
                ))
            elif group == _PUNCT:
                result.append(Token(_SINGLE_CHAR_TOKENS[text], text, location))
            elif group == _INT:
                kind = TokenKind.LABEL if at_start else TokenKind.INT_LITERAL
                result.append(Token(kind, text, location, int(text)))
            elif group == _DOTTED:
                result.append(
                    Token(DOTTED_OPERATORS[text.lower()], text, location)
                )
            elif group == _STRING:
                result.append(
                    Token(TokenKind.STRING, text, location, text[1:-1])
                )
            elif group == _COMMENT:
                break
            elif group == _OPEN:
                self._lex_error("unterminated string literal", location)
                # Recovery: treat the rest of the line as the string.
                result.append(Token(TokenKind.STRING, text, location, text[1:]))
            else:
                # A character no token starts with, including a digit
                # int() rejects (superscripts, circled numbers).
                self._lex_error(
                    f"unexpected character {text[0]!r}", location
                )
                pos = start + 1  # recovery: skip just that character
            at_start = False
        if len(result) > before:
            result.append(Token(
                TokenKind.NEWLINE, "\n",
                SourceLocation(filename, line_number, len(line) + 1),
            ))


def tokenize(text: str, filename: str = "<string>") -> List[Token]:
    """Convenience wrapper: tokenize ``text`` as file ``filename``."""
    return Lexer(SourceFile(filename, text)).tokens()
