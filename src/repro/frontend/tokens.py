"""Token definitions for the MiniFortran lexer."""

from __future__ import annotations

import enum
from typing import Optional

from repro.frontend.source import SourceLocation


class TokenKind(enum.Enum):
    """Every kind of token the lexer can produce."""

    # Literals and names
    INT_LITERAL = "int_literal"
    IDENT = "ident"
    LABEL = "label"  # statement label in the label field

    # Punctuation and operators
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    EQUALS = "="
    STRING = "string"

    # Relational operators (.EQ. etc.)
    EQ = ".eq."
    NE = ".ne."
    LT = ".lt."
    LE = ".le."
    GT = ".gt."
    GE = ".ge."

    # Logical operators
    AND = ".and."
    OR = ".or."
    NOT = ".not."

    # Keywords
    PROGRAM = "program"
    SUBROUTINE = "subroutine"
    FUNCTION = "function"
    INTEGER = "integer"
    DIMENSION = "dimension"
    COMMON = "common"
    PARAMETER = "parameter"
    DATA = "data"
    EXTERNAL = "external"
    BLOCKDATA = "blockdata"
    CALL = "call"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    ELSEIF = "elseif"
    ENDIF = "endif"
    DO = "do"
    ENDDO = "enddo"
    WHILE = "while"
    GOTO = "goto"
    CONTINUE = "continue"
    RETURN = "return"
    STOP = "stop"
    READ = "read"
    PRINT = "print"
    WRITE = "write"
    END = "end"

    # Structure
    NEWLINE = "newline"
    EOF = "eof"


#: Keywords recognized after identifier scanning (lower-cased spelling).
KEYWORDS = {
    "program": TokenKind.PROGRAM,
    "subroutine": TokenKind.SUBROUTINE,
    "function": TokenKind.FUNCTION,
    "integer": TokenKind.INTEGER,
    "dimension": TokenKind.DIMENSION,
    "common": TokenKind.COMMON,
    "parameter": TokenKind.PARAMETER,
    "data": TokenKind.DATA,
    "external": TokenKind.EXTERNAL,
    "blockdata": TokenKind.BLOCKDATA,
    "call": TokenKind.CALL,
    "if": TokenKind.IF,
    "then": TokenKind.THEN,
    "else": TokenKind.ELSE,
    "elseif": TokenKind.ELSEIF,
    "endif": TokenKind.ENDIF,
    "do": TokenKind.DO,
    "enddo": TokenKind.ENDDO,
    "while": TokenKind.WHILE,
    "goto": TokenKind.GOTO,
    "continue": TokenKind.CONTINUE,
    "return": TokenKind.RETURN,
    "stop": TokenKind.STOP,
    "read": TokenKind.READ,
    "print": TokenKind.PRINT,
    "write": TokenKind.WRITE,
    "end": TokenKind.END,
}

#: Dotted operators (.EQ. and friends), lower-cased spelling -> kind.
DOTTED_OPERATORS = {
    ".eq.": TokenKind.EQ,
    ".ne.": TokenKind.NE,
    ".lt.": TokenKind.LT,
    ".le.": TokenKind.LE,
    ".gt.": TokenKind.GT,
    ".ge.": TokenKind.GE,
    ".and.": TokenKind.AND,
    ".or.": TokenKind.OR,
    ".not.": TokenKind.NOT,
}


class Token:
    """A single lexical token.

    ``value`` holds the integer value for INT_LITERAL / LABEL tokens and
    the (lower-cased) spelling for identifiers and strings. A slotted
    class with a plain ``__init__``, like :class:`SourceLocation`, since
    the lexer builds one per token; treat instances as immutable.
    """

    __slots__ = ("kind", "text", "location", "value")

    def __init__(
        self,
        kind: TokenKind,
        text: str,
        location: SourceLocation,
        value: Optional[object] = None,
    ):
        self.kind = kind
        self.text = text
        self.location = location
        self.value = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.kind is other.kind
            and self.text == other.text
            and self.location == other.location
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.location, self.value))

    def __repr__(self) -> str:
        return (
            f"Token(kind={self.kind!r}, text={self.text!r}, "
            f"location={self.location!r}, value={self.value!r})"
        )

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
