"""Source text handling: files, locations, and line extraction.

Every token and AST node carries a :class:`SourceLocation` so that
diagnostics (and the constant-substitution report) can point back at the
original text.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SourceLocation:
    """A position in a source file (1-based line and column).

    Every token and instruction carries one, so these outnumber even
    Variables: a slotted class with a plain ``__init__`` costs a third
    of a frozen dataclass to build. Treat instances as immutable; they
    compare and hash by value.
    """

    __slots__ = ("filename", "line", "column")

    def __init__(self, filename: str, line: int, column: int):
        self.filename = filename
        self.line = line
        self.column = column

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.filename == other.filename
            and self.line == other.line
            and self.column == other.column
        )

    def __hash__(self) -> int:
        return hash((self.filename, self.line, self.column))

    def __repr__(self) -> str:
        return (
            f"SourceLocation(filename={self.filename!r}, "
            f"line={self.line!r}, column={self.column!r})"
        )

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: Location used for synthesized nodes that have no source counterpart.
UNKNOWN_LOCATION = SourceLocation("<unknown>", 0, 0)


@dataclass
class SourceFile:
    """A named body of MiniFortran source text.

    Provides line-level access used by error reporting and by the
    source-to-source constant substitution pass.
    """

    name: str
    text: str
    _lines: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._lines = self.text.splitlines()

    @property
    def lines(self) -> list:
        """The source split into lines (without trailing newlines)."""
        return list(self._lines)

    def line(self, number: int) -> str:
        """Return the 1-based line ``number``, or '' if out of range."""
        if 1 <= number <= len(self._lines):
            return self._lines[number - 1]
        return ""

    def count_code_lines(self) -> int:
        """Number of non-comment, non-blank lines.

        This is the "line count" reported in the study's Table 1 ("The
        line counts exclude comments and blank lines").
        """
        count = 0
        for raw in self._lines:
            stripped = raw.strip()
            if not stripped:
                continue
            if stripped.startswith("!"):
                continue
            first = raw[:1].upper()
            if first in ("C", "*") and (len(raw) == 1 or raw[1:2] in (" ", "\t")):
                # FORTRAN comment card: 'C' or '*' in column 1.
                continue
            count += 1
        return count
