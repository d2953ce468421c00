"""Structured diagnostics for the whole analysis pipeline.

The frontend used to raise on the first :class:`~repro.frontend.errors.
FrontendError` it met, which meant one malformed procedure hid every
other problem in a file and aborted whole-suite batch runs. A
:class:`DiagnosticEngine` decouples *detecting* a problem from
*aborting on it*: the lexer and parser report recoverable errors here
and synchronize, the driver records I/O and lowering failures here, and
the CLI renders the collected list with source locations at the end of
the run.

Severities follow the usual compiler convention (note < warning <
error); every diagnostic carries a stable machine-readable code from
the ``E_*``/``W_*`` constants below so tools (and tests) can filter
without string-matching messages. The engine caps how many errors it
*stores* (``max_errors``) — a pathological input producing thousands of
cascade errors keeps the first ``max_errors`` and counts the rest —
but never raises: recovery decisions belong to the parser, not here.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro._record import FrozenRecord, setfield
from repro.frontend.source import SourceLocation

# -- stable diagnostic codes ------------------------------------------------

#: Lexical error (bad character, unterminated string).
E_LEX = "E001"
#: Syntax error recovered by the parser.
E_PARSE = "E002"
#: Semantic error detected during lowering.
E_SEMANTIC = "E003"
#: File could not be read (missing, unreadable, not UTF-8 text).
E_IO = "E004"
#: Whole-program linkage failed (undefined/duplicate symbol across
#: files, COMMON shape mismatch, bad entry selection).
E_LINK = "E005"
#: A whole program unit was dropped or stubbed during recovery.
W_UNIT_DEGRADED = "W001"
#: An analysis component was demoted after a fault or budget overrun.
W_DEMOTION = "W002"
#: Linkage advisory (e.g. a non-entry PROGRAM unit dropped by --entry,
#: or duplicate unit names isolated in per-file batch mode).
W_LINK = "W003"


class Severity(enum.IntEnum):
    """Diagnostic severity; comparable (ERROR > WARNING > NOTE)."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        return self.name.lower()


class Diagnostic(FrozenRecord):
    """One reported problem: severity + stable code + message + where."""

    __slots__ = _fields = ("severity", "code", "message", "location")

    def __init__(self, severity: Severity, code: str, message: str,
                 location: Optional[SourceLocation] = None):
        setfield(self, "severity", severity)
        setfield(self, "code", code)
        setfield(self, "message", message)
        setfield(self, "location", location)

    def render(self) -> str:
        prefix = f"{self.location}: " if self.location is not None else ""
        return f"{prefix}{self.severity.label()}[{self.code}]: {self.message}"


class DiagnosticEngine:
    """Collects :class:`Diagnostic` records for one frontend/analysis run.

    ``max_errors`` caps how many *error*-severity records are stored;
    overflow errors are counted (``suppressed_errors``) so the summary
    stays honest without unbounded memory on adversarial inputs.
    """

    def __init__(self, max_errors: int = 50):
        self.max_errors = max_errors
        self.diagnostics: List[Diagnostic] = []
        self.suppressed_errors = 0

    # -- reporting ---------------------------------------------------------

    def report(self, diagnostic: Diagnostic) -> None:
        if (
            diagnostic.severity is Severity.ERROR
            and self.error_count >= self.max_errors
        ):
            self.suppressed_errors += 1
            return
        self.diagnostics.append(diagnostic)

    def error(
        self, code: str, message: str, location: Optional[SourceLocation] = None
    ) -> None:
        self.report(Diagnostic(Severity.ERROR, code, message, location))

    def warning(
        self, code: str, message: str, location: Optional[SourceLocation] = None
    ) -> None:
        self.report(Diagnostic(Severity.WARNING, code, message, location))

    def note(
        self, code: str, message: str, location: Optional[SourceLocation] = None
    ) -> None:
        self.report(Diagnostic(Severity.NOTE, code, message, location))

    # -- queries -----------------------------------------------------------

    @property
    def error_count(self) -> int:
        return sum(
            1 for d in self.diagnostics if d.severity is Severity.ERROR
        ) + self.suppressed_errors

    @property
    def has_errors(self) -> bool:
        return self.error_count > 0

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def format(self) -> str:
        """Render every stored diagnostic, one per line, plus a
        suppression footer when the cap was hit."""
        lines = [d.render() for d in self.diagnostics]
        if self.suppressed_errors:
            lines.append(
                f"... {self.suppressed_errors} further error(s) suppressed "
                f"(max-errors cap is {self.max_errors})"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __bool__(self) -> bool:
        # An engine is truthy as a container, even when empty; use
        # ``has_errors`` / ``len`` for content queries. Defined
        # explicitly so ``engine or default`` never silently replaces a
        # caller-provided engine.
        return True
