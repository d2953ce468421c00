"""Parsed program units kept across requests: an edit re-parses only
the units it changed.

An :class:`~repro.engine.core.Engine` owns one :class:`UnitMemo` and
parses every file through it (the daemon, cached CLI runs, batch files
and the linker's per-file parse). The memo splits the text into chunks,
one after every line that is a bare ``END`` statement, and keys each
chunk on (filename, first line, chunk text). A chunk seen under the
same filename at the same line reuses the
:class:`~repro.frontend.ast.ProcedureUnit` parsed last time; any other
chunk is lexed and parsed alone, at its own line numbers.

The result is exact by construction. The lexer keeps no state across
lines and the parser resets its state at every unit, so when every
chunk parses alone to exactly one unit with no diagnostic, the whole
text parses to those same units with none. Any other outcome (a broken
or unterminated unit, a labelled ``END``, stray statements, an empty
file) parses the whole text again with the caller's
:class:`~repro.diagnostics.DiagnosticEngine`, exactly as
:func:`~repro.frontend.parser.parse_source` would without an engine, so
diagnostics and exceptions are the whole-file parse's own. Lowering
never mutates the tree, so a kept unit can be lowered again.

Retention is bounded without a knob: for each filename only the units
of the last text parsed under it are kept, and the least recently
parsed filenames beyond :data:`PATH_CAPACITY` are forgotten.

Counters: ``parse_units_parsed`` (chunks parsed alone) and
``parse_units_reused`` (chunks served from the memo). ``parses`` still
counts one per file, whichever way the file was parsed.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.diagnostics import DiagnosticEngine
from repro.frontend import ast
from repro.frontend.lexer import Lexer
from repro.frontend.parser import Parser, parse_source
from repro.frontend.source import SourceFile
from repro.obs import metrics

#: A line holding only ``END`` (any case, blanks around it, an optional
#: ``!`` comment): the statement that closes a unit.
_BARE_END = re.compile(r"[ \t]*[Ee][Nn][Dd][ \t]*(?:!.*)?")

#: Filenames whose units are kept. An editor session touches a handful
#: of files; a project beyond this re-parses its least recent ones.
PATH_CAPACITY = 8

#: (first line, chunk text): a chunk's key within one filename.
ChunkKey = Tuple[int, str]


def split_chunks(text: str) -> List[ChunkKey]:
    """``text`` cut after every bare ``END`` line, as (first line,
    chunk text) pairs. Lines are ``str.splitlines()``'s, as in
    :class:`~repro.frontend.source.SourceFile`; a chunk rejoins its
    lines with ``\\n``."""
    lines = text.splitlines()
    chunks: List[ChunkKey] = []
    start = 0
    bare_end = _BARE_END.fullmatch
    for index, line in enumerate(lines):
        if bare_end(line):
            chunks.append((start + 1, "\n".join(lines[start:index + 1])))
            start = index + 1
    if start < len(lines):
        chunks.append((start + 1, "\n".join(lines[start:])))
    return chunks


def _parse_chunk(
    filename: str, first_line: int, text: str
) -> Optional[Tuple[ast.ProcedureUnit, ...]]:
    """The units of one chunk parsed alone: one unit, or none for a
    chunk of comments and blank lines. None when the chunk is not
    exactly one clean unit (the caller then parses the whole text)."""
    scratch = DiagnosticEngine()
    tokens = Lexer(SourceFile(filename, text), scratch).tokens(first_line)
    if len(tokens) == 1 and not len(scratch):
        return ()  # only the EOF token: nothing but comments
    module = Parser(tokens, filename, scratch).parse_module()
    if len(module.units) != 1 or len(scratch):
        return None
    return (module.units[0],)


class UnitMemo:
    """Per-filename memo of parsed units; see the module docstring."""

    def __init__(self) -> None:
        self._paths: "OrderedDict[str, Dict[ChunkKey, tuple]]" = OrderedDict()

    def __len__(self) -> int:
        """Number of filenames whose units are kept."""
        return len(self._paths)

    def parse(
        self,
        text: str,
        filename: str = "<string>",
        diagnostics: Optional[DiagnosticEngine] = None,
    ) -> ast.Module:
        """Parse ``text`` as :func:`~repro.frontend.parser.parse_source`
        does, reusing the units of chunks parsed before under
        ``filename``."""
        chunks = split_chunks(text)
        previous = self._paths.get(filename, {})
        kept: Dict[ChunkKey, tuple] = {}
        units: List[ast.ProcedureUnit] = []
        parsed = reused = 0
        whole = False
        for index, key in enumerate(chunks):
            found = previous.get(key)
            if found is not None:
                reused += 1
            else:
                found = _parse_chunk(filename, *key)
                if found is None:
                    # Keep what the rest of this text already had, so
                    # fixing the broken unit re-parses only that unit.
                    kept.update(
                        (later, previous[later])
                        for later in chunks[index + 1:] if later in previous
                    )
                    whole = True
                    break
                parsed += 1
            kept[key] = found
            units.extend(found)
        self._remember(filename, kept)
        if parsed:
            metrics.inc("parse_units_parsed", parsed)
        if reused:
            metrics.inc("parse_units_reused", reused)
        if whole or not units:
            return parse_source(text, filename, diagnostics)
        metrics.inc("parses")
        return ast.Module(units, filename)

    def _remember(self, filename: str, kept: Dict[ChunkKey, tuple]) -> None:
        self._paths[filename] = kept
        self._paths.move_to_end(filename)
        while len(self._paths) > PATH_CAPACITY:
            self._paths.popitem(last=False)
