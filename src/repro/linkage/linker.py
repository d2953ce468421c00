"""The MiniFortran linker: many files -> one whole-program module.

Linking happens on the AST, before lowering: each file is parsed
(resiliently — parse errors degrade units to conservative stubs exactly
as in single-file analysis), a program-level symbol table is built over
every unit of every file, deterministic link diagnostics (``E_LINK``)
are reported for undefined or duplicate symbols and COMMON shape
mismatches, and the surviving units are merged in file order into one
:class:`~repro.frontend.ast.Module`. The merged module then flows
through the unchanged pipeline — one call graph, one SCC condensation,
one IPCP solve — so a constant born in ``a.f`` propagates into a call
site in ``b.f`` precisely as if the two files had been concatenated.

The linked program carries no single source file (``Program.source`` is
None): substitution is still *measured*, but ``--transform`` style
source rewriting is a per-file operation and stays out of scope.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro._record import FrozenRecord, Record, setfield
from repro.config import AnalysisConfig
from repro.diagnostics import E_IO, E_LINK, E_SEMANTIC, W_LINK, DiagnosticEngine
from repro.frontend import ast
from repro.frontend.errors import SemanticError
from repro.frontend.parser import parse_source
from repro.frontend.source import SourceLocation
from repro.obs.trace import stage

#: Canonical filename attached to the merged module.
LINKED_FILENAME = "<linked>"


class LinkUnit(FrozenRecord):
    """One entry of the program-level symbol table: a unit name bound
    to its defining file."""

    __slots__ = _fields = ("name", "kind", "filename", "location")

    def __init__(self, name: str, kind: ast.ProcedureKind, filename: str,
                 location: SourceLocation):
        setfield(self, "name", name)
        setfield(self, "kind", kind)
        setfield(self, "filename", filename)
        setfield(self, "location", location)

    def describe(self) -> str:
        return f"{self.kind.value} {self.name} ({self.location})"


class LinkResult(Record):
    """Everything one link produced.

    ``module`` is None when linking failed (any ``E_LINK``/``E_IO``
    diagnostic); per-file *parse* errors alone do not fail the link —
    the affected units are analyzed as conservative stubs, matching
    single-file resilient analysis. ``commons`` maps a COMMON block
    name to the defining file of its first declaration and its member
    names in declaration order.
    """

    __slots__ = _fields = ("module", "units", "commons", "diagnostics",
                           "entry", "files")

    def __init__(
        self,
        module: Optional[ast.Module],
        units: Optional[List[LinkUnit]] = None,
        commons: Optional[Dict[str, Tuple[str, List[str]]]] = None,
        diagnostics: Optional[DiagnosticEngine] = None,
        entry: Optional[str] = None,
        files: Optional[List[str]] = None,
    ):
        self.module = module
        self.units = units if units is not None else []
        self.commons = commons if commons is not None else {}
        self.diagnostics = (
            diagnostics if diagnostics is not None else DiagnosticEngine()
        )
        self.entry = entry
        self.files = files if files is not None else []

    @property
    def ok(self) -> bool:
        return self.module is not None

    def format_symbol_table(self) -> str:
        """Deterministic render of the program-level symbol table."""
        lines = []
        for unit in sorted(self.units, key=lambda u: u.name):
            lines.append(
                f"unit    {unit.name:<12} {unit.kind.value:<11} "
                f"{unit.filename}"
            )
        for block in sorted(self.commons):
            filename, members = self.commons[block]
            lines.append(
                f"common  /{block}/ {filename} ({', '.join(members)})"
            )
        return "\n".join(lines) if lines else "(empty program)"


# -- reference scanning ------------------------------------------------------


def _statement_expressions(stmt: ast.Stmt):
    """Yield the top-level expressions of one statement."""
    if isinstance(stmt, ast.Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, ast.CallStmt):
        yield from stmt.args
    elif isinstance(stmt, ast.IfStmt):
        yield stmt.cond
        for cond, _ in stmt.elifs:
            yield cond
    elif isinstance(stmt, ast.DoStmt):
        yield stmt.start
        yield stmt.stop
        if stmt.step is not None:
            yield stmt.step
    elif isinstance(stmt, ast.DoWhileStmt):
        yield stmt.cond
    elif isinstance(stmt, ast.ReadStmt):
        yield from stmt.targets
    elif isinstance(stmt, ast.PrintStmt):
        for item in stmt.items:
            if not isinstance(item, str):
                yield item


def _unit_references(unit: ast.ProcedureUnit):
    """Yield ``(name, location, is_call)`` for every procedure
    reference in ``unit``'s body (CALL statements and function-call
    expressions). Stub units have no surviving body and yield nothing.
    """
    for stmt in ast.walk_statements(unit.body):
        if isinstance(stmt, ast.CallStmt):
            yield stmt.name, stmt.location, True
        for top in _statement_expressions(stmt):
            if top is None:
                continue
            for expr in ast.walk_expressions(top):
                if isinstance(expr, ast.FunctionCall):
                    yield expr.name, expr.location, False


def _unit_externals(unit: ast.ProcedureUnit):
    """``(name, location)`` for every EXTERNAL declaration in ``unit``."""
    for decl in unit.decls:
        if isinstance(decl, ast.ExternalDecl):
            for name in decl.names:
                yield name, decl.location


# -- the linker --------------------------------------------------------------


def link_sources(
    named: Sequence[Tuple[str, str]],
    entry: Optional[str] = None,
    diagnostics: Optional[DiagnosticEngine] = None,
    engine=None,
) -> LinkResult:
    """Link ``named`` — a sequence of ``(filename, text)`` pairs — into
    one whole-program module.

    Deterministic: diagnostics are reported in file order, then unit
    order, so two runs over the same inputs render identically. With an
    ``engine``, each file is parsed through :meth:`Engine.parse
    <repro.engine.core.Engine.parse>`, which reuses the units it parsed
    before.
    """
    diag = diagnostics if diagnostics is not None else DiagnosticEngine()
    entry = entry.lower() if entry else None
    result = LinkResult(
        module=None,
        diagnostics=diag,
        entry=entry,
        files=[name for name, _ in named],
    )
    if not named:
        diag.error(E_LINK, "nothing to link: no input files")
        return result

    modules: List[Tuple[str, ast.Module]] = []
    with stage("parse"):
        parse = parse_source if engine is None else engine.parse
        for filename, text in named:
            modules.append((filename, parse(text, filename, diag)))

    # 1. Program-level symbol table + duplicate detection.
    by_name: Dict[str, List[LinkUnit]] = {}
    for filename, module in modules:
        for unit in module.units:
            link_unit = LinkUnit(unit.name, unit.kind, filename, unit.location)
            result.units.append(link_unit)
            by_name.setdefault(unit.name, []).append(link_unit)
    link_ok = True
    for name, bound in by_name.items():
        if len(bound) > 1:
            where = ", ".join(u.describe() for u in bound)
            diag.error(
                E_LINK,
                f"duplicate definition of {name!r}: {where}",
                bound[1].location,
            )
            link_ok = False

    # 2. Entry selection.
    programs = [u for u in result.units if u.kind is ast.ProcedureKind.PROGRAM]
    selected: Optional[str] = None
    if entry is not None:
        matches = [u for u in result.units if u.name == entry]
        if not matches:
            diag.error(E_LINK, f"entry point {entry!r} is not defined by any file")
            link_ok = False
        elif matches[0].kind is not ast.ProcedureKind.PROGRAM:
            diag.error(
                E_LINK,
                f"entry point {entry!r} is a {matches[0].kind.value}, "
                f"not a PROGRAM unit",
                matches[0].location,
            )
            link_ok = False
        else:
            selected = entry
    elif len(programs) > 1:
        where = ", ".join(u.describe() for u in programs)
        diag.error(
            E_LINK,
            f"multiple PROGRAM units ({where}); select one with --entry",
            programs[1].location,
        )
        link_ok = False
    elif not programs:
        diag.error(E_LINK, "linked program has no PROGRAM unit")
        link_ok = False
    else:
        selected = programs[0].name

    result.entry = selected
    dropped: set = set()
    if selected is not None:
        for unit in programs:
            if unit.name != selected:
                dropped.add(unit.name)
                diag.warning(
                    W_LINK,
                    f"PROGRAM unit {unit.name!r} dropped "
                    f"(entry point is {selected!r})",
                    unit.location,
                )

    defined = set(by_name) - dropped

    # 3. Undefined symbols: EXTERNAL declarations that resolve to no
    # unit, and call references to names no linked file defines.
    from repro.ir.lowering import _INTRINSICS

    for filename, module in modules:
        for unit in module.units:
            if unit.name in dropped:
                continue
            externals = set()
            for name, location in _unit_externals(unit):
                externals.add(name)
                if name not in defined:
                    diag.error(
                        E_LINK,
                        f"EXTERNAL {name!r} (declared in {unit.name}) is "
                        f"not defined by any linked file",
                        location,
                    )
                    link_ok = False
            if unit.is_stub:
                continue
            reported: set = set()
            for name, location, is_call in _unit_references(unit):
                if name in defined or name in reported or name in externals:
                    continue
                if not is_call and name in _INTRINSICS:
                    continue
                reported.add(name)
                diag.error(
                    E_LINK,
                    f"undefined symbol {name!r} referenced from {unit.name}",
                    location,
                )
                link_ok = False

    # 4. Cross-file COMMON consistency: the first declaration (file
    # order, unit order) fixes a block's member names; later
    # declarations must list the same names, and two array
    # declarations of one member must agree on shape.
    shapes: Dict[str, Dict[str, Tuple[int, ...]]] = {}
    for filename, module in modules:
        for unit in module.units:
            if unit.name in dropped:
                continue
            for decl in unit.decls:
                if not isinstance(decl, ast.CommonDecl):
                    continue
                names = [item.name for item in decl.items]
                if decl.block not in result.commons:
                    result.commons[decl.block] = (filename, names)
                    shapes[decl.block] = {
                        item.name: tuple(item.dims)
                        for item in decl.items
                        if item.is_array
                    }
                    continue
                first_file, first_names = result.commons[decl.block]
                if names != first_names:
                    diag.error(
                        E_LINK,
                        f"COMMON /{decl.block}/ in {unit.name} declares "
                        f"members ({', '.join(names)}) but its first "
                        f"declaration in {first_file} has "
                        f"({', '.join(first_names)})",
                        decl.location,
                    )
                    link_ok = False
                    continue
                block_shapes = shapes[decl.block]
                for item in decl.items:
                    if not item.is_array:
                        continue
                    dims = tuple(item.dims)
                    if item.name in block_shapes and block_shapes[item.name] != dims:
                        diag.error(
                            E_LINK,
                            f"COMMON /{decl.block}/ member {item.name!r} "
                            f"declared with shape {dims} in {unit.name} "
                            f"but shape {block_shapes[item.name]} in "
                            f"{first_file}",
                            decl.location,
                        )
                        link_ok = False
                    block_shapes.setdefault(item.name, dims)

    if not link_ok:
        return result

    # 5. Merge, in (file, unit) order, minus dropped PROGRAM units.
    merged: List[ast.ProcedureUnit] = []
    for filename, module in modules:
        for unit in module.units:
            if unit.name not in dropped:
                merged.append(unit)
    if not merged:
        diag.error(E_LINK, "nothing to link: no units survived")
        return result
    result.module = ast.Module(merged, LINKED_FILENAME)
    return result


def link_files(
    paths: Sequence[str],
    entry: Optional[str] = None,
    diagnostics: Optional[DiagnosticEngine] = None,
    engine=None,
) -> LinkResult:
    """Read and link the files at ``paths``. An unreadable file is an
    ``E_IO`` diagnostic and fails the link (an incomplete symbol table
    cannot be resolved honestly)."""
    diag = diagnostics if diagnostics is not None else DiagnosticEngine()
    named: List[Tuple[str, str]] = []
    io_failed = False
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                named.append((path, handle.read()))
        except (OSError, UnicodeDecodeError) as err:
            from repro.ipcp.driver import _located_io_error

            located = _located_io_error(path, err)
            diag.error(E_IO, located.message, located.location)
            io_failed = True
    if io_failed:
        return LinkResult(
            module=None,
            diagnostics=diag,
            entry=entry.lower() if entry else None,
            files=list(paths),
        )
    return link_sources(named, entry=entry, diagnostics=diag, engine=engine)


# -- linked analysis ---------------------------------------------------------


def analyze_linked_sources(
    named: Sequence[Tuple[str, str]],
    config: Optional[AnalysisConfig] = None,
    entry: Optional[str] = None,
    diagnostics: Optional[DiagnosticEngine] = None,
    engine=None,
):
    """Link ``(filename, text)`` pairs and analyze the whole program.

    Returns ``(result, link)`` where ``result`` is None when linking or
    semantic lowering failed (the diagnostics on ``link.diagnostics``
    say why). Mirrors :func:`repro.ipcp.driver.analyze_source_resilient`,
    stages included: the files parse in its ``parse`` stage and the
    linked module lowers in its ``lower`` stage.
    """
    link = link_sources(
        named, entry=entry, diagnostics=diagnostics, engine=engine
    )
    return _analyze_link(
        link, config, engine, project_label([name for name, _ in named], entry)
    )


def analyze_linked_files(
    paths: Sequence[str],
    config: Optional[AnalysisConfig] = None,
    entry: Optional[str] = None,
    diagnostics: Optional[DiagnosticEngine] = None,
    engine=None,
):
    """File-path variant of :func:`analyze_linked_sources`."""
    link = link_files(
        paths, entry=entry, diagnostics=diagnostics, engine=engine
    )
    return _analyze_link(link, config, engine, project_label(paths, entry))


def _analyze_link(link: LinkResult, config, engine, label: str):
    """``(result, link)`` of the analysis of a linked module, lowered
    and run under the project's ``label``."""
    if link.module is None:
        return None, link
    # Looked up on the module when called, so wrapping
    # ``lowering.lower_module`` wraps this call too.
    from repro.ipcp.driver import analyze_program
    from repro.ir import lowering

    try:
        with stage("lower"):
            program = lowering.lower_module(link.module, None)
    except SemanticError as err:
        link.diagnostics.error(E_SEMANTIC, err.message, err.location)
        return None, link
    result = analyze_program(program, config, engine=engine, path=label)
    result.diagnostics = link.diagnostics
    return result, link


# -- project identity (caching / incremental) --------------------------------


def project_bundle_text(
    named: Sequence[Tuple[str, str]], entry: Optional[str] = None
) -> str:
    """Canonical text standing for a linked project in the run cache.

    ``repro.engine.fingerprint.run_key`` hashes one text; a project is
    many. This join is injective (NUL/SOH separators cannot appear in
    MiniFortran source) and includes the entry selection, so two
    projects share a run-cache entry iff they link identically.
    """
    parts = [f"\x00repro-link\x00{entry or ''}"]
    for name, text in named:
        parts.append(f"{name}\x01{text}")
    return "\x00".join(parts)


def project_label(paths: Sequence[str], entry: Optional[str] = None) -> str:
    """Stable synthetic path naming a linked project's summary pack
    (and so its incremental manifest). Rooted at ``/`` so
    :func:`repro.engine.incremental.manifest_key`'s ``abspath`` cannot
    make it depend on the working directory."""
    digest = hashlib.sha256(
        "\x00".join([entry or ""] + [os.path.abspath(p) for p in paths]).encode()
    ).hexdigest()
    return f"/repro-linked/{digest[:24]}"
