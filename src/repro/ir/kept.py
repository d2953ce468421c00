"""Lowerings kept across engine runs, and when one may be reused.

:func:`repro.ir.lowering.lower_module` lowers a module of parse memo
entries (the engine's path) through this module, and no other path
loads it. A kept lowering is a procedure a run left unconverted, kept
in place of its unit's tree (:class:`KeptLowering`). It is reused
while the module's :class:`LoweringContext` is the one it was lowered
in (:func:`reusable`), and the units lowered again declare against its
COMMON blocks; :func:`note_lowerings` lists what the engine may keep
after the run.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.frontend import ast
from repro.ir.module import CommonBlock, Procedure, Program


class KeptLowering:
    """A procedure lowered from a parse memo entry and left unconverted
    by its run, kept in place of the entry's tree for
    :func:`~repro.ir.lowering.lower_module` to reuse, with the
    :class:`LoweringContext` it was lowered in."""

    __slots__ = ("procedure", "context")

    def __init__(self, procedure: Procedure, context: "LoweringContext"):
        self.procedure = procedure
        self.context = context


class LoweringContext:
    """What lowering one unit reads of the others, over a whole module:
    each unit's :func:`_context` (``units``), and the module's COMMON
    blocks (``commons``), whose members the lowerings made in it
    reference. One object serves every lowering a run keeps."""

    __slots__ = ("units", "commons")

    def __init__(self, units: Tuple[tuple, ...],
                 commons: Dict[str, CommonBlock]):
        self.units = units
        self.commons = commons


def _context(unit: ast.ProcedureUnit) -> tuple:
    """``unit``'s part in its module's lowering context: what lowering
    the other units reads of it. That is its kind and name (a call or
    an array reference lowers by the callee's kind), its COMMON
    declarations and the shapes it gives their members (members and
    shapes merge over every declaration in unit order), and its DATA
    values."""
    declared = []
    members: Dict[str, str] = {}
    for decl in unit.decls:
        if isinstance(decl, ast.CommonDecl):
            members.update((item.name, decl.block) for item in decl.items)
            declared.append(("common", decl.block, tuple(
                (item.name, tuple(item.dims) if item.is_array else None)
                for item in decl.items
            )))
        elif isinstance(decl, (ast.IntegerDecl, ast.DimensionDecl)):
            declared.extend(
                ("dims", members[item.name], item.name, tuple(item.dims))
                for item in decl.items
                if item.is_array and item.name in members
            )
        elif isinstance(decl, ast.DataDecl):
            declared.append(("data", tuple(map(tuple, decl.bindings))))
    return (unit.kind, unit.name, tuple(declared))


def _shapes_settle(units: Tuple[tuple, ...]) -> bool:
    """Whether no unit after a COMMON block's first declarer changes a
    member's shape. Else a cold lowering lowers the units before that
    one against the earlier shape, while a kept member has the last,
    so no lowering of the module may be kept."""
    first: Dict[str, int] = {}
    shapes: Dict[str, Dict[str, Optional[tuple]]] = {}
    for index, context in enumerate(units):
        for declared in context[2]:
            if declared[0] == "common":
                block, items = declared[1], declared[2]
                if first.setdefault(block, index) == index:
                    shapes.setdefault(block, {}).update(items)
                elif any(dims is not None and shapes[block].get(name) is None
                         for name, dims in items):
                    return False
            elif declared[0] == "dims":
                block, name = declared[1], declared[2]
                if first[block] == index:
                    shapes[block][name] = declared[3]
                elif shapes[block].get(name) is None:
                    return False
    return True


def reusable(units, program: Program) -> Optional[LoweringContext]:
    """For a module of memo entries: the context the kept lowerings were
    lowered in when they may be reused here (its blocks adopted into
    ``program``), else None.

    A kept lowering is reused only under the lowering context it was
    lowered in, where its unit would lower again to the same IR over
    the same COMMON members, at the same index, so with the same
    variable orders; a changed context lowers every unit. One run kept
    them all, so they share one context, and a kept unit at its old
    index still contributes its old part: only the units to lower are
    compared.
    """
    kept = next((unit.kept for unit in units if unit.kept is not None), None)
    if kept is None:
        return None
    context = kept.context
    if len(context.units) != len(units) or not all(
        unit.kept.context is context and context.units[index][1] == unit.name
        if unit.kept is not None else
        _context(unit.tree()) == context.units[index]
        for index, unit in enumerate(units)
    ):
        return None
    program.commons.update(context.commons)
    return context


def note_lowerings(program: Program, units,
                    context: Optional[LoweringContext]) -> None:
    """List each entry with its lowering in ``program.lowerings``, all
    in one :class:`LoweringContext` (the reused one, or the module's own
    when nothing was reused); an entry whose kept lowering was reused
    gives it up (the engine keeps it again if the run leaves it
    unconverted). A module whose member shapes do not settle at their
    blocks' first declarers (:func:`_shapes_settle`) lists none, so its
    entries keep their trees."""
    if context is None:
        shared: Dict[tuple, tuple] = {}  # units declaring alike share one
        contexts = (_context(unit.tree()) for unit in units)
        parts = tuple(
            (kind, name, shared.setdefault(declared, declared))
            for kind, name, declared in contexts
        )
        if not _shapes_settle(parts):
            return
        context = LoweringContext(parts, dict(program.commons))
    for unit in units:
        procedure = program.procedures.get(unit.name)
        if procedure is None:
            continue  # BLOCK DATA
        record = unit.kept
        if record is not None and record.procedure is procedure:
            unit.kept = None
        else:
            record = KeptLowering(procedure, context)
        program.lowerings.append((unit, record))
