"""Constant provenance: per-cell derivation trees for the CONSTANTS
sets.

The paper's result *is* a derivation structure — jump functions
composed along call-graph edges, met across call sites, into the
Figure 1 lattice — so every final VAL cell has an auditable
explanation. :func:`build_provenance` reconstructs it at the fixpoint:
re-evaluating each cell's incoming jump functions against the *final*
VAL sets reproduces exactly the meets the solver performed on its last
visit (evaluation is deterministic and the solver stopped because
nothing changes), with zero cost on the propagation hot path. The two
cases where the fixpoint story does not hold are carried explicitly:
solver fuel exhaustion (cells were forced to ⊥; the resilience record
becomes a note on every cell) and GSA-excluded call sites (listed, not
met).

The result, :class:`ConstantProvenance`, is built as plain JSON-able
data (strings and ints only) so it persists in the summary cache next
to the values it explains — ``repro analyze --explain NAME@PROC`` is
byte-identical between a cold run and a warm-cache replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lattice import BOTTOM, LatticeValue, TOP, const

#: Bumped when the payload shape changes; stored payloads carry it so a
#: stale cache entry is rebuilt instead of mis-rendered. v2 added the
#: optional ``used_by`` cell list (optimization sites that consumed the
#: cell's constant).
SCHEMA_VERSION = 2

TOP_GLYPH = "T"
BOTTOM_GLYPH = "_|_"

#: Recursion guard for pathological pass-through chains.
_MAX_DEPTH = 16


def _render_value(value: LatticeValue) -> str:
    if value.is_top:
        return TOP_GLYPH
    if value.is_bottom:
        return BOTTOM_GLYPH
    return str(value.value)


def _value_kind(value: LatticeValue) -> str:
    if value.is_top:
        return "top"
    if value.is_bottom:
        return "bottom"
    return "constant"


def _normalize_query(query: str) -> str:
    name, at, procedure = query.partition("@")
    name = name.strip().lower()
    procedure = procedure.strip().lower()
    if not at or not name or not procedure:
        raise ValueError(
            f"malformed cell query {query!r}: expected NAME@PROCEDURE"
        )
    return f"{name}@{procedure}"


def build_provenance(result) -> "ConstantProvenance":
    """Reconstruct the derivation of every (procedure, name) VAL cell
    from a finished :class:`~repro.ipcp.driver.AnalysisResult`."""
    cells: Dict[str, dict] = {}
    if result.jump_table is None or not result.config.interprocedural:
        return ConstantProvenance(cells)

    from repro.ipcp.jump_functions import _call_site_label
    from repro.ipcp.solver import entry_domain

    program = result.program
    callgraph = result.callgraph
    constants = result.constants
    table = result.jump_table

    excluded = frozenset()
    if result.propagation is not None:
        excluded = getattr(result.propagation, "excluded", frozenset())

    solver_notes = [
        demotion.render()
        for demotion in result.resilience
        if demotion.component == "solver"
    ]
    demotions_by_label: Dict[str, List[str]] = {}
    for demotion in result.resilience:
        if demotion.component != "jump_function":
            continue
        rendered = (
            f"{demotion.from_kind} -> {demotion.to_kind} ({demotion.reason})"
        )
        bucket = demotions_by_label.setdefault(demotion.site, [])
        if rendered not in bucket:  # GSA rounds re-record identical drops
            bucket.append(rendered)

    scalar_globals = program.scalar_globals()
    for procedure in program:
        vals = constants.val_set(procedure.name)
        sites = list(callgraph.sites_into(procedure))
        for var in entry_domain(procedure, program, scalar_globals):
            value = vals.get(var, BOTTOM)
            cell: dict = {
                "procedure": procedure.name,
                "name": var.name,
                "value": _render_value(value),
                "kind": _value_kind(value),
                "is_main": bool(procedure.is_main),
                "sites": [],
                "excluded_sites": [],
                "notes": list(solver_notes),
            }
            if procedure.is_main:
                if var in program.global_initial_values:
                    cell["initial"] = {
                        "value": str(program.global_initial_values[var]),
                        "detail": "BLOCK DATA initial value",
                    }
                else:
                    cell["initial"] = {
                        "value": BOTTOM_GLYPH,
                        "detail": "unknown at program startup "
                        "(uninitialized COMMON storage)",
                    }
            else:
                for site in sites:
                    label = _call_site_label(site.caller.name, site.call, var)
                    if site.call in excluded:
                        cell["excluded_sites"].append(label)
                        continue
                    cell["sites"].append(
                        _build_contribution(
                            label, site, var, table, constants,
                            demotions_by_label,
                        )
                    )
                if not solver_notes:
                    killer = _find_killer(value, cell["sites"])
                    if killer is not None:
                        cell["killer"] = killer
            cells[f"{var.name.lower()}@{procedure.name.lower()}"] = cell
    return ConstantProvenance(cells)


def _build_contribution(
    label: str, site, var, table, constants, demotions_by_label
) -> dict:
    function = table.lookup(site.call, var)
    if function is None:
        return {
            "label": label,
            "caller": site.caller.name,
            "jump": None,
            "value": BOTTOM_GLYPH,
            "value_kind": "bottom",
            "support": [],
            "demotions": demotions_by_label.get(label, []),
            "note": "no jump function built for this slot",
        }
    caller_vals = constants.val_set(site.caller.name)
    value = function.evaluate(lambda v: caller_vals.get(v, BOTTOM))
    return {
        "label": label,
        "caller": site.caller.name,
        "jump": repr(function),
        "value": _render_value(value),
        "value_kind": _value_kind(value),
        # Sorted: frozenset iteration order is hash-dependent, and the
        # rendering must be byte-stable across processes.
        "support": sorted(v.name for v in function.support),
        "demotions": demotions_by_label.get(label, []),
    }


def _find_killer(
    value: LatticeValue, contributions: List[dict]
) -> Optional[dict]:
    """Replay the solver's meet over the listed contributions to name
    the call site (or conflicting pair) that killed a ⊥ cell. Returns
    None for non-⊥ cells (and when the replay cannot reach ⊥, which
    only happens off the fixpoint path)."""
    if not value.is_bottom or not contributions:
        return None
    running = TOP
    setter_index = 0
    for index, contribution in enumerate(contributions):
        kind = contribution["value_kind"]
        if kind == "bottom":
            return {
                "sites": [index],
                "reason": f"call site #{index + 1} contributes "
                f"{BOTTOM_GLYPH} directly",
            }
        if kind == "top":
            continue
        site_value = int(contribution["value"])
        if running.is_top:
            running = const(site_value)
            setter_index = index
        elif running.value != site_value:
            return {
                "sites": [setter_index, index],
                "reason": f"{running.value} from call site "
                f"#{setter_index + 1} meets {site_value} from call site "
                f"#{index + 1}",
            }
    return None


class ConstantProvenance:
    """All cell derivations of one analysis run, as plain data.

    ``cells`` maps ``"name@procedure"`` (lowercased) to a JSON-able
    record; everything :meth:`explain` prints is derived from that
    record alone, which is what makes cached replays byte-identical to
    live runs."""

    def __init__(self, cells: Dict[str, dict]):
        self.cells = cells

    # -- persistence (summary / run cache) -----------------------------------

    def to_payload(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "cells": self.cells}

    @classmethod
    def from_payload(
        cls, payload: Optional[dict]
    ) -> Optional["ConstantProvenance"]:
        if not isinstance(payload, dict):
            return None
        if payload.get("schema_version") != SCHEMA_VERSION:
            return None
        cells = payload.get("cells")
        if not isinstance(cells, dict):
            return None
        return cls(cells)

    # -- optimization cross-references ---------------------------------------

    def annotate_used_by(self, used_by: Dict[str, List[str]]) -> int:
        """Record which optimization sites consumed each cell's constant
        (``{"n@f": ["fold@f:entry", ...]}``, from
        :attr:`repro.opt.report.OptReport.used_by`) so ``--explain`` and
        ``--optimize`` compose. Facts for unknown cells (temporaries,
        untracked names) are ignored. Returns cells annotated."""
        annotated = 0
        for key, facts in sorted(used_by.items()):
            cell = self.cells.get(key)
            if cell is None:
                continue
            existing = cell.setdefault("used_by", [])
            for fact in facts:
                if fact not in existing:
                    existing.append(fact)
            annotated += 1
        return annotated

    # -- queries -------------------------------------------------------------

    def available(self) -> List[str]:
        return sorted(self.cells)

    def cell(self, query: str) -> Optional[dict]:
        return self.cells.get(_normalize_query(query))

    def explain(self, query: str) -> str:
        """Render the derivation tree for one ``NAME@PROC`` cell.

        Raises ``ValueError`` for malformed or unknown queries (the
        error text lists the known cells)."""
        key = _normalize_query(query)
        cell = self.cells.get(key)
        if cell is None:
            known = ", ".join(self.available()) or "(none)"
            raise ValueError(f"unknown cell {query!r}; known cells: {known}")
        lines: List[str] = []
        self._render_cell(cell, lines, "", "", frozenset((key,)), 0)
        return "\n".join(lines) + "\n"

    # -- rendering -----------------------------------------------------------

    def _headline(self, cell: dict) -> str:
        kind = cell["kind"]
        if kind == "constant":
            tag = "constant"
        elif kind == "bottom":
            tag = "not constant"
        else:
            tag = "never invoked"
        return f"{cell['name']}@{cell['procedure']} = {cell['value']} ({tag})"

    def _render_cell(
        self,
        cell: dict,
        lines: List[str],
        first_prefix: str,
        rest_prefix: str,
        path: frozenset,
        depth: int,
    ) -> None:
        lines.append(first_prefix + self._headline(cell))
        items = self._items(cell)
        for index, (text, subs) in enumerate(items):
            last = index == len(items) - 1
            branch = "`- " if last else "|- "
            extend = "   " if last else "|  "
            lines.append(rest_prefix + branch + text)
            for sub_index, sub in enumerate(subs):
                sub_last = sub_index == len(subs) - 1
                sub_branch = "`- " if sub_last else "|- "
                sub_extend = "   " if sub_last else "|  "
                if isinstance(sub, str):
                    lines.append(rest_prefix + extend + sub_branch + sub)
                    continue
                key, name, caller = sub
                sub_cell = self.cells.get(key)
                head = rest_prefix + extend + sub_branch
                if sub_cell is None:
                    lines.append(
                        f"{head}{name}@{caller} = ? (no cell recorded)"
                    )
                elif key in path:
                    lines.append(
                        head + self._headline(sub_cell) + " (cycle)"
                    )
                elif depth + 1 >= _MAX_DEPTH:
                    lines.append(head + "... (depth limit)")
                else:
                    self._render_cell(
                        sub_cell,
                        lines,
                        head,
                        rest_prefix + extend + sub_extend,
                        path | {key},
                        depth + 1,
                    )

    def _items(self, cell: dict) -> List[Tuple[str, list]]:
        """Child items of a cell node: ``(line, sub_items)`` where each
        sub item is either a literal line or a ``(key, name, caller)``
        support-cell reference to recurse into."""
        items: List[Tuple[str, list]] = []
        for note in cell.get("notes", ()):
            items.append((f"! {note}", []))
        for fact in cell.get("used_by", ()):
            items.append((f"used_by: {fact}", []))
        if cell.get("is_main"):
            initial = cell.get("initial", {})
            items.append(
                (
                    f"initial: {initial.get('detail', '?')} => "
                    f"{initial.get('value', '?')}",
                    [],
                )
            )
            return items
        sites = cell.get("sites", [])
        if not sites and not cell.get("excluded_sites"):
            items.append(
                ("no call sites (procedure is never invoked)", [])
            )
        for contribution in sites:
            jump = contribution.get("jump") or "(no jump function)"
            subs: list = []
            for demotion in contribution.get("demotions", ()):
                subs.append(f"! demoted: {demotion}")
            if contribution.get("note"):
                subs.append(f"! {contribution['note']}")
            for support_name in contribution.get("support", ()):
                subs.append(
                    (
                        f"{support_name.lower()}@"
                        f"{contribution['caller'].lower()}",
                        support_name,
                        contribution["caller"],
                    )
                )
            items.append(
                (
                    f"{contribution['label']} -- {jump} => "
                    f"{contribution['value']}",
                    subs,
                )
            )
        for label in cell.get("excluded_sites", ()):
            items.append(
                (f"{label} (excluded: proven never executed)", [])
            )
        killer = cell.get("killer")
        if killer is not None:
            items.append((f"! killed by meet: {killer['reason']}", []))
        return items
