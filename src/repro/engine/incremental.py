"""Incremental re-analysis: dirty-set computation over manifests.

The summary cache (:mod:`repro.engine.cache`) already *implements*
incrementality — a procedure's key changes exactly when the procedure,
a member of its call-graph component, or the export of a callee outside
the component changed (:mod:`repro.engine.fingerprint`), so a warm run
recomputes precisely the invalidated summaries and splices cached
payloads for everything else. What the cache cannot do by itself is
*tell you* what happened: which procedures were dirty, why, and whether
the engine really did confine recomputation to that set.

This module adds that accounting. A **manifest** is a per-(path,
config) snapshot of the engine's
:meth:`~repro.engine.core.Engine.summary_index` — one ``[digest, key,
export]`` row per procedure — stored in the cache under the ``man``
namespace after every engine run. Diffing the previous manifest against
the current one classifies every procedure:

- **edited** — its own digest changed (its lowered IR, its interface,
  the COMMON members it declares, or the program's scalar globals);
- **downstream** — digest unchanged but key changed: the export of a
  callee outside its component changed (its return summary, or its MOD
  set as a call binds it, and so this procedure's call-effect
  annotation), or a member of its recursive component was edited. A
  callee rebuilt with an unchanged export leaves its callers clean
  (early cutoff);
- **added** / **removed** — present on only one side;
- **clean** — digest and key both unchanged: every summary is served
  from the cache.

The dirty set (edited + downstream + added) is what the engine's
return and forward stages recompute on a warm run; the
:class:`InvalidationReport` renders it (CLI ``--explain-invalidation``)
and the tests assert the engine's recomputed-procedure counters match
it exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.fingerprint import _sha, config_fingerprint

#: Cache namespace holding one manifest per (path, config fingerprint).
MANIFEST_NAMESPACE = "man"


def manifest_key(path: str, config) -> str:
    """Cache key of the manifest for ``path`` under ``config``.

    Keyed by *path* (absolutized, so relative and absolute spellings of
    one file share a history), not content — the manifest's job is to
    remember what the previous run of this file looked like, whatever
    it was.
    """
    return _sha(
        ["manifest", os.path.abspath(path), config_fingerprint(config)]
    )


#: Hex digits kept of each manifest hash. A manifest only tells two
#: runs of one file apart and addresses no cache entry, so 128-bit
#: prefixes are as good as whole hashes, at half the bytes.
_PREFIX = 32
#: The columns of a manifest row.
_DIGEST, _KEY, _EXPORT = 0, 1, 2


def build_manifest(index: Dict[str, Dict[str, str]]) -> dict:
    """The manifest payload of one run's summary index: per procedure,
    ``[digest, key, export]`` (prefixes)."""
    return {
        "procedures": {
            name: [entry["digest"][:_PREFIX], entry["key"][:_PREFIX],
                   entry["export"][:_PREFIX]]
            for name, entry in index.items()
        }
    }


@dataclass
class InvalidationReport:
    """What an incremental run recomputed, and why.

    ``reasons`` maps each dirty procedure to a human-readable cause;
    ``dirty`` is edited + downstream + added, in program order.
    """

    path: str
    edited: List[str] = field(default_factory=list)
    downstream: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    clean: List[str] = field(default_factory=list)
    reasons: Dict[str, str] = field(default_factory=dict)
    #: True when there was no previous manifest to diff against — every
    #: procedure is "dirty" but calling the run incremental would be
    #: misleading, so renderers say "cold" instead.
    cold: bool = False
    #: True when the whole run was replayed from the run-level cache
    #: (unchanged source): nothing was recomputed at all.
    replayed: bool = False

    @property
    def dirty(self) -> List[str]:
        return self.edited + self.downstream + self.added

    @property
    def total(self) -> int:
        return len(self.dirty) + len(self.clean)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "cold": self.cold,
            "replayed": self.replayed,
            "edited": list(self.edited),
            "downstream": list(self.downstream),
            "added": list(self.added),
            "removed": list(self.removed),
            "clean_count": len(self.clean),
            "dirty_count": len(self.dirty),
            "reasons": dict(self.reasons),
        }

    def format(self) -> str:
        return format_invalidation(self.to_dict())


def format_invalidation(payload: dict) -> str:
    """Render a report — or its :meth:`~InvalidationReport.to_dict`
    payload, which is all that survives a pool worker's trip — as the
    ``--explain-invalidation`` text."""
    path = payload["path"]
    if payload.get("replayed"):
        return (
            f"{path}: unchanged — replayed from the run cache "
            f"(0 procedures recomputed)"
        )
    total = payload["dirty_count"] + payload["clean_count"]
    if payload.get("cold"):
        return (
            f"{path}: no previous manifest — cold run, all "
            f"{total} procedure(s) computed"
        )
    reasons = payload["reasons"]
    lines = [
        f"{path}: {payload['dirty_count']}/{total} procedure(s) "
        f"dirty, {payload['clean_count']} served from cache"
    ]
    for name in payload["edited"]:
        lines.append(f"  edited      {name}: {reasons[name]}")
    for name in payload["downstream"]:
        lines.append(f"  downstream  {name}: {reasons[name]}")
    for name in payload["added"]:
        lines.append(f"  added       {name}: {reasons[name]}")
    for name in payload["removed"]:
        lines.append(f"  removed     {name}")
    return "\n".join(lines)


def diff_manifest(
    path: str,
    old: Optional[dict],
    new: dict,
    callgraph,
) -> InvalidationReport:
    """Classify every procedure of the current program against ``old``.

    ``new`` is the current run's :func:`build_manifest`; ``callgraph``
    (the current program's) supplies the components and callees the
    *why* strings point at. ``old`` is the previous manifest payload,
    or None for a cold run.
    """
    rows: Dict[str, List[str]] = new["procedures"]
    report = InvalidationReport(path=path)
    if old is None or "procedures" not in old:
        report.cold = True
        report.added = list(rows)
        for name in rows:
            report.reasons[name] = "no previous run"
        return report

    previous: Dict[str, List[str]] = old["procedures"]

    def moved(name: str, column: int) -> bool:
        before = previous.get(name)
        return before is None or before[column] != rows[name][column]

    component_of: Dict[str, list] = {}
    for name in rows:
        if name not in previous:
            report.added.append(name)
            report.reasons[name] = "procedure is new"
        elif moved(name, _DIGEST):
            report.edited.append(name)
            report.reasons[name] = "lowered IR changed"
        elif moved(name, _KEY):
            if not component_of:
                component_of = {
                    member.name: component
                    for component in callgraph.sccs()
                    for member in component
                }
            report.downstream.append(name)
            report.reasons[name] = _cause(
                component_of[name], callgraph, moved
            )
        else:
            report.clean.append(name)
    report.removed = sorted(set(previous) - set(rows))
    return report


def _cause(component, callgraph, moved) -> str:
    """Why a procedure of ``component`` whose own digest did not change
    got a new key: the callees outside the component whose export
    changed, and the members of the component that were edited."""
    names = {member.name for member in component}
    parts = []
    changed = sorted({
        callee.name
        for member in component
        for callee in callgraph.callees(member)
        if callee.name not in names and moved(callee.name, _EXPORT)
    })
    if changed:
        parts.append(f"callee export changed: {', '.join(changed)}")
    edited = sorted(name for name in names if moved(name, _DIGEST))
    if edited:
        parts.append(f"recursive co-member edited: {', '.join(edited)}")
    return "; ".join(parts) or "its call-graph component changed"
