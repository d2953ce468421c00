"""Incremental re-analysis: dirty-set computation over Merkle manifests.

The summary cache (:mod:`repro.engine.cache`) already *implements*
incrementality — a procedure's Merkle key changes exactly when the
procedure was edited or one of its (transitive) callees was, so a warm
run recomputes precisely the invalidated summaries and splices cached
payloads for everything else. What the cache cannot do by itself is
*tell you* what happened: which procedures were dirty, why, and whether
the engine really did confine recomputation to that set.

This module adds that accounting. A **manifest** is a per-(path,
config) snapshot of the :func:`repro.engine.fingerprint.summary_index`
— one ``{digest, key}`` pair per procedure — stored in the cache under
the ``man`` namespace after every engine run. Diffing the previous
manifest against the current index classifies every procedure:

- **edited** — its own digest changed (its lowered IR, its interface,
  the COMMON members it declares, or the program's scalar globals);
- **downstream** — digest unchanged but Merkle key changed: some
  transitive *callee* was edited (which may change its MOD set, and so
  this procedure's call-effect annotation), so this procedure's
  summaries may evaluate differently. (Keys fold callee keys into
  callers, so "key changed, digest same" is exactly "transitive caller
  of an edit".)
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


def build_manifest(index: Dict[str, Dict[str, str]]) -> dict:
    """The JSON-able manifest payload for one run's summary index."""
    return {"procedures": index}


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
    index: Dict[str, Dict[str, str]],
    callgraph,
) -> InvalidationReport:
    """Classify every procedure of the current program against ``old``.

    ``index`` is the current :func:`~repro.engine.fingerprint.
    summary_index`; ``callgraph`` (the current program's) supplies the
    callee lists the *why* strings point at. ``old`` is the previous
    manifest payload, or None for a cold run.
    """
    report = InvalidationReport(path=path)
    if old is None or "procedures" not in old:
        report.cold = True
        report.added = list(index)
        for name in index:
            report.reasons[name] = "no previous run"
        return report

    previous: Dict[str, Dict[str, str]] = old["procedures"]
    dirty_keys = {
        name
        for name, entry in index.items()
        if previous.get(name, {}).get("key") != entry["key"]
    }
    by_name = {procedure.name: procedure for procedure in callgraph.nodes()}
    for name, entry in index.items():
        before = previous.get(name)
        if before is None:
            report.added.append(name)
            report.reasons[name] = "procedure is new"
        elif before["digest"] != entry["digest"]:
            report.edited.append(name)
            report.reasons[name] = "lowered IR changed"
        elif before["key"] != entry["key"]:
            report.downstream.append(name)
            culprits = sorted(
                callee.name
                for callee in callgraph.callees(by_name[name])
                if callee.name in dirty_keys
            )
            report.reasons[name] = (
                f"calls dirty procedure(s): {', '.join(culprits)}"
                if culprits
                else "a transitive callee changed"
            )
        else:
            report.clean.append(name)
    report.removed = sorted(set(previous) - set(index))
    return report
