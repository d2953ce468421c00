"""Content-addressed cache keys for procedure summaries.

The summary cache must never serve a stale answer, so keys are *content
hashes* over everything a summary's value can depend on:

- the procedure's lowered IR text before call-effect annotation and SSA
  (:func:`repro.ir.printer.format_procedure`), its formals with their
  shapes, its result variable and the COMMON members it declares
  (:func:`procedure_digest`). The engine computes these right after the
  call graph and MOD/REF, before any procedure is converted, so a clean
  procedure needs neither its annotation nor its SSA form to be looked
  up;
- one hash of the program's scalar globals (:func:`globals_layout`:
  the targets of every call's entry uses and every return's exit uses,
  and part of every procedure's entry domain), computed once per
  program and folded into every procedure's digest;
- the :class:`~repro.config.AnalysisConfig` fingerprint and
  :data:`ENGINE_CACHE_VERSION`, folded into every component's key;
- the *export* of every callee outside the procedure's call-graph
  component (:func:`procedure_export`): what a caller reads of it. That
  is its return summary (return jump functions and their demotions),
  its formals with their shapes, its result variable and its MOD set as
  a call binds it (:func:`procedure_interface`) — everything call-effect
  annotation, the return and forward builders and the SCCP call model
  read of a callee; none of them reads REF.

A component's key (:func:`component_key`) hashes its members' digests
with its outside callees' exports. This is early cutoff: an edit that
leaves a procedure's export unchanged — a literal in a local
computation, say — rebuilds that procedure only, not its callers. An
export is known only once its component's summaries were served or
rebuilt, so the engine keys each component when its bottom-up walk
reaches it (callees first).

The substitution namespace also salts with :func:`location_digest`,
which reads the same whether or not the procedure was ever annotated
or converted.

Variables are identity objects with process-local uids, so nothing
derived from a uid may enter a hash; every input above is spelled with
names, positions, and source text only.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.config import AnalysisConfig
from repro.frontend.source import UNKNOWN_LOCATION
from repro.ir.instructions import Phi
from repro.ir.module import Procedure, Program
from repro.ir.printer import format_procedure

#: Bump to invalidate every existing cache entry (payload schema changes,
#: semantics-affecting fixes in summary construction).
#: v2: run-level payloads grew ``stats``/``ir`` renderings, and the
#: ``man`` namespace (incremental manifests) joined the layout.
#: v3: entries are stored inside a ``{"sha256", "body"}`` integrity
#: wrapper, verified (and quarantined on mismatch) at read time.
#: v4: an entry is exactly ``{"sha256":"<hex>","body":<canonical body>}``
#: and reads hash the stored body bytes; ``run`` payloads no longer
#: carry provenance, which moved to a ``prov`` entry under the run key.
#: v5: summary keys hash the IR before annotation and SSA, and one
#: ``sum`` entry per procedure holds its return and forward summaries
#: (the ``ret`` and ``fwd`` namespaces are gone).
#: v6: a component's key hashes its outside callees' exports instead of
#: their keys, and a ``sum`` entry stores its return summary's hash.
#: v7: a file's ``sum`` and ``sub`` entries and its manifest live in one
#: pack per (path, config); the ``man`` namespace is gone.
ENGINE_CACHE_VERSION = 7


def _sha(parts: List[str]) -> str:
    """sha256 of ``parts``, each followed by a NUL byte."""
    text = "\x00".join(parts) + "\x00"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_fingerprint(config: AnalysisConfig) -> str:
    """Canonical hash of every semantic field of ``config``.

    ``verify_ir`` is excluded (it can only raise, never change a
    result); everything else — including the budget, whose exhaustion
    deterministically degrades summaries — is included.
    """
    budget = config.budget
    payload = {
        "jump_function": config.jump_function.value,
        "use_return_functions": config.use_return_functions,
        "use_mod": config.use_mod,
        "complete": config.complete,
        "interprocedural": config.interprocedural,
        "gcp_oracle": config.gcp_oracle,
        "solver_strategy": config.solver_strategy,
        "gsa_refinement": config.gsa_refinement,
        "fault_isolation": config.fault_isolation,
        "budget": [
            budget.solver_visits, budget.sccp_visits,
            budget.polynomial_terms, budget.polynomial_degree,
            budget.gsa_rounds, budget.dce_rounds,
        ],
    }
    return _sha([json.dumps(payload, sort_keys=True)])


def globals_layout(program: Program) -> str:
    """Hash of the program's scalar globals, in order: the targets of
    every call's entry uses and every return's exit uses, and part of
    every procedure's entry domain."""
    return _sha([json.dumps(
        [[v.common_block, v.name] for v in program.scalar_globals()]
    )])


def _shaped(variable) -> str:
    return f"{variable.name}()" if variable.is_array else variable.name


def procedure_digest(procedure: Procedure, layout: str) -> str:
    """Hash of one procedure's own content: its lowered IR (kind, name,
    blocks and instructions) as it is before call-effect annotation and
    SSA, its formals with their shapes, its result variable, the COMMON
    members it declares, and the program's :func:`globals_layout`.
    Annotation and SSA derive everything else of the procedure from
    these, the call graph and its callees' MOD sets (which their
    exports cover)."""
    return _sha([
        format_procedure(procedure),
        ",".join(_shaped(v) for v in procedure.formals),
        procedure.result_var.name if procedure.result_var is not None else "",
        ",".join(f"{v.common_block}/{v.name}"
                 for v in procedure.visible_globals),
        layout,
    ])


def procedure_interface(procedure: Procedure, modref) -> str:
    """Hash of what a caller reads of ``procedure`` besides its return
    summary: its formals with their shapes, its result variable, and
    its MOD set as a call binds it — the positions of the formals it
    may modify and the globals it may modify (``modref`` is None
    without MOD information, when a call kills every global and
    bindable actual whatever the callee does). Lowering checks every
    call against its callee's formals and kind, so a change of those
    also changes each caller's own IR; they are hashed here anyway,
    because the callers' summaries read them."""
    if modref is None:
        positions, modified = "", ""
    else:
        mod = modref.mod.get(procedure.name, ())
        positions = ",".join(
            str(index) for index, formal in enumerate(procedure.formals)
            if formal in mod
        )
        modified = ",".join(
            f"{v.common_block}/{_shaped(v)}"
            for v in modref.modified_globals(procedure.name)
        )
    return _sha([
        ",".join(_shaped(v) for v in procedure.formals),
        procedure.result_var.name if procedure.result_var is not None else "",
        positions,
        modified,
    ])


def procedure_export(interface: str, returns: str) -> str:
    """What a caller's summaries read of a procedure: its
    :func:`procedure_interface` and ``returns``, the hash of its
    encoded return summary (:func:`repro.engine.cache.payload_digest`
    of its functions and demotions)."""
    return _sha([interface, returns])


def component_key(config_hash: str, digests: List[str],
                  callee_exports: Dict[str, str]) -> str:
    """Key of one call-graph component's summaries: the cache version,
    ``config_hash`` (:func:`config_fingerprint`), its members' digests
    in component order, and the export of each callee outside it, by
    name. A lone member's key is its component key (its digest already
    names it); the members of a larger component, whose summaries are
    built together and read each other's, salt it with their names."""
    return _sha([f"v{ENGINE_CACHE_VERSION}", config_hash] + digests + [
        f"{name}={export}" for name, export in sorted(callee_exports.items())
    ])


def location_digest(procedure: Procedure) -> str:
    """Hash of every source coordinate the procedure's IR carries.

    Summary *semantics* are location-free — :func:`procedure_digest`
    excludes locations on purpose, so editing one procedure does not
    dirty the jump/return functions of procedures whose text merely
    moved down the file. But the substitution payload records absolute
    source coordinates for the transformed-source renderer, which go
    stale under exactly such shifts. The substitution cache key
    therefore salts the semantic key with this digest: a procedure
    whose text moved re-records its sites at the new coordinates while
    its return and forward summaries keep hitting.

    Phis and the location-less uses that call-effect annotation adds
    are skipped, so the digest is the same before annotation, after it
    and after SSA: the engine converts only the procedures it rebuilds.
    """
    parts: List[str] = []
    for block in procedure.cfg.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, Phi):
                continue
            parts.append(str(instruction.location))
            for use in instruction.uses():
                if use.location is not UNKNOWN_LOCATION:
                    parts.append(str(use.location))
    return _sha(parts)


def run_key(text: str, config: AnalysisConfig) -> str:
    """Key of one whole (source, config) analysis outcome."""
    return _sha(
        [f"v{ENGINE_CACHE_VERSION}", source_digest(text),
         config_fingerprint(config)]
    )


def opt_key(text: str, config: AnalysisConfig, passes) -> str:
    """Key of one whole (source, config, passes) optimization outcome —
    the ``opt`` cache namespace's analogue of :func:`run_key`."""
    return _sha([run_key(text, config), "opt", ",".join(passes)])
