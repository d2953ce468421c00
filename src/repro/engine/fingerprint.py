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
- the summaries of every (transitive) callee, folded in Merkle-style:
  an SCC's key hashes its members' digests together with the keys of
  the child SCCs it calls into. A callee's key covers its MOD set (a
  function of its own IR and its callees'), which is all that the
  call-effect annotation of its callers reads from it. Editing one
  procedure therefore invalidates exactly that procedure and its
  transitive callers.

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
ENGINE_CACHE_VERSION = 5


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


def procedure_digest(procedure: Procedure, layout: str) -> str:
    """Hash of one procedure's own content: its lowered IR (kind, name,
    blocks and instructions) as it is before call-effect annotation and
    SSA, its formals with their shapes, its result variable, the COMMON
    members it declares, and the program's :func:`globals_layout`.
    Annotation and SSA derive everything else of the procedure from
    these, the call graph and its callees' MOD sets (which their keys
    cover)."""
    return _sha([
        format_procedure(procedure),
        ",".join(
            f"{v.name}()" if v.is_array else v.name for v in procedure.formals
        ),
        procedure.result_var.name if procedure.result_var is not None else "",
        ",".join(f"{v.common_block}/{v.name}"
                 for v in procedure.visible_globals),
        layout,
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


def summary_index(
    program: Program, callgraph, config: AnalysisConfig
) -> Dict[str, Dict[str, str]]:
    """Per-procedure ``{"digest": ..., "key": ...}``, Merkle-folded.

    The ``digest`` is :func:`procedure_digest`; the ``key`` folds the
    cache version, the config fingerprint, the SCC's member digests,
    and the keys of the child components it calls into. Every member of
    one SCC shares the component hash (their summaries are built
    together and depend on each other); the member key salts it with
    the member's name (a lone member's key is the component hash, whose
    digest already names it). The incremental layer diffs two indexes
    of the same file to separate *edited* procedures (digest changed)
    from procedures that are merely *downstream* of an edit (key changed
    via a callee's key).

    Call it before any procedure is annotated (annotation and SSA show
    in the printed IR): the engine does, right after the call graph and
    MOD/REF.
    """
    salt = [f"v{ENGINE_CACHE_VERSION}", config_fingerprint(config)]
    layout = globals_layout(program)
    components = callgraph.sccs()  # reverse topological: callees first
    component_of: Dict[Procedure, int] = {}
    for index, component in enumerate(components):
        for member in component:
            component_of[member] = index
    component_keys: List[str] = []
    index_out: Dict[str, Dict[str, str]] = {}
    for index, component in enumerate(components):
        child_keys = sorted(
            {
                component_keys[component_of[callee]]
                for member in component
                for callee in callgraph.callees(member)
                if component_of[callee] != index
            }
        )
        digests = [procedure_digest(member, layout) for member in component]
        component_key = _sha(salt + digests + child_keys)
        component_keys.append(component_key)
        for member, digest in zip(component, digests):
            key = (component_key if len(component) == 1
                   else _sha([component_key, member.name]))
            index_out[member.name] = {"digest": digest, "key": key}
    return index_out


def summary_keys(
    program: Program, callgraph, config: AnalysisConfig
) -> Dict[str, str]:
    """One cache key per procedure (see :func:`summary_index`)."""
    return {
        name: entry["key"]
        for name, entry in summary_index(program, callgraph, config).items()
    }


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
