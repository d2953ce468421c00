"""Content-addressed cache keys for procedure summaries.

The summary cache must never serve a stale answer, so keys are *content
hashes* over everything a summary's value can depend on:

- the procedure's post-SSA IR text (:func:`repro.ir.printer.
  format_procedure`), plus the call-effect annotations the printer
  omits (``entry_uses``), the formal list, the result variable, and the
  program's scalar-global layout (which shapes return-function targets
  and entry domains);
- the :class:`~repro.config.AnalysisConfig` fingerprint — every
  semantic knob, serialized canonically;
- the summaries of every (transitive) callee, folded in Merkle-style:
  an SCC's key hashes its members' IR digests together with the keys of
  the child SCCs it calls into. Editing one procedure therefore
  invalidates exactly that procedure and its transitive callers;
- :data:`ENGINE_CACHE_VERSION`, bumped whenever the serialized payload
  format changes.

Variables are identity objects with process-local uids, so nothing
derived from a uid may enter a hash; every input above is spelled with
names, positions, and source text only.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.config import AnalysisConfig
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
ENGINE_CACHE_VERSION = 4


def _sha(parts: List[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


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


def _globals_signature(program: Program) -> str:
    return json.dumps(
        [[v.common_block, v.name] for v in program.scalar_globals()]
    )


def procedure_digest(procedure: Procedure, program: Program) -> str:
    """Hash of one procedure's analysis-relevant content (post-SSA)."""
    parts = [format_procedure(procedure)]
    for call in procedure.call_sites():
        parts.append(",".join(use.var.name for use in call.entry_uses))
        parts.append(
            ",".join(d.var.name for d in call.may_define)
        )
    parts.append(",".join(v.name for v in procedure.formals))
    parts.append(
        procedure.result_var.name if procedure.result_var is not None else ""
    )
    parts.append(_globals_signature(program))
    return _sha(parts)


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
    its ret/fwd summaries keep hitting.
    """
    parts: List[str] = []
    for block in procedure.cfg.blocks:
        for instruction in block.instructions:
            parts.append(str(instruction.location))
            for use in instruction.uses():
                parts.append(str(use.location))
    return _sha(parts)


def summary_index(
    program: Program, callgraph, config: AnalysisConfig
) -> Dict[str, Dict[str, str]]:
    """Per-procedure ``{"digest": ..., "key": ...}``, Merkle-folded.

    The ``digest`` is the procedure's own post-SSA content hash; the
    ``key`` folds the cache version, the config fingerprint, the SCC's
    member digests, and the keys of the child components it calls into.
    Every member of one SCC shares the component hash (their summaries
    are built together and depend on each other); the member key salts
    it with the member's name. The incremental layer diffs two indexes
    of the same file to separate *edited* procedures (digest changed)
    from procedures that are merely *downstream* of an edit (key changed
    via a callee's key).
    """
    config_fp = config_fingerprint(config)
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
        digests = [procedure_digest(member, program) for member in component]
        component_key = _sha(
            [f"v{ENGINE_CACHE_VERSION}", config_fp] + digests + child_keys
        )
        component_keys.append(component_key)
        for member, digest in zip(component, digests):
            index_out[member.name] = {
                "digest": digest,
                "key": _sha([component_key, member.name]),
            }
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
