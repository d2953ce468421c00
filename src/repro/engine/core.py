"""The analysis engine: cached, incremental summary generation whose
results are byte-identical to the plain driver's.

An :class:`Engine` slots into :func:`repro.ipcp.driver.analyze_prepared`
and runs the three per-procedure pipeline stages — return jump
functions, forward jump functions, substitution measurement — in the
plain driver's own order (the SCCs of the call graph bottom-up, then
the procedures top-down, then program order), adding

1. a persistent content-addressed summary cache
   (:mod:`repro.engine.cache`) keyed by Merkle fingerprints
   (:mod:`repro.engine.fingerprint`), so unchanged procedures are never
   re-analyzed across runs;
2. timing and counting into a
   :class:`~repro.profiling.PipelineProfile` (``--profile``).

A summary is encoded (:mod:`repro.engine.summaries`) only to be stored
in the cache, and decoded only when read from it: a hit decodes into
the same structures, at the same position, that a fresh build fills,
so cached and fresh runs are byte-identical, and an engine with no
cache does exactly the plain driver's work.

The interprocedural solver, GSA refinement and complete propagation
stay in the driver (it passes ``engine=None`` under
``config.complete``). The per-procedure stages run serially; see "Why
per-procedure analysis is serial" in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.config import AnalysisConfig
from repro.engine import fingerprint, summaries
from repro.engine.cache import SummaryCache
from repro.engine.fingerprint import _sha
from repro.ir.module import Program
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.profiling import PipelineProfile


class Engine:
    """One engine instance drives one or more analysis runs, sharing
    its cache and profile across them. With no cache it does the plain
    driver's work (``--profile`` alone)."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        cache: Optional[SummaryCache] = None,
        profile: Optional[PipelineProfile] = None,
    ):
        if cache is None and cache_dir is not None:
            cache = SummaryCache(cache_dir)
        self.cache = cache
        self.profile = profile
        #: Optional cooperative-cancellation hook: called between SCCs
        #: and between procedures; raising aborts the run (the daemon
        #: sets this to its per-request deadline check).
        self.checkpoint: Optional[Callable[[], None]] = None
        self._program: Optional[Program] = None
        self._config: Optional[AnalysisConfig] = None
        self._reset_run()

    # -- lifecycle -----------------------------------------------------------

    def start(self, program: Program, config: AnalysisConfig) -> None:
        """Bind the engine to one analysis run. Per-run state resets
        here (and again whenever :meth:`_attach` sees a new program),
        so one engine can serve many runs."""
        self._program = program
        self._config = config
        self._reset_run()

    def _reset_run(self) -> None:
        self._attached: Optional[Program] = None
        self._keys: Optional[Dict[str, str]] = None
        self._index: Optional[Dict[str, Dict[str, str]]] = None
        self._loc_digests: Dict[str, str] = {}
        self._callgraph = None
        #: Procedure names whose summaries were actually (re)computed
        #: this run, per stage namespace — the incremental layer's
        #: ground truth that recomputation stayed inside the dirty set.
        self.recomputed: Dict[str, List[str]] = {
            "ret": [], "fwd": [], "sub": []
        }

    def close(self) -> None:
        """Release the last run's program and summary index; the cache
        handle stays usable."""
        self._program = None
        self._config = None
        self._reset_run()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- attachment (first stage call) ---------------------------------------

    def _attach(self, program: Program, callgraph, config: AnalysisConfig):
        """Late binding at the first stage call: the program is prepared
        (SSA form) by now, so summary keys can be computed. A program
        the engine has not seen resets all per-run state, so reuse
        without :meth:`start` is safe."""
        if self._attached is not program:
            self._reset_run()
            self._attached = program
        self._program = program
        self._config = config
        self._callgraph = callgraph
        if self._keys is None:
            with self.maybe_stage("fingerprint"):
                if self.cache is not None:
                    self._index = fingerprint.summary_index(
                        program, callgraph, config
                    )
                    self._keys = {
                        name: entry["key"]
                        for name, entry in self._index.items()
                    }
                else:
                    self._index = None
                    self._keys = {}

    def _check(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint()

    # -- profiling helpers ---------------------------------------------------

    def maybe_stage(self, name: str):
        from repro.profiling import maybe_stage

        return maybe_stage(self.profile, name)

    def _count(self, name: str, amount: int = 1) -> None:
        # The process-wide metrics registry is the single sink
        # (``--metrics`` works without ``--profile``); profiles absorb
        # these counts once, via a registry delta (batch) or a
        # global-counters merge at emission time (CLI analyze) —
        # counting into the profile here as well would double them.
        obs_metrics.inc(name, amount)

    # -- stage: return jump functions ----------------------------------------

    def return_functions(self, program, callgraph, modref, config, resilience):
        """Engine version of :func:`repro.ipcp.return_functions.
        build_return_functions`: the same bottom-up walk over
        ``callgraph.sccs()``. A component is served whole from the
        cache or built whole: its members see each other's partial
        summaries while they are built."""
        from repro.ipcp.return_functions import (
            ReturnFunctionMap,
            build_return_functions_for,
        )

        self._attach(program, callgraph, config)
        return_map = ReturnFunctionMap()
        for component in callgraph.sccs():
            self._check()
            names = [member.name for member in component]
            cached = self._lookup_members("ret", names)
            if cached is not None:
                for name in names:
                    for encoded in cached[name]["fns"]:
                        return_map.add(
                            summaries.decode_return_function(encoded, program)
                        )
                    summaries.apply_demotions(cached[name]["dem"], resilience)
                continue
            for member in component:
                mark = len(resilience.demotions)
                build_return_functions_for(
                    program, [member], return_map, modref,
                    budget=config.budget, resilience=resilience,
                    fault_isolation=config.fault_isolation,
                )
                if self.cache is not None:
                    self._store_member("ret", member.name, {
                        "fns": summaries.encode_return_functions_of(
                            return_map, member.name, program
                        ),
                        "dem": summaries.encode_demotions(
                            resilience.demotions[mark:]
                        ),
                    })
                self._note_recomputed("ret", member.name)
        return return_map

    # -- stage: forward jump functions ---------------------------------------

    def forward_functions(self, program, callgraph, config, return_map,
                          resilience):
        """Engine version of :func:`repro.ipcp.jump_functions.
        build_forward_jump_functions`: the same top-down walk, one
        procedure's call sites at a time."""
        from repro.ipcp.jump_functions import (
            JumpFunctionTable,
            build_forward_jump_functions_for,
        )

        self._attach(program, callgraph, config)
        table = JumpFunctionTable(config.jump_function)
        for procedure in callgraph.top_down_order():
            self._check()
            name = procedure.name
            cached = self._lookup_member("fwd", name)
            if cached is not None:
                for encoded in cached["fns"]:
                    table.add(
                        summaries.decode_forward_function(encoded, program)
                    )
                summaries.apply_demotions(cached["dem"], resilience)
                continue
            mark = len(resilience.demotions)
            build_forward_jump_functions_for(
                program, procedure, config.jump_function, table, return_map,
                gcp_oracle=config.gcp_oracle, budget=config.budget,
                resilience=resilience,
                fault_isolation=config.fault_isolation,
            )
            if self.cache is not None:
                self._store_member("fwd", name, {
                    "fns": summaries.encode_forward_functions_of(
                        table, procedure, program
                    ),
                    "dem": summaries.encode_demotions(
                        resilience.demotions[mark:]
                    ),
                })
            self._note_recomputed("fwd", name)
        return table

    # -- stage: substitution measurement -------------------------------------

    def substitution(self, program, callgraph, constants, call_model, config,
                     resilience):
        """Engine version of :func:`repro.ipcp.substitution.
        measure_substitution`, in program order. A report served from
        the cache carries no ``sccp_results`` (only complete
        propagation reads those, and the driver never routes complete
        propagation through the engine)."""
        from repro.ipcp.substitution import (
            SubstitutionReport,
            measure_substitution_for,
        )

        self._attach(program, callgraph, config)
        constants_payload = (
            summaries.encode_constants(constants, program)
            if self.cache is not None
            else None
        )
        report = SubstitutionReport()
        for procedure in program:
            self._check()
            name = procedure.name
            key = self._substitution_key(name, constants_payload)
            cached = self.cache.get("sub", key) if key is not None else None
            if cached is not None:
                self._count("summary_cache_hits")
                summaries.decode_substitution_into(
                    cached["sub"], procedure, report
                )
                summaries.apply_demotions(cached["dem"], resilience)
                continue
            mark = len(resilience.demotions)
            first_site = len(report.sites)
            measure_substitution_for(
                procedure, constants, call_model, report,
                budget=config.budget, resilience=resilience,
                fault_isolation=config.fault_isolation,
            )
            if key is not None:
                self._count("summary_cache_misses")
                self.cache.put("sub", key, {
                    "sub": summaries.encode_substitution_of(
                        report, name, first_site
                    ),
                    "dem": summaries.encode_demotions(
                        resilience.demotions[mark:]
                    ),
                })
                self._count("summary_cache_stores")
            self._note_recomputed("sub", name)
        return report

    # -- cache plumbing ------------------------------------------------------

    def _note_recomputed(self, namespace: str, name: str) -> None:
        self.recomputed[namespace].append(name)
        self._count(f"recomputed_{namespace}")

    def _lookup_member(self, namespace: str, name: str) -> Optional[dict]:
        if self.cache is None:
            return None
        data = self.cache.get(namespace, self._keys[name])
        if data is not None:
            self._count("summary_cache_hits")
        else:
            self._count("summary_cache_misses")
        if trace.ENABLED:
            trace.instant(
                "cache.hit" if data is not None else "cache.miss",
                namespace=namespace, procedure=name,
            )
        return data

    def _lookup_members(
        self, namespace: str, names: List[str]
    ) -> Optional[Dict[str, dict]]:
        """All-or-nothing lookup of one SCC: a component's members are
        built together, so a partial hit is recomputed whole."""
        if self.cache is None:
            return None
        found: Dict[str, dict] = {}
        for name in names:
            data = self._lookup_member(namespace, name)
            if data is None:
                return None
            found[name] = data
        return found

    def _store_member(self, namespace: str, name: str, data: dict) -> None:
        self.cache.put(namespace, self._keys[name], data)
        self._count("summary_cache_stores")

    def _substitution_key(
        self, name: str, constants_payload: Optional[dict]
    ) -> Optional[str]:
        """Substitution depends on the callee summaries (the member key)
        *and* on the procedure's CONSTANTS cells — which reflect the
        whole program, callers included — so the key salts the member
        key with the encoded VAL cells. It also folds in the
        procedure's source-location digest: substitution payloads carry
        absolute coordinates for the transformed-source renderer, which
        a line-shifting edit elsewhere in the file silently invalidates
        even though the procedure's semantics (and semantic key) are
        untouched."""
        if self.cache is None:
            return None
        location = self._loc_digests.get(name)
        if location is None:
            location = fingerprint.location_digest(
                self._program.procedure(name)
            )
            self._loc_digests[name] = location
        return _sha(
            ["sub", self._keys[name], location,
             json.dumps(constants_payload.get(name, []))]
        )

    # -- incremental manifests -----------------------------------------------

    def finish_incremental(self, path: str):
        """Diff this run's summary index against the previous manifest
        for ``path`` and persist the new manifest. Returns an
        :class:`~repro.engine.incremental.InvalidationReport`, or None
        when no cache (and hence no manifest history) is attached.

        Call after the analysis completed, while the engine is still
        attached to the run's program.
        """
        if self.cache is None or self._index is None:
            return None
        from repro.engine import incremental

        key = incremental.manifest_key(path, self._config)
        previous = self.cache.get(incremental.MANIFEST_NAMESPACE, key)
        report = incremental.diff_manifest(
            path, previous, self._index, self._callgraph
        )
        self.cache.put(
            incremental.MANIFEST_NAMESPACE,
            key,
            incremental.build_manifest(self._index),
        )
        self._count("incremental_dirty", len(report.dirty))
        self._count("incremental_clean", len(report.clean))
        if trace.ENABLED and report.dirty:
            trace.instant(
                "cache.stale", path=path,
                dirty=len(report.dirty), clean=len(report.clean),
            )
        return report

    def replayed_report(self, path: str):
        """The invalidation report for a run served entirely from the
        run-level cache: the source is unchanged, nothing recomputed."""
        from repro.engine.incremental import InvalidationReport

        return InvalidationReport(path=path, replayed=True)

    # -- whole-run result cache ----------------------------------------------

    def cached_run(self, text: str, config: AnalysisConfig,
                   explain: bool = False) -> Optional[dict]:
        """Look up a whole (source, config) outcome — the CLI fast path
        that skips parsing entirely on an unchanged input. With
        ``explain``, a hit also carries ``provenance`` from
        :meth:`cached_provenance` (None when that entry is missing or
        quarantined); plain replays never read it."""
        if self.cache is None:
            return None
        payload = self.cache.get("run", fingerprint.run_key(text, config))
        if payload is not None:
            self._count("run_cache_hits")
        else:
            self._count("run_cache_misses")
        if trace.ENABLED:
            trace.instant(
                "run_cache.hit" if payload is not None else "run_cache.miss"
            )
        if payload is not None and explain:
            payload["provenance"] = self.cached_provenance(text, config)
        return payload

    def cached_provenance(self, text: str,
                          config: AnalysisConfig) -> Optional[dict]:
        """The ``--explain`` provenance payload recorded with a run: its
        own ``prov`` entry under the run key, or None."""
        if self.cache is None:
            return None
        return self.cache.get("prov", fingerprint.run_key(text, config))

    def record_run(self, text: str, config: AnalysisConfig, result,
                   provenance=None) -> None:
        """Record a *clean* run's render-ready outcome. Runs with
        demotions or diagnostics are never recorded: their output
        depends on more than (source, config) content.

        Besides the constants report, the ``run`` payload carries the
        renderings every replayable CLI mode needs — the transformed
        source, the ``--stats`` table, and the ``--dump-ir`` text — so a
        warm replay can serve those flags without re-analyzing. The
        ``--explain`` provenance, most of a run's bytes, goes to its own
        ``prov`` entry under the same key. Pass ``provenance`` (a
        :class:`~repro.obs.provenance.ConstantProvenance` of ``result``)
        when the caller already built it; it must carry no ``used_by``
        annotations, which only optimized (never recorded) runs add.
        """
        if self.cache is None:
            return
        if result.resilience.demotions:
            return
        if result.diagnostics is not None and result.diagnostics.diagnostics:
            return
        payload = {
            "config": config.describe(),
            "constants_report": result.constants.format_report(),
            "total_pairs": result.constants.total_pairs(),
            "substituted": result.substitution.total,
            "per_procedure": dict(result.substitution.per_procedure),
            "transformed_source": (
                result.transformed_source()
                if result.program.source is not None
                else None
            ),
            "stats": self._render_stats(result),
            "ir": self._render_ir(result),
        }
        key = fingerprint.run_key(text, config)
        provenance_payload = (
            provenance.to_payload()
            if provenance is not None
            else self._render_provenance(result)
        )
        if provenance_payload is not None:
            self.cache.put("prov", key, provenance_payload)
        self.cache.put("run", key, payload)
        self._count("run_cache_stores")

    def forget_run(self, text: str, config: AnalysisConfig) -> bool:
        """Evict a recorded run (its ``run`` and ``prov`` entries) — the
        daemon's ``invalidate`` op. True when a run entry existed."""
        if self.cache is None:
            return False
        key = fingerprint.run_key(text, config)
        self.cache.delete("prov", key)
        return self.cache.delete("run", key)

    def cached_opt(self, text: str, config: AnalysisConfig,
                   passes) -> Optional[dict]:
        """Look up a whole (source, config, passes) optimization outcome
        — the ``repro optimize`` fast path replaying the optimized IR
        and report byte-identically on an unchanged input."""
        if self.cache is None:
            return None
        payload = self.cache.get(
            "opt", fingerprint.opt_key(text, config, passes)
        )
        if payload is not None:
            self._count("opt_cache_hits")
        else:
            self._count("opt_cache_misses")
        if trace.ENABLED:
            trace.instant(
                "opt_cache.hit" if payload is not None else "opt_cache.miss"
            )
        return payload

    def record_opt(self, text: str, config: AnalysisConfig, passes,
                   result, report) -> None:
        """Record a clean optimization run: the rendered report, the
        optimized (destructed) IR, and the pass statistics. The same
        cleanliness rule as :meth:`record_run` applies — degraded runs
        depend on more than (source, config, passes) content."""
        if self.cache is None:
            return
        if result.resilience.demotions:
            return
        if result.diagnostics is not None and result.diagnostics.diagnostics:
            return
        payload = {
            "config": config.describe(),
            "passes": list(passes),
            "report": report.render(),
            "opt": report.to_payload(),
            "ir": self._render_ir(result),
        }
        self.cache.put(
            "opt", fingerprint.opt_key(text, config, passes), payload
        )
        self._count("opt_cache_stores")

    @staticmethod
    def _render_stats(result) -> Optional[str]:
        from repro.ipcp.stats import collect_statistics

        try:
            return collect_statistics(result).format()
        except Exception:  # noqa: BLE001 — a failed rendering only
            return None  # narrows what the replay can serve

    @staticmethod
    def _render_ir(result) -> Optional[str]:
        from repro.ir.printer import format_program

        try:
            return format_program(result.program)
        except Exception:  # noqa: BLE001
            return None

    @staticmethod
    def _render_provenance(result) -> Optional[dict]:
        from repro.obs.provenance import build_provenance

        try:
            return build_provenance(result).to_payload()
        except Exception:  # noqa: BLE001 — narrows what --explain can
            return None  # serve from a replay, same as stats/ir

    # -- reporting -----------------------------------------------------------

    def finish_profile(self) -> None:
        """Fold cache statistics into the profile's counters."""
        if self.profile is None or self.cache is None:
            return
        stats = self.cache.stats
        self.profile.set_counter("cache_lookups", stats.lookups)
        self.profile.set_counter("cache_hits", stats.hits)
        self.profile.set_counter("cache_misses", stats.misses)
        self.profile.set_counter("cache_stores", stats.stores)
