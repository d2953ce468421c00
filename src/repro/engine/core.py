"""The analysis engine: cached, incremental summary generation whose
results are byte-identical to the plain driver's.

An :class:`Engine` slots into :func:`repro.ipcp.driver.analyze_prepared`
and runs the three per-procedure pipeline stages — return jump
functions, forward jump functions, substitution measurement — in the
plain driver's own order (the SCCs of the call graph bottom-up, then
the procedures top-down, then program order), adding a persistent
summary cache (:mod:`repro.engine.cache`), so unchanged procedures are
never re-analyzed across runs.

Keys cut off early (:mod:`repro.engine.fingerprint`): a component's key
hashes its members' IR before call-effect annotation and SSA, and the
*export* of every callee outside it — its return summary, interface and
MOD set as a call binds it — not the callee's key. An edit therefore
rebuilds a caller only when what the caller reads of it changed.
:meth:`Engine.start` computes the digests and interfaces right after
the call graph and MOD/REF; the bottom-up return walk keys each
component when it reaches it, since its callees' exports are known by
then (a configuration without return functions keys every component
up front). A procedure is annotated and converted to SSA form
(:meth:`~repro.ipcp.driver.PreparedProgram.convert`) only when one of
its summaries misses.

Summaries are kept per analyzed file: :meth:`Engine.start` takes the
run's path (the file, or a linked project's label) and verifies that
path's previous pack once (:meth:`~repro.engine.cache.SummaryCache.
read_pack`); the walks look each summary up in it under its key. The
run streams its own pack (:class:`~repro.engine.cache.PackWriter`):
every entry it served is copied as bytes, every entry it rebuilt is
encoded once, and :meth:`Engine.finish` appends the run's manifest and
renames the pack into place when the run ends — or, keeping the
previous manifest and the entries it did not reach, when the run
aborts. :meth:`Engine.finish_incremental` then diffs the manifest read
at start against the new one without touching the cache.

A procedure's return and forward summaries are one ``sum`` entry under
its key, which also stores the return summary's hash, so a hit yields
the procedure's export without re-encoding anything. The return walk
reads the entry, decodes both halves and keeps the forward functions
for the forward walk, and the forward walk writes the entries of the
procedures it rebuilt. Return summaries still unwritten when a run ends
early, or that has no forward stage, are written return-only; the
forward walk completes such an entry.

The engine also keeps parsed program units across runs
(:mod:`repro.frontend.unit_memo`): the driver and the linker parse
through :meth:`Engine.parse`, so an edit re-parses only the units it
changed. The source-location digest of each unit's procedure (part of
its ``sub`` key) is kept with the unit, so it is computed again only
for re-parsed units.

A summary is encoded (:mod:`repro.engine.summaries`) only to be stored
in the cache, and decoded only when read from it: a hit decodes into
the same structures, at the same position, that a fresh build fills,
so cached and fresh runs are byte-identical, and an engine with no
cache does exactly the plain driver's work — it does not even load the
cache modules (``cache``, ``fingerprint``, ``summaries``,
``incremental``).

The interprocedural solver, GSA refinement and complete propagation
stay in the driver (it passes ``engine=None`` under
``config.complete``). The per-procedure stages run serially; see "Why
per-procedure analysis is serial" in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.config import AnalysisConfig
from repro.frontend.unit_memo import UnitMemo
from repro.obs import metrics as obs_metrics
from repro.obs import trace

if TYPE_CHECKING:
    from repro.engine.cache import SummaryCache


class Engine:
    """One engine instance drives one or more analysis runs, sharing
    its cache and its parsed units across them. With no cache it does
    the plain driver's work."""

    #: The pack namespaces of the per-procedure return and forward
    #: summaries, and of the substitution measurements.
    SUMMARIES = "sum"
    SUBSTITUTIONS = "sub"

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        cache: Optional[SummaryCache] = None,
    ):
        if cache is None and cache_dir is not None:
            from repro.engine.cache import SummaryCache

            cache = SummaryCache(cache_dir)
        self.cache = cache
        #: Optional cooperative-cancellation hook: called between SCCs
        #: and between procedures; raising aborts the run (the daemon
        #: sets this to its per-request deadline check).
        self.checkpoint: Optional[Callable[[], None]] = None
        self._units = UnitMemo()
        #: Units parsed since the last run started, by name.
        self._parsed: Dict[str, object] = {}
        self._pack = None
        self._reset_run()

    # -- lifecycle -----------------------------------------------------------

    def start(self, prepared, config: AnalysisConfig,
              path: str = "<string>") -> None:
        """Bind the engine to one analysis run of ``prepared`` (a
        :class:`~repro.ipcp.driver.PreparedProgram` with no procedure
        converted yet) and, with a cache, read ``path``'s pack and
        compute every procedure's digest and interface. Per-run state
        resets here, so one engine can serve many runs; ``path`` is the
        analyzed file, or a linked project's label."""
        parsed, self._parsed = self._parsed, {}
        self._reset_run()
        self._prepared = prepared
        self._config = config
        if self.cache is None:
            return
        from repro.engine import fingerprint
        from repro.engine.incremental import manifest_key

        self._unit_of = parsed
        key = manifest_key(path, config)
        self._pack = self.cache.read_pack(key)
        self._writer = self.cache.pack_writer(key)
        with trace.stage("fingerprint"):
            program = prepared.program
            layout = fingerprint.globals_layout(program)
            self._config_hash = fingerprint.config_fingerprint(config)
            for procedure in program:
                self._digests[procedure.name] = fingerprint.procedure_digest(
                    procedure, layout
                )
                self._interfaces[procedure.name] = (
                    fingerprint.procedure_interface(procedure, prepared.modref)
                )
            if not config.use_return_functions:
                # No return summaries: every export is known now.
                for component in prepared.callgraph.sccs():
                    self._key_component(component)
                    for member in component:
                        self._export(member.name, "")

    def finish(self, aborted: bool = False) -> None:
        """End the run: write its pack, with the run's manifest, and
        rename it into place. An ``aborted`` run keeps the previous
        manifest and copies the previous pack's entries it did not
        reach, so a retry rebuilds only what is still missing. Either
        way the previous pack is released."""
        writer, self._writer = self._writer, None
        if writer is None:
            return
        previous, self._pack = self._pack, None
        if previous is not None:
            kept = previous.manifest()
            if aborted:
                for namespace, key, body in previous.items():
                    if (namespace, key) not in writer:
                        writer.copy(namespace, key, body)
            previous.close()
            del previous  # the index is no longer needed
            self._previous = json.loads(kept) if kept is not None else None
        if aborted:
            writer.commit(self._previous)
            return
        from repro.engine.incremental import build_manifest

        self._manifest = build_manifest(self.summary_index())
        writer.commit(self._manifest)

    def _reset_run(self) -> None:
        self._prepared = None
        self._config: Optional[AnalysisConfig] = None
        self._config_hash = ""
        #: The path's previous pack (until :meth:`finish`), the writer
        #: of this run's, and the manifests :meth:`finish` leaves for
        #: :meth:`finish_incremental`.
        if self._pack is not None:
            self._pack.close()
        self._pack = None
        self._writer = None
        self._previous: Optional[dict] = None
        self._manifest: Optional[dict] = None
        #: This run's parsed units by procedure name.
        self._unit_of: Dict[str, object] = {}
        #: Per procedure: its digest and interface (from :meth:`start`),
        #: its key (once the walk reached its component) and its export
        #: (once its return summary was served or rebuilt).
        self._digests: Dict[str, str] = {}
        self._interfaces: Dict[str, str] = {}
        self._keys: Dict[str, str] = {}
        self._exports: Dict[str, str] = {}
        self._loc_digests: Dict[str, str] = {}
        #: Procedures whose ``sum`` entry the return walk read (a hit or
        #: a miss), so the forward walk does not read it again.
        self._read: Set[str] = set()
        #: Forward functions and demotions decoded by the return walk,
        #: added to the table in the forward walk's order.
        self._forward: Dict[str, Tuple[list, list]] = {}
        #: The return half (``ret`` and its hash ``rh``) of entries not
        #: yet written: built this run, or read from a return-only entry.
        self._returns: Dict[str, dict] = {}
        #: Procedure names whose summaries were actually (re)computed
        #: this run, per stage namespace — the incremental layer's
        #: ground truth that recomputation stayed inside the dirty set.
        self.recomputed: Dict[str, List[str]] = {
            "ret": [], "fwd": [], "sub": []
        }

    def close(self) -> None:
        """Release the last run's program, call graph and keys;
        the cache handle and the parsed units stay usable.
        :func:`repro.pipeline.run` calls this once a run's manifest is
        written, so a daemon holds no finished run between requests."""
        self._parsed = {}
        self._reset_run()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- parsing -------------------------------------------------------------

    def parse(self, text: str, filename: str = "<string>",
              diagnostics=None):
        """:func:`repro.frontend.parser.parse_source`, reusing the units
        this engine parsed before under ``filename``
        (:class:`~repro.frontend.unit_memo.UnitMemo`)."""
        module = self._units.parse(text, filename, diagnostics)
        if self.cache is not None:
            for unit in module.units:
                self._parsed[unit.name] = unit
        return module

    def _check(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint()

    # -- stage: return jump functions ----------------------------------------

    def return_functions(self, prepared, config, resilience):
        """Engine version of :func:`repro.ipcp.return_functions.
        build_return_functions`: the same bottom-up walk over
        ``callgraph.sccs()``, keying each component on the exports of
        the callees already walked. A component is served whole from
        the cache or built whole: its members see each other's partial
        summaries while they are built."""
        from repro.ipcp.return_functions import (
            ReturnFunctionMap,
            build_return_functions_for,
        )

        program = prepared.program
        return_map = ReturnFunctionMap()
        try:
            for component in prepared.callgraph.sccs():
                self._check()
                if self.cache is not None:
                    self._key_component(component)
                cached = self._lookup_component(component, program)
                if cached is not None:
                    self._serve_returns(
                        component, cached, return_map, program, resilience
                    )
                    continue
                for member in component:
                    prepared.convert(member)
                for member in component:
                    mark = len(resilience.demotions)
                    build_return_functions_for(
                        program, [member], return_map, prepared.modref,
                        budget=config.budget, resilience=resilience,
                        fault_isolation=config.fault_isolation,
                    )
                    if self.cache is not None:
                        self._keep_returns(
                            member.name, return_map, program,
                            resilience.demotions[mark:],
                        )
                    self._note_recomputed("ret", member.name)
        except BaseException:
            self._write_returns()
            raise
        if not config.interprocedural:
            self._write_returns()
        return return_map

    def _serve_returns(self, component, cached, return_map, program,
                       resilience) -> None:
        """Add a component's cached return summaries to ``return_map``
        and note its members' exports."""
        from repro.engine import summaries

        for member in component:
            entry = cached[member.name]
            for encoded in entry["ret"]["fns"]:
                return_map.add(summaries.decode_return_function(
                    encoded, program
                ))
            summaries.apply_demotions(entry["ret"]["dem"], resilience)
            self._export(member.name, entry["rh"])

    def _keep_returns(self, name: str, return_map, program,
                      demotions) -> None:
        """Encode ``name``'s freshly built return summary, keep it for
        its entry and note its export."""
        from repro.engine import summaries
        from repro.engine.cache import payload_digest

        ret = {
            "fns": summaries.encode_return_functions_of(
                return_map, name, program
            ),
            "dem": summaries.encode_demotions(demotions),
        }
        rh = payload_digest(ret)
        self._returns[name] = {"ret": ret, "rh": rh}
        self._export(name, rh)

    def _key_component(self, component) -> None:
        """Key ``component`` on its members' digests and the exports of
        the callees outside it (walked before it, bottom-up)."""
        from repro.engine.fingerprint import _sha, component_key

        names = {member.name for member in component}
        callgraph = self._prepared.callgraph
        key = component_key(
            self._config_hash,
            [self._digests[member.name] for member in component],
            {
                callee.name: self._exports[callee.name]
                for member in component
                for callee in callgraph.callees(member)
                if callee.name not in names
            },
        )
        for member in component:
            self._keys[member.name] = (
                key if len(component) == 1 else _sha([key, member.name])
            )

    def _export(self, name: str, returns: str) -> None:
        from repro.engine.fingerprint import procedure_export

        self._exports[name] = procedure_export(
            self._interfaces[name], returns
        )

    def _lookup_component(self, component,
                          program) -> Optional[Dict[str, dict]]:
        """All-or-nothing lookup of one SCC's return summaries: a
        component's members are built together, so a partial hit is
        recomputed whole. Every entry read keeps its forward half (or,
        return-only, its return half) for the forward walk."""
        found: Dict[str, dict] = {}
        for member in component:
            name = member.name
            self._read.add(name)
            entry = self._get(name)
            if entry is None or "ret" not in entry:
                return None
            if "fwd" in entry:
                self._forward[name] = self._decode_forward(
                    entry["fwd"], member, program
                )
            else:
                self._returns[name] = entry
            found[name] = entry
        return found

    # -- stage: forward jump functions ---------------------------------------

    def forward_functions(self, prepared, config, return_map, resilience):
        """Engine version of :func:`repro.ipcp.jump_functions.
        build_forward_jump_functions`: the same top-down walk, one
        procedure's call sites at a time."""
        from repro.ipcp.jump_functions import (
            JumpFunctionTable,
            build_forward_jump_functions_for,
        )

        program = prepared.program
        table = JumpFunctionTable(config.jump_function)
        try:
            for procedure in prepared.callgraph.top_down_order():
                self._check()
                name = procedure.name
                decoded = self._forward.pop(name, None)
                if decoded is None and name not in self._read:
                    entry = self._get(name)
                    if entry is not None and "fwd" in entry:
                        decoded = self._decode_forward(
                            entry["fwd"], procedure, program
                        )
                    elif entry is not None and "ret" in entry:
                        self._returns[name] = entry
                if decoded is not None:
                    functions, demotions = decoded
                    for function in functions:
                        table.add(function)
                    for demotion in demotions:
                        resilience.record(*demotion)
                    # Its entry already holds the return half.
                    self._returns.pop(name, None)
                    continue
                prepared.convert(procedure)
                mark = len(resilience.demotions)
                build_forward_jump_functions_for(
                    program, procedure, config.jump_function, table,
                    return_map, gcp_oracle=config.gcp_oracle,
                    budget=config.budget, resilience=resilience,
                    fault_isolation=config.fault_isolation,
                )
                if self.cache is not None:
                    self._keep_forward(
                        procedure, table, program,
                        resilience.demotions[mark:],
                    )
                self._note_recomputed("fwd", name)
        finally:
            self._forward.clear()
            self._write_returns()
        return table

    def _keep_forward(self, procedure, table, program, demotions) -> None:
        """Write ``procedure``'s entry with its freshly built forward
        functions (and its return half, if it has one)."""
        from repro.engine import summaries

        self._put(procedure.name, self._returns.pop(procedure.name, None), {
            "fns": summaries.encode_forward_functions_of(
                table, procedure, program
            ),
            "dem": summaries.encode_demotions(demotions),
        })

    @staticmethod
    def _decode_forward(part: dict, procedure,
                        program) -> Tuple[list, list]:
        from repro.engine import summaries

        calls = procedure.call_sites()
        return (
            [summaries.decode_forward_function(encoded, program, calls)
             for encoded in part["fns"]],
            part["dem"],
        )

    # -- stage: substitution measurement -------------------------------------

    def substitution(self, prepared, constants, call_model, config,
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

        program = prepared.program
        constants_payload = None
        if self.cache is not None:
            from repro.engine.summaries import encode_constants

            constants_payload = encode_constants(constants, program)
        report = SubstitutionReport()
        for procedure in program:
            self._check()
            name = procedure.name
            key = None
            if constants_payload is not None:
                key = self._substitution_key(procedure, constants_payload)
                if self._serve_substitution(key, procedure, report,
                                            resilience):
                    continue
            prepared.convert(procedure)
            mark = len(resilience.demotions)
            first_site = len(report.sites)
            measure_substitution_for(
                procedure, constants, call_model, report,
                budget=config.budget, resilience=resilience,
                fault_isolation=config.fault_isolation,
            )
            if key is not None:
                self._keep_substitution(
                    key, name, report, first_site,
                    resilience.demotions[mark:],
                )
            self._note_recomputed("sub", name)
        return report

    def _serve_substitution(self, key: str, procedure, report,
                            resilience) -> bool:
        """Add ``procedure``'s cached substitution sites to ``report``;
        False when its entry misses."""
        found = self._lookup(self.SUBSTITUTIONS, key)
        if found is None:
            return False
        from repro.engine import summaries

        entry, body = found
        self._writer.copy(self.SUBSTITUTIONS, key, body)
        summaries.decode_substitution_into(entry["sub"], procedure, report)
        summaries.apply_demotions(entry["dem"], resilience)
        return True

    def _keep_substitution(self, key: str, name: str, report,
                           first_site: int, demotions) -> None:
        from repro.engine import summaries

        self._writer.put(self.SUBSTITUTIONS, key, {
            "sub": summaries.encode_substitution_of(report, name, first_site),
            "dem": summaries.encode_demotions(demotions),
        })
        obs_metrics.inc("summary_cache_stores")

    # -- cache plumbing ------------------------------------------------------

    def _note_recomputed(self, namespace: str, name: str) -> None:
        self.recomputed[namespace].append(name)
        obs_metrics.inc(f"recomputed_{namespace}")

    def _lookup(self, namespace: str,
                key: str) -> Optional[Tuple[dict, bytes]]:
        """``(payload, body)`` of the previous pack's entry under
        ``key``, or None; counted as a hit or a miss."""
        body = None
        if self._pack is not None:
            body = self._pack.body(namespace, key)
        if body is None:
            obs_metrics.inc("summary_cache_misses")
            return None
        obs_metrics.inc("summary_cache_hits")
        return json.loads(body), body

    def _get(self, name: str) -> Optional[dict]:
        """The ``sum`` entry of ``name``, or None (also with no cache).
        An entry with its forward half is complete: it goes to the new
        pack as it is."""
        if self.cache is None:
            return None
        key = self._keys[name]
        found = self._lookup(self.SUMMARIES, key)
        if trace.ENABLED:
            trace.instant(
                "cache.hit" if found is not None else "cache.miss",
                namespace=self.SUMMARIES, procedure=name,
            )
        if found is None:
            return None
        entry, body = found
        if "fwd" in entry:
            self._writer.copy(self.SUMMARIES, key, body)
        return entry

    def _put(self, name: str, returns: Optional[dict],
             fwd: Optional[dict]) -> None:
        """Write ``name``'s entry: ``returns``, its return half (``ret``
        and ``rh``), and ``fwd``, its forward half, either may be
        None."""
        entry = dict(returns) if returns is not None else {}
        if fwd is not None:
            entry["fwd"] = fwd
        self._writer.put(self.SUMMARIES, self._keys[name], entry)
        obs_metrics.inc("summary_cache_stores")

    def _write_returns(self) -> None:
        """Write the return summaries no forward walk completed, as
        return-only entries."""
        returns, self._returns = self._returns, {}
        for name, half in returns.items():
            self._put(name, half, None)

    def _substitution_key(self, procedure, constants_payload: dict) -> str:
        """Substitution depends on the callee summaries (the member key)
        *and* on the procedure's CONSTANTS cells — which reflect the
        whole program, callers included — so the key salts the member
        key with the encoded VAL cells. It also folds in the
        procedure's source-location digest: substitution payloads carry
        absolute coordinates for the transformed-source renderer, which
        a line-shifting edit elsewhere in the file silently invalidates
        even though the procedure's semantics (and semantic key) are
        untouched."""
        from repro.engine.fingerprint import _sha

        name = procedure.name
        return _sha(
            ["sub", self._keys[name], self._location(procedure),
             json.dumps(constants_payload.get(name, []))]
        )

    def _location(self, procedure) -> str:
        """The procedure's :func:`~repro.engine.fingerprint.
        location_digest`, kept with the parsed unit it was lowered from
        (``ProcedureUnit.derived``). A unit the memo reused sits at the
        same lines of the same file, so its procedure carries the same
        coordinates whenever it lowers to the same IR: the kept bytes
        are the first 8 bytes of that IR's digest, then the location
        digest (40 bytes a unit, kept as long as the memo keeps it)."""
        from repro.engine.fingerprint import location_digest

        name = procedure.name
        location = self._loc_digests.get(name)
        if location is not None:
            return location
        check = bytes.fromhex(self._digests[name][:16])
        unit = self._unit_of.get(name)
        kept = unit.derived if unit is not None else None
        if kept is not None and kept[:8] == check:
            location = kept[8:].hex()
        else:
            location = location_digest(procedure)
            if unit is not None:
                unit.derived = check + bytes.fromhex(location)
        self._loc_digests[name] = location
        return location

    # -- incremental manifests -----------------------------------------------

    def summary_index(self) -> Dict[str, Dict[str, str]]:
        """Per procedure of the current run, its ``digest``, ``key`` and
        ``export`` (:mod:`repro.engine.fingerprint`); empty with no
        cache. Complete once the run's summaries were built."""
        return {
            name: {
                "digest": digest,
                "key": self._keys[name],
                "export": self._exports[name],
            }
            for name, digest in self._digests.items()
        }

    def finish_incremental(self, path: str):
        """Diff the manifest of ``path``'s previous run (read with its
        pack when this run started) against this run's, which
        :meth:`finish` stored in the new pack. Returns an
        :class:`~repro.engine.incremental.InvalidationReport`, or None
        when no cache (and hence no manifest history) is attached.

        Call after the run finished, while the engine is still attached
        to the run's program; it reads and writes nothing.
        """
        if self.cache is None or self._manifest is None:
            return None
        from repro.engine import incremental

        report = incremental.diff_manifest(
            path, self._previous, self._manifest, self._prepared.callgraph
        )
        obs_metrics.inc("incremental_dirty", len(report.dirty))
        obs_metrics.inc("incremental_clean", len(report.clean))
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
        from repro.engine.fingerprint import run_key

        payload = self.cache.get("run", run_key(text, config))
        if payload is not None:
            obs_metrics.inc("run_cache_hits")
        else:
            obs_metrics.inc("run_cache_misses")
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
        from repro.engine.fingerprint import run_key

        return self.cache.get("prov", run_key(text, config))

    def record_run(self, text: str, config: AnalysisConfig, result,
                   payload: dict, provenance=None) -> None:
        """Record a *clean* run's outcome: ``payload``, the sections the
        request rendered (the constants report and counts, plus any of
        ``transformed_source``, ``ir`` and ``stats``), as
        :func:`repro.pipeline.run` built them. Nothing is rendered here;
        a later request that needs a section this entry lacks runs live
        and records it. Runs with demotions or diagnostics are never
        recorded: their output depends on more than (source, config)
        content.

        The ``--explain`` provenance, most of a run's bytes, goes to its
        own ``prov`` entry under the same key, written only for a
        request that asked for it: pass ``provenance`` (a
        :class:`~repro.obs.provenance.ConstantProvenance` of ``result``
        with no ``used_by`` annotations, which only optimized — never
        recorded — runs add).
        """
        if self.cache is None:
            return
        if result.resilience.demotions:
            return
        if result.diagnostics is not None and result.diagnostics.diagnostics:
            return
        from repro.engine.fingerprint import run_key

        key = run_key(text, config)
        if provenance is not None:
            self.cache.put("prov", key, provenance.to_payload())
        self.cache.put("run", key, payload)
        obs_metrics.inc("run_cache_stores")

    def forget_run(self, text: str, config: AnalysisConfig) -> bool:
        """Evict a recorded run (its ``run`` and ``prov`` entries) — the
        daemon's ``invalidate`` op. True when a run entry existed."""
        if self.cache is None:
            return False
        from repro.engine.fingerprint import run_key

        key = run_key(text, config)
        self.cache.delete("prov", key)
        return self.cache.delete("run", key)

    def cached_opt(self, text: str, config: AnalysisConfig,
                   passes) -> Optional[dict]:
        """Look up a whole (source, config, passes) optimization outcome
        — the ``repro optimize`` fast path replaying the optimized IR
        and report byte-identically on an unchanged input."""
        if self.cache is None:
            return None
        from repro.engine.fingerprint import opt_key

        payload = self.cache.get("opt", opt_key(text, config, passes))
        if payload is not None:
            obs_metrics.inc("opt_cache_hits")
        else:
            obs_metrics.inc("opt_cache_misses")
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
        from repro.engine.fingerprint import opt_key

        self.cache.put("opt", opt_key(text, config, passes), payload)
        obs_metrics.inc("opt_cache_stores")

    @staticmethod
    def _render_ir(result) -> Optional[str]:
        from repro.ir.printer import format_program

        try:
            return format_program(result.program)
        except Exception:  # noqa: BLE001 — a failed rendering only
            return None  # narrows what the replay can serve
