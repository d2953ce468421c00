"""The analysis engine: scheduled, cached, optionally parallel summary
generation with byte-identical results.

An :class:`Engine` slots into :func:`repro.ipcp.driver.analyze_prepared`
and replaces the three per-procedure pipeline stages — return jump
functions, forward jump functions, substitution measurement — with
versions that

1. schedule the work over the call graph's SCC condensation
   (:mod:`repro.engine.scheduler`) and fan each wave out over a worker
   pool (``--jobs N``);
2. consult a persistent content-addressed summary cache
   (:mod:`repro.engine.cache`) keyed by Merkle fingerprints
   (:mod:`repro.engine.fingerprint`), so unchanged procedures are never
   re-analyzed across runs;
3. time and count everything into a
   :class:`~repro.profiling.PipelineProfile` (``--profile``).

Determinism is the design invariant: cached, parallel, and serial
results are byte-identical because every path merges the same
identity-free payloads (:mod:`repro.engine.summaries`) in the same
serial order — the worker/cache layer only changes *where* a summary
came from, never what is merged or when.

The interprocedural solver itself stays in the parent (it is a tiny
fraction of the pipeline and inherently sequential), as does the
GSA-refinement loop and complete propagation (the driver passes
``engine=None`` under ``config.complete``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.config import AnalysisConfig
from repro.engine import fingerprint, parallel, summaries
from repro.engine import arena as arena_mod
from repro.engine.cache import SummaryCache
from repro.engine.fingerprint import _sha
from repro.engine.scheduler import condensation_levels, partition
from repro.ir.module import Program
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.profiling import PipelineProfile

#: Arena-mode chunk-size bound: task messages are near-constant-size
#: there, so waves are cut finer than one-per-worker and stragglers
#: stop serializing a level. (On the pickle path every extra task
#: re-ships the whole summary payload, so no bound applies.)
ARENA_MAX_CHUNK = 200


class Engine:
    """One engine instance drives one or more analysis runs.

    ``jobs=1`` with no cache and no profile degenerates to the plain
    serial builders. ``executor`` selects the pool flavor: ``"process"``
    (fork when available, else spawn; real parallelism) or ``"thread"``
    (GIL-bound — useful for determinism testing and on single-CPU
    machines, not for speed).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        cache: Optional[SummaryCache] = None,
        profile: Optional[PipelineProfile] = None,
        executor: str = "process",
        arena: Optional[bool] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if executor not in ("process", "thread"):
            raise ValueError(f"unknown executor {executor!r}")
        self.jobs = jobs
        if cache is None and cache_dir is not None:
            cache = SummaryCache(cache_dir)
        self.cache = cache
        self.profile = profile
        self.executor_kind = executor
        #: Shared-memory summary exchange policy: ``None`` (auto) turns
        #: the arena on whenever a pool is in play, ``False`` pins the
        #: classic pickle transport (``--no-arena``), ``True`` insists
        #: (still degrades to pickling if segments cannot be created —
        #: the arena is an optimization, never a correctness gate).
        self.arena_mode = arena
        #: Optional cooperative-cancellation hook: called between
        #: scheduling waves; raising aborts the run (the daemon sets
        #: this to its per-request deadline check).
        self.checkpoint: Optional[callable] = None
        #: True once the worker pool broke twice and this engine fell
        #: back to in-process serial execution for good.
        self.pool_demoted = False
        self._pool_rebuilt = False
        self._pool = None
        self._pool_kind: Optional[str] = None
        self._program: Optional[Program] = None
        self._config: Optional[AnalysisConfig] = None
        self._attached: Optional[Program] = None
        self._keys: Optional[Dict[str, str]] = None
        self._index: Optional[Dict[str, Dict[str, str]]] = None
        self._loc_digests: Dict[str, str] = {}
        self._callgraph = None
        self._returns_payload: List[dict] = []
        #: Per-run arena segments: the *stream* (parent-published
        #: canonical return-function records) and the *exchange*
        #: (worker-published result records + the constants payload).
        self._arena_stream: Optional[arena_mod.SummaryArena] = None
        self._arena_exchange: Optional[arena_mod.SummaryArena] = None
        #: False once anything arena-shaped failed this run — the rest
        #: of the run sticks to the pickle path.
        self._arena_healthy = True
        #: Procedure names whose summaries were actually (re)computed
        #: this run, per stage namespace — the incremental layer's
        #: ground truth that recomputation stayed inside the dirty set.
        self.recomputed: Dict[str, List[str]] = {"ret": [], "fwd": [], "sub": []}

    # -- lifecycle -----------------------------------------------------------

    def start(self, program: Program, config: AnalysisConfig) -> None:
        """Bind the engine to one analysis run. Per-run state resets
        here (and again whenever :meth:`_attach` sees a new program),
        so one engine can serve many runs, sharing its cache, pool
        policy, and profile."""
        self._program = program
        self._config = config
        self._reset_run()

    def _reset_run(self) -> None:
        self._attached = None
        self._keys = None
        self._index = None
        self._loc_digests = {}
        self._callgraph = None
        self._returns_payload = []
        self._destroy_arenas()
        self._arena_healthy = True
        self.recomputed = {"ret": [], "fwd": [], "sub": []}
        if self._pool is not None:
            # Worker state is per-run; a surviving pool holds stale
            # programs. Recycle it (cheap relative to a full analysis).
            self._shutdown_pool()
        parallel._set_state(None)

    def close(self) -> None:
        self._shutdown_pool()
        self._destroy_arenas()
        parallel._set_state(None)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_kind = None

    # -- shared-memory arena -------------------------------------------------

    def _arena_active(self) -> bool:
        """Whether waves should ride the arena — creating the per-run
        segments on first use. Only meaningful with a pool (``jobs >
        1``); creation failure quarantines the arena for the run."""
        if (
            not self._arena_healthy
            or self.jobs <= 1
            or self.arena_mode is False
        ):
            return False
        if self._arena_stream is None:
            try:
                self._arena_stream = arena_mod.SummaryArena.create(
                    label="stream"
                )
                self._arena_exchange = arena_mod.SummaryArena.create(
                    label="exchange"
                )
            except arena_mod.ArenaError:
                self._destroy_arenas()
                self._disable_arena("create")
                return False
        return True

    def _disable_arena(self, stage: str) -> None:
        """Quarantine the arena for the rest of this run (the segments
        stay mapped so in-flight workers can still finish reading) and
        fall back to the pickle transport."""
        if self._arena_healthy:
            self._arena_healthy = False
            self._count("arena_fallbacks")
            if trace.ENABLED:
                trace.instant("arena.fallback", stage=stage)

    def _destroy_arenas(self) -> None:
        for segment in (self._arena_stream, self._arena_exchange):
            if segment is not None:
                try:
                    segment.destroy()
                except Exception:  # noqa: BLE001 — teardown is best-
                    pass  # effort; reap_stale collects leftovers
        self._arena_stream = None
        self._arena_exchange = None

    def _publish_returns(self, pairs: List[tuple]) -> None:
        """Mirror freshly appended canonical-payload entries into the
        stream segment, in payload order, keyed like the Merkle cache.
        The invariant ``stream record i == payload entry i`` (up to the
        moment of a fallback) is what lets arena and pickle transports
        interleave mid-run."""
        if not pairs or not self._arena_active():
            return
        records = []
        for name, entries in pairs:
            key = (self._keys or {}).get(name, name)
            for entry in entries:
                records.append(("ret", key, entry))
        if not records:
            return
        try:
            self._arena_stream.append_many(records)
            self._count("arena_stream_records", len(records))
        except arena_mod.ArenaError:
            self._disable_arena("publish")

    def _dispatch_wave(
        self,
        task,
        make_args,
        resilience=None,
        stage: Optional[str] = None,
    ) -> List[dict]:
        """Dispatch one wave over the preferred transport.

        ``make_args(returns_ref)`` builds the task argument tuples for
        a given return-function transport. Arena first: tasks get an
        ``("arena", stream, upto, exchange)`` marker and may answer
        with exchange descriptors, resolved here. Any
        :class:`~repro.engine.arena.ArenaError` — a worker failing to
        attach or read, or this parent failing to resolve a descriptor
        — quarantines the arena and re-dispatches the *whole wave* over
        the pickle path: waves are idempotent (pure summary computation
        plus content-addressed cache stores), so the retry is
        byte-identical to an undisturbed run.
        """
        if self._arena_active():
            ref = (
                "arena",
                self._arena_stream.path,
                len(self._returns_payload),
                self._arena_exchange.path,
            )
            try:
                results = self._dispatch(
                    task, make_args(ref), resilience=resilience, stage=stage
                )
                return [self._resolve_result(data) for data in results]
            except arena_mod.ArenaError:
                self._disable_arena(stage or "dispatch")
        snapshot = list(self._returns_payload)
        args = make_args(snapshot)
        # The counter the arena-equivalence tests pivot on: entries
        # shipped through the pool's pickle channel. Arena waves ship
        # zero.
        self._count(
            "engine_pickle_payload_entries", len(snapshot) * len(args)
        )
        return self._dispatch(
            task, args, resilience=resilience, stage=stage
        )

    def _resolve_result(self, data: dict) -> dict:
        """Unwrap a worker's ``{"@": index}`` exchange descriptor (a
        plain result dict passes through — workers degrade to inline
        shipping when the exchange is unavailable)."""
        if "@" not in data:
            return data
        return self._arena_exchange.read_payload(data["@"])

    # -- attachment (first stage call) ---------------------------------------

    def _attach(self, program: Program, callgraph, config: AnalysisConfig):
        """Late binding at the first stage call: the program is prepared
        (SSA form) by now, so summary keys can be computed and worker
        state installed. A program the engine has not seen resets all
        per-run state, so reuse without :meth:`start` is safe."""
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
        state = parallel._get_state()
        if state is None or state.program is not program:
            # Thread/inline tasks run against the parent's own prepared
            # objects; a process pool's forked children inherit this
            # very state copy-on-write at submit time. (The getter is
            # thread-scoped so concurrent batch-thread engines each see
            # their own program, not a sibling's.)
            state = parallel._WorkerState(
                program, config, prepared=True,
                callgraph=callgraph, modref=None,
            )
            parallel._set_state(state)
        # modref only matters to return-function generation:
        return state

    def _ensure_pool(self):
        if self.jobs <= 1 or self._pool is not None:
            return self._pool
        import concurrent.futures as cf

        if self.executor_kind == "thread":
            self._pool = cf.ThreadPoolExecutor(max_workers=self.jobs)
            self._pool_kind = "thread"
            return self._pool
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        if "fork" in methods:
            # Workers fork during the submit calls below and inherit the
            # already-installed prepared state copy-on-write.
            self._pool = cf.ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=mp.get_context("fork"),
                initializer=parallel._worker_init,
            )
            self._pool_kind = "fork"
        else:
            source = self._program.source if self._program is not None else None
            if source is None:
                # Spawn workers cannot rebuild the program without its
                # source text; fall back to threads.
                self._pool = cf.ThreadPoolExecutor(max_workers=self.jobs)
                self._pool_kind = "thread"
                return self._pool
            self._pool = cf.ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=mp.get_context("spawn"),
                initializer=parallel._init_spawn,
                initargs=(source.text, source.filename, self._config),
            )
            self._pool_kind = "spawn"
        for _ in range(self.jobs):
            self._pool.submit(parallel._prime)
        return self._pool

    def _dispatch(
        self,
        task,
        arg_tuples: List[tuple],
        resilience=None,
        stage: Optional[str] = None,
    ) -> List[dict]:
        """Run ``task(*args)`` for each tuple — across the pool when
        ``jobs > 1``, inline otherwise. Results keep submission order
        (which per-chunk results are merged in is irrelevant anyway:
        chunks are disjoint and merging is key-ordered by the caller).

        A broken pool (a worker SIGKILLed by the OOM killer, an
        operator, or the ``kill-worker`` fault point) is survived, not
        propagated: the pool is rebuilt once and the wave retried after
        a jittered backoff; if the rebuilt pool breaks too, the engine
        demotes itself to in-process serial execution for the rest of
        its life and records the demotion on ``resilience``. Waves are
        idempotent (pure summary computation plus content-addressed
        cache stores), so a retry can never double-apply work — the
        result is byte-identical to an undisturbed run.
        """
        import concurrent.futures as cf

        pool = self._ensure_pool()
        if pool is None:
            return [task(*args) for args in arg_tuples]
        try:
            return self._pool_dispatch(pool, task, arg_tuples)
        except cf.BrokenExecutor:
            self._count("engine_pool_broken")
            self._shutdown_pool()
            if not self._pool_rebuilt:
                self._pool_rebuilt = True
                self._backoff(attempt=1)
                self._count("engine_pool_rebuilds")
                if trace.ENABLED:
                    trace.instant("engine.pool_rebuild", stage=stage or "")
                pool = self._ensure_pool()
                try:
                    return self._pool_dispatch(pool, task, arg_tuples)
                except cf.BrokenExecutor:
                    self._count("engine_pool_broken")
                    self._shutdown_pool()
            # Second failure: degrade to serial, permanently for this
            # engine. The parent's installed worker state serves the
            # inline path, so results are unchanged — only slower.
            self.pool_demoted = True
            self.jobs = 1
            self._count("engine_pool_demotions")
            if trace.ENABLED:
                trace.instant("engine.pool_demoted", stage=stage or "")
            if resilience is not None:
                resilience.record(
                    "engine_pool",
                    stage or "engine",
                    f"{self.executor_kind}-pool",
                    "serial",
                    "worker pool broke twice; degraded to in-process "
                    "serial execution",
                )
            return [task(*args) for args in arg_tuples]

    @staticmethod
    def _backoff(attempt: int) -> None:
        """Jittered backoff before a pool rebuild: base delay doubling
        per attempt, plus up to 50% random jitter so a fleet of daemons
        recovering from one shared cause does not rebuild in lockstep."""
        import random
        import time

        base = 0.05 * (2 ** (attempt - 1))
        time.sleep(base + random.uniform(0, base * 0.5))

    def _check(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint()

    def _pool_dispatch(self, pool, task, arg_tuples: List[tuple]) -> List[dict]:
        if trace.ENABLED:
            trace.instant(
                "engine.dispatch", tasks=len(arg_tuples),
                pool=self._pool_kind or "inline", jobs=self.jobs,
            )
        ctx = obs_context.current_ids()
        if self._pool_kind in ("fork", "spawn") and (
            trace.ENABLED or ctx is not None
        ):
            # Process workers record into their own tracer and ship
            # the new events back with each result; the parent adopts
            # them (worker pids become separate trace tracks). Thread
            # workers share the live tracer and the thread's context.
            # The wrapper also carries the request's correlation ids —
            # the explicit channel that covers spawn workers and the
            # pickle path, where nothing is inherited.
            tracer = trace.active()
            futures = [
                pool.submit(
                    parallel._ctx_call, ctx, trace.ENABLED, task, *args
                )
                for args in arg_tuples
            ]
            results = []
            for future in futures:
                wrapped = future.result()
                if tracer is not None and wrapped["events"]:
                    tracer.adopt(wrapped["events"])
                results.append(wrapped["result"])
            return results
        futures = [pool.submit(task, *args) for args in arg_tuples]
        return [future.result() for future in futures]

    def _chunks(self, items: List, arena_wave: bool = False) -> List[List]:
        return partition(
            items, self.jobs,
            max_chunk=ARENA_MAX_CHUNK if arena_wave else None,
        )

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
        build_return_functions`: level-scheduled, cached, parallel."""
        from repro.ipcp.return_functions import ReturnFunctionMap

        state = self._attach(program, callgraph, config)
        state.modref = modref
        levels = condensation_levels(callgraph)
        member_data: Dict[str, dict] = {}
        payload = self._returns_payload = []

        for level_index, level in enumerate(levels):
            self._check()
            pending: List[List[str]] = []
            fresh: List[tuple] = []
            for component in level:
                names = [p.name for p in component]
                cached = self._lookup_members("ret", names)
                if cached is not None:
                    member_data.update(cached)
                    for name in names:
                        payload.extend(cached[name]["fns"])
                        fresh.append((name, cached[name]["fns"]))
                else:
                    pending.append(names)
            # Cache-served entries reach sibling workers through the
            # stream segment too — publish before the wave that cites
            # them.
            self._publish_returns(fresh)
            if not pending:
                continue
            # Chunk whole SCCs across workers; every task of this wave
            # cites the same payload prefix (by arena marker or by an
            # identical pickled snapshot).
            computed: Dict[str, dict] = {}
            for result in self._dispatch_wave(
                parallel._task_returns,
                lambda ref, _level=level_index, _pending=pending: [
                    (chunk, ref, _level)
                    for chunk in self._chunks(
                        _pending, arena_wave=not isinstance(ref, list)
                    )
                ],
                resilience=resilience,
                stage="ret",
            ):
                computed.update(result)
            fresh = []
            for names in pending:
                for name in names:
                    data = computed[name]
                    member_data[name] = data
                    payload.extend(data["fns"])
                    fresh.append((name, data["fns"]))
                    self._store_member("ret", name, data)
                    self._note_recomputed("ret", name)
            self._publish_returns(fresh)

        # Merge in the serial pipeline's order — the full Tarjan
        # bottom-up order, not level order — so the parent's map and the
        # demotion log are indistinguishable from a serial run's.
        return_map = ReturnFunctionMap()
        for component in callgraph.sccs():
            for member in component:
                data = member_data.get(member.name)
                if data is None:
                    continue  # the main program: no return functions
                for encoded in data["fns"]:
                    return_map.add(
                        summaries.decode_return_function(encoded, program)
                    )
                summaries.apply_demotions(data["dem"], resilience)
        return return_map

    # -- stage: forward jump functions ---------------------------------------

    def forward_functions(self, program, callgraph, config, return_map,
                          resilience):
        """Engine version of :func:`repro.ipcp.jump_functions.
        build_forward_jump_functions`: flat fan-out (independent per
        procedure given the final return map)."""
        from repro.ipcp.jump_functions import JumpFunctionTable

        self._attach(program, callgraph, config)
        order = [p.name for p in callgraph.top_down_order()]
        member_data: Dict[str, dict] = {}
        pending: List[str] = []
        for name in order:
            cached = self._lookup_member("fwd", name)
            if cached is not None:
                member_data[name] = cached
            else:
                pending.append(name)
        if pending:
            self._check()
            for result in self._dispatch_wave(
                parallel._task_forwards,
                lambda ref: [
                    (chunk, ref)
                    for chunk in self._chunks(
                        pending, arena_wave=not isinstance(ref, list)
                    )
                ],
                resilience=resilience,
                stage="fwd",
            ):
                member_data.update(result)
            for name in pending:
                self._store_member("fwd", name, member_data[name])
                self._note_recomputed("fwd", name)

        table = JumpFunctionTable(config.jump_function)
        for name in order:
            data = member_data[name]
            for encoded in data["fns"]:
                table.add(summaries.decode_forward_function(encoded, program))
            summaries.apply_demotions(data["dem"], resilience)
        return table

    # -- stage: substitution measurement -------------------------------------

    def substitution(self, program, callgraph, constants, config, resilience):
        """Engine version of :func:`repro.ipcp.substitution.
        measure_substitution`: flat fan-out. The report carries no
        ``sccp_results`` (only complete propagation reads those, and the
        driver never routes complete propagation through the engine)."""
        from repro.ipcp.substitution import SubstitutionReport

        self._attach(program, callgraph, config)
        constants_payload = summaries.encode_constants(constants, program)
        order = [p.name for p in program]
        member_data: Dict[str, dict] = {}
        pending: List[str] = []
        for name in order:
            key = self._substitution_key(name, constants_payload)
            cached = (
                self.cache.get("sub", key) if key is not None else None
            )
            if cached is not None:
                self._count("summary_cache_hits")
                member_data[name] = cached
            else:
                if key is not None:
                    self._count("summary_cache_misses")
                pending.append(name)
        if pending:
            self._check()

            def make_args(ref):
                # The CONSTANTS payload is identical for every task of
                # the wave; on the arena path it is published once to
                # the exchange segment and cited by index instead of
                # being pickled into each task message.
                constants_ref = constants_payload
                if not isinstance(ref, list):
                    try:
                        index = self._arena_exchange.append(
                            "sub", "constants", constants_payload
                        )
                        constants_ref = (
                            "const", self._arena_exchange.path, index
                        )
                    except arena_mod.ArenaError:
                        constants_ref = constants_payload
                return [
                    (chunk, ref, constants_ref)
                    for chunk in self._chunks(
                        pending, arena_wave=not isinstance(ref, list)
                    )
                ]

            for result in self._dispatch_wave(
                parallel._task_substitution,
                make_args,
                resilience=resilience,
                stage="sub",
            ):
                member_data.update(result)
            for name in pending:
                self._note_recomputed("sub", name)
                key = self._substitution_key(name, constants_payload)
                if key is not None:
                    self.cache.put("sub", key, member_data[name])
                    self._count("summary_cache_stores")

        report = SubstitutionReport()
        for name in order:
            data = member_data[name]
            summaries.decode_substitution_into(
                data["sub"], program.procedure(name), report
            )
            summaries.apply_demotions(data["dem"], resilience)
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
        if self.cache is not None:
            self.cache.put(namespace, self._keys[name], data)
            self._count("summary_cache_stores")

    def _substitution_key(
        self, name: str, constants_payload: dict
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
