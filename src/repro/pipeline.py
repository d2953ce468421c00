"""One request pipeline: read, replay or analyze, optimize, record.

Every entry point that analyzes a program asks the same question, and
asks it here: ``repro analyze``/``link``/``optimize`` (and ``batch
--link``), each file of ``repro batch``, and the daemon's
``analyze``/``explain`` ops. The caller describes what it wants as a
:class:`Request` and :func:`run` answers with a plain-data
:class:`FileOutcome`; the callers keep only their own brackets
(telemetry, fault points, deadlines) and their own rendering.

:func:`run` reads each source once. The run-cache key and the analysis
both come from those bytes. It then makes one replay decision
(:func:`serves`): replay only when the cache holds every section the
request renders. A replay copies the sections out of the recorded
``run``/``prov``/``opt`` entries. Otherwise it analyzes the same text,
builds provenance at most once, records the ``run`` and ``prov``
entries before optimizing (their renderings describe the analyzed
program) and the ``opt`` entry after, then diffs the incremental
manifests (the engine wrote the new one with the file's summary pack
when the analysis ended) and releases the engine's hold on the
analyzed program. A ``run`` entry holds the sections its request
rendered, plus those of the entry the replay read and could not use
(same key, same analysis), so requests that show different sections
never evict each other's.
Live and replayed outcomes are filled by the same function
(:func:`_fill`), so the two render identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.config import AnalysisConfig
from repro.diagnostics import E_IO, Diagnostic, Severity
from repro.frontend.errors import FrontendError
from repro.ipcp.driver import (
    _located_io_error,
    analyze_source,
    analyze_source_resilient,
)

#: Outcome statuses, in severity order.
OK = "ok"
DIAGNOSTICS = "diagnostics"
ERROR = "error"


@dataclass
class Request:
    """One analysis request: a file (``path``) or a linked project
    (``project`` plus its ``entry``), under ``config``.

    ``renders`` names the sections the caller shows: ``constants`` (the
    CONSTANTS report and substitution counts), ``transform``, ``ir``,
    ``stats`` and ``symbols``. ``explain`` (a ``NAME@PROC`` cell),
    ``passes`` (run the optimizer) and ``dot`` (write Graphviz files to
    that directory) add their own sections. ``strict`` turns off
    frontend recovery and fault isolation. ``strict`` and
    ``config.verify_ir`` requests always run live and are never
    recorded: both exist to check the analysis again.
    """

    config: AnalysisConfig
    path: Optional[str] = None
    project: Optional[Sequence[str]] = None
    entry: Optional[str] = None
    explain: Optional[str] = None
    passes: Optional[Tuple[str, ...]] = None
    renders: FrozenSet[str] = frozenset({"constants"})
    dot: Optional[str] = None
    strict: bool = False

    @property
    def files(self) -> List[str]:
        return [self.path] if self.project is None else list(self.project)

    @property
    def label(self) -> str:
        """The path runs of this request are reported and manifested
        under: the file, or the linked project's synthetic label."""
        if self.project is None:
            return self.path
        from repro.linkage import project_label

        return project_label(self.project, self.entry)

    @property
    def sections(self) -> FrozenSet[str]:
        asked = {"explain": self.explain, "opt": self.passes, "dot": self.dot}
        return self.renders | {k for k, v in asked.items() if v is not None}


@dataclass
class FileOutcome:
    """One request's result, JSON-able end to end (it crosses the batch
    pool). Sections beyond the CONSTANTS answer are filled only when
    the request renders them."""

    path: str
    status: str = OK
    config: Optional[str] = None
    constants_report: Optional[str] = None
    total_pairs: int = 0
    substituted: int = 0
    per_procedure: Dict[str, int] = field(default_factory=dict)
    diagnostics: Optional[str] = None
    error: Optional[str] = None
    #: Codes of the error-severity diagnostics (``E005`` = link failure).
    error_codes: List[str] = field(default_factory=list)
    #: Rendered demotions of a degraded run (empty at full precision).
    degraded: List[str] = field(default_factory=list)
    #: Served wholesale from the run-level replay cache.
    replayed: bool = False
    #: ``InvalidationReport.to_dict()`` (cache-enabled runs only).
    invalidation: Optional[dict] = None
    transformed_source: Optional[str] = None
    ir: Optional[str] = None
    stats: Optional[str] = None
    symbols: Optional[str] = None
    #: The ``explain`` cell's derivation, or why it could not be given.
    explain: Optional[str] = None
    explain_error: Optional[str] = None
    dot_files: Optional[int] = None
    #: Rendered :class:`~repro.opt.report.OptReport` (``passes`` given),
    #: plus its total change count for the batch summary line.
    opt_report: Optional[str] = None
    opt_changes: int = 0
    #: ``PipelineProfile.to_dict()`` (profiled batch files only).
    profile: Optional[dict] = None
    #: Per-file :class:`~repro.obs.metrics.MetricsRegistry` delta
    #: (metrics-enabled batch files only).
    metrics: Optional[dict] = None
    #: Chrome trace events recorded by a batch pool worker, shipped back
    #: for the parent tracer to adopt (cleared once adopted).
    trace_events: Optional[list] = None

    @property
    def ok(self) -> bool:
        return self.status == OK

    def summary_line(self) -> str:
        if self.status == ERROR:
            return f"{self.path}: error: {self.error}"
        if self.status == DIAGNOSTICS:
            return f"{self.path}: diagnostics reported (no result)"
        opt = (
            f", optimized ({self.opt_changes} change(s))"
            if self.opt_report is not None else ""
        )
        suffix = "  [replayed]" if self.replayed else ""
        return (
            f"{self.path}: {self.total_pairs} constant(s), "
            f"{self.substituted} substituted{opt}{suffix}"
        )


def serves(request: Request, run: Optional[dict],
           opt: Optional[dict] = None) -> bool:
    """The one replay rule: a replay serves ``request`` only when the
    recorded ``run`` payload (its ``provenance`` decoded) and ``opt``
    payload hold every section the request renders. An optimized
    request's IR and statistics describe the optimized program, so
    they come from the ``opt`` entry; the symbol table and Graphviz
    files are never recorded."""
    run, opt = run or {}, opt or {}
    shown = opt if request.passes is not None else run
    held = {
        "constants": run.get("constants_report"),
        "transform": run.get("transformed_source"),
        "explain": run.get("provenance"),
        "opt": opt.get("report"),
        "ir": shown.get("ir"),
        "stats": shown.get("stats"),
    }
    return all(held.get(name) is not None for name in request.sections)


def run(request: Request, engine=None, checkpoint=None) -> FileOutcome:
    """Replay or analyze ``request``; see the module docstring.

    ``engine`` (an :class:`~repro.engine.core.Engine`) brings the
    caches; without one the plain driver runs.
    ``checkpoint`` (daemon deadlines and drain; needs an engine) is
    called before a live analysis and between the engine's SCCs and
    procedures. Unreadable sources and frontend failures are an
    ``error`` outcome, except under ``strict``, where they raise."""
    outcome = FileOutcome(path=request.label)
    try:
        named = _read(request.files)
    except FrontendError as err:
        if request.strict:
            raise
        outcome.status, outcome.error = ERROR, str(err.__cause__)
        outcome.diagnostics = Diagnostic(
            Severity.ERROR, E_IO, err.message, err.location
        ).render()
        return outcome
    text = _key_text(request, named)
    live_only = request.strict or request.config.verify_ir
    record = engine is not None and engine.cache is not None and not live_only
    earlier = None
    if record:
        earlier = _replay(request, engine, text, outcome)
        if outcome.replayed:
            return outcome
    if engine is None:
        return _live(request, named, text, outcome)
    if checkpoint is not None:
        checkpoint()
        engine.checkpoint = checkpoint
    try:
        return _live(request, named, text, outcome, engine, record, earlier)
    finally:
        # The run is done (manifest written, or aborted): the engine
        # keeps its cache and parsed units, not the analyzed program.
        engine.checkpoint = None
        engine.close()


def _live(request: Request, named, text: str, outcome: FileOutcome,
          engine=None, record: bool = False,
          earlier: Optional[dict] = None) -> FileOutcome:
    """The live half of :func:`run`: analyze, record (when ``record``;
    ``earlier`` is the ``run`` entry the replay read and could not
    use), optimize, render, write the manifest."""
    try:
        result, diagnostics, link = _analyze(request, named, engine)
    except FrontendError as err:
        if request.strict:
            raise
        outcome.status, outcome.error = ERROR, str(err)
        return outcome
    if diagnostics is not None:
        outcome.error_codes = sorted({d.code for d in diagnostics.errors()})
    if result is None:
        outcome.status = DIAGNOSTICS
        outcome.diagnostics = diagnostics.format()
        return outcome
    if diagnostics is not None and len(diagnostics):
        outcome.diagnostics = diagnostics.format()
    outcome.degraded = [demotion.render() for demotion in result.resilience]

    config, sections = request.config, request.sections
    optimized = request.passes is not None
    provenance = None
    if request.explain is not None:
        from repro.obs.provenance import build_provenance

        provenance = build_provenance(result)
    payload = run_entry(result, sections - {"ir", "stats"}
                        if optimized else sections)
    if record:
        if earlier is None and optimized:
            # A ``repro optimize`` replay reads only the ``opt`` entry:
            # read the ``run`` entry this one replaces, to keep its
            # sections.
            earlier = engine.cached_run(text, config)
        engine.record_run(
            text, config, result, _carried(payload, earlier), provenance
        )
    opt_payload = None
    if optimized:
        from repro.opt import optimize_result

        report = optimize_result(result, request.passes)
        if record:
            engine.record_opt(text, config, request.passes, result, report)
        opt_payload = {
            "report": report.render(),
            "opt": {"total_changes": report.total_changes,
                    "used_by": report.used_by},
            **_renderings(result, sections),
        }
    _fill(outcome, request, dict(payload, provenance=provenance),
          opt_payload)
    if "symbols" in sections:
        outcome.symbols = link.format_symbol_table()
    if request.dot is not None:
        from repro.ir.dot import write_dot_files

        outcome.dot_files = len(write_dot_files(
            result.program, result.callgraph, request.dot, result.constants
        ))
    if engine is not None:
        invalidation = engine.finish_incremental(outcome.path)
        if invalidation is not None:
            outcome.invalidation = invalidation.to_dict()
    return outcome


#: The sections a ``run`` entry holds only when a request rendered them.
_RUN_SECTIONS = ("transformed_source", "ir", "stats")


def run_entry(result, sections) -> dict:
    """The ``run`` payload of an analysis: the CONSTANTS answer plus
    the ``transform``/``ir``/``stats`` sections in ``sections`` (a
    section not rendered is None). :func:`run` fills outcomes from it
    and records it as it is, so an entry holds what was shown."""
    rendered = _renderings(result, sections)
    return {
        "config": result.config.describe(),
        "constants_report": result.constants.format_report(),
        "total_pairs": result.constants.total_pairs(),
        "substituted": result.substituted_constants,
        "per_procedure": result.substitution.per_procedure,
        "transformed_source": (
            result.transformed_source() if "transform" in sections else None
        ),
        "ir": rendered.get("ir"),
        "stats": rendered.get("stats"),
    }


def _carried(payload: dict, earlier: Optional[dict]) -> dict:
    """``payload`` with the sections it lacks taken from ``earlier``,
    the entry recorded under the same key (so of the same analysis)."""
    if earlier is None:
        return payload
    merged = dict(payload)
    for section in _RUN_SECTIONS:
        if merged[section] is None and earlier.get(section) is not None:
            merged[section] = earlier[section]
    return merged


def forget(request: Request, engine) -> bool:
    """Evict the recorded run (``run`` and ``prov`` entries) keyed on
    the request's *current* sources — the daemon's ``invalidate`` op.
    True when a run entry existed; an unreadable source raises the
    located :class:`FrontendError` (the ``OSError`` is its cause)."""
    text = _key_text(request, _read(request.files))
    return engine.forget_run(text, request.config)


def _read(paths: Sequence[str]) -> List[Tuple[str, str]]:
    named = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                named.append((path, handle.read()))
        except (OSError, UnicodeDecodeError) as err:
            raise _located_io_error(path, err) from err
    return named


def _key_text(request: Request, named) -> str:
    """The text a run is keyed on: the file's, or the project's
    injective bundle of every file and the entry."""
    if request.project is None:
        return named[0][1]
    from repro.linkage import project_bundle_text

    return project_bundle_text(named, request.entry)


def _replay(request: Request, engine, text: str,
            outcome: FileOutcome) -> Optional[dict]:
    """Fill ``outcome`` from the cache when :func:`serves` allows it
    (``outcome.replayed`` says so). Reads only the entries the
    request's sections come from: a plain ``repro optimize`` reads just
    the ``opt`` entry. Returns the ``run`` payload read, if any."""
    sections = request.sections
    optimized = request.passes is not None
    run_payload = opt_payload = None
    if sections - ({"opt", "ir", "stats"} if optimized else set()):
        run_payload = engine.cached_run(
            text, request.config, "explain" in sections
        )
        if run_payload is not None and "explain" in sections:
            from repro.obs.provenance import ConstantProvenance

            run_payload["provenance"] = ConstantProvenance.from_payload(
                run_payload["provenance"]
            )
    if optimized:
        opt_payload = engine.cached_opt(text, request.config, request.passes)
    if serves(request, run_payload, opt_payload):
        _fill(outcome, request, run_payload, opt_payload)
        outcome.replayed = True
        outcome.invalidation = engine.replayed_report(outcome.path).to_dict()
    return run_payload


def _analyze(request: Request, named, engine):
    """``(result, diagnostics, link)`` of a live analysis of the text
    already read (``link`` is None for a single file)."""
    config = request.config
    if request.project is not None:
        from repro.linkage import analyze_linked_sources

        result, link = analyze_linked_sources(
            named, config, entry=request.entry, engine=engine
        )
        return result, link.diagnostics, link
    path, text = named[0]
    if request.strict:
        return analyze_source(text, config, path, engine=engine), None, None
    result, diagnostics = analyze_source_resilient(
        text, config, path, engine=engine
    )
    return result, diagnostics, None


def _renderings(result, sections) -> dict:
    """The ``ir``/``stats`` sections of ``result``'s program as it is
    now (before or after the optimizer rewrote it)."""
    rendered = {}
    if "ir" in sections:
        from repro.ir.printer import format_program

        rendered["ir"] = format_program(result.program)
    if "stats" in sections:
        from repro.ipcp.stats import collect_statistics

        rendered["stats"] = collect_statistics(result).format()
    return rendered


def _fill(outcome: FileOutcome, request: Request, run_payload: Optional[dict],
          opt_payload: Optional[dict]) -> None:
    """Copy the sections ``request`` renders out of a run/opt payload
    pair: recorded ones on a replay, freshly rendered ones live."""
    sections = request.sections
    if run_payload is not None:
        outcome.config = run_payload["config"]
        outcome.constants_report = run_payload["constants_report"]
        outcome.total_pairs = run_payload["total_pairs"]
        outcome.substituted = run_payload["substituted"]
        outcome.per_procedure = dict(run_payload["per_procedure"])
        if "transform" in sections:
            outcome.transformed_source = run_payload["transformed_source"]
    else:
        outcome.config = opt_payload["config"]
    shown = opt_payload if request.passes is not None else run_payload
    if "ir" in sections:
        outcome.ir = shown["ir"]
    if "stats" in sections:
        outcome.stats = shown["stats"]
    if opt_payload is not None:
        outcome.opt_report = opt_payload["report"]
        outcome.opt_changes = opt_payload["opt"]["total_changes"]
    if request.explain is not None:
        provenance = run_payload["provenance"]
        if opt_payload is not None:
            provenance.annotate_used_by(opt_payload["opt"]["used_by"])
        try:
            outcome.explain = provenance.explain(request.explain)
        except ValueError as err:
            outcome.explain_error = str(err)
