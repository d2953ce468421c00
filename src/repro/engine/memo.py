"""In-process memoization of lowering and whole analyses.

The oracle and golden harnesses analyze the *same* source text under
several configurations (and execute it besides), re-parsing and
re-lowering each time. Parsing never depends on configuration, and
:func:`~repro.ir.lowering.lower_module` does not mutate the parsed
module, so one AST per source text serves every lowering; whole
analysis results are likewise reusable per (source, config) pair —
``AnalysisResult`` consumers treat them as read-only.

Both memos are process-local LRU maps keyed by content digests (never
by object identity), bounded so long generator sweeps cannot grow
memory without bound, and observable through the metrics counters
``parse_memo_hits`` / ``analysis_memo_hits`` (plus the raw ``parses`` /
``lowerings`` counters bumped by the frontend itself).

Only the strict no-diagnostics paths memoize: error recovery threads a
caller-owned :class:`~repro.diagnostics.DiagnosticEngine` through
parsing, which is a side effect a cache hit would silently skip.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.engine.fingerprint import config_fingerprint, source_digest
from repro.obs import metrics

_PARSE_CAPACITY = 128
_ANALYSIS_CAPACITY = 64
_INTERP_CAPACITY = 256

_parse_memo: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
_analysis_memo: "OrderedDict[Tuple[str, str, str], object]" = OrderedDict()
_interp_memo: "OrderedDict[Tuple[str, Tuple[int, ...]], object]" = OrderedDict()


def clear_memos() -> None:
    _parse_memo.clear()
    _analysis_memo.clear()
    _interp_memo.clear()


def _remember(memo: OrderedDict, key, value, capacity: int) -> None:
    memo[key] = value
    memo.move_to_end(key)
    while len(memo) > capacity:
        memo.popitem(last=False)


def parsed_module(text: str, filename: str = "<string>"):
    """The parsed (never-mutated) AST of ``text`` — one parse per
    distinct source, however many times it is lowered."""
    key = (source_digest(text), filename)
    if key in _parse_memo:
        _parse_memo.move_to_end(key)
        metrics.inc("parse_memo_hits")
        return _parse_memo[key]
    from repro.frontend.parser import parse_source

    module = parse_source(text, filename)
    _remember(_parse_memo, key, module, _PARSE_CAPACITY)
    return module


def fresh_program(text: str, filename: str = "<string>"):
    """A freshly lowered (mutable, pre-SSA) program for ``text``,
    re-lowered from the memoized AST."""
    from repro.frontend.source import SourceFile
    from repro.ir.lowering import lower_module

    return lower_module(parsed_module(text, filename), SourceFile(filename, text))


def memoized_analysis(text: str, config=None, filename: str = "<string>"):
    """Analyze ``text`` under ``config``, reusing a previous result for
    the identical (source, config) pair.

    The returned :class:`~repro.ipcp.driver.AnalysisResult` is shared
    between callers and must be treated as read-only — which every
    in-tree consumer (the oracle comparisons, the golden checks, the
    report renderers) already does.
    """
    from repro.config import AnalysisConfig

    config = config or AnalysisConfig()
    key = (source_digest(text), config_fingerprint(config), filename)
    if key in _analysis_memo:
        _analysis_memo.move_to_end(key)
        metrics.inc("analysis_memo_hits")
        return _analysis_memo[key]
    from repro.ipcp.driver import analyze_program

    result = analyze_program(fresh_program(text, filename), config)
    _remember(_analysis_memo, key, result, _ANALYSIS_CAPACITY)
    return result


def memoized_run(text: str, inputs, fuel: int, filename: str = "<string>"):
    """Execute ``text`` through the reference interpreter, reusing the
    recorded :class:`~repro.ir.interp.Trace` for an identical
    (source digest, input vector) pair.

    Execution is deterministic given (program, inputs); fuel only cuts
    it short. A recorded trace therefore satisfies any request whose
    budget covers the steps it actually took (``steps <= fuel``), while
    a smaller budget re-runs live so fuel exhaustion raises exactly as
    it would uncached. Only completed runs are stored — an
    InterpreterError propagates and leaves no entry. The shared Trace
    is read-only to callers; its entry snapshots are matched by
    variable *name* downstream, so reuse across independent lowerings
    of the same text is sound. Hits bump ``interp_memo_hits``.
    """
    key = (source_digest(text), tuple(inputs))
    cached = _interp_memo.get(key)
    if cached is not None and cached.steps <= fuel:
        _interp_memo.move_to_end(key)
        metrics.inc("interp_memo_hits")
        return cached
    from repro.ir.interp import run_program

    trace = run_program(
        fresh_program(text, filename), inputs=list(inputs), fuel=fuel
    )
    _remember(_interp_memo, key, trace, _INTERP_CAPACITY)
    return trace
