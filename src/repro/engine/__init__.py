"""The analysis engine: a persistent content-addressed summary cache,
incremental re-analysis, per-run profiling, and the batch driver.

:class:`~repro.engine.core.Engine` is the only object callers touch; it
plugs into :func:`repro.ipcp.driver.analyze_prepared` (and the
``analyze_*`` entry points above it) and runs the return-function /
forward-function / substitution stages against the cache, with outputs
byte-identical to the plain driver's. Parallelism lives one level up,
across files in :func:`~repro.engine.batch.run_batch`. See
``docs/PERFORMANCE.md``.
"""

from repro.engine.batch import BatchResult, FileOutcome, run_batch
from repro.engine.cache import CacheStats, SummaryCache, default_cache_root
from repro.engine.core import Engine
from repro.engine.fingerprint import (
    ENGINE_CACHE_VERSION,
    config_fingerprint,
    procedure_digest,
    source_digest,
    summary_index,
    summary_keys,
)
from repro.engine.incremental import InvalidationReport, diff_manifest

__all__ = [
    "BatchResult",
    "CacheStats",
    "Engine",
    "ENGINE_CACHE_VERSION",
    "FileOutcome",
    "InvalidationReport",
    "SummaryCache",
    "config_fingerprint",
    "default_cache_root",
    "diff_manifest",
    "procedure_digest",
    "run_batch",
    "source_digest",
    "summary_index",
    "summary_keys",
]
