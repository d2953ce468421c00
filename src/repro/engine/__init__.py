"""The analysis engine: a persistent summary cache, incremental
re-analysis, and the batch driver.

:class:`~repro.engine.core.Engine` is the only object callers touch; it
plugs into :func:`repro.ipcp.driver.analyze_prepared` (and the
``analyze_*`` entry points above it) and runs the return-function /
forward-function / substitution stages against the cache, with outputs
byte-identical to the plain driver's. Parallelism lives one level up,
across files in :func:`~repro.engine.batch.run_batch`. See
``docs/PERFORMANCE.md``.

Public names resolve lazily (:mod:`repro._lazy`), so a cacheless
``repro batch``, which runs each file through the plain driver, loads
the batch driver but neither the engine nor the cache modules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.batch": ("BatchResult", "FileOutcome", "run_batch"),
    "repro.engine.cache": ("SummaryCache", "default_cache_root"),
    "repro.engine.core": ("Engine",),
    "repro.engine.fingerprint": (
        "ENGINE_CACHE_VERSION", "config_fingerprint", "procedure_digest",
        "source_digest",
    ),
    "repro.engine.incremental": ("InvalidationReport", "diff_manifest"),
})

__all__ = [
    "BatchResult",
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
]
