"""Observability layer: structured tracing, metrics, and constant
provenance.

Three pillars, each usable on its own and all wired through the
pipeline (frontend -> solver -> engine -> batch -> CLI):

- :mod:`repro.obs.trace` — nested spans and typed instant events,
  exported as Chrome trace-event JSON (``--trace FILE``; loads in
  Perfetto / ``chrome://tracing``), and ``trace.stage``, the one timer
  of pipeline stages behind ``--profile``, request timelines and the
  ``stage.*`` spans. Zero-cost when disabled: hot call sites guard on
  the module flag ``trace.ENABLED`` and allocate nothing.
- :mod:`repro.obs.metrics` — a registry of named counters, gauges, and
  histograms; snapshot/delta/merge across batch workers and Prometheus
  text export (``--metrics FILE``).
- :mod:`repro.obs.provenance` — per-cell derivation trees for the
  CONSTANTS sets: which jump-function applications along which
  call-graph edges produced each value, which call-site meet killed a
  would-be constant, and which demotions coarsened it
  (``repro analyze --explain NAME@PROC``).

Request-scoped telemetry rides on top of those pillars:

- :mod:`repro.obs.context` — ``request_id``/``trace_id`` correlation
  context, propagated across threads and pool-worker processes;
- :mod:`repro.obs.log` — leveled, schema-versioned JSON-lines logging
  (``--log FILE|-``) where every record carries the correlation ids;
- :mod:`repro.obs.timeline` — per-request stage accounting (queue /
  parse / solve / opt / render; a stage sink), the live ring buffer
  behind ``repro top`` and the daemon's ``obs`` op, and the offline
  ``repro obs report`` artifact joiner.

See ``docs/OBSERVABILITY.md`` for the event taxonomy and output
formats.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs": ("context", "log", "metrics", "timeline", "trace"),
    "repro.obs.provenance": ("ConstantProvenance", "build_provenance"),
})

__all__ = [
    "ConstantProvenance",
    "build_provenance",
    "context",
    "log",
    "metrics",
    "timeline",
    "trace",
]
