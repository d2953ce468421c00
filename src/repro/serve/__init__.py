"""``repro serve``: the fault-tolerant analysis daemon.

CCKT86's pitch is that jump functions are cheap enough to re-run
interprocedural constant propagation *continuously inside a programming
environment*. That only pays off when the analysis lives in a
long-running service: the summary and run caches stay hot on disk, the
interned lattice and imports stay hot in memory, and a client query
costs one unix-socket round trip instead of a cold interpreter start.

The package splits along the request path:

- :mod:`repro.serve.protocol` — the JSON-over-unix-socket wire format
  (newline-delimited frames, request/response shapes, error codes);
- :mod:`repro.serve.lifecycle` — per-request deadlines and cooperative
  cancellation;
- :mod:`repro.serve.server` — the daemon itself: bounded request queue
  with explicit overload shedding, graceful signal-driven drain,
  observability artifact flushing;
- :mod:`repro.serve.client` — the client used by the CLI
  (``repro client``), the tests, and the chaos harness.

Robustness is the design driver throughout: a long-lived daemon is
exactly where torn caches, slow requests, and signal-driven shutdown
stop being one-off failures and become steady-state events. Every degradation path here is exercised by the
fault-injection matrix (:mod:`repro.faults`, ``tests/robustness``)
rather than trusted.

Public names resolve lazily (:mod:`repro._lazy`): ``import
repro.serve.client`` loads the client and the wire format, not the
daemon and the analysis it runs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.client": (
        "ReproClient", "ServeRequestError", "wait_for_server",
    ),
    "repro.serve.server": ("ReproServer", "ServeConfig"),
})

__all__ = [
    "ReproClient",
    "ReproServer",
    "ServeConfig",
    "ServeRequestError",
    "wait_for_server",
]
