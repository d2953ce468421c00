"""Request-scoped correlation context: ``request_id`` / ``trace_id``.

One :class:`RequestContext` identifies the unit of work every telemetry
record should correlate on — a daemon request (``r000042``), a CLI
invocation (``cli-analyze``), or a batch file. The structured log
(:mod:`repro.obs.log`) stamps both ids on every record; the tracer's
flow events (:mod:`repro.obs.trace`) use :func:`flow_id` to stitch a
request's worker spans back to its root span.

Storage is layered: a module global under a ``threading.local``
override. The module global is what fork-context batch pool workers
inherit copy-on-write and what fresh threads fall through to; the
thread-local is what keeps concurrent batch threads (and the daemon's
connection-handler threads) from reading a sibling's context.
``threading.local`` survives fork for the forking thread itself, so a
dispatcher that calls :func:`set_context` covers both layers for its
children.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from typing import Iterator, Optional


class RequestContext:
    """The correlation ids of one unit of work.

    ``trace_id`` groups many requests of one session (a daemon run, a
    CLI invocation); it defaults to the ``request_id`` so a lone
    context is still fully correlated.
    """

    __slots__ = ("request_id", "trace_id")

    def __init__(self, request_id: str, trace_id: Optional[str] = None):
        self.request_id = request_id
        self.trace_id = trace_id if trace_id is not None else request_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestContext(request_id={self.request_id!r}, "
            f"trace_id={self.trace_id!r})"
        )


_GLOBAL: Optional[RequestContext] = None
_TLS = threading.local()


def set_context(context: Optional[RequestContext]) -> None:
    """Install ``context`` for this thread *and* as the process global
    (what fork children and fresh worker threads inherit)."""
    global _GLOBAL
    _GLOBAL = context
    _TLS.context = context


def set_thread_context(context: Optional[RequestContext]) -> None:
    """Install (or clear) only this thread's context, leaving the
    global for other threads — the batch-thread / connection-handler
    isolation primitive."""
    _TLS.context = context


def current() -> Optional[RequestContext]:
    context = getattr(_TLS, "context", None)
    if context is not None:
        return context
    return _GLOBAL


def clear() -> None:
    """Drop both layers (end of a session, test teardown)."""
    set_context(None)


def flow_id(request_id: str) -> int:
    """A stable non-zero integer id for Chrome-trace flow events,
    derived from the request id so every process computes the same
    value without coordination."""
    return (zlib.crc32(request_id.encode("utf-8")) & 0xFFFFFFFF) or 1


@contextmanager
def request(
    request_id: str,
    trace_id: Optional[str] = None,
    thread_only: bool = False,
) -> Iterator[RequestContext]:
    """Scope a context over a ``with`` block, restoring whatever was
    installed before (per-thread when ``thread_only``)."""
    installer = set_thread_context if thread_only else set_context
    previous = current()
    context = RequestContext(request_id, trace_id)
    installer(context)
    try:
        yield context
    finally:
        installer(previous)
