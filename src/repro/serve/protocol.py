"""Wire protocol of the analysis daemon.

Framing is newline-delimited JSON over a ``SOCK_STREAM`` unix socket:
one request object per line in, one response object per line out, in
request order per connection. JSON never contains a raw newline, so the
framing is unambiguous; a frame larger than :data:`MAX_FRAME` is a
protocol error (a defense against a confused or hostile client, not a
real limit — requests are small).

Request shape::

    {"op": "analyze", "id": 7, "path": "prog.f",
     "params": {"deadline_ms": 2000, "explain": "N@FOO"}}

``op`` is one of :data:`OPS`; ``id`` is an opaque client token echoed
back verbatim (clients that pipeline requests use it to correlate);
``path`` names the input file for the per-file ops; ``params`` carries
op-specific options. The per-file ops alternatively accept a *project
manifest* — ``params.project`` is a list of file paths resolved into
one whole program by the linker (:mod:`repro.linkage`), with an
optional ``params.entry`` selecting the main PROGRAM unit::

    {"op": "analyze", "id": 8,
     "params": {"project": ["main.f", "lib.f"], "entry": "main"}}

Response shape::

    {"v": 1, "id": 7, "op": "analyze", "ok": true,
     "result": {...}, "degraded": ["..."]}
    {"v": 1, "id": 7, "op": "analyze", "ok": false,
     "error": {"code": "overloaded", "message": "...",
               "retry_after": 0.1}}

The split between the two is deliberate: *analysis-level* outcomes
(diagnostics in the source, an unreadable file) are successful protocol
responses whose ``result.status`` says what happened — the daemon did
its job. ``ok: false`` is reserved for *request-level* failures: the
queue shed the request, its deadline expired, the server is draining,
the request was malformed, or the handler crashed. ``degraded`` lists
human-readable notes whenever the analysis completed in a degraded mode
(component demotions, pool fallback) — present so a degraded-but-sound
answer is never silently indistinguishable from a clean one.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from repro._record import Record

#: Bump on incompatible wire changes; echoed in every response.
PROTOCOL_VERSION = 1

#: Supported operations.
OPS = ("analyze", "explain", "invalidate", "status", "obs", "shutdown")

#: Ops that require an input: either ``path`` (one file) or
#: ``params.project`` (a linked multi-file program).
PATH_OPS = ("analyze", "explain", "invalidate")

#: Largest accepted frame (request line) in bytes.
MAX_FRAME = 4 * 1024 * 1024

# -- error codes --------------------------------------------------------------

E_BAD_REQUEST = "bad_request"
E_OVERLOADED = "overloaded"
E_DEADLINE = "deadline_expired"
E_SHUTTING_DOWN = "shutting_down"
E_INTERNAL = "internal"


class ProtocolError(ValueError):
    """A frame that does not parse into a valid request."""


class Request(Record):
    """One parsed client request."""

    __slots__ = _fields = ("op", "id", "path", "params")

    def __init__(self, op: str, id: object = None,
                 path: Optional[str] = None,
                 params: Optional[Dict[str, object]] = None):
        self.op = op
        self.id = id
        self.path = path
        self.params = {} if params is None else params


def parse_request(payload: object) -> Request:
    """Validate a decoded frame into a :class:`Request`."""
    if not isinstance(payload, dict):
        raise ProtocolError("request frame must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (known: {', '.join(OPS)})"
        )
    path = payload.get("path")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be an object")
    project = params.get("project")
    if project is not None:
        if (
            not isinstance(project, list)
            or not project
            or not all(isinstance(p, str) and p for p in project)
        ):
            raise ProtocolError(
                "'params.project' must be a non-empty list of file paths"
            )
        entry = params.get("entry")
        if entry is not None and (not isinstance(entry, str) or not entry):
            raise ProtocolError("'params.entry' must be a non-empty string")
    if op in PATH_OPS:
        if project is not None:
            if path is not None:
                raise ProtocolError(
                    f"op {op!r} takes either 'path' or 'params.project', "
                    "not both"
                )
        elif not isinstance(path, str) or not path:
            raise ProtocolError(
                f"op {op!r} requires a non-empty 'path' "
                "(or a 'params.project' manifest)"
            )
    elif path is not None and not isinstance(path, str):
        raise ProtocolError("'path' must be a string")
    deadline_ms = params.get("deadline_ms")
    if deadline_ms is not None and (
        not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
    ):
        raise ProtocolError("'deadline_ms' must be a positive number")
    return Request(op=op, id=payload.get("id"), path=path, params=params)


def encode_message(message: dict) -> bytes:
    """One frame: compact JSON plus the newline terminator."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict:
    if len(line) > MAX_FRAME:
        raise ProtocolError(f"frame exceeds {MAX_FRAME} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as err:
        raise ProtocolError(f"undecodable frame: {err}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame must be a JSON object")
    return payload


def ok_response(
    request_id: object,
    op: str,
    result: dict,
    degraded: Sequence[str] = (),
) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": op,
        "ok": True,
        "result": result,
        "degraded": list(degraded),
    }


def error_response(
    request_id: object,
    code: str,
    message: str,
    op: Optional[str] = None,
    retry_after: Optional[float] = None,
) -> dict:
    error: Dict[str, object] = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": op,
        "ok": False,
        "error": error,
    }
