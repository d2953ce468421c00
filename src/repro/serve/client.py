"""Client side of the analysis daemon protocol.

:class:`ReproClient` is deliberately small — one blocking unix-socket
connection, NDJSON frames in request order — because every consumer of
the daemon (the ``repro client`` subcommand, the robustness tests, the
chaos-smoke harness) should exercise the *same* code path. The only
policy it adds is :meth:`ReproClient.call`: honor the server's
``retry_after`` hint on ``overloaded`` responses a bounded number of
times, because shedding is the server telling the client *when* to come
back, not a hard failure.
"""

from __future__ import annotations

import socket
import time
from typing import Optional

from repro.serve import protocol


class ServeRequestError(RuntimeError):
    """The server answered ``ok: false``; carries the error envelope."""

    def __init__(self, code: str, message: str,
                 retry_after: Optional[float] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.retry_after = retry_after


class ReproClient:
    """One connection to a running ``repro serve`` daemon."""

    def __init__(self, socket_path: str, timeout: float = 30.0):
        self.socket_path = socket_path
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(socket_path)
        except OSError:
            self._sock.close()
            raise
        self._stream = self._sock.makefile("rb")
        self._next_id = 0

    # -- plumbing ------------------------------------------------------------

    def request(self, op: str, path: Optional[str] = None,
                params: Optional[dict] = None) -> dict:
        """One round trip. Returns the full response envelope; raises
        :class:`ServeRequestError` on ``ok: false``."""
        self._next_id += 1
        frame: dict = {"op": op, "id": self._next_id}
        if path is not None:
            frame["path"] = path
        if params:
            frame["params"] = params
        self._sock.sendall(protocol.encode_message(frame))
        line = self._stream.readline(protocol.MAX_FRAME + 1)
        if not line:
            raise ConnectionError(
                "server closed the connection without responding"
            )
        response = protocol.decode_frame(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServeRequestError(
                str(error.get("code", protocol.E_INTERNAL)),
                str(error.get("message", "unknown server error")),
                error.get("retry_after"),
            )
        return response

    def call(self, op: str, path: Optional[str] = None,
             params: Optional[dict] = None, retries: int = 3) -> dict:
        """Like :meth:`request`, but back off and retry when the server
        sheds the request (``overloaded``), up to ``retries`` times."""
        attempt = 0
        while True:
            try:
                return self.request(op, path, params)
            except ServeRequestError as err:
                if err.code != protocol.E_OVERLOADED or attempt >= retries:
                    raise
                attempt += 1
                time.sleep(err.retry_after or 0.05)

    # -- op helpers ----------------------------------------------------------

    def analyze(self, path: str, deadline_ms: Optional[int] = None,
                explain: Optional[str] = None, retries: int = 3) -> dict:
        params: dict = {}
        if deadline_ms is not None:
            params["deadline_ms"] = deadline_ms
        if explain is not None:
            params["explain"] = explain
        return self.call("analyze", path, params or None, retries=retries)

    def explain(self, path: str, cell: str,
                deadline_ms: Optional[int] = None) -> dict:
        params: dict = {"cell": cell}
        if deadline_ms is not None:
            params["deadline_ms"] = deadline_ms
        return self.call("explain", path, params)

    def invalidate(self, path: str) -> dict:
        return self.call("invalidate", path)

    # -- project (linked multi-file) helpers ---------------------------------

    def analyze_project(self, paths, entry: Optional[str] = None,
                        deadline_ms: Optional[int] = None,
                        explain: Optional[str] = None,
                        retries: int = 3) -> dict:
        """Analyze a linked multi-file project (``params.project``)."""
        params: dict = {"project": list(paths)}
        if entry is not None:
            params["entry"] = entry
        if deadline_ms is not None:
            params["deadline_ms"] = deadline_ms
        if explain is not None:
            params["explain"] = explain
        return self.call("analyze", None, params, retries=retries)

    def invalidate_project(self, paths, entry: Optional[str] = None) -> dict:
        params: dict = {"project": list(paths)}
        if entry is not None:
            params["entry"] = entry
        return self.call("invalidate", None, params)

    def status(self) -> dict:
        return self.call("status")

    def obs(self, limit: Optional[int] = None) -> dict:
        """Live telemetry: latency percentiles per stage bucket plus
        the newest ring-buffer request entries (``limit`` caps them)."""
        params: dict = {}
        if limit is not None:
            params["limit"] = int(limit)
        return self.call("obs", None, params)

    def shutdown(self) -> dict:
        return self.request("shutdown")

    def close(self) -> None:
        try:
            self._stream.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def wait_for_server(socket_path: str, timeout: float = 5.0) -> bool:
    """Poll until a daemon accepts connections on ``socket_path``
    (True) or ``timeout`` elapses (False). Used by scripts and tests
    that just forked/spawned the server."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(0.25)
        try:
            probe.connect(socket_path)
        except OSError:
            time.sleep(0.05)
        else:
            return True
        finally:
            probe.close()
    return False
