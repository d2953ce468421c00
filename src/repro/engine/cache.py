"""Persistent on-disk summary cache.

Layout: ``<root>/v<ENGINE_CACHE_VERSION>/<namespace>/<k[:2]>/<k>.json``
— one JSON file per entry, written atomically (temp file + rename), so
concurrent readers/writers (batch workers, simultaneous CLI runs) can
never observe a torn entry. A version bump simply orphans the old
``v<N>`` directory.

Entries are **checksummed**: a stored entry is exactly the bytes
``{"sha256":"<hex>","body":<body>}``, where ``<body>`` is the payload
encoded once in canonical form (compact, sorted keys) and ``<hex>`` is
the sha256 of those body bytes (:func:`payload_digest`). A read checks
that byte layout, hashes the stored body bytes and decodes them once;
it never re-encodes the payload. The atomic-rename protocol already
rules out *torn* entries, but a long-lived daemon also has to survive
what rename cannot prevent — bit rot, a concurrent writer with a
different code version, an operator editing cache files, or a
filesystem that lied about durability. Any entry that is not in that
layout, whose body hashes differently, or whose body does not parse is
**quarantined**: counted as a miss, renamed to ``<entry>.corrupt`` (so
the bad bytes are kept for forensics but never consulted again), and
surfaced through the ``cache_quarantined`` metric. Warm reuse is only
sound if stale or corrupt state is detected and evicted; a quarantined
entry is simply recomputed.

A read costs one file read, one sha256 over the body bytes and one
JSON decode, all proportional to the entry's size — which is why
``--explain`` provenance, the bulk of a whole-run outcome, lives in its
own ``prov`` entry that only explaining requests read.

Namespaces in use:

- ``sum`` — one entry per procedure under its member key
  (:func:`repro.engine.fingerprint.summary_index`): ``{"ret": ...,
  "fwd": ...}``, its return jump functions and the forward jump
  functions of its call sites, each half with its demotions. A run
  that ended before its forward walk, or has none, leaves it
  return-only; a configuration without return functions writes it
  forward-only. An edit reads one entry per clean procedure and writes
  one per rebuilt procedure;
- ``sub`` — substitution measurements per procedure, under the member
  key salted with the procedure's CONSTANTS cells and source-location
  digest;
- ``run`` — whole-run outcomes keyed on source digest + config
  fingerprint (the ``repro analyze`` fast path);
- ``prov`` — the ``--explain`` provenance of a recorded run, under the
  same key as its ``run`` entry;
- ``opt`` — whole optimization outcomes;
- ``man`` — incremental manifests.

Every write creates one file (``mkstemp`` then ``os.replace``).

This is the *cross-run* summary tier; within one run the engine keeps
summaries as live objects and touches this cache only to read or store
them. Handles may be shared across the batch driver's threads, so the
stats counters are lock-protected; the entry files themselves are safe
under concurrency via atomic rename.

Fault-injection points (:mod:`repro.faults`): ``fail-write`` makes a
store raise mid-write (degrades to a smaller cache), ``truncate-cache``
tears the serialized entry in half, ``corrupt-cache`` flips the stored
digest — the latter two exercise exactly the quarantine path above.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro import faults
from repro.engine import fingerprint


def default_cache_root() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


#: The stored byte layout around the body and its digest.
_HEAD = b'{"sha256":"'
_SEP = b'","body":'
_DIGEST_END = len(_HEAD) + 64
_BODY_START = _DIGEST_END + len(_SEP)


def _canonical(payload) -> bytes:
    """Key-sorted compact JSON, so semantically equal payloads encode
    (and hash) equally regardless of insertion order."""
    return json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def payload_digest(payload) -> str:
    """Canonical content hash of a cache body: the sha256 of its
    canonical JSON text, as stored in the entry's ``sha256`` field."""
    return hashlib.sha256(_canonical(payload)).hexdigest()


@dataclass
class CacheStats:
    """Lookup/store accounting for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Misses caused by integrity failures (subset of ``misses``).
    quarantined: int = 0
    #: Stores that failed (full disk, injected write fault).
    store_failures: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "store_failures": self.store_failures,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class SummaryCache:
    """Content-addressed JSON object store with hit/miss accounting
    and payload integrity verification."""

    root: str
    stats: CacheStats = field(default_factory=CacheStats)
    #: Guards ``stats`` (the ``+=`` read-modify-writes would drop
    #: counts under real thread overlap). Not comparable/serializable
    #: state, hence excluded from the dataclass protocol.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _path(self, namespace: str, key: str) -> str:
        return os.path.join(
            self.root,
            f"v{fingerprint.ENGINE_CACHE_VERSION}",
            namespace,
            key[:2],
            f"{key}.json",
        )

    def get(self, namespace: str, key: str) -> Optional[dict]:
        path = self._path(namespace, key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            with self._lock:
                self.stats.misses += 1
            return None
        if not (
            data.startswith(_HEAD)
            and data.startswith(_SEP, _DIGEST_END)
            and data.endswith(b"}")
        ):
            # Torn, rotted, or rewritten by anything but put().
            self._quarantine(namespace, path, "not the checksummed layout")
            return None
        body = data[_BODY_START:-1]
        digest = data[len(_HEAD):_DIGEST_END]
        if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
            self._quarantine(namespace, path, "digest mismatch")
            return None
        try:
            payload = json.loads(body)
        except ValueError:
            self._quarantine(namespace, path, "unparseable")
            return None
        with self._lock:
            self.stats.hits += 1
        return payload

    def put(self, namespace: str, key: str, payload: dict) -> None:
        path = self._path(namespace, key)
        directory = os.path.dirname(path)
        body = _canonical(payload)
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        data = b"".join((_HEAD, digest, _SEP, body, b"}"))
        # Fault-injection points: tear, rot, or fail this write.
        if faults.fire("truncate-cache", namespace=namespace) is not None:
            data = data[: max(1, len(data) // 2)]
        if faults.fire("corrupt-cache", namespace=namespace) is not None:
            data = data.replace(digest, b"0" * len(digest), 1)
        try:
            if faults.fire("fail-write", namespace=namespace) is not None:
                raise OSError("injected cache write failure")
            os.makedirs(directory, exist_ok=True)
            descriptor, temp_path = tempfile.mkstemp(
                dir=directory, suffix=".tmp"
            )
        except OSError:
            self._note_store_failure()
            return
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
            os.replace(temp_path, path)
        except OSError:
            # A full/read-only cache disk degrades to a smaller cache,
            # never to a failed analysis.
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            self._note_store_failure()
            return
        with self._lock:
            self.stats.stores += 1

    def delete(self, namespace: str, key: str) -> bool:
        """Drop one entry (the daemon's ``invalidate`` op). True when
        an entry existed and was removed."""
        try:
            os.unlink(self._path(namespace, key))
        except OSError:
            return False
        return True

    # -- integrity -----------------------------------------------------------

    def _quarantine(self, namespace: str, path: str, reason: str) -> None:
        """Evict a failed entry: count a miss, keep the bytes aside as
        ``<entry>.corrupt``, and make the event visible in metrics and
        the trace. Renaming (not deleting) preserves the evidence while
        guaranteeing the entry can never be served again; if even the
        rename fails the entry stays in place but every future read
        re-fails verification, so correctness never depends on the
        quarantine write succeeding."""
        with self._lock:
            self.stats.misses += 1
            self.stats.quarantined += 1
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass
        from repro.obs import metrics, trace

        metrics.inc("cache_quarantined")
        if trace.ENABLED:
            trace.instant(
                "cache.quarantine", namespace=namespace,
                entry=os.path.basename(path), reason=reason,
            )

    def _note_store_failure(self) -> None:
        with self._lock:
            self.stats.store_failures += 1
        from repro.obs import metrics

        metrics.inc("cache_store_failures")
