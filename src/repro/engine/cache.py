"""Persistent on-disk summary cache.

Two layouts live under ``<root>/v<ENGINE_CACHE_VERSION>/`` (a version
bump simply orphans the old ``v<N>`` directory):

- **entries**, ``<namespace>/<k[:2]>/<k>.json``: one JSON file per
  whole-run outcome, read and written with :meth:`SummaryCache.get` and
  :meth:`SummaryCache.put`;
- **packs**, ``pack/<k[:2]>/<k>.pack``: one file per analyzed file (or
  linked project) and configuration, holding that file's procedure
  summaries and its incremental manifest, read with
  :meth:`SummaryCache.read_pack` and written through a
  :class:`PackWriter`.

Every file is written atomically (temp file + rename), so concurrent
readers/writers (batch workers, simultaneous CLI runs) can never
observe a torn one.

Entries are **checksummed**: a stored entry is exactly the bytes
``{"sha256":"<hex>","body":<body>}``, where ``<body>`` is the payload
encoded once in canonical form (compact, sorted keys) and ``<hex>`` is
the sha256 of those body bytes (:func:`payload_digest`). A read checks
that byte layout, hashes the stored body bytes and decodes them once;
it never re-encodes the payload. The atomic-rename protocol already
rules out *torn* files, but a long-lived daemon also has to survive
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

Entry namespaces:

- ``run`` — whole-run outcomes keyed on source digest + config
  fingerprint (the ``repro analyze`` fast path);
- ``prov`` — the ``--explain`` provenance of a recorded run, under the
  same key as its ``run`` entry;
- ``opt`` — whole optimization outcomes.

A **pack** (:class:`Pack`) is keyed on the file's absolute path and the
configuration (:func:`repro.engine.incremental.manifest_key`). It holds
the canonical JSON bodies of the file's summary entries back to back,
then an index, then a fixed trailer::

    <body><body>...<index>TTTTTTTTTTTTTTTT<sha256 hex>

The last body is the manifest's canonical JSON. The index is canonical
JSON, ``{"entries": {namespace: {key: span}}, "manifest": span or
null}``, each span ``offset << 32 | length``; the 16 hex digits ``T``
give the index's offset, and the sha256 covers every byte before the
trailer.
The summary namespaces in a pack are:

- ``sum`` — one entry per procedure under its member key
  (:func:`repro.engine.fingerprint.component_key`): ``{"ret": ...,
  "rh": ..., "fwd": ...}``, its return jump functions, their hash
  (:func:`payload_digest`, which its callers' keys read through its
  export) and the forward jump functions of its call sites, each half
  with its demotions. A run that ended before its forward walk, or has
  none, leaves it return-only; a configuration without return functions
  writes it forward-only;
- ``sub`` — substitution measurements per procedure, under the member
  key salted with the procedure's CONSTANTS cells and source-location
  digest.

A pack is checksummed, and quarantined, as a whole: one that is torn,
rotted or in any other layout is renamed to ``<pack>.corrupt`` and the
file's run rebuilds every summary, as a cold run does. A run verifies
its file's previous pack once (:meth:`SummaryCache.read_pack`), keeps
only its index and the open file, and reads each entry it looks up
with one ``pread``. It streams its own pack into a temp file
(:class:`PackWriter`): entries it served are copied as bytes, rebuilt
ones are encoded once, and the temp file is renamed into place when
the run ends. So a cached run creates one summary file however many
procedures it analyzed, and summaries are kept per file: two files
with the same procedure each build it.

This is the *cross-run* summary tier; within one run the engine keeps
summaries as live objects and touches this cache only to read or store
them. Handles may be shared across the batch driver's threads: a handle
holds no mutable state, and files are safe under concurrency via atomic
rename. The traffic is counted in the metrics registry
(:mod:`repro.obs.metrics`): the engine counts hits, misses and stores
per namespace, and this module ``cache_quarantined`` and
``cache_store_failures``.

Fault-injection points (:mod:`repro.faults`), each matched on the
namespace (``pack`` for packs): ``fail-write`` makes a store raise
(degrades to a smaller cache; a failed pack leaves the previous one in
place), ``truncate-cache`` tears the stored bytes in half,
``corrupt-cache`` flips the stored digest — the latter two exercise
exactly the quarantine path above.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

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
class SummaryCache:
    """Content-addressed JSON object store with payload integrity
    verification."""

    root: str

    def _path(self, namespace: str, key: str, suffix: str = ".json") -> str:
        return os.path.join(
            self.root,
            f"v{fingerprint.ENGINE_CACHE_VERSION}",
            namespace,
            key[:2],
            f"{key}{suffix}",
        )

    def get(self, namespace: str, key: str) -> Optional[dict]:
        path = self._path(namespace, key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
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

    def delete(self, namespace: str, key: str) -> bool:
        """Drop one entry (the daemon's ``invalidate`` op). True when
        an entry existed and was removed."""
        try:
            os.unlink(self._path(namespace, key))
        except OSError:
            return False
        return True

    # -- packs ---------------------------------------------------------------

    def read_pack(self, key: str) -> Optional["Pack"]:
        """The pack stored under ``key``, verified whole; None when
        there is none or it failed verification (then quarantined).
        The pack keeps the file open and reads each entry when asked
        for it, so a run holds the index, not the entries."""
        path = self._path(PACK_NAMESPACE, key, ".pack")
        try:
            handle = open(path, "rb")
        except OSError:
            return None
        fd = handle.fileno()
        try:
            end = os.fstat(fd).st_size - _TRAILER
            trailer = os.pread(fd, _TRAILER, max(0, end))
            if end < 0:
                raise ValueError("shorter than its trailer")
            index_at = int(trailer[:16], 16)
            if not 0 <= index_at <= end:
                raise ValueError("index offset out of range")
            digest = hashlib.sha256()
            for offset in range(0, end, _CHUNK):
                digest.update(os.pread(fd, min(_CHUNK, end - offset), offset))
            if digest.hexdigest().encode("ascii") != trailer[16:]:
                raise ValueError("digest mismatch")
            index = json.loads(os.pread(fd, end - index_at, index_at))
            return Pack(handle, index["entries"], index["manifest"])
        except (OSError, ValueError, TypeError, KeyError) as err:
            handle.close()
            self._quarantine(PACK_NAMESPACE, path, str(err))
            return None

    def pack_writer(self, key: str) -> "PackWriter":
        """A writer of the pack under ``key``; it creates its temp file
        on the first entry."""
        return PackWriter(self, self._path(PACK_NAMESPACE, key, ".pack"))

    # -- integrity -----------------------------------------------------------

    def _quarantine(self, namespace: str, path: str, reason: str) -> None:
        """Evict a failed entry (a miss to the caller): keep the bytes
        aside as ``<entry>.corrupt``, and make the event visible in
        metrics and the trace. Renaming (not deleting) preserves the
        evidence while guaranteeing the entry can never be served
        again; if even the rename fails the entry stays in place but
        every future read re-fails verification, so correctness never
        depends on the quarantine write succeeding."""
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
        from repro.obs import metrics

        metrics.inc("cache_store_failures")


#: The directory of packs.
PACK_NAMESPACE = "pack"
#: Bytes of a pack's trailer: the index offset (16 hex digits) and the
#: sha256 (hex) of everything before the trailer.
_TRAILER = 16 + 64
#: Bytes hashed per read when a pack is verified (a daemon-edit file's
#: pack is ~0.35 MB; it is never held whole).
_CHUNK = 1 << 16
#: An index span is one integer, ``offset << 32 | length``: a run's
#: daemon holds one per entry, and one int is a third of a pair's size.
_LENGTH = (1 << 32) - 1


def _span(offset: int, length: int) -> int:
    return offset << 32 | length


class Pack:
    """One verified pack, open for reading: the index of its summary
    entries and of the manifest stored with them. Each read is one
    ``pread`` of the file that was verified."""

    __slots__ = ("_handle", "_entries", "_manifest")

    def __init__(self, handle, entries: Dict[str, Dict[str, int]],
                 manifest: Optional[int]):
        self._handle = handle
        self._entries = entries
        self._manifest = manifest

    def _read(self, span: int) -> bytes:
        return os.pread(self._handle.fileno(), span & _LENGTH, span >> 32)

    def body(self, namespace: str, key: str) -> Optional[bytes]:
        """The canonical JSON body stored under ``namespace``/``key``,
        or None."""
        span = self._entries.get(namespace, {}).get(key)
        return self._read(span) if span is not None else None

    def items(self) -> Iterator[Tuple[str, str, bytes]]:
        """Every ``(namespace, key, body)`` of the pack."""
        for namespace, spans in self._entries.items():
            for key, span in spans.items():
                yield namespace, key, self._read(span)

    def manifest(self) -> Optional[bytes]:
        """The canonical JSON of the stored manifest, or None when the
        run that wrote the pack did not finish."""
        return self._read(self._manifest) if self._manifest is not None \
            else None

    def close(self) -> None:
        self._handle.close()


class PackWriter:
    """Streams one pack into a temp file beside its final path and
    renames it into place on :meth:`commit`; see the module docstring.

    A failed write (a full disk, ``fail-write``) discards the temp file
    and drops the rest of the run's entries: the previous pack stays in
    place, and the failure is counted once in ``cache_store_failures``.
    """

    def __init__(self, cache: SummaryCache, path: str):
        self._cache = cache
        self._path = path
        self._handle = None
        self._temp = ""
        self._failed = False
        self._size = 0
        self._hash = hashlib.sha256()
        self._entries: Dict[str, Dict[str, int]] = {}

    def __contains__(self, entry: Tuple[str, str]) -> bool:
        namespace, key = entry
        return key in self._entries.get(namespace, ())

    def put(self, namespace: str, key: str, payload: dict) -> None:
        """Encode ``payload`` once and append it under ``key``."""
        self.copy(namespace, key, _canonical(payload))

    def copy(self, namespace: str, key: str, body: bytes) -> None:
        """Append ``body``, an entry's canonical bytes, under ``key``;
        a later entry under the same key replaces it."""
        if self._write(body):
            self._entries.setdefault(namespace, {})[key] = _span(
                self._size - len(body), len(body)
            )

    def commit(self, manifest: Optional[dict]) -> None:
        """Append ``manifest`` (None: the run did not finish), the index
        and the trailer, and rename the pack into place."""
        span = None
        if manifest is not None:
            body = _canonical(manifest)
            if self._write(body):
                span = _span(self._size - len(body), len(body))
        index = _canonical({"entries": self._entries, "manifest": span})
        index_at = self._size
        if not self._write(index):
            return
        digest = self._hash.hexdigest().encode("ascii")
        # Fault-injection points: rot, tear, or fail this pack.
        if faults.fire("corrupt-cache", namespace=PACK_NAMESPACE) is not None:
            digest = b"0" * len(digest)
        try:
            self._handle.write(b"%016x" % index_at + digest)
            if faults.fire("truncate-cache",
                           namespace=PACK_NAMESPACE) is not None:
                self._handle.truncate(max(1, (self._size + _TRAILER) // 2))
            if faults.fire("fail-write", namespace=PACK_NAMESPACE) is not None:
                raise OSError("injected cache write failure")
            self._handle.close()
            os.replace(self._temp, self._path)
        except OSError:
            self._fail()

    def _write(self, data: bytes) -> bool:
        if self._failed:
            return False
        try:
            if self._handle is None:
                directory = os.path.dirname(self._path)
                os.makedirs(directory, exist_ok=True)
                descriptor, self._temp = tempfile.mkstemp(
                    dir=directory, suffix=".tmp"
                )
                self._handle = os.fdopen(descriptor, "wb")
            self._handle.write(data)
        except OSError:
            self._fail()
            return False
        self._hash.update(data)
        self._size += len(data)
        return True

    def _fail(self) -> None:
        # A full/read-only cache disk degrades to a smaller cache,
        # never to a failed analysis.
        self._failed = True
        with contextlib.suppress(OSError):
            if self._handle is not None:
                self._handle.close()
        with contextlib.suppress(OSError):
            if self._temp:
                os.unlink(self._temp)
        self._cache._note_store_failure()
