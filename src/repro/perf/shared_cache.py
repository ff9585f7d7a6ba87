"""Cache storage backends: in-process and cache-server.

:class:`~repro.perf.cache.ResynthesisCache` is split into a *front end* (key
canonicalization, hit verification, per-worker counters — always private to a
worker) and a pluggable *backend* holding the actual ``key -> bucket`` store.
Two backends cover every execution mode:

* ``local`` (:class:`LocalBackend`) — the plain in-process ``OrderedDict``
  LRU.  Shareable across serial/thread workers only; a copy that crosses a
  process boundary becomes private.
* ``tcp`` (:class:`TcpCacheBackend`) — a client of one cache-server
  process serving a :class:`_BucketStore` (true LRU, one lock) over
  :mod:`repro.rpc`.  ``tcp://host:port`` names a standalone network server
  (``python -m repro.distrib.cache_server``) whose lifetime spans many runs
  and hosts — this is what lets portfolio runs on *different machines*
  share synthesis results (see ``docs/distributed.md``).  ``server:`` is the
  same backend with no address: :meth:`BackendSpec.create` spawns a
  driver-owned server on 127.0.0.1 with a fresh random authkey, and the
  returned handle shuts it down on ``close()``.  An unreachable server at
  bring-up raises :class:`SharedCacheUnavailable`; a server lost *mid-run*
  degrades to miss/drop instead of failing the run.

Both backends implement the same small protocol (:class:`CacheBackend`):
``get_many`` / ``put_many`` at bucket granularity (the unit the front end
batches), plus ``stats``/``clear``/``close`` and a ``kind`` tag.  Entries are
:class:`_Entry` records in the *canonical* qubit frame, so a bucket fetched
by any worker can serve any query that canonicalizes to its key.
"""

from __future__ import annotations

import os
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from repro import rpc
from repro.perf.persist import DEFAULT_FLUSH_INTERVAL, CorpusPersister
from repro.rpc import drain_connection_pool
from repro.synthesis.resynth import ResynthesisOutcome

BACKEND_KINDS = ("local", "tcp")


class SharedCacheUnavailable(RuntimeError):
    """A shared backend could not be brought up on this platform."""


class CacheBackend(Protocol):
    """What the :class:`~repro.perf.cache.ResynthesisCache` front end needs.

    Bucket-granular batched transfers (``get_many``/``put_many``) are the
    whole data plane — the front end batches around them, so a backend only
    ever pays one round trip per batch.
    """

    #: backend kind tag: ``"local"`` or ``"tcp"``
    kind: str

    def get_many(self, keys: "list[bytes]") -> "dict[bytes, list[_Entry]]":
        """Fetch the buckets stored under ``keys`` (absent keys omitted)."""
        ...

    def put_many(self, items: "list[tuple[bytes, _Entry]]") -> None:
        """Merge entries into their buckets (refresh-or-append), evicting."""
        ...

    def stats(self) -> dict:
        """Storage counters: ``entries``/``puts``/``evictions``/``negative_entries``."""
        ...

    def clear(self) -> None:
        """Drop every bucket."""
        ...

    def close(self) -> None:
        """Release whatever the backend holds (processes, sockets, nothing)."""
        ...

    def __len__(self) -> int:
        """Total entry count currently stored."""
        ...


@dataclass
class _Entry:
    """One cached outcome, stored in the canonical qubit frame."""

    canonical: np.ndarray
    outcome: "ResynthesisOutcome | None"


#: elementwise absolute tolerance for two canonical unitaries to count as the
#: same content.  Canonical forms are phase-aligned, so a direct ``allclose``
#: applies (the Hilbert–Schmidt formula's ~1e-8 numerical floor would make
#: tighter matching impossible); it sits well below the resynthesis
#: verification floor, so a match never degrades an outcome's error.
MATCH_EPSILON = 1e-9


def _entries_match(first: np.ndarray, second: np.ndarray) -> bool:
    """Exact-content test between two canonical (phase-aligned) unitaries."""
    return bool(np.allclose(first, second, rtol=0.0, atol=MATCH_EPSILON))


def _merge_entry(bucket: "list[_Entry]", entry: _Entry) -> bool:
    """Refresh a content-matching entry in ``bucket`` or append a new one.

    Returns True when the entry was appended (the bucket grew).
    """
    for existing in bucket:
        if _entries_match(existing.canonical, entry.canonical):
            existing.outcome = entry.outcome
            return False
    bucket.append(entry)
    return True


class _BucketStore:
    """Thread-safe LRU bucket store: the storage half of the PR 2 cache.

    Holds ``key -> [entries]`` buckets in an ``OrderedDict`` whose order is
    recency (a matched or refreshed key moves to the back; eviction pops the
    front).  ``maxsize`` bounds the total entry count, not the bucket count.
    This is both the ``local`` backend's store and the cache server's store,
    so local and served caches share one eviction policy bit for bit.

    ``store_path`` attaches the crash-safe disk tier of
    :mod:`repro.perf.persist`: the corpus file is reloaded (tolerantly —
    a damaged file degrades to its intact prefix plus a note, never a crash)
    on construction, dirty buckets are appended every ``flush_interval``
    puts, and :meth:`snapshot` compacts the file atomically.  Persistence
    never crosses a pickle boundary: a store copy shipped to another process
    drops the persister, so exactly one process ever writes a given file.
    """

    def __init__(
        self,
        maxsize: int = 512,
        store_path=None,
        flush_interval: int = DEFAULT_FLUSH_INTERVAL,
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._buckets: "OrderedDict[bytes, list[_Entry]]" = OrderedDict()
        self._count = 0
        self._puts = 0
        self._evictions = 0
        self._lock = threading.Lock()
        self._persister: "CorpusPersister | None" = None
        if store_path is not None:
            self._persister = CorpusPersister(store_path, flush_interval=flush_interval)
            for key, bucket in self._persister.load().items():
                self._buckets[key] = bucket
                self._count += len(bucket)
            # Reloads respect the live bound: a corpus written under a larger
            # maxsize sheds its least-recent buckets (not counted as runtime
            # evictions — nothing was ever resident here).
            while self._count > self.maxsize and self._buckets:
                _, dropped = self._buckets.popitem(last=False)
                self._count -= len(dropped)

    # -- reads ---------------------------------------------------------------

    def match(self, key: bytes, canonical: np.ndarray) -> "_Entry | None":
        """Find the entry with ``canonical`` content under ``key`` (LRU touch)."""
        with self._lock:
            bucket = self._buckets.get(key)
            if not bucket:
                return None
            for entry in bucket:
                if _entries_match(entry.canonical, canonical):
                    self._buckets.move_to_end(key)
                    return entry
            return None

    def peek(self, key: bytes, canonical: np.ndarray) -> bool:
        """Containment test without touching LRU order or counters."""
        with self._lock:
            bucket = self._buckets.get(key)
            if not bucket:
                return False
            return any(_entries_match(entry.canonical, canonical) for entry in bucket)

    def get_many(self, keys: "list[bytes]") -> "dict[bytes, list[_Entry]]":
        """Fetch the buckets for ``keys`` (LRU touch on each present key)."""
        found: "dict[bytes, list[_Entry]]" = {}
        with self._lock:
            for key in keys:
                bucket = self._buckets.get(key)
                if bucket:
                    self._buckets.move_to_end(key)
                    found[key] = list(bucket)
        return found

    # -- writes --------------------------------------------------------------

    def put_many(self, items: "list[tuple[bytes, _Entry]]") -> None:
        with self._lock:
            for key, entry in items:
                bucket = self._buckets.get(key)
                if bucket is None:
                    bucket = []
                    self._buckets[key] = bucket
                if _merge_entry(bucket, entry):
                    self._count += 1
                self._puts += 1
                self._buckets.move_to_end(key)
                if self._persister is not None:
                    self._persister.record_put(key)
            while self._count > self.maxsize and self._buckets:
                _, evicted = self._buckets.popitem(last=False)
                self._count -= len(evicted)
                self._evictions += len(evicted)
            if self._persister is not None and self._persister.should_flush:
                # Under the lock: append-only I/O on the write path, amortized
                # over ``flush_interval`` puts; a crash between flushes loses
                # at most that window (and the snapshot on shutdown catches
                # the tail for clean exits).
                self._persister.append_dirty(self._buckets)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            negative = sum(
                1
                for bucket in self._buckets.values()
                for entry in bucket
                if entry.outcome is None
            )
            result = {
                "entries": self._count,
                "puts": self._puts,
                "evictions": self._evictions,
                "negative_entries": negative,
            }
            if self._persister is not None:
                result["persist_path"] = self._persister.path
                result["persist_loaded_entries"] = self._persister.loaded_entries
                result["persist_notes"] = list(self._persister.notes)
            return result

    def clear(self) -> None:
        with self._lock:
            self._buckets.clear()
            self._count = 0
            if self._persister is not None:
                # An explicit clear must survive a restart too.
                self._persister.snapshot(self._buckets)

    def snapshot(self) -> bool:
        """Atomically persist the full store; False when not persistent."""
        if self._persister is None:
            return False
        with self._lock:
            self._persister.snapshot(self._buckets)
        return True

    def __len__(self) -> int:
        return self._count

    # -- pickling (private local copies travel with their entries) -----------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        # The disk tier stays with the originating process: if pickled copies
        # kept the path, every worker fork would fight over one corpus file.
        state["_persister"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class LocalBackend(_BucketStore):
    """The in-process backend: a :class:`_BucketStore` with the protocol tag.

    Not shareable across processes — a pickled copy is an independent store
    (the front end records the downgrade when that happens to a shared
    cache).
    """

    kind = "local"

    def close(self) -> None:
        """Persist the store if a disk tier is attached; nothing else held."""
        self.snapshot()


# --------------------------------------------------------------------------
# Cache server: one process serving a _BucketStore over repro.rpc.
# --------------------------------------------------------------------------


def _cache_handler(store: _BucketStore):
    """The cache protocol: ``(op, payload)`` in, ``(ok, result)`` out."""

    def handle(op, payload):
        try:
            if op == "get_many":
                return True, store.get_many(payload)
            if op == "put_many":
                store.put_many(payload)
                return True, len(payload)
            if op == "stats":
                return True, store.stats()
            if op == "len":
                return True, len(store)
            if op == "clear":
                store.clear()
                return True, None
            if op == "synth_batch":
                # Server-side batch synthesis: one vectorized pass fills the
                # store with a get_many miss-batch's outcomes.  Imported
                # lazily — repro.synthesis.batch must not load at perf import
                # time (see its module docstring).
                from repro.synthesis.batch import synthesize_missing_into_store

                spec, items = payload
                return True, synthesize_missing_into_store(store, spec, items)
            if op == "ping":
                return True, "pong"
            if op == "shutdown":
                return rpc.Shutdown((True, None))
            return False, f"unknown op {op!r}"
        except Exception as error:  # noqa: BLE001 - reported to the client
            return False, repr(error)

    return handle


def _serve_cache(bootstrap, authkey: bytes, store_spec: "BackendSpec", address) -> None:
    """Cache-server process entry point (spawn-safe: module level, plain args).

    Binds ``address`` (an ``(host, port)`` pair; port 0 lets the OS choose),
    reports the bound address back through the ``bootstrap`` pipe if one is
    given, then serves the store ``store_spec`` (a ``local:`` spec) creates
    until a client sends ``shutdown``.

    With a ``store`` path the store reloads the on-disk corpus at bind time
    and snapshots it on every exit path short of SIGKILL: the protocol
    ``shutdown`` op, an unexpected listener error, and SIGTERM (which is how
    ``Process.terminate()`` and service managers stop the server).  A SIGKILL
    loses only the puts since the last incremental append.
    """
    store = store_spec.create()
    if store_spec.store_path is not None:
        import signal

        def _graceful_terminate(signum, frame):
            raise SystemExit(0)  # unwinds accept(); the finally below snapshots

        try:
            signal.signal(signal.SIGTERM, _graceful_terminate)
        except ValueError:
            pass  # not the main thread (embedded use); rely on clean shutdown
    try:
        server = rpc.Server(address, authkey, handle=_cache_handler(store))
        if bootstrap is not None:
            bootstrap.send(server.address)
            bootstrap.close()
        server.serve_forever()
    finally:
        store.snapshot()


def server_store_spec(spec) -> "BackendSpec":
    """Parse the spec of the store a cache server serves: ``local:`` only.

    The server owns the store and its clients dial it as ``tcp://``, so any
    other kind raises :class:`ValueError` naming the spec.
    """
    spec = parse_backend_spec(spec)
    if spec.kind != "local":
        raise ValueError(
            f"a cache server serves a local store, got {spec.source or spec.canonical!r}; "
            "pass a 'local:' spec (clients dial the server as tcp://)"
        )
    return spec


def spawn_cache_server(
    host: str,
    port: int,
    authkey: bytes,
    store_spec: "str | BackendSpec",
    start_timeout: float = 30.0,
):
    """Start a cache-server process serving ``store_spec``'s store.

    Returns ``(process, (host, port))``.  ``store_spec`` is a ``local:``
    spec (see :func:`server_store_spec`).  The process is a daemon of the
    caller.  Raises :class:`SharedCacheUnavailable` when it does not report
    its bound address within ``start_timeout`` seconds.
    """
    import multiprocessing

    store_spec = server_store_spec(store_spec)
    context = multiprocessing.get_context()
    bootstrap_recv, bootstrap_send = context.Pipe(duplex=False)
    process = context.Process(
        target=_serve_cache,
        args=(bootstrap_send, bytes(authkey), store_spec, (host, port)),
        daemon=True,
        name="repro-tcp-cache-server",
    )
    process.start()
    bootstrap_send.close()
    if not bootstrap_recv.poll(start_timeout):
        process.terminate()
        raise SharedCacheUnavailable("cache server did not report an address in time")
    address = bootstrap_recv.recv()
    bootstrap_recv.close()
    return process, (str(address[0]), int(address[1]))


# --------------------------------------------------------------------------
# Network cache: a client of one TCP cache server.
# --------------------------------------------------------------------------

#: default authentication key for TCP cache servers and clients.  This is a
#: *connection handshake* (multiprocessing's HMAC challenge), not a security
#: boundary — run the servers on a trusted network and override the key via
#: ``REPRO_CACHE_AUTHKEY`` when isolating concurrent clusters.
DEFAULT_TCP_AUTHKEY = b"repro-cache"

TCP_URL_PREFIX = "tcp://"


def tcp_cache_authkey() -> bytes:
    """The TCP cache authkey: ``REPRO_CACHE_AUTHKEY`` or the default."""
    value = os.environ.get("REPRO_CACHE_AUTHKEY")
    return value.encode() if value else DEFAULT_TCP_AUTHKEY


class TcpCacheBackend:
    """Client of one AF_INET cache server.

    Speaks the cache server's ``(op, payload)`` protocol over
    :mod:`repro.rpc` — against a standalone network server
    (``python -m repro.distrib.cache_server``), which is what lets portfolio
    runs on *different machines* share one resynthesis store, or against a
    driver-owned server spawned by the ``server:`` spec.  A batched
    ``get_many``/``put_many`` costs one round trip.

    Failure containment: an unreachable server at construction time raises
    :class:`SharedCacheUnavailable` (callers degrade to a local cache); a
    server that dies *mid-run* degrades the backend — gets miss, puts are
    dropped — and the loss is visible in ``stats()`` as
    ``unreachable_servers`` (0 or 1) and ``dropped_requests``.  This is the
    one place a lost store is absorbed: the front end never sees the
    failure.  The run keeps its own correctness either way: the cache is a
    memo, never a source of truth.

    A network server is never owned (its lifetime deliberately spans runs
    and hosts): :meth:`close` only drops this process's pooled connection.
    A backend built from the ``server:`` spec owns the server it spawned and
    shuts it down on :meth:`close`; pickled copies only redial.
    """

    kind = "tcp"

    def __init__(self, address: "tuple[str, int]", authkey: "bytes | None" = None) -> None:
        host, port = address
        self.address = (str(host), int(port))
        self.authkey = bytes(authkey) if authkey is not None else tcp_cache_authkey()
        self._process = None  # the server this handle owns (``server:`` spec only)
        self._closed = False
        self._dead = False
        self._dropped = 0
        self._stats_lock = threading.Lock()
        try:
            self._request("ping")
        except Exception as error:
            raise SharedCacheUnavailable(
                f"cache server {host}:{port} unreachable: {error!r}"
            ) from error

    # -- wire ----------------------------------------------------------------

    def _request(self, op: str, payload=None):
        if self._closed:
            raise RuntimeError("cache backend handle is closed")
        ok, result = rpc.call(self.address, self.authkey, op, payload)
        if not ok:
            raise RuntimeError(f"cache server {self.address} rejected {op!r}: {result}")
        return result

    def _request_degraded(self, op: str, payload=None, fallback=None):
        """One request, degrading a dead/dying server to ``fallback``.

        :func:`repro.rpc.call` already redials a stale pooled socket and
        retries failed sends, so a connection-level failure that reaches
        here is a lost server: it is marked dead and this and every later
        request counts toward ``dropped_requests``.  Protocol-level
        rejections still raise.
        """
        if not self._dead:
            try:
                return self._request(op, payload)
            except (OSError, EOFError):
                self._dead = True
        with self._stats_lock:
            self._dropped += 1
        return fallback

    # -- protocol ------------------------------------------------------------

    def get_many(self, keys: "list[bytes]") -> "dict[bytes, list[_Entry]]":
        return self._request_degraded("get_many", keys, fallback={})

    def put_many(self, items: "list[tuple[bytes, _Entry]]") -> None:
        self._request_degraded("put_many", items)

    def synth_batch(self, spec: dict, items: "list[tuple[bytes, np.ndarray]]") -> dict:
        """Server-side batch synthesis, degrading a dead server.

        ``spec`` is a :func:`repro.synthesis.batch.resynthesizer_spec` dict;
        ``items`` are ``(key, canonical_unitary)`` pairs.  The server skips
        keys already stored, synthesizes the rest in one vectorized pass, and
        stores the outcomes where lookups will find them.  On a dead server
        nothing is synthesized remotely — every item comes back in the
        ``dropped`` count and the caller falls back to local scalar
        synthesis; a dead server costs speed, never a dropped miss.
        """
        totals = {"received": 0, "present": 0, "synthesized": 0, "failures": 0, "dropped": 0}
        reply = self._request_degraded("synth_batch", (spec, items))
        if reply is None:
            totals["dropped"] = len(items)
            return totals
        for field_name in ("received", "present", "synthesized", "failures"):
            totals[field_name] = int(reply.get(field_name, 0))
        return totals

    def stats(self) -> dict:
        reply = self._request_degraded("stats") or {}
        totals = {
            field_name: int(reply.get(field_name, 0))
            for field_name in ("entries", "puts", "evictions", "negative_entries")
        }
        if "persist_loaded_entries" in reply:
            totals["persist_loaded_entries"] = int(reply["persist_loaded_entries"])
        # Persistence anomalies (corrupt corpus, failed writes) are recorded
        # server-side; forward them so clients can surface them in
        # PerfReport.notes.
        if reply.get("persist_notes"):
            totals["persist_notes"] = list(reply["persist_notes"])
        with self._stats_lock:
            totals["unreachable_servers"] = int(self._dead)
            totals["dropped_requests"] = self._dropped
        return totals

    def clear(self) -> None:
        self._request_degraded("clear")

    def __len__(self) -> int:
        return int(self._request_degraded("len", fallback=0) or 0)

    def ping(self) -> bool:
        """True when the server answers (a dead one counts as no)."""
        return self._request_degraded("ping") == "pong"

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop this process's pooled connection; shut an owned server down.

        Idempotent, so lifecycle code (portfolio exit paths, host agents,
        ``finally`` blocks) can all call it without coordinating.
        """
        if self._closed:
            return
        process, self._process = self._process, None
        if process is not None:
            try:
                self._request("shutdown")
            except (OSError, EOFError, RuntimeError):
                pass  # server already gone
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._closed = True
        rpc.drop(self.address, self.authkey)

    # -- pickling (workers redial through the per-process pool) --------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_stats_lock"]
        state["_process"] = None
        state["_closed"] = False
        state["_dead"] = False
        state["_dropped"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()


#: query keys the backend-spec grammar accepts, in canonical order
SPEC_QUERY_KEYS = ("store", "flush_every", "maxsize")

_SPEC_GRAMMAR = (
    "local:[?store=PATH&flush_every=N&maxsize=N] | "
    "server:[?store=PATH&flush_every=N&maxsize=N] | "
    "tcp://host:port"
)


@dataclass(frozen=True)
class BackendSpec:
    """A parsed cache-backend specification — the one record of a store's settings.

    Produced by :func:`parse_backend_spec`; two spellings that resolve to
    the same configuration compare equal (``source`` keeps the original
    text for error messages but is excluded from comparison).
    ``canonical`` renders the URL form back out; :meth:`create`
    materializes the backend.

    ``kind`` is ``"local"`` or ``"tcp"``.  A ``tcp`` spec without an
    ``address`` (spelled ``server:``) spawns a driver-owned cache server on
    127.0.0.1 at :meth:`create` time, serving the store its settings
    describe.  A ``tcp`` spec *with* an address is a client of a network
    server, which owns no store, so it carries no store settings.  Settings
    left as ``None`` take the store defaults.  Construction validates, so a
    spec that exists is one :meth:`create` can act on.
    """

    kind: str
    address: "tuple[str, int] | None" = None
    store_path: "str | None" = None
    flush_interval: "int | None" = None
    maxsize: "int | None" = None
    source: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        source = self.source or self.canonical
        if self.address is not None and self._store_settings():
            raise ValueError(
                "a tcp:// client owns no store: store_path, flush_every and maxsize "
                f"apply to the cache server, not the tcp client (spec {source!r}); "
                "start the server with --cache 'local:?store=PATH' instead"
            )
        for name, value in (("flush_every", self.flush_interval), ("maxsize", self.maxsize)):
            if value is not None and value < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {value} in backend spec {source!r}; "
                    f"expected {_SPEC_GRAMMAR}"
                )

    def _store_settings(self) -> dict:
        """The store settings this spec pins, as ``_BucketStore`` keywords."""
        settings = {
            "store_path": self.store_path,
            "flush_interval": self.flush_interval,
            "maxsize": self.maxsize,
        }
        return {name: value for name, value in settings.items() if value is not None}

    @property
    def canonical(self) -> str:
        """The canonical URL spelling of this spec."""
        if self.address is not None:
            return f"{TCP_URL_PREFIX}{self.address[0]}:{self.address[1]}"
        base = "server:" if self.kind == "tcp" else f"{self.kind}:"
        query = [
            f"{name}={value}"
            for name, value in zip(
                SPEC_QUERY_KEYS, (self.store_path, self.flush_interval, self.maxsize)
            )
            if value is not None
        ]
        return base + ("?" + "&".join(query) if query else "")

    def create(self):
        """Materialize the backend this spec names.

        Raises :class:`SharedCacheUnavailable` when the platform cannot bring
        the backend up (``server:`` needs working subprocess/socket
        machinery, ``tcp://`` a reachable network cache server).
        """
        if self.kind == "local":
            return LocalBackend(**self._store_settings())
        process = None
        try:
            if self.address is not None:
                return TcpCacheBackend(self.address)
            authkey = secrets.token_bytes(16)
            process, address = spawn_cache_server(
                "127.0.0.1", 0, authkey, replace(self, kind="local")
            )
            backend = TcpCacheBackend(address, authkey=authkey)
            backend._process = process
            return backend
        except Exception as error:
            if process is not None:
                process.terminate()
            if isinstance(error, SharedCacheUnavailable):
                raise
            raise SharedCacheUnavailable(
                f"tcp cache backend unavailable for {self.source or self.canonical!r}: "
                f"{error!r}"
            ) from error


def _parse_spec_query(query: str, source: str) -> dict:
    """Parse a ``store=...&flush_every=...`` spec query string, typed."""
    values: dict = {}
    for part in query.split("&"):
        part = part.strip()
        if not part:
            continue
        name, separator, raw = part.partition("=")
        if not separator or not raw:
            raise ValueError(f"malformed query item {part!r} in backend spec {source!r}")
        if name not in SPEC_QUERY_KEYS:
            raise ValueError(
                f"unknown query key {name!r} in backend spec {source!r}; "
                f"expected {_SPEC_GRAMMAR}"
            )
        if name == "store":
            values["store_path"] = raw
            continue
        try:
            values["flush_interval" if name == "flush_every" else name] = int(raw)
        except ValueError as error:
            raise ValueError(
                f"bad value {raw!r} for query key {name!r} in backend spec {source!r}"
            ) from error
    return values


def parse_backend_spec(spec, parameter: "str | None" = None) -> BackendSpec:
    """Parse a cache-backend spec string into a :class:`BackendSpec`.

    The one grammar every cache-configuration surface routes through
    (``share_resynthesis_cache=``, ``resynthesis_cache=``,
    ``ResynthesisCache(backend=)``, ``start_tcp_cache_server(cache=)``, the
    serve/coordinator/cache-server ``--cache`` flags); ``docs/caching.md``
    documents it::

        local:[?store=PATH&flush_every=N&maxsize=N]
        server:[?store=PATH&flush_every=N&maxsize=N]
        tcp://host:port

    Validation is up-front: anything else — bare kind names, ``True``,
    malformed specs, a ``tcp://`` URL naming more than one server or
    carrying a query, unknown query keys, a ``maxsize`` or ``flush_every``
    below 1 — raises naming the offending spec (and ``parameter``, the
    user-facing argument it came in through, when given) before any
    machinery is touched.
    """
    if isinstance(spec, BackendSpec):
        return spec
    named = f"{parameter}={spec!r}" if parameter else repr(spec)
    if not isinstance(spec, str):
        raise TypeError(
            f"backend spec must be a string or BackendSpec, got {named}; expected {_SPEC_GRAMMAR}"
        )
    source = spec
    if spec.startswith(TCP_URL_PREFIX):
        base, _, query = spec.partition("?")
        host, separator, port = base[len(TCP_URL_PREFIX) :].rpartition(":")
        if not separator or not host or "," in host or not port.isdigit():
            raise ValueError(f"unrecognized backend spec {named}; expected {_SPEC_GRAMMAR}")
        values = _parse_spec_query(query, source)
        return BackendSpec(kind="tcp", address=(host, int(port)), source=source, **values)
    kind, separator, rest = spec.partition(":")
    if separator and kind in ("local", "server") and (not rest or rest[0] == "?"):
        values = _parse_spec_query(rest[1:], source)
        kind = "local" if kind == "local" else "tcp"
        return BackendSpec(kind=kind, source=source, **values)
    raise ValueError(f"unrecognized backend spec {named}; expected {_SPEC_GRAMMAR}")


__all__ = [
    "BACKEND_KINDS",
    "BackendSpec",
    "CacheBackend",
    "DEFAULT_TCP_AUTHKEY",
    "LocalBackend",
    "SPEC_QUERY_KEYS",
    "SharedCacheUnavailable",
    "TcpCacheBackend",
    "drain_connection_pool",
    "parse_backend_spec",
    "tcp_cache_authkey",
]
