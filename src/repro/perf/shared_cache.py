"""Cache storage backends: in-process and cache-server.

:class:`~repro.perf.cache.ResynthesisCache` is split into a *front end* (key
canonicalization, hit verification, per-worker counters — always private to a
worker) and a pluggable *backend* holding the actual ``key -> bucket`` store.
Two backends cover every execution mode:

* ``local`` (:class:`LocalBackend`) — the plain in-process ``OrderedDict``
  LRU.  Shareable across serial/thread workers only; a copy that crosses a
  process boundary becomes private.
* ``tcp`` (:class:`TcpCacheBackend`) — a client of one or more cache-server
  processes, each serving a :class:`_BucketStore` (true LRU, one lock) over
  :mod:`repro.rpc`.  ``tcp://host:port[,host:port...]`` names standalone
  network servers (``python -m repro.distrib.cache_server``), consistent-hash
  sharded, whose lifetime spans many runs and hosts — this is what lets
  portfolio runs on *different machines* share synthesis results (see
  ``docs/distributed.md``).  ``server:`` (alias ``shm:``) is the same backend
  with no addresses: :meth:`BackendSpec.create` spawns a driver-owned server
  on 127.0.0.1 with a fresh random authkey, and the returned handle shuts it
  down on ``close()``.  An unreachable server at bring-up raises
  :class:`SharedCacheUnavailable`; a server lost *mid-run* degrades its key
  range to miss/drop instead of failing the run.

Both backends implement the same small protocol (:class:`CacheBackend`):
``get_many`` / ``put_many`` at bucket granularity (the unit the front end
batches), plus ``stats``/``clear``/``close`` and a ``kind`` tag.  Entries are
:class:`_Entry` records in the *canonical* qubit frame, so a bucket fetched
by any worker can serve any query that canonicalizes to its key.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro import rpc
from repro.perf.persist import DEFAULT_FLUSH_INTERVAL, CorpusPersister
from repro.rpc import drain_connection_pool
from repro.synthesis.resynth import ResynthesisOutcome

BACKEND_KINDS = ("local", "tcp")

#: how many pending puts a front end accumulates before flushing to a shared
#: backend (amortizes IPC; see ``ResynthesisCache.write_batch_size``)
DEFAULT_WRITE_BATCH = 8


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
    #: whether copies that cross a process boundary still reach this store
    shared_across_processes: bool
    #: whether the store can run server-side batch synthesis jobs
    #: (``synth_batch``); the batch engine checks this before offloading
    supports_batch_synthesis: bool

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


def _entries_match(first: np.ndarray, second: np.ndarray, epsilon: float) -> bool:
    """Exact-content test between two canonical (phase-aligned) unitaries."""
    return bool(np.allclose(first, second, rtol=0.0, atol=epsilon))


def _merge_entry(bucket: "list[_Entry]", entry: _Entry, epsilon: float) -> bool:
    """Refresh a content-matching entry in ``bucket`` or append a new one.

    Returns True when the entry was appended (the bucket grew).
    """
    for existing in bucket:
        if _entries_match(existing.canonical, entry.canonical, epsilon):
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
        match_epsilon: float = 1e-9,
        store_path=None,
        flush_interval: int = DEFAULT_FLUSH_INTERVAL,
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.match_epsilon = match_epsilon
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
                if _entries_match(entry.canonical, canonical, self.match_epsilon):
                    self._buckets.move_to_end(key)
                    return entry
            return None

    def peek(self, key: bytes, canonical: np.ndarray) -> bool:
        """Containment test without touching LRU order or counters."""
        with self._lock:
            bucket = self._buckets.get(key)
            if not bucket:
                return False
            return any(
                _entries_match(entry.canonical, canonical, self.match_epsilon)
                for entry in bucket
            )

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
                if _merge_entry(bucket, entry, self.match_epsilon):
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
    shared_across_processes = False
    supports_batch_synthesis = False

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


def _serve_cache(
    bootstrap,
    authkey: bytes,
    maxsize: int,
    match_epsilon: float,
    address,
    store_path=None,
    flush_interval: int = DEFAULT_FLUSH_INTERVAL,
) -> None:
    """Cache-server process entry point (spawn-safe: module level, plain args).

    Binds ``address`` (an ``(host, port)`` pair; port 0 lets the OS choose),
    reports the bound address back through the ``bootstrap`` pipe if one is
    given, then serves one shared :class:`_BucketStore` until a client sends
    ``shutdown``.

    With a ``store_path`` the store reloads the on-disk corpus at bind time
    and snapshots it on every exit path short of SIGKILL: the protocol
    ``shutdown`` op, an unexpected listener error, and SIGTERM (which is how
    ``Process.terminate()`` and service managers stop the server).  A SIGKILL
    loses only the puts since the last incremental append.
    """
    store = _BucketStore(
        maxsize=maxsize,
        match_epsilon=match_epsilon,
        store_path=store_path,
        flush_interval=flush_interval,
    )
    if store_path is not None:
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


def spawn_cache_server(
    host: str,
    port: int,
    authkey: bytes,
    maxsize: int,
    match_epsilon: float,
    store_path=None,
    flush_interval: int = DEFAULT_FLUSH_INTERVAL,
    start_timeout: float = 30.0,
):
    """Start a cache-server process; returns ``(process, (host, port))``.

    The process is a daemon of the caller.  Raises
    :class:`SharedCacheUnavailable` when it does not report its bound
    address within ``start_timeout`` seconds.
    """
    import multiprocessing

    context = multiprocessing.get_context()
    bootstrap_recv, bootstrap_send = context.Pipe(duplex=False)
    process = context.Process(
        target=_serve_cache,
        args=(
            bootstrap_send,
            bytes(authkey),
            maxsize,
            match_epsilon,
            (host, port),
            store_path,
            flush_interval,
        ),
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
# Network cache: consistent-hash client over one or more TCP cache servers.
# --------------------------------------------------------------------------

#: default authentication key for TCP cache servers and clients.  This is a
#: *connection handshake* (multiprocessing's HMAC challenge), not a security
#: boundary — run the servers on a trusted network and override the key via
#: ``REPRO_CACHE_AUTHKEY`` when isolating concurrent clusters.
DEFAULT_TCP_AUTHKEY = b"repro-cache"

TCP_URL_PREFIX = "tcp://"

#: virtual points per server on a :class:`TcpCacheBackend` hash ring; every
#: client must use the same value to route a key to the same server
HASH_REPLICAS = 64


def tcp_cache_authkey() -> bytes:
    """The TCP cache authkey: ``REPRO_CACHE_AUTHKEY`` or the default."""
    value = os.environ.get("REPRO_CACHE_AUTHKEY")
    return value.encode() if value else DEFAULT_TCP_AUTHKEY


def parse_tcp_cache_url(url: str) -> "list[tuple[str, int]]":
    """Parse ``tcp://host:port,host:port,...`` into ``(host, port)`` pairs.

    Each comma-separated element may repeat the ``tcp://`` prefix (so lists
    built by joining individual URLs parse too).  Hostnames are kept verbatim
    for the resolver; ports must be integers.
    """
    if not url.startswith(TCP_URL_PREFIX):
        raise ValueError(f"expected a {TCP_URL_PREFIX}host:port[,host:port...] URL, got {url!r}")
    servers: "list[tuple[str, int]]" = []
    for element in url[len(TCP_URL_PREFIX) :].split(","):
        element = element.strip()
        if element.startswith(TCP_URL_PREFIX):
            element = element[len(TCP_URL_PREFIX) :]
        if not element:
            continue
        host, separator, port = element.rpartition(":")
        if not separator or not host:
            raise ValueError(f"cache server {element!r} is not host:port (in {url!r})")
        servers.append((host, int(port)))
    if not servers:
        raise ValueError(f"no cache servers in {url!r}")
    return servers


class TcpCacheBackend:
    """Consistent-hash client over one or more AF_INET cache servers.

    Speaks the cache server's ``(op, payload)`` protocol over
    :mod:`repro.rpc` — against standalone network servers
    (``python -m repro.distrib.cache_server``), which is what lets portfolio
    runs on *different machines* share one resynthesis store, or against a
    driver-owned server spawned by the ``server:`` spec.

    Keys are sharded across servers on a consistent-hash ring
    (:data:`HASH_REPLICAS` virtual points per server, SHA-1 positioned), so every
    client — on any host — routes a given canonical key to the same server
    without coordination, and adding a server to the URL list remaps only
    ``~1/N`` of the key space.  Batched ``get_many``/``put_many`` calls are
    split per server, so a batch still costs one round trip per *server*
    touched, not per key.

    Failure containment: an unreachable server at construction time raises
    :class:`SharedCacheUnavailable` (callers degrade to a local cache); a
    server that dies *mid-run* has its key range degraded — gets on it miss,
    puts on it are dropped — and the loss is visible in ``stats()`` as
    ``unreachable_servers``/``dropped_requests``.  The run keeps its own
    correctness either way: the cache is a memo, never a source of truth.

    Network servers are never owned (their lifetime deliberately spans runs
    and hosts): :meth:`close` only drops this process's pooled connections.
    A backend built from the ``server:`` spec owns the server it spawned and
    shuts it down on :meth:`close`; pickled copies only redial.
    """

    kind = "tcp"
    shared_across_processes = True
    supports_batch_synthesis = True

    def __init__(
        self,
        servers: "list[tuple[str, int]]",
        authkey: "bytes | None" = None,
        probe: bool = True,
    ) -> None:
        if not servers:
            raise ValueError("TcpCacheBackend needs at least one (host, port) server")
        self.servers = [(str(host), int(port)) for host, port in servers]
        self.authkey = bytes(authkey) if authkey is not None else tcp_cache_authkey()
        self._process = None  # the server this handle owns (``server:`` spec only)
        self._closed = False
        self._dead: "set[int]" = set()
        self._dropped = 0
        self._stats_lock = threading.Lock()
        self._build_ring()
        if probe:
            self._probe_servers()

    @classmethod
    def from_url(cls, url: str, authkey: "bytes | None" = None) -> "TcpCacheBackend":
        """Build a backend from a ``tcp://host:port,...`` URL."""
        return cls(parse_tcp_cache_url(url), authkey=authkey)

    @property
    def url(self) -> str:
        """The canonical ``tcp://`` URL for these servers."""
        return TCP_URL_PREFIX + ",".join(f"{host}:{port}" for host, port in self.servers)

    # -- consistent hashing --------------------------------------------------

    def _build_ring(self) -> None:
        """Place :data:`HASH_REPLICAS` virtual points per server on the ring.

        Point positions depend only on the server address (not on list order
        or count), so every client everywhere computes the same ring.
        """
        points: "list[tuple[int, int]]" = []
        for index, (host, port) in enumerate(self.servers):
            for replica in range(HASH_REPLICAS):
                digest = hashlib.sha1(f"{host}:{port}#{replica}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), index))
        points.sort()
        self._ring_positions = [position for position, _ in points]
        self._ring_servers = [server for _, server in points]

    def _server_for(self, key: bytes) -> int:
        """Index of the server owning ``key`` (first ring point clockwise)."""
        position = int.from_bytes(hashlib.sha1(key).digest()[:8], "big")
        slot = bisect.bisect_right(self._ring_positions, position)
        if slot == len(self._ring_positions):
            slot = 0  # wrap around the ring
        return self._ring_servers[slot]

    def _group_by_server(self, keys) -> "dict[int, list]":
        grouped: "dict[int, list]" = {}
        for item in keys:
            key = item[0] if isinstance(item, tuple) else item
            grouped.setdefault(self._server_for(key), []).append(item)
        return grouped

    # -- wire ----------------------------------------------------------------

    def _probe_servers(self) -> None:
        """Fail fast if any configured server is unreachable at bring-up."""
        for index in range(len(self.servers)):
            try:
                self._request(index, "ping")
            except Exception as error:
                host, port = self.servers[index]
                raise SharedCacheUnavailable(
                    f"cache server {host}:{port} unreachable: {error!r}"
                ) from error

    def _request(self, server_index: int, op: str, payload=None):
        if self._closed:
            raise RuntimeError("cache backend handle is closed")
        address = self.servers[server_index]
        ok, result = rpc.call(address, self.authkey, op, payload)
        if not ok:
            raise RuntimeError(f"cache server {address} rejected {op!r}: {result}")
        return result

    def _request_degraded(self, server_index: int, op: str, payload=None, fallback=None):
        """One request, degrading a dead/dying server to ``fallback``.

        :func:`repro.rpc.call` already redials a stale pooled socket and
        retries failed sends, so a connection-level failure that reaches
        here is a lost server: it is marked dead and this and every later
        request to it counts toward ``dropped_requests``.  Protocol-level
        rejections still raise.
        """
        if server_index not in self._dead:
            try:
                return self._request(server_index, op, payload)
            except (OSError, EOFError):
                self._dead.add(server_index)
        with self._stats_lock:
            self._dropped += 1
        return fallback

    # -- protocol ------------------------------------------------------------

    def get_many(self, keys: "list[bytes]") -> "dict[bytes, list[_Entry]]":
        found: "dict[bytes, list[_Entry]]" = {}
        for server_index, server_keys in self._group_by_server(keys).items():
            reply = self._request_degraded(server_index, "get_many", server_keys, fallback={})
            found.update(reply)
        return found

    def put_many(self, items: "list[tuple[bytes, _Entry]]") -> None:
        for server_index, server_items in self._group_by_server(items).items():
            self._request_degraded(server_index, "put_many", server_items)

    def synth_batch(self, spec: dict, items: "list[tuple[bytes, np.ndarray]]") -> dict:
        """Batch synthesis sharded across the ring, degrading dead servers.

        ``spec`` is a :func:`repro.synthesis.batch.resynthesizer_spec` dict;
        ``items`` are ``(key, canonical_unitary)`` pairs.  Each item is routed
        to the server owning its key (the same ring as ``get_many``, so the
        outcomes land where lookups will find them); the server skips keys
        already stored, synthesizes the rest in one vectorized pass, and
        stores the outcomes.  Items owned by a dead server are *not*
        synthesized remotely — they come back in the ``dropped`` count and
        the caller falls back to local scalar synthesis for them; a dying
        fleet costs speed, never a dropped miss.
        """
        totals = {"received": 0, "present": 0, "synthesized": 0, "failures": 0, "dropped": 0}
        for server_index, server_items in self._group_by_server(items).items():
            reply = self._request_degraded(
                server_index, "synth_batch", (spec, server_items), fallback=None
            )
            if reply is None:
                totals["dropped"] += len(server_items)
                continue
            for field_name in ("received", "present", "synthesized", "failures"):
                totals[field_name] += int(reply.get(field_name, 0))
        return totals

    def stats(self) -> dict:
        totals = {"entries": 0, "puts": 0, "evictions": 0, "negative_entries": 0}
        persist_notes: "list[str]" = []
        for server_index in range(len(self.servers)):
            reply = self._request_degraded(server_index, "stats", fallback=None)
            if reply:
                for field_name in totals:
                    totals[field_name] += int(reply.get(field_name, 0))
                if "persist_loaded_entries" in reply:
                    totals["persist_loaded_entries"] = totals.get(
                        "persist_loaded_entries", 0
                    ) + int(reply["persist_loaded_entries"])
                # Persistence anomalies (corrupt corpus, failed writes) are
                # recorded server-side; forward them so clients can surface
                # them in PerfReport.notes.
                for note in reply.get("persist_notes", ()) or ():
                    if note not in persist_notes:
                        persist_notes.append(note)
        if persist_notes:
            totals["persist_notes"] = persist_notes
        with self._stats_lock:
            totals["unreachable_servers"] = len(self._dead)
            totals["dropped_requests"] = self._dropped
        return totals

    def clear(self) -> None:
        for server_index in range(len(self.servers)):
            self._request_degraded(server_index, "clear")

    def __len__(self) -> int:
        total = 0
        for server_index in range(len(self.servers)):
            reply = self._request_degraded(server_index, "len", fallback=0)
            total += int(reply or 0)
        return total

    def ping(self) -> bool:
        """True when every configured server answers (dead ones count as no)."""
        return all(
            self._request_degraded(index, "ping", fallback=None) == "pong"
            for index in range(len(self.servers))
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop this process's pooled connections; shut an owned server down.

        Idempotent, so lifecycle code (portfolio exit paths, host agents,
        ``finally`` blocks) can all call it without coordinating.
        """
        if self._closed:
            return
        process, self._process = self._process, None
        if process is not None:
            try:
                self._request(0, "shutdown")
            except (OSError, EOFError, RuntimeError):
                pass  # server already gone
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._closed = True
        for address in self.servers:
            rpc.drop(address, self.authkey)

    # -- pickling (workers redial through the per-process pool) --------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_stats_lock"]
        state["_process"] = None
        state["_closed"] = False
        state["_dead"] = set()
        state["_dropped"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()


#: query keys the backend-spec grammar accepts, in canonical order
SPEC_QUERY_KEYS = ("store", "flush_every", "maxsize", "match_epsilon")

_SPEC_GRAMMAR = (
    "local:[?store=PATH&flush_every=N&maxsize=N&match_epsilon=X] | "
    "server:[?store=PATH&flush_every=N&maxsize=N&match_epsilon=X] (alias shm:) | "
    "tcp://host:port[,host:port...][?maxsize=N&match_epsilon=X]"
)

#: spec prefixes naming a tcp spec with no addresses: a driver-owned server
_SPAWN_ALIASES = ("server", "shm")


def _reject_store_path(servers, store_path, source: str) -> None:
    """The up-front store-path guard: a client of network servers owns no store.

    Raised *before* any backend machinery is touched, naming the offending
    spec string — a network cache server persists via
    ``--cache 'local:?store=...'`` on the server side instead.
    """
    if store_path is not None and servers:
        raise ValueError(
            f"store_path applies to the cache server, not the tcp client "
            f"(spec {source!r}); start the server with --cache 'local:?store=PATH' instead"
        )


@dataclass(frozen=True)
class BackendSpec:
    """A parsed cache-backend specification — the one way to spell backends.

    Produced by :func:`parse_backend_spec`; two spellings that resolve to
    the same configuration (``shm:`` and ``server:``) compare equal
    (``source`` keeps the original text for error messages but is excluded
    from comparison).  ``canonical`` renders the URL form back out;
    :meth:`create` materializes the backend.

    ``kind`` is ``"local"`` or ``"tcp"``.  A ``tcp`` spec without
    ``servers`` (spelled ``server:``) spawns a driver-owned cache server on
    127.0.0.1 at :meth:`create` time.  Optional fields left as ``None`` fall
    back to the defaults supplied at :meth:`create` time.
    """

    kind: str
    servers: "tuple[tuple[str, int], ...]" = ()
    store_path: "str | None" = None
    flush_interval: "int | None" = None
    maxsize: "int | None" = None
    match_epsilon: "float | None" = None
    source: str = field(default="", compare=False)

    @property
    def canonical(self) -> str:
        """The canonical URL spelling of this spec."""
        if self.servers:
            base = TCP_URL_PREFIX + ",".join(f"{host}:{port}" for host, port in self.servers)
        else:
            base = "server:" if self.kind == "tcp" else f"{self.kind}:"
        query = []
        if self.store_path is not None:
            query.append(f"store={self.store_path}")
        if self.flush_interval is not None:
            query.append(f"flush_every={self.flush_interval}")
        if self.maxsize is not None:
            query.append(f"maxsize={self.maxsize}")
        if self.match_epsilon is not None:
            query.append(f"match_epsilon={self.match_epsilon}")
        return base + ("?" + "&".join(query) if query else "")

    def create(
        self,
        maxsize: int = 512,
        match_epsilon: float = 1e-9,
        store_path=None,
        flush_interval: int = DEFAULT_FLUSH_INTERVAL,
    ):
        """Materialize the backend; keyword arguments are *fallbacks* only.

        Values carried by the spec itself (from its query string) win over
        the keyword defaults, so ``parse_backend_spec(s).create()`` honors
        everything encoded in ``s``.  Raises :class:`SharedCacheUnavailable`
        when the platform cannot bring the backend up.
        """
        maxsize = self.maxsize if self.maxsize is not None else maxsize
        match_epsilon = self.match_epsilon if self.match_epsilon is not None else match_epsilon
        store_path = self.store_path if self.store_path is not None else store_path
        if self.flush_interval is not None:
            flush_interval = self.flush_interval
        source = self.source or self.canonical
        _reject_store_path(self.servers, store_path, source)
        if self.kind == "local":
            return LocalBackend(
                maxsize=maxsize,
                match_epsilon=match_epsilon,
                store_path=store_path,
                flush_interval=flush_interval,
            )
        process = None
        try:
            if self.servers:
                return TcpCacheBackend(list(self.servers))
            authkey = secrets.token_bytes(16)
            process, address = spawn_cache_server(
                "127.0.0.1",
                0,
                authkey,
                maxsize,
                match_epsilon,
                store_path=store_path,
                flush_interval=flush_interval,
            )
            backend = TcpCacheBackend([address], authkey=authkey)
            backend._process = process
            return backend
        except Exception as error:
            if process is not None:
                process.terminate()
            if isinstance(error, SharedCacheUnavailable):
                raise
            raise SharedCacheUnavailable(
                f"tcp cache backend unavailable for {source!r}: {error!r}"
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
        try:
            if name == "store":
                values["store_path"] = raw
            elif name == "flush_every":
                values["flush_interval"] = int(raw)
            elif name == "match_epsilon":
                values["match_epsilon"] = float(raw)
            else:
                values[name] = int(raw)
        except ValueError as error:
            raise ValueError(
                f"bad value {raw!r} for query key {name!r} in backend spec {source!r}"
            ) from error
    return values


def parse_backend_spec(spec, parameter: "str | None" = None) -> BackendSpec:
    """Parse a cache-backend spec string into a :class:`BackendSpec`.

    The one grammar every cache-configuration surface routes through
    (``create_backend``, ``share_resynthesis_cache=``, ``resynthesis_cache=``,
    the serve/coordinator/cache-server ``--cache`` flags)::

        local:[?store=PATH&flush_every=N&maxsize=N&match_epsilon=X]
        server:[?store=PATH&flush_every=N&maxsize=N&match_epsilon=X]   (alias shm:)
        tcp://host:port[,host:port...][?maxsize=N&match_epsilon=X]

    Validation is up-front: anything else — bare kind names, ``True``,
    malformed specs, unknown query keys, ``store`` on a client of network
    servers — raises naming the offending spec (and ``parameter``, the
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
        values = _parse_spec_query(query, source)
        servers = tuple(parse_tcp_cache_url(base))
        _reject_store_path(servers, values.get("store_path"), source)
        return BackendSpec(kind="tcp", servers=servers, source=source, **values)
    kind, separator, rest = spec.partition(":")
    if separator and kind in ("local",) + _SPAWN_ALIASES and (not rest or rest[0] == "?"):
        values = _parse_spec_query(rest[1:], source)
        kind = "local" if kind == "local" else "tcp"
        return BackendSpec(kind=kind, source=source, **values)
    raise ValueError(f"unrecognized backend spec {named}; expected {_SPEC_GRAMMAR}")


def create_backend(
    kind,
    maxsize: int = 512,
    match_epsilon: float = 1e-9,
    store_path=None,
    flush_interval: int = DEFAULT_FLUSH_INTERVAL,
):
    """Build a cache backend from a spec, or raise :class:`SharedCacheUnavailable`.

    A thin shim over :func:`parse_backend_spec` + :meth:`BackendSpec.create`:
    ``kind`` is a spec string (``"local:"``, ``"server:"``/``"shm:"``,
    ``"tcp://host:port[,...]?..."``) or a :class:`BackendSpec`.  Keyword
    arguments are fallbacks for anything the spec's query string doesn't pin.

    ``local`` always succeeds; ``server:`` needs working subprocess/socket
    machinery and ``tcp://`` needs reachable network cache servers, so any
    bring-up failure is wrapped in :class:`SharedCacheUnavailable` for
    callers to catch and degrade.

    ``store_path`` attaches the crash-safe disk tier (``docs/caching.md``,
    "Persistence tier") to the backends that own a store: ``local`` reloads
    on construction and persists on ``close()``; ``server:`` hands the path
    to its spawned server.  A client of network servers owns no store, so
    that combination is rejected up front with an error naming the spec.
    """
    spec = parse_backend_spec(kind)
    return spec.create(
        maxsize=maxsize,
        match_epsilon=match_epsilon,
        store_path=store_path,
        flush_interval=flush_interval,
    )


__all__ = [
    "BACKEND_KINDS",
    "BackendSpec",
    "CacheBackend",
    "DEFAULT_TCP_AUTHKEY",
    "DEFAULT_WRITE_BATCH",
    "LocalBackend",
    "SPEC_QUERY_KEYS",
    "SharedCacheUnavailable",
    "TcpCacheBackend",
    "create_backend",
    "drain_connection_pool",
    "parse_backend_spec",
    "parse_tcp_cache_url",
    "tcp_cache_authkey",
]
