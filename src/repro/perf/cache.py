"""Content-addressed memoization of resynthesis outcomes.

Resynthesis is the slow transformation of the GUOQ loop: one call runs a
numerical optimizer or a Clifford+T search over a small block unitary.  The
same few-qubit unitaries recur constantly during a search — the circuit
changes slowly, blocks are re-sampled from overlapping regions, and portfolio
workers explore neighbouring variants of the same circuit — so memoizing
``unitary -> outcome`` removes most synthesis calls from the hot path.

Keying is *content-addressed and canonical*: two blocks hit the same entry
when their unitaries agree up to

* **global phase** — the Hilbert–Schmidt distance (Def. 3.2) is phase
  insensitive, so ``e^{i a} U`` and ``U`` have interchangeable replacements;
* **qubit relabeling** — a block on qubits ``(2, 5)`` whose unitary is the
  qubit-swap of one previously seen on ``(1, 3)`` reuses the cached circuit
  with its qubits permuted back.

Lookups are sound by construction: the quantized canonical form only selects
a hash bucket; within the bucket the exact canonical unitary is compared, and
(by default) the reconstructed replacement is re-verified against the query
unitary before it is returned, so a cache hit can never hand back a circuit
that is not within the resynthesizer's epsilon of the query block.

Caching does change which outcome a *stochastic* synthesizer reports for a
repeated unitary (the first outcome is replayed instead of re-sampling), but
every replayed outcome is a verified-equivalent circuit, so search results
remain valid; the seeded Algorithm 1 regression pin is unaffected because its
trace never reaches a resynthesis call.

Storage is pluggable (see :mod:`repro.perf.shared_cache` and
``docs/caching.md``): the default ``local`` backend is a private in-process
LRU, while the ``tcp`` backend (a spawned ``server:`` or a network cache
server) lets portfolio workers in *separate processes* share one store —
this front end keeps canonicalization, hit verification, per-worker
counters, and a write-back buffer that batches puts to amortize IPC.
"""

from __future__ import annotations

import itertools
import threading
import uuid
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from repro.perf.report import CacheStats
from repro.perf.shared_cache import (
    BackendSpec,
    _Entry,
    _entries_match,
    _merge_entry,
    parse_backend_spec,
)
from repro.synthesis.resynth import (
    EXACT_DISTANCE_FLOOR,
    ResynthesisOutcome,
)
from repro.utils.linalg import COMPLEX_DTYPE, hilbert_schmidt_distance, phase_normalized


def permute_unitary(unitary: np.ndarray, perm: "tuple[int, ...]") -> np.ndarray:
    """Relabel the qubits of a ``2^k x 2^k`` unitary.

    ``perm`` maps new qubit positions to old ones: qubit ``i`` of the result
    is qubit ``perm[i]`` of the input (qubit 0 is the most significant bit,
    matching :mod:`repro.utils.linalg`).  For a circuit ``C`` this satisfies
    ``C.remapped({perm[i]: i}).unitary() == permute_unitary(C.unitary(), perm)``.
    """
    k = len(perm)
    dim = 2**k
    unitary = np.asarray(unitary, dtype=COMPLEX_DTYPE)
    if unitary.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} unitary for perm {perm}")
    tensor = unitary.reshape((2,) * (2 * k))
    axes = [perm[i] for i in range(k)] + [k + perm[i] for i in range(k)]
    return np.transpose(tensor, axes).reshape(dim, dim)


#: how many pending puts a shared-backend front end buffers before flushing
#: them to the backend in one ``put_many`` (amortizes IPC)
_WRITE_BATCH = 8


def canonicalize_unitary(
    unitary: np.ndarray, decimals: int = 6
) -> "tuple[bytes, tuple[int, ...], np.ndarray]":
    """Canonical form of a block unitary for content addressing.

    Returns ``(key, perm, canonical)`` where ``canonical`` is the exact
    (unquantized) phase-normalized unitary in the canonical qubit frame,
    ``perm`` is the qubit relabeling that produced it (new <- old, see
    :func:`permute_unitary`), and ``key`` is the quantized byte string used
    as the hash key.  Among all qubit relabelings the lexicographically
    smallest quantized form wins, which is what makes the key insensitive to
    how a block's qubits happened to be numbered.

    Quantization only affects *bucketing*: near-boundary unitaries may land
    in different buckets (a missed hit), never in a wrong entry, because the
    bucket scan compares exact canonical unitaries.
    """
    unitary = np.asarray(unitary, dtype=COMPLEX_DTYPE)
    dim = unitary.shape[0]
    k = int(dim).bit_length() - 1
    if 2**k != dim:
        raise ValueError(f"unitary dimension {dim} is not a power of two")
    best: "tuple[bytes, tuple[int, ...], np.ndarray] | None" = None
    # Enumerating relabelings is k! — cheap for the <=3-qubit blocks
    # resynthesis operates on; wider unitaries fall back to the identity
    # relabeling so the cache still works, just without permutation folding.
    perms = itertools.permutations(range(k)) if k <= 3 else [tuple(range(k))]
    for perm in perms:
        candidate = phase_normalized(permute_unitary(unitary, perm))
        quantized = np.round(candidate, decimals) + 0.0  # +0.0 folds -0.0 into +0.0
        key = quantized.tobytes()
        if best is None or key < best[0]:
            best = (key, tuple(perm), candidate)
    assert best is not None
    return best


class ResynthesisCache:
    """Bounded, content-addressed LRU memo of resynthesis outcomes.

    Parameters
    ----------
    maxsize:
        Maximum number of entries; the least recently used bucket is evicted
        when the bound is exceeded.
    decimals:
        Quantization grid of the hash key (see :func:`canonicalize_unitary`).
    match_epsilon:
        Elementwise absolute tolerance for two canonical unitaries to be
        considered the same content.  Canonical forms are phase-aligned, so
        a direct ``allclose`` comparison applies (the Hilbert–Schmidt
        formula's ~1e-8 numerical floor would make tighter matching
        impossible); kept well below the resynthesis verification floor so a
        match never degrades an outcome's error.
    cache_failures:
        Also memoize failed synthesis attempts (``None`` outcomes), which are
        the most expensive calls; a stochastic backend then never retries a
        unitary it failed on while the entry lives.
    verify_hits:
        Re-verify every reconstructed replacement against the query unitary
        before returning it (and re-charge its measured distance).  Cheap for
        block-sized unitaries and makes hits sound against any residual
        numerical drift — and it is also what makes *shared* backends safe:
        whatever another worker stored is re-proven against this query before
        it is used.
    shared:
        Make ``copy.deepcopy`` return the cache itself instead of a private
        cold copy.  Portfolio workers deep-copy their transformations, so a
        shared cache is reused across all in-process (serial/threads)
        workers.  Whether sharing survives a *process* boundary depends on
        the backend: ``local`` pickles a private copy per worker (each keeps
        its own copy warm; the downgrade is recorded in :attr:`notes`), while
        ``tcp`` copies keep pointing at the one shared store.
    backend:
        Storage backend: a spec string (``"local:"``, the default;
        ``"server:"``; ``"tcp://host:port"``; see
        :func:`~repro.perf.parse_backend_spec`), a :class:`BackendSpec`, or a
        ready-made backend object from :mod:`repro.perf.shared_cache`.
        Non-local backends require ``shared=True`` — a cross-process store
        makes no sense for a cache documented as private.  A shared backend's
        puts go through a write-back buffer that flushes every 8 puts in one
        batched ``put_many``, whenever the cache is pickled, and on
        :meth:`flush`/:meth:`stats`; the local backend writes through.
    """

    def __init__(
        self,
        maxsize: int = 512,
        decimals: int = 6,
        match_epsilon: float = 1e-9,
        cache_failures: bool = True,
        verify_hits: bool = True,
        shared: bool = False,
        backend: "str | object" = "local:",
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.decimals = decimals
        self.match_epsilon = match_epsilon
        self.cache_failures = cache_failures
        self.verify_hits = verify_hits
        self.shared = shared
        if isinstance(backend, (str, BackendSpec)):
            spec = parse_backend_spec(backend)
            kind = spec.kind
        else:
            spec = None
            kind = backend.kind
        if kind != "local" and not shared:
            # Validate before materializing: create_backend would spawn a
            # server process with no handle left to close it.
            raise ValueError(
                f"the {kind!r} backend is a shared store; construct the "
                "cache with shared=True"
            )
        if spec is not None:
            backend = spec.create(maxsize=maxsize, match_epsilon=match_epsilon)
        self.backend = backend
        self.token = f"resynth-cache-{uuid.uuid4().hex[:12]}"
        #: lifecycle events worth surfacing (backend downgrades on pickling,
        #: fallbacks); collected into ``PerfReport.notes`` by the engine
        self.notes: list[str] = []
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._remote_hits = 0
        self._verify_failures = 0
        #: backend round trips absorbed after connection-level failures (a
        #: shared store lost mid-run degrades to local misses, see
        #: :meth:`_backend_get_many`); surfaced via :meth:`stats` and notes
        self._backend_failures = 0
        self._backend_failure_noted = False
        self._tcp_degradation_noted = False
        #: keys this front end itself stored — a hit on any other key served
        #: from a shared backend is a *cross-worker* (remote) hit
        self._my_keys: "set[bytes]" = set()
        #: read cache of recently fetched/updated buckets (shared backends
        #: only): serves repeated hits without an IPC round trip.  Only ever
        #: short-circuits *hits* — a content miss always re-consults the
        #: backend, so another worker's fresh entry is never shadowed.
        self._l1: "OrderedDict[bytes, list[_Entry]]" = OrderedDict()
        self._l1_size = 64
        self._write_buffer: "list[tuple[bytes, _Entry]]" = []
        self._lock = threading.Lock()

    # -- core protocol -------------------------------------------------------

    def canonical_key(self, unitary: np.ndarray) -> "tuple[bytes, tuple[int, ...], np.ndarray]":
        """Precompute the canonicalization triple for ``get``/``put``.

        A miss-path caller can canonicalize once and pass the triple to both
        calls instead of paying the k!-permutation scan twice.
        """
        return canonicalize_unitary(unitary, self.decimals)

    def get(
        self,
        unitary: np.ndarray,
        epsilon: "float | None" = None,
        key: "tuple[bytes, tuple[int, ...], np.ndarray] | None" = None,
    ) -> "tuple[bool, ResynthesisOutcome | None]":
        """Look up a block unitary; returns ``(hit, outcome)``.

        A hit with ``outcome=None`` is a memoized synthesis *failure*.  A hit
        with an outcome returns the cached replacement remapped into the
        query's qubit frame, re-verified (and its epsilon re-charged) against
        the query unitary when ``verify_hits`` is on; ``epsilon`` is the
        caller's synthesis tolerance used for that verification.  ``key`` is
        an optional precomputed :meth:`canonical_key` triple.
        """
        key, perm, canonical = self.canonical_key(unitary) if key is None else key
        entry, remote = self._lookup(key, canonical)
        if entry is None:
            with self._lock:
                self._misses += 1
            return False, None
        # Single read: a concurrent put() may refresh entry.outcome in place
        # (thread-shared caches), so branch and remap from one snapshot.
        outcome = entry.outcome
        if outcome is None:
            self._count_hit(remote)
            return True, None
        candidate = self._to_query_frame(outcome, perm)
        if self.verify_hits:
            verified = self._verify(unitary, candidate, epsilon)
            if verified is None:
                with self._lock:
                    self._misses += 1
                    self._verify_failures += 1
                return False, None
            candidate = verified
        self._count_hit(remote)
        return True, candidate

    def put(
        self,
        unitary: np.ndarray,
        outcome: "ResynthesisOutcome | None",
        key: "tuple[bytes, tuple[int, ...], np.ndarray] | None" = None,
    ) -> None:
        """Memoize the outcome of resynthesizing ``unitary``."""
        if outcome is None and not self.cache_failures:
            return
        key, perm, canonical = self.canonical_key(unitary) if key is None else key
        stored = outcome
        if outcome is not None:
            k = len(perm)
            mapping = {perm[i]: i for i in range(k)}
            stored = replace(outcome, circuit=outcome.circuit.remapped(mapping, k))
        entry = _Entry(canonical=canonical, outcome=stored)
        if self.backend.kind == "local":
            self.backend.put_many([(key, entry)])
            with self._lock:
                self._puts += 1
            return
        flush: "list[tuple[bytes, _Entry]] | None" = None
        with self._lock:
            bucket = self._l1.setdefault(key, [])
            _merge_entry(bucket, entry, self.match_epsilon)
            self._l1_touch(key)
            self._my_keys.add(key)
            self._write_buffer.append((key, entry))
            self._puts += 1
            if len(self._write_buffer) >= _WRITE_BATCH:
                flush = self._write_buffer
                self._write_buffer = []
        if flush:
            self._backend_put_many(flush)

    def flush(self) -> None:
        """Push any buffered puts to the backend (no-op for local storage)."""
        with self._lock:
            pending, self._write_buffer = self._write_buffer, []
        if pending:
            self._backend_put_many(pending)

    # -- batch engine hooks ---------------------------------------------------

    def prefetch_keys(self, keys: "list[bytes]") -> int:
        """Warm the L1 read cache with one batched fetch of ``keys``.

        Shared backends only (a local store has no IPC to amortize — no-op
        there).  Counter-neutral: prefetching neither hits nor misses, it
        only converts the *next* ``get`` on a fetched key from a backend
        round trip into an L1 scan.  Returns the number of buckets fetched.
        """
        if self.backend.kind == "local" or not keys:
            return 0
        unique = list(dict.fromkeys(keys))
        fetched = self._backend_get_many(unique)
        if not fetched:
            return 0
        with self._lock:
            for key, entries in fetched.items():
                bucket = self._l1.get(key)
                if bucket is None:
                    self._l1[key] = list(entries)
                else:
                    # Merge, never replace — same rationale as _lookup: the
                    # L1 bucket may hold this worker's own buffered puts.
                    for entry in entries:
                        _merge_entry(bucket, entry, self.match_epsilon)
                self._l1_touch(key)
        return len(fetched)

    def peek_key(self, key: bytes, canonical: np.ndarray) -> bool:
        """Counter-neutral presence test for a canonicalized entry.

        Unlike :meth:`get` this touches no hit/miss counters and no LRU
        recency, so the batch engine can decide which misses to presynthesize
        without perturbing the statistics the scalar path would produce.
        Local backend: a store peek.  Shared backends: an L1-only scan —
        call :meth:`prefetch_keys` first for a meaningful answer; a ``False``
        may simply mean "not fetched yet", which costs the caller a wasted
        prepass, never a wrong result.
        """
        if self.backend.kind == "local":
            return self.backend.peek(key, canonical)
        with self._lock:
            bucket = self._l1.get(key)
            if not bucket:
                return False
            return any(
                _entries_match(entry.canonical, canonical, self.match_epsilon)
                for entry in bucket
            )

    # -- internals -----------------------------------------------------------

    #: connection-level failures a backend round trip can die of when its
    #: store vanishes mid-run; protocol rejections (RuntimeError) still raise
    _BACKEND_FAULTS = (OSError, EOFError, ConnectionError)

    def _backend_get_many(self, keys: "list[bytes]") -> "dict[bytes, list[_Entry]]":
        """``backend.get_many`` that degrades a dead store to a miss.

        The cache is a memo, never a source of truth — a shared store that
        dies mid-run must cost hit rate, not the run.  (The tcp backend
        already absorbs its own failures; this guard gives any other shared
        backend the same property.)
        """
        try:
            return self.backend.get_many(keys)
        except self._BACKEND_FAULTS as error:
            self._record_backend_failure(error)
            return {}

    def _backend_put_many(self, items: "list[tuple[bytes, _Entry]]") -> None:
        """``backend.put_many`` that drops the batch if the store is gone."""
        try:
            self.backend.put_many(items)
        except self._BACKEND_FAULTS as error:
            self._record_backend_failure(error)

    def _record_backend_failure(self, error: BaseException) -> None:
        with self._lock:
            self._backend_failures += 1
            if not self._backend_failure_noted:
                self._backend_failure_noted = True
                self.notes.append(
                    f"shared {self.backend.kind!r} cache backend failed mid-run "
                    f"({error!r}); degraded to local-only operation "
                    "(lookups miss, writes are dropped)"
                )

    def _lookup(self, key: bytes, canonical: np.ndarray) -> "tuple[_Entry | None, bool]":
        """Find the matching entry; returns ``(entry, served_remotely)``.

        Local backend: a straight store match.  Shared backends: the L1 read
        cache is consulted first; on an L1 content miss the bucket is fetched
        from the shared store (one batched IPC round trip) and re-scanned, so
        entries inserted by sibling workers are found.  A match on a key this
        front end never stored is counted as a remote (cross-worker) hit.
        """
        if self.backend.kind == "local":
            return self.backend.match(key, canonical), False
        with self._lock:
            bucket = self._l1.get(key)
            if bucket is not None:
                for entry in bucket:
                    if _entries_match(entry.canonical, canonical, self.match_epsilon):
                        self._l1_touch(key)
                        return entry, key not in self._my_keys
        fetched = self._backend_get_many([key]).get(key)
        if not fetched:
            return None, False
        with self._lock:
            bucket = self._l1.get(key)
            if bucket is None:
                bucket = list(fetched)
                self._l1[key] = bucket
            else:
                # Merge, never replace: the existing L1 bucket may hold this
                # worker's own puts that are still in the write buffer, and a
                # wholesale replacement would discard them — making the worker
                # re-synthesize a result it already paid for.
                for entry in fetched:
                    _merge_entry(bucket, entry, self.match_epsilon)
            self._l1_touch(key)
            scan = list(bucket)
        for entry in scan:
            if _entries_match(entry.canonical, canonical, self.match_epsilon):
                return entry, key not in self._my_keys
        return None, False

    def _l1_touch(self, key: bytes) -> None:
        """LRU-refresh ``key`` in the read cache and bound its size (lock held)."""
        self._l1.move_to_end(key)
        while len(self._l1) > self._l1_size:
            self._l1.popitem(last=False)

    def _count_hit(self, remote: bool) -> None:
        with self._lock:
            self._hits += 1
            if remote:
                self._remote_hits += 1

    @staticmethod
    def _to_query_frame(outcome: ResynthesisOutcome, perm: "tuple[int, ...]") -> ResynthesisOutcome:
        """Remap a canonical-frame outcome back into the query's qubit frame."""
        k = len(perm)
        mapping = {i: perm[i] for i in range(k)}
        return replace(outcome, circuit=outcome.circuit.remapped(mapping, k))

    @staticmethod
    def _verify(
        unitary: np.ndarray, candidate: ResynthesisOutcome, epsilon: "float | None"
    ) -> "ResynthesisOutcome | None":
        """Re-measure the replacement against the query unitary."""
        distance = hilbert_schmidt_distance(unitary, candidate.circuit.unitary())
        bound = max(epsilon if epsilon is not None else 0.0, EXACT_DISTANCE_FLOOR)
        if distance > bound:
            return None
        charged = 0.0 if distance <= EXACT_DISTANCE_FLOOR else distance
        return replace(candidate, distance=distance, charged_epsilon=charged)

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        if self.backend.kind != "local":
            self.flush()  # buffered puts must count, as they do in __contains__
        return len(self.backend)

    def __contains__(self, unitary) -> bool:
        key, _, canonical = canonicalize_unitary(np.asarray(unitary), self.decimals)
        if self.backend.kind == "local":
            return self.backend.peek(key, canonical)
        self.flush()
        bucket = self.backend.get_many([key]).get(key)
        if not bucket:
            return False
        return any(
            _entries_match(entry.canonical, canonical, self.match_epsilon)
            for entry in bucket
        )

    def stats(self) -> CacheStats:
        """Point-in-time counter snapshot (see :class:`CacheStats`).

        Hit/miss/put counters are this front end's own; storage-level numbers
        (entries, evictions, negative entries) come from the backend — for a
        shared backend they describe the store *all* workers feed.  Shared
        backends are flushed first so the snapshot covers buffered puts; if
        the shared store is unreachable (e.g. already torn down), the
        snapshot degrades to the local counters instead of raising.
        """
        try:
            if self.backend.kind != "local":
                self.flush()
            storage = self.backend.stats()
        except Exception:
            storage = {}
        dropped = int(storage.get("dropped_requests", 0))
        unreachable = int(storage.get("unreachable_servers", 0))
        with self._lock:
            # Degradations and persistence anomalies become notes the engine
            # collects into PerfReport.notes — counters alone are easy to
            # miss; a note names the failure in every report that saw it.
            for note in storage.get("persist_notes", ()) or ():
                if note not in self.notes:
                    self.notes.append(note)
            if (dropped or unreachable) and not self._tcp_degradation_noted:
                self._tcp_degradation_noted = True
                self.notes.append(
                    f"tcp cache degraded mid-run: {unreachable} unreachable "
                    f"server(s), {dropped} dropped request(s) — lookups on the "
                    "lost server missed and writes to it were lost"
                )
            return CacheStats(
                token=self.token,
                backend=self.backend.kind,
                hits=self._hits,
                misses=self._misses,
                remote_hits=self._remote_hits,
                puts=self._puts,
                evictions=int(storage.get("evictions", 0)),
                entries=int(storage.get("entries", 0)),
                negative_entries=int(storage.get("negative_entries", 0)),
                verify_failures=self._verify_failures,
                dropped_requests=dropped,
                unreachable_servers=unreachable,
                backend_failures=self._backend_failures,
            )

    def clear(self) -> None:
        with self._lock:
            self._l1.clear()
            self._write_buffer.clear()
        self.backend.clear()

    def close(self) -> None:
        """Flush buffered puts and release backend resources.

        For the owner of a ``server:`` backend this tears the spawned cache
        server down; worker-side copies merely drop their connection.
        """
        try:
            self.flush()
        except Exception:
            pass  # a dead backend cannot accept the final flush
        self.backend.close()

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"<ResynthesisCache backend={self.backend.kind} "
            f"entries={stats.entries}/{self.maxsize} "
            f"hits={stats.hits} misses={stats.misses} shared={self.shared}>"
        )

    # -- copying / shipping ----------------------------------------------------

    def __deepcopy__(self, memo: dict) -> "ResynthesisCache":
        """Shared caches deep-copy to themselves; private ones start cold.

        Portfolio workers deep-copy their transformation lists to keep
        stateful members isolated — a shared cache deliberately pierces that
        isolation (it is thread-safe and content-addressed, so reuse across
        workers is sound), while the default private cache gives each worker
        its own cold memo with the same configuration.
        """
        if self.shared:
            return self
        return ResynthesisCache(
            maxsize=self.maxsize,
            decimals=self.decimals,
            match_epsilon=self.match_epsilon,
            cache_failures=self.cache_failures,
            verify_hits=self.verify_hits,
            shared=False,
        )

    def __getstate__(self) -> dict:
        if self.backend.kind != "local":
            # Crossing a process boundary: everything buffered must reach the
            # shared store first (this is also what publishes a worker's last
            # puts at each exchange-round boundary), and the L1 read cache is
            # not shipped — the copy refetches from the shared store.
            self.flush()
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle; recreated on load
        state["_l1"] = OrderedDict()
        state["_write_buffer"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        # Pickling *forks* the front end: the copy evolves independently of
        # the original (e.g. per-worker copies on the processes backend).  A
        # fresh token keeps the fork's statistics from being deduplicated
        # against the original's in merged reports.  With a shared backend
        # the fork still reads and writes the one shared store; with the
        # local backend a shared=True cache silently became private — record
        # the downgrade so it surfaces in ``PerfReport.notes`` instead.
        self.token = f"resynth-cache-{uuid.uuid4().hex[:12]}"
        if self.shared and self.backend.kind == "local":
            self.notes = list(self.notes) + [
                "shared resynthesis cache crossed a process boundary with the "
                "'local' backend: this copy downgraded to a private in-process "
                "cache (use backend='server:' for cross-process sharing)"
            ]


__all__ = [
    "ResynthesisCache",
    "canonicalize_unitary",
    "permute_unitary",
]
