"""Hot-path performance layer: caching and instrumentation for the search loop.

The GUOQ inner loop spends its time in three places: resynthesis (unitary
synthesis of small blocks), rewrite passes (full scans of the circuit), and
cost evaluation (circuit metrics).  This package provides the machinery that
makes each of them cheap without changing any search outcome that the
Algorithm 1 regression pin observes:

* :class:`~repro.perf.cache.ResynthesisCache` — a content-addressed memo of
  resynthesis outcomes keyed by a canonical (global-phase- and
  qubit-permutation-normalized) form of the block unitary, with LRU bounds
  and hit/miss counters;
* :mod:`~repro.perf.shared_cache` — pluggable cache storage backends:
  in-process (``local``) and a client (``tcp``) of one cache server —
  either one the driver spawns (``server:``) or a standalone one — so the
  cache can be shared across portfolio workers in separate processes,
  or on separate machines (see :mod:`repro.distrib`);
* :class:`~repro.perf.report.PerfReport` — per-phase wall-clock accounting,
  iteration throughput, and cache statistics, surfaced through
  ``GuoqResult.perf`` and merged across portfolio workers;
* :mod:`~repro.perf.persist` — the crash-safe disk tier: ``local`` and
  ``server:`` stores (and the standalone tcp cache server) can snapshot
  their buckets to an append-only corpus file and reload it on start, so a
  killed or restarted cache server comes back warm instead of cold.
"""

from repro.perf.cache import ResynthesisCache, canonicalize_unitary, permute_unitary
from repro.perf.persist import (
    CORPUS_VERSION,
    CorpusPersister,
    append_corpus,
    load_corpus,
    write_corpus,
)
from repro.perf.report import CacheStats, PerfReport
from repro.perf.shared_cache import (
    BACKEND_KINDS,
    BackendSpec,
    CacheBackend,
    LocalBackend,
    SharedCacheUnavailable,
    TcpCacheBackend,
    drain_connection_pool,
    parse_backend_spec,
)

__all__ = [
    "BACKEND_KINDS",
    "BackendSpec",
    "CORPUS_VERSION",
    "CacheBackend",
    "CacheStats",
    "CorpusPersister",
    "LocalBackend",
    "PerfReport",
    "ResynthesisCache",
    "SharedCacheUnavailable",
    "TcpCacheBackend",
    "append_corpus",
    "canonicalize_unitary",
    "drain_connection_pool",
    "load_corpus",
    "parse_backend_spec",
    "permute_unitary",
    "write_corpus",
]
