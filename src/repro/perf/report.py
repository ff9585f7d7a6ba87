"""Performance instrumentation records for the search hot path.

A :class:`PerfReport` is a plain, picklable record of where a run spent its
time: per-phase wall-clock seconds, iteration throughput, how often the
rewrite no-fire memo short-circuited a pass, and the hit/miss statistics of
every resynthesis cache the run touched.  Reports merge across portfolio
workers (:meth:`PerfReport.merged`), deduplicating shared caches by token so
a cache shared between in-process workers is only counted once.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """A point-in-time snapshot of one :class:`ResynthesisCache`'s counters.

    ``token`` identifies the cache object the snapshot came from; snapshots
    with the same token describe the same (possibly shared) cache at
    different times, which is what lets merged reports avoid double counting.
    """

    token: str = ""
    #: storage backend kind the cache front end was using: ``local`` or
    #: ``tcp`` (see :mod:`repro.perf.shared_cache`)
    backend: str = "local"
    hits: int = 0
    misses: int = 0
    #: hits served from a *shared* backend on keys another worker inserted —
    #: the cross-process reuse signal (always 0 for the local backend)
    remote_hits: int = 0
    puts: int = 0
    evictions: int = 0
    entries: int = 0
    negative_entries: int = 0
    #: hits whose reconstructed replacement failed re-verification against
    #: the query unitary (each one was served as a miss; nonzero values point
    #: at key-space collisions or a damaged store, never at a wrong result)
    verify_failures: int = 0
    #: requests a degraded ``tcp`` backend dropped after its server died
    #: mid-run (gets answered as misses, puts silently lost to that server)
    dropped_requests: int = 0
    #: 1 when this front end's ``tcp`` backend has marked its server dead
    #: (0 otherwise, and for every other backend)
    unreachable_servers: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "token": self.token,
            "backend": self.backend,
            "hits": self.hits,
            "misses": self.misses,
            "remote_hits": self.remote_hits,
            "hit_rate": self.hit_rate,
            "puts": self.puts,
            "evictions": self.evictions,
            "entries": self.entries,
            "negative_entries": self.negative_entries,
            "verify_failures": self.verify_failures,
            "dropped_requests": self.dropped_requests,
            "unreachable_servers": self.unreachable_servers,
        }


@dataclass
class PerfReport:
    """Where one search run (or a merged portfolio) spent its wall-clock.

    ``phase_seconds``/``phase_calls`` are keyed by phase name: ``"rewrite"``
    and ``"resynthesis"`` cover transformation application, ``"cost"`` covers
    objective evaluation of candidates.  ``rewrite_skips`` counts iterations
    the no-fire memo answered without scanning the circuit.
    """

    iterations: int = 0
    elapsed: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_calls: dict[str, int] = field(default_factory=dict)
    rewrite_skips: int = 0
    caches: list[CacheStats] = field(default_factory=list)
    #: human-readable lifecycle events worth surfacing in reports: shared
    #: cache backend selections, fallbacks, and fork-time downgrades
    notes: list[str] = field(default_factory=list)

    @property
    def iterations_per_second(self) -> float:
        return self.iterations / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def cache_hits(self) -> int:
        return sum(stats.hits for stats in self.caches)

    @property
    def cache_misses(self) -> int:
        return sum(stats.misses for stats in self.caches)

    @property
    def cache_hit_rate(self) -> float:
        """Aggregate hit rate over every cache the run touched."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def cache_remote_hits(self) -> int:
        """Hits on entries another worker inserted into a shared backend."""
        return sum(stats.remote_hits for stats in self.caches)

    @property
    def cache_verify_failures(self) -> int:
        """Hits that failed re-verification (served as misses) across caches."""
        return sum(stats.verify_failures for stats in self.caches)

    @property
    def cache_dropped_requests(self) -> int:
        """Requests degraded backends dropped mid-run (0 = healthy server)."""
        return sum(stats.dropped_requests for stats in self.caches)

    @property
    def cache_unreachable_servers(self) -> int:
        """1 when any front end saw its cache server die mid-run, else 0.

        The max, not the sum: every worker's backend copy watches the *same*
        server, so summing would count one dead server once per worker.
        """
        return max((stats.unreachable_servers for stats in self.caches), default=0)

    def to_dict(self) -> dict:
        """JSON-serializable form, the shape embedded in ``BENCH_*.json``."""
        return {
            "iterations": self.iterations,
            "elapsed": self.elapsed,
            "iterations_per_second": self.iterations_per_second,
            "phase_seconds": dict(self.phase_seconds),
            "phase_calls": dict(self.phase_calls),
            "rewrite_skips": self.rewrite_skips,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_remote_hits": self.cache_remote_hits,
            "cache_verify_failures": self.cache_verify_failures,
            "cache_dropped_requests": self.cache_dropped_requests,
            "cache_unreachable_servers": self.cache_unreachable_servers,
            "caches": [stats.to_dict() for stats in self.caches],
            "notes": list(self.notes),
        }

    @staticmethod
    def merged(reports: "list[PerfReport]", elapsed: "float | None" = None) -> "PerfReport":
        """Sum reports across workers into one portfolio-level report.

        Phase seconds and iteration counts add up (they measure work done, not
        wall time); ``elapsed`` defaults to the max worker elapsed but callers
        with a real portfolio wall-clock should pass it explicitly.  Cache
        snapshots are deduplicated by token, keeping the most advanced
        snapshot of each cache, so shared caches are not double counted.
        """
        merged = PerfReport()
        latest: dict[str, CacheStats] = {}
        for report in reports:
            if report is None:
                continue
            merged.iterations += report.iterations
            merged.rewrite_skips += report.rewrite_skips
            merged.elapsed = max(merged.elapsed, report.elapsed)
            for phase, seconds in report.phase_seconds.items():
                merged.phase_seconds[phase] = merged.phase_seconds.get(phase, 0.0) + seconds
            for phase, calls in report.phase_calls.items():
                merged.phase_calls[phase] = merged.phase_calls.get(phase, 0) + calls
            for stats in report.caches:
                known = latest.get(stats.token)
                if known is None or stats.lookups >= known.lookups:
                    latest[stats.token] = stats
            for note in report.notes:
                if note not in merged.notes:
                    merged.notes.append(note)
        merged.caches = list(latest.values())
        if elapsed is not None:
            merged.elapsed = elapsed
        return merged
