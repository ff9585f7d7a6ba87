"""Hot-path performance benchmarks: resynthesis cache and rewrite memo.

Measured comparisons back the performance layer's claims.  Their numbers
are exported through ``--benchmark-json`` ``extra_info`` so the CI perf
job's ``BENCH_*.json`` artifact records them per run, and the wall-clock
comparisons are gated there, by ``benchmarks/check_regression.py``: a
timing assertion in the test suite would make its pass depend on machine
load.  The tests themselves assert only what timing cannot change.

* **Resynthesis cache** — the same seeded Clifford+T search run with and
  without a :class:`repro.perf.ResynthesisCache`; the cached run must report
  a non-zero hit rate (the perf gate: higher iterations/sec, since block
  unitaries recur and synthesis calls collapse into lookups).
* **Rewrite no-fire memo** — the same seeded rewrite-only search with and
  without ``GuoqConfig.memoize_rewrites``; the memoized run must reach the
  bit-identical best cost while skipping the no-op full passes (the perf
  gate: higher iterations/sec).
* **Cross-process shared cache** — a 4-worker ``processes`` portfolio over a
  repeated-block workload, with private per-worker caches versus one shared
  ``server:`` store; the shared run must report cross-worker (remote) hits
  (the perf gate: within noise of the private-copy wall-clock).
* **Warm restart** — a tcp cache server with an on-disk corpus is warmed by
  one run, killed, and restarted from its store; the second run against the
  restarted server must reuse the persisted entries (remote hits, zero
  verification failures, zero dropped requests).
* **Batched resynthesis** — one batch of distinct 2-qubit motif blocks
  through :class:`repro.synthesis.BatchResynthesizer` (shared-frontier BFS,
  vectorized distance screens) versus the scalar reference loop; the
  batched pass must return bit-identical outcomes (the perf gate: in less
  wall-clock).
"""

import time
from dataclasses import replace

import pytest

from repro.circuits import Circuit
from repro.core import (
    GuoqConfig,
    GuoqOptimizer,
    ResynthesisTransformation,
    TotalGateCount,
    rewrite_transformations,
)
from repro.distrib import start_tcp_cache_server
from repro.gatesets import CLIFFORD_T, IBMQ20, decompose_to_gate_set
from repro.parallel import PortfolioConfig, PortfolioOptimizer
from repro.perf import ResynthesisCache, TcpCacheBackend
from repro.rewrite import rules_for_gate_set
from repro.suite import qft
from repro.suite.generators import random_clifford_t, repeated_blocks
from repro.synthesis import BatchResynthesizer, CliffordTResynthesizer

from harness import print_table

RESYNTH_ITERATIONS = 300
RESYNTH_SEED = 9
MEMO_ITERATIONS = 4000
MEMO_SEED = 0
SHARED_ITERATIONS = 60
SHARED_SEED = 17
SHARED_WORKERS = 4


def _clifford_t_transformations(cache: "ResynthesisCache | None"):
    resynthesizer = CliffordTResynthesizer(
        epsilon=1e-6,
        max_qubits=2,
        bfs_depth=4,
        max_bfs_nodes=1500,
        anneal_iterations=400,
        anneal_restarts=1,
        rng=3,
    )
    if cache is not None:
        resynthesizer.attach_cache(cache)
    transformations = rewrite_transformations(rules_for_gate_set(CLIFFORD_T))
    transformations.append(
        ResynthesisTransformation(resynthesizer, max_block_qubits=2, max_block_gates=6)
    )
    return transformations


def _timed_run(transformations, cost, config, circuit):
    started = time.monotonic()
    result = GuoqOptimizer(transformations, cost, config).optimize(circuit)
    return result, time.monotonic() - started


@pytest.mark.smoke
@pytest.mark.benchmark(group="perf-hotpath")
def test_resynthesis_cache_speeds_up_search(benchmark):
    """Cached resynthesis must hit; the perf gate compares throughput."""
    circuit = random_clifford_t(4, 60, seed=2)
    config = GuoqConfig(
        epsilon_budget=1e-5,
        time_limit=1e9,
        max_iterations=RESYNTH_ITERATIONS,
        seed=RESYNTH_SEED,
        resynthesis_probability=0.25,
    )

    uncached, uncached_wall = _timed_run(
        _clifford_t_transformations(None), TotalGateCount(), config, circuit
    )

    def _cached_run():
        return _timed_run(
            _clifford_t_transformations(ResynthesisCache(maxsize=256)),
            TotalGateCount(),
            config,
            circuit,
        )

    cached, cached_wall = benchmark.pedantic(_cached_run, rounds=1, iterations=1)

    perf = cached.perf
    assert perf is not None
    assert perf.cache_hits > 0, "repeated block unitaries should hit the cache"
    assert perf.cache_hit_rate > 0.0
    # Same seed, and every cache hit replays a verified-equivalent outcome:
    # the search must end at least as good as the uncached run's quality
    # class; in practice the trajectories coincide until synthesis outcomes
    # diverge, so only the weaker quality bound is asserted.
    assert cached.best_cost <= uncached.initial_cost
    # The measured win (gated by check_regression.py): skipping synthesis
    # calls must raise throughput.
    cached_ips = cached.iterations / cached_wall
    uncached_ips = uncached.iterations / uncached_wall

    benchmark.extra_info["cache_hit_rate"] = perf.cache_hit_rate
    benchmark.extra_info["cache_hits"] = perf.cache_hits
    benchmark.extra_info["cache_misses"] = perf.cache_misses
    benchmark.extra_info["iterations_per_sec_cached"] = cached_ips
    benchmark.extra_info["iterations_per_sec_uncached"] = uncached_ips
    benchmark.extra_info["speedup"] = uncached_wall / cached_wall
    benchmark.extra_info["perf_report"] = perf.to_dict()

    print_table(
        "Resynthesis cache — cached vs uncached GUOQ (random Clifford+T, 4q/60g)",
        ["variant", "wall (s)", "iters/s", "resynth (s)", "hit rate", "best cost"],
        [
            [
                "uncached",
                f"{uncached_wall:.2f}",
                f"{uncached_ips:.0f}",
                f"{uncached.perf.phase_seconds['resynthesis']:.2f}",
                "-",
                uncached.best_cost,
            ],
            [
                "cached",
                f"{cached_wall:.2f}",
                f"{cached_ips:.0f}",
                f"{perf.phase_seconds['resynthesis']:.2f}",
                f"{perf.cache_hit_rate:.2f}",
                cached.best_cost,
            ],
        ],
    )


@pytest.mark.smoke
@pytest.mark.benchmark(group="perf-hotpath")
def test_rewrite_memo_speeds_up_search(benchmark):
    """The no-fire memo must stay bit-identical; the perf gate compares throughput."""
    circuit = decompose_to_gate_set(qft(7), IBMQ20)
    transformations = rewrite_transformations(rules_for_gate_set(IBMQ20))
    base = GuoqConfig(time_limit=1e9, max_iterations=MEMO_ITERATIONS, seed=MEMO_SEED)

    plain, plain_wall = _timed_run(
        transformations, TotalGateCount(), replace(base, memoize_rewrites=False), circuit
    )

    def _memoized_run():
        return _timed_run(transformations, TotalGateCount(), base, circuit)

    memoized, memo_wall = benchmark.pedantic(_memoized_run, rounds=1, iterations=1)

    # Bit-identical trajectory: the memo only skips passes that would have
    # rescanned the circuit and returned None.
    assert memoized.best_cost == plain.best_cost
    assert memoized.accepted == plain.accepted
    assert [p.cost for p in memoized.history] == [p.cost for p in plain.history]
    assert memoized.perf.rewrite_skips > 0

    memo_ips = memoized.iterations / memo_wall
    plain_ips = plain.iterations / plain_wall

    benchmark.extra_info["iterations_per_sec_memoized"] = memo_ips
    benchmark.extra_info["iterations_per_sec_plain"] = plain_ips
    benchmark.extra_info["rewrite_skips"] = memoized.perf.rewrite_skips
    benchmark.extra_info["speedup"] = plain_wall / memo_wall

    print_table(
        "Rewrite no-fire memo — memoized vs plain GUOQ (qft_7, ibmq20)",
        ["variant", "wall (s)", "iters/s", "skipped passes", "best cost"],
        [
            ["plain", f"{plain_wall:.2f}", f"{plain_ips:.0f}", 0, plain.best_cost],
            [
                "memoized",
                f"{memo_wall:.2f}",
                f"{memo_ips:.0f}",
                memoized.perf.rewrite_skips,
                memoized.best_cost,
            ],
        ],
    )


def _shared_cache_portfolio(share):
    resynthesizer = CliffordTResynthesizer(
        epsilon=1e-6,
        max_qubits=2,
        bfs_depth=4,
        max_bfs_nodes=1500,
        anneal_iterations=400,
        anneal_restarts=1,
        rng=3,
    )
    if share is None:
        # The honest baseline is the PR 2 status quo: every worker forks a
        # private cold cache and warms it alone across exchange rounds.
        resynthesizer.attach_cache(ResynthesisCache(maxsize=256))
    transformations = rewrite_transformations(rules_for_gate_set(CLIFFORD_T))
    transformations.append(
        ResynthesisTransformation(resynthesizer, max_block_qubits=2, max_block_gates=6)
    )
    config = PortfolioConfig(
        search=GuoqConfig(
            epsilon_budget=1e-5,
            time_limit=1e9,
            max_iterations=SHARED_ITERATIONS,
            seed=SHARED_SEED,
            resynthesis_probability=0.35,
        ),
        num_workers=SHARED_WORKERS,
        exchange_interval=30,
        backend="processes",
    )
    return PortfolioOptimizer(
        transformations, TotalGateCount(), config, share_resynthesis_cache=share
    )


@pytest.mark.smoke
@pytest.mark.benchmark(group="perf-hotpath")
def test_shared_cache_cross_process_portfolio(benchmark):
    """The shared portfolio must show cross-worker hits; the perf gate compares wall."""
    circuit = repeated_blocks()

    private_started = time.monotonic()
    private = _shared_cache_portfolio(None).optimize(circuit)
    private_wall = time.monotonic() - private_started

    def _shared_run():
        started = time.monotonic()
        result = _shared_cache_portfolio("server:").optimize(circuit)
        return result, time.monotonic() - started

    shared, shared_wall = benchmark.pedantic(_shared_run, rounds=1, iterations=1)

    assert shared.shared_cache_backend == "tcp"
    perf = shared.perf
    assert perf is not None
    assert perf.cache_remote_hits > 0, (
        "process workers must reuse synthesis results their siblings inserted"
    )
    # Sharing must never degrade the merged result below the private run's
    # starting point (both searches remain sound anytime optimizers).
    assert shared.best_cost <= shared.initial_cost

    benchmark.extra_info["cache_remote_hits"] = perf.cache_remote_hits
    benchmark.extra_info["cache_hits"] = perf.cache_hits
    benchmark.extra_info["cache_hit_rate"] = perf.cache_hit_rate
    benchmark.extra_info["wall_shared"] = shared_wall
    benchmark.extra_info["wall_private"] = private_wall
    benchmark.extra_info["speedup_vs_private"] = private_wall / shared_wall
    benchmark.extra_info["perf_report"] = perf.to_dict()

    private_hits = private.perf.cache_hits if private.perf is not None else 0
    print_table(
        "Shared resynthesis cache — private copies vs server: store "
        f"({SHARED_WORKERS}-worker processes portfolio, repeated-block workload)",
        ["variant", "wall (s)", "hits", "remote hits", "best cost"],
        [
            ["private", f"{private_wall:.2f}", private_hits, "-", private.best_cost],
            [
                "server-shared",
                f"{shared_wall:.2f}",
                perf.cache_hits,
                perf.cache_remote_hits,
                shared.best_cost,
            ],
        ],
    )


BATCH_RESYNTH_SEED = 5


def _motif_blocks() -> "list[Circuit]":
    """25 distinct 2-qubit Clifford+T motifs, all BFS-reachable in 3 moves.

    Distinct unitaries make the comparison honest: with no duplicates there
    is nothing for caching or dedup to collapse, so scalar-vs-batched is
    purely "25 independent BFS searches" against "one shared-frontier pass
    screening all 25 targets per expanded candidate".
    """
    gates = ["h", "t", "s", "tdg", "z"]
    blocks = []
    for first in gates:
        for second in gates:
            circuit = Circuit(2)
            getattr(circuit, first)(0)
            circuit.cx(0, 1)
            getattr(circuit, second)(1)
            blocks.append(circuit)
    return blocks


@pytest.mark.smoke
@pytest.mark.benchmark(group="perf-hotpath")
def test_batched_resynthesis(benchmark):
    """The batched engine must match the scalar loop; the perf gate compares wall."""

    def _resynthesizer():
        return CliffordTResynthesizer(
            epsilon=1e-6,
            max_qubits=2,
            # depth budget at width 2 is ``bfs_depth - 2``; the motifs are
            # three gates deep, so 5 gives BFS exactly the reach it needs.
            bfs_depth=5,
            max_bfs_nodes=30000,
            anneal_iterations=50,
            anneal_restarts=1,
            rng=BATCH_RESYNTH_SEED,
        )

    blocks = _motif_blocks()
    scalar_started = time.monotonic()
    expected = _resynthesizer().resynthesize_many(blocks)
    scalar_wall = time.monotonic() - scalar_started
    assert all(outcome is not None for outcome in expected), (
        "every motif must be BFS-solvable so the comparison measures search, "
        "not failure handling"
    )

    engine = BatchResynthesizer(_resynthesizer())

    def _batched_run():
        started = time.monotonic()
        results = engine.resynthesize_batch(blocks)
        return results, time.monotonic() - started

    results, batched_wall = benchmark.pedantic(_batched_run, rounds=1, iterations=1)

    # Bit-identity — a fast wrong answer is worthless.
    assert results == expected

    benchmark.extra_info["batch_size"] = len(blocks)
    benchmark.extra_info["wall_scalar"] = scalar_wall
    benchmark.extra_info["wall_batched"] = batched_wall
    benchmark.extra_info["speedup"] = scalar_wall / batched_wall

    print_table(
        "Batched resynthesis — scalar loop vs shared-frontier batch "
        f"({len(blocks)} distinct 2q Clifford+T motifs)",
        ["variant", "wall (s)", "blocks/s", "speedup"],
        [
            ["scalar", f"{scalar_wall:.3f}", f"{len(blocks) / scalar_wall:.1f}", "1.0x"],
            [
                "batched",
                f"{batched_wall:.3f}",
                f"{len(blocks) / batched_wall:.1f}",
                f"{scalar_wall / batched_wall:.1f}x",
            ],
        ],
    )


WARM_RESTART_ITERATIONS = 200
WARM_RESTART_SEED = 9


def _tcp_cached_run(address, config, circuit):
    """One GUOQ run with a fresh front end against the server at ``address``."""
    cache = ResynthesisCache(maxsize=256, shared=True, backend=TcpCacheBackend(address))
    try:
        result, wall = _timed_run(
            _clifford_t_transformations(cache), TotalGateCount(), config, circuit
        )
        cache.flush()
        stats = cache.stats()
    finally:
        cache.close()
    return result, wall, stats


@pytest.mark.smoke
@pytest.mark.benchmark(group="perf-hotpath")
def test_warm_restart_persistent_cache(benchmark, tmp_path):
    """A cache server restarted from its disk store must serve warm hits.

    Run one: a tcp cache server with ``store_path`` set is warmed by a
    seeded search, then terminated (SIGTERM → exit snapshot).  Run two: a
    *new* server process reloads the corpus and a *fresh* front end replays
    the same seed against it — every hit it gets is necessarily a remote hit
    served from disk-reloaded state, verified against the query unitary
    (``verify_failures == 0``) with nothing silently shed
    (``dropped_requests == 0``).
    """
    store = tmp_path / "resynth_corpus.bin"
    circuit = random_clifford_t(4, 60, seed=2)
    config = GuoqConfig(
        epsilon_budget=1e-5,
        time_limit=1e9,
        max_iterations=WARM_RESTART_ITERATIONS,
        seed=WARM_RESTART_SEED,
        resynthesis_probability=0.25,
    )

    process, address = start_tcp_cache_server(
        maxsize=4096, store_path=str(store), flush_interval=8
    )
    try:
        _, cold_wall, cold_stats = _tcp_cached_run(address, config, circuit)
    finally:
        process.terminate()  # SIGTERM: the server snapshots its store on exit
        process.join(timeout=30.0)
    assert store.exists(), "the warm run must have persisted a corpus file"
    assert cold_stats.puts > 0, "the warm run should have populated the store"

    restarted, address = start_tcp_cache_server(
        maxsize=4096, store_path=str(store), flush_interval=8
    )
    try:

        def _warm_run():
            return _tcp_cached_run(address, config, circuit)

        warm, warm_wall, warm_stats = benchmark.pedantic(_warm_run, rounds=1, iterations=1)
    finally:
        restarted.terminate()
        restarted.join(timeout=30.0)

    assert warm_stats.remote_hits > 0, (
        "a server restarted from its corpus must serve the previous run's entries"
    )
    assert warm_stats.verify_failures == 0, (
        "disk-reloaded entries must verify bit-identically against query unitaries"
    )
    assert warm_stats.dropped_requests == 0 and warm_stats.unreachable_servers == 0
    assert warm.best_cost <= warm.initial_cost

    total_lookups = max(1, warm_stats.hits + warm_stats.misses)
    benchmark.extra_info["cache_remote_hits"] = warm_stats.remote_hits
    benchmark.extra_info["cache_hit_rate"] = warm_stats.hits / total_lookups
    benchmark.extra_info["cache_dropped_requests"] = (
        warm_stats.dropped_requests + warm_stats.backend_failures
    )
    benchmark.extra_info["cache_verify_failures"] = warm_stats.verify_failures
    benchmark.extra_info["store_bytes"] = store.stat().st_size
    benchmark.extra_info["wall_cold"] = cold_wall
    benchmark.extra_info["wall_warm"] = warm_wall

    print_table(
        "Warm restart — tcp cache server restarted from its on-disk corpus "
        "(seeded Clifford+T search, 4q/60g)",
        ["run", "wall (s)", "hits", "remote hits", "verify fails", "dropped"],
        [
            [
                "cold (fresh store)",
                f"{cold_wall:.2f}",
                cold_stats.hits,
                cold_stats.remote_hits,
                cold_stats.verify_failures,
                cold_stats.dropped_requests,
            ],
            [
                "warm (restarted)",
                f"{warm_wall:.2f}",
                warm_stats.hits,
                warm_stats.remote_hits,
                warm_stats.verify_failures,
                warm_stats.dropped_requests,
            ],
        ],
    )
