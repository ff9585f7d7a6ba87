"""Cross-process shared resynthesis cache: one store, many worker processes.

Runs the same 4-worker ``processes`` portfolio twice over a workload built
from one repeated block motif — first with private per-worker caches, then
with a shared ``server:`` store (a cache process the portfolio spawns and
shuts down with the run) — and prints the merged cache statistics.  On the
shared run every worker's synthesis results are visible to its siblings, so
the report shows *remote* hits: lookups answered by an entry another process
inserted.  Pass a ``tcp://host:port`` spec instead to share a standalone
cache server across runs and machines (see ``docs/caching.md``).

Run with::

    python examples/shared_cache_portfolio.py
"""

import time

from repro import ResynthesisCache
from repro.core import (
    GuoqConfig,
    ResynthesisTransformation,
    TotalGateCount,
    rewrite_transformations,
)
from repro.gatesets import CLIFFORD_T
from repro.parallel import PortfolioConfig, PortfolioOptimizer
from repro.rewrite import rules_for_gate_set
from repro.suite.generators import repeated_blocks
from repro.synthesis import CliffordTResynthesizer


def build_optimizer(share) -> PortfolioOptimizer:
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
        # the baseline: each worker forks this cache cold and warms it alone
        resynthesizer.attach_cache(ResynthesisCache(maxsize=256))
    transformations = rewrite_transformations(rules_for_gate_set(CLIFFORD_T))
    transformations.append(
        ResynthesisTransformation(resynthesizer, max_block_qubits=2, max_block_gates=6)
    )
    config = PortfolioConfig(
        search=GuoqConfig(
            epsilon_budget=1e-5,
            time_limit=1e9,
            max_iterations=80,
            seed=17,
            resynthesis_probability=0.35,
        ),
        num_workers=4,
        exchange_interval=40,
        backend="processes",
    )
    return PortfolioOptimizer(
        transformations, TotalGateCount(), config, share_resynthesis_cache=share
    )


def run(label: str, share) -> None:
    circuit = repeated_blocks()
    started = time.monotonic()
    result = build_optimizer(share).optimize(circuit)
    wall = time.monotonic() - started
    perf = result.perf
    print(f"{label}:")
    print(f"  wall {wall:.2f}s, best cost {result.best_cost:g} "
          f"(from {result.initial_cost:g}), backend {result.backend}")
    print(f"  cache: {perf.cache_hits} hits / {perf.cache_misses} misses "
          f"({perf.cache_hit_rate:.0%}), {perf.cache_remote_hits} remote hits")
    for note in perf.notes:
        print(f"  note: {note}")
    print()


def main() -> None:
    run("private per-worker caches", None)
    run("shared server: store", "server:")


if __name__ == "__main__":
    main()
