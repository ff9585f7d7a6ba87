"""Parallel portfolio search on top of the step-wise GUOQ engine.

See ``docs/architecture.md`` for the architecture: seed derivation, the
exchange protocol, execution backends, and how to add a new portfolio
variant; ``docs/caching.md`` covers sharing one resynthesis cache across
workers (including across processes via the ``server:`` spec).
"""

from repro.parallel.backends import BACKENDS, RoundExecutor
from repro.parallel.portfolio import (
    PortfolioBaseline,
    PortfolioConfig,
    PortfolioOptimizer,
    PortfolioResult,
    PortfolioRun,
    PortfolioSettings,
    build_portfolio,
    optimize_circuit_portfolio,
)
from repro.parallel.variants import VariantSpec, assign_variants, default_variants

__all__ = [
    "BACKENDS",
    "PortfolioBaseline",
    "PortfolioConfig",
    "PortfolioOptimizer",
    "PortfolioResult",
    "PortfolioRun",
    "PortfolioSettings",
    "RoundExecutor",
    "VariantSpec",
    "assign_variants",
    "build_portfolio",
    "default_variants",
    "optimize_circuit_portfolio",
]
