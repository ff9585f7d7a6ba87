"""Portfolio worker variants: the configuration axes a portfolio explores.

A portfolio wins over a single restart in two ways: independent random
restarts (different seeds on the same configuration) and *configuration
diversity* — workers that explore with different temperatures, different
rewrite/resynthesis mixes, or even a different surrogate cost function, so
that at least one member of the portfolio suits the circuit at hand.  A
:class:`VariantSpec` captures one such configuration delta; the default cycle
below mirrors the knobs the paper's sensitivity studies vary (temperature,
resynthesis probability, objective weighting).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.guoq import GuoqConfig
from repro.core.objectives import CostFunction


@dataclass(frozen=True)
class VariantSpec:
    """A named delta on top of the portfolio's base search configuration.

    ``None`` fields inherit the base value.  ``cost`` substitutes the worker's
    *search* objective (a surrogate); the portfolio always compares and ranks
    incumbents under its own objective, so a surrogate-guided worker can
    contribute an incumbent but never skews the merged result.
    """

    label: str
    temperature: "float | None" = None
    resynthesis_probability: "float | None" = None
    cost: "CostFunction | None" = None

    def configure(self, base: GuoqConfig, seed: "int | None") -> GuoqConfig:
        """Materialize this variant as a worker ``GuoqConfig``."""
        changes: dict = {"seed": seed}
        if self.temperature is not None:
            changes["temperature"] = self.temperature
        if self.resynthesis_probability is not None:
            changes["resynthesis_probability"] = self.resynthesis_probability
        return replace(base, **changes)


#: the base configuration itself, run under a derived seed (pure restart)
RESTART = VariantSpec(label="restart")


def default_variants() -> tuple[VariantSpec, ...]:
    """The default variant cycle assigned to non-anchor workers.

    Ordered so small portfolios (N=2..4) get the most orthogonal members
    first: a pure restart, an exploratory low-temperature walker, and a
    resynthesis-heavy searcher; larger portfolios add greedier and
    rewrite-dominated members.
    """
    return (
        RESTART,
        VariantSpec(label="exploratory", temperature=4.0),
        VariantSpec(label="resynth-heavy", resynthesis_probability=0.06),
        VariantSpec(label="greedy", temperature=40.0),
        VariantSpec(label="rewrite-heavy", resynthesis_probability=0.003),
        VariantSpec(label="exploratory-resynth", temperature=4.0, resynthesis_probability=0.06),
    )


def assign_variants(
    num_workers: int, variants: "tuple[VariantSpec, ...] | None" = None
) -> list[VariantSpec]:
    """Assign one variant per worker.

    Worker 0 is the anchor: it runs the unmodified base configuration under
    the root seed, which guarantees the portfolio result is at least as good
    as the equivalent single-worker run on the same iteration budget (see
    the anchoring note in ``repro.parallel.portfolio`` for the wall-clock
    caveat); the remaining workers cycle through ``variants``.
    """
    if num_workers < 1:
        raise ValueError("a portfolio needs at least one worker")
    cycle = default_variants() if variants is None else tuple(variants)
    if not cycle:
        raise ValueError("variant cycle must not be empty")
    return [VariantSpec(label="anchor")] + [
        cycle[index % len(cycle)] for index in range(num_workers - 1)
    ]
