"""Machine-count-agnostic merging of distributed portfolio results.

The coordinator collects one result per planned run, in whatever order
hosts happen to finish.  Merging normalizes that nondeterminism away:

* run results are first re-ordered by the *plan* (case order, then replica
  index), never by arrival;
* replicas of one case are merged by **re-ranking under the portfolio
  objective** — exactly the semantics :class:`repro.parallel` uses across
  workers, lifted across machines.  Every replica's ``best_cost`` is already
  measured under the job's shared objective, so the merge is a pure
  ``min``; ties break to the lowest replica index;
* the winner's ``error_bound`` is carried through unchanged (it is the
  accumulated epsilon of the winning trajectory, Theorem 4.2), so the merged
  bound is exactly as sound as the single-machine one.

Because per-run seeds come from the plan (not from hosts), the merged
outcome is a pure function of ``root seed + run plan`` whenever each
run is iteration-bounded and no cross-host cache couples trajectories;
:func:`result_fingerprint` digests exactly the deterministic fields so
tests and operators can assert that bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.circuits.circuit import Circuit
from repro.distrib.plan import RunPlan
from repro.parallel.portfolio import PortfolioResult
from repro.perf.report import PerfReport


@dataclass
class CaseOutcome:
    """All replicas of one benchmark case, plus their re-ranked merge."""

    name: str
    #: per-replica results, ordered by replica index
    replicas: "list[PortfolioResult]"
    merged: PortfolioResult


@dataclass
class DistributedSuiteResult:
    """The coordinator's merged view of one distributed run."""

    plan: RunPlan
    cases: "list[CaseOutcome]"
    #: instrumentation merged across every run (cache stats deduplicated
    #: by token, so one shared store is counted once)
    perf: "PerfReport | None" = None
    #: hosts that registered, in registration order (telemetry, not merged state)
    hosts: "list[str]" = field(default_factory=list)
    #: which host completed each ``(case, replica)`` run (telemetry)
    case_hosts: "dict[tuple[str, int], str]" = field(default_factory=dict)
    #: human-readable re-queue events (host losses, reported errors)
    requeues: "list[str]" = field(default_factory=list)
    #: human-readable cross-host incumbent adoption events (exchange on)
    adoptions: "list[str]" = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def best_costs(self) -> "dict[str, float]":
        return {case.name: case.merged.best_cost for case in self.cases}

    @property
    def total_iterations(self) -> int:
        return sum(case.merged.total_iterations for case in self.cases)

    @property
    def cache_remote_hits(self) -> int:
        """Cross-worker cache hits summed over the whole run (0 without perf)."""
        return self.perf.cache_remote_hits if self.perf is not None else 0

    def fingerprint(self) -> str:
        """Digest of every merged case outcome, in plan order.

        Two runs of the same ``root seed + run plan`` produce equal
        fingerprints regardless of host count or completion order (absent a
        shared cache coupling trajectories); see :func:`result_fingerprint`
        for what is — deliberately — excluded.
        """
        digest = hashlib.sha256()
        for case in self.cases:
            digest.update(case.name.encode())
            digest.update(result_fingerprint(case.merged).encode())
        return digest.hexdigest()

    def to_dict(self) -> dict:
        """JSON-ready summary (the coordinator CLI's ``--output`` payload)."""
        return {
            "fingerprint": self.fingerprint(),
            "plan": self.plan.describe(),
            "hosts": list(self.hosts),
            "case_hosts": {
                f"{name}#r{replica}": host
                for (name, replica), host in sorted(self.case_hosts.items())
            },
            "requeues": list(self.requeues),
            "adoptions": list(self.adoptions),
            "elapsed": self.elapsed,
            "total_iterations": self.total_iterations,
            "cache_remote_hits": self.cache_remote_hits,
            "cases": [
                {
                    "name": case.name,
                    "replicas": len(case.replicas),
                    "initial_cost": case.merged.initial_cost,
                    "best_cost": case.merged.best_cost,
                    "cost_reduction": case.merged.cost_reduction,
                    "error_bound": case.merged.error_bound,
                    "total_iterations": case.merged.total_iterations,
                    "best_replica": case.merged.best_worker,
                    "fingerprint": result_fingerprint(case.merged),
                }
                for case in self.cases
            ],
            "perf": self.perf.to_dict() if self.perf is not None else None,
        }


def circuit_fingerprint(circuit: Circuit) -> str:
    """Bit-exact digest of a circuit's structure (name excluded).

    Gate names, qubit tuples, and parameters (via ``float.hex`` — no decimal
    rounding) feed a SHA-256, so two circuits fingerprint equal exactly when
    their instruction sequences are identical.
    """
    digest = hashlib.sha256()
    digest.update(str(circuit.num_qubits).encode())
    for instruction in circuit:
        digest.update(instruction.gate.encode())
        digest.update(",".join(str(q) for q in instruction.qubits).encode())
        digest.update(",".join(float(p).hex() for p in instruction.params).encode())
    return digest.hexdigest()


def result_fingerprint(result: PortfolioResult) -> str:
    """Digest of a portfolio result's deterministic content.

    Covers the best circuit (bit-exact), the cost/error accounting, the
    iteration totals, worker seeds, and the incumbent trace.  Wall-clock
    fields (``elapsed``, history timestamps, perf) are excluded: they vary
    run to run even when the search trajectory is identical.
    """
    digest = hashlib.sha256()
    digest.update(circuit_fingerprint(result.best_circuit).encode())
    for value in (result.best_cost, result.initial_cost, result.error_bound):
        digest.update(float(value).hex().encode())
    digest.update(
        f"{result.total_iterations}:{result.rounds}:{result.num_workers}".encode()
    )
    digest.update(",".join(str(seed) for seed in result.worker_seeds).encode())
    digest.update(",".join(float(cost).hex() for cost in result.incumbent_trace).encode())
    return digest.hexdigest()


def merge_portfolio_results(results: "list[PortfolioResult]") -> PortfolioResult:
    """Re-rank replica results into one merged :class:`PortfolioResult`.

    ``results`` must be ordered by replica index; the merge is then
    deterministic regardless of which hosts produced them or when.  Costs
    are compared exactly (every replica measured its best under the same
    portfolio objective) and ties go to the lowest replica — the same
    lowest-index-wins rule the in-machine portfolio applies to workers.

    The merged record re-interprets two fields at the replica level:
    ``best_worker`` is the winning *replica* index, and ``worker_labels``
    are prefixed ``r<replica>/``.  Work totals (iterations, rounds,
    ``num_workers``) sum; ``elapsed`` is the slowest replica (they ran
    concurrently); the incumbent trace is the running minimum over replica
    traces in replica order.
    """
    if not results:
        raise ValueError("cannot merge zero portfolio results")
    winner_index = min(range(len(results)), key=lambda i: (results[i].best_cost, i))
    winner = results[winner_index]
    trace: "list[float]" = []
    for result in results:
        for cost in result.incumbent_trace:
            trace.append(min(cost, trace[-1]) if trace else cost)
    labels: "list[str]" = []
    seeds: "list[int | None]" = []
    worker_results = []
    for replica, result in enumerate(results):
        labels.extend(f"r{replica}/{label}" for label in result.worker_labels)
        seeds.extend(result.worker_seeds)
        worker_results.extend(result.worker_results)
    perf_reports = [result.perf for result in results if result.perf is not None]
    elapsed = max(result.elapsed for result in results)
    return PortfolioResult(
        best_circuit=winner.best_circuit,
        best_cost=winner.best_cost,
        initial_cost=winner.initial_cost,
        error_bound=winner.error_bound,
        best_worker=winner_index,
        num_workers=sum(result.num_workers for result in results),
        backend="distrib",
        rounds=sum(result.rounds for result in results),
        total_iterations=sum(result.total_iterations for result in results),
        elapsed=elapsed,
        history=list(winner.history),
        incumbent_trace=trace,
        worker_results=worker_results,
        worker_labels=labels,
        worker_seeds=seeds,
        shared_cache_backend=winner.shared_cache_backend,
        perf=PerfReport.merged(perf_reports, elapsed=elapsed) if perf_reports else None,
    )


def merge_case_results(
    plan: RunPlan, by_run: "dict[tuple[str, int], PortfolioResult]"
) -> "list[CaseOutcome]":
    """Assemble per-case outcomes from per-run results, in plan order.

    ``by_run`` maps ``(case name, replica)`` to that run's result — the
    coordinator's per-run ledger: a run reports the same result no matter
    which host executed it.  Raises if any planned run is missing.
    """
    missing = [
        (run.name, run.replica) for run in plan.runs if (run.name, run.replica) not in by_run
    ]
    if missing:
        labels = ", ".join(f"{name}#r{replica}" for name, replica in missing)
        raise ValueError(f"plan runs have no result: {labels}")
    outcomes: "list[CaseOutcome]" = []
    for name in plan.case_names:
        replicas = [by_run[(name, replica)] for replica in range(plan.replicas)]
        outcomes.append(
            CaseOutcome(name=name, replicas=replicas, merged=merge_portfolio_results(replicas))
        )
    return outcomes


__all__ = [
    "CaseOutcome",
    "DistributedSuiteResult",
    "circuit_fingerprint",
    "merge_case_results",
    "merge_portfolio_results",
    "result_fingerprint",
]
