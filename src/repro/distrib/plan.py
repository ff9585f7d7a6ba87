"""Deterministic run plans and job specifications for distributed runs.

A distributed evaluation is described by two small, picklable records:

* a :class:`DistributedJob` — *how* to optimize: which suite the circuits
  come from, the gate set and objective, and every portfolio knob a host
  needs to run a case exactly the way any other host would;
* a :class:`RunPlan` — *what* to run: the ordered tuple of :class:`CaseRun`
  units (a benchmark case plus a replica index and a derived seed).

The plan is a pure function of ``(case_names, replicas, root_seed)``:
per-run seeds are derived from the root seed through ``SeedSequence`` spawn
paths keyed by ``(replica, case index)`` — never by host — so the *outcome*
of a run depends only on the plan, not on how many hosts execute it or in
which order runs complete.  That is the invariant the coordinator's merge
relies on (see :mod:`repro.distrib.merge`), and it is also what makes
re-queuing a run after a host loss safe: the re-executed run reproduces the
lost one.

``replicas > 1`` schedules every case several times under independent
derived seeds.  Replicas of one case are merged by re-ranking under the
portfolio objective (deterministic ties), which makes a replicated suite
run the distributed analogue of growing a single portfolio: more machines,
more independent search trajectories, same merge semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.portfolio import PortfolioSettings
from repro.utils.rng import derive_seed

#: suite kinds a job can draw cases from: the paper's assembled suites or
#: no-argument generator functions from :mod:`repro.suite.generators`
JOB_SUITES = ("nisq", "ftqc", "builtin")


@dataclass(frozen=True)
class CaseRun:
    """One unit of work: optimize ``name`` once under ``seed``.

    ``replica`` distinguishes repeated runs of the same case; the seed is
    derived from the plan's root seed and ``(replica, case index)``, so it
    is independent of which host runs it.
    """

    name: str
    replica: int
    seed: "int | None"


@dataclass(frozen=True)
class RunPlan:
    """The full work breakdown of one distributed run."""

    root_seed: "int | None"
    replicas: int
    case_names: "tuple[str, ...]"
    #: every run, replica-major: the order the coordinator hands them out
    runs: "tuple[CaseRun, ...]"

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    def describe(self) -> str:
        return (
            f"{self.num_runs} runs ({len(self.case_names)} cases x {self.replicas} replicas), "
            f"root seed {self.root_seed}"
        )


def make_run_plan(
    case_names: "list[str] | tuple[str, ...]",
    root_seed: "int | None" = None,
    replicas: int = 1,
) -> RunPlan:
    """Plan ``replicas`` runs of every case in ``case_names``.

    Runs are ordered replica-major (all of replica 0, then replica 1, ...),
    so hosts pulling one run at a time start every case's anchor replica
    first, and concurrent hosts work on different replicas of the same
    circuits — the best case for a shared ``tcp://`` resynthesis cache.

    A ``None`` root seed yields ``None`` per-run seeds (each host draws OS
    entropy); determinism and safe re-queuing require a real seed.
    """
    names = tuple(str(name) for name in case_names)
    if not names:
        raise ValueError("a run plan needs at least one case")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate case names in plan: {sorted(names)}")
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    runs = tuple(
        CaseRun(
            name=name,
            replica=replica,
            seed=None if root_seed is None else derive_seed(root_seed, replica, case_index),
        )
        for replica in range(replicas)
        for case_index, name in enumerate(names)
    )
    return RunPlan(root_seed=root_seed, replicas=replicas, case_names=names, runs=runs)


@dataclass(frozen=True, kw_only=True)
class DistributedJob(PortfolioSettings):
    """Everything a host agent needs to execute a run like any other host.

    A :class:`~repro.parallel.PortfolioSettings` plus where the cases come
    from and what the hosts share.  The job travels with each dispatched
    run, so agents are stateless: point one at a coordinator and it can
    serve any run.  Circuits are *rebuilt on the host* from the suite
    generators (cheap, deterministic) rather than shipped over the wire, and
    every host builds each run's optimizer with
    :func:`repro.parallel.build_portfolio`.

    ``suite`` selects where cases come from: ``"nisq"``/``"ftqc"`` are the
    paper's assembled suites at ``scale`` (case names as listed by
    :func:`repro.suite.nisq_suite`/:func:`~repro.suite.ftqc_suite`), while
    ``"builtin"`` treats each case name as a no-argument generator function
    in :mod:`repro.suite.generators` (e.g. ``repeated_blocks``) — the mode
    used to spread portfolio worker groups for a single circuit across
    hosts.  ``lower`` decomposes each case to ``gate_set`` first.

    ``share_resynthesis_cache`` is a ``tcp://host:port`` URL (or any
    backend kind the portfolio accepts); every host passes it straight to
    :func:`~repro.parallel.build_portfolio`, so hosts share one network
    synthesis store.  Note that cross-host sharing makes resynthesis
    outcomes depend on sibling progress: keep it off (None) when the run
    must be bit-reproducible, on when wall-clock matters (see
    ``docs/distributed.md``).

    ``cross_host_exchange`` extends the in-machine incumbent exchange across
    hosts: agents periodically publish their best ``(cost, error bound,
    circuit)`` per case to the coordinator, and replicas of the same case on
    *other* hosts may adopt the global best mid-search — under the same
    invariants as the in-machine protocol (replica 0 is the anchor and never
    adopts; bounds travel with incumbents, so adopted state keeps Theorem
    4.2 sound).  Like cache sharing, it couples trajectories across hosts:
    keep it off when the run must be bit-reproducible.
    """

    # Distrib runs are iteration-bounded so fingerprints do not depend on host speed.
    time_limit: float = 1e9
    max_iterations: "int | None" = 60
    num_workers: int = 2
    exchange_interval: int = 50
    synthesis_time_budget: float = 0.5

    suite: str = "ftqc"
    scale: str = "tiny"
    lower: bool = True
    share_resynthesis_cache: "str | None" = None
    #: exchange incumbents across hosts (replicas of one case adopt the
    #: global best mid-search; anchor replica 0 never adopts)
    cross_host_exchange: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.suite not in JOB_SUITES:
            raise ValueError(f"suite must be one of {JOB_SUITES}, got {self.suite!r}")


def job_case_names(job: DistributedJob) -> "list[str]":
    """The full ordered case-name list a suite job draws from.

    ``builtin`` jobs have no intrinsic case list — their names are chosen by
    the caller — so this is only defined for the assembled suites.
    """
    from repro.suite import ftqc_suite, nisq_suite

    if job.suite == "nisq":
        return [case.name for case in nisq_suite(job.scale)]
    if job.suite == "ftqc":
        return [case.name for case in ftqc_suite(job.scale)]
    raise ValueError(f"{job.suite!r} jobs have no intrinsic case list; pass case names")


def validate_job_cases(job: DistributedJob, case_names: "tuple[str, ...] | list[str]") -> None:
    """Fail fast on case names no host could resolve.

    The coordinator calls this before dispatching anything: a typo'd case
    would otherwise fail *deterministically* on every host, and a
    deterministic failure is the one thing re-queuing cannot fix.
    """
    if job.suite == "builtin":
        from repro.suite import generators as suite_generators

        unknown = [
            name
            for name in case_names
            if not callable(getattr(suite_generators, name, None))
        ]
    else:
        known = set(job_case_names(job))
        unknown = [name for name in case_names if name not in known]
    if unknown:
        raise ValueError(
            f"case names no host can resolve for a {job.suite!r}/{job.scale!r} job: {unknown}"
        )


__all__ = [
    "CaseRun",
    "DistributedJob",
    "JOB_SUITES",
    "RunPlan",
    "job_case_names",
    "make_run_plan",
    "validate_job_cases",
]
