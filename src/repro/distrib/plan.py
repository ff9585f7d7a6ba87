"""Deterministic shard plans and job specifications for distributed runs.

A distributed evaluation is described by two small, picklable records:

* a :class:`DistributedJob` — *how* to optimize: which suite the circuits
  come from, the gate set and objective, and every portfolio knob a host
  needs to run a case exactly the way any other host would;
* a :class:`ShardPlan` — *what* to run where: the ordered list of
  :class:`CaseRun` units (a benchmark case plus a replica index and a
  derived seed) partitioned into :class:`Shard`\\ s.

The plan is a pure function of ``(case_names, replicas, num_shards,
root_seed)``: per-run seeds are derived from the root seed through
``SeedSequence`` spawn paths keyed by ``(replica, case index)`` — never by
shard or host — so the *outcome* of a run depends only on the plan, not on
how many hosts execute it or in which order shards complete.  That is the
invariant the coordinator's merge relies on (see
:mod:`repro.distrib.merge`), and it is also what makes shard re-queuing
after a host loss safe: the re-executed shard reproduces the lost one.

``replicas > 1`` schedules every case several times under independent
derived seeds.  Replicas of one case are merged by re-ranking under the
portfolio objective (deterministic ties), which makes a replicated suite
run the distributed analogue of growing a single portfolio: more machines,
more independent search trajectories, same merge semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.utils.rng import derive_seed

#: suite kinds a job can draw cases from: the paper's assembled suites or
#: no-argument generator functions from :mod:`repro.suite.generators`
JOB_SUITES = ("nisq", "ftqc", "builtin")


@dataclass(frozen=True)
class CaseRun:
    """One unit of work: optimize ``name`` once under ``seed``.

    ``replica`` distinguishes repeated runs of the same case; the seed is
    derived from the plan's root seed and ``(replica, case index)``, so it
    is independent of shard layout and host count.
    """

    name: str
    replica: int
    seed: "int | None"


@dataclass(frozen=True)
class Shard:
    """A contiguous slice of the plan's runs, dispatched to one host at a time."""

    index: int
    runs: "tuple[CaseRun, ...]"

    def __len__(self) -> int:
        return len(self.runs)


@dataclass(frozen=True)
class ShardPlan:
    """The full work breakdown of one distributed run."""

    root_seed: "int | None"
    replicas: int
    case_names: "tuple[str, ...]"
    shards: "tuple[Shard, ...]"

    @property
    def num_runs(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def describe(self) -> str:
        sizes = "/".join(str(len(shard)) for shard in self.shards)
        return (
            f"{self.num_runs} runs ({len(self.case_names)} cases x {self.replicas} replicas) "
            f"over {len(self.shards)} shards (sizes {sizes}), root seed {self.root_seed}"
        )


def make_shard_plan(
    case_names: "list[str] | tuple[str, ...]",
    num_shards: int,
    root_seed: "int | None" = None,
    replicas: int = 1,
) -> ShardPlan:
    """Partition ``replicas`` copies of ``case_names`` into ``num_shards`` shards.

    Runs are ordered replica-major (all of replica 0, then replica 1, ...)
    and split contiguously into shards whose sizes differ by at most one.
    With ``num_shards == replicas`` that places each replica set on its own
    shard — the layout that maximizes cross-host overlap of identical
    circuits, i.e. the best case for a shared ``tcp://`` resynthesis cache.

    A ``None`` root seed yields ``None`` per-run seeds (each host draws OS
    entropy); determinism and safe re-queuing require a real seed.
    """
    names = tuple(str(name) for name in case_names)
    if not names:
        raise ValueError("a shard plan needs at least one case")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate case names in plan: {sorted(names)}")
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    runs = [
        CaseRun(
            name=name,
            replica=replica,
            seed=None if root_seed is None else derive_seed(root_seed, replica, case_index),
        )
        for replica in range(replicas)
        for case_index, name in enumerate(names)
    ]
    num_shards = min(num_shards, len(runs))
    base, extra = divmod(len(runs), num_shards)
    shards = []
    cursor = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        shards.append(Shard(index=index, runs=tuple(runs[cursor : cursor + size])))
        cursor += size
    return ShardPlan(
        root_seed=root_seed, replicas=replicas, case_names=names, shards=tuple(shards)
    )


@dataclass(frozen=True)
class DistributedJob:
    """Everything a host agent needs to execute a shard like any other host.

    The job travels with each dispatched shard, so agents are stateless:
    point one at a coordinator and it can serve any run.  Circuits are
    *rebuilt on the host* from the suite generators (cheap, deterministic)
    rather than shipped over the wire.

    ``suite`` selects where cases come from: ``"nisq"``/``"ftqc"`` are the
    paper's assembled suites at ``scale`` (case names as listed by
    :func:`repro.suite.nisq_suite`/:func:`~repro.suite.ftqc_suite`), while
    ``"builtin"`` treats each case name as a no-argument generator function
    in :mod:`repro.suite.generators` (e.g. ``repeated_blocks``) — the mode
    used to spread portfolio worker groups for a single circuit across
    hosts.

    ``share_resynthesis_cache`` is a ``tcp://host:port[,...]`` URL (or any
    backend kind the portfolio accepts); every host passes it straight to
    its :class:`~repro.parallel.PortfolioOptimizer`, so hosts share one
    network synthesis store.  Note that cross-host sharing makes resynthesis
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

    suite: str = "ftqc"
    scale: str = "tiny"
    gate_set: str = "clifford+t"
    objective: str = "ftqc"
    lower: bool = True
    epsilon_budget: float = 1e-6
    time_limit: float = 1e9
    max_iterations: "int | None" = 60
    num_workers: int = 2
    exchange_interval: int = 50
    backend: str = "serial"
    include_rewrites: bool = True
    include_resynthesis: bool = True
    synthesis_time_budget: float = 0.5
    resynthesis_probability: float = 0.015
    share_resynthesis_cache: "str | None" = None
    #: exchange incumbents across hosts (replicas of one case adopt the
    #: global best mid-search; anchor replica 0 never adopts)
    cross_host_exchange: bool = False
    #: free-form labels recorded in results (cluster name, experiment id, ...)
    tags: "tuple[str, ...]" = field(default=())

    def __post_init__(self) -> None:
        if self.suite not in JOB_SUITES:
            raise ValueError(f"suite must be one of {JOB_SUITES}, got {self.suite!r}")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be positive when set")

    def without_cache(self) -> "DistributedJob":
        """A copy with cache sharing off (the bit-reproducible configuration)."""
        return replace(self, share_resynthesis_cache=None)


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
    "Shard",
    "ShardPlan",
    "job_case_names",
    "make_shard_plan",
    "validate_job_cases",
]
