"""Wire protocol and shared records of the optimization job service.

The serve layer speaks the package's one transport, :mod:`repro.rpc` —
length-prefixed pickle ``(op, payload)`` requests, here answered by
``(ok, result)`` — exactly like the distrib coordinator and the cache
servers, so one transport stack (and one authkey convention) covers every
network surface.  The ops a :class:`~repro.serve.JobServer`
answers:

========== ============================ =========================================
op         payload                      result
========== ============================ =========================================
``ping``   ``None``                     ``"pong"``
``submit`` :class:`JobSpec`             job id (``str``)
``status`` job id                       :class:`JobStatus`
``result`` job id                       ``(JobStatus, PortfolioResult | None)`` —
                                        the *anytime* snapshot while running,
                                        the final result once terminal
``incumbents`` ``(job id, since_seq)``  ``list[IncumbentPoint]`` newer than seq
``cancel`` job id                       ``bool`` (False if already terminal)
``jobs``   tenant or ``None``           ``list[JobStatus]``
``stats``  ``None``                     server counter dict
``shutdown`` ``None``                   ``"bye"`` (server drains and exits)
========== ============================ =========================================

Detach/reattach needs no op of its own: a job id is the whole session
state, so any client holding it — on any connection, any time — can poll
``status``/``incumbents``/``result`` or ``cancel``.  Every received request
is answered (``(False, error)`` on failure), which is what lets the CI
smoke gate assert *zero dropped requests*.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: default client<->server authkey; a handshake (multiprocessing HMAC), not
#: a security boundary — override with ``REPRO_SERVE_AUTHKEY``
DEFAULT_SERVE_AUTHKEY = b"repro-serve"

#: lifecycle states a job moves through (terminal: done/cancelled/failed)
JOB_STATES = ("queued", "running", "done", "cancelled", "failed")

#: states from which a job can never move again
TERMINAL_STATES = ("done", "cancelled", "failed")

#: scheduling policies: ``fair`` weights every job equally (modulo its
#: explicit ``weight``), ``deadline`` additionally boosts jobs with a near
#: relative deadline (see :class:`repro.serve.scheduler.JobScheduler`)
SCHEDULER_POLICIES = ("fair", "deadline")


def serve_authkey() -> bytes:
    """The serve authkey: ``REPRO_SERVE_AUTHKEY`` or the default."""
    value = os.environ.get("REPRO_SERVE_AUTHKEY")
    return value.encode() if value else DEFAULT_SERVE_AUTHKEY


@dataclass(frozen=True)
class JobSpec:
    """Everything a client submits: one circuit plus its optimization knobs.

    Defaults mirror :func:`repro.parallel.optimize_circuit_portfolio`.
    Without a shared cache, an iteration-bounded job submitted here returns
    exactly what the same call made locally with the same ``seed`` would —
    scheduler interleaving never perturbs outcomes (the serve tests pin this
    bit for bit).  ``backend`` defaults to ``serial`` because a time-sliced
    server is already using the machine's cores across jobs; raise
    ``num_workers``/``backend`` per job only when the server is expected to
    dedicate cores to it.

    ``tenant`` groups jobs for per-tenant step budgets, ``deadline`` is a
    *relative* deadline in seconds used by the ``deadline`` policy to weight
    urgency (it is advisory — jobs are anytime, never killed at the
    deadline), and ``weight`` scales a job's fair share directly.
    """

    circuit: object
    name: str = "job"
    gate_set: str = "clifford+t"
    objective: str = "ftqc"
    epsilon_budget: float = 1e-6
    time_limit: float = 10.0
    max_iterations: "int | None" = None
    seed: "int | None" = None
    num_workers: int = 4
    exchange_interval: int = 250
    backend: str = "serial"
    include_rewrites: bool = True
    include_resynthesis: bool = True
    synthesis_time_budget: float = 2.0
    resynthesis_probability: float = 0.015
    tenant: str = "default"
    deadline: "float | None" = None
    weight: float = 1.0
    tags: "tuple[str, ...]" = field(default=())

    def __post_init__(self) -> None:
        if self.circuit is None:
            raise ValueError("a job needs a circuit")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (relative seconds) when set")


def job_to_distributed(spec: JobSpec):
    """The :class:`~repro.distrib.DistributedJob` a job's optimizer is built from.

    :func:`repro.distrib.worker.case_optimizer` reads the portfolio knobs
    off this record.  The record is never dispatched to a host, so its
    suite fields are not consulted.
    """
    from repro.distrib.plan import DistributedJob

    return DistributedJob(
        gate_set=spec.gate_set,
        objective=spec.objective,
        epsilon_budget=spec.epsilon_budget,
        time_limit=spec.time_limit,
        max_iterations=spec.max_iterations,
        num_workers=spec.num_workers,
        exchange_interval=spec.exchange_interval,
        backend=spec.backend,
        include_rewrites=spec.include_rewrites,
        include_resynthesis=spec.include_resynthesis,
        synthesis_time_budget=spec.synthesis_time_budget,
        resynthesis_probability=spec.resynthesis_probability,
    )


@dataclass(frozen=True)
class IncumbentPoint:
    """One improvement of a job's best-so-far — the live fig07 anytime trace.

    ``seq`` increases by one per improvement (per job), so a streaming
    client polls ``incumbents(job_id, since_seq)`` with the last seq it has
    and receives only news.  Costs are strictly decreasing in ``seq``.
    """

    seq: int
    elapsed: float
    iterations: int
    cost: float


@dataclass(frozen=True)
class JobStatus:
    """Scalar snapshot of one job, cheap enough to poll aggressively."""

    job_id: str
    name: str
    state: str
    tenant: str
    rounds: int = 0
    iterations: int = 0
    #: scheduler quanta this job has been granted so far
    quanta: int = 0
    best_cost: "float | None" = None
    initial_cost: "float | None" = None
    error_bound: float = 0.0
    #: active optimization seconds consumed (not wall-clock age)
    elapsed: float = 0.0
    #: number of incumbent improvements recorded so far (the stream's max seq)
    incumbents: int = 0
    #: True when the job was finalized early because its tenant's step budget ran out
    budget_exhausted: bool = False
    #: error text for ``failed`` jobs
    message: "str | None" = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


__all__ = [
    "DEFAULT_SERVE_AUTHKEY",
    "IncumbentPoint",
    "JOB_STATES",
    "JobSpec",
    "JobStatus",
    "SCHEDULER_POLICIES",
    "TERMINAL_STATES",
    "job_to_distributed",
    "serve_authkey",
]
