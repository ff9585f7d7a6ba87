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
from dataclasses import KW_ONLY, dataclass

from repro.parallel.portfolio import PortfolioSettings

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
class JobSpec(PortfolioSettings):
    """Everything a client submits: one circuit plus a :class:`PortfolioSettings`.

    :func:`repro.parallel.build_portfolio` builds every job's optimizer, so
    without a shared cache an iteration-bounded job submitted here returns
    exactly what :func:`~repro.parallel.optimize_circuit_portfolio` made
    locally with the same settings and ``seed`` would — scheduler
    interleaving never perturbs outcomes (the serve tests pin this bit for
    bit).  ``backend`` defaults to ``serial`` because a time-sliced server is
    already using the machine's cores across jobs.

    ``tenant`` groups jobs for per-tenant step budgets, ``deadline`` is a
    *relative* deadline in seconds used by the ``deadline`` policy to weight
    urgency (it is advisory — jobs are anytime, never killed at the
    deadline), and ``weight`` scales a job's fair share directly.
    """

    circuit: object
    _: KW_ONLY
    name: str = "job"
    seed: "int | None" = None
    tenant: str = "default"
    deadline: "float | None" = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.circuit is None:
            raise ValueError("a job needs a circuit")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (relative seconds) when set")


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
    "serve_authkey",
]
