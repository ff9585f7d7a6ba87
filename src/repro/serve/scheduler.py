"""Cooperative fair-share scheduler time-slicing many portfolio runs.

One machine, many live jobs: each :meth:`JobScheduler.tick` grants exactly
one *quantum* — one :meth:`~repro.parallel.PortfolioRun.step_round` (which
is one ``step(exchange_interval)`` per portfolio worker) — to the runnable
job with the smallest *virtual time*.  Virtual time advances by
``1 / weight`` per quantum served, the classic weighted-fair-queueing rule:
equal-weight jobs interleave round-robin, a weight-2 job receives twice the
quanta, and a newly submitted job starts at the current minimum vtime so it
neither starves the incumbents nor waits behind their whole backlog.  This
is exactly the per-context fair-share regime that keeps per-job progress
predictable as concurrency grows on many-context throughput machines — the
property the anytime incumbent stream makes observable per job.

Policies (:data:`~repro.serve.protocol.SCHEDULER_POLICIES`):

* ``fair`` — weight is the job's explicit ``weight`` (default 1.0).
* ``deadline`` — the weight is additionally scaled by urgency,
  ``horizon / deadline`` (clamped to at least 1), computed *once at submit*
  so scheduling stays deterministic: a job due in 6 s gets 10x the share of
  one due in the 60 s horizon.  Deadlines are advisory; anytime jobs are
  never killed for missing one.

Per-tenant *step budgets* cap the total iterations a tenant's jobs may
consume; a job whose tenant is out of budget is finalized early with its
anytime result and ``budget_exhausted`` set, rather than erroring — the
anytime contract means a truncated job still returns its best-so-far.

Interleaving cannot perturb outcomes: all cross-round state lives on the
job's :class:`~repro.parallel.PortfolioRun`, and runs account active time
only, so a run driven in interleaved quanta retraces the exact trajectory
of the same run driven back-to-back (the serve test suite pins this
against :func:`~repro.parallel.optimize_circuit_portfolio`).

The scheduler is deliberately synchronous and lock-free — a plain object
driven by ``tick()`` — so tests can drive it deterministically; the
:class:`~repro.serve.server.JobServer` wraps it in one thread and a lock.
"""

from __future__ import annotations

import itertools
import uuid

from repro.parallel.portfolio import build_portfolio
from repro.serve.protocol import (
    SCHEDULER_POLICIES,
    TERMINAL_STATES,
    IncumbentPoint,
    JobSpec,
    JobStatus,
)

#: the deadline policy's urgency horizon in seconds: a job due in
#: ``deadline`` seconds is weighted ``max(1, horizon / deadline)``
DEADLINE_HORIZON = 60.0


class ScheduledJob:
    """One job's scheduler-side record (internal; clients see JobStatus)."""

    def __init__(self, job_id: str, spec: JobSpec, index: int, weight: float, vtime: float):
        self.job_id = job_id
        self.spec = spec
        #: submission order; the deterministic tie-break
        self.index = index
        self.state = "queued"
        self.weight = weight
        self.vtime = vtime
        self.quanta = 0
        self.run = None  # PortfolioRun once resident
        self.result = None  # final PortfolioResult once terminal
        self.incumbents: "list[IncumbentPoint]" = []
        self.budget_exhausted = False
        self.message: "str | None" = None
        self._cache = None  # this job's front end over the shared backend

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status(self) -> JobStatus:
        run = self.run
        result = self.result
        if run is not None and not self.terminal:
            best = run.incumbent_cost
            initial = run.initial_cost
            error = run.incumbent_error
            rounds = run.rounds
            iterations = run.total_iterations
            elapsed = run.elapsed
        elif result is not None:
            best = result.best_cost
            initial = result.initial_cost
            error = result.error_bound
            rounds = result.rounds
            iterations = result.total_iterations
            elapsed = result.elapsed
        else:
            best = initial = None
            error = 0.0
            rounds = iterations = 0
            elapsed = 0.0
        return JobStatus(
            job_id=self.job_id,
            name=self.spec.name,
            state=self.state,
            tenant=self.spec.tenant,
            rounds=rounds,
            iterations=iterations,
            quanta=self.quanta,
            best_cost=best,
            initial_cost=initial,
            error_bound=error,
            elapsed=elapsed,
            incumbents=len(self.incumbents),
            budget_exhausted=self.budget_exhausted,
            message=self.message,
        )


class JobScheduler:
    """Weighted-fair-queueing over live :class:`~repro.parallel.PortfolioRun` s.

    ``cache`` is a backend spec (:func:`repro.perf.parse_backend_spec`
    grammar) naming the *one* resynthesis store every job shares.  Each job
    gets its own :class:`~repro.perf.ResynthesisCache` front end over that
    backend, which is what makes cross-tenant reuse visible: a hit on an
    entry another job stored counts in ``cache_remote_hits``.  Every engine
    step flushes its front end's buffered puts, so a job's synthesis results
    reach its resident siblings at the next quantum.  (The ``local:`` kind
    still shares, but its front end short-circuits the remote-hit
    bookkeeping — use ``server:`` or ``tcp://`` specs when the counter
    matters, as the CI smoke does.)

    ``max_resident`` bounds how many runs are open (engines built, executor
    up) at once; excess jobs wait in ``queued`` until a slot frees.
    ``tenant_step_budgets`` maps tenant name to its total iteration
    allowance.
    """

    def __init__(
        self,
        policy: str = "fair",
        cache: "str | object | None" = None,
        tenant_step_budgets: "dict[str, int] | None" = None,
        max_resident: int = 8,
    ) -> None:
        if policy not in SCHEDULER_POLICIES:
            raise ValueError(f"policy must be one of {SCHEDULER_POLICIES}, got {policy!r}")
        if max_resident < 1:
            raise ValueError("max_resident must be at least 1")
        self.policy = policy
        self.max_resident = max_resident
        self.tenant_step_budgets = dict(tenant_step_budgets or {})
        self.tenant_spent: "dict[str, int]" = {}
        self.jobs: "dict[str, ScheduledJob]" = {}
        self.notes: "list[str]" = []
        self._counter = itertools.count()
        self._cache_spec = None
        self._cache_backend = None
        self._cache_failed = False
        self._closed = False
        if cache is not None:
            from repro.perf.shared_cache import parse_backend_spec

            # Parse eagerly — a typo'd spec must fail at construction, not
            # on the first submitted job — but create the backend lazily.
            self._cache_spec = parse_backend_spec(cache)

    # -- submission and lookup ------------------------------------------------

    def _job_weight(self, spec: JobSpec) -> float:
        weight = spec.weight
        if self.policy == "deadline" and spec.deadline is not None:
            weight *= max(1.0, DEADLINE_HORIZON / spec.deadline)
        return weight

    def submit(self, spec: JobSpec) -> str:
        """Register a job; returns the id that names it for its whole life."""
        if self._closed:
            raise RuntimeError("scheduler is closed")
        if not isinstance(spec, JobSpec):
            raise TypeError(f"submit takes a JobSpec, got {type(spec).__name__}")
        index = next(self._counter)
        job_id = f"job-{index:04d}-{uuid.uuid4().hex[:8]}"
        # Start at the current minimum live vtime: the newcomer neither
        # starves incumbents (it does not reset below them) nor waits for
        # their whole accumulated history.
        live = [job.vtime for job in self.jobs.values() if not job.terminal]
        vtime = min(live) if live else 0.0
        self.jobs[job_id] = ScheduledJob(
            job_id, spec, index, weight=self._job_weight(spec), vtime=vtime
        )
        return job_id

    def _get(self, job_id: str) -> ScheduledJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return job

    def status(self, job_id: str) -> JobStatus:
        return self._get(job_id).status()

    def statuses(self, tenant: "str | None" = None) -> "list[JobStatus]":
        return [
            job.status()
            for job in sorted(self.jobs.values(), key=lambda j: j.index)
            if tenant is None or job.spec.tenant == tenant
        ]

    def incumbents(self, job_id: str, since_seq: int = 0) -> "list[IncumbentPoint]":
        return [point for point in self._get(job_id).incumbents if point.seq > since_seq]

    def result(self, job_id: str):
        """``(status, PortfolioResult | None)`` — anytime while live."""
        job = self._get(job_id)
        if job.result is not None:
            return job.status(), job.result
        if job.run is not None:
            return job.status(), job.run.result()
        return job.status(), None

    # -- the quantum loop -----------------------------------------------------

    def _resident_count(self) -> int:
        return sum(1 for job in self.jobs.values() if job.run is not None and not job.terminal)

    def _runnable(self) -> "list[ScheduledJob]":
        """Jobs a quantum could be granted to right now."""
        slots = self.max_resident - self._resident_count()
        runnable = []
        for job in sorted(self.jobs.values(), key=lambda j: j.index):
            if job.terminal:
                continue
            if job.run is None:
                if self._tenant_exhausted(job):
                    runnable.append(job)  # needs a tick to finalize, not a slot
                elif slots > 0:
                    runnable.append(job)
                    slots -= 1
            else:
                runnable.append(job)
        return runnable

    def _tenant_exhausted(self, job: ScheduledJob) -> bool:
        budget = self.tenant_step_budgets.get(job.spec.tenant)
        if budget is None:
            return False
        return self.tenant_spent.get(job.spec.tenant, 0) >= budget

    def _job_cache(self):
        """A fresh per-job front end over the one shared backend, or None."""
        if self._cache_spec is None or self._cache_failed:
            return None
        if self._cache_backend is None:
            from repro.perf.shared_cache import SharedCacheUnavailable

            try:
                self._cache_backend = self._cache_spec.create()
            except SharedCacheUnavailable as error:
                self._cache_failed = True
                self.notes.append(
                    f"requested {self._cache_spec.canonical!r} serve cache backend "
                    f"unavailable ({error}); jobs run with private caches"
                )
                return None
        from repro.perf.cache import ResynthesisCache

        return ResynthesisCache(shared=True, backend=self._cache_backend)

    def _open(self, job: ScheduledJob) -> None:
        spec = job.spec
        job._cache = self._job_cache()
        optimizer = build_portfolio(spec, seed=spec.seed, cache=job._cache)
        job.run = optimizer.start(spec.circuit)
        job.state = "running"
        self._record_incumbent(job)  # seq 1: the starting cost

    def _record_incumbent(self, job: ScheduledJob) -> bool:
        run = job.run
        if run is None:
            return False
        if job.incumbents and run.incumbent_cost >= job.incumbents[-1].cost:
            return False
        job.incumbents.append(
            IncumbentPoint(
                seq=len(job.incumbents) + 1,
                elapsed=run.elapsed,
                iterations=run.total_iterations,
                cost=run.incumbent_cost,
            )
        )
        return True

    def _finalize(self, job: ScheduledJob, state: str, message: "str | None" = None) -> None:
        if job.run is not None:
            try:
                job.result = job.run.result()
            finally:
                job.run.close()
                job.run = None
        job._cache = None  # the front end flushed on run close; backend stays up
        job.state = state
        job.message = message

    def tick(self) -> bool:
        """Grant one quantum to the minimum-vtime runnable job.

        Returns False when no job could use a quantum (all terminal or
        queued beyond capacity) — the server's cue to idle.
        """
        if self._closed:
            return False
        runnable = self._runnable()
        if not runnable:
            return False
        job = min(runnable, key=lambda j: (j.vtime, j.index))
        if self._tenant_exhausted(job):
            job.budget_exhausted = True
            self._finalize(job, "done")
            return True
        try:
            if job.run is None:
                self._open(job)
            before = job.run.total_iterations
            progressed = job.run.step_round()
            job.quanta += 1
            job.vtime += 1.0 / job.weight
            spent = job.run.total_iterations - before
            if job.spec.tenant in self.tenant_step_budgets:
                self.tenant_spent[job.spec.tenant] = (
                    self.tenant_spent.get(job.spec.tenant, 0) + spent
                )
            self._record_incumbent(job)
            if not progressed:
                self._finalize(job, "done")
        except Exception as error:  # noqa: BLE001 - job failure must not kill the loop
            self._finalize(job, "failed", message=repr(error))
        return True

    def run_until_idle(self, max_quanta: "int | None" = None) -> int:
        """Drive ``tick()`` until nothing is runnable; returns quanta granted."""
        granted = 0
        while (max_quanta is None or granted < max_quanta) and self.tick():
            granted += 1
        return granted

    # -- cancellation ---------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; False if it already reached a terminal state."""
        job = self._get(job_id)
        if job.terminal:
            return False
        # Finalize in place (the server serializes access): a queued job has
        # nothing to tear down, a running one keeps its anytime snapshot.
        self._finalize(job, "cancelled")
        return True

    # -- accounting -----------------------------------------------------------

    def stats(self) -> dict:
        counts: "dict[str, int]" = {}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return {
            "jobs": len(self.jobs),
            "states": counts,
            "quanta": sum(job.quanta for job in self.jobs.values()),
            "tenant_spent": dict(self.tenant_spent),
            "cache": self._cache_spec.canonical if self._cache_spec else None,
            "notes": list(self.notes),
        }

    def perf_reports(self) -> list:
        """Per-job perf reports (final or anytime) for bench aggregation."""
        reports = []
        for job in sorted(self.jobs.values(), key=lambda j: j.index):
            result = job.result
            if result is None and job.run is not None:
                result = job.run.result()
            if result is not None and result.perf is not None:
                reports.append(result.perf)
        return reports

    def close(self) -> None:
        """Finalize every live job (anytime results kept) and drop the backend."""
        if self._closed:
            return
        for job in self.jobs.values():
            if not job.terminal:
                self._finalize(job, "cancelled" if job.run is None else "done")
        self._closed = True
        if self._cache_backend is not None:
            try:
                self._cache_backend.close()
            finally:
                self._cache_backend = None


__all__ = ["DEADLINE_HORIZON", "JobScheduler", "ScheduledJob"]
