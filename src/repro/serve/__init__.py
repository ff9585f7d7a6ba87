"""Optimization-as-a-service: anytime GUOQ jobs behind one server.

GUOQ is an *anytime* optimizer — every extra quantum of search only
improves the incumbent — which makes it a natural long-running service:
clients submit circuits and objectives (:class:`JobSpec`), get back a job
id, and poll or stream monotonically improving incumbents
(:class:`IncumbentPoint`, the live fig07 trace) while a cooperative
scheduler (:class:`~repro.serve.scheduler.JobScheduler`) time-slices
``step_round`` quanta across every live job under weighted fair share
(optionally deadline-weighted, with per-tenant step budgets).  Four
cooperating parts:

* the **protocol** (:mod:`repro.serve.protocol`) — job records and the
  ``(op, payload)`` wire ops, on the same :mod:`repro.rpc` transport as
  the distrib coordinator and cache servers;
* the **scheduler** (:mod:`repro.serve.scheduler`) — weighted-fair
  quantum granting over step-wise :class:`~repro.parallel.PortfolioRun` s;
* the **server** (:class:`JobServer`, ``python -m repro.serve.cli serve``)
  — listener, handler threads, and the scheduler thread;
* the **client** (:class:`JobClient`) — submit / status / stream / cancel
  / reattach by job id from any process.

All jobs share one resynthesis store (``cache="tcp://..."`` and friends —
:func:`repro.perf.parse_backend_spec` grammar), so tenant A hitting a block
tenant B already synthesized shows up as ``cache_remote_hits``.  Every
job's optimizer is built by :func:`repro.distrib.case_optimizer`.  Without
a shared cache, serving iteration-bounded jobs matches sequential
:func:`repro.parallel.optimize_circuit_portfolio` calls with the same seeds
bit for bit; the serve tests pin this.  See ``docs/serving.md``.
"""

# Exports resolve lazily so ``python -m repro.serve.cli`` does not
# re-import the CLI module the package already loaded and importing the
# protocol records stays light (no portfolio import until a job runs).
_EXPORT_MODULES = {
    "JobClient": "repro.serve.client",
    "DEFAULT_SERVE_AUTHKEY": "repro.serve.protocol",
    "IncumbentPoint": "repro.serve.protocol",
    "JOB_STATES": "repro.serve.protocol",
    "JobSpec": "repro.serve.protocol",
    "JobStatus": "repro.serve.protocol",
    "SCHEDULER_POLICIES": "repro.serve.protocol",
    "TERMINAL_STATES": "repro.serve.protocol",
    "job_to_distributed": "repro.serve.protocol",
    "serve_authkey": "repro.serve.protocol",
    "JobScheduler": "repro.serve.scheduler",
    "JobServer": "repro.serve.server",
}


def __getattr__(name: str):
    module_name = _EXPORT_MODULES.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "DEFAULT_SERVE_AUTHKEY",
    "IncumbentPoint",
    "JOB_STATES",
    "JobClient",
    "JobScheduler",
    "JobServer",
    "JobSpec",
    "JobStatus",
    "SCHEDULER_POLICIES",
    "TERMINAL_STATES",
    "job_to_distributed",
    "serve_authkey",
]
