"""Distributed evaluation: shard suites across hosts, share one cache.

The single-machine axis (portfolio workers + cross-process shared cache)
tops out at one box; this package scales the *other* axis.  Three
cooperating parts, each runnable standalone (see ``docs/distributed.md``):

* the **coordinator** (:mod:`repro.distrib.coordinator`) deterministically
  shards a benchmark suite — or replicated portfolio groups for one
  circuit — into a :class:`~repro.distrib.plan.ShardPlan`, streams case
  batches to registered host agents over :mod:`repro.rpc`,
  steals the tail of a slow host's batch for idle ones, re-queues only the
  *unfinished* runs lost to host failures, optionally relays the global
  best incumbent per case back to working replicas
  (``cross_host_exchange``), and merges returned results under the
  portfolio's machine-count-agnostic semantics;
* **host agents** (:mod:`repro.distrib.worker`) pull case batches and run
  them through local :class:`~repro.parallel.PortfolioOptimizer` instances
  one exchange round at a time, reporting each finished run (with its
  :class:`~repro.perf.PerfReport`) as it completes;
* the **cache server** (:mod:`repro.distrib.cache_server`) serves a shared
  resynthesis store over TCP that
  :class:`~repro.perf.shared_cache.TcpCacheBackend` clients on every host
  shard keys across (``share_resynthesis_cache="tcp://host:port,..."``).

Determinism contract: with a root seed and iteration-bounded runs (and no
cross-host cache or cross-host exchange coupling trajectories), the merged
result is a pure function of ``root seed + shard plan`` — independent of
host count, work stealing, completion order, and mid-run host losses.
"""

# Exports resolve lazily so ``python -m repro.distrib.<cli>`` does not
# re-import the CLI module the package already loaded (runpy's double-import
# warning) and ``import repro.distrib`` stays light for plan-only users.
_EXPORT_MODULES = {
    "start_tcp_cache_server": "repro.distrib.cache_server",
    "Coordinator": "repro.distrib.coordinator",
    "CaseOutcome": "repro.distrib.merge",
    "DistributedSuiteResult": "repro.distrib.merge",
    "circuit_fingerprint": "repro.distrib.merge",
    "merge_case_results": "repro.distrib.merge",
    "merge_portfolio_results": "repro.distrib.merge",
    "result_fingerprint": "repro.distrib.merge",
    "CaseRun": "repro.distrib.plan",
    "DistributedJob": "repro.distrib.plan",
    "JOB_SUITES": "repro.distrib.plan",
    "Shard": "repro.distrib.plan",
    "ShardPlan": "repro.distrib.plan",
    "job_case_names": "repro.distrib.plan",
    "make_shard_plan": "repro.distrib.plan",
    "validate_job_cases": "repro.distrib.plan",
    "DEFAULT_DISTRIB_AUTHKEY": "repro.distrib.worker",
    "HostAgent": "repro.distrib.worker",
    "run_host_agent": "repro.distrib.worker",
    "run_local": "repro.distrib.worker",
}


def __getattr__(name: str):
    module_name = _EXPORT_MODULES.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.distrib' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "CaseOutcome",
    "CaseRun",
    "Coordinator",
    "DEFAULT_DISTRIB_AUTHKEY",
    "DistributedJob",
    "DistributedSuiteResult",
    "HostAgent",
    "JOB_SUITES",
    "Shard",
    "ShardPlan",
    "circuit_fingerprint",
    "job_case_names",
    "make_shard_plan",
    "merge_case_results",
    "merge_portfolio_results",
    "result_fingerprint",
    "run_host_agent",
    "run_local",
    "start_tcp_cache_server",
    "validate_job_cases",
]
