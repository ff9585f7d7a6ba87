"""The optimization job server: one listener, one scheduler, many tenants.

:class:`JobServer` listens on an ``AF_INET`` :mod:`repro.rpc` server (the
package's one transport — length-prefixed pickle frames, HMAC authkey
handshake, exactly like the distrib coordinator and the cache servers) and
answers the
:mod:`repro.serve.protocol` ops.  A dedicated scheduler thread drives
:meth:`~repro.serve.scheduler.JobScheduler.tick` — one
``PortfolioRun.step_round`` quantum per tick, granted to the live job with
the smallest weighted-fair virtual time — while per-connection handler
threads serve requests; both sides serialize on one lock, so a status poll
sees a consistent snapshot between quanta and never mid-round.

Every received request is answered — malformed ops and handler exceptions
come back as ``(False, message)`` and are counted in ``requests_failed``,
never silently dropped — which is what lets the CI smoke gate assert
``requests_dropped == 0``.

**Overflow offload.**  When more jobs are queued beyond ``max_resident``
than ``OffloadConfig.threshold``, the server carries the excess *whole
jobs* onto ``repro.distrib`` worker hosts: each becomes a one-case
``suite="inline"`` :class:`~repro.distrib.DistributedJob` (the circuit
travels with it), compatible jobs share one
:class:`~repro.distrib.Coordinator` run with a hand-built one-shard-per-job
plan that preserves each job's own seed, and results land back through
:meth:`~repro.serve.scheduler.JobScheduler.finalize_offloaded`.  Because
resident jobs, offloaded jobs, and plain
:func:`~repro.parallel.optimize_circuit_portfolio` calls all construct
their optimizer through :func:`repro.distrib.worker.case_optimizer`, where
a job runs never changes what it returns.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

from repro import rpc
from repro.serve.protocol import JobSpec, serve_authkey
from repro.serve.scheduler import JobScheduler


@dataclass(frozen=True)
class OffloadConfig:
    """How the server spills queued-beyond-capacity jobs onto worker hosts.

    ``threshold`` is the overflow depth that triggers a batch.  ``agents``
    in-process host agents are spawned per batch against the batch's own
    ephemeral coordinator — the single-machine form; set ``agents=0`` and
    read the coordinator address from the server log to attach real
    ``python -m repro.distrib.worker --connect`` hosts instead.
    """

    threshold: int = 1
    agents: int = 1
    host: str = "127.0.0.1"
    port: int = 0
    authkey: "bytes | None" = None
    timeout: "float | None" = 120.0


class JobServer:
    """Serve anytime circuit-optimization jobs over the wire.

    ``cache`` is a backend spec (see :func:`repro.perf.parse_backend_spec`)
    for the one resynthesis store all jobs — every tenant — share; pass a
    ``tcp://`` spec to share it with offloaded jobs and other machines too.
    ``tenant_step_budgets`` maps tenant name to a total iteration allowance
    across that tenant's jobs.  Use as a context manager or call
    :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: "bytes | None" = None,
        policy: str = "fair",
        cache: "str | None" = None,
        tenant_step_budgets: "dict[str, int] | None" = None,
        max_resident: int = 8,
        offload: "OffloadConfig | None" = None,
        idle_sleep: float = 0.01,
    ) -> None:
        self.host = host
        self.port = port
        self.authkey = bytes(authkey) if authkey is not None else serve_authkey()
        self.scheduler = JobScheduler(
            policy=policy,
            cache=cache,
            tenant_step_budgets=tenant_step_budgets,
            max_resident=max_resident,
        )
        self.offload = offload
        self.idle_sleep = idle_sleep
        self.lock = threading.RLock()
        self._counters = threading.Lock()
        self.requests_received = 0
        self.requests_served = 0
        self.requests_failed = 0
        self.offload_batches = 0
        self._offload_inflight = False
        self._rpc: "rpc.Server | None" = None
        self._address: "tuple[str, int] | None" = None
        self._stop = threading.Event()
        self._threads: "list[threading.Thread]" = []
        self._started = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> "tuple[str, int]":
        if self._address is None:
            raise RuntimeError("server is not listening (call start())")
        return self._address

    def start(self) -> "tuple[str, int]":
        """Bind, spawn the accept and scheduler threads; returns the address."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._rpc = rpc.Server((self.host, self.port), self.authkey, handle=self._answer)
        host, port = self._rpc.start()
        self._address = (str(host), int(port))
        thread = threading.Thread(target=self._scheduler_loop, daemon=True, name="serve-scheduler")
        thread.start()
        self._threads.append(thread)
        return self._address

    def __enter__(self) -> "JobServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop accepting, drain the scheduler, finalize anytime results."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self._rpc is not None:
            self._rpc.stop()
        for thread in self._threads:
            thread.join(timeout=30.0)
        with self.lock:
            self.scheduler.close()

    # -- scheduler thread ------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            with self.lock:
                ran = self.scheduler.tick()
            self._maybe_offload()
            if not ran:
                # Nothing runnable: sleep off-lock so submits are never
                # starved by an idle spin.
                time.sleep(self.idle_sleep)

    # -- offload ---------------------------------------------------------------

    def _maybe_offload(self) -> None:
        if self.offload is None or self._offload_inflight:
            return
        with self.lock:
            overflow = self.scheduler.overflow()
            if len(overflow) < self.offload.threshold:
                return
            taken = self.scheduler.take_for_offload([job.job_id for job in overflow])
            if not taken:
                return
            self._offload_inflight = True
        thread = threading.Thread(
            target=self._run_offload_batch,
            args=(taken,),
            daemon=True,
            name="serve-offload",
        )
        thread.start()
        self._threads.append(thread)

    def _offload_cache_spec(self) -> "str | None":
        """The cache spec offloaded jobs can reach — network specs only.

        A ``tcp://`` store is addressable from worker hosts; ``local:`` and
        ``server:`` stores belong to this server process, so offloaded jobs
        run with private caches rather than pretending.
        """
        spec = self.scheduler._cache_spec
        if spec is not None and spec.servers:
            return spec.canonical
        return None

    def _run_offload_batch(self, taken) -> None:
        from repro.distrib.coordinator import Coordinator
        from repro.distrib.plan import CaseRun, Shard, ShardPlan
        from repro.distrib.worker import run_host_agent
        from repro.serve.protocol import job_to_distributed

        cache_spec = self._offload_cache_spec()
        # Group compatible jobs into one coordinator run each: jobs whose
        # DistributedJob records agree on everything but the circuit payload
        # can share a cluster round-trip.
        groups: "dict[object, list]" = {}
        for job in taken:
            distributed = job_to_distributed(job.spec, job.job_id, cache_spec)
            # The grouping key is the job minus its circuit payload; suite is
            # swapped to a non-inline kind only because an inline job without
            # circuits would not validate.
            key = replace(distributed, inline_circuits=None, suite="builtin")
            groups.setdefault(key, []).append((job, distributed))
        try:
            for members in groups.values():
                self._run_offload_group(
                    members, Coordinator, CaseRun, Shard, ShardPlan, run_host_agent
                )
        finally:
            self._offload_inflight = False

    def _run_offload_group(
        self, members, Coordinator, CaseRun, Shard, ShardPlan, run_host_agent
    ) -> None:
        jobs = [job for job, _ in members]
        merged_inline = tuple(
            pair for _, distributed in members for pair in distributed.inline_circuits
        )
        group_job = replace(members[0][1], inline_circuits=merged_inline)
        # Hand-built plan: one shard per job, each carrying the job's own
        # seed verbatim (make_shard_plan would re-derive seeds from a root,
        # which must not happen — the client's seed is part of the contract).
        # Single-run shards also mean elastic stealing has no tail to split:
        # offload load-balances purely by hosts pulling one job at a time.
        plan = ShardPlan(
            root_seed=None,
            replicas=1,
            case_names=tuple(job.job_id for job in jobs),
            shards=tuple(
                Shard(
                    index=index,
                    runs=(CaseRun(name=job.job_id, replica=0, seed=job.spec.seed),),
                )
                for index, job in enumerate(jobs)
            ),
        )
        try:
            coordinator = Coordinator(
                group_job,
                plan,
                host=self.offload.host,
                port=self.offload.port,
                authkey=self.offload.authkey,
                timeout=self.offload.timeout,
                # In-process coordinator: the pool it would drain also
                # carries this server's clients and cache connections.
                drain_pool=False,
            )
            address = coordinator.start()
            agents = [
                threading.Thread(
                    target=run_host_agent,
                    args=(address,),
                    kwargs={
                        "authkey": coordinator.authkey,
                        "name": f"serve-offload-{self.offload_batches}-{index}",
                        # In-process agent: the connection pool it would
                        # drain also carries this server's clients.
                        "drain_pool": False,
                    },
                    daemon=True,
                )
                for index in range(self.offload.agents)
            ]
            for agent in agents:
                agent.start()
            result = coordinator.join()
        except Exception as error:  # noqa: BLE001 - jobs must land somewhere
            with self.lock:
                for job in jobs:
                    self.scheduler.finalize_offloaded(
                        job.job_id, None, message=f"offload failed: {error!r}"
                    )
            return
        by_name = {case.name: case for case in result.cases}
        with self.lock:
            self.offload_batches += 1
            for job in jobs:
                case = by_name.get(job.job_id)
                self.scheduler.finalize_offloaded(
                    job.job_id,
                    case.merged if case is not None else None,
                    message=None if case is not None else "offloaded case missing",
                )

    # -- connection handling ---------------------------------------------------

    def _answer(self, op, payload):
        """Answer one request: ``(True, result)`` or ``(False, message)``."""
        with self._counters:
            self.requests_received += 1
        try:
            result = self._dispatch(str(op), payload)
        except Exception as error:  # noqa: BLE001 - always answer
            with self._counters:
                self.requests_failed += 1
            return False, f"{type(error).__name__}: {error}"
        with self._counters:
            self.requests_served += 1
        if op == "shutdown":
            threading.Thread(target=self.stop, daemon=True).start()
        return True, result

    def _dispatch(self, op: str, payload):
        if op == "ping":
            return "pong"
        if op == "shutdown":
            return "bye"
        with self.lock:
            if op == "submit":
                if not isinstance(payload, JobSpec):
                    raise TypeError(f"submit takes a JobSpec, got {type(payload).__name__}")
                return self.scheduler.submit(payload)
            if op == "status":
                return self.scheduler.status(str(payload))
            if op == "result":
                return self.scheduler.result(str(payload))
            if op == "incumbents":
                job_id, since_seq = payload
                return self.scheduler.incumbents(str(job_id), int(since_seq))
            if op == "cancel":
                return self.scheduler.cancel(str(payload))
            if op == "jobs":
                return self.scheduler.statuses(payload)
            if op == "stats":
                # This very request is still in flight (received, not yet
                # answered); without the correction every stats reply would
                # report itself as dropped.
                return self.stats(in_flight=1)
        raise ValueError(f"unknown op {op!r}")

    # -- accounting ------------------------------------------------------------

    def stats(self, in_flight: int = 0) -> dict:
        """Server counters plus the scheduler's job/tenant accounting."""
        answered = self.requests_served + self.requests_failed + in_flight
        stats = {
            "requests_received": self.requests_received,
            "requests_served": self.requests_served,
            "requests_failed": self.requests_failed,
            # In-flight requests are still being answered; at quiesce this
            # is exactly received - answered, the smoke gate's zero check.
            "requests_dropped": max(0, self.requests_received - answered),
            "offload_batches": self.offload_batches,
            "policy": self.scheduler.policy,
        }
        stats.update(self.scheduler.stats())
        return stats


__all__ = ["JobServer", "OffloadConfig"]
