"""Suite-sharding coordinator: one merge point for many host agents.

``python -m repro.distrib.coordinator`` listens on an ``AF_INET``
:mod:`repro.rpc` server (the transport the cache and job servers speak),
deterministically shards a benchmark
suite into a :class:`~repro.distrib.plan.ShardPlan`, and serves *case
batches* to whichever host agents (:mod:`repro.distrib.worker`) register —
a pull model, so hosts of different speeds self-balance and the coordinator
never needs to know the cluster size in advance.

The protocol is anytime and elastic (see ``docs/distributed.md`` for the
wire format):

* **Case-granular progress** — agents report each
  :class:`~repro.distrib.plan.CaseRun` as it finishes (``case-result``),
  not one opaque blob per shard, so the coordinator's ledger always knows
  exactly which runs are done.  A lost host forfeits only its *unfinished*
  runs; everything it already reported survives.
* **Elastic work stealing** — when an idle host asks for work and the
  queue is empty, the coordinator splits the tail off the largest
  outstanding assignment and hands it over.  Sound because run seeds live
  in the plan (derived from the root seed, never from the executing host),
  so a stolen run computes bit-for-bit what the victim would have.
* **Cross-host incumbent exchange** (``job.cross_host_exchange``) — agents
  periodically publish their best ``(cost, error bound, circuit)`` per run;
  the coordinator keeps a per-case global board and relays strictly better
  incumbents back on the next heartbeat.  Replica 0 of each case is the
  anchor and never adopts, and bounds travel with circuits, so the
  soundness and portfolio >= solo invariants of the in-machine exchange
  hold across machines.

Failure semantics: a run is *outstanding* from dispatch until its result
arrives.  If the owning connection drops (host crash, network cut) the
unfinished remainder of its assignment goes back on the queue; if the host
reports a per-case execution error, just that run is re-queued.  Because
run seeds live in the plan, a re-run reproduces what the lost host would
have computed, so re-queuing never perturbs the merged outcome.  Results
for a run that somehow completes twice keep the first arrival.  Re-queuing
is capped per run: a run that keeps failing is failing *deterministically*
(same seeds everywhere) and the coordinator aborts — and an aborted (or
timed-out) run answers every subsequent agent message with an explicit
``abort`` so connected agents exit cleanly instead of crunching for a dead
run.  The run finishes when every planned run has a result; merging
(:mod:`repro.distrib.merge`) then orders everything by the plan, making the
merged result independent of host count, stealing, and arrival order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import threading
import time
from collections import deque

from repro import rpc
from repro.distrib.merge import (
    DistributedSuiteResult,
    merge_case_results,
)
from repro.distrib.plan import (
    CaseRun,
    DistributedJob,
    ShardPlan,
    job_case_names,
    make_shard_plan,
    validate_job_cases,
)
from repro.distrib.worker import distrib_authkey
from repro.perf.report import PerfReport


def _run_label(key: "tuple[str, int]") -> str:
    name, replica = key
    return f"{name}#r{replica}"


class _Assignment:
    """A batch of runs dispatched to one host.

    Starts as a plan shard; a steal may later carve off its tail, so
    ``remaining`` (runs not yet completed or revoked) is the live view.
    ``remaining[0]`` is the run the host is executing (hosts run batches in
    order and report each run as it finishes), which is why steals only
    ever take from index 1 on.
    """

    __slots__ = ("id", "host", "runs", "remaining")

    def __init__(self, assignment_id: int, host: str, runs: "list[CaseRun]") -> None:
        self.id = assignment_id
        self.host = host
        self.runs = tuple(runs)
        self.remaining = list(runs)


class _CoordinatorState:
    """Case-granular run ledger, shared across per-connection handler threads.

    One lock guards everything: dispatch (including steals), completion,
    re-queuing, the incumbent board, and the abort flag.  All methods are
    thread-safe entry points for the handler threads.
    """

    def __init__(
        self,
        job: DistributedJob,
        plan: ShardPlan,
        max_shard_attempts: int = 5,
    ) -> None:
        self.job = job
        self.plan = plan
        self.exchange = bool(getattr(job, "cross_host_exchange", False))
        self.num_runs = plan.num_runs
        self._runs: "dict[tuple[str, int], CaseRun]" = {
            (run.name, run.replica): run for shard in plan.shards for run in shard.runs
        }
        #: queue of run batches awaiting dispatch (initially the plan shards)
        self.pending: "deque[tuple[CaseRun, ...]]" = deque(
            tuple(shard.runs) for shard in plan.shards
        )
        self.live: "dict[int, _Assignment]" = {}
        self._ids = itertools.count()
        self.case_results: "dict[tuple[str, int], object]" = {}
        self.case_hosts: "dict[tuple[str, int], str]" = {}
        #: host assignments per run, counted at dispatch; the abort cap
        #: allows ``max_shard_attempts`` re-queue retries *after* the first
        #: assignment (so a run may be assigned ``max_shard_attempts + 1``
        #: times in total before the coordinator gives up)
        self.attempts: "dict[tuple[str, int], int]" = {}
        self.max_shard_attempts = max(1, int(max_shard_attempts))
        self.hosts: "list[str]" = []
        self.requeues: "list[str]" = []
        self.steals: "list[str]" = []
        self.adoptions: "list[str]" = []
        self.duplicates = 0
        #: per-host revocation sets: runs this host should skip because a
        #: twin finished first or a thief now owns them
        self.revoked: "dict[str, set[tuple[str, int]]]" = {}
        #: global incumbent board: case name -> (cost, error, circuit, source)
        self.incumbents: "dict[str, tuple[float, float, object, str]]" = {}
        self.fatal: "str | None" = None
        self.aborted: "str | None" = None
        self.lock = threading.Lock()
        self.finished = threading.Event()

    # -- dispatch --------------------------------------------------------------

    def register(self, host: str) -> None:
        with self.lock:
            if host not in self.hosts:
                self.hosts.append(host)

    def take(self, host: str) -> "_Assignment | None":
        """Hand ``host`` its next batch: queued work first, then a stolen tail."""
        with self.lock:
            if self.aborted is not None or self.finished.is_set():
                return None
            while self.pending:
                batch = [
                    run
                    for run in self.pending.popleft()
                    if (run.name, run.replica) not in self.case_results
                ]
                if batch:
                    return self._dispatch(host, batch)
            stolen = self._steal_tail(host)
            return self._dispatch(host, stolen) if stolen else None

    def _dispatch(self, host: str, runs: "list[CaseRun]") -> _Assignment:
        assignment = _Assignment(next(self._ids), host, runs)
        self.live[assignment.id] = assignment
        for run in runs:
            key = (run.name, run.replica)
            self.attempts[key] = self.attempts.get(key, 0) + 1
        return assignment

    def _steal_tail(self, thief: str) -> "list[CaseRun]":
        """Split the tail off the largest outstanding assignment (caller locks).

        The victim keeps the head half (``remaining[0]`` is in flight); the
        stolen runs are revoked from the victim on its next heartbeat.
        Deterministic victim choice (largest remainder, ties to the oldest
        assignment) keeps steal logs stable run to run.
        """
        candidates = [
            assignment
            for assignment in self.live.values()
            if assignment.host != thief and len(assignment.remaining) >= 2
        ]
        if not candidates:
            return []
        victim = max(candidates, key=lambda a: (len(a.remaining), -a.id))
        keep = (len(victim.remaining) + 1) // 2
        stolen = victim.remaining[keep:]
        victim.remaining = victim.remaining[:keep]
        keys = [(run.name, run.replica) for run in stolen]
        self.revoked.setdefault(victim.host, set()).update(keys)
        self.steals.append(
            f"{thief} stole [{', '.join(_run_label(key) for key in keys)}] "
            f"from {victim.host}"
        )
        return stolen

    # -- completion / failure --------------------------------------------------

    def complete(self, host: str, key: "tuple[str, int]", result) -> None:
        with self.lock:
            # Scrub the run from every live assignment: the reporter's own,
            # and any re-queued twin (whose host gets a revocation so it can
            # skip the duplicate instead of re-computing it).
            for assignment in list(self.live.values()):
                before = len(assignment.remaining)
                assignment.remaining = [
                    run
                    for run in assignment.remaining
                    if (run.name, run.replica) != key
                ]
                if len(assignment.remaining) != before and assignment.host != host:
                    self.revoked.setdefault(assignment.host, set()).add(key)
                if not assignment.remaining:
                    del self.live[assignment.id]
            if key in self.case_results:
                self.duplicates += 1  # first arrival wins; twins are identical
                return
            self.case_results[key] = result
            self.case_hosts[key] = host
            if self.exchange:
                # A finished replica's final incumbent can still pull a
                # straggler replica of the same case forward.
                self._publish(
                    key[0],
                    result.best_cost,
                    result.error_bound,
                    result.best_circuit,
                    f"{host}/r{key[1]}",
                )
            if len(self.case_results) == self.num_runs:
                self.finished.set()

    def fail_case(self, host: str, key: "tuple[str, int]", reason: str) -> None:
        """One run raised on ``host``: re-queue it (capped) — satellite of the
        case-granular protocol; the host keeps executing the rest of its batch.
        """
        with self.lock:
            for assignment in list(self.live.values()):
                if assignment.host != host:
                    continue
                assignment.remaining = [
                    run
                    for run in assignment.remaining
                    if (run.name, run.replica) != key
                ]
                if not assignment.remaining:
                    del self.live[assignment.id]
            if key in self.case_results or self.aborted is not None:
                return
            self.requeues.append(f"case {_run_label(key)} re-queued from {host}: {reason}")
            if self._over_cap(key, reason):
                return
            self.pending.append((self._runs[key],))

    def lost(self, host: str, held: "set[int]") -> None:
        """A connection died: re-queue only the *unfinished* runs it held.

        Completed runs already live in ``case_results`` — the point of
        case-granular reporting is that a host loss never discards work that
        was reported before the loss.
        """
        with self.lock:
            self.revoked.pop(host, None)
            if self.aborted is not None or self.finished.is_set():
                return
            for assignment_id in held:
                assignment = self.live.pop(assignment_id, None)
                if assignment is None:
                    continue  # fully completed (or fully stolen) before the loss
                remaining = [
                    run
                    for run in assignment.remaining
                    if (run.name, run.replica) not in self.case_results
                ]
                if not remaining:
                    continue
                labels = ", ".join(
                    _run_label((run.name, run.replica)) for run in remaining
                )
                self.requeues.append(
                    f"cases [{labels}] re-queued from {host}: connection lost"
                )
                for run in remaining:
                    if self._over_cap((run.name, run.replica), "connection lost"):
                        return
                self.pending.append(tuple(remaining))

    def _over_cap(self, key: "tuple[str, int]", reason: str) -> bool:
        """Abort when a run has exhausted its re-queue retries (caller locks).

        ``attempts`` counts *host assignments* (incremented at dispatch), so
        the cap trips only after ``max_shard_attempts`` full re-queue retries
        beyond the first assignment — not one retry early.
        """
        attempts = self.attempts.get(key, 1)
        if attempts <= self.max_shard_attempts:
            return False
        outstanding = sorted(set(self._runs) - set(self.case_results))
        shard_indices = sorted(
            {
                shard.index
                for shard in self.plan.shards
                for run in shard.runs
                if (run.name, run.replica) not in self.case_results
            }
        )
        self.fatal = (
            f"case {_run_label(key)} failed on {attempts} host assignments "
            f"(1 initial + {self.max_shard_attempts} re-queue retries); "
            f"giving up (last: {reason}); still outstanding: "
            f"[{', '.join(_run_label(k) for k in outstanding)}] "
            f"in plan shards {shard_indices}"
        )
        self.aborted = self.fatal
        self.finished.set()
        return True

    def abort(self, reason: str) -> None:
        """Mark the run dead: every subsequent agent message is answered
        ``abort`` so connected hosts stop instead of crunching for nothing."""
        with self.lock:
            if self.aborted is None:
                self.aborted = reason
            self.finished.set()

    # -- incumbent exchange ----------------------------------------------------

    def _publish(self, name: str, cost: float, error: float, circuit, source: str) -> None:
        if circuit is None:
            return  # a heartbeat without a payload cannot seed the board
        best = self.incumbents.get(name)
        if best is None or cost < best[0]:
            self.incumbents[name] = (float(cost), float(error), circuit, source)

    def record_exchange(self, host: str, publishes, adopted) -> None:
        """Fold one agent heartbeat into the board (publishes + adoption log)."""
        with self.lock:
            if self.exchange:
                for name, replica, cost, error, circuit in publishes:
                    self._publish(name, cost, error, circuit, f"{host}/r{replica}")
            for note in adopted:
                self.adoptions.append(note)

    def update_for(self, host: str, queries=()) -> dict:
        """The coordinator's half of a heartbeat reply.

        ``revoked`` — runs this host should skip (finished elsewhere or
        stolen); delivered exactly once.  ``incumbents`` — for each queried
        ``(case name, cost)``, the board's incumbent when *strictly* better
        than the query (so an agent is never handed state it cannot improve
        on, and exchange-off runs never see a circuit payload at all).
        """
        with self.lock:
            update: dict = {"revoked": sorted(self.revoked.pop(host, ()))}
            incumbents = {}
            if self.exchange:
                for name, cost in queries:
                    best = self.incumbents.get(name)
                    if best is not None and best[0] < cost:
                        incumbents[name] = (best[0], best[1], best[2])
            update["incumbents"] = incumbents
            return update

    def snapshot(self) -> str:
        with self.lock:
            outstanding = sum(len(a.remaining) for a in self.live.values())
            return (
                f"{len(self.case_results)}/{self.num_runs} runs done, "
                f"{len(self.pending)} batch(es) pending, "
                f"{outstanding} outstanding"
            )


class _AgentSession:
    """One agent connection's protocol state: who it is and what it holds.

    ``close`` runs when the connection ends: a vanished host forfeits only
    the *unfinished* runs it was holding.
    """

    def __init__(self, state: _CoordinatorState, job: DistributedJob) -> None:
        self.state = state
        self.job = job
        self.host = "?"
        self.held: "set[int]" = set()

    def handle(self, op, payload):
        state = self.state
        if op == "hello":
            self.host = str(payload)
            state.register(self.host)
            return (
                "welcome",
                {
                    "runs": state.num_runs,
                    "shards": len(state.plan.shards),
                    "exchange": state.exchange,
                },
            )
        if op == "ping":
            return ("pong", None)
        if state.aborted is not None:
            # A dead run (timeout / attempt-cap abort) tells its agents so;
            # they exit cleanly with the reason instead of crunching a
            # doomed batch and crashing on report.
            return ("abort", state.aborted)
        if op == "next":
            assignment = state.take(self.host)
            if assignment is not None:
                self.held.add(assignment.id)
                return ("assign", (assignment.id, assignment.runs, self.job))
            if state.finished.is_set():
                return ("done", None)
            # Work may still flow back: outstanding runs on a dying host
            # would land here after a re-queue.
            return ("wait", 0.2)
        if op == "case-result":
            _assignment_id, key, result = payload
            state.complete(self.host, tuple(key), result)
        elif op == "case-error":
            _assignment_id, key, message = payload
            state.fail_case(self.host, tuple(key), f"host error: {message}")
        elif op == "progress":
            _assignment_id, publishes, adopted = payload
            state.record_exchange(self.host, publishes, adopted)
            queries = [(name, cost) for name, _replica, cost, _err, _c in publishes]
            return ("ok", state.update_for(self.host, queries))
        else:
            return ("unknown-op", op)
        if state.aborted is not None:
            return ("abort", state.aborted)
        return ("ok", state.update_for(self.host))

    def close(self) -> None:
        self.state.lost(self.host, self.held)


class Coordinator:
    """Own one distributed run: bind, dispatch, steal, re-queue, merge.

    ``serve()`` blocks until every planned run has reported and returns the
    merged :class:`~repro.distrib.merge.DistributedSuiteResult`; ``start()``
    runs it on a background thread (returning the bound address once
    listening) with ``join()`` to collect the result — the in-process form
    tests and drivers embed.

    An idle host steals the tail of a busy host's batch.
    ``max_shard_attempts`` caps *re-queue retries per run*: a run may be
    assigned to hosts at most ``max_shard_attempts + 1`` times before the
    coordinator aborts.
    """

    def __init__(
        self,
        job: DistributedJob,
        plan: ShardPlan,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: "bytes | None" = None,
        timeout: "float | None" = None,
        max_shard_attempts: int = 5,
    ) -> None:
        # Fail before binding: a case name no host can resolve would fail
        # deterministically on every assignment (see the re-queue cap).
        validate_job_cases(job, plan.case_names)
        self.job = job
        self.plan = plan
        self.host = host
        self.port = port
        self.authkey = bytes(authkey) if authkey is not None else distrib_authkey()
        self.timeout = timeout
        self.max_shard_attempts = max_shard_attempts
        self._address: "tuple[str, int] | None" = None
        self._bound = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._result: "DistributedSuiteResult | None" = None
        self._error: "BaseException | None" = None

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)``; valid once listening."""
        if not self._bound.wait(timeout=30.0) or self._address is None:
            if self._error is not None:
                raise RuntimeError("coordinator failed to start") from self._error
            raise RuntimeError("coordinator is not listening")
        return self._address

    def serve(self) -> DistributedSuiteResult:
        """Serve runs until the plan completes; return the merged result.

        On every exit path (merged result, timeout, abort) the coordinator
        drains this process's pooled cache connections: a long-lived driver
        embedding the in-process form runs many plans against many tcp
        caches, and without the drain each run's sockets would accumulate as
        leaked fds.  ``join()`` inherits the guarantee — it only ever returns
        what ``serve`` produced.
        """
        try:
            return self._serve()
        finally:
            rpc.drain_connection_pool()

    def _serve(self) -> DistributedSuiteResult:
        state = _CoordinatorState(self.job, self.plan, max_shard_attempts=self.max_shard_attempts)
        started = time.monotonic()
        server = rpc.Server(
            (self.host, self.port),
            self.authkey,
            session=lambda: _AgentSession(state, self.job),
        )
        self._address = server.address
        self._bound.set()
        server.start()
        try:
            if not state.finished.wait(self.timeout):
                reason = (
                    f"distributed run timed out after {self.timeout:.0f}s "
                    f"({state.snapshot()})"
                )
                # Flip the abort flag *before* raising: the handler threads
                # outlive the listener and answer connected agents with the
                # abort so they shut down cleanly.
                state.abort(reason)
                raise TimeoutError(reason)
        finally:
            server.stop()
        if state.fatal is not None:
            raise RuntimeError(
                f"distributed run aborted: {state.fatal} "
                f"(re-queue log: {state.requeues})"
            )
        elapsed = time.monotonic() - started
        cases = merge_case_results(self.plan, state.case_results)
        perf_reports = [
            result.perf
            for result in state.case_results.values()
            if getattr(result, "perf", None) is not None
        ]
        return DistributedSuiteResult(
            plan=self.plan,
            cases=cases,
            perf=PerfReport.merged(perf_reports, elapsed=elapsed) if perf_reports else None,
            hosts=list(state.hosts),
            shard_hosts=_majority_shard_hosts(self.plan, state.case_hosts),
            case_hosts=dict(state.case_hosts),
            requeues=list(state.requeues),
            steals=list(state.steals),
            adoptions=list(state.adoptions),
            elapsed=elapsed,
        )

    # -- background form ------------------------------------------------------

    def start(self) -> "tuple[str, int]":
        """Run :meth:`serve` on a daemon thread; return the bound address."""
        if self._thread is not None:
            raise RuntimeError("coordinator already started")

        def _run() -> None:
            try:
                self._result = self.serve()
            except BaseException as error:  # noqa: BLE001 - re-raised in join()
                self._error = error
                self._bound.set()  # never leave address() waiters hanging

        self._thread = threading.Thread(target=_run, daemon=True, name="distrib-coordinator")
        self._thread.start()
        return self.address

    def join(self, timeout: "float | None" = None) -> DistributedSuiteResult:
        """Wait for a started coordinator and return (or raise) its outcome."""
        if self._thread is None:
            raise RuntimeError("coordinator was not started")
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("coordinator still running")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


def _majority_shard_hosts(
    plan: ShardPlan, case_hosts: "dict[tuple[str, int], str]"
) -> "dict[int, str]":
    """Attribute each plan shard to the host that completed most of its runs.

    With stealing a shard's runs may have executed on several hosts;
    ``case_hosts`` is the exact record, this is the telemetry summary
    (deterministic: counts, then lexicographically lowest host on ties).
    """
    owners: "dict[int, str]" = {}
    for shard in plan.shards:
        counts: "dict[str, int]" = {}
        for run in shard.runs:
            host = case_hosts.get((run.name, run.replica))
            if host is not None:
                counts[host] = counts.get(host, 0) + 1
        if counts:
            owners[shard.index] = max(sorted(counts), key=lambda host: counts[host])
    return owners


def _emit_bench(result: DistributedSuiteResult, path: str) -> None:
    """Write a pytest-benchmark-shaped json for ``check_regression.py``.

    One entry per case (mean = merged replica wall-clock) plus a
    ``distrib_suite_total`` aggregate whose ``extra_info`` carries the
    cross-host cache counters and fleet-elasticity counters the CI gates
    read (``--require-remote-hits``, ``--require-steals``,
    ``--require-zero-lost``).
    """
    perf = result.perf
    benchmarks = [
        {
            "name": f"distrib_{case.name}",
            "stats": {"mean": max(r.elapsed for r in case.replicas)},
            "extra_info": {
                "best_cost": case.merged.best_cost,
                "total_iterations": case.merged.total_iterations,
            },
        }
        for case in result.cases
    ]
    benchmarks.append(
        {
            "name": "distrib_suite_total",
            "stats": {"mean": result.elapsed},
            "extra_info": {
                "cache_remote_hits": perf.cache_remote_hits if perf else 0,
                "cache_hit_rate": perf.cache_hit_rate if perf else 0.0,
                # Fleet-health counters: nonzero means cache traffic was
                # silently shed mid-run (--require-zero-dropped gates these).
                "cache_dropped_requests": perf.cache_dropped_requests if perf else 0,
                "cache_unreachable_servers": perf.cache_unreachable_servers if perf else 0,
                "hosts": len(result.hosts),
                "requeues": len(result.requeues),
                # Elasticity counters: steals > 0 proves the tail of a slow
                # host was re-balanced; cases_lost must be 0 — the merge
                # refuses to produce a result with missing runs, so this is
                # the "no silently dropped work" gate (--require-steals,
                # --require-zero-lost).
                "steals": len(result.steals),
                "adoptions": len(result.adoptions),
                "cases_total": result.plan.num_runs,
                "cases_lost": result.plan.num_runs - len(result.case_hosts),
            },
        }
    )
    with open(path, "w") as handle:
        json.dump({"benchmarks": benchmarks}, handle, indent=2)
        handle.write("\n")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distrib.coordinator",
        description="Shard a benchmark suite across registered host agents and merge results.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="address to bind (0.0.0.0 for LAN)")
    parser.add_argument("--port", type=int, default=0, help="port to bind (0 = OS-assigned)")
    parser.add_argument(
        "--authkey", default=None, help="connection authkey (default: $REPRO_DISTRIB_AUTHKEY)"
    )
    parser.add_argument("--suite", default="ftqc", choices=["nisq", "ftqc", "builtin"])
    parser.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"])
    parser.add_argument(
        "--cases",
        default=None,
        help="comma-separated case subset (builtin: generator names; required there)",
    )
    parser.add_argument("--replicas", type=int, default=1, help="independent runs per case")
    parser.add_argument("--shards", type=int, default=2, help="work units to split the plan into")
    parser.add_argument("--seed", type=int, default=None, help="root seed (None = entropy)")
    parser.add_argument("--gate-set", default="clifford+t")
    parser.add_argument("--objective", default="ftqc", choices=["nisq", "ftqc", "2q"])
    parser.add_argument("--no-lower", action="store_true", help="skip lowering to the gate set")
    parser.add_argument("--epsilon", type=float, default=1e-6)
    parser.add_argument("--max-iterations", type=int, default=60)
    parser.add_argument("--num-workers", type=int, default=2, help="portfolio workers per run")
    parser.add_argument("--exchange-interval", type=int, default=50)
    parser.add_argument("--backend", default="serial", help="per-host portfolio backend")
    parser.add_argument("--resynthesis-probability", type=float, default=0.015)
    parser.add_argument("--synthesis-time-budget", type=float, default=0.5)
    parser.add_argument("--no-resynthesis", action="store_true")
    parser.add_argument(
        "--cross-exchange",
        action="store_true",
        help="exchange incumbents across hosts mid-search (couples host "
        "trajectories; leave off for bit-reproducible runs)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="SPEC",
        help="shared resynthesis cache backend spec every host attaches to "
        "(tcp://HOST:PORT for cross-host sharing; see docs/serving.md "
        "for the full grammar)",
    )
    parser.add_argument("--timeout", type=float, default=None, help="abort after this many seconds")
    parser.add_argument("--output", default=None, help="write the merged summary json here")
    parser.add_argument(
        "--emit-bench", default=None, help="write a check_regression.py-compatible BENCH json"
    )
    args = parser.parse_args(argv)

    cache_spec = None
    if args.cache:
        from repro.perf.shared_cache import parse_backend_spec

        # Validate and canonicalize before anything ships: a typo'd spec
        # should die here, not deterministically on every host, and hosts
        # should all see the one canonical spelling.
        try:
            cache_spec = parse_backend_spec(args.cache).canonical
        except (ValueError, TypeError) as error:
            parser.error(str(error))

    job = DistributedJob(
        suite=args.suite,
        scale=args.scale,
        gate_set=args.gate_set,
        objective=args.objective,
        lower=not args.no_lower,
        epsilon_budget=args.epsilon,
        max_iterations=args.max_iterations,
        num_workers=args.num_workers,
        exchange_interval=args.exchange_interval,
        backend=args.backend,
        include_resynthesis=not args.no_resynthesis,
        synthesis_time_budget=args.synthesis_time_budget,
        resynthesis_probability=args.resynthesis_probability,
        share_resynthesis_cache=cache_spec,
        cross_host_exchange=args.cross_exchange,
    )
    if args.cases:
        case_names = [name.strip() for name in args.cases.split(",") if name.strip()]
    elif args.suite == "builtin":
        parser.error("--suite builtin requires --cases (generator names)")
    else:
        case_names = job_case_names(job)
    plan = make_shard_plan(
        case_names, num_shards=args.shards, root_seed=args.seed, replicas=args.replicas
    )
    coordinator = Coordinator(
        job,
        plan,
        host=args.host,
        port=args.port,
        authkey=args.authkey.encode() if args.authkey else None,
        timeout=args.timeout,
    )
    print(f"[coordinator] plan: {plan.describe()}")
    address = coordinator.start()
    print(f"[coordinator] listening on {address[0]}:{address[1]}", flush=True)
    result = coordinator.join()

    print(f"[coordinator] hosts: {', '.join(result.hosts) or 'none'}")
    for event in result.requeues:
        print(f"[coordinator] {event}")
    for event in result.steals:
        print(f"[coordinator] steal: {event}")
    for event in result.adoptions:
        print(f"[coordinator] adoption: {event}")
    for case in result.cases:
        merged = case.merged
        print(
            f"[coordinator] {case.name}: {merged.initial_cost:g} -> {merged.best_cost:g} "
            f"({merged.cost_reduction:.0%}), error bound {merged.error_bound:.2e}, "
            f"{merged.total_iterations} iterations over {len(case.replicas)} replica(s)"
        )
    if result.perf is not None:
        print(
            f"[coordinator] cache: {result.perf.cache_hits} hits / "
            f"{result.perf.cache_misses} misses, "
            f"{result.perf.cache_remote_hits} remote hits"
        )
        if result.perf.cache_dropped_requests or result.perf.cache_unreachable_servers:
            print(
                f"[coordinator] WARNING: cache degraded mid-run — "
                f"{result.perf.cache_unreachable_servers} unreachable server(s), "
                f"{result.perf.cache_dropped_requests} dropped request(s)"
            )
        for note in result.perf.notes:
            print(f"[coordinator] note: {note}")
    print(f"[coordinator] fingerprint {result.fingerprint()} in {result.elapsed:.1f}s")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"[coordinator] summary written to {args.output}")
    if args.emit_bench:
        _emit_bench(result, args.emit_bench)
        print(f"[coordinator] bench json written to {args.emit_bench}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
