"""Run-dispatching coordinator: one merge point for many host agents.

``python -m repro.distrib.coordinator`` listens on an ``AF_INET``
:mod:`repro.rpc` server (the transport the cache and job servers speak),
turns a benchmark suite into a deterministic
:class:`~repro.distrib.plan.RunPlan`, and hands its runs out one at a time
to whichever host agents (:mod:`repro.distrib.worker`) register — a pull
model, so hosts of different speeds self-balance and the coordinator never
needs to know the cluster size in advance.

The protocol is anytime (see ``docs/distributed.md`` for the wire format):

* **One run per pull** — ``next`` hands a host exactly one
  :class:`~repro.distrib.plan.CaseRun` from a plan-ordered queue, and the
  host reports it (``case-result``) before pulling again.  A host never
  holds work it is not running, so an idle host always finds the queue's
  next run and a straggler delays only the one run it is executing.
* **Cross-host incumbent exchange** (``job.cross_host_exchange``) — agents
  periodically publish their best ``(cost, error bound, circuit)`` per run;
  the coordinator keeps a per-case global board and relays strictly better
  incumbents back on the next heartbeat.  Replica 0 of each case is the
  anchor and never adopts, and bounds travel with circuits, so the
  soundness and portfolio >= solo invariants of the in-machine exchange
  hold across machines.

Failure semantics: a run is *outstanding* from dispatch until its result
arrives.  If the owning connection drops (host crash, network cut) the run
it held goes back on the queue; if the host reports an execution error,
that run is re-queued.  Because run seeds live in the plan, a re-run
reproduces what the lost host would have computed, so re-queuing never
perturbs the merged outcome.  Re-queuing is capped per run: a run that
keeps failing is failing *deterministically* (same seeds everywhere) and
the coordinator aborts — and an aborted (or timed-out) run answers every
subsequent agent message with an explicit ``abort`` so connected agents
exit cleanly instead of crunching for a dead run.  The run finishes when
every planned run has a result; merging (:mod:`repro.distrib.merge`) then
orders everything by the plan, making the merged result independent of
host count and arrival order.
"""

from __future__ import annotations

import argparse
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
    RunPlan,
    job_case_names,
    make_run_plan,
    validate_job_cases,
)
from repro.distrib.worker import distrib_authkey
from repro.parallel.portfolio import settings_from_args
from repro.perf.report import PerfReport


def _run_label(run: CaseRun) -> str:
    return f"{run.name}#r{run.replica}"


class _CoordinatorState:
    """Per-run ledger, shared across per-connection handler threads.

    One lock guards everything: dispatch, completion, re-queuing, the
    incumbent board, and the abort flag.  All methods are thread-safe entry
    points for the handler threads.
    """

    def __init__(self, job: DistributedJob, plan: RunPlan, max_attempts: int) -> None:
        self.job = job
        self.plan = plan
        self.num_runs = plan.num_runs
        self._runs = {(run.name, run.replica): run for run in plan.runs}
        #: runs awaiting dispatch, in plan order (re-queued runs at the back)
        self.pending: "deque[CaseRun]" = deque(plan.runs)
        self.case_results: "dict[tuple[str, int], object]" = {}
        self.case_hosts: "dict[tuple[str, int], str]" = {}
        #: host assignments per run, counted at dispatch; the abort cap
        #: allows ``max_attempts`` re-queue retries *after* the first
        #: assignment (so a run may be assigned ``max_attempts + 1`` times in
        #: total before the coordinator gives up)
        self.attempts: "dict[tuple[str, int], int]" = {}
        self.max_attempts = max_attempts
        self.hosts: "list[str]" = []
        self.requeues: "list[str]" = []
        self.adoptions: "list[str]" = []
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

    def take(self) -> "CaseRun | None":
        """The next queued run, or None when the queue is empty or the run is over."""
        with self.lock:
            if self.aborted is not None or self.finished.is_set() or not self.pending:
                return None
            run = self.pending.popleft()
            key = (run.name, run.replica)
            self.attempts[key] = self.attempts.get(key, 0) + 1
            return run

    # -- completion / failure --------------------------------------------------

    def complete(self, host: str, key: "tuple[str, int]", result) -> None:
        with self.lock:
            if key in self.case_results:
                return  # first arrival wins
            self.case_results[key] = result
            self.case_hosts[key] = host
            if self.job.cross_host_exchange:
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

    def requeue(self, host: str, key: "tuple[str, int]", reason: str) -> None:
        """Put a run ``host`` failed or dropped back on the queue (capped)."""
        with self.lock:
            run = self._runs[key]
            if key in self.case_results or self.aborted is not None or self.finished.is_set():
                return
            self.requeues.append(f"case {_run_label(run)} re-queued from {host}: {reason}")
            if not self._over_cap(run, reason):
                self.pending.append(run)

    def _over_cap(self, run: CaseRun, reason: str) -> bool:
        """Abort when a run has exhausted its re-queue retries (caller locks).

        ``attempts`` counts *host assignments* (incremented at dispatch), so
        the cap trips only after ``max_attempts`` full re-queue retries
        beyond the first assignment — not one retry early.
        """
        attempts = self.attempts.get((run.name, run.replica), 1)
        if attempts <= self.max_attempts:
            return False
        outstanding = [
            _run_label(other)
            for other in self.plan.runs
            if (other.name, other.replica) not in self.case_results
        ]
        self.fatal = (
            f"case {_run_label(run)} failed on {attempts} host assignments "
            f"(1 initial + {self.max_attempts} re-queue retries); "
            f"giving up (last: {reason}); still outstanding: [{', '.join(outstanding)}]"
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

    def exchange(self, host: str, publish, adopted) -> dict:
        """Fold one agent heartbeat into the board; return the reply update.

        The update holds the board's ``incumbent`` for the published case
        when it is *strictly* better than the publisher's own, so an agent
        is never handed state it cannot improve on.
        """
        name, replica, cost, error, circuit = publish
        with self.lock:
            self.adoptions.extend(adopted)
            self._publish(name, cost, error, circuit, f"{host}/r{replica}")
            best = self.incumbents.get(name)
            if best is None or best[0] >= cost:
                return {}
            return {"incumbent": best[:3]}

    def snapshot(self) -> str:
        with self.lock:
            done = len(self.case_results)
            return (
                f"{done}/{self.num_runs} runs done, {len(self.pending)} pending, "
                f"{self.num_runs - done - len(self.pending)} outstanding"
            )


class _AgentSession:
    """One agent connection's protocol state: who it is and the run it holds.

    ``close`` runs when the connection ends: a vanished host forfeits the
    run it was executing, which goes back on the queue.
    """

    def __init__(self, state: _CoordinatorState) -> None:
        self.state = state
        self.host = "?"
        self.held: "CaseRun | None" = None

    def handle(self, op, payload):
        state = self.state
        if op == "hello":
            self.host = str(payload)
            state.register(self.host)
            return ("welcome", {"runs": state.num_runs, "exchange": state.job.cross_host_exchange})
        if op == "ping":
            return ("pong", None)
        if state.aborted is not None:
            # A dead run (timeout / attempt-cap abort) tells its agents so;
            # they exit cleanly with the reason instead of crunching a
            # doomed run and crashing on report.
            return ("abort", state.aborted)
        if op == "next":
            # A host holds at most one run: asking again re-sends it.
            if self.held is None:
                self.held = state.take()
            if self.held is not None:
                return ("assign", (self.held, state.job))
            if state.finished.is_set():
                return ("done", None)
            # Work may still flow back: a run on a dying host lands here
            # after its re-queue.
            return ("wait", 0.2)
        if op == "progress":
            publish, adopted = payload
            return ("ok", state.exchange(self.host, publish, adopted))
        if op not in ("case-result", "case-error"):
            return ("unknown-op", op)
        key, detail = payload
        self.held = None
        if op == "case-result":
            state.complete(self.host, tuple(key), detail)
        else:
            state.requeue(self.host, tuple(key), f"host error: {detail}")
        if state.aborted is not None:
            return ("abort", state.aborted)
        return ("ok", {})

    def close(self) -> None:
        if self.held is not None:
            self.state.requeue(self.host, (self.held.name, self.held.replica), "connection lost")


class Coordinator:
    """Own one distributed run: bind, dispatch, re-queue, merge.

    ``serve()`` blocks until every planned run has reported and returns the
    merged :class:`~repro.distrib.merge.DistributedSuiteResult`; ``start()``
    runs it on a background thread (returning the bound address once
    listening) with ``join()`` to collect the result — the in-process form
    tests and drivers embed.

    ``max_attempts`` caps *re-queue retries per run*: a run may be assigned
    to hosts at most ``max_attempts + 1`` times before the coordinator
    aborts.
    """

    def __init__(
        self,
        job: DistributedJob,
        plan: RunPlan,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: "bytes | None" = None,
        timeout: "float | None" = None,
        max_attempts: int = 5,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {max_attempts!r}")
        # Fail before binding: a case name no host can resolve would fail
        # deterministically on every assignment (see the re-queue cap).
        validate_job_cases(job, plan.case_names)
        self.job = job
        self.plan = plan
        self.host = host
        self.port = port
        self.authkey = bytes(authkey) if authkey is not None else distrib_authkey()
        self.timeout = timeout
        self.max_attempts = max_attempts
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
        state = _CoordinatorState(self.job, self.plan, self.max_attempts)
        started = time.monotonic()
        server = rpc.Server(
            (self.host, self.port),
            self.authkey,
            session=lambda: _AgentSession(state),
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
            result.perf for result in state.case_results.values() if result.perf is not None
        ]
        return DistributedSuiteResult(
            plan=self.plan,
            cases=cases,
            perf=PerfReport.merged(perf_reports, elapsed=elapsed) if perf_reports else None,
            hosts=list(state.hosts),
            case_hosts=dict(state.case_hosts),
            requeues=list(state.requeues),
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


def _emit_bench(result: DistributedSuiteResult, path: str) -> None:
    """Write a pytest-benchmark-shaped json for ``check_regression.py``.

    One entry per case (mean = merged replica wall-clock) plus a
    ``distrib_suite_total`` aggregate whose ``extra_info`` carries the
    cross-host cache counters the CI gates read (``--require-remote-hits``,
    ``--require-zero-dropped``).
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
                "adoptions": len(result.adoptions),
            },
        }
    )
    with open(path, "w") as handle:
        json.dump({"benchmarks": benchmarks}, handle, indent=2)
        handle.write("\n")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distrib.coordinator",
        description="Hand a benchmark suite's runs to registered host agents and merge results.",
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
    parser.add_argument("--seed", type=int, default=None, help="root seed (None = entropy)")
    parser.add_argument("--no-lower", action="store_true", help="skip lowering to the gate set")
    # Search flags default to DistributedJob's own defaults (absent unless given).
    settings = parser.add_argument_group("search settings", argument_default=argparse.SUPPRESS)
    settings.add_argument("--gate-set")
    settings.add_argument("--objective", choices=["nisq", "ftqc", "2q"])
    settings.add_argument("--epsilon", dest="epsilon_budget", type=float)
    settings.add_argument("--max-iterations", type=int)
    settings.add_argument("--num-workers", type=int, help="portfolio workers per run")
    settings.add_argument("--exchange-interval", type=int)
    settings.add_argument("--backend", help="per-host portfolio backend")
    settings.add_argument("--resynthesis-probability", type=float)
    settings.add_argument("--synthesis-time-budget", type=float)
    settings.add_argument("--no-resynthesis", dest="include_resynthesis", action="store_false")
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
        "(tcp://HOST:PORT for cross-host sharing; see "
        "docs/caching.md#the-backend-spec-grammar)",
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
        lower=not args.no_lower,
        share_resynthesis_cache=cache_spec,
        cross_host_exchange=args.cross_exchange,
        **settings_from_args(args),
    )
    if args.cases:
        case_names = [name.strip() for name in args.cases.split(",") if name.strip()]
    elif args.suite == "builtin":
        parser.error("--suite builtin requires --cases (generator names)")
    else:
        case_names = job_case_names(job)
    plan = make_run_plan(case_names, root_seed=args.seed, replicas=args.replicas)
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
