"""Host agent: executes case runs for a coordinator on this machine.

``python -m repro.distrib.worker --connect HOST:PORT`` connects to a
coordinator (:mod:`repro.distrib.coordinator`), pulls *assignments* (case
batches — initially plan shards, possibly a stolen tail of one), runs every
:class:`~repro.distrib.plan.CaseRun` through a local
:class:`~repro.parallel.PortfolioOptimizer` (rebuilding circuits from the
suite generators — work units travel as names and seeds, not pickled
circuits), and reports each run back as a ``case-result`` the moment it
finishes.  Runs are driven through the resumable
:meth:`~repro.parallel.portfolio.PortfolioRun.step_round` engine, so
between exchange rounds the agent can heartbeat the coordinator: publish
its best incumbent (when ``job.cross_host_exchange``), learn which of its
queued runs were revoked (finished elsewhere or stolen), and adopt a
strictly better global incumbent — never on replica 0, which anchors the
case exactly like worker 0 anchors a portfolio.

Agents are stateless pull-workers: the job spec travels with each
assignment, a lost agent forfeits only its unfinished runs, and between
runs the agent drains its pooled cache connections
(:func:`repro.rpc.drain_connection_pool`) so a long-lived
agent never leaks sockets across the many portfolio runs it hosts.

The same per-run execution path is exposed in-process as :func:`run_local`,
which executes a whole plan on the calling machine and merges it like the
coordinator does — the single-host baseline a distributed run's merged
fingerprint can be compared against.
"""

from __future__ import annotations

import argparse
import time
import traceback

from repro import rpc
from repro.distrib.merge import DistributedSuiteResult, merge_case_results
from repro.distrib.plan import CaseRun, DistributedJob, ShardPlan
from repro.perf.report import PerfReport

#: default authkey for coordinator<->agent connections; like the cache key,
#: a handshake (multiprocessing HMAC), not a security boundary — override
#: with ``REPRO_DISTRIB_AUTHKEY`` to isolate concurrent clusters
DEFAULT_DISTRIB_AUTHKEY = b"repro-distrib"


class _RunAborted(Exception):
    """The coordinator declared the run dead (timeout / attempt-cap abort)."""


def distrib_authkey() -> bytes:
    """The coordinator/agent authkey: ``REPRO_DISTRIB_AUTHKEY`` or default."""
    import os

    value = os.environ.get("REPRO_DISTRIB_AUTHKEY")
    return value.encode() if value else DEFAULT_DISTRIB_AUTHKEY


def build_cases(job: DistributedJob, names: "list[str]") -> "dict[str, object]":
    """Rebuild the named benchmark circuits on this host, lowered per the job.

    Suites are assembled from the deterministic parametric generators, so
    every host derives byte-identical circuits from the same names.
    """
    from repro.gatesets.base import get_gate_set
    from repro.gatesets.decompose import decompose_to_gate_set
    from repro.suite import ftqc_suite, nisq_suite
    from repro.suite import generators as suite_generators
    from repro.suite.suite import select_cases

    gate_set = get_gate_set(job.gate_set)
    circuits: "dict[str, object]" = {}
    if job.suite == "builtin":
        for name in names:
            generator = getattr(suite_generators, name, None)
            if generator is None or not callable(generator):
                raise ValueError(f"unknown builtin generator {name!r}")
            circuits[name] = generator()
    else:
        suite = nisq_suite(job.scale) if job.suite == "nisq" else ftqc_suite(job.scale)
        for case in select_cases(suite, names):
            circuits[case.name] = case.circuit
    if job.lower:
        for name, circuit in circuits.items():
            lowered = decompose_to_gate_set(circuit, gate_set)
            lowered.name = name
            circuits[name] = lowered
    return circuits


def _case_portfolio(job: DistributedJob, seed: "int | None"):
    """One case's :class:`~repro.parallel.PortfolioOptimizer`: the job's
    portfolio settings under the run's derived ``seed``."""
    from repro.parallel.portfolio import build_portfolio

    return build_portfolio(
        job.gate_set,
        objective=job.objective,
        epsilon_budget=job.epsilon_budget,
        time_limit=job.time_limit,
        max_iterations=job.max_iterations,
        seed=seed,
        num_workers=job.num_workers,
        exchange_interval=job.exchange_interval,
        backend=job.backend,
        include_rewrites=job.include_rewrites,
        include_resynthesis=job.include_resynthesis,
        synthesis_time_budget=job.synthesis_time_budget,
        resynthesis_probability=job.resynthesis_probability,
        share_resynthesis_cache=job.share_resynthesis_cache,
    )


def run_case(job: DistributedJob, run: CaseRun, circuit) -> "object":
    """Optimize one case exactly as any host in the cluster would.

    Builds the run's portfolio through
    :func:`repro.parallel.build_portfolio` (the builder behind
    :func:`~repro.parallel.optimize_circuit_portfolio`) seeded from the
    run's derived seed; the result is deterministic in ``run.seed`` when
    iteration-bounded and no cross-host cache (or cross-host exchange)
    couples trajectories.
    """
    return _case_portfolio(job, run.seed).optimize(circuit)


def run_local(job: DistributedJob, plan: ShardPlan, host: str = "local") -> DistributedSuiteResult:
    """Execute a whole plan on this machine — the single-host baseline.

    Runs every planned run through :func:`run_case` and merges the per-run
    results with :func:`~repro.distrib.merge.merge_case_results`, exactly
    as the coordinator merges what its agents report, so its fingerprint is
    what any multi-host run of the same plan must reproduce (with exchange
    off — cross-host exchange deliberately couples trajectories and has no
    single-host equivalent).
    """
    started = time.monotonic()
    circuits = build_cases(job, list(plan.case_names))
    by_run = {
        (run.name, run.replica): run_case(job, run, circuits[run.name])
        for shard in plan.shards
        for run in shard.runs
    }
    perf_reports = [result.perf for result in by_run.values() if result.perf is not None]
    elapsed = time.monotonic() - started
    return DistributedSuiteResult(
        plan=plan,
        cases=merge_case_results(plan, by_run),
        perf=PerfReport.merged(perf_reports, elapsed=elapsed) if perf_reports else None,
        hosts=[host],
        shard_hosts={shard.index: host for shard in plan.shards},
        case_hosts=dict.fromkeys(by_run, host),
        elapsed=elapsed,
    )


class HostAgent:
    """One machine's worker loop against a coordinator.

    Pull protocol over a :class:`repro.rpc.Channel`: ``hello`` registers,
    ``next`` requests work, the coordinator answers ``assign`` / ``wait`` /
    ``done`` / ``abort``.  Each assignment is a batch of
    :class:`~repro.distrib.plan.CaseRun`\\ s the agent executes in order,
    posting a ``case-result`` per finished run and a ``progress`` heartbeat
    between exchange rounds while a run is live.
    Every reply to a post carries an *update*: runs revoked from this host
    (finished elsewhere, or stolen while this host was busy) and — with
    ``job.cross_host_exchange`` — any strictly better global incumbent for
    the posting run's case.  A run that raises locally is reported as
    ``case-error`` so the coordinator can re-queue just that run elsewhere;
    the agent carries on with the rest of its batch.  An ``abort`` reply at
    any point (coordinator timeout or attempt-cap abort) makes the agent
    exit cleanly with the reason recorded in ``abort_reason``.

    ``shard_delay`` inserts a sleep before executing each assignment, and
    ``case_delay`` before each case — testing hooks that make "kill the
    agent mid-case" and "straggler host gets its tail stolen" scenarios
    deterministic.
    """

    def __init__(
        self,
        address: "tuple[str, int]",
        authkey: "bytes | None" = None,
        name: "str | None" = None,
        connect_timeout: float = 30.0,
        poll_interval: float = 0.2,
        shard_delay: float = 0.0,
        case_delay: float = 0.0,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.authkey = bytes(authkey) if authkey is not None else distrib_authkey()
        if name is None:
            import os
            import socket

            name = f"{socket.gethostname()}:{os.getpid()}"
        self.name = name
        self.connect_timeout = connect_timeout
        self.poll_interval = poll_interval
        self.shard_delay = shard_delay
        self.case_delay = case_delay
        #: why the coordinator told this agent to stop (None = normal exit)
        self.abort_reason: "str | None" = None
        #: cross-host incumbents this agent adopted (telemetry)
        self.adopted = 0

    def _connect(self) -> rpc.Channel:
        """Dial the coordinator: a private channel, since the connection is
        this agent's session (the coordinator keys host identity on it)."""
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                return rpc.Channel(self.address, self.authkey)
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(min(self.poll_interval, 0.5))

    def _post(self, channel: rpc.Channel, message) -> dict:
        """Send one report/heartbeat; return the coordinator's update.

        Raises :class:`_RunAborted` on an ``abort`` reply so the whole
        assignment unwinds promptly, and lets connection errors propagate —
        the run loop treats a vanished coordinator as a finished run.
        """
        op, payload = channel.call(*message)
        if op == "abort":
            raise _RunAborted(str(payload))
        if op != "ok":
            raise RuntimeError(f"unexpected coordinator reply {op!r}")
        return payload or {}

    def _execute_assignment(self, channel, assignment_id: int, runs, job) -> int:
        """Run one assignment's cases in order; return how many completed here.

        ``revoked`` accumulates runs the coordinator has reassigned (stolen
        by an idle host) or seen finish elsewhere — they are skipped, which
        is what makes stealing and duplicate re-queues race-free: whoever
        reports first wins, everyone else drops the run on their next
        heartbeat.
        """
        if self.shard_delay:
            time.sleep(self.shard_delay)
        names: "list[str]" = []
        for run in runs:
            if run.name not in names:
                names.append(run.name)
        circuits = build_cases(job, names)
        exchange = bool(getattr(job, "cross_host_exchange", False))
        revoked: "set[tuple[str, int]]" = set()
        adopted_notes: "list[str]" = []
        completed = 0
        for run in runs:
            key = (run.name, run.replica)
            if key in revoked:
                continue
            if self.case_delay:
                time.sleep(self.case_delay)
            try:
                portfolio_run = _case_portfolio(job, run.seed).start(circuits[run.name])
            except (_RunAborted, EOFError, OSError, ConnectionError):
                raise
            except Exception as error:  # noqa: BLE001 - reported for re-queue
                update = self._post(
                    channel,
                    (
                        "case-error",
                        (assignment_id, key, _failure_message(error)),
                    ),
                )
                revoked.update(tuple(k) for k in update.get("revoked", ()))
                # Breathe before the next case: a deterministic failure
                # would otherwise spin at full CPU until the cap trips.
                time.sleep(self.poll_interval)
                continue
            try:
                try:
                    published_cost: "float | None" = None
                    while portfolio_run.step_round():
                        if not exchange:
                            continue
                        # Publish the circuit only when our own best
                        # improved since the last heartbeat; cost/bound
                        # always travel so the coordinator can answer with
                        # anything strictly better.
                        improved = (
                            published_cost is None
                            or portfolio_run.incumbent_cost < published_cost
                        )
                        publish = (
                            run.name,
                            run.replica,
                            portfolio_run.incumbent_cost,
                            portfolio_run.incumbent_error,
                            portfolio_run.incumbent_circuit if improved else None,
                        )
                        if improved:
                            published_cost = portfolio_run.incumbent_cost
                        update = self._post(
                            channel,
                            ("progress", (assignment_id, [publish], adopted_notes)),
                        )
                        adopted_notes = []
                        revoked.update(tuple(k) for k in update.get("revoked", ()))
                        incumbent = update.get("incumbents", {}).get(run.name)
                        # Replica 0 anchors the case across the cluster the
                        # way worker 0 anchors a portfolio: it never adopts,
                        # so one unperturbed trajectory always survives and
                        # the merged case is provably >= the solo run.
                        if incumbent is not None and run.replica != 0:
                            cost, error, circuit = incumbent
                            if portfolio_run.adopt_incumbent(circuit, error=error):
                                self.adopted += 1
                                adopted_notes.append(
                                    f"{self.name} adopted incumbent for "
                                    f"{run.name}#r{run.replica} "
                                    f"(cost {cost:g}, error bound {error:.3g})"
                                )
                    result = portfolio_run.result()
                finally:
                    portfolio_run.close()
            except (_RunAborted, EOFError, OSError, ConnectionError):
                raise
            except Exception as error:  # noqa: BLE001 - reported for re-queue
                update = self._post(
                    channel,
                    ("case-error", (assignment_id, key, _failure_message(error))),
                )
                revoked.update(tuple(k) for k in update.get("revoked", ()))
                time.sleep(self.poll_interval)
                continue
            update = self._post(
                channel, ("case-result", (assignment_id, key, result))
            )
            completed += 1
            revoked.update(tuple(k) for k in update.get("revoked", ()))
        return completed

    def run(self) -> int:
        """Serve assignments until ``done``/``abort``; returns runs completed."""
        completed = 0
        channel = self._connect()
        try:
            channel.call("hello", self.name)  # welcome
            while True:
                try:
                    op, payload = channel.call("next")
                except (EOFError, OSError):
                    break  # coordinator finished and closed the listener
                if op == "done":
                    break
                if op == "abort":
                    self.abort_reason = str(payload)
                    print(
                        f"[{self.name}] coordinator aborted the run: {payload}",
                        flush=True,
                    )
                    break
                if op == "wait":
                    time.sleep(float(payload) if payload else self.poll_interval)
                    continue
                if op != "assign":
                    raise RuntimeError(f"unexpected coordinator reply {op!r}")
                assignment_id, runs, job = payload
                try:
                    completed += self._execute_assignment(
                        channel, assignment_id, runs, job
                    )
                except _RunAborted as aborted:
                    self.abort_reason = str(aborted)
                    print(
                        f"[{self.name}] coordinator aborted the run: {aborted}",
                        flush=True,
                    )
                    break
                except (EOFError, OSError):
                    # The run finished without us (e.g. our runs were
                    # revoked and the listener closed); nothing left to
                    # report to.
                    break
        finally:
            channel.close()
            # A long-lived agent outlives many runs (and their tcp caches):
            # drop pooled sockets so dead servers don't accumulate fds.
            rpc.drain_connection_pool()
        return completed


def _failure_message(error: BaseException) -> str:
    """Ship the full traceback, not just ``repr(error)``: the coordinator's
    re-queue log (and the abort message when the attempt cap trips) is where
    an operator debugs a deterministic failure, and a bare repr loses the
    failing frame."""
    return f"{error!r}\n{traceback.format_exc().rstrip()}"


def run_host_agent(
    address: "tuple[str, int]",
    authkey: "bytes | None" = None,
    name: "str | None" = None,
    connect_timeout: float = 30.0,
    shard_delay: float = 0.0,
    case_delay: float = 0.0,
) -> int:
    """Module-level agent entry point (spawn-safe ``Process`` target)."""
    agent = HostAgent(
        address,
        authkey=authkey,
        name=name,
        connect_timeout=connect_timeout,
        shard_delay=shard_delay,
        case_delay=case_delay,
    )
    return agent.run()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distrib.worker",
        description="Host agent: pull and execute case runs from a repro.distrib coordinator.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to register with",
    )
    parser.add_argument("--name", default=None, help="host label in reports (default host:pid)")
    parser.add_argument(
        "--authkey",
        default=None,
        help="connection authkey (default: $REPRO_DISTRIB_AUTHKEY or built-in)",
    )
    parser.add_argument(
        "--retry",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="keep retrying the initial connection this long (agents may start first)",
    )
    parser.add_argument(
        "--case-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep before each case (straggler simulation for smoke tests)",
    )
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host:
        parser.error(f"--connect must be HOST:PORT, got {args.connect!r}")
    agent = HostAgent(
        (host, int(port)),
        authkey=args.authkey.encode() if args.authkey else None,
        name=args.name,
        connect_timeout=args.retry,
        case_delay=args.case_delay,
    )
    completed = agent.run()
    print(f"[{agent.name}] served {completed} case run(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
