"""The benchmark's workloads, driven through the package's public API.

``nisq`` and ``ftqc`` optimize a fixed pack of tiny-suite circuits with
``default_transformations`` + ``GuoqOptimizer``, bounded by iterations only
(``time_limit`` and the synthesis time budget are infinite), so the search
trajectory does not depend on machine speed.  ``serve`` runs three tenants'
jobs through an in-process ``JobServer`` sharing a ``tcp://`` cache server,
driven by one ``JobClient`` connection.

The workload seed generates one member of each pack (the *seeded* case).
Search seeds are fixed per case, so two runs with the same seed do the same
work and, on ``nisq`` and ``ftqc``, must return the same fingerprints.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
import zlib
from dataclasses import dataclass, field

from repro import GuoqConfig, GuoqOptimizer, default_objective, default_transformations
from repro.distrib import start_tcp_cache_server
from repro.gatesets import decompose_to_gate_set, get_gate_set
from repro.serve import JobClient, JobServer, JobSpec
from repro.suite import bernstein_vazirani, lowered_suite, qaoa_maxcut

from check import check_output

#: per-case wall-clock cap; a case past it counts as failed
CASE_TIMEOUT_S = 60.0
#: pause between the serve client's status polls
POLL_S = 0.01


@dataclass
class Case:
    name: str
    circuit: object
    seed: int


@dataclass
class Row:
    """One case (or job) of one pass."""

    name: str
    original: object
    optimized: object = None
    best_cost: float = math.nan
    initial_cost: float = math.nan
    iterations: int = 0
    wall_s: float = math.nan
    time_to_best_s: float = math.nan
    first_incumbent_s: "float | None" = None
    accepted: int = 0
    rejected: int = 0
    remote_hits: int = 0
    dropped: int = 0
    error: "str | None" = None

    def fingerprint(self) -> list:
        optimized = self.optimized
        return [
            self.name,
            repr(self.best_cost),
            optimized.two_qubit_count() if optimized is not None else None,
            optimized.size() if optimized is not None else None,
            self.iterations,
        ]


@dataclass
class Pass:
    rows: "list[Row]" = field(default_factory=list)
    wall_s: float = 0.0
    #: requests the serve front end dropped or failed (serve only)
    failed_requests: int = 0


def search_seed(name: str) -> int:
    return zlib.crc32(name.encode())


class GuoqPack:
    """``nisq`` / ``ftqc``: a fixed circuit pack, one GUOQ run per case.

    The cases run one after the other, as if the whole pack had been handed
    over at the start of the pass: a case's time to its first improvement
    and to its final best count from that moment.
    """

    def __init__(self, gate_set, objective, names, seeded, iterations) -> None:
        self.gate_set = gate_set
        self.objective_mode = objective
        self.names = names
        #: (case name, circuit generator taking the workload seed)
        self.seeded = seeded
        self.iterations = iterations

    def build(self, seed: int) -> "list[Case]":
        """The lowered pack: the named tiny-suite circuits plus the seeded case."""
        by_name = {case.name: case.circuit for case in lowered_suite(self.gate_set, "tiny")}
        cases = [Case(name, by_name[name], search_seed(name)) for name in self.names]
        label, make = self.seeded
        circuit = decompose_to_gate_set(make(seed), get_gate_set(self.gate_set))
        cases.append(Case(label, circuit, search_seed(label)))
        return cases

    def transformations(self, case: Case) -> list:
        return default_transformations(self.gate_set, synthesis_time_budget=math.inf, rng=case.seed)

    def objective(self):
        return default_objective(self.gate_set, self.objective_mode)

    def setup(self, seed: int) -> float:
        """One full set-up: build and lower the pack, construct every transformation set."""
        started = time.perf_counter()
        for case in self.build(seed):
            self.transformations(case)
        self.objective()
        return time.perf_counter() - started

    def run_pass(self, seed: int, deadline: float, tracer=None) -> Pass:
        """Optimize every case; cases left when ``deadline`` passes count as failed."""
        objective = self.objective()
        result = Pass()
        started = time.perf_counter()
        for case in self.build(seed):
            row = Row(case.name, case.circuit)
            result.rows.append(row)
            optimizer = GuoqOptimizer(
                self.transformations(case),
                cost=objective,
                config=GuoqConfig(
                    seed=case.seed, time_limit=math.inf, max_iterations=self.iterations
                ),
            )
            if tracer is not None:
                tracer.case = case.name
            case_started = time.perf_counter()
            try:
                with _alarm(min(CASE_TIMEOUT_S, deadline - case_started)):
                    if tracer is not None:
                        with tracer.span("bench.case"):
                            outcome = optimizer.optimize(case.circuit)
                    else:
                        outcome = optimizer.optimize(case.circuit)
            except Exception as error:  # noqa: BLE001 - a failed case is a result
                row.error = f"{type(error).__name__}: {error}"
                row.wall_s = time.perf_counter() - case_started
                continue
            row.wall_s = time.perf_counter() - case_started
            _fill_from_guoq(row, outcome, waited=case_started - started)
            row.error = check_output(
                case.circuit, outcome.best_circuit, outcome.error_bound, self.gate_set
            )
        result.wall_s = time.perf_counter() - started
        return result


def _fill_from_guoq(row: Row, outcome, waited: float) -> None:
    """``waited``: how long the case sat behind earlier cases of its pass."""
    row.optimized = outcome.best_circuit
    row.best_cost = outcome.best_cost
    row.initial_cost = outcome.initial_cost
    row.iterations = outcome.iterations
    row.time_to_best_s = waited + outcome.history[-1].elapsed
    improving = [point for point in outcome.history if point.cost < outcome.initial_cost]
    row.first_incumbent_s = waited + improving[0].elapsed if improving else None
    row.accepted = outcome.accepted
    row.rejected = outcome.rejected
    if outcome.perf is not None:
        row.remote_hits = outcome.perf.cache_remote_hits
        row.dropped = outcome.perf.cache_dropped_requests


class ServeJobs:
    """``serve``: tenants submit the same Clifford+T circuits with their own seeds.

    All jobs are submitted at once and one client connection polls until all
    are terminal: a closed loop with every job in flight.  Job times are the
    client's view, from submit to the poll that saw the job terminal.
    """

    gate_set = "clifford+t"
    objective_mode = "ftqc"

    def __init__(self, names, seeded, tenants, iterations, workers, quantum) -> None:
        self.pack = GuoqPack(self.gate_set, self.objective_mode, names, seeded, iterations)
        self.tenants = tenants
        self.iterations = iterations
        self.workers = workers
        #: iterations per worker in one scheduler quantum (the job's exchange interval)
        self.quantum = quantum

    def objective(self):
        return self.pack.objective()

    def specs(self, seed: int) -> "list[tuple[Case, JobSpec]]":
        specs = []
        for tenant in range(self.tenants):
            for case in self.pack.build(seed):
                spec = JobSpec(
                    circuit=case.circuit,
                    name=case.name,
                    gate_set=self.gate_set,
                    objective=self.objective_mode,
                    time_limit=math.inf,
                    max_iterations=self.iterations,
                    seed=search_seed(f"{case.name}/tenant-{tenant}"),
                    num_workers=self.workers,
                    exchange_interval=self.quantum,
                    backend="serial",
                    synthesis_time_budget=math.inf,
                    tenant=f"tenant-{tenant}",
                )
                specs.append((case, spec))
        return specs

    def _start(self):
        process, address = start_tcp_cache_server()
        server = JobServer(cache=f"tcp://{address[0]}:{address[1]}", max_resident=64)
        try:
            server.start()
        except BaseException:
            _stop_process(process)
            raise
        return process, server

    def setup(self, seed: int) -> float:
        """Build the job specs and bring the cache server and job server up and down."""
        started = time.perf_counter()
        self.specs(seed)
        process, server = self._start()
        try:
            JobClient(address=server.address).ping()
            return time.perf_counter() - started
        finally:
            _stop(process, server)

    def run_pass(self, seed: int, deadline: float, tracer=None) -> Pass:
        specs = self.specs(seed)
        process, server = self._start()
        result = Pass()
        try:
            if tracer is not None:
                tracer.job_of_run = lambda run: _job_of_run(server, run)
                with tracer.span("bench.client", case="client"):
                    self._drive(server, specs, result, deadline)
            else:
                self._drive(server, specs, result, deadline)
            stats = server.stats()
            result.failed_requests = stats["requests_dropped"] + stats["requests_failed"]
        finally:
            _stop(process, server)
        return result

    def _drive(self, server, specs, result: Pass, deadline: float) -> None:
        client = JobClient(address=server.address)
        try:
            started = time.perf_counter()
            deadline = min(deadline, started + 2 * CASE_TIMEOUT_S)
            submitted = {}
            rows = {}
            for case, spec in specs:
                job_id = client.submit(spec)
                submitted[job_id] = time.perf_counter()
                rows[job_id] = Row(f"{spec.tenant}/{case.name}", case.circuit)
            result.rows = list(rows.values())
            pending = set(submitted)
            while pending:
                if time.perf_counter() > deadline:
                    for job_id in pending:
                        rows[job_id].error = "timed out"
                    break
                statuses = client.jobs()
                now = time.perf_counter()
                for status in statuses:
                    job_id = status.job_id
                    if job_id not in pending:
                        continue
                    row = rows[job_id]
                    if row.first_incumbent_s is None and status.incumbents >= 2:
                        row.first_incumbent_s = now - submitted[job_id]
                    if status.terminal:
                        pending.discard(job_id)
                        row.wall_s = now - submitted[job_id]
                        self._finish(client, job_id, status, row)
                time.sleep(POLL_S)
            result.wall_s = time.perf_counter() - started
        finally:
            client.close()

    def _finish(self, client, job_id, status, row: Row) -> None:
        if status.state != "done":
            row.error = f"job ended {status.state}: {status.message}"
            return
        _, outcome = client.result(job_id, wait=False)
        if outcome is None:
            row.error = "job returned no result"
            return
        row.optimized = outcome.best_circuit
        row.best_cost = outcome.best_cost
        row.initial_cost = outcome.initial_cost
        row.iterations = outcome.total_iterations
        # the job's own optimization time, without the quanta other jobs got
        row.time_to_best_s = outcome.history[-1].elapsed
        row.accepted = sum(worker.accepted for worker in outcome.worker_results)
        row.rejected = sum(worker.rejected for worker in outcome.worker_results)
        if outcome.perf is not None:
            row.remote_hits = outcome.perf.cache_remote_hits
            row.dropped = outcome.perf.cache_dropped_requests
        row.error = check_output(
            row.original, outcome.best_circuit, outcome.error_bound, self.gate_set
        )


def _job_of_run(server, run):
    for job_id, job in server.scheduler.jobs.items():
        if job.run is run:
            return job_id
    return None


def _stop(process, server) -> None:
    try:
        server.stop()
    finally:
        _stop_process(process)


def _stop_process(process) -> None:
    process.terminate()
    process.join(timeout=10)
    if process.is_alive():
        process.kill()
        process.join()


@contextlib.contextmanager
def _alarm(seconds: float):
    """Raise ``TimeoutError`` in the main thread once ``seconds`` have passed."""
    if seconds <= 0:
        raise TimeoutError("not started: the run's time limit had passed")

    def expired(signum, frame):
        raise TimeoutError(f"case exceeded {seconds:.0f}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: the seeded member of the Clifford+T packs: Bernstein-Vazirani on a secret
#: drawn from the workload seed (light, so seeds barely move the timings)
SEEDED_BV = ("bv_5_seeded", lambda seed: bernstein_vazirani(5, secret=1 + seed % 15))

WORKLOADS = {
    "nisq": GuoqPack(
        "ibm-eagle",
        "nisq",
        ["qft_4", "ghz_5", "bv_5", "vqe_4_d1", "barenco_tof_3", "rc_adder_2", "qft_adder_2"],
        # the graph and angles come from the workload seed
        ("qaoa_4_p1_seeded", lambda seed: qaoa_maxcut(4, 1, seed=seed)),
        iterations=200,
    ),
    "ftqc": GuoqPack(
        "clifford+t",
        "ftqc",
        [
            "tof_4",
            "barenco_tof_3",
            "rc_adder_2",
            "vbe_adder_1",
            "ghz_5",
            "hidden_shift_4",
            "grover_3",
            "random_ct_4_40",
        ],
        SEEDED_BV,
        iterations=400,
    ),
    "serve": ServeJobs(
        ["tof_4", "rc_adder_2", "barenco_tof_3"],
        SEEDED_BV,
        tenants=3,
        iterations=100,
        workers=2,
        quantum=50,
    ),
}
