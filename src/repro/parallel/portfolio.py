"""Parallel portfolio search: many GUOQ workers, one merged anytime result.

Algorithm 1 is an anytime optimizer whose quality scales with wall-clock
budget, which makes it embarrassingly parallel across restarts and
configurations.  :class:`PortfolioOptimizer` fans a circuit out to ``N``
step-wise engines (:meth:`repro.core.guoq.GuoqOptimizer.start`), each with a
deterministically derived seed and a configuration variant, advances them in
fixed-iteration *exchange rounds* on a pluggable backend (processes, threads,
or serial — see :mod:`repro.parallel.backends`), and periodically shares the
best incumbent so stragglers restart from the portfolio's best state.

Design invariants:

* **Determinism** — the merged result is a pure function of the root seed
  (plus worker count and variant cycle) when the run is iteration-bounded;
  the backend only affects wall-clock, never the outcome.
* **Anchoring** — worker 0 runs the unmodified base configuration under the
  root seed and never adopts incumbents.  On an iteration-bounded budget
  (``max_iterations``) its trajectory is bit-identical to the solo
  ``GuoqOptimizer`` run, so the portfolio is provably never worse than solo.
  Under a pure wall-clock budget the anchor competes for the same cores as
  its siblings (especially on the GIL-bound threads backend), so it may see
  fewer iterations than a solo run given the same wall time — the guarantee
  there is best-effort, not exact.
* **Soundness** — incumbents travel with their accumulated epsilon, so every
  worker's error accounting (Theorem 4.2) remains a valid bound and the
  merged ``error_bound`` is the incumbent's true accumulated error.
* **Objective firewall** — workers may search under surrogate costs
  (:class:`~repro.parallel.variants.VariantSpec`), but ranking and exchange
  always use the portfolio's own objective.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, fields

from repro.baselines.base import BaselineOptimizer
from repro.circuits.circuit import Circuit
from repro.core.guoq import (
    GuoqConfig,
    GuoqOptimizer,
    GuoqResult,
    SearchHistoryPoint,
    _history_point,
)
from repro.core.objectives import CostFunction, TwoQubitGateCount
from repro.core.transformations import Transformation
from repro.parallel.backends import BACKENDS, RoundExecutor
from repro.parallel.variants import VariantSpec, assign_variants
from repro.perf.report import PerfReport
from repro.utils.rng import spawn_seeds


@dataclass
class PortfolioConfig:
    """Portfolio-level knobs on top of a base :class:`GuoqConfig`.

    ``search`` is the base worker configuration; its ``seed`` is the root
    seed from which every worker seed is derived, its ``time_limit`` is the
    wall-clock budget of the whole portfolio, and its ``max_iterations`` is
    the per-worker iteration budget.
    """

    search: GuoqConfig = field(default_factory=GuoqConfig)
    num_workers: int = 4
    exchange_interval: int = 250
    backend: str = "auto"
    variants: "tuple[VariantSpec, ...] | None" = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.exchange_interval < 1:
            raise ValueError("exchange_interval must be at least 1")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")


@dataclass
class PortfolioResult:
    """Merged outcome of a portfolio run."""

    best_circuit: Circuit
    best_cost: float
    initial_cost: float
    error_bound: float
    best_worker: "int | None"
    num_workers: int
    backend: str
    rounds: int
    total_iterations: int
    elapsed: float
    #: merged anytime history: the portfolio-wide incumbent envelope, with
    #: ``iteration`` counting total iterations across all workers
    history: list[SearchHistoryPoint] = field(default_factory=list)
    #: portfolio best cost after each exchange round (non-increasing)
    incumbent_trace: list[float] = field(default_factory=list)
    worker_results: list[GuoqResult] = field(default_factory=list)
    worker_labels: list[str] = field(default_factory=list)
    worker_seeds: "list[int | None]" = field(default_factory=list)
    #: backend kind of the shared resynthesis cache the run used
    #: (``local``/``tcp``), or None when workers kept private caches
    shared_cache_backend: "str | None" = None
    #: hot-path instrumentation merged across workers (phase seconds and
    #: iterations sum; shared caches are deduplicated by token); ``elapsed``
    #: is the portfolio wall-clock, so ``iterations_per_second`` reports the
    #: portfolio-wide throughput
    perf: "PerfReport | None" = None

    @property
    def cost_reduction(self) -> float:
        """Relative reduction of the objective, ``1 - best/initial``."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.best_cost / self.initial_cost

    @property
    def cache_dropped_requests(self) -> int:
        """Cache requests dropped by degraded shared backends mid-run.

        0 for a healthy fleet.  Nonzero means some lookups missed and some
        writes were lost (results stay correct — the cache is a memo); the
        matching explanation is in ``perf.notes``.
        """
        return self.perf.cache_dropped_requests if self.perf is not None else 0

    @property
    def cache_unreachable_servers(self) -> int:
        """Cache servers that died mid-run as seen by any one worker."""
        return self.perf.cache_unreachable_servers if self.perf is not None else 0


class PortfolioOptimizer:
    """Drive ``N`` GUOQ workers with periodic best-incumbent exchange.

    ``share_resynthesis_cache`` selects how resynthesis outcomes are shared
    across workers, as a backend spec string parsed by
    :func:`repro.perf.parse_backend_spec` (see ``docs/caching.md`` for the
    backend matrix):

    * ``None``/``False`` — workers keep whatever private caches their
      transformations carry (the default).
    * ``"local:"`` — one in-process shared cache; reuse spans
      serial/thread workers, while the processes backend forks private
      copies per worker (recorded in ``result.perf.notes``).
    * ``"server:"`` — a cross-process shared store: a cache server the
      driver spawns when ``optimize`` starts and shuts down when it returns.
      If the platform cannot bring it up, the run degrades to ``"local:"``
      and says so in ``result.perf.notes``.
    * ``"tcp://host:port"`` — a *network* store served by an
      already-running cache server (``python -m repro.distrib.cache_server``);
      portfolio runs on different machines share synthesis results this way
      (see ``docs/distributed.md``).  The server outlives the run — closing
      the backend only drops this process's connection — and an unreachable
      server degrades the run to ``"local"`` with a note, like the other
      shared backends.
    * a :class:`~repro.perf.ResynthesisCache` instance — attached as-is and
      left alive on exit (caller-owned, e.g. to reuse one warm cache across
      several portfolio runs).
    """

    def __init__(
        self,
        transformations: list[Transformation],
        cost: "CostFunction | None" = None,
        config: "PortfolioConfig | None" = None,
        share_resynthesis_cache: "bool | str | BackendSpec | ResynthesisCache | None" = None,
    ) -> None:
        if not transformations:
            raise ValueError("a portfolio needs at least one transformation")
        self.transformations = list(transformations)
        self.cost = cost if cost is not None else TwoQubitGateCount()
        self.config = config if config is not None else PortfolioConfig()
        self.share_resynthesis_cache = share_resynthesis_cache

    # -- shared-cache lifecycle ----------------------------------------------

    def _open_shared_cache(self) -> "tuple[ResynthesisCache | None, bool, list[str]]":
        """Materialize ``share_resynthesis_cache``: ``(cache, owned, notes)``.

        ``owned`` marks a cache this optimizer created for one run and must
        close on exit (a spawned cache server dies with the run); an adopted
        instance stays the caller's responsibility.  Every string spelling
        routes through :func:`repro.perf.parse_backend_spec`.
        """
        from repro.perf.cache import ResynthesisCache
        from repro.perf.shared_cache import SharedCacheUnavailable, parse_backend_spec

        requested = self.share_resynthesis_cache
        if requested is None or requested is False:
            return None, False, []
        if isinstance(requested, ResynthesisCache):
            return (
                requested,
                False,
                [f"shared resynthesis cache backend: {requested.backend.kind}"],
            )
        spec = parse_backend_spec(requested, parameter="share_resynthesis_cache")
        notes: list[str] = []
        try:
            cache = ResynthesisCache(shared=True, backend=spec)
        except SharedCacheUnavailable as error:
            notes.append(
                f"requested {spec.canonical!r} shared cache backend unavailable "
                f"({error}); fell back to 'local'"
            )
            cache = ResynthesisCache(shared=True)
        notes.insert(0, f"shared resynthesis cache backend: {cache.backend.kind}")
        return cache, True, notes

    # -- worker construction -------------------------------------------------

    def _build_engines(self, circuit: Circuit, shared_cache: "ResynthesisCache | None"):
        config = self.config
        base = config.search
        variants = assign_variants(config.num_workers, config.variants)
        seeds: "list[int | None]" = list(spawn_seeds(base.seed, config.num_workers))
        # The anchor reproduces the single-worker run exactly, which is what
        # guarantees portfolio >= solo on the same seed and iteration budget
        # (see the anchoring note in the module docstring for the wall-clock
        # caveat).
        seeds[0] = base.seed
        engines = []
        for variant, seed in zip(variants, seeds):
            worker_config = variant.configure(base, seed)
            # Each worker owns private copies of the transformations and the
            # cost so stateful members (resynthesizer rngs, caches) are never
            # shared across threads and every backend sees the same streams.
            worker_transformations = copy.deepcopy(self.transformations)
            if shared_cache is not None:
                # Workers attach to the shared cache here, before the engine
                # is shipped to its backend: on serial/threads every worker
                # holds this very front end, on processes each worker's
                # pickled copy re-attaches to the shared store (or downgrades
                # to private, for the local backend) at fork/spawn time.
                for transformation in worker_transformations:
                    resynthesizer = getattr(transformation, "resynthesizer", None)
                    if resynthesizer is not None and hasattr(resynthesizer, "attach_cache"):
                        resynthesizer.attach_cache(shared_cache)
            worker_cost = (
                variant.cost if variant.cost is not None else copy.deepcopy(self.cost)
            )
            optimizer = GuoqOptimizer(
                worker_transformations, cost=worker_cost, config=worker_config
            )
            engines.append(optimizer.start(circuit))
        labels = [variant.label for variant in variants]
        return engines, labels, seeds

    # -- main loop ------------------------------------------------------------

    def start(self, circuit: Circuit) -> "PortfolioRun":
        """Open a step-wise run on ``circuit`` (the serve layer's unit).

        The returned :class:`PortfolioRun` owns the shared cache and the
        round executor; drive it with :meth:`PortfolioRun.step_round`, read
        anytime state off it whenever you like, and :meth:`PortfolioRun.close`
        it when done.  :meth:`optimize` is exactly ``start`` + drain + close.
        """
        return PortfolioRun(self, circuit)

    def optimize(self, circuit: Circuit) -> PortfolioResult:
        """Run the portfolio on ``circuit`` and merge the results."""
        run = self.start(circuit)
        try:
            while run.step_round():
                pass
            return run.result()
        finally:
            run.close()


class PortfolioRun:
    """A live, step-wise portfolio run: ``step_round()`` until done.

    The portfolio analogue of :class:`repro.core.guoq.GuoqRun` — one object
    holding the engines, the incumbent, the shared cache, and the round
    executor, advanced one *exchange round* at a time so an external driver
    (``repro.serve``'s scheduler, most importantly) can interleave many runs
    on one machine.  Exactly the loop body :meth:`PortfolioOptimizer.optimize`
    always ran, factored out; interleaving ``step_round()`` calls of
    different runs cannot perturb any run's outcome, because all cross-round
    state lives on this object and ``elapsed`` accounts *active* time only
    (time spent inside ``step_round``), not wall-clock gaps between quanta.

    :meth:`result` may be called at any time for an anytime snapshot;
    :meth:`close` tears down what the run owns (idempotent).
    """

    def __init__(self, portfolio: PortfolioOptimizer, circuit: Circuit) -> None:
        self.config = portfolio.config
        self.cost = portfolio.cost
        base = self.config.search
        shared_cache, owns_cache, cache_notes = portfolio._open_shared_cache()
        self.shared_cache = shared_cache
        self._owns_cache = owns_cache
        self._cache_notes = cache_notes
        self._closed = False
        try:
            self.engines, self.labels, self.seeds = portfolio._build_engines(
                circuit, shared_cache
            )
            self._executor = RoundExecutor(
                self.config.backend, max_workers=self.config.num_workers
            )
            self._executor.__enter__()
        except BaseException:
            self._teardown_cache()
            raise
        self.incumbent_circuit = circuit
        self.incumbent_cost = self.cost(circuit)
        self.incumbent_error = 0.0
        self.initial_cost = self.incumbent_cost
        self.best_worker: "int | None" = None
        self.rounds = 0
        self.history: list[SearchHistoryPoint] = []
        self.incumbent_trace: list[float] = []
        if base.track_history:
            self.history.append(_history_point(0.0, 0, self.incumbent_cost, circuit))
        #: active seconds spent inside ``step_round`` (not wall-clock age)
        self.elapsed = 0.0
        # Per-worker cache of (best cost under the worker's own objective,
        # best cost under the portfolio objective): a worker's own best cost
        # only changes when its best circuit does, so an unchanged entry means
        # the portfolio-side re-ranking can be skipped for that worker.
        self._ranked: "list[tuple[float, float] | None]" = [None] * len(self.engines)

    @property
    def done(self) -> bool:
        """Whether another ``step_round()`` could still make progress."""
        return (
            self._closed
            or self.elapsed >= self.config.search.time_limit
            or all(engine.done for engine in self.engines)
        )

    @property
    def total_iterations(self) -> int:
        """Iterations consumed so far across all workers."""
        return sum(engine.iterations for engine in self.engines)

    @property
    def total_quanta(self) -> int:
        """``step()`` quanta consumed so far across all workers."""
        return sum(getattr(engine, "quanta", 0) for engine in self.engines)

    def step_round(self) -> bool:
        """Advance every live engine one exchange round; False when spent.

        A round only runs when the pre-conditions the one-shot loop always
        checked still hold (some engine live, active time under the limit),
        so driving this to ``False`` reproduces ``optimize()`` exactly.
        """
        if self.done:
            return False
        config = self.config
        base = config.search
        started = time.monotonic()
        self.engines = self._executor.run_round(self.engines, config.exchange_interval)
        self.rounds += 1

        # Merge: re-rank every worker's best under the portfolio objective
        # (workers may search under surrogates).  Iteration order makes ties
        # deterministic (lowest worker index wins).
        for index, engine in enumerate(self.engines):
            cached = self._ranked[index]
            if cached is not None and cached[0] == engine.best_cost:
                candidate_cost = cached[1]
            else:
                candidate_cost = self.cost(engine.best_circuit)
                self._ranked[index] = (engine.best_cost, candidate_cost)
            if candidate_cost < self.incumbent_cost:
                self.incumbent_circuit = engine.best_circuit
                self.incumbent_cost = candidate_cost
                self.incumbent_error = engine.error_bound
                self.best_worker = index
                if base.track_history:
                    self.history.append(
                        _history_point(
                            self.elapsed + (time.monotonic() - started),
                            sum(e.iterations for e in self.engines),
                            self.incumbent_cost,
                            self.incumbent_circuit,
                        )
                    )
        self.incumbent_trace.append(self.incumbent_cost)

        # Exchange: behind workers restart from the portfolio's best state.
        # The anchor (worker 0) never adopts, preserving its solo trajectory.
        for engine in self.engines[1:]:
            if not engine.done and self.cost(engine.current_circuit) > self.incumbent_cost:
                engine.inject_incumbent(self.incumbent_circuit, error=self.incumbent_error)
        self.elapsed += time.monotonic() - started
        return not self.done

    def adopt_incumbent(self, circuit: Circuit, error: float = 0.0) -> bool:
        """Adopt an externally supplied incumbent (cross-host exchange).

        The distributed analogue of the in-round exchange: a coordinator
        relays the global best circuit for this run's case, and this run
        takes it as its portfolio incumbent *iff* it is a strict improvement
        under **this run's own objective** — the same objective firewall the
        in-machine merge applies, so a surrogate-cost sibling (or a host
        ranking under a different objective) can never degrade this run.

        ``error`` must be the incumbent's accumulated epsilon on the host
        that produced it; it replaces this run's ``incumbent_error``, so the
        soundness invariant (the bound travels with the circuit it bounds,
        Theorem 4.2) holds across machines exactly as it does across
        workers.  Behind workers restart from the adopted state at the next
        ``step_round()`` exchange; the anchor worker 0 is never injected, so
        adoption cannot perturb the portfolio >= solo guarantee.

        Returns True when adopted.  Callers enforce the *replica*-level
        anchor rule (replica 0 of a case never adopts) — this method only
        guards cost and bound consistency.
        """
        if self._closed:
            return False
        cost = self.cost(circuit)
        if cost >= self.incumbent_cost:
            return False
        self.incumbent_circuit = circuit
        self.incumbent_cost = cost
        self.incumbent_error = float(error)
        #: an adopted incumbent came from no local worker
        self.best_worker = None
        if self.config.search.track_history:
            self.history.append(
                _history_point(self.elapsed, self.total_iterations, cost, circuit)
            )
        return True

    def result(self) -> PortfolioResult:
        """Merge the current state into a :class:`PortfolioResult` (anytime)."""
        config = self.config
        base = config.search
        worker_results = [engine.snapshot() for engine in self.engines]
        perf = None
        if base.collect_perf:
            perf = PerfReport.merged(
                [result.perf for result in worker_results if result.perf is not None],
                elapsed=self.elapsed,
            )
            for note in self._cache_notes:
                if note not in perf.notes:
                    perf.notes.append(note)
        return PortfolioResult(
            best_circuit=self.incumbent_circuit,
            best_cost=self.incumbent_cost,
            initial_cost=self.initial_cost,
            error_bound=self.incumbent_error,
            best_worker=self.best_worker,
            num_workers=config.num_workers,
            backend=self._executor.backend,
            rounds=self.rounds,
            total_iterations=self.total_iterations,
            elapsed=self.elapsed,
            history=list(self.history),
            incumbent_trace=list(self.incumbent_trace),
            worker_results=worker_results,
            worker_labels=self.labels,
            worker_seeds=self.seeds,
            shared_cache_backend=(
                self.shared_cache.backend.kind if self.shared_cache is not None else None
            ),
            perf=perf,
        )

    def _teardown_cache(self) -> None:
        if self.shared_cache is None:
            return
        if self._owns_cache:
            # The run owns the backend: tear a spawned cache server down
            # with the run it served.
            self.shared_cache.close()
        else:
            try:
                self.shared_cache.flush()
            except Exception:
                # A dead adopted backend must not mask the run's real
                # outcome (or error) with a teardown-time failure.
                pass

    def close(self) -> None:
        """Release the executor and the cache this run owns (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._executor.__exit__(None, None, None)
        finally:
            self._teardown_cache()


@dataclass(frozen=True, kw_only=True)
class PortfolioSettings:
    """The search knobs of one portfolio run, declared once for every surface.

    :func:`build_portfolio` turns a record into a :class:`PortfolioOptimizer`;
    serve's :class:`~repro.serve.JobSpec` and distrib's
    :class:`~repro.distrib.DistributedJob` extend it with their own fields.
    ``gate_set`` and ``objective`` take a name or an instance.  The fields
    map onto Algorithm 1 (``epsilon_budget``, ``time_limit`` — the
    wall-clock budget of the whole portfolio — the per-worker
    ``max_iterations``, ``resynthesis_probability``), the transformation set
    (``include_rewrites``, ``include_resynthesis``,
    ``synthesis_time_budget``) and the portfolio (``num_workers``,
    ``exchange_interval``, ``backend``).  ``docs/architecture.md`` tabulates
    each surface's defaults.
    """

    gate_set: "str | GateSet" = "clifford+t"
    objective: "str | CostFunction" = "ftqc"
    epsilon_budget: float = 1e-6
    time_limit: float = 10.0
    max_iterations: "int | None" = None
    num_workers: int = 4
    exchange_interval: int = 250
    backend: str = "serial"
    include_rewrites: bool = True
    include_resynthesis: bool = True
    synthesis_time_budget: float = 2.0
    resynthesis_probability: float = 0.015

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be positive when set")


def settings_from_args(args) -> dict:
    """The :class:`PortfolioSettings` fields present on a parsed argparse namespace.

    A flag declared with ``default=argparse.SUPPRESS`` is absent unless
    given, so the record's own default applies: each default lives in one
    place.  Spread the result into the record's constructor.
    """
    names = {spec.name for spec in fields(PortfolioSettings)}
    return {name: value for name, value in vars(args).items() if name in names}


def build_portfolio(
    settings: PortfolioSettings,
    *,
    seed: "int | None" = None,
    cache: "str | ResynthesisCache | None" = None,
) -> PortfolioOptimizer:
    """Turn a :class:`PortfolioSettings` into a :class:`PortfolioOptimizer`.

    The one build path: :func:`optimize_circuit_portfolio`, the distrib host
    agents (:func:`repro.distrib.worker.run_case`) and serve's resident jobs
    all build here, so the same settings and ``seed`` yield the same
    optimizer whichever layer runs it.  ``cache`` is the
    ``share_resynthesis_cache`` of :class:`PortfolioOptimizer`: a backend
    spec or a live cache instance.  Each worker gets a private resynthesis
    cache unless a shared one is attached.
    """
    # Imported here: instantiate pulls in gatesets/noise, which the leaner
    # portfolio/baseline imports of this module do not need.
    from repro.core.instantiate import default_objective, default_transformations

    objective = settings.objective
    if isinstance(objective, str):
        objective = default_objective(settings.gate_set, objective)
    if cache == "local:" and settings.backend in ("processes", "auto"):
        import warnings

        warnings.warn(
            "share_resynthesis_cache='local:' only shares across in-process workers; "
            f"the {settings.backend!r} backend pickles per-worker copies, so cross-worker "
            "reuse will not happen there (use share_resynthesis_cache='server:' "
            "for cross-process sharing)",
            RuntimeWarning,
            stacklevel=2,
        )
    transformations = default_transformations(
        settings.gate_set,
        epsilon=settings.epsilon_budget,
        include_rewrites=settings.include_rewrites,
        include_resynthesis=settings.include_resynthesis,
        synthesis_time_budget=settings.synthesis_time_budget,
        rng=seed,
    )
    config = PortfolioConfig(
        search=GuoqConfig(
            epsilon_budget=settings.epsilon_budget,
            time_limit=settings.time_limit,
            max_iterations=settings.max_iterations,
            seed=seed,
            resynthesis_probability=settings.resynthesis_probability,
        ),
        num_workers=settings.num_workers,
        exchange_interval=settings.exchange_interval,
        backend=settings.backend,
    )
    return PortfolioOptimizer(
        transformations, cost=objective, config=config, share_resynthesis_cache=cache
    )


def optimize_circuit_portfolio(
    circuit: Circuit,
    gate_set,
    objective="nisq",
    epsilon_budget: float = 1e-6,
    time_limit: float = 10.0,
    max_iterations: "int | None" = None,
    seed: "int | None" = None,
    num_workers: int = 4,
    exchange_interval: int = 250,
    backend: str = "auto",
    include_rewrites: bool = True,
    include_resynthesis: bool = True,
    synthesis_time_budget: float = 2.0,
    share_resynthesis_cache: "str | None" = None,
) -> PortfolioResult:
    """Portfolio analogue of :func:`repro.core.instantiate.optimize_circuit`.

    ``share_resynthesis_cache`` selects how resynthesis outcomes are reused
    across workers: ``"local:"`` shares one in-process cache across
    serial/thread workers only, while ``"server:"`` stands up a cross-process
    store (:mod:`repro.perf.shared_cache`) that the ``processes`` backend's
    workers all read and write — a block synthesized by one worker is a
    cache hit for every sibling.  A
    ``"tcp://host:port"`` URL attaches the same protocol to a network
    cache server shared *across machines* (see ``docs/distributed.md``).
    Off by default because
    sharing makes worker outcomes depend on sibling progress, which weakens
    the portfolio's backend-blind determinism guarantee.  With in-process
    sharing (``"local:"``) on the ``processes``/``auto`` backends,
    each pickled worker forks a private copy instead (a warning is emitted
    and the downgrade lands in ``result.perf.notes``).
    """
    settings = PortfolioSettings(
        gate_set=gate_set,
        objective=objective,
        epsilon_budget=epsilon_budget,
        time_limit=time_limit,
        max_iterations=max_iterations,
        num_workers=num_workers,
        exchange_interval=exchange_interval,
        backend=backend,
        include_rewrites=include_rewrites,
        include_resynthesis=include_resynthesis,
        synthesis_time_budget=synthesis_time_budget,
    )
    return build_portfolio(settings, seed=seed, cache=share_resynthesis_cache).optimize(circuit)


class PortfolioBaseline(BaselineOptimizer):
    """The portfolio packaged behind the Table 3 baseline interface."""

    def __init__(
        self,
        gate_set,
        cost: "CostFunction | None" = None,
        num_workers: int = 4,
        time_limit: float = 10.0,
        epsilon: float = 1e-6,
        seed: "int | None" = None,
        backend: str = "auto",
    ) -> None:
        from repro.core.instantiate import default_transformations

        self.transformations = default_transformations(gate_set, epsilon=epsilon, rng=seed)
        self.cost = cost
        self.config = PortfolioConfig(
            search=GuoqConfig(
                epsilon_budget=epsilon, time_limit=time_limit, seed=seed
            ),
            num_workers=num_workers,
            backend=backend,
        )
        self.name = f"guoq_portfolio[n={num_workers}]"

    def optimize(self, circuit: Circuit) -> Circuit:
        optimizer = PortfolioOptimizer(
            self.transformations, cost=self.cost, config=self.config
        )
        return optimizer.optimize(circuit).best_circuit
