"""Per-layer spans for the traced benchmark run.

The wrappers are installed from the benchmark's own files around the public
functions each layer exposes; the package under test carries no tracing
code.  A span records its name, start, end, the span that caused it (via a
per-thread stack) and the case or job it belongs to.  Spans stay in memory
and are written out as JSON lines when the run ends.

A layer's *self time* is its spans' duration minus the part covered by their
child spans.  Time a client-side ``perf.tcp.*`` span spends blocked on the
cache-server process shows up as that span's self time, so it is labelled
as waiting in the report.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

#: layers whose self time is time spent waiting on another process
WAITING_LAYERS = ("perf.tcp.get_many", "perf.tcp.put_many", "perf.tcp.synth_batch")


class Tracer:
    """Span recorder; :meth:`install` wraps the package's layer boundaries."""

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []  # (id, parent, name, thread, case, start, end)
        self.counts: Counter = Counter()
        #: case or job id given to root spans opened on the load thread
        self.case = None
        #: maps a running PortfolioRun to its job id (set by the serve workload)
        self.job_of_run = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: "list[tuple[object, str, object]]" = []
        self.origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, case) -> tuple:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, self.case)
        span_id = next(self._ids)
        stack.append((span_id, inherited if case is None else case))
        return span_id, parent, stack[-1][1]

    def _close(self, span_id, parent, name, case, start) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            (span_id, parent, name, threading.current_thread().name, case, start, end)
        )

    @contextlib.contextmanager
    def span(self, name: str, case=None):
        """Record one span around the ``with`` body (the benchmark's own roots)."""
        span_id, parent, span_case = self._open(case)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, span_case, start)

    def wrap(self, owner, attr: str, name: str, ok=None, case_of=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``ok(result)`` counts successful outcomes as ``<name>.ok``;
        ``case_of(first_arg)`` names the case for the span and its children.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            case = case_of(args[0]) if case_of is not None else None
            span_id, parent, span_case = tracer._open(case)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, span_case, start)
            if ok is not None and ok(result):
                tracer.counts[name + ".ok"] += 1
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of a function too hot for a span each."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def install(self, objective) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import repro.circuits.circuit as circuit_mod
        import repro.core.transformations as transformations_mod
        import repro.gatesets.decompose as decompose_mod
        import repro.suite.suite as suite_mod
        import repro.synthesis.annealing as annealing_mod
        import repro.synthesis.numerical as numerical_mod
        import repro.synthesis.resynth as resynth_mod
        import repro.utils.linalg as linalg_mod
        from repro.circuits.circuit import Circuit
        from repro.core.guoq import GuoqRun
        from repro.parallel.portfolio import PortfolioRun
        from repro.perf.cache import ResynthesisCache
        from repro.perf.shared_cache import TcpCacheBackend
        from repro.rewrite.rules import RewriteRule
        from repro.serve.client import JobClient
        from repro.serve.scheduler import JobScheduler
        from repro.synthesis.annealing import CliffordTSynthesizer
        from repro.synthesis.batch import BatchResynthesizer
        from repro.synthesis.numerical import TemplateSynthesizer
        from repro.synthesis.resynth import Resynthesizer

        self.wrap(GuoqRun, "step", "core.step")
        self.wrap(type(objective), "__call__", "core.cost")
        for rule in _subclasses(RewriteRule):
            if "apply_pass" in rule.__dict__:
                self.wrap(rule, "apply_pass", "rewrite.apply_pass", ok=lambda r: r[1] > 0)
        self.wrap(Circuit, "unitary", "circuits.unitary")
        self.wrap(transformations_mod, "random_block", "circuits.random_block")
        self.wrap(transformations_mod, "replace_block", "circuits.replace_block")
        self.wrap(TemplateSynthesizer, "synthesize", "synthesis.numerical", ok=_found)
        self.wrap(CliffordTSynthesizer, "synthesize", "synthesis.annealing", ok=_found)
        self.wrap(Resynthesizer, "resynthesize_cached", "synthesis.resynth")
        self.wrap(BatchResynthesizer, "resynthesize_batch", "synthesis.batch")
        for module in (linalg_mod, numerical_mod, annealing_mod, circuit_mod):
            self.count(module, "apply_gate_to_matrix", "linalg.apply_gate.calls")
        self.wrap(ResynthesisCache, "get", "perf.cache.get", ok=lambda r: r[0])
        self.wrap(ResynthesisCache, "put", "perf.cache.put")
        for op in ("get_many", "put_many", "synth_batch"):
            self.wrap(TcpCacheBackend, op, f"perf.tcp.{op}")
        self.wrap(PortfolioRun, "step_round", "parallel.step_round", case_of=self._job_of)
        self.wrap(JobScheduler, "tick", "serve.tick")
        self.wrap(JobClient, "_request", "serve.client.request")
        for module in (decompose_mod, suite_mod, resynth_mod):
            self.wrap(module, "decompose_to_gate_set", "gatesets.decompose")

    def _job_of(self, run):
        return self.job_of_run(run) if self.job_of_run is not None else None

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def _self_times(self) -> "dict[int, float]":
        """Each span's duration minus the durations of its direct children."""
        own = {span_id: end - start for span_id, _, _, _, _, start, end in self.spans}
        for _, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layers(self) -> "dict[str, dict]":
        """Per layer: calls and busy time of outermost spans, and self time.

        A span nested in a span of the same layer (a recursive call) counts
        toward self time but not again toward calls or busy time.
        """
        by_id = {span[0]: span for span in self.spans}
        own = self._self_times()
        table: "dict[str, dict]" = {}
        for span_id, parent, name, _, _, start, end in self.spans:
            row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["self_s"] += own[span_id]
            while parent is not None and by_id[parent][2] != name:
                parent = by_id[parent][1]
            if parent is None:
                row["calls"] += 1
                row["busy_s"] += end - start
        return table

    def self_seconds_by_thread(self) -> "dict[str, float]":
        own = self._self_times()
        totals: "dict[str, float]" = defaultdict(float)
        for span_id, _, _, thread, _, _, _ in self.spans:
            totals[thread] += own[span_id]
        return dict(totals)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, thread, case, start, end in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "thread": thread,
                    "case": case,
                    "start": start - self.origin,
                    "end": end - self.origin,
                }
                handle.write(json.dumps(record) + "\n")


def _found(result) -> bool:
    return result is not None


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found
