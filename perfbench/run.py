"""Benchmark of the GUOQ optimizer: time-to-quality and iterations/s.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload nisq --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``nisq`` (numerical
template resynthesis), ``ftqc`` (Clifford+T annealing resynthesis) and
``serve`` (three tenants on one job server sharing a ``tcp://`` cache).

A run sets up the workload three times (set-up time is the median), then
repeats the workload's fixed pass while the time budget allows and reports
the median over passes.  Every optimized circuit is checked by the
independent simulator in ``check.py``.  With ``--trace 1`` the first pass
runs untraced and the second with spans around every layer; the per-layer
numbers come from the traced pass and its spans are written to
``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
#: set-up (and the imports, in fresh interpreters) is timed this many times
SETUP_REPEATS = 3
#: a run stops starting passes once this share of --seconds would be exceeded
OVERRUN = 1.1
#: cases still unfinished this long after start count as failed, so that a
#: run always ends well inside three minutes
RUN_LIMIT_S = 150.0
#: layers recorded as spans; each reports .calls, .busy_s and .self_s
SPAN_LAYERS = (
    "core.step",
    "core.cost",
    "rewrite.apply_pass",
    "circuits.unitary",
    "circuits.random_block",
    "circuits.replace_block",
    "synthesis.numerical",
    "synthesis.annealing",
    "synthesis.resynth",
    "synthesis.batch",
    "perf.cache.get",
    "perf.cache.put",
    "perf.tcp.get_many",
    "perf.tcp.put_many",
    "perf.tcp.synth_batch",
    "parallel.step_round",
    "serve.tick",
    "serve.client.request",
    "gatesets.decompose",
)
#: derived per-layer metrics printed under the traced run's layer table
SUMMARY_LAYER_METRICS = (
    "trace.wall_s",
    "trace.overhead_s",
    "trace.coverage",
    "synthesis.busy_share",
    "perf.tcp.synth_batch.share",
    "serve.sched_overhead_s",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: no package source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    started = time.perf_counter()
    import workloads  # imports numpy, scipy and the package

    first_import_s = time.perf_counter() - started
    from check import self_test

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    problems = self_test()
    if problems:
        print(f"perfbench: output check self-test failed: {problems}", file=sys.stderr)
        return 1

    setups = [workload.setup(args.seed) for _ in range(SETUP_REPEATS)]
    deadline = STARTED + RUN_LIMIT_S
    budget_start = time.perf_counter()
    passes = [workload.run_pass(args.seed, deadline)]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(workload.objective())
        try:
            with tracer.span("bench.setup", case="setup"):
                workload.setup(args.seed)
            passes.append(workload.run_pass(args.seed, deadline, tracer=tracer))
        finally:
            tracer.uninstall()
        traced_wall = time.perf_counter() - tracer.origin
    else:
        while True:
            used = time.perf_counter() - budget_start
            if used + passes[-1].wall_s > OVERRUN * args.seconds:
                break
            passes.append(workload.run_pass(args.seed, deadline))

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    deterministic = args.workload == "serve" or _same_fingerprints(passes, tag)
    attempted = sum(len(p.rows) for p in passes)
    failed = sum(1 for p in passes for row in p.rows if row.error) + sum(
        p.failed_requests for p in passes
    )
    environment = {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "passes": len(passes),
        "setup_repeats": SETUP_REPEATS,
    }
    peak_rss_mb = _peak_rss_mb()  # before the import probes start more children
    setup_s = _import_seconds(first_import_s) + statistics.median(setups)
    end_to_end = _end_to_end(passes, setup_s, peak_rss_mb)
    _report(args, passes, end_to_end, attempted, failed, environment)
    if tracer is not None:
        untraced = statistics.median(setups) + passes[0].wall_s
        metrics = _per_layer(tracer, passes[-1], traced_wall, untraced)
        tracer.write_jsonl(OUT / f"trace-{tag}.jsonl")
        _report_layers(tracer, metrics)
    else:
        metrics = end_to_end
    unmeasured = [name for name, metric in metrics.items() if not math.isfinite(metric["value"])]
    for name in unmeasured:
        metrics[name]["value"] = 0.0  # no case succeeded, so there was nothing to measure
    record = {"environment": environment, "metrics": metrics}
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": bool(deterministic and failed == 0 and not unmeasured),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def _import_seconds(first: float) -> float:
    """Median import time over this process and fresh interpreters."""
    probe = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; started = time.perf_counter(); "
        "import workloads; print(time.perf_counter() - started)"
    )
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, "-c", probe, str(ROOT / "src"), str(HERE)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


# -- end-to-end metrics ---------------------------------------------------------


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return statistics.geometric_mean(values)


def _by_case(passes) -> "dict[str, list]":
    """Successful rows of every pass, grouped by case name."""
    rows: "dict[str, list]" = {}
    for p in passes:
        for row in p.rows:
            if not row.error:
                rows.setdefault(row.name, []).append(row)
    return rows


def _case_median(rows, field: str) -> "float | None":
    values = [getattr(row, field) for row in rows if getattr(row, field) is not None]
    return statistics.median(values) if values else None


def _end_to_end_values(passes) -> dict:
    """Per-case figures are medians over passes; pass figures are medians of passes."""
    cases = _by_case(passes)
    walls = [_case_median(rows, "wall_s") for rows in cases.values()]
    rates, costs, twoqs = [], [], []
    for p in passes:
        rows = [row for row in p.rows if not row.error]
        if not rows:
            continue
        rates.append(sum(row.iterations for row in rows) / p.wall_s)
        costs.append(_geomean(row.best_cost / row.initial_cost for row in rows))
        twoqs.append(
            _geomean(
                row.optimized.two_qubit_count() / row.original.two_qubit_count()
                for row in rows
                if row.original.two_qubit_count()
            )
        )
    nan = float("nan")
    return {
        "iters_per_s": statistics.median(rates) if rates else nan,
        "case_s_p50": statistics.median(walls) if walls else nan,
        "case_s_max": max(walls) if walls else nan,
        "time_to_best_s": sum(_case_median(rows, "time_to_best_s") for rows in cases.values()),
        "cost_ratio": statistics.median(costs) if costs else nan,
        "twoq_ratio": statistics.median(twoqs) if twoqs else nan,
    }


UNITS = {
    "setup_s": "s",
    "iters_per_s": "1/s",
    "case_s_p50": "s",
    "case_s_max": "s",
    "time_to_best_s": "s",
    "cost_ratio": "ratio",
    "twoq_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **_end_to_end_values(passes)}
    return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}


# -- fingerprints -------------------------------------------------------------------


def _source_digest() -> str:
    """Digest of the package and benchmark sources: fingerprints are per code version."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _same_fingerprints(passes, tag: str) -> bool:
    """Every pass of this run, and any earlier run of the same code and seed, agree."""
    prints = [[row.fingerprint() for row in p.rows] for p in passes]
    agree = all(current == prints[0] for current in prints[1:])
    if not agree:
        print(f"perfbench: FINGERPRINTS DIFFER between passes: {prints}", file=sys.stderr)
    stored = OUT / f"fingerprints-{tag}-{_source_digest()}.json"
    if stored.exists():
        earlier = json.loads(stored.read_text())
        if earlier != prints[0]:
            print(
                f"perfbench: FINGERPRINTS DIFFER from an earlier run with the same seed: "
                f"{earlier} vs {prints[0]}",
                file=sys.stderr,
            )
            agree = False
    else:
        stored.write_text(json.dumps(prints[0]))
    return agree


# -- per-layer metrics ---------------------------------------------------------------


def _per_layer(tracer, traced_pass, traced_wall: float, untraced_wall: float) -> dict:
    layers = tracer.layers()
    counts = tracer.counts
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    for name in SPAN_LAYERS:
        row = layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        put(f"{name}.calls", row["calls"], "count")
        put(f"{name}.busy_s", row["busy_s"], "s")
        put(f"{name}.self_s", row["self_s"], "s")

    def calls(name):
        return metrics[f"{name}.calls"]["value"]

    def busy(name):
        return metrics[f"{name}.busy_s"]["value"]

    rows = [row for row in traced_pass.rows if not row.error]
    accepted = sum(row.accepted for row in rows)
    rejected = sum(row.rejected for row in rows)
    put("core.accept_ratio", ratio(accepted, accepted + rejected), "ratio")
    fired = counts["rewrite.apply_pass.ok"]
    put("rewrite.fire_ratio", ratio(fired, calls("rewrite.apply_pass")), "ratio")
    for kind in ("numerical", "annealing"):
        name = f"synthesis.{kind}"
        put(f"{name}.success_ratio", ratio(counts[name + ".ok"], calls(name)), "ratio")
    put("linalg.apply_gate.calls", counts["linalg.apply_gate.calls"], "count")
    hits = counts["perf.cache.get.ok"]
    put("perf.cache.hit_ratio", ratio(hits, calls("perf.cache.get")), "ratio")
    put("perf.cache.remote_hits", sum(row.remote_hits for row in rows), "count")
    put("perf.cache.dropped", sum(row.dropped for row in rows), "count")
    put("serve.sched_overhead_s", busy("serve.tick") - busy("parallel.step_round"), "s")
    firsts = [row.first_incumbent_s for row in rows if row.first_incumbent_s is not None]
    put("client.first_incumbent_s", statistics.median(firsts) if firsts else 0.0, "s")
    load_thread = tracer.self_seconds_by_thread().get("MainThread", 0.0)
    synthesis = max(busy("synthesis.batch"), busy("synthesis.resynth"))
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.coverage", ratio(load_thread, traced_wall), "ratio")
    put("synthesis.busy_share", ratio(synthesis, traced_wall), "ratio")
    put("perf.tcp.synth_batch.share", ratio(busy("perf.tcp.synth_batch"), traced_wall), "ratio")
    return metrics


# -- report ----------------------------------------------------------------------------


def _ratio_text(new: float, old: float) -> str:
    return f"{new / old:.2f}" if old else "-"


def _report(args, passes, end_to_end, attempted, failed, environment) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"nproc {environment['nproc']}  "
        + "  ".join(f"{k}={v}" for k, v in environment["threads"].items())
    )
    print(f"passes {len(passes)} (median reported), set-up repeated {SETUP_REPEATS}x")
    print()
    for row in passes[0].rows:
        original, optimized = row.original, row.optimized
        print(f"Circuit name: {row.name}")
        if optimized is None or row.error:
            print(f"FAILED: {row.error}")
            print()
            continue
        print(
            f"Size - original: {original.size()}, optimized: {optimized.size()} "
            f"({_ratio_text(optimized.size(), original.size())})"
        )
        print(
            f"Depth - original: {original.depth()}, optimized: {optimized.depth()} "
            f"({_ratio_text(optimized.depth(), original.depth())})"
        )
        print(
            f"Number of non-local gates - original: {original.two_qubit_count()}, "
            f"optimized: {optimized.two_qubit_count()}, "
            f"ratio: {_ratio_text(optimized.two_qubit_count(), original.two_qubit_count())}"
        )
        print(
            f"Cost - initial: {row.initial_cost:.6g}, best: {row.best_cost:.6g}; "
            f"iterations {row.iterations}, wall {row.wall_s:.3f}s, "
            f"time to best {row.time_to_best_s:.3f}s"
        )
        print()
    good = [row for row in passes[0].rows if not row.error]
    for label, measure in (("size", "size"), ("depth", "depth"), ("2q", "two_qubit_count")):
        mean = _geomean(
            getattr(row.optimized, measure)() / getattr(row.original, measure)()
            for row in good
            if getattr(row.original, measure)()
        )
        print(f"geomean {label} ratio (optimized / original): {mean:.4f}")
    print()
    samples = sum(len(p.rows) for p in passes)
    print(f"end-to-end ({len(passes[0].rows)} cases per pass, {samples} case samples):")
    for name, metric in end_to_end.items():
        print(f"  {name:18s} {metric['value']:.6g} {metric['unit']}")
    rate = failed / attempted if attempted else 0.0
    print(f"  {'fail_rate':18s} {rate:.4g} ratio ({failed} of {attempted})")


def _report_layers(tracer, metrics) -> None:
    from spans import WAITING_LAYERS

    print()
    print("per-layer self time (traced pass):")
    for name, row in sorted(tracer.layers().items(), key=lambda item: -item[1]["self_s"]):
        label = " (waiting on the cache server)" if name in WAITING_LAYERS else ""
        print(
            f"  {name:24s} calls {row['calls']:8d}  busy {row['busy_s']:9.4f}s  "
            f"self {row['self_s']:9.4f}s{label}"
        )
    for thread, seconds in sorted(tracer.self_seconds_by_thread().items()):
        print(f"  self time on thread {thread}: {seconds:.4f}s")
    for name in SUMMARY_LAYER_METRICS:
        print(f"  {name:24s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")


if __name__ == "__main__":
    sys.exit(main())
