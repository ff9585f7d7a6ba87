"""Gate CI on benchmark wall-clock: compare a BENCH json against a baseline.

The CI perf job runs the ``-m smoke`` benchmarks with
``pytest-benchmark --benchmark-json BENCH_<run>.json`` and then calls this
script, which fails the job when any benchmark's mean time regressed more
than ``--threshold`` (default 25%) against the committed baseline.  The
baseline is a trimmed snapshot of a known-good run; refresh it with::

    python -m pytest benchmarks -m smoke --benchmark-json BENCH_new.json
    python benchmarks/check_regression.py BENCH_new.json --update-baseline

``--require-cache-hits`` additionally asserts that at least one benchmark
reported a positive ``cache_hit_rate`` in its ``extra_info`` — the
acceptance signal that the resynthesis cache is live on the hot path.
``--require-remote-hits`` does the same for ``cache_remote_hits``, the
signal that *cross-process* cache sharing (the ``server:`` spec) is live on
the processes portfolio — and, in the ``distrib-smoke`` job, that
*cross-host* sharing through ``TcpCacheBackend`` is live.
``--require-zero-dropped`` inverts the direction: a healthy-fleet job must
report ``cache_dropped_requests`` and the value must be 0 everywhere — the
counter a degraded tcp backend increments when it silently sheds traffic
after a mid-run server death.

The smoke benches' own wall-clock comparisons are gated here too, always:
any benchmark whose ``extra_info`` records both sides of a
:data:`SMOKE_COMPARISONS` pair must satisfy it (cached beats uncached and
memoized beats plain iterations/s, the shared-cache portfolio stays within
1.35x of private caches' wall-clock, batched resynthesis beats the scalar
loop).  They live in this gate rather than in the test suite so a test's
pass never depends on machine load.

Benchmarks with no baseline entry (and baseline rows without a ``mean``)
are warned about and skipped, never a hard failure: new benches — e.g. the
distributed suite's — can land before their baseline entry exists.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline_smoke.json"
DEFAULT_THRESHOLD = 0.25
#: absolute slack (seconds) a mean must exceed the baseline by, *in addition*
#: to the relative threshold, before the gate fails — sub-100ms benchmarks
#: would otherwise false-fail on ordinary timer/runner noise
DEFAULT_ABS_SLACK = 0.1

#: smoke-bench comparisons over ``extra_info`` keys, checked whenever a
#: benchmark records both: ``(left, relation, factor, right)`` holds when
#: ``left <relation> factor * right``
SMOKE_COMPARISONS = (
    ("iterations_per_sec_cached", ">", 1.0, "iterations_per_sec_uncached"),
    ("iterations_per_sec_memoized", ">", 1.0, "iterations_per_sec_plain"),
    ("wall_shared", "<=", 1.35, "wall_private"),
    ("wall_batched", "<", 1.0, "wall_scalar"),
)
_RELATIONS = {">": operator.gt, "<": operator.lt, "<=": operator.le}


def load_bench_means(path: Path) -> "tuple[dict[str, float], dict[str, dict]]":
    """Extract {benchmark name: mean seconds} and extra_info from a BENCH json.

    Entries without a ``stats.mean`` (malformed or hand-built) are skipped
    with a warning rather than failing the whole gate; their ``extra_info``
    is still collected for the cache-liveness checks.
    """
    data = json.loads(path.read_text())
    means: dict[str, float] = {}
    extras: dict[str, dict] = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name", bench.get("fullname", "?"))
        extras[name] = bench.get("extra_info", {}) or {}
        mean = (bench.get("stats") or {}).get("mean")
        if mean is None:
            print(f"WARN     {name}: no stats.mean in {path.name}; skipping its timing")
            continue
        means[name] = float(mean)
    return means, extras


def load_baseline(path: Path) -> dict[str, float]:
    """Read {name: mean} from a committed baseline, skipping malformed rows.

    A baseline entry without a ``mean`` is warned about and treated as
    absent, which downgrades its benchmark to the not-yet-gated NEW path —
    the same warn-and-skip behaviour as a name missing entirely, so new
    (e.g. distributed) benches can land before their baseline entry exists.
    """
    data = json.loads(path.read_text())
    baseline: dict[str, float] = {}
    for name, entry in data.get("benchmarks", {}).items():
        mean = entry.get("mean") if isinstance(entry, dict) else None
        if mean is None:
            print(f"WARN     {name}: baseline entry in {path.name} has no mean; not gated")
            continue
        baseline[name] = float(mean)
    return baseline


def write_baseline(bench_path: Path, baseline_path: Path) -> None:
    means, _ = load_bench_means(bench_path)
    baseline = {
        "note": (
            "Committed smoke-benchmark baseline for benchmarks/check_regression.py; "
            "refresh with --update-baseline (see docs/benchmarks.md)"
        ),
        "source": bench_path.name,
        "benchmarks": {name: {"mean": mean} for name, mean in sorted(means.items())},
    }
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"baseline written to {baseline_path} ({len(means)} benchmarks)")


def check(
    bench_path: Path,
    baseline_path: Path,
    threshold: float,
    require_cache_hits: bool,
    require_remote_hits: bool = False,
    require_zero_dropped: bool = False,
    abs_slack: float = DEFAULT_ABS_SLACK,
) -> int:
    means, extras = load_bench_means(bench_path)
    if not means:
        print(f"ERROR: {bench_path} contains no benchmarks", file=sys.stderr)
        return 2
    baseline = load_baseline(baseline_path)

    failures: list[str] = []
    for name, mean in sorted(means.items()):
        base = baseline.get(name)
        if base is None:
            # Warn-and-skip, never KeyError: benches may land a PR before
            # their baseline entry (refresh with --update-baseline).
            print(f"NEW      {name}: {mean:.3f}s (no baseline entry; warned, not gated)")
            continue
        ratio = mean / base if base > 0 else float("inf")
        # Both gates must trip: the relative threshold (the policy) and an
        # absolute slack (the noise floor), so a 9ms benchmark jittering to
        # 13ms does not block CI while a 1.2s one regressing to 1.6s does.
        regressed = ratio > 1.0 + threshold and (mean - base) > abs_slack
        status = "OK" if not regressed else "REGRESSED"
        print(f"{status:10}{name}: {mean:.3f}s vs baseline {base:.3f}s ({ratio:.2f}x)")
        if regressed:
            failures.append(
                f"{name} regressed {ratio:.2f}x (mean {mean:.3f}s vs baseline {base:.3f}s, "
                f"threshold {1.0 + threshold:.2f}x + {abs_slack:.2f}s slack)"
            )
    for name in sorted(set(baseline) - set(means)):
        print(f"MISSING  {name}: in baseline but not in this run (not gated)")

    for name, info in sorted(extras.items()):
        for left, relation, factor, right in SMOKE_COMPARISONS:
            if left not in info or right not in info:
                continue
            bound = factor * info[right]
            label = f"{left} {relation} {factor:g} x {right}"
            held = _RELATIONS[relation](info[left], bound)
            status = "OK" if held else "SLOWER"
            print(f"{status:10}{name}: {label} ({info[left]:.4g} vs {bound:.4g})")
            if not held:
                failures.append(f"{name}: expected {label}, got {info[left]:.4g} vs {bound:.4g}")

    if require_cache_hits:
        hit_rates = {
            name: info["cache_hit_rate"]
            for name, info in extras.items()
            if "cache_hit_rate" in info
        }
        if not any(rate > 0 for rate in hit_rates.values()):
            failures.append(
                "no benchmark reported a positive cache_hit_rate in extra_info "
                f"(saw: {hit_rates or 'none'})"
            )
        else:
            best = max(hit_rates.values())
            print(f"CACHE    best reported cache_hit_rate: {best:.2f}")

    if require_remote_hits:
        remote_hits = {
            name: info["cache_remote_hits"]
            for name, info in extras.items()
            if "cache_remote_hits" in info
        }
        if not any(hits > 0 for hits in remote_hits.values()):
            failures.append(
                "no benchmark reported positive cache_remote_hits in extra_info — "
                f"cross-process cache sharing is not live (saw: {remote_hits or 'none'})"
            )
        else:
            best = max(remote_hits.values())
            print(f"SHARED   best reported cache_remote_hits: {best}")

    if require_zero_dropped:
        dropped = {
            name: info["cache_dropped_requests"]
            for name, info in extras.items()
            if "cache_dropped_requests" in info
        }
        if not dropped:
            # An absent counter would make the gate vacuous — a healthy-fleet
            # job that stops emitting it must fail loudly, not pass silently.
            failures.append(
                "no benchmark reported cache_dropped_requests in extra_info — "
                "the fleet-health gate has nothing to check"
            )
        elif any(count > 0 for count in dropped.values()):
            shedding = {name: count for name, count in dropped.items() if count > 0}
            failures.append(
                "cache traffic was silently dropped in a healthy-fleet job: "
                f"{shedding} (a cache server died or was unreachable mid-run)"
            )
        else:
            print(f"HEALTHY  cache_dropped_requests == 0 across {len(dropped)} benchmark(s)")

    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf regression gate passed")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", type=Path, help="BENCH_*.json produced by pytest-benchmark")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional slowdown vs baseline (0.25 = fail above 1.25x)",
    )
    parser.add_argument(
        "--abs-slack",
        type=float,
        default=DEFAULT_ABS_SLACK,
        help="absolute seconds above baseline also required to fail (noise floor)",
    )
    parser.add_argument(
        "--require-cache-hits",
        action="store_true",
        help="fail unless some benchmark reports extra_info cache_hit_rate > 0",
    )
    parser.add_argument(
        "--require-remote-hits",
        action="store_true",
        help=(
            "fail unless some benchmark reports extra_info cache_remote_hits > 0 "
            "(the cross-process shared-cache liveness signal)"
        ),
    )
    parser.add_argument(
        "--require-zero-dropped",
        action="store_true",
        help=(
            "fail unless extra_info cache_dropped_requests is reported and 0 "
            "everywhere (healthy-fleet check: no cache traffic silently shed)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this BENCH json instead of checking",
    )
    args = parser.parse_args(argv)

    if args.update_baseline:
        write_baseline(args.bench_json, args.baseline)
        return 0
    return check(
        args.bench_json,
        args.baseline,
        args.threshold,
        args.require_cache_hits,
        require_remote_hits=args.require_remote_hits,
        require_zero_dropped=args.require_zero_dropped,
        abs_slack=args.abs_slack,
    )


if __name__ == "__main__":
    raise SystemExit(main())
