"""CI perf-gate behaviour: warn-and-skip semantics of check_regression.py.

The gate must stay permissive about *coverage* (benches missing from the
baseline, malformed rows) while staying strict about *regressions* and the
cache-liveness signals — otherwise new benchmarks (like the distributed
smoke run's) could never land before their baseline entry.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_regression", check_regression)
_spec.loader.exec_module(check_regression)


def write_bench(path, entries):
    benchmarks = []
    for name, mean, extra in entries:
        record = {"name": name, "extra_info": extra or {}}
        if mean is not None:
            record["stats"] = {"mean": mean}
        benchmarks.append(record)
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return path


def write_baseline(path, means):
    path.write_text(
        json.dumps({"benchmarks": {name: {"mean": mean} for name, mean in means.items()}})
    )
    return path


class TestWarnAndSkip:
    def test_bench_missing_from_baseline_is_not_gated(self, tmp_path, capsys):
        bench = write_bench(tmp_path / "bench.json", [("distrib_new_case", 3.0, None)])
        baseline = write_baseline(tmp_path / "base.json", {"other_bench": 1.0})
        rc = check_regression.check(bench, baseline, 0.25, require_cache_hits=False)
        out = capsys.readouterr().out
        assert rc == 0
        assert "NEW" in out and "distrib_new_case" in out and "not gated" in out

    def test_malformed_baseline_row_warns_instead_of_keyerror(self, tmp_path, capsys):
        bench = write_bench(tmp_path / "bench.json", [("smoke_case", 1.0, None)])
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"benchmarks": {"smoke_case": {}}}))
        rc = check_regression.check(bench, baseline, 0.25, require_cache_hits=False)
        out = capsys.readouterr().out
        assert rc == 0
        assert "WARN" in out and "no mean" in out

    def test_bench_entry_without_stats_mean_is_skipped(self, tmp_path, capsys):
        bench = write_bench(
            tmp_path / "bench.json",
            [("aggregate_only", None, {"cache_remote_hits": 4}), ("timed", 1.0, None)],
        )
        baseline = write_baseline(tmp_path / "base.json", {"timed": 1.0})
        rc = check_regression.check(
            bench, baseline, 0.25, require_cache_hits=False, require_remote_hits=True
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "WARN" in out and "aggregate_only" in out
        # its extra_info still feeds the remote-hits gate
        assert "cache_remote_hits" in out

    def test_regression_still_fails(self, tmp_path, capsys):
        bench = write_bench(tmp_path / "bench.json", [("slow_case", 2.0, None)])
        baseline = write_baseline(tmp_path / "base.json", {"slow_case": 1.0})
        rc = check_regression.check(bench, baseline, 0.25, require_cache_hits=False)
        capsys.readouterr()
        assert rc == 1

    def test_missing_remote_hits_still_fails(self, tmp_path, capsys):
        bench = write_bench(tmp_path / "bench.json", [("quiet_case", 1.0, {})])
        baseline = write_baseline(tmp_path / "base.json", {})
        rc = check_regression.check(
            bench, baseline, 0.25, require_cache_hits=False, require_remote_hits=True
        )
        capsys.readouterr()
        assert rc == 1


class TestSmokeComparisons:
    """The smoke benches' wall-clock comparisons are gated from extra_info."""

    def _check(self, tmp_path, extra):
        bench = write_bench(tmp_path / "bench.json", [("smoke_case", 1.0, extra)])
        baseline = write_baseline(tmp_path / "base.json", {"smoke_case": 1.0})
        return check_regression.check(bench, baseline, 0.25, require_cache_hits=False)

    def test_recorded_wins_pass(self, tmp_path, capsys):
        extra = {
            "iterations_per_sec_cached": 300.0,
            "iterations_per_sec_uncached": 100.0,
            "wall_shared": 1.3,
            "wall_private": 1.0,  # within the 1.35x slack
        }
        assert self._check(tmp_path, extra) == 0
        assert "wall_shared <= 1.35 x wall_private" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra",
        [
            {"iterations_per_sec_cached": 90.0, "iterations_per_sec_uncached": 100.0},
            {"iterations_per_sec_memoized": 100.0, "iterations_per_sec_plain": 100.0},
            {"wall_shared": 1.4, "wall_private": 1.0},
            {"wall_batched": 2.0, "wall_scalar": 1.0},
        ],
    )
    def test_lost_comparison_fails(self, tmp_path, capsys, extra):
        assert self._check(tmp_path, extra) == 1
        assert "SLOWER" in capsys.readouterr().out

    def test_benches_without_the_keys_are_not_compared(self, tmp_path, capsys):
        assert self._check(tmp_path, {"wall_shared": 9.0}) == 0
        assert "SLOWER" not in capsys.readouterr().out
