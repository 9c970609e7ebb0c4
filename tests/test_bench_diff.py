"""tools/bench_diff.py on synthetic pairs of parent and change runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_diff.py"
_spec = importlib.util.spec_from_file_location("bench_diff", TOOL)
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)

SWEEP = {"name": "sweep_s.p50", "unit": "s", "better": "lower", "bound": 0.2}
RATE = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}


def pairs_of(metric, parent, change):
    return [{"parent": {metric["name"]: p}, "change": {metric["name"]: c}}
            for p, c in zip(parent, change)]


def test_a_clear_gain_clears_the_gain_rule():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.50 + 0.01 * k for k in range(10)]
    m = bench_diff.summarize(SWEEP, pairs_of(SWEEP, parent, change))
    assert m["change_won"] == 10
    assert m["within_bound"] and not m["unresolved"] and m["clears_gain_rule"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 1.6, 0.7, 1.4, 0.8, 1.5, 0.9, 1.3]  # quartiles ~0.4 apart around 1.1
    change = [1.1, 1.0, 1.2, 0.9, 1.3, 1.0, 1.1, 1.2]
    m = bench_diff.summarize(SWEEP, pairs_of(SWEEP, parent, change))
    q1, q3 = m["parent_quartiles"]
    assert q3 - q1 > SWEEP["bound"] * m["parent_median"]
    assert m["within_bound"] and m["unresolved"] and not m["clears_gain_rule"]


def test_a_wide_spread_resolves_when_every_change_run_is_better():
    parent = [1.0, 1.6, 0.7, 1.4, 0.8, 1.5, 0.9, 1.3]
    change = [0.3, 0.4, 0.35, 0.45, 0.5, 0.6, 0.55, 0.65]
    m = bench_diff.summarize(SWEEP, pairs_of(SWEEP, parent, change))
    assert not m["unresolved"]
    assert not m["clears_gain_rule"]  # fewer than 10 pairs


def test_a_higher_is_better_metric_outside_its_bound():
    parent = [100.0, 101.0, 99.0, 100.5]
    change = [70.0, 72.0, 71.0, 69.0]
    m = bench_diff.summarize(RATE, pairs_of(RATE, parent, change))
    assert m["change_won"] == 0
    assert not m["within_bound"] and not m["unresolved"]
    assert m["ratio"] < 1 - RATE["bound"]


def test_compare_totals_the_operations_of_each_side():
    def record(value, failed, attempted, mtime):
        return {"seconds": 20, "mtime": mtime, "environment": {}, "failed": failed,
                "attempted": attempted, "metrics": {"sweep_s.p50": {"value": value}}}

    parent = {("fourier", 1): record(1.0, 0, 50, 1), ("fourier", 2): record(1.1, 1, 40, 4)}
    change = {("fourier", 1): record(0.9, 2, 60, 2), ("fourier", 2): record(1.0, 0, 45, 3)}
    report = bench_diff.compare(parent, change, {"command": ["x"], "end_to_end": [SWEEP]})
    entry = report["workloads"]["fourier"]
    assert entry["operations"] == {"parent": {"failed": 1, "attempted": 90},
                                   "change": {"failed": 2, "attempted": 105}}
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change"]
    assert entry["metrics"]["sweep_s.p50"]["change_won"] == 2
