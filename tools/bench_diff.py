"""Compare perfbench records of a parent and a change, and write one BENCH_*.json.

Usage:

    python3 tools/bench_diff.py PARENT_RESULTS CHANGE_RESULTS --out BENCH_6.json

PARENT_RESULTS and CHANGE_RESULTS are the `perfbench/results/` directories
of two checkouts, each holding the untraced records
`<workload>-seed<n>-trace0.json` that `python3 perfbench/run.py --workload W
--seed n --seconds S --trace 0` wrote there.  A record present on both
sides under the same workload and seed is one pair.  Run the two sides of a
pair back to back with the same seconds, and alternate which side goes
first, so that a slow phase of the host lands on both.

For every workload the output holds each side's environment (Python, numpy,
nproc, thread pins, commit), every pair's end-to-end metrics with the side that ran
first (the older record), the operations failed and attempted on each side
in total, and per metric: each side's median, the parent's quartiles, the
change/parent ratio of the medians, the pairs the change won, whether the
change stays within the bound BENCHMARK.json sets, whether the metric is
unresolved (the parent's interquartile range is wider than the bound,
relative to its median, and not every change run beats every parent run),
and whether it clears the gain rule (at least 10 pairs, of which the change
wins 9 in 10, and a median moved by more than the parent's interquartile
range).  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")


def load_records(results: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> record, with the file's modification time added."""
    records = {}
    for path in sorted(results.glob("*-trace0.json")):
        match = RECORD.fullmatch(path.name)
        if match is None:
            continue
        record = json.loads(path.read_text())
        record["mtime"] = path.stat().st_mtime
        records[match["workload"], int(match["seed"])] = record
    return records


def better(metric: dict, change: float, parent: float) -> bool:
    return change < parent if metric["better"] == "lower" else change > parent


def summarize(metric: dict, pairs: list[dict]) -> dict:
    name = metric["name"]
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        q1 = q3 = parent[0]
    wins = sum(better(metric, c, p) for p, c in zip(parent, change))
    separated = all(better(metric, c, p) for p in parent for c in change)
    if metric["better"] == "lower":
        within = c_med <= p_med * (1 + metric["bound"])
    else:
        within = c_med >= p_med * (1 - metric["bound"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent_median": p_med,
        "change_median": c_med,
        "parent_quartiles": [q1, q3],
        "ratio": c_med / p_med if p_med else None,
        "change_won": wins,
        "within_bound": within,
        "unresolved": q3 - q1 > metric["bound"] * abs(p_med) and not separated,
        "clears_gain_rule": len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(c_med - p_med) > q3 - q1,
    }


def compare(parent: dict, change: dict, benchmark: dict) -> dict:
    metrics = benchmark["end_to_end"]
    out = {"command": benchmark["command"], "run_seconds": None, "workloads": {}}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        pairs = []
        for seed in seeds:
            p, c = parent[workload, seed], change[workload, seed]
            if p["seconds"] != c["seconds"]:
                raise ValueError(f"{workload} seed {seed}: {p['seconds']} s vs {c['seconds']} s")
            out["run_seconds"] = p["seconds"]
            pairs.append({
                "seed": seed,
                "first": "parent" if p["mtime"] < c["mtime"] else "change",
                "parent": {m["name"]: p["metrics"][m["name"]]["value"] for m in metrics},
                "change": {m["name"]: c["metrics"][m["name"]]["value"] for m in metrics},
                "attempted": {"parent": p["attempted"], "change": c["attempted"]},
                "failed": {"parent": p["failed"], "change": c["failed"]},
            })
        first = parent[workload, seeds[0]], change[workload, seeds[0]]
        out["workloads"][workload] = {
            "environment": {"parent": first[0]["environment"], "change": first[1]["environment"]},
            "operations": {
                side: {key: sum(p[key][side] for p in pairs) for key in ("failed", "attempted")}
                for side in ("parent", "change")
            },
            "pairs": pairs,
            "metrics": {m["name"]: summarize(m, pairs) for m in metrics},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="perfbench/results of the parent checkout")
    parser.add_argument("change", type=Path, help="perfbench/results of the change checkout")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    try:
        report = compare(load_records(args.parent), load_records(args.change), benchmark)
    except ValueError as exc:
        print(f"runs of unequal length: {exc}", file=sys.stderr)
        return 2
    if not report["workloads"]:
        print("no workload and seed has a record on both sides", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        ops = entry["operations"]
        print(
            f"{workload}: {len(entry['pairs'])} pairs; failed/attempted operations:"
            f" parent {ops['parent']['failed']}/{ops['parent']['attempted']},"
            f" change {ops['change']['failed']}/{ops['change']['attempted']}"
        )
        for name, m in entry["metrics"].items():
            print(
                f"  {name:12s} {m['parent_median']:.6g} -> {m['change_median']:.6g} {m['unit']}"
                f"  (x{m['ratio']:.3f}, change won {m['change_won']}/{len(entry['pairs'])},"
                f" within bound: {m['within_bound']}, unresolved: {m['unresolved']},"
                f" gain rule: {m['clears_gain_rule']})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
