"""Self-test of the benchmark harness (not of spspec).

    python3 perfbench/selftest.py

For every workload, one sweep:
* with the harness corrupting the first operation's output before its
  check, exactly that operation must be counted as failed;
* traced, nothing may fail and the layers the workload must not reach must
  read zero (the "no change on" column of perfbench/README.md);
and the metric names and units the harness prints must be the ones
BENCHMARK.json declares.  Each case runs in a forked child, so the cold
workload's parent never touches quadrature.
"""

from __future__ import annotations

import json
import sys

import run

QUADRATURE_AND_LOOKUPS = (
    "quadrature.gauss_hermite_rule.calls",
    "quadrature.rules_built",
    "quadrature.hermite_batch.calls",
    "quadrature.hermite_batch.values",
    "coeffs.coefficient.calls",
    "coeffs.coefficient.misses",
)
EVALUATORS = (
    "evaluators.direct_sparse_eval.calls",
    "evaluators.iterative_eval.calls",
    "evaluators.terms",
    "evaluators.error_report.keys",
)
INDICES = ("indices.count_sparse.calls", "indices.enumerate_sparse.tuples")
MUST_BE_ZERO = {
    "fourier": QUADRATURE_AND_LOOKUPS + INDICES,
    "count": QUADRATURE_AND_LOOKUPS + EVALUATORS,
    "hermite_warm": ("coeffs.coefficient.misses", "quadrature.rules_built") + INDICES,
    "hermite_cold": INDICES + ("coeffs.load_cache.s",),
}
SEED = 7


def corrupted(name: str) -> tuple[list, str]:
    record = run.run(name, SEED, 0, trace=False, corrupt_first=True)
    return [(op["sweep"], op["label"]) for op in record["ops"] if op["failed"]], record["ops"][0]["label"]


def traced(name: str) -> dict:
    record = run.run(name, SEED, 0, trace=True)
    return {"failed": record["failed"], "metrics": record["metrics"]}


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if end_to_end != run.END_TO_END:
        problems.append(f"end_to_end in BENCHMARK.json {end_to_end} != harness {run.END_TO_END}")
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name in run.WORKLOADS:
        failed, first = run.in_child(corrupted, name)
        if failed != [[0, first]]:
            problems.append(f"{name}: corrupting {first!r} failed {failed}, expected exactly that operation")
        result = run.in_child(traced, name)
        if result["failed"]:
            problems.append(f"{name}: {result['failed']} operations failed in the traced sweep")
        printed = {m: e["unit"] for m, e in result["metrics"].items()}
        if printed != per_layer:
            problems.append(f"{name}: per-layer metrics printed {printed} != BENCHMARK.json {per_layer}")
        for metric in MUST_BE_ZERO[name]:
            if result["metrics"][metric]["value"] != 0:
                problems.append(f"{name}: {metric} = {result['metrics'][metric]['value']}, expected 0")
        print(f"{name}: corruption caught, traced sweep clean", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
