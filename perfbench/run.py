"""Run one spspec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fourier --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; spspec is imported from ./src.
Each workload is a closed loop with one client in one process: the next
operation starts when the previous one returns.  A run does whole sweeps
(one pass over the workload's fixed schedule) until --seconds have passed.
Every operation's output is checked; a raise or a failed check counts the
operation as failed.  Times are reported in reference seconds (see
calibrate.py): wall seconds scaled by the machine's speed around each
timed interval.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 sweeps alternate untraced and traced, and it holds
the per-layer metrics from the traced ones.  A raw record of every
operation, the environment and (traced) every span goes to
perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# Pinned before numpy loads, which happens only inside the timed set-up.
PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(PINS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import calibrate  # noqa: E402  (these two use the stdlib only)
from spans import NullTracer, SETUP, Tracer  # noqa: E402

SETUP_PROBES = 4  # extra set-ups in forked children; setup_s is the median with the run's own
WORKLOADS = ("fourier", "hermite_cold", "hermite_warm", "count")

END_TO_END = {
    "sweep_s.p50": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "trace_overhead")):
        return "1"
    if name.endswith("bytes"):
        return "B"
    return "count"


def layer_values(v, setup) -> dict[str, float]:
    """Per-layer metrics of one traced sweep `v`; set-up layers come from `setup`.

    Each view has self_s, busy and calls per span name and counts per counter.
    """
    c = v.counts
    direct, iterative = "evaluators.direct_sparse_eval", "evaluators.iterative_eval"
    lookups = v.calls["coeffs.coefficient"]
    hits, misses = c["coeffs.coefficient.hits"], c["coeffs.coefficient.misses"]
    eval_busy = v.busy[direct] + v.busy[iterative]
    tuples = c["indices.enumerate_sparse.tuples"]
    return {
        f"{direct}.s": v.self_s[direct],
        f"{direct}.calls": v.calls[direct],
        f"{iterative}.s": v.self_s[iterative],
        f"{iterative}.calls": v.calls[iterative],
        "evaluators.terms": c["evaluators.terms"],
        "evaluators.output_entries": c["evaluators.output_entries"],
        "evaluators.terms_per_s": c["evaluators.terms"] / eval_busy if eval_busy else 0.0,
        "evaluators.dense_oracle_fourier.s": setup.self_s["evaluators.dense_oracle_fourier"],
        "evaluators.dense_oracle_hermite.s": v.self_s["evaluators.dense_oracle_hermite"],
        "evaluators.error_report.s": v.self_s["evaluators.error_report"],
        "evaluators.error_report.keys": c["evaluators.error_report.keys"],
        "coeffs.coefficient.s": v.self_s["coeffs.coefficient"],
        "coeffs.coefficient.calls": lookups,
        "coeffs.coefficient.hits": hits,
        "coeffs.coefficient.parity_zeros": c["coeffs.coefficient.parity_zeros"],
        "coeffs.coefficient.misses": misses,
        "coeffs.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "coeffs.nonzero_ratio": c["coeffs.coefficient.nonzero"] / lookups if lookups else 0.0,
        "coeffs.build_cache.s": setup.self_s["coeffs.build_cache"],
        "coeffs.save_cache.s": setup.self_s["coeffs.save_cache"],
        "coeffs.load_cache.s": v.self_s["coeffs.load_cache"],
        "coeffs.cache_bytes": c["coeffs.cache_bytes"],
        "coeffs.cache_entries": c["coeffs.cache_entries"],
        "quadrature.gauss_hermite_rule.s": v.self_s["quadrature.gauss_hermite_rule"],
        "quadrature.gauss_hermite_rule.calls": v.calls["quadrature.gauss_hermite_rule"],
        "quadrature.rules_built": c["quadrature.rules_built"],
        "quadrature.hermite_batch.s": v.self_s["quadrature.hermite_batch"],
        "quadrature.hermite_batch.calls": v.calls["quadrature.hermite_batch"],
        "quadrature.hermite_batch.values": c["quadrature.hermite_batch.values"],
        "indices.count_sparse.max.s": v.self_s["indices.count_sparse.max"],
        "indices.count_sparse.prod_d1.s": v.self_s["indices.count_sparse.prod_d1"],
        "indices.count_sparse.prod_d2.s": v.self_s["indices.count_sparse.prod_d2"],
        "indices.count_sparse.calls": sum(
            v.calls[f"indices.count_sparse.{family}"] for family in ("max", "prod_d1", "prod_d2")
        ),
        "indices.enumerate_sparse.s": v.self_s["indices.enumerate_sparse"],
        "indices.enumerate_sparse.tuples": tuples,
        "indices.enumerate_sparse.tuples_per_s": (
            tuples / v.busy["indices.enumerate_sparse"] if tuples else 0.0
        ),
        "spectral.power_law_vector.s": setup.self_s["spectral.power_law_vector"],
        "spectral.read_vector.s": v.self_s["spectral.read_vector"],
        "spectral.write_vector.s": v.self_s["spectral.write_vector"],
        "spectral.bytes": c["spectral.bytes"],
    }


class SweepView:
    def __init__(self, tracer: Tracer, sweep):
        self.self_s, self.busy, self.calls = tracer.totals(sweep)
        self.counts = defaultdict(int, tracer.counts.get(sweep, {}))


def in_child(fn, *args):
    """fn(*args) in a forked child; returns its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            payload = {"result": fn(*args)}
        except BaseException:
            payload = {"error": traceback.format_exc()}
        try:
            with os.fdopen(w, "w") as fh:
                json.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"child {pid} ended with status {status} and sent no result")
    payload = json.loads(data)
    if "error" in payload:
        raise RuntimeError(f"child {pid} failed:\n{payload['error']}")
    return payload["result"]


def timed_setup(name: str, seed: int, workdir: Path, tr):
    """One complete set-up: the workload and its time in reference seconds."""
    before = calibrate.sample()
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir, tr)
    wall = time.perf_counter() - t0
    return wl, calibrate.scaled(wall, before, calibrate.sample())


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    """A set-up in a child of a parent that has not imported numpy yet."""
    return timed_setup(name, seed, workdir, NullTracer())[1]


def run_sweep(wl, k: int, sweep_seed: int, tr, corrupt_first: bool) -> list[dict]:
    """One pass over the workload's schedule; returns a record per operation."""
    import instrument
    import workloads

    tr.begin_sweep(k)
    ops = wl.ops(tr)
    order = list(range(len(ops)))
    random.Random(sweep_seed).shuffle(order)
    order.sort(key=lambda i: ops[i].stage)  # stable: shuffled within a stage
    records = []
    misses0 = instrument.rule_cache_misses() if tr.on else 0
    before = calibrate.sample()
    with instrument.traced(tr) if tr.on else contextlib.nullcontext():
        for pos, i in enumerate(order):
            op = ops[i]
            t0 = time.perf_counter()
            try:
                out = tr.call(f"op:{op.label}", op.run)
                reason = None
            except Exception as exc:
                reason = f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            after = calibrate.sample()
            if reason is None:
                if corrupt_first and k == 0 and pos == 0:
                    out = workloads.corrupt(out)
                try:
                    reason = op.check(out)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            out = None
            # Free this operation's reference cycles now, so that neither the
            # next operation's time nor the peak memory depends on when the
            # collector happens to run.
            gc.collect()
            records.append(
                {
                    "sweep": k,
                    "label": op.label,
                    "s": calibrate.scaled(wall, before, after),
                    "wall_s": wall,
                    "failed": reason,
                }
            )
            before = after
    if tr.on:
        built = instrument.rule_cache_misses() - misses0
        seen = tr.counts[k]["quadrature.rules_built"]
        if built != seen:
            raise RuntimeError(
                f"gauss_hermite_rule built {built} rules but the wrappers saw {seen}: "
                "a caller bypasses the names the traced run wraps"
            )
    return records


def cold_sweep(wl, k: int, sweep_seed: int, traced: bool, corrupt_first: bool) -> dict:
    """A sweep in a forked child whose rule cache and chi tables are empty."""
    t_start = time.perf_counter()
    from spspec import quadrature

    if quadrature.gauss_hermite_rule.cache_info().currsize:
        raise RuntimeError("the parent built quadrature rules; the sweep would not be cold")
    tr = Tracer() if traced else NullTracer()
    ops = run_sweep(wl, k, sweep_seed, tr, corrupt_first)
    return {
        "ops": ops,
        "spans": tr.spans if traced else [],
        "counts": tr.counts if traced else {},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "t_start": t_start,
        "t_end": time.perf_counter(),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {name: os.environ.get(name) for name in PINS},
        "commit": git_commit(),
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile by statistics.quantiles' inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name: str, seed: int, seconds: float, trace: bool, corrupt_first: bool = False) -> dict:
    workdir = HERE / "work" / f"{name}-{os.getpid()}"
    try:
        return _run(name, seed, seconds, trace, corrupt_first, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, corrupt_first, workdir) -> dict:
    setup_samples = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe_dir = workdir / f"probe{i}"
            probe_dir.mkdir(parents=True)
            setup_samples.append(in_child(probe_setup, name, seed, probe_dir))
            shutil.rmtree(probe_dir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else NullTracer()
    wl, setup_s = timed_setup(name, seed, workdir, tracer)
    setup_samples.append(setup_s)
    import spspec

    if not Path(spspec.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"spspec was imported from {spspec.__file__}, not from {SRC}")
    wl.prepare_checks()

    rng = random.Random(seed)
    ops, sweeps, child_rss = [], [], []
    start = time.perf_counter()
    k = 0
    while k < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and k % 2 == 1
        tr = tracer if traced else NullTracer()
        sweep_seed = rng.getrandbits(64)
        if wl.fresh_process:
            t_fork = time.perf_counter()
            res = in_child(cold_sweep, wl, k, sweep_seed, traced, corrupt_first)
            fork_s = (res["t_start"] - t_fork) + (time.perf_counter() - res["t_end"])
            recs = res["ops"]
            child_rss.append(res["maxrss_kb"])
            if traced:
                tracer.merge(res["spans"], res["counts"])
        else:
            fork_s = 0.0
            recs = run_sweep(wl, k, sweep_seed, tr, corrupt_first)
        ops += recs
        sweeps.append({"id": k, "traced": traced, "s": sum(r["s"] for r in recs), "fork_s": fork_s})
        k += 1

    failed = sum(r["failed"] is not None for r in ops)
    sweep_s = [s["s"] for s in sweeps if not s["traced"]]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "setup_s_samples": setup_samples,
        "sweeps": sweeps,
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
    }
    if not trace:
        by_sweep = defaultdict(list)
        for r in ops:
            by_sweep[r["sweep"]].append(r["s"])
        rss_kb = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "sweep_s.p50": statistics.median(sweep_s),
            "op_s.p50": statistics.median(statistics.median_low(v) for v in by_sweep.values()),
            "op_s.p90": statistics.median(quantile(v, 90) for v in by_sweep.values()),
            "ops_per_s": len(ops) / sum(sweep_s),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": rss_kb / 1024.0,
            "ok_ratio": 1.0 - failed / len(ops),
        }
        record["metrics"] = {m: {"value": values[m], "unit": END_TO_END[m]} for m in END_TO_END}
        return record

    setup_view = SweepView(tracer, SETUP)
    traced_sweeps = [s for s in sweeps if s["traced"]]
    per_sweep = [layer_values(SweepView(tracer, s["id"]), setup_view) for s in traced_sweeps]
    values = {m: statistics.median(row[m] for row in per_sweep) for m in per_sweep[0]}
    values["harness.fork_s"] = statistics.median(s["fork_s"] for s in sweeps)
    values["harness.trace_overhead"] = statistics.median(s["s"] for s in traced_sweeps) / statistics.median(sweep_s)
    record["layers_per_sweep"] = per_sweep
    record["spans"] = tracer.spans
    record["metrics"] = {m: {"value": v, "unit": layer_unit(m)} for m, v in values.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spspec" / "__init__.py").is_file():
        print(f"no spspec sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(
        f"{args.workload} seed={args.seed}: {len(record['sweeps'])} sweeps, {record['attempted']} operations "
        f"({record['failed']} failed), {len(record['setup_s_samples'])} set-ups; raw record {path.relative_to(ROOT)}"
    )
    for op in record["ops"]:
        if op["failed"]:
            print(f"FAILED sweep {op['sweep']} {op['label']}: {op['failed']}")
    for metric, entry in record["metrics"].items():
        print(f"{metric:42s} {entry['value']:.6g} {entry['unit']}")
    summary = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
