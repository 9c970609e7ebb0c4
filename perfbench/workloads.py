"""The four workloads: their set-up, their fixed sweep schedules and checks.

A workload's constructor is its set-up, the part a user of spspec pays for
before the first result: imports (this module pulls in numpy and spspec),
input generation, dense Fourier references, cache build and save.
`prepare_checks` then builds the harness's own references; it runs after
the set-up clock stops, just as every per-operation check runs outside the
operation's timing.

`ops(tr)` returns one sweep: the fixed list of operation shapes.  The seed
chooses input values and the order of operations within a stage, never the
shapes, so every seed does the same work.  All spspec calls go through
`tr.call`, which with tracing off calls straight through.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import instrument
import oracles
from spans import NullTracer
from spspec.coeffs import FourierSymbol, HermiteCache, build_cache, load_cache, save_cache
from spspec.evaluators import (
    EvalRequest,
    EvalResult,
    dense_oracle_fourier,
    dense_oracle_hermite,
    direct_sparse_eval,
    error_report,
    iterative_eval,
)
from spspec.indices import SizeFunction, SparseSetSpec, count_sparse, enumerate_sparse, integers, naturals
from spspec.spectral import Basis, SpectralVector, power_law_vector, read_vector, write_vector

FOURIER_TOL = 1e-12  # times the product of the inputs' and the symbol's l1 norms
HERMITE_TOL = 1e-9  # acceptance criterion 6
ERROR_RTOL = 1e-9  # error_report against a numpy recomputation of the same l1 distance
COUNT_TABLE = Path(__file__).with_name("count_table.json")


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # the reason it failed, or None
    stage: int = 0  # operations run stage by stage; the seed shuffles within a stage


def _flat(u) -> dict:
    """1-d vector keyed by the plain coordinate."""
    return {k[0]: v for k, v in u.items()}


def _gap_reason(what: str, gap: float, tol: float) -> str | None:
    return None if gap <= tol else f"{what} differs from the reference by {gap:.3e} > {tol:.1e}"


def _error_reason(err: float, approx, reference: dict) -> str | None:
    want = oracles.l1_gap(_flat(approx), reference)
    if math.isclose(err, want, rel_tol=ERROR_RTOL, abs_tol=1e-300):
        return None
    return f"error_report gave {err!r}, the l1 distance is {want!r}"


def _eval(tr, method: str, provider, inputs: tuple, spec: SparseSetSpec, domain=None) -> EvalResult:
    if method == "direct":
        res = tr.call(
            "evaluators.direct_sparse_eval",
            direct_sparse_eval,
            EvalRequest(provider, inputs, spec, domain),
        )
    else:
        res = tr.call(
            "evaluators.iterative_eval", iterative_eval, provider, list(inputs), spec.level, spec.alpha
        )
    if tr.on:
        tr.count("evaluators.terms", res.terms)
        tr.count("evaluators.output_entries", len(res.vector))
    return res


def _error(tr, approx: SpectralVector, reference: SpectralVector) -> float:
    err = tr.call("evaluators.error_report", error_report, approx, reference)
    if tr.on:
        tr.count("evaluators.error_report.keys", len(approx.keys() | reference.keys()))
    return err


def _seeded_vector(tr, sigma: float, cutoff: int, basis: Basis, factors) -> SpectralVector:
    mags = tr.call("spectral.power_law_vector", power_law_vector, sigma, cutoff, basis)
    return SpectralVector(basis, {k: v * f for (k, v), f in zip(mags.items(), factors)})


class Fourier:
    """The budgeted tuple walk (`direct_sparse_eval` scatter), nine shapes.

    The alpha = 1 shapes carry the output gate that discards most visited
    tuples; p = 2 at N = 1024 is where numpy handles the last slot; p = 4
    is the deepest recursion; the 55-entry symbol 1/(2 - cos x) exercises
    the loop over symbol entries.  Each operation is one evaluation plus
    `error_report` against the dense reference for its inputs.
    """

    fresh_process = False
    CUTOFF = 2048
    # (method, p, N, alpha, symbol)
    SHAPES = (
        ("direct", 3, 64, 0, "unit"),
        ("direct", 3, 64, 1, "unit"),
        ("direct", 3, 256, 0, "unit"),
        ("direct", 3, 256, 1, "unit"),
        ("direct", 2, 1024, 0, "unit"),
        ("direct", 4, 64, 1, "unit"),
        ("iterative", 4, 512, 1, "unit"),
        ("direct", 3, 16, 0, "inv2mcos"),
        ("direct", 2, 128, 1, "inv2mcos"),
    )

    def __init__(self, seed: int, workdir: Path, tr):
        rng = np.random.default_rng(seed)
        basis = Basis.fourier()
        n = 2 * self.CUTOFF + 1
        self.inputs = tuple(
            _seeded_vector(tr, 3.0, self.CUTOFF, basis, np.exp(2j * np.pi * rng.random(n)))
            for _ in range(4)
        )
        self.symbols = {"unit": FourierSymbol.unit(), "inv2mcos": FourierSymbol.inverse_two_minus_cos()}
        self.dense = {}
        for _, p, _, _, sym in self.SHAPES:
            if (p, sym) not in self.dense:
                symbol = self.symbols[sym] if sym != "unit" else None
                self.dense[p, sym] = tr.call(
                    "evaluators.dense_oracle_fourier", dense_oracle_fourier, self.inputs[:p], symbol=symbol
                )

    def prepare_checks(self) -> None:
        self.dense_flat = {key: _flat(v) for key, v in self.dense.items()}
        flat = [_flat(u) for u in self.inputs]
        self.expect = {}
        for shape in self.SHAPES:
            method, p, n, alpha, sym = shape
            b = _flat(self.symbols[sym].table)
            if method == "direct":
                ref = oracles.fourier_budget_sum(flat[:p], n, alpha, b)
                if alpha == 0:  # every walked tuple is admitted, once per symbol entry
                    terms = count_sparse(self._spec(p, n, alpha)) * len(b)
                else:
                    terms = oracles.count_terms(flat[:p], n, alpha, b)
            else:
                acc = oracles.fourier_fold(flat[:p], n, alpha, b)
                ref = acc[-1]
                terms = sum(
                    oracles.count_terms([acc[i], flat[i + 1]], n, alpha, b if i == 0 else {0: 1.0})
                    for i in range(p - 1)
                )
            tol = FOURIER_TOL * math.prod(oracles.l1_norm(u) for u in flat[:p]) * oracles.l1_norm(b)
            self.expect[shape] = (ref, terms, tol)

    @staticmethod
    def _spec(p: int, n: int, alpha: int) -> SparseSetSpec:
        return SparseSetSpec(p, n, alpha, SizeFunction.MAX, integers(1))

    def ops(self, tr) -> list[Op]:
        return [self._op(tr, shape) for shape in self.SHAPES]

    def _op(self, tr, shape) -> Op:
        method, p, n, alpha, sym = shape
        spec = self._spec(p, n, alpha)
        dense = self.dense[p, sym]

        def run():
            res = _eval(tr, method, self.symbols[sym], self.inputs[:p], spec)
            return res, _error(tr, res.vector, dense)

        def check(out):
            res, err = out
            ref, terms, tol = self.expect[shape]
            if res.terms != terms:
                return f"terms {res.terms} != {terms}"
            return _gap_reason("value", oracles.max_gap(_flat(res.vector), ref), tol) or _error_reason(
                err, res.vector, self.dense_flat[p, sym]
            )

        return Op(f"{method} p={p} N={n} a={alpha} {sym}", run, check)


class HermiteCold:
    """Coefficient supply with empty caches: criterion 7's experiment.

    Every sweep runs in a child forked from a parent that has imported
    spspec but never called into `quadrature` or `coeffs`, so the rule
    cache and the chi tables start empty, as in one
    `spspec converge --basis hermite` invocation.  The operations run in
    that command's order, N ascending: whichever evaluation comes first
    pays for most rule builds, so a shuffled order would make each
    operation's latency depend on the order instead of the code.  The seed
    chooses the input signs only.
    """

    fresh_process = True
    P, CUTOFF, REF_NODES, REF_JMAX = 3, 64, 500, 192
    NS = (4, 8, 16, 32, 64)

    def __init__(self, seed: int, workdir: Path, tr):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=self.CUTOFF + 1)
        self.u = _seeded_vector(tr, 10.0, self.CUTOFF, Basis.hermite(), signs)

    def _spec(self, n: int) -> SparseSetSpec:
        return SparseSetSpec(self.P, n, 1, SizeFunction.MAX, naturals(1))

    def prepare_checks(self) -> None:
        u = {k: v.real for k, v in _flat(self.u).items()}
        self.ref_dense = oracles.hermite_transform(u, self.P, self.REF_JMAX)
        self.ref_direct = {n: oracles.hermite_budget_sum(u, self.P, n) for n in self.NS}
        # the inputs cover every index a budget N <= CUTOFF can reach
        self.terms = {n: count_sparse(self._spec(n), include_ell=True) for n in self.NS}

    def ops(self, tr) -> list[Op]:
        cache = instrument.cache_class(tr)(self.P)
        sweep = {}

        def oracle():
            sweep["dense"] = tr.call(
                "evaluators.dense_oracle_hermite",
                dense_oracle_hermite,
                (self.u,) * self.P,
                self.REF_NODES,
                self.REF_JMAX,
                strict=True,
            )
            return sweep["dense"]

        def oracle_check(out):
            return _gap_reason("dense oracle", oracles.max_gap(_flat(out), self.ref_dense), HERMITE_TOL)

        ops = [Op(f"dense_oracle_hermite nodes={self.REF_NODES} jmax={self.REF_JMAX}", oracle, oracle_check)]
        for stage, n in enumerate(self.NS, start=1):
            ops.append(self._direct(tr, n, cache, sweep, stage))
        return ops

    def _direct(self, tr, n: int, cache: HermiteCache, sweep: dict, stage: int) -> Op:
        spec = self._spec(n)

        def run():
            res = _eval(tr, "direct", cache, (self.u,) * self.P, spec)
            return res, _error(tr, res.vector, sweep["dense"])

        def check(out):
            res, err = out
            if res.terms != self.terms[n]:
                return f"terms {res.terms} != {self.terms[n]}"
            gap = oracles.max_gap(_flat(res.vector), self.ref_direct[n])
            return _gap_reason("value", gap, HERMITE_TOL) or _error_reason(err, res.vector, _flat(sweep["dense"]))

        return Op(f"direct p={self.P} N={n} a=1 cold", run, check, stage)


class HermiteWarm:
    """The `coeffs` layer for reads only, as `spspec eval --cache` traffic.

    Every lookup hits a loaded cache, so no quadrature runs: this isolates
    the dictionary lookup path and the text cache format.
    """

    fresh_process = False
    CACHES = {2: 64, 3: 32}  # arity -> jmax
    CUTOFF = 64
    # (method, p, N, alpha, output cap, cache arity)
    SHAPES = (
        ("direct", 2, 32, 1, None, 2),
        ("direct", 2, 64, 1, None, 2),
        ("direct", 2, 16, 0, 32, 2),
        ("direct", 2, 32, 0, 64, 2),
        ("direct", 3, 16, 1, None, 3),
        ("direct", 3, 32, 1, None, 3),
        ("iterative", 3, 32, 1, None, 2),
        ("iterative", 3, 64, 1, None, 2),
    )

    def __init__(self, seed: int, workdir: Path, tr):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.built = {}
        for arity, jmax in self.CACHES.items():
            self.built[arity] = tr.call("coeffs.build_cache", build_cache, arity, jmax)
            tr.call("coeffs.save_cache", save_cache, self.built[arity], self._cache_path(arity))
        self.loaded = {}
        for shape in self.SHAPES:
            signs = rng.choice([-1.0, 1.0], size=self.CUTOFF + 1)
            u = _seeded_vector(tr, 10.0, self.CUTOFF, Basis.hermite(), signs)
            tr.call("spectral.write_vector", write_vector, u, self._path(shape, "in"))

    def _cache_path(self, arity: int) -> Path:
        return self.workdir / f"arity{arity}.cache"

    def _path(self, shape, kind: str) -> Path:
        return self.workdir / f"{self.SHAPES.index(shape)}.{kind}.vec"

    def _evaluate(self, tr, shape, cache) -> EvalResult:
        method, p, n, alpha, cap, _ = shape
        u = tr.call("spectral.read_vector", read_vector, self._path(shape, "in"), Basis.hermite())
        spec = SparseSetSpec(p, n, alpha, SizeFunction.MAX, naturals(1))
        domain = tuple((ell,) for ell in range(cap + 1)) if cap is not None else None
        return _eval(tr, method, cache, (u,) * p, spec, domain)

    def prepare_checks(self) -> None:
        self.ref = {}
        for shape in self.SHAPES:
            self.ref[shape] = self._evaluate(NullTracer(), shape, HermiteCache(shape[-1]))

    def ops(self, tr) -> list[Op]:
        return [self._load(tr, arity) for arity in self.CACHES] + [self._eval_op(tr, s) for s in self.SHAPES]

    def _load(self, tr, arity: int) -> Op:
        path = self._cache_path(arity)

        def run():
            cache = tr.call("coeffs.load_cache", load_cache, path)
            if tr.on:
                tr.count("coeffs.cache_bytes", os.path.getsize(path))
                tr.count("coeffs.cache_entries", len(cache.table))
            self.loaded[arity] = instrument.adopt(cache, tr)
            return cache

        def check(cache):
            if cache.arity != arity or cache.table != self.built[arity].table:
                return f"loaded cache differs from the arity-{arity} cache that was saved"
            return None

        return Op(f"load_cache arity={arity} jmax={self.CACHES[arity]}", run, check)

    def _eval_op(self, tr, shape) -> Op:
        method, p, n, alpha, cap, arity = shape
        out_path = self._path(shape, "out")

        def run():
            res = self._evaluate(tr, shape, self.loaded[arity])
            tr.call("spectral.write_vector", write_vector, res.vector, out_path)
            if tr.on:
                tr.count("spectral.bytes", os.path.getsize(self._path(shape, "in")) + os.path.getsize(out_path))
            return res

        def check(res):
            want = self.ref[shape]
            if res.terms != want.terms or res.vector != want.vector:
                return "warm result differs from the cold-cache evaluation of the same shape"
            return None

        cap_label = f" cap={cap}" if cap is not None else ""
        return Op(f"{method} p={p} N={n} a={alpha}{cap_label} warm", run, check, stage=1)


class Count:
    """Exact counting in `indices`, with no input values.

    Each family spans a 4x range of N so a change in growth order shows;
    product-norm counting is quadratic in N today.  The seed only permutes
    the order of operations.
    """

    fresh_process = False
    FAMILIES = {  # name -> (size, dimension, budgets)
        "max": (SizeFunction.MAX, 1, (2**11, 2**13, 2**15)),
        "prod_d1": (SizeFunction.PROD, 1, (2**7, 2**8, 2**9)),
        "prod_d2": (SizeFunction.PROD, 2, (2**6, 2**7, 2**8)),
    }
    # label -> (spec, ell); the tuples at ell number count_sparse of the spec
    # with alpha = 0 and the budget N // size(ell)**alpha
    ENUMERATE = {
        "enumerate_sparse max d=1 p=3 N=256 ell=0": (
            SparseSetSpec(3, 256, 0, SizeFunction.MAX, integers(1)),
            (0,),
        ),
        "enumerate_sparse prod d=2 p=2 N=128 a=1 ell=1,2": (
            SparseSetSpec(2, 128, 1, SizeFunction.PROD, integers(2)),
            (1, 2),
        ),
    }

    def __init__(self, seed: int, workdir: Path, tr):
        self.frozen = json.loads(COUNT_TABLE.read_text())["counts"]

    def prepare_checks(self) -> None:
        pass

    def ops(self, tr) -> list[Op]:
        ops = []
        for family, (size, dim, budgets) in self.FAMILIES.items():
            for n in budgets:
                ops.append(self._count(tr, family, SparseSetSpec(3, n, 1, size, integers(dim))))
        for label, (spec, ell) in self.ENUMERATE.items():
            ops.append(self._enumerate(tr, label, spec, ell))
        return ops

    def _count(self, tr, family: str, spec: SparseSetSpec) -> Op:
        label = f"count_sparse {family} p=3 a=1 N={spec.level}"
        run = lambda: tr.call(f"indices.count_sparse.{family}", count_sparse, spec, include_ell=True)
        return Op(label, run, lambda got: self._frozen_reason(label, got))

    def _enumerate(self, tr, label: str, spec: SparseSetSpec, ell) -> Op:
        def run():
            n = tr.call("indices.enumerate_sparse", _consume, spec, ell)
            tr.count("indices.enumerate_sparse.tuples", n)
            return n

        def check(got):
            budget = spec.level // spec.size.of(ell) ** spec.alpha
            counted = count_sparse(SparseSetSpec(spec.p, budget, 0, spec.size, spec.lattice))
            if got != counted:
                return f"enumerated {got} tuples, count_sparse says {counted}"
            return self._frozen_reason(label, got)

        return Op(label, run, check)

    def _frozen_reason(self, label: str, got: int) -> str | None:
        want = self.frozen[label]
        return None if got == want else f"{got} != frozen {want}"


def _consume(spec: SparseSetSpec, ell) -> int:
    """Number of tuples enumerate_sparse yields; the stream is fully drained."""
    return sum(1 for _ in enumerate_sparse(spec, ell))


WORKLOADS = {"fourier": Fourier, "hermite_cold": HermiteCold, "hermite_warm": HermiteWarm, "count": Count}


def corrupt(out):
    """A copy of an operation's output with one value changed; the self-test
    feeds it to the operation's check, which must reject it."""
    if isinstance(out, tuple):
        return (corrupt(out[0]),) + out[1:]
    if isinstance(out, int):
        return out + 1
    if isinstance(out, EvalResult):
        return EvalResult(corrupt(out.vector), out.terms)
    if isinstance(out, SpectralVector):
        entries = dict(out.items())
        key = next(iter(entries))
        entries[key] += 1.0
        return SpectralVector(out.basis, entries)
    if isinstance(out, HermiteCache):
        table = dict(out.table)
        key = next(iter(table))
        table[key] += 1.0
        return HermiteCache(out.arity, table)
    raise TypeError(f"no corruption defined for {type(out).__name__}")
