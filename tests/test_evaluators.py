import functools
import hashlib
import itertools
import json
import math
import operator
import random
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spspec import evaluators
from spspec.coeffs import FourierSymbol, HermiteCache, build_cache, hermite_product_integral
from spspec.evaluators import (
    EvalRequest,
    EvalResult,
    _HermiteClasses,
    dense_oracle_fourier,
    dense_oracle_hermite,
    direct_sparse_eval,
    error_report,
    iterative_eval,
    predicted_rate,
    predicted_rate_iterative,
)
from spspec.indices import SizeFunction, SparseSetSpec, enumerate_sparse, integers, naturals
from spspec.quadrature import gauss_hermite_rule, hermite_batch
from spspec.spectral import PRUNE_TOL, Basis, SpectralVector, dump_vector, l1s_norm, power_law_vector

FOURIER = Basis.fourier()
HERMITE = Basis.hermite()
UNIT = FourierSymbol.unit(1)


def fvec(entries) -> SpectralVector:
    return SpectralVector(FOURIER, {(k,): v for k, v in entries.items()})


def direct(inputs, n, alpha, provider=UNIT, **kw):
    p = len(inputs)
    lattice = inputs[0].basis.lattice
    spec = SparseSetSpec(p, n, alpha, SizeFunction.MAX, lattice)
    return direct_sparse_eval(EvalRequest(provider, tuple(inputs), spec, **kw))


# ---------------------------------------------------------------- dense oracles

def test_dense_fourier_examples():
    one = fvec({0: 1.0})
    assert dict(dense_oracle_fourier((one,) * 5)) == {(0,): 1.0 + 0j}
    shift = fvec({1: 1.0})
    assert dict(dense_oracle_fourier((shift,) * 3)) == {(3,): 1.0 + 0j}
    half = fvec({-1: 0.5, 1: 0.5})
    assert dict(dense_oracle_fourier((half, half))) == {
        (-2,): 0.25 + 0j,
        (0,): 0.5 + 0j,
        (2,): 0.25 + 0j,
    }


def test_dense_fourier_handles_two_dimensions():
    basis = Basis.fourier(2)
    u = SpectralVector(basis, {(0, 1): 1.0, (1, -1): 2.0})
    got = dense_oracle_fourier((u, u))
    assert dict(got) == {
        (0, 2): 1.0 + 0j,
        (1, 0): 4.0 + 0j,
        (2, -2): 4.0 + 0j,
    }


def test_dense_fourier_applies_the_symbol():
    sym = FourierSymbol({(0,): 1.0 + 0j, (1,): 0.5 + 0j})
    u = fvec({0: 1.0, 1: 1.0})
    got = dense_oracle_fourier((u, u), symbol=sym)
    # ell = j1 + j2 + m over m in {0, 1} with weight b_m
    assert dict(got) == {
        (0,): 1.0 + 0j,
        (1,): 2.5 + 0j,
        (2,): 2.0 + 0j,
        (3,): 0.5 + 0j,
    }


def test_dense_hermite_identity_projection():
    u = SpectralVector(HERMITE, {(0,): 1.0})
    got = dense_oracle_hermite((u,), 64, 4)
    assert abs(got.get((0,), 0j) - 1.0) < 1e-12
    for ell in (1, 2, 3, 4):
        assert abs(got.get((ell,), 0j)) < 1e-12


def test_dense_hermite_matches_coefficient_cache():
    u = SpectralVector(HERMITE, {(0,): 1.0})
    got = dense_oracle_hermite((u, u), 128, 8)
    cache = HermiteCache(2)
    for ell in range(9):
        want = cache.coefficient((ell,), ((0,), (0,)))
        assert abs(got.get((ell,), 0j).real - want) < 1e-10


def test_dense_hermite_parity():
    u = SpectralVector(HERMITE, {(0,): 1.0, (2,): 0.5, (4,): 0.25})
    got = dense_oracle_hermite((u, u), 128, 9)
    for ell in (1, 3, 5, 7, 9):
        assert abs(got.get((ell,), 0j)) < 1e-12


def test_dense_hermite_projects_high_degrees():
    # near the rule's edge exp(-x^2/2) underflows while chi_900 is O(1) there
    u = SpectralVector(HERMITE, {(900,): 1.0})
    got = dense_oracle_hermite((u,), 1000, 900)
    assert abs(got.get((900,), 0j) - 1.0) < 1e-12
    for ell in range(900):
        assert abs(got.get((ell,), 0j)) < 1e-12


def test_dense_hermite_rejects_underresolved_rules():
    u = SpectralVector(HERMITE, {(30,): 1.0})
    with pytest.raises(ValueError, match="nodes"):
        dense_oracle_hermite((u, u), 20, 30)
    # non-strict mode keeps going; used for fixed-resolution transforms
    dense_oracle_hermite((u, u), 20, 30, strict=False)


def test_loose_dense_hermite_names_its_degree_limit():
    # refused before any chi row is evaluated: rows to degree D cost time linear in D
    limit = "exceeds 2047, the Hermite degree limit$"
    with pytest.raises(ValueError, match=f"^degree 10000 {limit}"):
        dense_oracle_hermite((SpectralVector(HERMITE, {(10**4,): 1.0}),), 8, 2, strict=False)
    one = SpectralVector(HERMITE, {(0,): 1.0})
    with pytest.raises(ValueError, match=f"^degree 2048 {limit}"):
        dense_oracle_hermite((one,), 8, 2048, strict=False)
    assert max(dense_oracle_hermite((one,), 8, 2047, strict=False)) == (2047,)


@pytest.mark.parametrize("n_nodes", [1, 2, 7])
def test_dense_hermite_adds_each_inputs_rows_in_key_order(n_nodes):
    # reference: the per-entry loop, from zeros; at one node a plain complex
    # sum over the entries would add them pairwise and round differently
    rng = random.Random(n_nodes)
    u, v = (SpectralVector(HERMITE, {
        (j,): complex(rng.uniform(-1, 1), rng.choice([0.0, -0.0, rng.uniform(-1, 1)]))
        * 10.0 ** rng.randint(-3, 3) for j in rng.sample(range(30), 12)
    }) for _ in range(2))
    for inputs in ((u, u, u), (u, v), (u, SpectralVector(HERMITE, {}))):
        rule = gauss_hermite_rule(n_nodes)
        c = math.sqrt((len(inputs) + 1) / 2.0)
        chi = hermite_batch(30, rule.nodes / c)
        prod = np.asarray(rule.scaled_weights / c, dtype=complex)
        for w in inputs:
            vals = np.zeros(n_nodes, dtype=complex)
            for (j,), x in w.items():
                vals += x * chi[j]
            prod *= vals
        want = SpectralVector._from_arrays(HERMITE, np.arange(11).reshape(-1, 1), chi[:11] @ prod)
        assert dump_vector(dense_oracle_hermite(inputs, n_nodes, 10, strict=False)) == dump_vector(want)


def test_dense_oracles_check_their_inputs():
    f, h = fvec({0: 1.0}), SpectralVector(HERMITE, {(0,): 1.0})
    plane = SpectralVector(Basis.fourier(2), {(0, 0): 1.0})
    for oracle in (dense_oracle_fourier, lambda inputs: dense_oracle_hermite(inputs, 4, 2)):
        with pytest.raises(ValueError, match="^need at least one input$"):
            oracle([])
    with pytest.raises(ValueError, match="^the convolution oracle applies to Fourier inputs$"):
        dense_oracle_fourier([h, h])
    with pytest.raises(ValueError, match="^the transform oracle applies to Hermite inputs$"):
        dense_oracle_hermite([f, f], 4, 2)
    with pytest.raises(ValueError, match="^all inputs must share one basis$"):
        dense_oracle_fourier([f, plane])
    with pytest.raises(ValueError, match="^all inputs must share one basis$"):
        dense_oracle_hermite([h, f], 4, 2)
    with pytest.raises(ValueError, match="^symbol dimension does not match the inputs$"):
        dense_oracle_fourier([f], symbol=FourierSymbol.unit(2))
    with pytest.raises(ValueError, match="^jmax_out must be >= 0, got -1$"):
        dense_oracle_hermite([h], 4, -1)


def test_dense_fourier_stops_when_a_product_underflows():
    tiny = fvec({0: 1e-200})
    assert len(dense_oracle_fourier([tiny, tiny, fvec({0: 1.0, 1: 2.0})])) == 0
    assert dense_oracle_fourier([tiny, tiny]) == fvec({})


# ---------------------------------------------------------------- oracle guard
#
# Seeded grids of d=1 dense_oracle_fourier and dense_oracle_hermite outputs,
# compared with digests of their dump_vector text (shortest round-trip reprs)
# recorded in vector_golden.json from the dict-convolution oracle.  Half of
# the Fourier inputs carry +-1e-200 entries past both ends of their support
# and one inside it, so products underflow to exact zeros at the ends and in
# the middle of the partial convolutions.

GOLDEN = Path(__file__).with_name("vector_golden.json")


def digest(*vectors: SpectralVector) -> str:
    h = hashlib.sha256()
    for u in vectors:
        h.update(dump_vector(u).encode())
    return h.hexdigest()[:16]


def guard_fvec(rng: random.Random, tiny: bool) -> SpectralVector:
    keys = sorted(rng.sample(range(-12, 13), rng.randint(1, 10)))
    entries = {}
    for k in keys:
        im = rng.choice([0.0, -0.0, rng.uniform(-1, 1)])
        entries[k] = complex(rng.uniform(-1, 1), im) * 10.0 ** rng.randint(-4, 4)
    if tiny:
        for k in (keys[0] - 1, keys[-1] + 1, rng.randint(keys[0], keys[-1])):
            entries[k] = rng.choice([1e-200, -1e-200, 1e-200j])
    return fvec(entries)


def truncated(u: SpectralVector, cutoff: int | None) -> SpectralVector:
    """u's entries with every coordinate magnitude <= cutoff; all of them for None."""
    if cutoff is None:
        return u
    return SpectralVector(u.basis, {k: v for k, v in u.items() if max(map(abs, k)) <= cutoff})


def oracle_guard_cases(p: int) -> dict[str, SpectralVector]:
    out = {}
    for seed in range(13):
        rng = random.Random(100 * p + seed)
        inputs = [guard_fvec(rng, seed % 2 == 0) for _ in range(p)]
        for cutoff in (None, 4, 9):
            cut = [truncated(u, cutoff) for u in inputs]
            for sym in (None, FourierSymbol.inverse_two_minus_cos()):
                name = f"p{p}-cutoff{cutoff}-{'sym' if sym else 'plain'}-seed{seed}"
                out[name] = dense_oracle_fourier(cut, sym)
    return out


def hermite_guard_cases() -> dict[str, SpectralVector]:
    out = {}
    for p in (1, 2, 3):
        for seed in range(4):
            rng = random.Random(10 * p + seed)
            inputs = [
                SpectralVector(HERMITE, {
                    (rng.randint(0, 10),): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for _ in range(rng.randint(1, 6))
                })
                for _ in range(p)
            ]
            degree = sum(int(u.as_arrays()[0].max(initial=0)) for u in inputs) + 8
            out[f"p{p}-seed{seed}"] = dense_oracle_hermite(inputs, degree // 2 + 1, 8)
            out[f"p{p}-seed{seed}-loose"] = dense_oracle_hermite(inputs, 6, 8, strict=False)
    return out


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_dense_fourier_keeps_its_bits(p):
    golden = json.loads(GOLDEN.read_text())["dense_oracle_fourier"]
    got = {name: digest(u) for name, u in oracle_guard_cases(p).items()}
    assert len(got) == 78
    assert {name: golden[name] for name in got} == got


def test_dense_hermite_keeps_its_bits():
    golden = json.loads(GOLDEN.read_text())["dense_oracle_hermite"]
    assert {name: digest(u) for name, u in hermite_guard_cases().items()} == golden


# ---------------------------------------------------------------- direct guard
#
# A seeded grid of direct_sparse_eval and iterative_eval outputs, compared
# with digests of their dump_vector text and their term counts, recorded in
# vector_golden.json.  It crosses d, p, alpha, both norms, a box, explicit
# output domains and two symbols.  Half of the inputs carry +-1e-200 entries
# past both corners of their support and one inside it, so products
# underflow to exact zeros in the partial sums.

def direct_guard_symbol(d: int, name: str) -> FourierSymbol:
    if name == "unit":
        return FourierSymbol.unit(d)
    if d == 1:
        return FourierSymbol.inverse_two_minus_cos()
    # 1 / ((2 - cos x)(2 - cos y)), truncated to 13 x 13 entries
    axis = FourierSymbol.inverse_two_minus_cos(1e-4).table
    pairs = itertools.product(axis.items(), repeat=2)
    return FourierSymbol({a + b: va * vb for (a, va), (b, vb) in pairs}, 2)


def direct_guard_vec(rng: random.Random, d: int, tiny: bool, real: bool = True) -> SpectralVector:
    reach = rng.choice((12, 40) if d == 1 else (3, 6))
    cells = list(itertools.product(range(-reach, reach + 1), repeat=d))
    near = list(itertools.product(range(-2, 3), repeat=d))
    entries = {}
    for j in rng.sample(near, rng.randint(1, 4)) + rng.sample(cells, rng.randint(0, 12)):
        im = rng.choice([0.0, -0.0, rng.uniform(-1, 1)]) if real else rng.uniform(-1, 1)
        entries[j] = complex(rng.uniform(-1, 1), im) * 10.0 ** rng.randint(-4, 4)
    if tiny:
        lows = [min(c) - 1 for c in zip(*entries)]
        highs = [max(c) + 1 for c in zip(*entries)]
        for j in (tuple(lows), tuple(highs), rng.choice(cells)):
            entries[j] = rng.choice([1e-200, -1e-200, 1e-200j])
    return SpectralVector(Basis.fourier(d), entries)


def direct_guard_cases() -> dict[str, tuple[SpectralVector, int]]:
    out = {}
    grid = itertools.product((1, 2), (1, 2, 3, 4), (0, 1), SizeFunction, (False, True),
                             (False, True), ("unit", "cos"), range(2))
    for d, p, alpha, size, boxed, domain, sym, seed in grid:
        name = (f"d{d}-p{p}-alpha{alpha}-{size.name.lower()}-{'box' if boxed else 'nobox'}"
                f"-{'domain' if domain else 'grid'}-{sym}-seed{seed}")
        rng = random.Random(name)
        inputs = tuple(direct_guard_vec(rng, d, rng.random() < 0.5) for _ in range(p))
        level = rng.choice((8, 24, 64) if d == 1 else (6, 12, 24))
        box = rng.choice((2, 5, 12)) if boxed else None
        spec = SparseSetSpec(p, level, alpha, size, integers(d), box=box)
        ells = None
        if domain:
            near = level + 2 if d == 1 else 5
            cells = list(itertools.product(range(-near, near + 1), repeat=d))
            ells = tuple(rng.sample(cells, min(len(cells), 40))) + ((10**6,) * d,)
        got = direct_sparse_eval(EvalRequest(direct_guard_symbol(d, sym), inputs, spec, ells))
        out[name] = got.vector, got.terms
    # alpha = 1 under small boxes, on complex entries: many budget classes
    # of a few outputs each, whose products are as short as a SIMD lane or
    # shorter (numpy rounds a lone complex product as Python does, and longer
    # ones with a fused multiply-add)
    grid = itertools.product((1, 2, 3, 4), SizeFunction, (None, 2, 3, 5), (False, True),
                             ("unit", "cos"), range(6))
    for p, size, box, domain, sym, seed in grid:
        name = (f"classes-p{p}-{size.name.lower()}-box{box}-{'domain' if domain else 'grid'}"
                f"-{sym}-seed{seed}")
        rng = random.Random(name)
        inputs = tuple(direct_guard_vec(rng, 1, rng.random() < 0.5, False) for _ in range(p))
        spec = SparseSetSpec(p, rng.choice((4, 8, 24, 64)), 1, size, integers(1), box=box)
        ells = tuple((rng.randint(-12, 12),) for _ in range(rng.randint(1, 6))) if domain else None
        got = direct_sparse_eval(EvalRequest(direct_guard_symbol(1, sym), inputs, spec, ells))
        out[name] = got.vector, got.terms
    grid = itertools.product((1, 2), (2, 3, 4), (0, 1), ("unit", "cos"), range(4))
    for d, p, alpha, sym, seed in grid:
        name = f"iterative-d{d}-p{p}-alpha{alpha}-{sym}-seed{seed}"
        rng = random.Random(name)
        inputs = tuple(direct_guard_vec(rng, d, rng.random() < 0.5) for _ in range(p))
        level = rng.choice((8, 24, 64) if d == 1 else (6, 12, 24))
        got = iterative_eval(direct_guard_symbol(d, sym), inputs, level, alpha)
        out[name] = got.vector, got.terms
    return out


def test_direct_and_iterative_keep_their_bits():
    golden = json.loads(GOLDEN.read_text())["direct_sparse_eval"]
    got = {name: [digest(u), terms] for name, (u, terms) in direct_guard_cases().items()}
    assert len(got) == 1376
    assert got == golden


# ------------------------------------------------------------------- plans
#
# An evaluation builds its plan (layouts, kept outputs, terms; for Hermite
# also the rule) from the supports, the clipped spec and the explicit domain,
# with the symbol's keys for Fourier, and then runs the value pass on the
# values.

def _revalued(u: SpectralVector, rng: random.Random) -> SpectralVector:
    """New complex values on the support of u."""
    return SpectralVector(u.basis, {j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for j in u})


def _run(provider, inputs, spec, domain=None):
    got = direct_sparse_eval(EvalRequest(provider, inputs, spec, domain))
    return digest(got.vector), got.terms


@pytest.mark.parametrize("d,p,alpha,sym,domain", [
    (d, p, alpha, sym, domain)
    for d in (1, 2)
    for p in (1, 2, 3)
    for alpha in (0, 1)
    for sym in ("unit", "cos")
    for domain in (False, True)
])
def test_a_plan_reads_no_value(monkeypatch, d, p, alpha, sym, domain):
    """A plan built on the values of one evaluation gives, for any other
    values on the same supports and symbol keys, the bits that evaluation
    gives with its own plan, whether it was built with one input in every
    slot or not."""
    rng = random.Random(f"plan-{d}-{p}-{alpha}-{sym}-{domain}")
    first = direct_guard_vec(rng, d, tiny=True)
    others = [_revalued(first, rng) for _ in range(p)]
    symbol = direct_guard_symbol(d, sym)
    scaled = FourierSymbol({k: v * (0.5 - 0.25j) for k, v in symbol.table.items()}, d)
    level = 24 if d == 1 else 12
    spec = SparseSetSpec(p, level, alpha, SizeFunction.MAX, integers(d))
    ells = None
    if domain:
        near = 30 if d == 1 else 8
        cells = list(itertools.product(range(-near, near + 1), repeat=d))
        ells = tuple(rng.sample(cells, 30)) + ((0,) * d, (10**6,) * d)
    runs = [(symbol, (first,) * p), (scaled, tuple(others)), (symbol, (others[0],) * p)]
    fresh = [_run(provider, inputs, spec, ells) for provider, inputs in runs]
    assert fresh[0][1] > 0
    plan_class = evaluators._BudgetClasses
    for built_on, built_with in runs:

        class Planned(plan_class):
            def __init__(self, inputs, symbol, spec, ells):
                super().__init__(built_with, built_on, spec, ells)

        monkeypatch.setattr(evaluators, "_BudgetClasses", Planned)
        assert [_run(provider, inputs, spec, ells) for provider, inputs in runs] == fresh


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("alpha,domain", [(0, True), (1, False), (1, True)])
def test_a_hermite_plan_reads_no_value(monkeypatch, p, alpha, domain):
    """The Hermite counterpart: a plan built on the values of one evaluation
    gives, for any other values on the same supports, the bits that
    evaluation gives with its own plan.  alpha = 0 is refused without a
    domain before any value is read."""
    rng = random.Random(f"hermite-plan-{p}-{alpha}-{domain}")
    keys = rng.sample(range(3), 2) + rng.sample(range(3, 20), 6)
    first = SpectralVector(HERMITE, {(k,): complex(rng.uniform(-1, 1), 0.0) for k in keys})
    others = [_revalued(first, rng) for _ in range(p)]
    spec = SparseSetSpec(p, 24, alpha, SizeFunction.MAX, naturals(1))
    ells = tuple((ell,) for ell in rng.sample(range(40), 20)) + ((0,),) if domain else None
    cache = HermiteCache(p)
    runs = [(first,) * p, tuple(others), (others[0],) * p]
    fresh = [_run(cache, inputs, spec, ells) for inputs in runs]
    assert fresh[0][1] > 0
    plan_class = evaluators._HermiteClasses
    for built_with in runs:

        class Planned(plan_class):
            def __init__(self, inputs, spec, ells):
                super().__init__(built_with, spec, ells)

        monkeypatch.setattr(evaluators, "_HermiteClasses", Planned)
        assert [_run(cache, inputs, spec, ells) for inputs in runs] == fresh


@pytest.mark.parametrize("alpha", [0, 1])
def test_the_hermite_value_pass_plans_nothing(monkeypatch, alpha):
    """A value pass runs the steps its plan lists: on other values on the
    same supports it plans no (slot, budget), and gives a fresh plan's bits."""
    rng = random.Random(f"hermite-replan-{alpha}")
    inputs = tuple(HERMITE_GUARD_INPUTS[name] for name in ("power", "odd", "sparse"))
    others = tuple(_revalued(u, rng) for u in inputs)
    spec = SparseSetSpec(3, HERMITE_GUARD_LEVEL, alpha, SizeFunction.MAX, naturals(1))
    domain = np.array(HERMITE_GUARD_DOMAIN) if alpha == 0 else None
    plan = _HermiteClasses(inputs, spec, domain)
    calls = []
    levels_of = evaluators._Slots.levels

    def counted(self, s, budgets):
        calls.append((s, budgets))
        return levels_of(self, s, budgets)

    monkeypatch.setattr(evaluators._Slots, "levels", counted)
    fresh = _HermiteClasses(others, spec, domain)
    assert calls and np.array_equal(fresh.ells, plan.ells) and len(plan.ells) > 5
    calls.clear()
    got = plan.evaluate(others, HermiteCache(3))
    assert calls == []
    assert got.tobytes() == fresh.evaluate(others, HermiteCache(3)).tobytes()


def test_the_hermite_value_pass_writes_nothing_to_its_plan():
    """Two plans' value passes, interleaved on distinct values, leave each
    plan's attributes as they were and each give a fresh plan's bits."""
    rng = random.Random("hermite-no-write")
    spec = SparseSetSpec(2, HERMITE_GUARD_LEVEL, 1, SizeFunction.PROD, naturals(1))
    pairs = [tuple(HERMITE_GUARD_INPUTS[name] for name in ("power", "even")),
             (HERMITE_GUARD_INPUTS["odd"],) * 2]
    plans = [_HermiteClasses(inputs, spec, None) for inputs in pairs]

    def state(plan):  # each attribute's id, and its length where it can grow
        grows = (list, dict)
        return {k: (id(v), len(v) if isinstance(v, grows) else 0) for k, v in vars(plan).items()}

    before = [state(plan) for plan in plans]
    for _ in range(3):
        for plan, inputs in zip(plans, pairs):
            values = tuple(_revalued(u, rng) for u in inputs)
            got = plan.evaluate(values, HermiteCache(2))
            want = _HermiteClasses(values, spec, None).evaluate(values, HermiteCache(2))
            assert len(got) and got.tobytes() == want.tobytes()
    assert [state(plan) for plan in plans] == before


@pytest.mark.parametrize("inputs,level,alpha", [
    (("power", "odd", "sparse"), None, 0),
    (("power", "odd", "sparse"), None, 1),
    (("even", "even", "even"), 80, 1),  # budgets dropped for parity leave steps unlisted
])
def test_the_hermite_value_pass_runs_only_its_listed_steps(monkeypatch, inputs, level, alpha):
    """The plan lists the steps its kept budgets reach, each after its subs,
    and which outputs read each budget; the value pass runs those steps
    alone, in that order, and works out nothing of the plan again."""
    inputs = tuple(HERMITE_GUARD_INPUTS[name] for name in inputs)
    spec = SparseSetSpec(3, level or HERMITE_GUARD_LEVEL, alpha, SizeFunction.MAX, naturals(1))
    plan = _HermiteClasses(inputs, spec, None if alpha else np.array(HERMITE_GUARD_DOMAIN))
    want = plan.evaluate(inputs, HermiteCache(3))
    reached = {top for top, _ in plan.reads}
    for k in range(len(plan.steps) - 1, 0, -1):
        reached.update(plan.steps[k][3] if k in reached else ())
    assert plan.live == sorted(reached - {0})
    assert sorted(np.concatenate([at for _, at in plan.reads]).tolist()) == list(range(len(want)))
    if level == 80:
        assert len(plan.live) < len(plan.steps) - 1
    read = []

    class Steps(list):
        def __getitem__(self, k):
            read.append(k)
            return super().__getitem__(k)

    def refused(*args, **kwargs):
        raise AssertionError("the value pass worked out its plan again")

    monkeypatch.setattr(plan, "steps", Steps(plan.steps))
    monkeypatch.setattr(np, "unique", refused)
    monkeypatch.setattr(np, "flatnonzero", refused)
    got = plan.evaluate(inputs, HermiteCache(3))
    monkeypatch.undo()
    assert read == plan.live
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p,size,level,inputs,domain", [
    (2, SizeFunction.MAX, 40, "even", ((1,), (10,))),
    (3, SizeFunction.PROD, 80, "odd", None),
])
def test_hermite_budgets_dropped_for_parity_may_pass_the_rule(p, size, level, inputs, domain):
    # every output of the first budget has no term of its own parity, and
    # that budget admits keys past the degree the kept outputs reach, which
    # have no chi row; the value pass runs only the steps the kept reach
    u = {"even": SpectralVector(HERMITE, {(j,): 1.0 + 0.1 * j for j in range(0, 41, 2)}),
         "odd": SpectralVector(HERMITE, {(1,): 0.5, (19,): 0.25, (3,): 0.1})}[inputs]
    spec = SparseSetSpec(p, level, 1, size, naturals(1))
    ells = domain or tuple((ell,) for ell in range(level + 1))
    got = direct_sparse_eval(EvalRequest(HermiteCache(p), (u,) * p, spec, domain))
    _assert_close_to_brute(got, _hermite_brute_sums([(u,) * p], spec, ells)[0])


def dict_oracle(tables: list[dict]) -> dict:
    """Reference convolution: a dict double loop over every pair of entries."""
    acc = tables[0]
    for t in tables[1:]:
        out = {}
        for ka, va in acc.items():
            for kb, vb in t.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, 0j) + va * vb
        acc = out
    return acc


@pytest.mark.parametrize("d,p", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_dense_fourier_matches_the_dict_double_loop(d, p):
    # every value within 1e-15 of its term mass, the convolution of the
    # absolute values, since the two sum in different orders
    basis = Basis.fourier(d)
    sizes = []
    for seed in range(6):
        rng = random.Random(1000 * d + 100 * p + seed)

        def table(n, r):
            return {
                tuple(rng.randint(-r, r) for _ in range(d)):
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.randint(-3, 3)
                for _ in range(n)
            }

        inputs = [SpectralVector(basis, table(rng.randint(1, 60), 6)) for _ in range(p)]
        cutoff = rng.choice([None, 2, 4])
        inputs = [truncated(u, cutoff) for u in inputs]
        symbol = FourierSymbol(table(rng.randint(1, 9), 2), d) if seed % 2 else None
        tables = [dict(u) for u in inputs] + ([symbol.table] if symbol else [])
        want = dict_oracle(tables)
        mass = dict_oracle([{k: abs(v) for k, v in t.items()} for t in tables])
        got = dense_oracle_fourier(inputs, symbol)
        assert set(got) <= set(want)
        for k, m in mass.items():
            assert abs(got.get(k, 0j) - want[k]) <= 1e-15 * m.real, (seed, k)
        sizes.append(len(got))
    assert sum(n > 0 for n in sizes) >= 4


def test_dense_fourier_2d_takes_under_a_second():
    u = power_law_vector(3.0, 32, Basis.fourier(2))
    start = time.perf_counter()
    got = dense_oracle_fourier((u, u))
    assert time.perf_counter() - start < 1.0
    assert len(got) == 129**2


# ---------------------------------------------------------------- direct eval

def test_direct_constant_inputs():
    one = fvec({0: 1.0})
    for alpha in (0, 1):
        for n in (1, 4):
            got = direct([one, one], n, alpha)
            assert dict(got.vector) == {(0,): 1.0 + 0j}


def test_direct_square_example():
    u = fvec({-1: 1.0, 1: 1.0})
    got = direct([u, u], 1, 0)
    assert dict(got.vector) == {(-2,): 1.0 + 0j, (0,): 2.0 + 0j, (2,): 1.0 + 0j}
    assert got.terms == 4


def test_direct_truncates_by_budget():
    u = fvec({1: 1.0, 2: 1.0})
    got = direct([u, u], 2, 0)
    # the (2,2) pair has size product 4 > 2 and must be dropped
    assert dict(got.vector) == {(2,): 1.0 + 0j, (3,): 2.0 + 0j}


def test_direct_alpha_one_gates_the_output_index():
    u = fvec({1: 1.0, 2: 1.0})
    full = direct([u, u], 4, 0)
    gated = direct([u, u], 4, 1)
    assert (4,) in full.vector  # size(4) * 2 * 2 = 16 > 4
    assert (4,) not in gated.vector
    assert gated.vector.get((2,)) == full.vector.get((2,))


def test_direct_hermite_single_mode():
    u = SpectralVector(HERMITE, {(0,): 1.0})
    got = direct([u, u], 4, 1, provider=HermiteCache(2))
    cache = HermiteCache(2)
    for ell in (0, 2, 4):
        want = cache.coefficient((ell,), ((0,), (0,)))
        assert abs(got.vector.get((ell,), 0j).real - want) < 1e-14
    assert (1,) not in got.vector
    assert (5,) not in got.vector  # size(5) > N


def test_direct_hermite_alpha_zero_needs_a_domain():
    u = SpectralVector(HERMITE, {(0,): 1.0})
    spec = SparseSetSpec(2, 4, 0, SizeFunction.MAX, naturals(1))
    with pytest.raises(ValueError, match="output"):
        direct_sparse_eval(EvalRequest(HermiteCache(2), (u, u), spec))
    got = direct_sparse_eval(
        EvalRequest(HermiteCache(2), (u, u), spec, output_domain=((0,), (2,)))
    )
    assert set(got.vector) <= {(0,), (2,)}


def test_direct_fourier_checks_the_output_domain():
    u = fvec({0: 1.0, 1: 2.0})
    with pytest.raises(ValueError, match="not in Z"):
        direct([u, u], 4, 0, output_domain=((1, 2),))
    with pytest.raises(ValueError, match="non-integer"):
        direct([u, u], 4, 0, output_domain=((1.5,),))
    got = direct([u, u], 4, 0, output_domain=((1,), (1,), (7,)))
    assert dict(got.vector) == {(1,): 4.0 + 0j}
    assert got.terms == 2


def test_output_domains_are_held_to_the_coordinate_bound():
    u = fvec({0: 1.0, 1: 2.0})
    with pytest.raises(ValueError, match=r"index \(1180591620717411303424,\) has a coordinate"):
        direct([u, u], 4, 0, output_domain=((1,), (2**70,)))


def test_request_validation():
    u = fvec({0: 1.0})
    h = SpectralVector(HERMITE, {(0,): 1.0})
    spec2 = SparseSetSpec(2, 4, 0, SizeFunction.MAX, integers(1))
    with pytest.raises(ValueError):
        EvalRequest(UNIT, (u,), spec2)  # arity mismatch
    with pytest.raises(ValueError):
        EvalRequest(UNIT, (u, h), spec2)  # mixed bases
    with pytest.raises(ValueError):
        EvalRequest(HermiteCache(2), (u, u), spec2)  # provider/lattice clash
    with pytest.raises(ValueError, match="^sparse-set lattice does not match the provider basis$"):
        EvalRequest(UNIT, (u, u), SparseSetSpec(2, 4, 0, SizeFunction.MAX, naturals(1)))


def test_term_accounting_matches_set_cardinality():
    from spspec.indices import count_sparse

    u = fvec({k: 1.0 for k in range(-6, 7)})
    spec = SparseSetSpec(3, 6, 0, SizeFunction.MAX, integers(1))
    res = direct_sparse_eval(EvalRequest(UNIT, (u, u, u), spec))
    assert res.terms == count_sparse(spec)


def test_term_accounting_alpha_one_brute():
    u = fvec({k: 1.0 for k in range(-5, 6)})
    res = direct([u, u], 5, 1)
    brute = 0
    for j1 in range(-5, 6):
        for j2 in range(-5, 6):
            ell = j1 + j2
            if max(1, abs(ell)) * max(1, abs(j1)) * max(1, abs(j2)) <= 5:
                brute += 1
    assert res.terms == brute


# ---------------------------------------------------------------- output vectors

def test_direct_outputs_are_checked_and_pruned():
    """A non-finite output raises as SpectralVector does; one below PRUNE_TOL
    is dropped."""
    cases = [(UNIT, FOURIER, None), (HermiteCache(2), HERMITE, tuple((l,) for l in range(5)))]
    for provider, basis, domain in cases:
        for alpha in (0, 1):
            huge = SpectralVector(basis, {(0,): 1e200, (1,): 1.0})
            tiny = SpectralVector(basis, {(0,): 1e-160})
            spec = SparseSetSpec(2, 4, alpha, SizeFunction.MAX, basis.lattice)
            # the Hermite products overflow at the quadrature nodes too
            with np.errstate(all="ignore"):
                with pytest.raises(ValueError, match=r"index \(0,\) is not finite"):
                    direct_sparse_eval(EvalRequest(provider, (huge, huge), spec, domain))
                got = direct_sparse_eval(EvalRequest(provider, (tiny, tiny), spec, domain))
            assert not got.vector and got.terms  # every value is about 1e-320


def _output_cases(seed: int):
    """(label, call) pairs over both bases, both alphas, explicit domains,
    the box and the iterative fold, on inputs with entries small enough that
    some products fall below PRUNE_TOL."""
    rng = random.Random(seed)

    def vector(basis, cells):
        return SpectralVector(basis, {
            j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * rng.choice((1.0, 1e-160))
            for j in rng.sample(cells, min(len(cells), 9))
        })

    for i in range(44):
        d = rng.choice((1, 2)) if i < 40 else 3  # d = 3 last, so the draws before stay as they were
        basis = Basis.fourier(d)
        cells = list(itertools.product(range(-4, 5), repeat=d))
        p, n, alpha = rng.choice((1, 2, 3)), rng.choice((4, 9, 20)), rng.choice((0, 1))
        inputs = tuple(vector(basis, cells) for _ in range(p))
        symbol = FourierSymbol(GUARD_SYMBOLS[rng.choice(list(GUARD_SYMBOLS))](d), d)
        spec = SparseSetSpec(p, n, alpha, rng.choice(list(SizeFunction)), basis.lattice,
                             box=rng.choice((None, 3)))
        outs = list(itertools.product(range(-14, 15), repeat=d))
        domain = rng.choice((None, tuple(rng.sample(outs, 20))))
        yield "fourier", functools.partial(direct_sparse_eval, EvalRequest(symbol, inputs, spec, domain))
        if d == 1 and p > 1:
            yield "fourier fold", functools.partial(iterative_eval, symbol, inputs, n, alpha)
    for _ in range(20):
        cells = [(j,) for j in range(12)]
        p, n, alpha = rng.choice((2, 3)), rng.choice((4, 9, 20)), rng.choice((0, 1))
        inputs = tuple(vector(HERMITE, cells) for _ in range(p))
        spec = SparseSetSpec(p, n, alpha, rng.choice(list(SizeFunction)), HERMITE.lattice,
                             box=rng.choice((None, 3)))
        domain = tuple(rng.sample([(l,) for l in range(30)], 12)) if alpha == 0 else None
        yield "hermite", functools.partial(
            direct_sparse_eval, EvalRequest(HermiteCache(p), inputs, spec, domain))
        yield "hermite fold", functools.partial(
            iterative_eval, HermiteCache(2), inputs, n, alpha, ell_cap=20)


def _lookups(u: SpectralVector, keys) -> list:
    """Mapping lookups of u at keys and at one absent key, then u as a dict."""
    absent = (2**62,) * u.basis.dim
    return ([(u[j], u.get(j), j in u) for j in keys]
            + [(u.get(absent), u.get(absent, 7), absent in u), dict(u.items())])


@pytest.mark.parametrize("seed", [1, 2])
def test_output_vectors_match_the_mapping_constructor(seed, monkeypatch):
    """Every vector the evaluators build from arrays is the one
    SpectralVector(basis, dict) builds from the same keys and values, its
    arrays are a read-only copy of a fresh conversion, and its lookups agree
    whether or not it was iterated first."""
    built = []
    from_arrays = SpectralVector._from_arrays

    def spy(basis, keys, vals):
        u = from_arrays(basis, keys, vals)
        built.append((u, SpectralVector(basis, dict(zip(map(tuple, keys.tolist()), vals.tolist())))))
        return u

    monkeypatch.setattr(SpectralVector, "_from_arrays", staticmethod(spy))
    nonempty = 0
    for label, call in _output_cases(seed):
        built.clear()
        result = call()
        assert built, label
        assert result.vector is built[-1][0], label
        for got, want in built:
            probe = list(want)
            assert _lookups(got, probe) == _lookups(want, probe), label
            assert got == want, label
            assert list(got) == list(want), label
            assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()], label
            assert all(type(c) is int for j in got for c in j), label
            keys, vals = got.as_arrays()
            assert keys.dtype == np.int64 and keys.shape == (len(want), want.basis.dim), label
            assert keys.tolist() == [list(j) for j in want], label
            assert vals.tolist() == list(want.values()), label
            for a in (keys, vals):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0
            again = from_arrays(got.basis, keys, vals)
            assert list(again) == probe and _lookups(again, probe) == _lookups(want, probe), label
            nonempty += bool(got)
    assert nonempty > 50


# ------------------------------------------------------- saturation equality

def test_saturation_exact_on_integer_inputs():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.randint(2, 3)
        inputs = []
        for _ in range(p):
            support = rng.sample(range(-6, 7), rng.randint(1, 5))
            inputs.append(fvec({k: float(rng.choice([-5, -2, -1, 1, 2, 3, 5])) for k in support}))
        saturate = math.prod(max(max(1, abs(k[0])) for k in v) for v in inputs)
        got = direct(inputs, saturate, 0)
        assert got.vector == dense_oracle_fourier(tuple(inputs))


def test_saturation_close_on_float_inputs():
    rng = random.Random(8)
    inputs = []
    for _ in range(3):
        support = rng.sample(range(-5, 6), 4)
        inputs.append(fvec({k: rng.uniform(-1, 1) for k in support}))
    saturate = math.prod(max(max(1, abs(k[0])) for k in v) for v in inputs)
    got = direct(inputs, saturate, 0)
    assert error_report(got.vector, dense_oracle_fourier(tuple(inputs))) < 1e-13


def _ones(m: int) -> SpectralVector:
    return fvec({j: 1.0 for j in range(m)})


def test_a_saturated_budget_folds_once():
    # every budget class past saturation shares one line: the product of
    # three ones on 0..1000 at N = 10**30 took 12 s (2 vCPUs) when each was built
    u = _ones(1001)
    spec = SparseSetSpec(3, 10**30, 0, SizeFunction.MAX, integers(1))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        got = direct_sparse_eval(EvalRequest(UNIT, (u,) * 3, spec))
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
    assert got.terms == 1001**3
    assert got.vector == dense_oracle_fourier((u,) * 3)


@pytest.mark.parametrize("alpha", [0, 1])
@pytest.mark.parametrize("size", list(SizeFunction))
def test_the_saturation_clamp_keeps_the_bits(monkeypatch, alpha, size):
    # a wide slot before narrow ones saturates only at its own size squared,
    # where each of its sizes leaves a budget of its own
    rng = random.Random(f"clamp-{alpha}-{size}")

    def contiguous(basis, m):
        return SpectralVector(basis, {(j,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                      for j in range(m)})

    cases = []
    for basis, provider in ((FOURIER, UNIT), (FOURIER, FourierSymbol.inverse_two_minus_cos()),
                            (HERMITE, HermiteCache(3))):
        wide, narrow = contiguous(basis, 40), contiguous(basis, 4)
        for inputs in ((wide, narrow, narrow), (narrow, wide, contiguous(basis, 7)), (narrow,) * 3):
            ells = tuple((ell,) for ell in range(30)) if basis is HERMITE else None
            spec = SparseSetSpec(3, 10**5, alpha, size, basis.lattice)
            cases.append((provider, inputs, spec, ells))
    clamped = [_run(*case) for case in cases]
    init = evaluators._Slots.__init__

    def unclamped(self, inputs, spec):
        init(self, inputs, spec)
        self.sat = [2**63] * (len(inputs) + 1)

    monkeypatch.setattr(evaluators._Slots, "__init__", unclamped)
    assert [_run(*case) for case in cases] == clamped


# The plans of the nine `fourier` benchmark shapes on inputs with its
# supports, as (steps, runs, lone keys); 474 steps and 1,045 runs in all.
PLAN_COUNTS = {
    ("direct", 3, 64, 0, "unit"): (32, 94, 0),
    ("direct", 3, 64, 1, "unit"): (31, 79, 0),
    ("direct", 3, 256, 0, "unit"): (64, 306, 18),
    ("direct", 3, 256, 1, "unit"): (63, 254, 0),
    ("direct", 2, 1024, 0, "unit"): (65, 125, 74),
    ("direct", 4, 64, 1, "unit"): (46, 158, 0),
    ("iterative", 4, 512, 1, "unit"): (135, 0, 0),
    ("direct", 3, 16, 0, "inv2mcos"): (16, 29, 0),
    ("direct", 2, 128, 1, "inv2mcos"): (22, 0, 0),
}


def test_the_fourier_plans_keep_their_step_and_run_counts(monkeypatch):
    plans = []
    plan_class = evaluators._BudgetClasses

    class Recorded(plan_class):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(evaluators, "_BudgetClasses", Recorded)
    u = power_law_vector(3.0, 2048, FOURIER)
    symbols = {"unit": UNIT, "inv2mcos": FourierSymbol.inverse_two_minus_cos()}
    got = {}
    for method, p, n, alpha, name in PLAN_COUNTS:
        plans.clear()
        if method == "direct":
            direct([u] * p, n, alpha, symbols[name])
        else:
            iterative_eval(symbols[name], [u] * p, n, alpha)
        steps = [step for plan in plans for step in plan.steps]
        runs = [run for *_, block_runs, _ in steps if block_runs is not None for run in block_runs]
        lone = sum(e - a == 1 for a, e, *_ in runs)
        got[method, p, n, alpha, name] = (len(steps), len(runs), lone)
    assert got == PLAN_COUNTS
    assert sum(steps for steps, _, _ in got.values()) == 474


def _restate(plan, sizes, need, hermite):
    """check(step, s, b): the step of slot s at budget b, restated by brute
    force from the sizes of each slot's entries in size order."""
    seen = set()

    def check(k, s, b):
        if (k, s, b) in seen:
            return
        seen.add((k, s, b))
        assert b >= need[s]  # no budget below need is planned
        b = min(b, plan.sat[s])
        hi = sum(x * need[s + 1] <= b for x in sizes[s])
        cs = [b // x for x in sizes[s][:hi]]
        starts = [i for i in range(hi) if i == 0 or cs[i] != cs[i - 1]]
        last = s == len(sizes) - 1
        assert hi > 0 and plan.steps[k][0] == s
        if hermite:
            _, got_hi, got_starts, subs, _ = plan.steps[k]
            assert (got_hi, got_starts) == (hi, [0] if last else starts)
            if last:
                assert subs == [0]  # the unit
                return
            for a, sub in zip(starts, subs, strict=True):
                check(sub, s + 1, min(cs[a], plan.sat[s + 1]))
            return
        _, order, _, runs, _ = plan.steps[k]
        if last:
            assert order == slice(hi) and runs is None
            return
        # the entries of each block keep the block's place in the size order
        assert sorted(order.tolist()) == list(range(hi))
        assert [cs[i] for i in order.tolist()] == cs
        assert [a for a, *_ in runs] == sorted({a for a, *_ in runs} | set(starts))
        assert [e for _, e, *_ in runs] == [a for a, *_ in runs[1:]] + [hi]
        for a, e, _, sub, _ in runs:
            (c,) = {cs[i] for i in order[a:e].tolist()}
            check(sub, s + 1, min(c, plan.sat[s + 1]))

    return check


@pytest.mark.parametrize("entries", [None, 5])
@pytest.mark.parametrize("box", [None, 3])
@pytest.mark.parametrize("alpha", [0, 1])
@pytest.mark.parametrize("size", list(SizeFunction))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["fourier d=1", "fourier d=2", "hermite"])
def test_each_planned_step_is_its_budget_class_layout(monkeypatch, kind, p, size, alpha, box,
                                                      entries):
    """Every (slot, budget) step of either kernel admits exactly the slot's
    entries with size * need[s + 1] <= b, in size order; its blocks are the
    runs of equal b // size, and each block's sub step is the step of (s + 1,
    min(b // size, sat[s + 1])), and no budget below need is planned.
    Budgets run from need[s] to past sat[s], planned all at once, and in
    groups of a few entries."""
    if entries:
        monkeypatch.setattr(evaluators, "_LEVEL_ENTRIES", entries)
    rng = random.Random(f"levels-{kind}-{p}-{size}-{alpha}-{box}")
    d = 2 if kind == "fourier d=2" else 1
    if kind == "hermite":
        cells = [(j,) for j in range(21)]
    else:
        reach = 12 if d == 1 else 4
        cells = list(itertools.product(range(-reach, reach + 1), repeat=d))
    basis = HERMITE if kind == "hermite" else Basis.fourier(d)
    inputs = []
    for _ in range(p):  # each slot holds an index of size 2 or less, and some larger ones
        keys = rng.sample([j for j in cells if size.of(j) <= 2], 1)
        keys += rng.sample(cells, rng.randint(2, 12))
        inputs.append(SpectralVector(basis, {j: complex(rng.uniform(-1, 1), 0.5) for j in keys}))
    level = 40
    spec = SparseSetSpec(p, level, alpha, size, basis.lattice, box=box)
    if kind == "hermite":
        plan = _HermiteClasses(inputs, spec, np.arange(30)[:, None] if alpha == 0 else None)
    else:
        plan = evaluators._BudgetClasses(inputs, FourierSymbol.unit(d), spec, None)
    cap = level if box is None else min(level, box)
    sizes = [sorted(x for x in map(size.of, u.keys()) if x <= cap) for u in inputs]
    assert sizes == [sorted_sizes.tolist() for sorted_sizes, _, _ in plan.slots]
    need = [math.prod(xs[0] for xs in sizes[s:]) for s in range(p + 1)]
    check = _restate(plan, sizes, need, kind == "hermite")
    for s in range(p):
        budgets = [b for b in range(need[s], need[s] + 60) if b <= 10**4]
        past = (plan.sat[s] - 1, plan.sat[s], plan.sat[s] + 1, 10**12)
        budgets += [b for b in past if b >= need[s]]
        steps = plan.levels(s, budgets)
        if kind != "hermite":
            steps = steps[:, 2]
        for k, b in zip(steps.tolist(), budgets, strict=True):
            check(k, s, b)


def test_saturated_terms_are_exact(run_capped):
    # m = 10,001 at p = 4 and m = 1,201 at p = 6 raised a bare MemoryError,
    # and once folded, their float sums came out 1 and 289 terms off; with
    # six symbol keys the largest count at one output is 0.92 * 2**53
    child = run_capped("-c", """
from spspec.coeffs import FourierSymbol
from spspec.evaluators import EvalRequest, direct_sparse_eval
from spspec.indices import SizeFunction, SparseSetSpec, integers
from spspec.spectral import Basis, SpectralVector
for m, p, keys in ((10001, 4, 1), (1201, 6, 1), (1201, 6, 6)):
    u = SpectralVector(Basis.fourier(), {(j,): 1.0 for j in range(m)})
    spec = SparseSetSpec(p, 10**30, 0, SizeFunction.MAX, integers(1))
    symbol = FourierSymbol({(k,): 1.0 for k in range(keys)}, 1)
    print(direct_sparse_eval(EvalRequest(symbol, (u,) * p, spec)).terms == keys * m**p)
""")
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["True"] * 3


def test_a_count_past_2_53_is_refused():
    # seven symbol keys take the largest count at one output to 1.07 * 2**53,
    # where a float64 count line could have rounded
    spec = SparseSetSpec(6, 10**30, 0, SizeFunction.MAX, integers(1))
    symbol = FourierSymbol({(k,): 1.0 for k in range(7)}, 1)
    with pytest.raises(ValueError, match=r"an output has \d+ terms, at or past 2\*\*53"):
        direct_sparse_eval(EvalRequest(symbol, (_ones(1201),) * 6, spec))


# ---------------------------------------------------------------- iterative

def test_iterative_identity_at_p_one():
    # under the unit symbol, with every entry within the budget
    u = fvec({0: 1.0, 2: 0.5})
    res = iterative_eval(UNIT, (u,), 4, 0)
    assert res.vector == u
    assert res.terms == 2


@pytest.mark.parametrize("alpha", [0, 1])
def test_iterative_at_p_one_is_the_one_slot_direct_evaluation(alpha):
    # one input was returned uncut with 0 terms, whatever the budget, the
    # symbol or the Hermite outputs
    u = fvec({0: 1.0, 1: 0.5, 7: 0.25, -3: 0.125j})
    for symbol in (UNIT, FourierSymbol.inverse_two_minus_cos()):
        for n in (3, 8):
            want = direct([u], n, alpha, symbol)
            got = iterative_eval(symbol, [u], n, alpha)
            assert got.terms == want.terms > 0
            assert digest(got.vector) == digest(want.vector)
            if symbol is UNIT:  # the output 7 has the term u_7 alone
                assert ((7,) in got.vector.keys()) == (alpha == 0 and n == 8)
    h = SpectralVector(HERMITE, {(j,): complex(1.0 / (1 + j), 0.0) for j in (0, 1, 5, 9, 30)})
    cache = HermiteCache(1)
    domain = tuple((ell,) for ell in range(13)) if alpha == 0 else None
    want = direct([h], 6, alpha, cache, output_domain=domain)
    got = iterative_eval(cache, [h], 6, alpha, ell_cap=12)
    assert got.terms == want.terms > 0
    assert digest(got.vector) == digest(want.vector)
    assert max(ell for (ell,) in got.vector) <= 12
    with pytest.raises(ValueError, match="needs ell_cap"):
        iterative_eval(cache, [h], 6, 0)


def test_iterative_bitwise_equal_at_p_two():
    u = power_law_vector(2.5, 16, FOURIER)
    v = fvec({-2: 0.3, 1: -1.25, 3: 0.7})
    for alpha in (0, 1):
        direct_res = direct([u, v], 8, alpha)
        iter_res = iterative_eval(UNIT, (u, v), 8, alpha)
        assert iter_res.vector == direct_res.vector
        assert iter_res.terms == direct_res.terms


def test_iterative_needs_an_input():
    with pytest.raises(ValueError, match="^need at least one input$"):
        iterative_eval(UNIT, [], 4, 0)


def test_iterative_hermite_uses_pair_cache():
    u = SpectralVector(HERMITE, {(0,): 1.0, (1,): 0.5})
    res = iterative_eval(HermiteCache(2), (u, u, u), 6, 1)
    ref = dense_oracle_hermite((u, u, u), 200, 6)
    # the fold truncates against the same budget at every stage, so this
    # only needs to be close at small degree, not equal
    assert abs(res.vector.get((0,), 0j) - ref.get((0,), 0j)) < 0.05
    # the provider fixes only the basis: its arity and table are not read
    assert iterative_eval(build_cache(3, 2), (u, u, u), 6, 1) == res
    with pytest.raises(ValueError, match="needs ell_cap"):
        iterative_eval(HermiteCache(2), (u, u, u), 6, 0)


def test_iterative_convergence_shape():
    u = power_law_vector(3.0, 512, FOURIER)
    ref = dense_oracle_fourier((u, u, u))
    errs = []
    for n in (8, 32, 128):
        res = iterative_eval(UNIT, (u, u, u), n, 0)
        errs.append(error_report(res.vector, ref))
    assert errs[0] > errs[1] > errs[2]
    slope = math.log(errs[2] / errs[0]) / math.log(128 / 8)
    assert -2.5 < slope < -1.2


# ---------------------------------------------------------------- error metric

def test_error_report_examples():
    u = fvec({0: 1.0})
    z = fvec({})
    assert error_report(u, u) == 0.0
    assert error_report(u, z) == 1.0
    assert error_report(u, z, s=2.0) == 1.0
    v = fvec({2: 1.0})
    assert error_report(v, z, s=2.0) == 4.0
    with pytest.raises(ValueError):
        error_report(u, SpectralVector(HERMITE, {(0,): 1.0}))


def test_error_report_weights_only_the_nonzero_gaps():
    # (2**62) ** 40 passes the float range, so that weight is formed only
    # where its gap is not 0, and then it is named
    far = fvec({2**62: 1.0})
    assert error_report(far, far, s=40.0) == 0.0
    assert error_report(fvec({2**62: 1.0, 1: 0.5}), far, s=40.0) == 0.5
    text = f"index ({2**62},): size ** 40.0 passes the float limit {sys.float_info.max!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        error_report(far, fvec({}), s=40.0)


@pytest.mark.parametrize("s", [0.0, 1.0, -20.0])
@pytest.mark.parametrize("approx,reference", [
    ({0: 1e308}, {0: -1e308}),  # one gap past the float range
    ({0: 1.5e308}, {1: 1.5e308}),  # two finite gaps whose sum passes it
    ({2**62: 1e308}, {2**62: -1e308}),  # at s = -20 its weight is 0.0, times inf nan
])
def test_error_report_refuses_a_distance_past_the_float_range(approx, reference, s):
    text = f"the weighted sum passes the float limit {sys.float_info.max!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        error_report(fvec(approx), fvec(reference), s)


@pytest.mark.parametrize("dim", [1, 2])
def test_error_report_sums_in_key_order(dim):
    """The same float, bit for bit, as the plain sum over the sorted union."""
    rng = random.Random(dim)
    cells = list(itertools.product(range(-9, 10), repeat=dim))
    a, b = (
        SpectralVector(
            Basis.fourier(dim),
            {j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for j in rng.sample(cells, 15)},
        )
        for _ in range(2)
    )
    for s in (0.0, 1.5):
        for size in SizeFunction:
            keys = sorted(set(a) | set(b))
            terms = (size.of(j) ** s * abs(a.get(j, 0j) - b.get(j, 0j)) for j in keys)
            want = functools.reduce(operator.add, terms, 0.0)
            assert error_report(a, b, s, size) == want


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("supports", ["disjoint", "overlapping", "identical", "empty"])
def test_error_report_is_the_python_sum_bit_for_bit(dim, supports):
    """Thousands of random gaps, summed and one at a time: an abs that rounds
    differently from Python's moves some sums and many single gaps."""
    rng = random.Random(f"{dim}-{supports}")
    reach = 3000 if dim == 1 else 40
    cells = rng.sample(list(itertools.product(range(-reach, reach + 1), repeat=dim)), 4000)
    basis = Basis.fourier(dim)

    def vector(picked):
        return SpectralVector(
            basis, {j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for j in picked}
        )

    a, b = {
        "disjoint": lambda: (vector(cells[:2000]), vector(cells[2000:])),
        "overlapping": lambda: (vector(cells[:2500]), vector(cells[1500:])),
        "identical": lambda: (vector(cells[:2500]), vector(cells[:2500])),
        "empty": lambda: (vector(cells[:2500]), vector([])),
    }[supports]()
    pairs = [(a, b), (b, a), (b, b)]
    for s in (0.0, 1.5):
        for size in SizeFunction:
            for x, y in pairs:
                keys = sorted(set(x) | set(y))
                terms = (size.of(j) ** s * abs(x.get(j, 0j) - y.get(j, 0j)) for j in keys)
                want = functools.reduce(operator.add, terms, 0.0)
                assert error_report(x, y, s, size) == want
    assert error_report(b, b) == 0.0
    for j in sorted(set(a) | set(b))[:300]:
        x, y = (SpectralVector(basis, {j: u[j]} if j in u else {}) for u in (a, b))
        assert error_report(x, y) == abs(a.get(j, 0j) - b.get(j, 0j))


# the sign bit and the byte order of each coordinate decide where these sort
EDGE_COORDS = (0, 1, -1, 2**31, -(2**31), 2**62, -(2**62), 2**63 - 1, -(2**63 - 1))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("supports", ["disjoint", "overlapping", "identical", "empty", "unit"])
def test_error_report_at_the_edge_of_the_int64_range(dim, supports):
    """Keys at +-(2**63 - 1), +-2**62 and +-2**31: each distance is the sum of
    the nonzero weighted gaps over the sorted union added from the left, or,
    where a weight passes the float range, the ValueError naming the largest
    index.  At s = 10**3 only sizes 1 and 2 stay finite, hence "unit"."""
    rng = random.Random(f"edge-{dim}-{supports}")
    cells = list(itertools.product(EDGE_COORDS, repeat=dim))
    if supports == "unit":
        cells = [j for j in cells if max(map(abs, j)) <= 1]
    rng.shuffle(cells)
    n = len(cells)

    def vector(picked):
        return SpectralVector(Basis.fourier(dim), {
            j: complex(rng.choice((0.0, -0.0, rng.uniform(-1, 1))), rng.uniform(-1, 1))
            for j in picked
        })

    a, b = {
        "disjoint": lambda: (vector(cells[: n // 2]), vector(cells[n // 2 :])),
        "overlapping": lambda: (vector(cells[: 2 * n // 3]), vector(cells[n // 3 :])),
        "identical": lambda: (vector(cells), vector(cells)),
        "empty": lambda: (vector(cells), vector([])),
        "unit": lambda: (vector(cells[: 2 * n // 3]), vector(cells[n // 3 :])),
    }[supports]()
    limit = sys.float_info.max
    for s in (0.0, 1.5, 1e3):
        for size in SizeFunction:
            assert error_report(b, b, s, size) == 0.0
            for x, y in [(a, b), (b, a)]:
                gaps = ((j, abs(x.get(j, 0j) - y.get(j, 0j))) for j in sorted(set(x) | set(y)))
                held = [(j, g) for j, g in gaps if g]
                try:
                    want = functools.reduce(operator.add, (size.of(j) ** s * g for j, g in held), 0.0)
                except OverflowError:
                    j = max((j for j, _ in held), key=size.of)
                    text = f"index {j}: size ** {s} passes the float limit {limit!r}"
                    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                        error_report(x, y, s, size)
                else:
                    assert error_report(x, y, s, size) == want


def test_error_report_adds_the_gaps_from_left_to_right():
    """At s = 0 the distance is the gaps over the sorted union added one at a
    time from 0.0, at the size of the fourier benchmark's reference (a union
    of 12,289 keys); a compensated sum, as Python 3.12's, would differ."""
    rng = random.Random("gaps")

    def vector(reach, scale):
        return SpectralVector(FOURIER, {
            (k,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale
            for k in range(-reach, reach + 1)
        })

    a, b, empty = vector(2048, 1.0), vector(6144, 1e-3), fvec({})
    keys = sorted(set(a) | set(b))
    assert len(keys) == 12289
    gaps = [abs(a.get(j, 0j) - b.get(j, 0j)) for j in keys]
    assert error_report(a, b) == functools.reduce(operator.add, gaps, 0.0)
    assert error_report(b, empty) == functools.reduce(operator.add, map(abs, b.values()), 0.0)
    assert error_report(empty, empty) == 0.0


def test_monotone_error_and_alpha_ordering():
    u = power_law_vector(3.0, 256, FOURIER)
    ref = dense_oracle_fourier((u, u, u))
    last = {0: math.inf, 1: math.inf}
    for n in (4, 8, 16, 32, 64):
        errs = {}
        for alpha in (0, 1):
            res = direct([u, u, u], n, alpha)
            errs[alpha] = error_report(res.vector, ref)
            assert errs[alpha] <= last[alpha] + 1e-13
        assert errs[1] >= errs[0] - 1e-13
        last = errs


def test_eq4_style_bound_on_sampled_cases():
    u = power_law_vector(3.0, 128, FOURIER)
    ref = dense_oracle_fourier((u, u))
    for n in (4, 16, 64):
        res = direct([u, u], n, 0)
        err = error_report(res.vector, ref)
        for sp in (1.0, 1.5, 1.9):
            assert err <= n**-sp * l1s_norm(u, sp) ** 2


# ---------------------------------------------------------------- rate formulas

def test_predicted_rate_example():
    got = predicted_rate(0.0, 2.0, 1.0, theta=0.0, nu=0.0, kappa=1.01, alpha=0)
    assert got.valid
    assert abs(got.value - 0.99) < 1e-12


def test_predicted_rate_half_theta_consistency():
    # at theta=1/2, alpha=1, s=0 the formula collapses to
    # min((s' - kappa/2)/2, s' - kappa/2 - nu)
    for sp, nu, kappa in [(9.0, 0.25, 1.5), (4.0, 0.2, 1.01), (2.0, 0.5, 1.5)]:
        got = predicted_rate(0.0, sp, 1.0, theta=0.5, nu=nu, kappa=kappa, alpha=1)
        want = min((sp - kappa / 2.0) / 2.0, sp - kappa / 2.0 - nu)
        assert abs(got.value - want) < 1e-12


def test_predicted_rate_flags_invalid_parameters():
    got = predicted_rate(3.0, 1.0, 1.0, theta=0.0, nu=0.0, kappa=1.01, alpha=0)
    assert not got.valid


def test_predicted_rate_iterative_matches_base_case():
    base = predicted_rate(0.0, 3.0, 1.0, theta=0.5, nu=0.25, kappa=1.5, alpha=1)
    two = predicted_rate_iterative(2, 0.0, 3.0, theta=0.5, nu=0.25, kappa=1.5, alpha=1)
    assert two.value == base.value
    with pytest.raises(ValueError):
        predicted_rate_iterative(1, 0.0, 3.0, theta=0.5, nu=0.25, kappa=1.5, alpha=1)


def test_predicted_rate_iterative_degrades_with_p():
    kw = dict(theta=0.5, nu=0.25, kappa=1.5, alpha=1)
    r3 = predicted_rate_iterative(3, 0.0, 9.0, **kw)
    r5 = predicted_rate_iterative(5, 0.0, 9.0, **kw)
    assert r5.value <= r3.value


def test_eval_result_is_immutable():
    res = EvalResult(fvec({0: 1.0}), 1)
    with pytest.raises(AttributeError):
        res.terms = 2  # type: ignore[misc]


# ------------------------------------------------------- brute-force guard
#
# Reference: for every candidate ell, the sum over enumerate_sparse(spec, ell)
# of b_{ell - sum js} * prod u_j, with a term counted when every u_j and the
# symbol entry are stored.  It shares no code with either evaluator.

GUARD_SYMBOLS = {
    "unit": lambda d: {(0,) * d: 1.0},
    "three": lambda d: {(-1,) + (0,) * (d - 1): 0.5 - 0.25j, (0,) * d: 1.0, (1,) * d: -0.75j},
}


def _guard_inputs(d: int, p: int, seed: int, wide: bool = False) -> tuple[SpectralVector, ...]:
    """Random complex entries on the origin plus a random handful of cells.

    With wide=True the origin is left out and every cell has a coordinate of
    magnitude 2 or more, so no entry has size 1 under either norm and the
    least admissible budget of a slot suffix exceeds 1.
    """
    rng = random.Random(seed)
    reach = 3 if d == 1 else 2
    least = 2 if wide else 1
    cells = [j for j in itertools.product(range(-reach, reach + 1), repeat=d)
             if max(map(abs, j)) >= least]
    return tuple(
        SpectralVector(
            Basis.fourier(d),
            {
                j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for j in [(0,) * d] * (not wide) + rng.sample(cells, 4 if d == 1 else 8)
            },
        )
        for _ in range(p)
    )


def _brute_sum(symbol: FourierSymbol, inputs, spec: SparseSetSpec, ells):
    values, terms = {}, 0
    stored = {}  # the tuples over stored entries, by what enumerate_sparse reads of ell
    for ell in ells:
        size = spec.size.of(ell)
        key = (spec.level // size**spec.alpha, spec.box is None or size <= spec.box)
        if key not in stored:
            stored[key] = [js for js in enumerate_sparse(spec, ell)
                           if all(j in u for j, u in zip(js, inputs))]
        acc, hits = 0j, 0
        for js in stored[key]:
            m = tuple(e - sum(c) for e, c in zip(ell, zip(*js)))
            if m in symbol.table:
                acc += symbol.table[m] * math.prod(u[j] for j, u in zip(js, inputs))
                hits += 1
        if hits:
            values[ell] = acc
            terms += hits
    return values, terms


def _candidate_ells(symbol: FourierSymbol, inputs, d: int):
    """Every ell that some stored tuple and symbol entry reach."""
    axes = []
    for c in range(d):
        lo = sum(min(j[c] for j in u) for u in inputs) + min(m[c] for m in symbol.table)
        hi = sum(max(j[c] for j in u) for u in inputs) + max(m[c] for m in symbol.table)
        axes.append(range(lo, hi + 1))
    return list(itertools.product(*axes))


# ------------------------------------------------------- symbols are vectors

def test_a_symbol_is_a_spectral_vector():
    """The symbol is stored as every coefficient vector is: sorted, pruned
    and read-only, and its table is the symbol itself."""
    entries = {(1, -2): 0.5, (0, 3): 1.0, (-1, 0): 2.0 - 1j, (2, 2): 0.5 * PRUNE_TOL}
    symbol = FourierSymbol(entries, 2)
    assert isinstance(symbol, SpectralVector) and symbol.basis == Basis.fourier(2)
    assert symbol.table is symbol
    keys, vals = symbol.as_arrays()
    assert keys.dtype == np.int64 and keys.shape == (3, 2)
    assert keys.tolist() == [[-1, 0], [0, 3], [1, -2]]  # (2, 2) is below PRUNE_TOL
    assert vals.tolist() == [2.0 - 1j, 1.0, 0.5]
    for a in (keys, vals):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert symbol == SpectralVector(Basis.fourier(2), entries)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alpha", [0, 1])
def test_a_fourier_vector_is_the_symbol_of_its_entries(d, alpha):
    """A Fourier SpectralVector as the provider runs the Fourier kernel, and
    gives the vector and terms of the FourierSymbol on its entries bit for
    bit; as the oracle's symbol it is that symbol."""
    inputs = _guard_inputs(d, 3, 40 + d)
    spec = SparseSetSpec(3, 6, alpha, SizeFunction.MAX, integers(d))
    runs = (lambda b: direct_sparse_eval(EvalRequest(b, inputs, spec)),
            lambda b: iterative_eval(b, inputs, 6, alpha))
    for make in GUARD_SYMBOLS.values():
        symbol, vector = FourierSymbol(make(d), d), SpectralVector(Basis.fourier(d), make(d))
        for run in runs:
            want, got = run(symbol), run(vector)
            assert got.terms == want.terms > 0
            assert dump_vector(got.vector) == dump_vector(want.vector)
        assert dump_vector(dense_oracle_fourier(inputs, vector)) == dump_vector(
            dense_oracle_fourier(inputs, symbol))


def test_a_value_past_the_float_range_is_refused_in_every_coefficient_family():
    limit = re.escape(repr(sys.float_info.max))
    message = rf"^coefficient at index \(0,\) has a magnitude past the float limit {limit}$"
    u, v = fvec({0: 1.2e154}), fvec({0: complex(1.2e154, 1.2e154)})  # u * v is about 2.0e308
    for build in (lambda: direct([u, v], 4, 0), lambda: dense_oracle_fourier([u, v]),
                  lambda: FourierSymbol({(0,): complex(1.5e308, 1.5e308)})):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize("d,size,alpha,box,sym", [
    (d, size, alpha, box, sym)
    for d in (1, 2)
    for size in SizeFunction
    for alpha in (0, 1)
    for box in (None, 3, 12)
    for sym in GUARD_SYMBOLS
])
def test_direct_fourier_matches_brute_force(d, size, alpha, box, sym):
    p, level = (3, 8) if d == 1 else (2, 6)
    seed = 17 * d + 3 * alpha + (box or 0)
    symbol = FourierSymbol(GUARD_SYMBOLS[sym](d), d)
    # the wide inputs need a larger budget before the product norm admits a
    # tuple: at the plain level that norm leaves them no term at all
    for inputs, n in ((_guard_inputs(d, p, seed), level),
                      (_guard_inputs(d, 1, seed), level),
                      (_guard_inputs(d, p, seed, wide=True), level),
                      (_guard_inputs(d, p, seed, wide=True), 4 * level)):
        spec = SparseSetSpec(len(inputs), n, alpha, size, integers(d), box=box)
        ells = _candidate_ells(symbol, inputs, d)
        domain = tuple(ells[::3]) + ((40,) * d,)
        scale = (math.prod(l1s_norm(u, 0.0) for u in inputs)
                 * sum(abs(v) for v in symbol.table.values()))
        for dom in (None, domain):
            want, want_terms = _brute_sum(symbol, inputs, spec, ells if dom is None else dom)
            got = direct_sparse_eval(EvalRequest(symbol, inputs, spec, output_domain=dom))
            assert got.terms == want_terms
            assert set(got.vector) == set(want)
            assert all(abs(got.vector[ell] - v) <= 1e-14 * scale for ell, v in want.items())
    # an empty input or an empty symbol table has no term anywhere
    empty = SpectralVector(Basis.fourier(d), {})
    for provider, inputs in ((symbol, (empty,) + inputs[1:]), (FourierSymbol({}, d), inputs)):
        for dom in (None, domain):
            got = direct_sparse_eval(EvalRequest(provider, inputs, spec, output_domain=dom))
            assert not got.vector and got.terms == 0


@pytest.mark.parametrize("size", list(SizeFunction))
def test_alpha_one_is_alpha_zero_at_the_output_budget(size):
    """X_ell at alpha = 1 is the alpha = 0 sum at budget N // size(ell), read at ell."""
    d, level = 1, 24
    inputs = _guard_inputs(d, 3, seed=5)
    symbol = FourierSymbol(GUARD_SYMBOLS["three"](d), d)
    spec1 = SparseSetSpec(3, level, 1, size, integers(d))
    gated = direct_sparse_eval(EvalRequest(symbol, inputs, spec1))
    assert gated.vector
    for ell in _candidate_ells(symbol, inputs, d):
        budget = level // size.of(ell)
        if budget < 1:
            assert ell not in gated.vector
            continue
        spec0 = SparseSetSpec(3, budget, 0, size, integers(d))
        plain = direct_sparse_eval(EvalRequest(symbol, inputs, spec0, output_domain=(ell,))).vector
        want = plain.get(ell, 0j)
        assert abs(gated.vector.get(ell, 0j) - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("size", list(SizeFunction))
def test_direct_fourier_ignores_indices_far_beyond_the_budget(size):
    # the product-norm size (1 + (2**32 - 1))**2 = 2**64 wraps to 0 in
    # 64-bit integers; such an entry must still be too large for the budget
    basis = Basis.fourier(2)
    near = {(0, 0): 1.0, (1, -1): 0.5, (0, 2): -0.25}
    far = {**near, (2**32 - 1, 2**32 - 1): 3.0, (-(2**40), 0): 2.0}
    spec = SparseSetSpec(2, 6, 0, size, integers(2))
    unit = FourierSymbol.unit(2)
    want = direct_sparse_eval(EvalRequest(unit, (SpectralVector(basis, near),) * 2, spec))
    got = direct_sparse_eval(EvalRequest(unit, (SpectralVector(basis, far),) * 2, spec))
    assert got == want


# ------------------------------------------------------- Hermite brute force
#
# Reference: for every ell, math.fsum over enumerate_sparse(spec, ell) of
# hermite_product_integral(ell, js) * prod u_j, over the tuples whose every
# j is stored.  Every such tuple counts as a term, as in the evaluator; an
# ell is in the output when one of its terms has even degree sum, the
# others vanishing by parity.  A term's coefficient is an integral of
# functions bounded by pi**-0.25, so quadrature roundoff is absolute in it:
# an ell's term mass, the fsum of |prod u_j| over its nonvanishing terms,
# is the scale of its rounding error.

HERMITE_GUARD_INPUTS = {
    "power": power_law_vector(2.0, 10, HERMITE),
    "even": SpectralVector(HERMITE, {(j,): (-0.5) ** (j // 2) for j in range(0, 13, 2)}),
    "odd": SpectralVector(HERMITE, {(j,): 1.5 / j for j in range(1, 12, 2)}),
    "sparse": SpectralVector(HERMITE, {(0,): 1.0, (1,): -0.6, (40,): 0.3}),
    # no entry of size 1 under either norm
    "wide": SpectralVector(HERMITE, {(2,): 1.0, (3,): -0.6, (7,): 0.3}),
    "empty": SpectralVector(HERMITE, {}),
}
HERMITE_GUARD_LEVEL = 42  # the sparse input's 40 enters under either norm
HERMITE_GUARD_DOMAIN = tuple((ell,) for ell in (0, 1, 2, 3, 5, 8, 13, 21, 40, 44))


@functools.cache
def _hermite_coefficient(key: tuple[int, ...]) -> float:
    return hermite_product_integral(key)


def _hermite_brute_sums(input_sets, spec: SparseSetSpec, ells):
    """(values, terms, term mass per ell) of the budgeted sum for each input tuple."""
    out = [({}, {}, [0]) for _ in input_sets]
    stored = {}  # the tuples over stored entries per input tuple, by what they depend on
    for ell in ells:
        size = spec.size.of(ell)
        key = (spec.level // size**spec.alpha, spec.box is None or size <= spec.box)
        if key not in stored:
            tuples = list(enumerate_sparse(spec, ell))
            stored[key] = [
                [js for js in tuples if all(j in u for j, u in zip(js, inputs))]
                for inputs in input_sets
            ]
        for inputs, kept, (values, mass, terms) in zip(input_sets, stored[key], out):
            terms[0] += len(kept)
            parts, sizes = [], []
            for js in kept:
                if (ell[0] + sum(j[0] for j in js)) % 2:
                    continue
                prod = math.prod(u[j] for j, u in zip(js, inputs))
                degrees = tuple(sorted((ell[0], *(j[0] for j in js))))
                parts.append(_hermite_coefficient(degrees) * prod)
                sizes.append(abs(prod))
            if parts:
                values[ell] = complex(math.fsum(v.real for v in parts),
                                      math.fsum(v.imag for v in parts))
                mass[ell] = math.fsum(sizes)
    return [(values, terms[0], mass) for values, mass, terms in out]


def _assert_close_to_brute(got: EvalResult, want):
    values, terms, mass = want
    assert got.terms == terms
    assert set(got.vector) == set(values)
    for ell, v in values.items():
        assert abs(got.vector[ell] - v) <= 1e-14 * mass[ell], ell


@pytest.mark.parametrize("p,alpha,size,box", [
    (p, alpha, size, box)
    for p in (1, 2, 3, 4)
    for alpha in (0, 1)
    for size in SizeFunction
    for box in (None, 3, HERMITE_GUARD_LEVEL + 3)
])
def test_direct_hermite_matches_brute_force(p, alpha, size, box):
    spec = SparseSetSpec(p, HERMITE_GUARD_LEVEL, alpha, size, naturals(1), box=box)
    # each input in the first slot, power-law entries in the others; and the
    # wide input in every slot, so that every slot suffix needs a budget above 1
    rest = (HERMITE_GUARD_INPUTS["power"],) * (p - 1)
    input_sets = [(u,) + rest for u in HERMITE_GUARD_INPUTS.values()]
    input_sets.append((HERMITE_GUARD_INPUTS["wide"],) * p)
    # the second domain lies past the budget at alpha = 1 and past the box of 3
    beyond = ((HERMITE_GUARD_LEVEL + 2,),)
    for domain in (HERMITE_GUARD_DOMAIN if alpha == 0 else None, beyond):
        ells = domain or [(ell,) for ell in range(HERMITE_GUARD_LEVEL + 1)]
        for inputs, want in zip(input_sets, _hermite_brute_sums(input_sets, spec, ells)):
            request = EvalRequest(HermiteCache(p), inputs, spec, output_domain=domain)
            _assert_close_to_brute(direct_sparse_eval(request), want)


@pytest.mark.parametrize("alpha", [0, 1])
def test_iterative_hermite_matches_brute_force(alpha):
    inputs = tuple(HERMITE_GUARD_INPUTS[name] for name in ("power", "odd", "sparse"))
    level, cap = 12, 14
    ells = [(ell,) for ell in range(cap + 1 if alpha == 0 else level + 1)]
    got = iterative_eval(HermiteCache(2), inputs, level, alpha, ell_cap=cap)
    spec = SparseSetSpec(2, level, alpha, SizeFunction.MAX, naturals(1))
    acc, terms = inputs[0], 0
    for u in inputs[1:]:
        [(values, step_terms, mass)] = _hermite_brute_sums([(acc, u)], spec, ells)
        terms += step_terms
        acc = SpectralVector(HERMITE, values)
    _assert_close_to_brute(got, (values, terms, mass))


def _budgeted_projection(u: SpectralVector, p: int, level: int, ell: int) -> float:
    """The transform route on the budgeted sum at alpha = 1: the admitted
    tuples' products prod chi_j evaluated at the nodes of a rule large
    enough for them, summed, and projected onto chi_ell."""
    spec = SparseSetSpec(p, level, 1, SizeFunction.MAX, naturals(1))
    tuples = [js for js in enumerate_sparse(spec, (ell,)) if all(j in u for j in js)]
    top = max(max(j[0] for j in js) for js in tuples)
    n = (ell + p * top) // 2 + 8
    rule = gauss_hermite_rule(n)
    c = math.sqrt((p + 1) / 2.0)
    chi = hermite_batch(max(ell, top), rule.nodes / c)
    values = sum(math.prod(u[j].real * chi[j[0]] for j in js) for js in tuples)
    return float(chi[ell] * values @ rule.scaled_weights) / c


def test_direct_hermite_reaches_past_the_per_coefficient_limit():
    # each coefficient of degree 509 alone needs a rule over the node cap
    u = power_law_vector(10.0, 64, HERMITE)
    spec = SparseSetSpec(3, 600, 1, SizeFunction.MAX, naturals(1))
    got = direct_sparse_eval(EvalRequest(HermiteCache(3), (u,) * 3, spec))
    assert set(got.vector) == {(ell,) for ell in range(601)}
    for ell in (0, 7, 150, 509, 600):  # |X_ell| <= 0.4, and below 1e-16 past ell = 150
        want = _budgeted_projection(u, 3, 600, ell)
        assert abs(got.vector[(ell,)] - want) <= 2e-15, ell


def test_direct_hermite_names_the_degree_limit():
    # at alpha = 1 the largest degree is ell + 3 with ell = N, over {0, 1}
    u = SpectralVector(HERMITE, {(0,): 1.0, (1,): 0.5})
    at_limit = SparseSetSpec(3, 2044, 1, SizeFunction.MAX, naturals(1))
    assert direct_sparse_eval(EvalRequest(HermiteCache(3), (u,) * 3, at_limit)).vector
    past = SparseSetSpec(3, 2045, 1, SizeFunction.MAX, naturals(1))
    with pytest.raises(ValueError, match=r"degree 2048 .* integrates degree 2047 at most"):
        direct_sparse_eval(EvalRequest(HermiteCache(3), (u,) * 3, past))


def test_direct_hermite_refuses_a_huge_budget_by_its_degree(run_capped):
    # the default outputs 0..N asked numpy for 7.45 GiB at N = 10**9 and
    # raised a bare MemoryError; they stop at HERMITE_ELL_CAP
    child = run_capped("-c", """
from spspec.coeffs import HermiteCache
from spspec.evaluators import EvalRequest, direct_sparse_eval
from spspec.indices import SizeFunction, SparseSetSpec, naturals
from spspec.spectral import Basis, SpectralVector
u = SpectralVector(Basis.hermite(), {(0,): 1.0, (3,): 0.5})
spec = SparseSetSpec(2, 10**9, 1, SizeFunction.MAX, naturals(1))
try:
    direct_sparse_eval(EvalRequest(HermiteCache(2), (u, u), spec))
except ValueError as exc:
    print(exc)
""")
    assert child.returncode == 0, child.stderr
    refusal = re.fullmatch(r"the terms reach degree (\d+) .* integrates degree 2047 at most\n",
                           child.stdout)
    assert refusal and 2047 < int(refusal[1]) <= 2060


def test_iterative_hermite_refuses_a_huge_ell_cap_by_its_degree():
    # the domain 0..ell_cap stops at HERMITE_ELL_CAP: the refusal names a
    # degree near it, not ell_cap + 3
    u = SpectralVector(HERMITE, {(0,): 1.0, (3,): 0.5})
    with pytest.raises(ValueError, match=r"integrates degree 2047 at most") as refusal:
        iterative_eval(HermiteCache(2), [u, u], 4, 0, ell_cap=10**5)
    assert 2047 < int(re.search(r"reach degree (\d+)", str(refusal.value))[1]) <= 2060


@pytest.mark.parametrize("size", list(SizeFunction))
@pytest.mark.parametrize("box", [None, 3])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_hermite_tally_matches_brute_force(p, box, size):
    # keys 0 and 1 share size 1 under the max norm, so the size order has a
    # tie at its start; the sparse input's 40 enters only one slot's blocks
    inputs = [HERMITE_GUARD_INPUTS[name] for name in ("sparse", "power", "odd")[:p]]
    spec = SparseSetSpec(p, HERMITE_GUARD_LEVEL, 1, size, naturals(1), box=box)
    kernel = _HermiteClasses(inputs, spec, None)
    stored = [[j for (j,) in u if box is None or size.of((j,)) <= box] for u in inputs]
    for b in range(kernel.need[0], HERMITE_GUARD_LEVEL + 1):
        sums = [sum(js) for js in itertools.product(*stored)
                if math.prod(size.of((j,)) for j in js) <= b]
        want = (sum(s % 2 == 0 for s in sums), sum(s % 2 for s in sums), max(sums))
        assert tuple(kernel.tally(b)) == want, b


@pytest.mark.parametrize("alpha", [0, 1])
def test_hermite_projection_does_not_depend_on_output_order(alpha):
    # at alpha = 0 every ell shares one budget, whose largest ell sets the rule
    inputs = [HERMITE_GUARD_INPUTS[name] for name in ("power", "odd")]
    spec = SparseSetSpec(2, HERMITE_GUARD_LEVEL, alpha, SizeFunction.MAX, naturals(1))
    domain = np.arange(HERMITE_GUARD_LEVEL + 3)[:, None]
    forward = _HermiteClasses(inputs, spec, domain)
    reverse = _HermiteClasses(inputs, spec, domain[::-1])
    assert len(forward.ells) > 20
    assert np.array_equal(reverse.ells[::-1], forward.ells)
    want = forward.evaluate(inputs, HermiteCache(2))
    got = reverse.evaluate(inputs, HermiteCache(2))[::-1]
    assert want.tobytes() == got.tobytes()


@pytest.mark.parametrize("size", list(SizeFunction))
def test_hermite_tally_matches_brute_force_past_saturation(size):
    # from sat[0] on every budget folds as sat[0] does, and admits every tuple
    inputs = [SpectralVector(HERMITE, {(j,): 1.0 for j in keys})
              for keys in (range(12), (0, 2, 3, 5, 8, 13), range(1, 10))]
    spec = SparseSetSpec(3, 10**12, 0, size, naturals(1))
    kernel = _HermiteClasses(inputs, spec, np.array([[0], [1]]))
    tuples = [(math.prod(size.of((j,)) for j in js), sum(js))
              for js in itertools.product(*([j for (j,) in u] for u in inputs))]
    budgets = list(range(kernel.need[0], 200)) + [kernel.sat[0] + d for d in (-1, 0, 1)]
    for b in budgets + [10**6, 10**12]:
        sums = [t for n, t in tuples if n <= b]
        want = (sum(t % 2 == 0 for t in sums), sum(t % 2 for t in sums), max(sums))
        assert tuple(kernel.tally(b)) == want, b
    assert kernel.terms == 2 * len(tuples)


# ------------------------------------------------------- Hermite direct guard
#
# A seeded grid of Hermite direct_sparse_eval and iterative_eval outputs,
# compared with digests of their dump_vector text and their term counts,
# recorded in hermite_golden.json.  It crosses p, alpha, both norms, a box,
# explicit output domains (alpha = 0 without one reads every ell up to
# N + 2), the same vector in every slot or distinct ones, and sigma-law
# inputs with random signs or random complex inputs.

HERMITE_GOLDEN = Path(__file__).with_name("hermite_golden.json")


def hermite_guard_vec(rng: random.Random, law: bool) -> SpectralVector:
    if law:
        u = power_law_vector(rng.choice((2.0, 3.0, 10.0)), rng.choice((8, 24, 64)), HERMITE)
        return SpectralVector(HERMITE, {j: v * rng.choice((1, -1, 1j)) for j, v in u.items()})
    keys = rng.sample(range(5), rng.randint(1, 3)) + rng.sample(range(40), rng.randint(0, 8))
    return SpectralVector(HERMITE, {
        (k,): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.randint(-3, 3)
        for k in keys
    })


def hermite_direct_guard_cases() -> dict[str, tuple[SpectralVector, int]]:
    out = {}
    grid = itertools.product((1, 2, 3, 4), (0, 1), SizeFunction, (False, True), (False, True),
                             (False, True), ("law", "random"), range(2))
    for p, alpha, size, boxed, domain, same, kind, seed in grid:
        name = (f"p{p}-alpha{alpha}-{size.name.lower()}-{'box' if boxed else 'nobox'}"
                f"-{'domain' if domain else 'grid'}-{'same' if same else 'distinct'}-{kind}"
                f"-seed{seed}")
        rng = random.Random(name)
        count = 1 if same else p
        inputs = tuple(hermite_guard_vec(rng, kind == "law") for _ in range(count)) * (p // count)
        level = rng.choice((4, 8, 16, 32, 64))
        box = rng.choice((2, 3, 7, 20)) if boxed else None
        spec = SparseSetSpec(p, level, alpha, size, naturals(1), box=box)
        ells = None
        if domain:
            top = (2 - alpha) * level + 4  # at alpha = 1 every ell past N is dropped
            ells = tuple((rng.randint(0, top),) for _ in range(rng.randint(1, 12)))
        elif alpha == 0:
            ells = tuple((ell,) for ell in range(level + 3))
        got = direct_sparse_eval(EvalRequest(HermiteCache(p), inputs, spec, ells))
        out[name] = got.vector, got.terms
    grid = itertools.product((2, 3, 4), (0, 1), (False, True), ("law", "random"), range(3))
    for p, alpha, same, kind, seed in grid:
        name = f"iterative-p{p}-alpha{alpha}-{'same' if same else 'distinct'}-{kind}-seed{seed}"
        rng = random.Random(name)
        count = 1 if same else p
        inputs = tuple(hermite_guard_vec(rng, kind == "law") for _ in range(count)) * (p // count)
        level = rng.choice((4, 8, 16, 32))
        got = iterative_eval(HermiteCache(2), inputs, level, alpha, ell_cap=level + 2)
        out[name] = got.vector, got.terms
    return out


def test_direct_and_iterative_hermite_keep_their_bits():
    golden = json.loads(HERMITE_GOLDEN.read_text())
    got = {name: [digest(u), terms] for name, (u, terms) in hermite_direct_guard_cases().items()}
    assert len(got) == 584
    assert got == golden


# ------------------------------------------------------- int64 edges
#
# Each case returns the budgeted sum found over the stored entries in
# Python ints, or raises a ValueError that names the int64 limit.

def _stored_brute_sum(inputs, spec: SparseSetSpec, coefficient, ells=None):
    """(values, terms) over every tuple of stored entries within its output's
    budget, at the outputs ells (every sum of a tuple when None)."""
    values, terms = {}, 0
    for js in itertools.product(*inputs):
        reached = [tuple(map(sum, zip(*js)))] if ells is None else ells
        for ell in reached:
            size = spec.size.of(ell) ** spec.alpha * math.prod(map(spec.size.of, js))
            if size <= spec.level:
                terms += 1
                term = coefficient(ell, js) * math.prod(u[j] for j, u in zip(js, inputs))
                values[ell] = values.get(ell, 0) + term
    return {ell: v for ell, v in values.items() if v != 0}, terms


@pytest.mark.parametrize("level", [2**62, 2**63 - 1, 2**63, 2**80])
@pytest.mark.parametrize("alpha", [0, 1])
def test_fourier_budgets_past_int64_match_brute_force(level, alpha):
    # at alpha = 1 and N = 2**63 - 1 the size cap N + 1 overflowed int64
    u = fvec({0: 1.0, 1: 0.5, -3: 0.25})
    spec = SparseSetSpec(2, level, alpha, SizeFunction.PROD, integers(1))
    want, terms = _stored_brute_sum((u, u), spec, lambda ell, js: 1.0)
    got = direct_sparse_eval(EvalRequest(UNIT, (u, u), spec))
    assert dict(got.vector) == want and got.terms == terms == 9


@pytest.mark.parametrize("level", [2**63, 2**80])
def test_hermite_budgets_past_int64_match_brute_force(level):
    # at alpha = 0 and N = 2**63 the budget of every output overflowed int64
    u = SpectralVector(HERMITE, {(0,): 1.0, (1,): 0.5, (3,): -0.25})
    spec = SparseSetSpec(2, level, 0, SizeFunction.MAX, naturals(1))
    domain = ((0,), (1,), (2,), (4,), (7,))
    coefficient = lambda ell, js: _hermite_coefficient(tuple(sorted(ell + sum(js, ()))))
    want, terms = _stored_brute_sum((u, u), spec, coefficient, domain)
    got = direct_sparse_eval(EvalRequest(HermiteCache(2), (u, u), spec, domain))
    assert got.terms == terms == 9 * len(domain)
    assert set(got.vector) == set(want)
    assert all(abs(got.vector[ell] - v) <= 1e-14 for ell, v in want.items())


def _hermite_stored_coefficient(ell, js):
    return _hermite_coefficient(tuple(sorted(ell + sum(js, ()))))


@pytest.mark.parametrize("degree", [2**31, 2**62, 2**63 - 1])
@pytest.mark.parametrize("strict", [True, False])
def test_dense_hermite_names_its_limit_at_degrees_near_int64(degree, strict):
    rng = random.Random(f"hermite-oracle-{degree}-{strict}")
    small = SpectralVector(HERMITE, {(k,): rng.uniform(-1, 1) for k in (0, 1, 3)})
    far = SpectralVector(HERMITE, {(0,): 1.0, (degree,): rng.uniform(-1, 1)})
    # strict: the rule's nodes are too few; loose: the degree passes MAX_DEGREE
    limit = r"8 nodes cannot integrate degree \d+; need at least \d+" if strict else (
        f"degree {degree} exceeds 2047, the Hermite degree limit")
    for inputs, jmax_out in (([far, small], 3), ([small, small], degree), ([far, far], degree)):
        with pytest.raises(ValueError, match=f"^{limit}$"):
            dense_oracle_hermite(inputs, 8, jmax_out, strict=strict)


@pytest.mark.parametrize("level", [2**62, 2**70, 2**80])
@pytest.mark.parametrize("alpha", [0, 1])
@pytest.mark.parametrize("size", list(SizeFunction))
def test_hermite_budgets_from_2_62_to_2_80_match_brute_force(level, alpha, size):
    # every tuple is admitted at every output; the default outputs at
    # alpha = 1 run to HERMITE_ELL_CAP, whose terms pass the rule
    rng = random.Random(f"hermite-budget-{level}-{alpha}-{size.value}")
    u = SpectralVector(HERMITE, {(k,): rng.uniform(-1, 1) for k in (0, 1, 3, 6)})
    domain = ((0,), (1,), (2,), (4,), (7,), (12,))
    limit = "integrates degree 2047 at most|reaches the int64 limit"
    for p in (1, 2, 3):
        spec = SparseSetSpec(p, level, alpha, size, naturals(1))
        want, terms = _stored_brute_sum((u,) * p, spec, _hermite_stored_coefficient, domain)
        got = direct_sparse_eval(EvalRequest(HermiteCache(p), (u,) * p, spec, domain))
        assert got.terms == terms == 4**p * len(domain)
        assert set(got.vector) == set(want)
        assert all(abs(got.vector[ell] - v) <= 1e-14 for ell, v in want.items())
        if alpha:
            with pytest.raises(ValueError, match=limit):
                direct_sparse_eval(EvalRequest(HermiteCache(p), (u,) * p, spec))
    if size is SizeFunction.PROD:  # iterative_eval takes the max-norm size only
        return
    if alpha:
        with pytest.raises(ValueError, match=limit):
            iterative_eval(HermiteCache(3), [u] * 3, level, alpha)
        return
    got = iterative_eval(HermiteCache(3), [u] * 3, level, alpha, ell_cap=7)
    pair = SparseSetSpec(2, level, alpha, size, naturals(1))
    outputs = tuple((ell,) for ell in range(8))
    acc, terms = u, 0
    for _ in range(2):
        want, step_terms = _stored_brute_sum((acc, u), pair, _hermite_stored_coefficient, outputs)
        acc, terms = SpectralVector(HERMITE, want), terms + step_terms
    assert got.terms == terms and set(got.vector) == set(acc)
    assert all(abs(got.vector[ell] - v) <= 1e-13 for ell, v in acc.items())


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0, 1])
@pytest.mark.parametrize("size", list(SizeFunction))
def test_saturated_hermite_supports_of_10_4_entries(p, alpha, size):
    # every key even: each tuple's degree sum is even, and integrates to zero
    # against an odd output, so all m**p tuples count at each and none is
    # kept; with keys of both parities the terms pass the rule
    rng = random.Random(f"hermite-10-4-{p}-{alpha}-{size.value}")
    even = SpectralVector(HERMITE, {(2 * j,): rng.uniform(-1, 1) for j in range(10**4)})
    mixed = SpectralVector(HERMITE, {(j,): rng.uniform(-1, 1) for j in range(10**4)})
    spec = SparseSetSpec(p, 2**62, alpha, size, naturals(1))
    odd = ((1,), (3,), (5,))
    got = direct_sparse_eval(EvalRequest(HermiteCache(p), (even,) * p, spec, odd))
    assert not got.vector and got.terms == len(odd) * 10 ** (4 * p)
    with pytest.raises(ValueError, match=r"the terms reach degree \d+ .* integrates degree 2047"):
        direct_sparse_eval(EvalRequest(HermiteCache(p), (mixed,) * p, spec, odd))
    if p > 1 and size is SizeFunction.MAX:
        with pytest.raises(ValueError, match=r"the terms reach degree \d+ .* integrates degree 2047"):
            iterative_eval(HermiteCache(2), [mixed] * p, 2**62, alpha, ell_cap=5)


def test_budgets_that_stay_past_int64_are_named():
    u = fvec({0: 1.0, 2**62: 0.5})
    spec = SparseSetSpec(2, 2**80, 0, SizeFunction.MAX, integers(1))
    with pytest.raises(ValueError, match=f"budget {2**80} reaches the int64 limit"):
        direct_sparse_eval(EvalRequest(UNIT, (u, u), spec))


def test_flat_keys_past_int64_are_named():
    # c0 * 2001 = 2**64 + 1397: as int64 the flat key of (c0, 0) wrapped onto
    # that of (0, 1397), which read 1 there and 8 terms against 6 admitted
    c0 = -(-(2**64) // 2001)
    u = SpectralVector(Basis.fourier(2), {(0, 0): 1.0, (c0, 0): 0.5, (0, 1000): 0.25})
    spec = SparseSetSpec(2, 10**16, 0, SizeFunction.MAX, integers(2))
    domain = ((0, 0), (c0, 0), (0, 1000), (0, 2000), (0, 1397))
    with pytest.raises(ValueError, match="past the int64 limit"):
        direct_sparse_eval(EvalRequest(FourierSymbol.unit(2), (u, u), spec, domain))
    # no tuple fits the budget: nothing is flattened, and nothing is reached
    tight = SparseSetSpec(2, c0 - 1, 0, SizeFunction.MAX, integers(2))
    far = SpectralVector(Basis.fourier(2), {(c0, 0): 0.5, (0, c0): 0.25})
    got = direct_sparse_eval(EvalRequest(FourierSymbol.unit(2), (far, far), tight))
    assert not got.vector and got.terms == 0


@pytest.mark.parametrize("size", [SizeFunction.MAX, SizeFunction.PROD])
@pytest.mark.parametrize("alpha", [0, 1])
def test_flat_keys_near_int64_match_brute_force(alpha, size):
    # keys reach 2**62, whose triple passes int64, while every key formed and
    # every offset read fits: at alpha = 0 the tuples sum near 2**62, and at
    # alpha = 1 the far slot-0 entry is never placed on a line.  There the
    # domain holds every sum of a tuple, since the default grid spans 2**62.
    far = fvec({2**62: 1.0, 2**62 + 1: 0.5} if alpha == 0 else {0: 1.0, 2**62: 1.0})
    near = fvec({0: 1.0, 1: 0.5})
    spec = SparseSetSpec(2, 2**62 + 2 - 2 * alpha, alpha, size, integers(1))
    domain = None if alpha == 0 else ((0,), (1,), (2**62,), (2**62 + 1,))
    want, terms = _stored_brute_sum((far, near), spec, lambda ell, js: 1.0)
    got = direct_sparse_eval(EvalRequest(UNIT, (far, near), spec, domain))
    assert dict(got.vector) == want and got.terms == terms > 0


def test_dense_fourier_outputs_past_the_coordinate_bound_are_named():
    # the int64 sum of the factors' lows wrapped, and the outputs sat at -2**63
    v = fvec({2**62: 1.0, 2**62 + 1: 0.5})
    with pytest.raises(ValueError, match="past the int64 bound"):
        dense_oracle_fourier([v, v])
    w = fvec({2**61: 1.0, 2**61 + 1: 0.5})
    every = SparseSetSpec(2, 2**200, 0, SizeFunction.MAX, integers(1))  # no budget binds
    want, _ = _stored_brute_sum((w, w), every, lambda ell, js: 1.0)
    assert dense_oracle_fourier([w, w]) == SpectralVector(FOURIER, want)
    assert set(want) == {(2**62,), (2**62 + 1,), (2**62 + 2,)}


@pytest.mark.parametrize("alpha", [0, 1])
def test_boxes_past_int64_cap_nothing(alpha):
    # at alpha = 0 the box reached the size clip unclipped, as a bare OverflowError
    u = fvec({0: 1.0, 1: 0.5})
    spec = SparseSetSpec(2, 8, alpha, SizeFunction.MAX, integers(1), box=2**70)
    got = direct_sparse_eval(EvalRequest(UNIT, (u, u), spec))
    plain = SparseSetSpec(2, 8, alpha, SizeFunction.MAX, integers(1))
    want = direct_sparse_eval(EvalRequest(UNIT, (u, u), plain))
    assert got == want and got.terms == 4


def test_boxes_that_still_cap_past_int64_are_named():
    # the outputs' sizes reach (1 + 2**41)**2, past the box, and it past int64
    basis = Basis.fourier(2)
    far = SpectralVector(basis, {(0, 0): 1.0, (2**40, 2**40): 0.5})
    spec = SparseSetSpec(2, 8, 0, SizeFunction.PROD, integers(2), box=2**70)
    with pytest.raises(ValueError, match=f"box {2**70} reaches the int64 limit"):
        direct_sparse_eval(EvalRequest(FourierSymbol.unit(2), (far, far), spec))


def test_dense_fourier_factor_spans_past_int64_are_named():
    # keys - min wrapped, and numpy raised "Maximum allowed dimension exceeded"
    wide = fvec({-(2**63) + 1: 1.0, 2**63 - 1: 0.5})
    for inputs in ([wide], [wide, fvec({0: 1.0})]):
        with pytest.raises(ValueError, match="flat keys past the int64 limit"):
            dense_oracle_fourier(inputs)


# ------------------------------------------------------- coordinates near 2**31
#
# Seeded supports of one cluster at the origin and one at c * e_axis, either
# sign, for c in 2**31, 2**62 and 2**63 - 1 in d = 1, 2, 3.  At 2**31 the
# output grid, the count lines and the dense oracle's box asked numpy for
# 16 to 32 GiB and raised a bare MemoryError; the capped child keeps such a
# request there.  Each entry point returns the sum over the stored entries
# or a ValueError that names its limit.

_NAMED_LIMIT = re.compile(
    rf"has \d+ entries, past the limit of {evaluators.DENSE_ENTRIES_MAX}$|the int64 (limit|bound)"
)

_FAR_CHILD = """
import json, sys
from spspec.coeffs import FourierSymbol
from spspec.evaluators import EvalRequest, dense_oracle_fourier, direct_sparse_eval, iterative_eval
from spspec.indices import SizeFunction, SparseSetSpec, integers
from spspec.spectral import Basis, SpectralVector
for case in json.loads(sys.argv[1]):
    d, level, alpha = case["d"], case["level"], case["alpha"]
    basis, unit = Basis.fourier(d), FourierSymbol.unit(d)
    u, v = (SpectralVector(basis, {tuple(j): x for j, x in entries}) for entries in case["inputs"])
    spec = SparseSetSpec(2, level, alpha, SizeFunction(case["size"]), integers(d))
    domain = tuple(map(tuple, case["domain"]))
    runs = {
        "direct": lambda: direct_sparse_eval(EvalRequest(unit, (u, v), spec)),
        "domain": lambda: direct_sparse_eval(EvalRequest(unit, (u, v), spec, domain)),
        "iterative": lambda: iterative_eval(unit, [u, v], level, alpha),
        "dense": lambda: dense_oracle_fourier([u, v]),
    }
    for name, run in runs.items():
        try:
            got = run()
        except ValueError as exc:
            print(json.dumps(["refused", str(exc)]))
            continue
        except Exception as exc:
            print(json.dumps(["raised", f"{type(exc).__name__}: {exc}"]))
            continue
        vector, terms = (got, None) if name == "dense" else (got.vector, got.terms)
        print(json.dumps(["ok", [[j, x.real, x.imag] for j, x in vector.items()], terms]))
"""


def test_dense_arrays_are_refused_just_past_the_entry_limit(monkeypatch):
    monkeypatch.setattr(evaluators, "DENSE_ENTRIES_MAX", 64)
    past = r"has 65 entries, past the limit of 64$"
    spec = SparseSetSpec(2, 2**10, 0, SizeFunction.MAX, integers(1))
    one = SparseSetSpec(1, 2**10, 0, SizeFunction.MAX, integers(1))
    assert len(dense_oracle_fourier([fvec({0: 1.0, 63: 0.5})])) == 2
    with pytest.raises(ValueError, match="the output box " + past):
        dense_oracle_fourier([fvec({0: 1.0, 64: 0.5})])
    # the default grid of two slots spans 0..2k
    assert direct_sparse_eval(EvalRequest(UNIT, (fvec({0: 1.0, 31: 0.5}),) * 2, spec)).terms == 4
    with pytest.raises(ValueError, match="the output grid " + past):
        direct_sparse_eval(EvalRequest(UNIT, (fvec({0: 1.0, 32: 0.5}),) * 2, spec))
    # an explicit domain has no grid, and the one slot's line spans 0..k
    assert direct_sparse_eval(EvalRequest(UNIT, (fvec({0: 1.0, 63: 0.5}),), one, ((0,),))).terms == 1
    with pytest.raises(ValueError, match="a count line " + past):
        direct_sparse_eval(EvalRequest(UNIT, (fvec({0: 1.0, 64: 0.5}),), one, ((0,),)))


def _far_cases(seed: int) -> list[dict]:
    rng = random.Random(seed)
    cases = []
    for c, d in itertools.product((2**31, 2**62, 2**63 - 1), (1, 2, 3)):
        for _ in range(3):
            far = [0] * d
            far[rng.randrange(d)] = rng.choice((1, -1)) * c
            inputs = []
            for _ in range(2):
                entries = {}
                for at in rng.choice((((0,) * d,), (far,), ((0,) * d, far))):
                    for _ in range(rng.randint(1, 2)):
                        # one step toward the origin, so a coordinate stays within 2**63 - 1
                        j = tuple(a - (a > 0) * rng.randint(0, 1) + (a < 0) * rng.randint(0, 1)
                                  if a else rng.randint(-1, 1) for a in at)
                        entries[j] = rng.choice((1.0, 0.5, -0.25, 0.75))
                inputs.append(sorted(entries.items()))
            cases.append({
                "d": d, "inputs": inputs, "level": rng.choice((8, 2**40, 2**80)),
                "alpha": rng.randint(0, 1), "size": rng.choice(("max", "prod")),
                "domain": [[0] * d, far],
            })
    return cases


def _fourier_brute(inputs, spec: SparseSetSpec, domain=None):
    """(values, terms) of the unit symbol's sum over every tuple of stored
    entries within its output's budget, at the outputs of domain (all when None)."""
    values, terms = {}, 0
    for js in itertools.product(*inputs):
        ell = tuple(map(sum, zip(*js)))
        if domain is not None and ell not in domain:
            continue
        if spec.size.of(ell) ** spec.alpha * math.prod(map(spec.size.of, js)) <= spec.level:
            terms += 1
            values[ell] = values.get(ell, 0) + math.prod(u[j] for j, u in zip(js, inputs))
    return {ell: v for ell, v in values.items() if v != 0}, terms


@pytest.mark.parametrize("seed", [0, 1])
def test_coordinates_near_2_31_return_the_brute_force_sum_or_a_named_limit(seed, run_capped):
    cases = _far_cases(seed)
    child = run_capped("-c", _FAR_CHILD, json.dumps(cases))
    assert child.returncode == 0, child.stderr
    lines = iter(map(json.loads, child.stdout.splitlines()))
    refused = set()
    for case in cases:
        d, level, alpha = case["d"], case["level"], case["alpha"]
        inputs = [{tuple(j): x for j, x in entries} for entries in case["inputs"]]
        spec = SparseSetSpec(2, level, alpha, SizeFunction(case["size"]), integers(d))
        pair = SparseSetSpec(2, level, alpha, SizeFunction.MAX, integers(d))
        every = SparseSetSpec(2, 2**200, 0, SizeFunction.MAX, integers(d))  # no budget binds
        domain = set(map(tuple, case["domain"]))
        wants = {
            "direct": _fourier_brute(inputs, spec),
            "domain": _fourier_brute(inputs, spec, domain),
            "iterative": _fourier_brute(inputs, pair),
            "dense": (_fourier_brute(inputs, every)[0], None),
        }
        for name, (want, terms) in wants.items():
            kind, *got = next(lines)
            assert kind != "raised", (name, case, got)
            if kind == "refused":
                assert _NAMED_LIMIT.search(got[0]), (name, case, got)
                refused.add(got[0].split(" has ")[0] if "entries" in got[0] else "int64")
                continue
            values, got_terms = got
            assert {tuple(j): complex(re_, im) for j, re_, im in values} == want, (name, case)
            assert got_terms == terms, (name, case)
    assert next(lines, None) is None
    # every new refusal is reached, and so is the int64 one
    assert refused >= {"the output grid", "a count line", "the output box", "int64"}
