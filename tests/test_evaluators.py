import itertools
import math
import random

import pytest

from spspec.coeffs import FourierSymbol, HermiteCache
from spspec.evaluators import (
    EvalRequest,
    EvalResult,
    dense_oracle_fourier,
    dense_oracle_hermite,
    direct_sparse_eval,
    error_report,
    iterative_eval,
    predicted_rate,
    predicted_rate_iterative,
)
from spspec.indices import SizeFunction, SparseSetSpec, enumerate_sparse, integers, naturals
from spspec.spectral import Basis, SpectralVector, l1s_norm, power_law_vector

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
        assert abs(got.vector.get((ell,), 0j).real - cache.coefficient(ell, (0, 0))) < 1e-14
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
    with pytest.raises(ValueError):
        EvalRequest(HermiteCache(3), (h, h), SparseSetSpec(2, 4, 1, SizeFunction.MAX, naturals(1)))


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


# ---------------------------------------------------------------- iterative

def test_iterative_identity_at_p_one():
    u = fvec({0: 1.0, 2: 0.5})
    res = iterative_eval(UNIT, (u,), 4, 0)
    assert res.vector is u
    assert res.terms == 0


def test_iterative_bitwise_equal_at_p_two():
    u = power_law_vector(2.5, 16, FOURIER)
    v = fvec({-2: 0.3, 1: -1.25, 3: 0.7})
    for alpha in (0, 1):
        direct_res = direct([u, v], 8, alpha)
        iter_res = iterative_eval(UNIT, (u, v), 8, alpha)
        assert iter_res.vector == direct_res.vector
        assert iter_res.terms == direct_res.terms


def test_iterative_needs_max_norm():
    u = fvec({0: 1.0})
    with pytest.raises(ValueError):
        iterative_eval(UNIT, (u, u), 4, 0, size=SizeFunction.PROD)


def test_iterative_hermite_uses_pair_cache():
    u = SpectralVector(HERMITE, {(0,): 1.0, (1,): 0.5})
    res = iterative_eval(HermiteCache(2), (u, u, u), 6, 1)
    ref = dense_oracle_hermite((u, u, u), 200, 6)
    # the fold truncates against the same budget at every stage, so this
    # only needs to be close at small degree, not equal
    assert abs(res.vector.get((0,), 0j) - ref.get((0,), 0j)) < 0.05
    with pytest.raises(ValueError):
        iterative_eval(HermiteCache(3), (u, u, u), 6, 1)


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
            want = float(sum(size.of(j) ** s * abs(a.get(j, 0j) - b.get(j, 0j)) for j in keys))
            assert error_report(a, b, s, size) == want


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


def _guard_inputs(d: int, p: int, seed: int) -> tuple[SpectralVector, ...]:
    """Random complex entries on the origin plus a random handful of cells."""
    rng = random.Random(seed)
    reach = 3 if d == 1 else 2
    cells = [j for j in itertools.product(range(-reach, reach + 1), repeat=d) if any(j)]
    return tuple(
        SpectralVector(
            Basis.fourier(d),
            {
                j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for j in [(0,) * d] + rng.sample(cells, 4 if d == 1 else 8)
            },
        )
        for _ in range(p)
    )


def _brute_sum(symbol: FourierSymbol, inputs, spec: SparseSetSpec, ells):
    values, terms = {}, 0
    for ell in ells:
        acc, hits = 0j, 0
        for js in enumerate_sparse(spec, ell):
            m = tuple(e - sum(c) for e, c in zip(ell, zip(*js)))
            if m in symbol.table and all(j in u for j, u in zip(js, inputs)):
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
    inputs = _guard_inputs(d, p, seed=17 * d + 3 * alpha + (box or 0))
    symbol = FourierSymbol(GUARD_SYMBOLS[sym](d), d)
    spec = SparseSetSpec(p, level, alpha, size, integers(d), box=box)
    ells = _candidate_ells(symbol, inputs, d)
    domain = tuple(ells[::3]) + ((40,) * d,)
    scale = math.prod(l1s_norm(u, 0.0) for u in inputs) * sum(abs(v) for v in symbol.table.values())
    for dom in (None, domain):
        want, want_terms = _brute_sum(symbol, inputs, spec, ells if dom is None else dom)
        got = direct_sparse_eval(EvalRequest(symbol, inputs, spec, output_domain=dom))
        assert got.terms == want_terms
        assert set(got.vector) == set(want)
        assert all(abs(got.vector[ell] - v) <= 1e-14 * scale for ell, v in want.items())


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
