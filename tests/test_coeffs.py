import itertools
import math

import numpy as np
import pytest

from spspec.bounds import a_theta
from spspec.coeffs import (
    CACHE_MAGIC,
    POLICY_ID,
    FourierSymbol,
    HermiteCache,
    build_cache,
    hermite_product_integral,
    load_cache,
    save_cache,
)

# Adaptive-quadrature oracle values (scipy.integrate.quad on the raw
# integrand over the whole line, absolute error estimates below 2e-8).
QUAD_ORACLE = {
    (0, 0, 0): 6.1329143890310212e-01,
    (2, 0, 0): -1.4455417843067964e-01,
    (4, 0, 0): 4.1729196914719061e-02,
    (8, 0, 0): 3.9592317249008370e-03,
    (12, 0, 0): 3.9957231112729450e-04,
    (2, 1, 1): 2.8910835686135949e-01,
    (4, 2, 2): 9.5049837416860142e-02,
    (5, 3, 2): 2.9928978648392071e-02,
    (6, 3, 3): -4.0915101928779632e-02,
    (20, 12, 8): 7.1701323837250489e-02,
    (0, 0, 0, 0): 3.9894228040143320e-01,
    (2, 2, 1, 1): 1.7453724767562681e-01,
    (4, 3, 2, 1): 5.0688907896868737e-02,
    (10, 5, 3, 2): 2.1620057755385377e-02,
}


# ---------------------------------------------------------------- fourier

def test_unit_symbol_is_the_momentum_kronecker():
    sym = FourierSymbol.unit(1)
    assert sym.q == 0
    assert sym.coefficient((3,), ((1,), (2,))) == 1.0
    assert sym.coefficient((3,), ((1,), (1,))) == 0.0
    assert sym.coefficient((0,), ((5,), (-5,))) == 1.0


def test_table_symbol_lookup():
    sym = FourierSymbol({(1,): 2.0 + 0j})
    assert sym.q == 1
    assert sym.coefficient((3,), ((1,), (1,))) == 2.0
    assert sym.coefficient((4,), ((1,), (1,))) == 0.0


def test_momentum_support_is_the_table():
    sym = FourierSymbol({(0,): 1.0, (2,): 0.5})
    assert set(sym.momentum_support) == {(0,), (2,)}


def test_two_minus_cos_symbol_closed_form():
    # 1/(2-cos x) has coefficients (2-sqrt3)^{|k|}/sqrt3
    sym = FourierSymbol.inverse_two_minus_cos()
    r = 2.0 - math.sqrt(3.0)
    amp = 1.0 / math.sqrt(3.0)
    for (k,), b in sym.table.items():
        assert abs(b - amp * r ** abs(k)) < 1e-16
    assert sym.q == 27
    assert abs(amp * r**27) >= 1e-16
    assert abs(amp * r**28) < 1e-16


def test_two_minus_cos_against_trapezoid():
    # periodic trapezoid sums converge spectrally, an independent route
    sym = FourierSymbol.inverse_two_minus_cos()
    xs = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    f = 1.0 / (2.0 - np.cos(xs))
    for k in (0, 1, 5, 12):
        b = complex(np.mean(f * np.exp(-1j * k * xs)))
        assert abs(b - sym.table[(k,)]) < 1e-12


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_two_minus_cos_rejects_non_positive_tol(tol):
    # r**k underflows to 0, never below such a tol: the table would grow forever
    with pytest.raises(ValueError, match="tol"):
        FourierSymbol.inverse_two_minus_cos(tol)


def test_two_minus_cos_decay_metadata():
    sym = FourierSymbol.inverse_two_minus_cos()
    amp, rho = sym.decay
    for (k,), b in sym.table.items():
        assert abs(b) <= amp * math.exp(-rho * abs(k)) * (1.0 + 1e-12)


# ---------------------------------------------------------------- hermite

def test_triple_product_closed_forms():
    # integral of chi_0^3 = pi^{-3/4} * sqrt(2 pi / 3)
    want = math.sqrt(2.0 / 3.0) * math.pi**-0.25
    assert abs(hermite_product_integral((0, 0, 0)) - want) < 1e-12
    # integral of chi_0^4 = 1 / sqrt(2 pi)
    assert abs(hermite_product_integral((0, 0, 0, 0)) - 1.0 / math.sqrt(2 * math.pi)) < 1e-12


@pytest.mark.parametrize("key,want", sorted(QUAD_ORACLE.items()))
def test_product_integrals_match_adaptive_quadrature(key, want):
    assert abs(hermite_product_integral(key) - want) < 5e-8


def test_product_integral_at_the_degree_limit():
    assert abs(hermite_product_integral((1016, 1016)) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="1016"):
        hermite_product_integral((1017, 1017))


@pytest.mark.parametrize("q,limit", [(3, 677), (4, 508)])
def test_product_integral_names_the_degree_limit(q, limit):
    hermite_product_integral((limit,) * 2 + (0,) * (q - 2))
    with pytest.raises(ValueError, match=f"exceeds {limit}"):
        hermite_product_integral((limit + 1,) + (1,) * (q - 1))


def test_product_integral_rejects_negative_indices():
    # chi[-1] would wrap around to the top row
    with pytest.raises(ValueError, match=">= 0"):
        hermite_product_integral((3, -1))


def test_node_policy_self_consistency():
    for key in itertools.combinations_with_replacement(range(0, 21, 4), 3):
        if sum(key) % 2:
            continue
        a = hermite_product_integral(key)
        b = hermite_product_integral(key, node_factor=2)
        assert abs(a - b) < 1e-11


def test_cache_parity_zeros_are_exact():
    cache = HermiteCache(2)
    assert cache.coefficient((0,), ((1,), (0,))) == 0.0
    assert cache.coefficient((3,), ((2,), (2,))) == 0.0
    assert (1, 0, 0) not in cache.table


def test_cache_permutation_symmetry_is_exact():
    cache = HermiteCache(2)
    vals = {
        cache.coefficient(ell, js)
        for ell, js in [
            ((2,), ((0,), (4,))),
            ((4,), ((2,), (0,))),
            ((0,), ((4,), (2,))),
        ]
    }
    assert len(vals) == 1


def test_cache_accepts_bare_integers():
    cache = HermiteCache(2)
    assert cache.coefficient(2, (1, 1)) == cache.coefficient((2,), ((1,), (1,)))


def test_cache_validates_arity_and_sign():
    cache = HermiteCache(2)
    with pytest.raises(ValueError):
        cache.coefficient((0,), ((1,),))
    with pytest.raises(ValueError):
        cache.coefficient((-1,), ((1,), (0,)))
    with pytest.raises(ValueError):
        HermiteCache(0)


def test_hermite_cache_coefficient_closed_form():
    cache = HermiteCache(2)
    want = math.sqrt(2.0 / 3.0) * math.pi**-0.25
    assert abs(cache.coefficient((0,), ((0,), (0,))) - want) < 1e-12


def test_build_cache_small_cases():
    cache = build_cache(2, 1)
    assert set(cache.table) == {(0, 0, 0), (0, 1, 1)}
    assert build_cache(2, 0).table.keys() == {(0, 0, 0)}
    with pytest.raises(ValueError):
        build_cache(1, 3)


def test_small_coefficients_are_kept():
    # far-off-diagonal entries are tiny but they stay as computed
    cache = HermiteCache(2)
    v = cache.coefficient((20,), ((0,), (0,)))
    assert v != 0.0
    assert abs(v) < 1e-5


# ---------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path):
    cache = build_cache(2, 3)
    path = tmp_path / "c.cache"
    save_cache(cache, path)
    again = load_cache(path)
    assert again.arity == cache.arity
    assert again.table == cache.table
    save_cache(again, tmp_path / "c2.cache")
    assert (tmp_path / "c.cache").read_bytes() == (tmp_path / "c2.cache").read_bytes()


def test_cache_file_format(tmp_path):
    path = tmp_path / "c.cache"
    save_cache(build_cache(2, 1), path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"{CACHE_MAGIC} v1 p=2 jmax=1 policy={POLICY_ID}"
    assert len(lines) == 3
    assert lines[1].startswith("0 0 0\t")
    assert lines[2].startswith("0 1 1\t")


def test_empty_cache_saves_header_only(tmp_path):
    path = tmp_path / "e.cache"
    save_cache(HermiteCache(2), path)
    assert len(path.read_text().splitlines()) == 1
    assert load_cache(path).table == {}


def test_load_rejects_tampered_files(tmp_path):
    good = tmp_path / "g.cache"
    save_cache(build_cache(2, 1), good)
    text = good.read_text()

    bad = tmp_path / "bad.cache"
    bad.write_text(text.replace(CACHE_MAGIC, "SOMETHING"))
    with pytest.raises(ValueError, match="header"):
        load_cache(bad)

    bad.write_text(text.replace(f"policy={POLICY_ID}", "policy=other"))
    with pytest.raises(ValueError, match="policy"):
        load_cache(bad)

    bad.write_text(text + "0 1 1 garbage\n")
    with pytest.raises(ValueError, match=":4"):
        load_cache(bad)

    bad.write_text(text + "1 1 1\t0.5\n")
    with pytest.raises(ValueError, match="parity"):
        load_cache(bad)

    bad.write_text(text + "0 2 2\t0.5\n")
    with pytest.raises(ValueError, match="jmax"):
        load_cache(bad)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_coefficients(tmp_path, value):
    path = tmp_path / "c.cache"
    save_cache(build_cache(2, 1), path)
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, first.split("\t")[0] + "\t" + value, *rest]) + "\n")
    with pytest.raises(ValueError, match=f"c.cache:2: coefficient {value} is not finite"):
        load_cache(path)


# ---------------------------------------------------------------- decay shape

def test_coefficient_decay_kernel_bound():
    """|a| * A_{1/2}^{-R} * mu3^{-1/4} stays bounded as the grid grows."""
    cache = HermiteCache(2)

    def fitted_constant(cap: int, R: int) -> float:
        best = 0.0
        for key in itertools.combinations_with_replacement(range(cap + 1), 3):
            if sum(key) % 2:
                continue
            a = cache.coefficient((key[0],), ((key[1],), (key[2],)))
            if a == 0.0:
                continue
            kern = a_theta((key[0],), ((key[1],), (key[2],)), 0.5)
            mu3 = max(1, min(key))
            best = max(best, abs(a) * kern**-R * mu3**-0.25)
        return best

    for R in (2, 4):
        c20 = fitted_constant(20, R)
        c40 = fitted_constant(40, R)
        assert math.isfinite(c40) and c40 > 0.0
        # the empirical constant saturates well inside the grid
        assert c40 <= c20 * (1.0 + 1e-12)
