import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

from spspec.quadrature import MAX_NODES, gauss_hermite_rule, hermite_batch

SQRT_PI = math.sqrt(math.pi)


def gaussian_moment(k: int) -> float:
    """Closed form for the integral of x^k e^{-x^2} over the line."""
    if k % 2:
        return 0.0
    return float(gamma((k + 1) / 2.0))


def plain_weights(rule) -> np.ndarray:
    """The weights against e^{-x^2}, from the scaled ones a rule carries."""
    return rule.scaled_weights * np.exp(-rule.nodes**2)


# ---------------------------------------------------------------- rules

def test_one_point_rule():
    rule = gauss_hermite_rule(1)
    assert len(rule.nodes) == 1
    assert rule.nodes[0] == 0.0
    assert abs(plain_weights(rule)[0] - SQRT_PI) < 1e-14


def test_two_point_rule():
    rule = gauss_hermite_rule(2)
    assert np.allclose(rule.nodes, [-1.0 / math.sqrt(2), 1.0 / math.sqrt(2)], atol=1e-14)
    assert np.allclose(plain_weights(rule), [SQRT_PI / 2] * 2, atol=1e-14)


def test_three_point_rule():
    rule = gauss_hermite_rule(3)
    r = math.sqrt(1.5)
    assert np.allclose(rule.nodes, [-r, 0.0, r], atol=1e-14)
    assert np.allclose(plain_weights(rule), [SQRT_PI / 6, 2 * SQRT_PI / 3, SQRT_PI / 6], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 21, 34, 64, 128, 256])
def test_rule_shape_invariants(n):
    rule = gauss_hermite_rule(n)
    assert len(rule.nodes) == n
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-13
    assert np.all(plain_weights(rule) > 0)
    assert np.all(rule.scaled_weights > 0)
    assert abs(plain_weights(rule).sum() - SQRT_PI) < 1e-12


@pytest.mark.parametrize("n", range(1, 21))
def test_rule_exactness_up_to_degree_2n_minus_1(n):
    rule = gauss_hermite_rule(n)
    for k in range(0, 2 * n):
        got = float(np.dot(plain_weights(rule), rule.nodes**k))
        want = gaussian_moment(k)
        # odd moments vanish by symmetric cancellation, so measure those
        # against the magnitude of the terms being cancelled
        scale = max(want, gaussian_moment(k + 1), 1.0)
        assert abs(got - want) / scale < 1e-10


def test_rule_not_exact_beyond_its_degree():
    rule = gauss_hermite_rule(2)
    got = float(np.dot(plain_weights(rule), rule.nodes**4))
    assert abs(got - gaussian_moment(4)) > 1e-3


def test_large_rules_stay_usable():
    # plain weights would underflow towards the tails here; the scaled ones must not
    rule = gauss_hermite_rule(MAX_NODES)
    assert len(rule.nodes) == MAX_NODES
    assert np.all(np.isfinite(rule.scaled_weights))
    assert np.all(rule.scaled_weights > 0)


def test_node_count_cap():
    with pytest.raises(ValueError, match="exceed the supported maximum 1024"):
        gauss_hermite_rule(MAX_NODES + 1)
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)


def test_rules_are_cached_and_read_only():
    a = gauss_hermite_rule(17)
    assert gauss_hermite_rule(17) is a
    with pytest.raises(ValueError):
        a.nodes[0] = 1.0


# ---------------------------------------------------------------- functions

def test_hermite_function_values_at_zero():
    col = hermite_batch(2, 0.0)
    assert col.shape == (3,)
    assert abs(col[0] - math.pi**-0.25) < 1e-16
    assert col[0] == pytest.approx(0.7511255444649425, abs=1e-15)
    assert col[1] == 0.0
    assert abs(col[2] + math.pi**-0.25 / math.sqrt(2)) < 1e-15


def test_hermite_batch_examples():
    row = hermite_batch(0, np.array([1.0]))
    assert row.shape == (1, 1)
    assert abs(row[0, 0] - math.pi**-0.25 * math.exp(-0.5)) < 1e-15
    col = hermite_batch(2, np.array([0.0]))
    assert np.allclose(
        col[:, 0], [math.pi**-0.25, 0.0, -math.pi**-0.25 / math.sqrt(2)], atol=1e-15
    )


def chi_reference(n: int, x: float) -> float:
    """chi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)) at 40 digits,
    from mpmath's Hermite polynomial: no code shared with the recurrence."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        return float(mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm)


def test_batch_agrees_with_scalar_on_a_grid():
    xs = np.linspace(-5.0, 5.0, 21)
    table = hermite_batch(60, xs)
    for n in range(0, 61, 5):
        for i, x in enumerate(xs):
            assert abs(table[n, i] - chi_reference(n, float(x))) < 1e-14


def test_functions_decay_at_large_argument():
    assert hermite_batch(40, 30.0)[40] < 1e-100


@pytest.mark.parametrize("x", [1e6, 1e20])
def test_far_arguments_give_zero_rows_quietly(x):
    # the seed's exponent there is far below any int32; it must be clamped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = hermite_batch(40, x)
    assert rows.shape == (41,)
    assert not rows.any()


def test_orthonormality():
    # integrate chi_m chi_n with the weight factored out: the scaled weights
    # absorb e^{x^2}, so the quadrature sees only the polynomial part
    for m in range(0, 61, 6):
        for n in range(m, 61, 6):
            rule = gauss_hermite_rule((m + n) // 2 + 1)
            table = hermite_batch(max(m, n), rule.nodes)
            got = float(np.dot(rule.scaled_weights, table[m] * table[n]))
            want = 1.0 if m == n else 0.0
            assert abs(got - want) < 1e-10


def test_orthonormal_up_to_the_cap_degree():
    # 1016 is the largest degree a product of two reaches under the node cap;
    # where exp(-x^2/2) underflows, the rows carry a power-of-two exponent
    rule = gauss_hermite_rule(MAX_NODES)
    table = hermite_batch(MAX_NODES - 8, rule.nodes)
    norms = (table * table) @ rule.scaled_weights
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        hermite_batch(-1, 0.0)
