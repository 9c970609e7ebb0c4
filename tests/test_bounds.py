import math
import tracemalloc

import pytest

from spspec.bounds import SWEEP_ROWS_MAX, KernelBoundReport, a_theta, check_kernel_bound, mu


def test_mu_examples():
    assert mu(((5,), (2,), (1,))) == (5, 2, 1)
    assert mu(((0,), (0,))) == (1, 1)
    assert mu(((3, -4), (1, 1))) == (4, 1)


def test_mu_rejects_empty_tuple():
    with pytest.raises(ValueError):
        mu(())


def test_a_theta_examples():
    assert a_theta((3,), ((3,), (-3,)), 0.7) == 1.0
    got = a_theta((5,), ((2,), (1,)), 0.5)
    assert abs(got - math.sqrt(2.0) / (math.sqrt(2.0) + 3.0)) < 1e-15
    assert a_theta((5,), ((2,), (1,)), 0.0) == 0.25


def test_a_theta_needs_two_inputs():
    with pytest.raises(ValueError):
        a_theta((5,), ((2,),), 0.5)


def test_a_theta_range_and_equality_condition():
    for m1 in (1, 2, 5, 9):
        for m2 in (1, 2, 5, 9):
            for m3 in (1, 2, 5):
                prof = tuple(sorted((m1, m2, m3), reverse=True))
                v = a_theta((prof[0],), ((prof[1],), (prof[2],)), 0.5)
                assert 0.0 < v <= 1.0
                assert (v == 1.0) == (prof[0] == prof[1])


def test_a_theta_non_increasing_in_mu1():
    prev = math.inf
    for m1 in range(3, 12):
        v = a_theta((m1,), ((3,), (2,)), 0.5)
        assert v <= prev
        prev = v


def test_kernel_bound_hand_case():
    # ell=(10,), js=((1,),(1,)), theta=0: lhs = 10 * (1/10) = 1 <= 2
    lhs = 10 * a_theta((10,), ((1,), (1,)), 0.0)
    assert abs(lhs - 1.0) < 1e-15
    assert lhs <= 2.0


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_kernel_bound_sweep_is_clean(p, theta):
    rep = check_kernel_bound(p, 12, theta)
    assert rep.checked == 12 ** (p + 1)
    assert rep.violations == ()
    # the worst ratio is attained when the output size ties the largest
    # input size and the kernel saturates at 1
    assert abs(rep.max_ratio - 0.5) < 1e-12


def test_kernel_bound_validation():
    with pytest.raises(ValueError):
        check_kernel_bound(1, 10, 0.5)
    with pytest.raises(ValueError):
        check_kernel_bound(2, 0, 0.5)


@pytest.mark.parametrize("p,size_max", [(3, 10**4), (2, 600), (2, 162), (3, 46)])
def test_kernel_bound_refuses_a_sweep_past_the_row_limit(p, size_max):
    # (3, 10**4) asked for 71.1 PiB and (2, 600) for 1.61 GiB, each a bare
    # MemoryError under a small enough address-space cap
    rows = size_max ** (p + 1)
    assert rows > SWEEP_ROWS_MAX >= 30**4
    named = (rf"^the sweep has size_max \*\* \(p \+ 1\) = {rows} rows,"
             rf" past the limit of {SWEEP_ROWS_MAX}$")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=named):
            check_kernel_bound(p, size_max, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_report_is_frozen():
    rep = check_kernel_bound(2, 3, 0.5)
    assert isinstance(rep, KernelBoundReport)
    with pytest.raises(AttributeError):
        rep.max_ratio = 0.0  # type: ignore[misc]
