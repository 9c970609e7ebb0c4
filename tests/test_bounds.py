import math

import pytest

from spspec.bounds import KernelBoundReport, a_theta, check_kernel_bound, mu


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


def test_kernel_bound_report_csv():
    rep = check_kernel_bound(2, 4, 0.5)
    text = rep.csv()
    assert text.splitlines()[0] == "ell_size,j1_size,j2_size,lhs,rhs"
    assert len(text.splitlines()) == 1  # no violations, header only


def test_kernel_bound_report_csv_lists_violations():
    rep = KernelBoundReport(2, 3, 0.5, 1, 1.5, (2, (1, 3)), ((2, (1, 3), 3.0, 2.0),))
    assert rep.csv() == "ell_size,j1_size,j2_size,lhs,rhs\n2,1,3,3.0,2.0\n"


def test_kernel_bound_validation():
    with pytest.raises(ValueError):
        check_kernel_bound(1, 10, 0.5)
    with pytest.raises(ValueError):
        check_kernel_bound(2, 0, 0.5)


def test_report_is_frozen():
    rep = check_kernel_bound(2, 3, 0.5)
    assert isinstance(rep, KernelBoundReport)
    with pytest.raises(AttributeError):
        rep.max_ratio = 0.0  # type: ignore[misc]
