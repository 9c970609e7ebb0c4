"""References that check spspec's outputs without sharing its code paths.

The benchmark's Fourier shapes are not saturating (the inputs reach |k| =
2048, far past every budget), so the dense convolution oracle is the
error reference there, not a check.  The check is a budget-class sum on
dense numpy arrays: the tuples whose sizes multiply to at most B are
summed slot by slot, the inner slots at budget B // k for each size k of
the outer one.  That shares no code with the scatter walk in
`evaluators`, which visits tuples one by one.

The Hermite references evaluate the same budget-class sum pointwise at
numpy's own Gauss-Hermite nodes (`hermgauss`), with a local Hermite
function recurrence, and project onto chi_ell; nothing of
`spspec.quadrature` or `spspec.coeffs` is used, so a parent process can
build them and still fork children with empty coefficient caches.

Every function here is 1-d with max-norm sizes, max(1, |k|).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

HERMITE_NODES = 200  # exact up to polynomial degree 399; the largest needed is 384


def _size(k: int) -> int:
    return max(1, abs(k))


def _dense(u: dict[int, complex]) -> tuple[np.ndarray, int]:
    """Entries on a symmetric window [-r, r]; index k sits at k + r."""
    r = max((abs(k) for k in u), default=0)
    arr = np.zeros(2 * r + 1, dtype=complex)
    for k, v in u.items():
        arr[k + r] = v
    return arr, r


def _size_class(k: int, natural: bool) -> tuple[int, ...]:
    if k == 1:
        return (0, 1) if natural else (-1, 0, 1)
    return (k,) if natural else (-k, k)


def fourier_budget_sum(
    inputs: list[dict[int, complex]], level: int, alpha: int, symbol: dict[int, complex]
) -> dict[int, complex]:
    """X_ell = sum_m b_m sum over js with sum(js) = ell - m and
    size(ell)**alpha * prod size(j_i) <= level of prod u^i_{j_i}."""
    p = len(inputs)
    dense = [_dense(u) for u in inputs]
    memo: dict[tuple[int, int], tuple[np.ndarray, int]] = {}

    def partial(q: int, budget: int) -> tuple[np.ndarray, int]:
        """Sum over slots q..p-1 with size product <= budget, on [-w, w]."""
        key = (q, budget)
        if key in memo:
            return memo[key]
        arr, r = dense[q]
        cap = min(budget, r)
        if q == p - 1:
            out, w = arr[r - cap : r + cap + 1].copy(), cap
        else:
            subs = {k: partial(q + 1, budget // k) for k in range(1, cap + 1)}
            w = cap + max(sw for _, sw in subs.values())
            out = np.zeros(2 * w + 1, dtype=complex)
            for k, (sub, sw) in subs.items():
                for j in _size_class(k, natural=False):
                    if arr[j + r]:
                        out[w + j - sw : w + j + sw + 1] += arr[j + r] * sub
        memo[key] = (out, w)
        return out, w

    b, br = _dense(symbol)

    def convolved(budget: int) -> tuple[np.ndarray, int]:
        y, w = partial(0, budget)
        return np.convolve(y, b), w + br

    if alpha == 0:
        x, off = convolved(level)
        return {i - off: complex(v) for i, v in enumerate(x)}
    out: dict[int, complex] = {}
    by_budget: dict[int, list[int]] = {}
    for ell in range(-level, level + 1):
        by_budget.setdefault(level // _size(ell), []).append(ell)
    for budget, ells in by_budget.items():
        x, off = convolved(budget)
        for ell in ells:
            if abs(ell) <= off:
                out[ell] = complex(x[ell + off])
    return out


def fourier_fold(
    inputs: list[dict[int, complex]], level: int, alpha: int, symbol: dict[int, complex]
) -> list[dict[int, complex]]:
    """Accumulators of the left fold of budgeted binary products, symbol on
    the first fold only; the last entry is the iterative result."""
    acc = [inputs[0]]
    for i, u in enumerate(inputs[1:]):
        b = symbol if i == 0 else {0: 1.0}
        acc.append(fourier_budget_sum([acc[-1], u], level, alpha, b))
    return acc


def indicator(u: dict) -> dict:
    """1 on the nonzero entries of u: a budget sum over indicators counts terms."""
    return {k: 1.0 for k, v in u.items() if v != 0}


def count_terms(inputs: list[dict], level: int, alpha: int, symbol: dict) -> int:
    counts = fourier_budget_sum([indicator(u) for u in inputs], level, alpha, indicator(symbol))
    return round(sum(v.real for v in counts.values()))


def l1_gap(a: dict[int, complex], b: dict[int, complex]) -> float:
    keys = a.keys() | b.keys()
    return float(sum(abs(a.get(k, 0) - b.get(k, 0)) for k in keys))


def max_gap(a: dict[int, complex], b: dict[int, complex]) -> float:
    keys = a.keys() | b.keys()
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in keys), default=0.0)


def l1_norm(u: dict) -> float:
    return float(sum(abs(v) for v in u.values()))


class HermiteNodes:
    """Gauss-Hermite nodes for integrals of q normalized Hermite functions.

    The product carries exp(-q x**2 / 2); substituting y = c x with
    c = sqrt(q / 2) turns it into the weight exp(-y**2), so
    integral f dx = (1 / c) * sum_i w_i exp(y_i**2) f(y_i / c).
    """

    def __init__(self, q: int, degree: int, n: int = HERMITE_NODES):
        y, w = hermgauss(n)
        c = math.sqrt(q / 2.0)
        self.weights = w * np.exp(y * y) / c
        x = y / c
        self.chi = np.empty((degree + 1, n))
        self.chi[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
        if degree >= 1:
            self.chi[1] = math.sqrt(2.0) * x * self.chi[0]
        for k in range(2, degree + 1):
            self.chi[k] = (
                x * math.sqrt(2.0 / k) * self.chi[k - 1] - math.sqrt((k - 1.0) / k) * self.chi[k - 2]
            )

    def project(self, values: np.ndarray, ell: int) -> float:
        return float(np.dot(self.weights, self.chi[ell] * values))


def hermite_transform(u: dict[int, float], p: int, jmax_out: int) -> dict[int, float]:
    """Projection of the p-th power of u onto chi_0 .. chi_jmax_out."""
    deg = max(max(u), jmax_out)
    nodes = HermiteNodes(p + 1, deg)
    values = sum(v * nodes.chi[j] for j, v in u.items()) ** p
    return {ell: nodes.project(values, ell) for ell in range(jmax_out + 1)}


def hermite_budget_sum(u: dict[int, float], p: int, level: int) -> dict[int, float]:
    """X_ell = sum over js with max(1, ell) * prod size(j_i) <= level of
    integral(chi_ell chi_j1 ... chi_jp) * prod u_{j_i}, for ell <= level."""
    nodes = HermiteNodes(p + 1, max(max(u), level))
    top = max(u)
    classes = {
        k: sum(u.get(j, 0.0) * nodes.chi[j] for j in _size_class(k, natural=True))
        for k in range(1, min(level, top) + 1)
    }
    memo: dict[tuple[int, int], np.ndarray] = {}

    def partial(q: int, budget: int) -> np.ndarray:
        key = (q, budget)
        if key not in memo:
            ks = range(1, min(budget, top) + 1)
            if q == p - 1:
                memo[key] = sum(classes[k] for k in ks)
            else:
                memo[key] = sum(classes[k] * partial(q + 1, budget // k) for k in ks)
        return memo[key]

    return {ell: nodes.project(partial(0, level // _size(ell)), ell) for ell in range(level + 1)}
