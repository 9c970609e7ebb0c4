"""Gauss-Hermite quadrature (weight e^{-x^2}) and normalized Hermite functions.

Nodes come from the symmetric tridiagonal Jacobi matrix of the Hermite
recurrence, polished by one Newton step on the normalized Hermite function
chi_n.  A rule carries only the scaled weights w_i * exp(x_i^2) of the
plain weights w_i, through the stable identity

    w_i * exp(x_i^2) = 1 / (n * chi_{n-1}(x_i)^2)

which never underflows, where the plain weights fall below ~1e-308 once n
grows past a few hundred; integrands that carry their own Gaussian, such as
products of Hermite functions, need no other.

One loop runs the chi recurrence, for the rule builder and hermite_batch.
It carries a power-of-two exponent: near the classical edge of a large rule
the seed exp(-x^2/2) underflows although chi_n there is O(1), and the plain
recurrence would yield zeros that poison the Newton step, the weights and
the coefficients.  Under the node cap a product of q functions reaches
degree 2*(1024-8)//q: 1016 at q=2, 677 at q=3, 508 at q=4 (see coeffs).
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

# The largest rule built: the Hermite kernel's degree limit and the node
# policy of coeffs (with its limits 1016, 677 and 508) derive from it.
MAX_NODES = 1024

_TINY = np.finfo(float).tiny
_LOG2E = math.log2(math.e)


def _chi_rows(nmax: int, x: np.ndarray, t: np.ndarray):
    """Yield (v0, v1, e) for k = 0..nmax: chi_{k-1}(x), chi_k(x) = v * 2**e.

    chi_{-1} = 0.  The caller picks the seed exponent e = floor(t): chi_0 is
    seeded with the plain exp(-x^2/2) where e == 0, as exp2(-x^2/2 log2(e) - e)
    elsewhere; e is clamped so a far-out x, whose rows are zero anyway, cannot
    overflow the int32 cast.  Rescaling by exact powers of two keeps the bits
    of the plain recurrence wherever that one stays in range.  A step grows a
    mantissa by less than 2**7 at rule nodes and 2**16 wherever the seed is
    nonzero, so checking every eighth step keeps it far inside double range.
    """
    s = -0.5 * x * x
    e = np.fmax(np.floor(t), -(2.0**30)).astype(np.int32)  # fmax sends NaN to the clamp
    v1 = math.pi**-0.25 * np.where(e == 0, np.exp(s), np.exp2(s * _LOG2E - e))
    v0 = np.zeros_like(v1)
    yield v0, v1, e
    for k in range(1, nmax + 1):
        v0, v1 = v1, x * math.sqrt(2.0 / k) * v1 - math.sqrt((k - 1.0) / k) * v0
        if k % 8 == 0:
            m = np.maximum(np.abs(v0), np.abs(v1))
            wild = (m > 2.0**500) | ((m > 0.0) & (m < 2.0**-500))
            if wild.any():
                shift = np.where(wild, np.frexp(m)[1], np.int32(0))
                v0 = np.ldexp(v0, -shift)
                v1 = np.ldexp(v1, -shift)
                e = e + shift
        yield v0, v1, e


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and scaled weights w_i * exp(x_i^2) for integrals against e^{-x^2}.

    The integral of f(x) e^{-x^2} is sum(scaled_weights * f(nodes) * exp(-nodes**2)).
    """

    nodes: np.ndarray
    scaled_weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)


def hermite_batch(nmax: int, x) -> np.ndarray:
    """All chi_0(x), ..., chi_nmax(x) as rows, for scalar or array x."""
    if nmax < 0:
        raise ValueError(f"order must be >= 0, got {nmax}")
    x = np.asarray(x, dtype=float)
    s = -0.5 * x * x
    # exponent 0 wherever the plain seed is a normal double: those rows are
    # the plain recurrence bit for bit; elsewhere the exponent carries them
    t = np.where(np.exp(s) >= _TINY, 0.0, s * _LOG2E)
    out = np.empty((nmax + 1,) + x.shape)
    for k, (_, v, e) in enumerate(_chi_rows(nmax, x, t)):
        out[k] = np.ldexp(v, e)
    return out


@functools.lru_cache(maxsize=None)
def gauss_hermite_rule(n: int) -> QuadratureRule:
    """n-node Gauss-Hermite rule, exact for polynomial degree <= 2n - 1.

    Parameters
    ----------
    n : int
        Node count, 1 <= n <= 1024.

    Returns
    -------
    QuadratureRule
        Strictly increasing nodes symmetric about 0 and positive,
        underflow-safe scaled weights.
    """
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    if n > MAX_NODES:
        raise ValueError(f"{n} nodes exceed the supported maximum {MAX_NODES}")
    diag = np.zeros(n)
    off = np.sqrt(np.arange(1, n) / 2.0)
    x = eigh_tridiagonal(diag, off, eigvals_only=True)
    x = 0.5 * (x - x[::-1])  # enforce exact symmetry about 0
    if n > 1:
        # one Newton step on chi_n; chi_n'(x) = sqrt(2n) chi_{n-1}(x) - x chi_n(x);
        # the loop's last pair is chi_{n-1}, chi_n, and maxlen=1 keeps no other row
        v0, v1, _ = deque(_chi_rows(n, x, -0.5 * x * x * _LOG2E), maxlen=1)[0]
        deriv = math.sqrt(2.0 * n) * v0 - x * v1
        x = x - np.divide(v1, deriv, out=np.zeros_like(x), where=deriv != 0.0)
        x = 0.5 * (x - x[::-1])
    if np.any(np.diff(x) <= 0.0):
        bad = int(np.argmax(np.diff(x) <= 0.0))
        raise RuntimeError(f"node refinement failed between nodes {bad} and {bad + 1} for n={n}")
    v0, _, e = deque(_chi_rows(n, x, -0.5 * x * x * _LOG2E), maxlen=1)[0]
    chi_last = np.ldexp(v0, e)  # chi_{n-1} at the nodes is always representable
    scaled = 1.0 / (n * chi_last**2)
    for arr in (x, scaled):
        arr.setflags(write=False)
    return QuadratureRule(nodes=x, scaled_weights=scaled)
