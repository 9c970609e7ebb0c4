"""Size-profile diagnostics behind the coefficient-decay estimates.

Every quantity here depends on an index tuple only through its max-norm
sizes, so exhaustive checks sweep size profiles directly: a sweep over
sizes 1..B covers all indices with max-norm at most B exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .indices import Index, _integers, max_norm

# The most rows check_kernel_bound sweeps.  A row takes 113 (p = 2) to 161
# (p = 4) bytes at its peak, so a sweep at the limit stays under about 0.7 GB.
SWEEP_ROWS_MAX = 2**22


def mu(ks: Sequence[Index]) -> tuple[int, ...]:
    """Max-norm sizes of the tuple, sorted non-increasing (ties kept)."""
    if not ks:
        raise ValueError("profile of an empty tuple is undefined")
    return tuple(sorted((max_norm(k) for k in ks), reverse=True))


def a_theta(ell: Index, js: Sequence[Index], theta: float) -> float:
    """Decay kernel mu2^theta*mu3^(1-theta) / (same + mu1 - mu2).

    The profile is taken over the concatenated tuple (ell, j_1, ..., j_p);
    at least two input indices are needed so that mu3 exists.  The value
    lies in (0, 1] and equals 1 exactly when mu1 = mu2.
    """
    if len(js) < 2:
        raise ValueError("the kernel needs at least two input indices")
    prof = mu((ell, *js))
    m1, m2, m3 = prof[0], prof[1], prof[2]
    g = float(m2) ** theta * float(m3) ** (1.0 - theta)
    return g / (g + (m1 - m2))


@dataclass(frozen=True)
class KernelBoundReport:
    """Outcome of one exhaustive sweep of size(ell)*A_theta <= 2*mu1(js)."""

    checked: int
    max_ratio: float
    violations: tuple[tuple[int, tuple[int, ...], float, float], ...]


def check_kernel_bound(p: int, size_max: int, theta: float) -> KernelBoundReport:
    """Sweep all size profiles with entries in 1..size_max exhaustively.

    Checks size(ell) * A_theta(ell, js) <= 2 * mu1(js) for every profile of
    one output and p input sizes.  Vectorized; p = 3 at size_max = 30 is
    under a million rows.  A sweep of more than SWEEP_ROWS_MAX rows is
    refused before anything is allocated.
    """
    _integers(p=p, size_max=size_max)
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if size_max < 1:
        raise ValueError(f"size_max must be >= 1, got {size_max}")
    if size_max ** (p + 1) > SWEEP_ROWS_MAX:
        raise ValueError(f"the sweep has size_max ** (p + 1) = {size_max ** (p + 1)} rows,"
                         f" past the limit of {SWEEP_ROWS_MAX}")
    axes = np.meshgrid(*([np.arange(1, size_max + 1)] * (p + 1)), indexing="ij")
    grid = np.stack([a.ravel() for a in axes], axis=1).astype(float)
    prof = np.sort(grid, axis=1)[:, ::-1]
    g = prof[:, 1] ** theta * prof[:, 2] ** (1.0 - theta)
    kernel = g / (g + prof[:, 0] - prof[:, 1])
    lhs = grid[:, 0] * kernel
    rhs = 2.0 * grid[:, 1:].max(axis=1)
    bad = np.nonzero(lhs > rhs * (1.0 + 1e-12))[0]
    violations = tuple(
        (int(grid[i, 0]), tuple(int(s) for s in grid[i, 1:]), float(lhs[i]), float(rhs[i]))
        for i in bad
    )
    max_ratio = float((lhs / rhs).max())
    return KernelBoundReport(checked=len(grid), max_ratio=max_ratio, violations=violations)
