"""Coefficient providers a_{ell; j_1..j_p} for the two bases.

Fourier coefficients are momentum lookups in a finite symbol table b_k.
Hermite coefficients are integrals of products of normalized Hermite
functions, computed by Gauss-Hermite quadrature after the substitution
y = x * sqrt(q/2) for q factors, and memoized under sorted keys since the
integral is symmetric in all of its indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from .indices import Index, momentum
from .quadrature import MAX_NODES, gauss_hermite_rule, hermite_batch
from .spectral import Basis

# Node policy for a product of q Hermite functions of degree at most D:
# the substituted integrand is a polynomial of degree <= q*D, integrated
# exactly with ceil(q*D/2) nodes; the +8 margin absorbs roundoff.
POLICY_ID = "halfdeg8"
SELF_CHECK_TOL = 1e-11

CACHE_MAGIC = "SPSPEC-HERMITE"
CACHE_VERSION = "v1"

# chi tables at substituted nodes, keyed by (n_nodes, q, max_degree);
# recomputation is idempotent so plain dict caching is safe under the GIL.
_chi_tables: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}


def _radius(k: Index) -> int:
    return max((abs(c) for c in k), default=0)


@dataclass(frozen=True)
class FourierSymbol:
    """Finite table of symbol coefficients b_k; a_{ell;js} = b_{ell - sum js}."""

    table: dict[Index, complex]
    dim: int = 1
    decay: tuple[float, float] | None = None  # (amplitude, rate): |b_k| <= A*exp(-rate*|k|)

    def __post_init__(self) -> None:
        clean = {}
        for k, v in self.table.items():
            k = tuple(int(c) for c in k)
            if len(k) != self.dim:
                raise ValueError(f"symbol key {k} does not have dimension {self.dim}")
            v = complex(v)
            if v != 0:
                clean[k] = v
        object.__setattr__(self, "table", dict(sorted(clean.items())))

    @property
    def q(self) -> int:
        """Momentum radius: largest coordinate magnitude with b_k != 0."""
        return max((_radius(k) for k in self.table), default=0)

    @property
    def basis(self) -> Basis:
        return Basis.fourier(self.dim)

    @property
    def momentum_support(self) -> tuple[Index, ...]:
        return tuple(self.table)

    def coefficient(self, ell: Index, js: Sequence[Index]) -> complex:
        return self.table.get(momentum(ell, js), 0j)

    @staticmethod
    def unit(dim: int = 1) -> "FourierSymbol":
        """b = 1: the plain product of the inputs."""
        return FourierSymbol({(0,) * dim: 1.0 + 0j}, dim)

    @staticmethod
    def inverse_two_minus_cos(tol: float = 1e-16) -> "FourierSymbol":
        """b(x) = 1/(2 - cos x): b_k = r**|k| / sqrt(3) with r = 2 - sqrt(3).

        The table is truncated where |b_k| < tol.  The coefficients decay
        geometrically, recorded in the decay field.
        """
        if not tol > 0:  # r**k underflows to 0, which is never below tol <= 0
            raise ValueError(f"tol must be > 0, got {tol}")
        r = 2.0 - math.sqrt(3.0)
        amp = 1.0 / math.sqrt(3.0)
        table = {}
        k = 0
        while True:
            v = amp * r**k
            if v < tol:
                break
            table[(k,)] = v
            if k > 0:
                table[(-k,)] = v
            k += 1
        return FourierSymbol(table, 1, decay=(amp, -math.log(r)))


def hermite_product_integral(indices: tuple[int, ...], node_factor: int = 1) -> float:
    """Integral over the line of the product of chi_{indices[i]}.

    The integrand is P(x) * exp(-q*x**2/2) for q = len(indices); substituting
    y = x*sqrt(q/2) reduces it to the Gauss-Hermite weight, and the scaled
    weights keep the evaluation stable when the Gaussian tails underflow.
    """
    q = len(indices)
    if q < 1:
        raise ValueError("need at least one index")
    if min(indices) < 0:
        raise ValueError(f"Hermite indices must be >= 0, got {indices}")
    deg = max(indices)
    n = (math.ceil(q * deg / 2) + 8) * node_factor
    if n > MAX_NODES:
        limit = 2 * (MAX_NODES // node_factor - 8) // q
        raise ValueError(
            f"degree {deg} exceeds {limit}, the largest a product of {q} Hermite functions"
            f" supports within the {MAX_NODES}-node rule cap"
        )
    key = (n, q, deg)
    cached = _chi_tables.get(key)
    if cached is None:
        rule = gauss_hermite_rule(n)
        c = math.sqrt(q / 2.0)
        chi = hermite_batch(deg, rule.nodes / c)
        weights = rule.scaled_weights / c
        _chi_tables[key] = cached = (weights, chi)
    weights, chi = cached
    prod = chi[indices[0]].copy()
    for i in indices[1:]:
        prod *= chi[i]
    return float(np.dot(weights, prod))


class HermiteCache:
    """Memo table of Hermite product coefficients for a fixed arity.

    The arity p is the number of inputs; keys are sorted (p+1)-tuples
    (ell and the p input indices).  Tuples with odd coordinate sum are
    exactly zero by parity and are never stored.  Writes are idempotent
    single dict assignments, so concurrent readers are safe.
    """

    __slots__ = ("arity", "table")

    def __init__(self, arity: int, table: dict[tuple[int, ...], float] | None = None):
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        self.arity = arity
        self.table = dict(table) if table else {}

    @property
    def basis(self) -> Basis:
        return Basis.hermite()

    @property
    def jmax(self) -> int:
        return max((k[-1] for k in self.table), default=0)

    def coefficient(self, ell, js) -> float:
        """a_{ell; j_1..j_p}, memoized under the sorted key."""
        parts = [ell, *js]
        flat = tuple(int(x[0]) if isinstance(x, tuple) else int(x) for x in parts)
        if len(flat) != self.arity + 1:
            raise ValueError(f"expected {self.arity} input indices, got {len(flat) - 1}")
        if any(x < 0 for x in flat):
            raise ValueError(f"Hermite indices must be >= 0, got {flat}")
        if sum(flat) % 2:
            return 0.0
        key = tuple(sorted(flat))
        value = self.table.get(key)
        if value is None:
            value = hermite_product_integral(key)
            self.table[key] = value
        return value


def build_cache(p: int, jmax: int) -> HermiteCache:
    """Precompute all even-parity coefficients with every index <= jmax."""
    if p < 2:
        raise ValueError(f"bulk build expects arity >= 2, got {p}")
    if jmax < 0:
        raise ValueError(f"jmax must be >= 0, got {jmax}")
    cache = HermiteCache(p)
    try:
        for key in combinations_with_replacement(range(jmax + 1), p + 1):
            if sum(key) % 2 == 0:
                cache.table[key] = hermite_product_integral(key)
    except MemoryError:
        raise RuntimeError(
            f"cache build ran out of memory after {len(cache.table)} entries"
        ) from None
    return cache


def save_cache(cache: HermiteCache, path) -> None:
    """Text format: header line, then one sorted key and value per line."""
    lines = [
        f"{CACHE_MAGIC} {CACHE_VERSION} p={cache.arity} jmax={cache.jmax} policy={POLICY_ID}"
    ]
    for key in sorted(cache.table):
        coords = " ".join(str(c) for c in key)
        lines.append(f"{coords}\t{cache.table[key]!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_cache(path) -> HermiteCache:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty cache file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != CACHE_MAGIC or head[1] != CACHE_VERSION:
        raise ValueError(f"{path}: bad cache header {lines[0]!r}")
    fields = {}
    for part in head[2:]:
        name, _, value = part.partition("=")
        fields[name] = value
    try:
        arity = int(fields["p"])
        jmax = int(fields["jmax"])
    except (KeyError, ValueError):
        raise ValueError(f"{path}: bad cache header {lines[0]!r}") from None
    if fields.get("policy") != POLICY_ID:
        raise ValueError(f"{path}: unsupported node policy {fields.get('policy')!r}")
    table = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{i}: expected 'key<TAB>value'")
        try:
            key = tuple(int(c) for c in parts[0].split())
            value = float(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{i}: malformed entry {line!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{i}: coefficient {value} is not finite")
        if len(key) != arity + 1 or any(c < 0 for c in key) or list(key) != sorted(key):
            raise ValueError(f"{path}:{i}: key {key} is not a sorted tuple of length {arity + 1}")
        if sum(key) % 2:
            raise ValueError(f"{path}:{i}: odd-parity key {key} should not be stored")
        if key and key[-1] > jmax:
            raise ValueError(f"{path}:{i}: key {key} exceeds declared jmax {jmax}")
        table[key] = value
    return HermiteCache(arity, table)
