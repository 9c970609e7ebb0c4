"""Sparse coefficient vectors over Fourier and Hermite index lattices."""

from __future__ import annotations

import cmath
import sys
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .indices import Index, Lattice, SizeFunction, integers, naturals

# Entries smaller than this are dropped on normalization: they cannot
# influence any norm at double precision and would bloat serialized files.
PRUNE_TOL = 1e-300


def _finite(j: Index, v: complex) -> complex:
    if not cmath.isfinite(v):
        raise ValueError(f"coefficient at index {j} is not finite: {v}")
    return v


def _valid_entries(lattice: Lattice, items: Iterable, noun: str = "index") -> dict[Index, complex]:
    """{j: v} of (j, v) pairs, each j a valid index of lattice given once, each
    v finite; noun names a repeated j."""
    clean = {}
    for j, v in items:
        j = lattice.validate(j)
        if j in clean:  # whether its value is kept or not
            raise ValueError(f"{noun} {j} is repeated")
        clean[j] = _finite(j, complex(v))
    return clean


def _sorted_arrays(entries: dict[Index, complex], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, dim) int64 keys of entries in lexicographic order, and their values."""
    order = sorted(entries)
    keys = np.array(order, dtype=np.int64).reshape(len(order), dim)
    return keys, np.array([entries[j] for j in order], dtype=complex)


class BasisKind(Enum):
    FOURIER = "fourier"
    HERMITE = "hermite"


@dataclass(frozen=True)
class Basis:
    kind: BasisKind
    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"basis dimension must be >= 1, got {self.dim}")
        if self.kind is BasisKind.HERMITE and self.dim != 1:
            raise ValueError("the Hermite basis is one-dimensional")

    @property
    def lattice(self) -> Lattice:
        if self.kind is BasisKind.FOURIER:
            return integers(self.dim)
        return naturals(1)

    @staticmethod
    def fourier(dim: int = 1) -> "Basis":
        return Basis(BasisKind.FOURIER, dim)

    @staticmethod
    def hermite() -> "Basis":
        return Basis(BasisKind.HERMITE, 1)


class SpectralVector(Mapping):
    """Immutable finitely supported coefficient family u = (u_j).

    Keys are lattice multi-indices, values complex.  The state is three
    read-only arrays in lexicographic key order: the keys, the values and
    their magnitudes, so that iteration, serialization and norm
    accumulation are deterministic and no norm or distance recomputes a
    magnitude; a lookup by index builds a dict on first use.
    """

    __slots__ = ("basis", "_keys", "_vals", "_mags", "_lookup")

    def __init__(self, basis: Basis, entries: Mapping | Iterable[tuple[Index, complex]]):
        items = entries.items() if isinstance(entries, Mapping) else entries
        self._store(basis, *_sorted_arrays(_valid_entries(basis.lattice, items), basis.dim))

    @classmethod
    def _from_arrays(cls, basis: Basis, keys: np.ndarray, vals: np.ndarray) -> "SpectralVector":
        """The vector of (n, dim) int64 keys, lattice-valid, sorted and unique,
        and their values, with __init__'s finiteness check and prune."""
        bad = np.flatnonzero(~np.isfinite(vals))
        if len(bad):  # raise as __init__ does, at the first in key order
            _finite(tuple(keys[bad[0]].tolist()), complex(vals[bad[0]]))
        self = cls.__new__(cls)
        self._store(basis, keys, vals)
        return self

    def _store(self, basis: Basis, keys: np.ndarray, vals: np.ndarray) -> None:
        with np.errstate(over="ignore"):  # a finite value's magnitude may pass the float range
            mags = np.hypot(vals.real, vals.imag)  # abs as Python rounds it
        big = np.flatnonzero(np.isinf(mags))
        if len(big):  # at the first in key order
            raise ValueError(f"coefficient at index {tuple(keys[big[0]].tolist())} has a magnitude"
                             f" past the float limit {sys.float_info.max!r}")
        keep = mags >= PRUNE_TOL
        keys, vals, mags = keys[keep], vals[keep], mags[keep]
        keys.flags.writeable = vals.flags.writeable = mags.flags.writeable = False
        self.basis, self._keys, self._vals, self._mags, self._lookup = basis, keys, vals, mags, None

    def __getitem__(self, j: Index) -> complex:
        if self._lookup is None:
            self._lookup = dict(self.items())
        return self._lookup[j]

    def __iter__(self) -> Iterator[Index]:
        return zip(*self._keys.T.tolist())  # one list per coordinate, none per row

    def __len__(self) -> int:
        return len(self._vals)

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralVector):
            return NotImplemented
        return (self.basis == other.basis and np.array_equal(self._keys, other._keys)
                and np.array_equal(self._vals, other._vals))

    __hash__ = None  # mutable-looking container semantics; not hashable

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.basis.kind.value}, {len(self)} entries)"

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Keys as an (n, dim) int64 array and values as complex, in key
        order, read-only."""
        return self._keys, self._vals

    def magnitudes(self) -> np.ndarray:
        """abs(v) of each value, as Python rounds it, in key order, read-only."""
        return self._mags


class _Items(ItemsView):
    """The Mapping view, iterated from the arrays without a lookup."""

    def __iter__(self):
        return zip(self._mapping, self._mapping._vals.tolist())


class _Values(ValuesView):
    """The Mapping view, iterated from the arrays without a lookup."""

    def __iter__(self):
        return iter(self._mapping._vals.tolist())


def _weighted_l1(gaps: np.ndarray, keys: np.ndarray | None, s: float, size: SizeFunction) -> float:
    """The sum of size(j) ** s * g over the gaps g >= 0 at the (n, dim) keys
    j (read at s != 0 only), added one term at a time from the left."""
    if s != 0:  # size(j) ** 0 * x == x exactly, so at s = 0 no weight is formed
        # every term is >= +0.0, so leaving out the zero gaps keeps the sum's
        # bits, and a weight is formed only where its gap counts
        held = [(tuple(j), g) for j, g in zip(keys.tolist(), gaps.tolist()) if g]
        try:
            gaps = np.array([size.of(j) ** s * g for j, g in held])
        except OverflowError:  # the weight grows with the size, so the largest passes
            j, limit = max((j for j, _ in held), key=size.of), sys.float_info.max
            raise ValueError(f"index {j}: size ** {s} passes the float limit {limit!r}") from None
    # added one at a time from the left on every Python (its sum compensates
    # from 3.12 on), so a sum keeps its bits across versions; a gap, a
    # weighted term or a partial sum past the float range leaves it infinite
    with np.errstate(over="ignore"):
        total = float(np.add.accumulate(gaps)[-1]) if len(gaps) else 0.0
    if not total <= sys.float_info.max:  # inf, or nan where a weight 0.0 met an inf gap
        raise ValueError(f"the weighted sum passes the float limit {sys.float_info.max!r}")
    return total


def l1s_norm(u: SpectralVector, s: float, size: SizeFunction = SizeFunction.MAX) -> float:
    """Weighted absolute-sum norm: sum of size(j)**s * |u_j|, added one term
    at a time from the left in key order."""
    return _weighted_l1(u.magnitudes(), u.as_arrays()[0], s, size)


def power_law_vector(sigma: float, cutoff: int, basis: Basis) -> SpectralVector:
    """Test family u_k = (1 + |k|)**(-sigma) truncated at |k| <= cutoff.

    For Fourier, |k| is the largest coordinate magnitude (so u_0 = 1 in any
    dimension); for Hermite, |k| = k.  sigma must exceed 1 so the family has
    finite weighted l1 norms below the critical exponent.
    """
    if not sigma > 1:
        raise ValueError(f"power-law exponent must be > 1, got {sigma}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    # Python's ** keeps these bits; numpy's power need not
    mags = np.array([(1.0 + m) ** (-sigma) for m in range(cutoff + 1)], dtype=complex)
    if basis.kind is BasisKind.FOURIER:
        keys = np.indices((2 * cutoff + 1,) * basis.dim).reshape(basis.dim, -1).T - cutoff
    else:
        keys = np.arange(cutoff + 1).reshape(-1, 1)
    return SpectralVector._from_arrays(basis, keys, mags[np.abs(keys).max(axis=1)])


def dump_vector(u: SpectralVector) -> str:
    """One line per entry: coordinates, then real and imaginary parts.

    Fields are tab-separated, coordinates space-separated, floats in
    shortest round-trip decimal, keys in lexicographic order.
    """
    lines = [f"{' '.join(map(str, j))}\t{v.real!r}\t{v.imag!r}" for j, v in u.items()]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_vector(text: str, basis: Basis) -> SpectralVector:
    entries, lattice = {}, basis.lattice
    lines = text.splitlines()
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"line {i}: expected 3 tab-separated fields, got {len(parts)}")
        try:
            j = tuple(int(c) for c in parts[0].split())
            v = _finite(j, complex(float(parts[1]), float(parts[2])))
            if len(j) != basis.dim:
                raise ValueError(f"expected {basis.dim} coordinates, got {len(j)}")
            j = lattice.validate(j)
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
        if j in entries:
            seen = [tuple(map(int, row.split("\t")[0].split())) for row in lines[: i - 1]]
            raise ValueError(f"line {i}: index {j} repeats line {seen.index(j) + 1}")
        entries[j] = v
    # each index was validated on its line; __init__ would validate it again
    return SpectralVector._from_arrays(basis, *_sorted_arrays(entries, basis.dim))


def write_vector(u: SpectralVector, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_vector(u))


def read_vector(path, basis: Basis) -> SpectralVector:
    with open(path) as fh:
        return parse_vector(fh.read(), basis)
