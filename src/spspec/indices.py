"""Multi-indices and sparse product-budget index sets.

A multi-index is a plain tuple of ints living in Z^d or N^d.  Sparse sets
are cut out of the p-fold lattice product by bounding

    size(ell)**alpha * size(j_1) * ... * size(j_p)  <=  N

where the size of an index is either its max-norm floored at 1 or the
product of (1 + |coordinate|) over coordinates.  Enumeration is always in
lexicographic order and counting never materializes the set.

Counting is a block recursion over the budgets a descent reaches, which
are only the O(sqrt N) values N // m.  The number of q-tuples within
budget b sums, over blocks [k1, k2] of constant b // k, the indices of
size in [k1, k2] times the (q - 1)-tuples within b // k1.  The blocks are
summed by parts (the Dirichlet hyperbola method), so a budget b costs
sqrt(b) terms and one level of the recursion O(N^(3/4)).  A level runs
on int64 arrays where a bound read off its input tables proves that
nothing in it passes 2**63 - 1, and on object arrays of exact Python ints
past that.  The product norm's per-index count is the same recursion over
coordinates.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

Index = tuple[int, ...]

# Largest coordinate magnitude of an index.  Keys are stored as int64, and
# the bound is symmetric so that np.abs cannot wrap at the int64 minimum.
COORD_MAX = 2**63 - 1


class LatticeKind(Enum):
    INTEGERS = "Z"
    NATURALS = "N"


@dataclass(frozen=True)
class Lattice:
    kind: LatticeKind
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"lattice dimension must be >= 1, got {self.dim}")

    def contains(self, j: Index) -> bool:
        if len(j) != self.dim:
            return False
        if self.kind is LatticeKind.NATURALS:
            return all(c >= 0 for c in j)
        return True

    def validate(self, j: Index) -> Index:
        j = tuple(j)
        try:
            ints = tuple(map(int, j))
        except (OverflowError, ValueError):  # int() of an infinity, a NaN or a word
            ints = None
        if ints != j:
            raise ValueError(f"non-integer coordinate in index {j}")
        if ints and (max(ints) > COORD_MAX or min(ints) < -COORD_MAX):
            raise ValueError(f"index {ints} has a coordinate past the bound |c| <= {COORD_MAX}")
        if not self.contains(ints):
            raise ValueError(f"index {ints} not in {self.kind.value}^{self.dim}")
        return ints


def integers(dim: int = 1) -> Lattice:
    return Lattice(LatticeKind.INTEGERS, dim)


def naturals(dim: int = 1) -> Lattice:
    return Lattice(LatticeKind.NATURALS, dim)


def max_norm(j: Index) -> int:
    """max(1, |j^1|, ..., |j^d|); the floor keeps sizes multiplicative."""
    m = 1
    for c in j:
        a = abs(c)
        if a > m:
            m = a
    return m


def prod_norm(j: Index) -> int:
    """Product of (1 + |j^n|) over coordinates."""
    out = 1
    for c in j:
        out *= 1 + abs(c)
    return out


class SizeFunction(Enum):
    MAX = "max"
    PROD = "prod"

    def of(self, j: Index) -> int:
        return max_norm(j) if self is SizeFunction.MAX else prod_norm(j)


@dataclass(frozen=True)
class SparseSetSpec:
    """Parameters of one sparse set: arity, budget, output weight, geometry."""

    p: int
    level: int
    alpha: int
    size: SizeFunction
    lattice: Lattice
    box: int | None = None

    def __post_init__(self) -> None:
        for name in ("p", "level", "alpha") + (("box",) if self.box is not None else ()):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
        if self.p < 1:
            raise ValueError(f"arity p must be >= 1, got {self.p}")
        if self.level < 1:
            raise ValueError(f"budget level must be >= 1, got {self.level}")
        if self.alpha not in (0, 1):
            raise ValueError(f"alpha must be 0 or 1, got {self.alpha}")
        if self.box is not None and self.box < 1:
            raise ValueError(f"box cap must be >= 1, got {self.box}")


def indices_up_to(lattice: Lattice, size: SizeFunction, cap: int) -> Iterator[Index]:
    """All lattice indices with size <= cap, in lexicographic order, streamed.

    A cap that lets a coordinate pass COORD_MAX raises a ValueError here.
    """
    if cap < 1:
        return iter(())
    if (cap if size is SizeFunction.MAX else cap - 1) > COORD_MAX:  # 1 + |c| <= cap
        raise ValueError(f"cap {cap} admits a coordinate past the bound |c| <= {COORD_MAX}")
    return _lattice(lattice.kind, size, lattice.dim, cap)


def _lattice(kind: LatticeKind, size: SizeFunction, dim: int, cap: int) -> Iterator[Index]:
    """The indices of indices_up_to, for cap >= 1, streamed (itertools.product
    copies its pools).

    Each index of the first dim - 1 coordinates heads one row, the last
    coordinate's range zipped in C: within cap under the max norm, and
    within cap // prod_norm(head) under the product norm.
    """

    def row(head: Index) -> Iterator[Index]:
        top = cap if size is SizeFunction.MAX else cap // prod_norm(head) - 1
        line = range(-top if kind is LatticeKind.INTEGERS else 0, top + 1)
        return zip(*map(itertools.repeat, head), line)

    if dim == 1:
        return row(())
    return itertools.chain.from_iterable(map(row, _lattice(kind, size, dim - 1, cap)))


# indices one enumerate_sparse call may hold in its memo; about 100 bytes each
ENUM_MEMO_ENTRIES = 2**16


def enumerate_sparse(spec: SparseSetSpec, ell: Index) -> Iterator[tuple[Index, ...]]:
    """Stream the p-tuples (j_1, ..., j_p) admitted with this ell.

    Tuples come out in lexicographic order on the concatenated coordinates.
    The descent carries the remaining multiplicative budget, so no full
    p-fold product is ever formed.  Empty stream when ell itself breaks the
    budget or the box cap; a bad ell raises at the first next(), not here.

    A descent from budget b reaches only the budgets b // m, so the indices
    within each budget, split into maximal runs of consecutive indices that
    leave the same budget c, are listed once per call and shared by every
    prefix that reaches it.  The memo holds at most ENUM_MEMO_ENTRIES
    indices; a budget whose max-norm count (an upper bound under either
    norm) would pass that is streamed afresh at every visit.

    The stream is one chain of pieces.  At the next-to-last slot a run meets
    the last slot as one itertools.product(*prefix, run, within c), which
    builds its tuples in C.  Every index of the run leaves the same c, and
    the run's indices are consecutive, so that product is exactly the
    lexicographic sub-stream of the tuples the run's indices head.
    """
    return itertools.chain.from_iterable(_pieces(spec, ell))


def _pieces(spec: SparseSetSpec, ell: Index) -> Iterator[Iterator[tuple[Index, ...]]]:
    """The pieces of enumerate_sparse's chain, in order; a generator, so ell is checked lazily."""
    ell = spec.lattice.validate(ell)
    sz_ell = spec.size.of(ell)
    if spec.box is not None and sz_ell > spec.box:
        return
    budget = spec.level // sz_ell**spec.alpha
    if budget < 1:
        return
    # tuples, which itertools.product takes as they are where it copies a list
    listed: dict[int, tuple[Index, ...]] = {}
    runs: dict[int, list[tuple[int, tuple[Index, ...]]]] = {}
    room = ENUM_MEMO_ENTRIES

    def cap(b: int) -> int:
        return b if spec.box is None else min(b, spec.box)

    def memo(b: int) -> tuple[Index, ...] | None:
        """The indices within b, listed at the first visit if they fit the memo."""
        nonlocal room
        js = listed.get(b)
        if js is None and _max_norm_count(spec.lattice, cap(b)) <= room:
            js = listed[b] = tuple(indices_up_to(spec.lattice, spec.size, cap(b)))
            room -= len(js)
        return js

    def walk(slots: int, b: int, prefix: tuple) -> Iterator[Iterator[tuple[Index, ...]]]:
        js = memo(b)
        if js is None:  # past the memo: one fresh stream per visit
            js = indices_up_to(spec.lattice, spec.size, cap(b))
            if slots > 1:
                for j in js:
                    yield from walk(slots - 1, b // spec.size.of(j), prefix + (j,))
                return
        if slots == 1:
            yield map(prefix.__add__, zip(js))
            return
        split = runs.get(b)
        if split is None:
            by_leftover = itertools.groupby(js, lambda j: b // spec.size.of(j))
            split = runs[b] = [(c, tuple(run)) for c, run in by_leftover]
        for c, run in split:
            last = memo(c) if slots == 2 else None
            if last is not None:
                yield itertools.product(*zip(prefix), run, last)
            else:  # a slot above the next-to-last, or c is past the memo
                for j in run:
                    yield from walk(slots - 1, c, prefix + (j,))

    yield from walk(spec.p, budget, ())


_CHUNK_TERMS = 2**16

# The largest budget tabulated.  2**36 has 2**19 budgets, and a count there
# peaks at about 230 bytes per budget: 113 MB of RSS above the interpreter's,
# and 31 s at p = 3, alpha = 1 with ell on the max-norm line, whose two full
# levels run in int64 and whose last, at N alone, in Python ints (2 vCPUs;
# 142 MB and 96 s with every level in Python ints).
BUDGET_MAX = 2**36


class _Budgets:
    """The budgets n // m (m >= 1) in ascending order, and convolutions over them.

    A descent from budget n reaches no other budget, since (n // a) // b is
    n // (a*b).  There are at most 2*sqrt(n) of them: every b <= sqrt(n)
    and n // m for m <= sqrt(n).  Tables over them are int64 arrays where
    a bound proves that they fit (C(n) for the max-norm index table,
    convolve's for a level), and object arrays of Python ints past it, so
    counts stay exact.
    """

    def __init__(self, n: int):
        if n > BUDGET_MAX:
            raise ValueError(f"budget {n} exceeds {BUDGET_MAX}, the largest a count tabulates")
        self.n = n
        self.root = r = math.isqrt(n)
        large = n // np.arange(n // (r + 1), 0, -1, dtype=np.int64)
        self.keys = keys = np.concatenate([np.arange(1, r + 1, dtype=np.int64), large])
        # a key is exact in float64, so its float root is off isqrt by at most one
        roots = np.sqrt(keys.astype(np.float64)).astype(np.int64)
        roots -= roots * roots > keys
        roots += (roots + 1) * (roots + 1) <= keys
        self.roots = roots

    def convolve(self, big_f: np.ndarray, big_g: np.ndarray, first: int = 0) -> np.ndarray:
        """H(b) = sum of f(k) g(v) over k*v <= b, at the budgets keys[first:].

        big_f and big_g are the running sums F(b) = f(1) + ... + f(b) and G
        at every key.  Grouping k by the value of b // k turns the sum into
        blocks (F(k2) - F(k1 - 1)) * G(b // k1); the blocks with k > sqrt(b)
        are summed by parts, which is the Dirichlet hyperbola method:
        H(b) = sum over k <= s of f(k) G(b // k) + g(k) F(b // k), minus
        F(s) G(s), for s = isqrt(b).  That is isqrt(b) terms per budget.

        Every table is nondecreasing in b, so each term f(k) G(b // k) and
        g(k) F(b // k), every partial sum of a budget's terms and F(s) G(s)
        are at most F(r) G(n) + G(r) F(n), for r = isqrt(n).  Where that
        bound fits int64 and neither table is an object array, the level
        runs in int64; otherwise in exact Python ints.
        """
        at_r = self.root - 1
        bound = int(big_f[at_r]) * int(big_g[-1]) + int(big_g[at_r]) * int(big_f[-1])
        exact = object not in (big_f.dtype, big_g.dtype) and bound <= np.iinfo(np.int64).max
        dtype = np.int64 if exact else object
        big_f, big_g = big_f.astype(dtype, copy=False), big_g.astype(dtype, copy=False)
        f = np.diff(big_f[: self.root], prepend=0)
        g = np.diff(big_g[: self.root], prepend=0)
        out = np.empty(len(self.keys) - first, dtype=dtype)
        # a budget has at most root terms; chunks of keys bound the terms
        # alive at once to about _CHUNK_TERMS
        step = max(1, _CHUNK_TERMS // self.root)
        for i in range(first, len(self.keys), step):
            keys, roots = self.keys[i : i + step], self.roots[i : i + step]
            starts = np.cumsum(roots) - roots
            k_pos = np.arange(int(roots.sum())) - np.repeat(starts, roots)
            # the terms of b read tables at y = b // k, which sits at y - 1
            # when y <= root and at len - n // y above it
            read = np.repeat(keys, roots) // (k_pos + 1)
            at = np.where(read <= self.root, read - 1, len(self.keys) - self.n // read)
            terms = f[k_pos] * big_g[at] + g[k_pos] * big_f[at]
            out[i - first : i - first + len(keys)] = np.add.reduceat(terms, starts)
        at_root = self.roots[first:] - 1
        return out - big_f[at_root] * big_g[at_root]


def _index_counts(lattice: Lattice, size: SizeFunction, budgets: _Budgets) -> np.ndarray:
    """C(b) = #{j : size(j) <= b} at every budget b.

    The max norm has a closed form.  Under the product norm Z^d's indices
    are d-tuples of Z^1 indices under a product budget, so C is the d-fold
    hyperbola convolution of the line count.  The max-norm table is int64
    where C(n), its last and largest entry, fits, and object past it; the
    line count 2b - 1 always fits.
    """
    b = budgets.keys
    if size is SizeFunction.MAX:
        fits = _max_norm_count(lattice, budgets.n) <= np.iinfo(np.int64).max
        return _max_norm_count(lattice, b if fits else b.astype(object))
    total = line = _line_count(lattice.kind, b)
    for _ in range(lattice.dim - 1):
        total = budgets.convolve(line, total)
    return total


def _max_norm_count(lattice: Lattice, b):
    """#{j : max_norm(j) <= b} for an int or an object array of them."""
    return (2 * b + 1 if lattice.kind is LatticeKind.INTEGERS else b + 1) ** lattice.dim


def _line_count(kind: LatticeKind, b):
    """#{c : 1 + |c| <= b} on one axis of Z (2b - 1) or N (b), for b >= 1."""
    return 2 * b - 1 if kind is LatticeKind.INTEGERS else b


def count_indices_up_to(lattice: Lattice, size: SizeFunction, cap: int) -> int:
    """Cardinality of {j : size(j) <= cap} without enumerating it."""
    if cap < 1:
        return 0
    if size is SizeFunction.MAX:  # no budget table, so any cap is O(1)
        return _max_norm_count(lattice, cap)
    if lattice.dim == 1:  # nor on one axis under the product norm
        return _line_count(lattice.kind, cap)
    return int(_index_counts(lattice, size, _Budgets(cap))[-1])


def count_sparse(spec: SparseSetSpec, include_ell: bool = False) -> int:
    """Exact cardinality of the sparse set.

    With include_ell the count is over pairs (ell, tuple); ell then ranges
    over the lattice, which is only finite when alpha = 1 or a box cap is
    present.  At alpha = 1 ell is one more slot of the product budget.

    tuples(q, b), the number of q-tuples with size product <= b and every
    size <= box, is tabulated at every budget b = N // m: tuples(1, b) =
    C(min(b, box)), and tuples(q, b) is the hyperbola convolution of the
    box-capped C with tuples(q - 1, .).  A level costs sum of sqrt(b) over
    the O(sqrt(N)) budgets, O(N^(3/4)), and the last one is needed at N
    alone.  When box**slots <= N every boxed tuple is admitted, and the
    count is C(box)**slots.  Each level runs in int64 where the bound of
    _Budgets.convolve fits and in Python ints from the first level past it
    on, so large counts are exact, and the count is a Python int.  A count
    that would tabulate a budget past BUDGET_MAX = 2**36, where a count
    peaks at about 115 MB, raises a ValueError before building the tables.
    """
    if include_ell and spec.alpha == 0 and spec.box is None:
        raise ValueError("count over unconstrained ell is infinite for alpha = 0")
    slots = spec.p + (include_ell and spec.alpha == 1)
    if spec.box is not None and spec.box**slots <= spec.level:
        # no product of slots sizes, each at most box, passes N
        count = count_indices_up_to(spec.lattice, spec.size, spec.box) ** slots
    else:
        budgets = _Budgets(spec.level)
        capped = _index_counts(spec.lattice, spec.size, budgets)
        if spec.box is not None and spec.box < spec.level:
            at_box = count_indices_up_to(spec.lattice, spec.size, spec.box)
            capped = np.where(budgets.keys <= spec.box, capped, at_box)
        tuples = capped
        for q in range(2, slots + 1):
            tuples = budgets.convolve(capped, tuples, len(budgets.keys) - 1 if q == slots else 0)
        count = int(tuples[-1])
    if include_ell and spec.alpha == 0:
        count *= count_indices_up_to(spec.lattice, spec.size, spec.box)
    return count
