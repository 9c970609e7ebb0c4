"""Sparse, iterative, and dense evaluation of coefficient-space products.

The target quantity per output index ell is

    X_ell = sum over admitted (j_1, ..., j_p) of a_{ell;js} * u^1_{j_1} * ... * u^p_{j_p}

with the tuples admitted by a SparseSetSpec budget.  Both bases plan their
outputs in one place (_outputs): of the candidate indices, an explicit
domain or the default range, they keep each ell that can have a term, with
the budget N // size(ell)**alpha it leaves to the inputs; at alpha = 1 no
ell past min(N, box) has a term, at alpha = 0 none past the box.  Both run
one budget-class recursion (_Slots): the budget a slot leaves to the next
only takes the values N // m, O(sqrt(N)) of them, so the entries of a slot
that leave the same budget form one block, combined as a whole with the
memoized sum of the later slots at that budget.  Each basis supplies what a
block combine computes:

* A Fourier coefficient is a symbol entry b_{ell - sum(js)}, so X is b
  convolved with the budgeted sum, and a block is one numpy convolution per
  run of nearby keys, over lines trimmed to their own span.  At alpha = 1,
  size(ell) * prod size(j) <= N exactly when prod size(j) <= N // size(ell),
  so X_ell is the alpha = 0 sum at budget N // size(ell), read at ell; the
  outputs are grouped by that budget with one stable sort, and each group
  reads its terms with one gather.  Term counts ride through the same
  convolutions as 0/1 indicator arrays.  np.convolve sums in an order set
  by its operands' lengths, and numpy rounds a lone complex product apart
  from a longer one, so the arithmetic on values stays per run and per
  group, which keeps the outputs' bits.  Cost and memory follow the span of
  the input supports, not the number of entries.
* A Hermite coefficient is the integral of chi_ell chi_j1 ... chi_jp, so X
  is the projection onto chi_ell of a budgeted sum of products of
  functions, and a block is a sum of rows multiplied once by the later
  slots' sum, at the nodes of one Gauss-Hermite rule that integrates every
  term exactly.  The same blocks tally the terms first, once per distinct
  budget, as folds of Python ints over per-input prefix counts of odd keys.
  No coefficient is looked up.

Both are deterministic: every sum is accumulated in a fixed order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .coeffs import FourierSymbol, HermiteCache, _chi_table
from .indices import COORD_MAX, Index, SizeFunction, SparseSetSpec
from .quadrature import MAX_DEGREE, MAX_NODES, gauss_hermite_rule, hermite_batch
from .spectral import Basis, BasisKind, SpectralVector

# The last Hermite candidate output.  Sizes grow with ell on N^1, so of 2048
# and 2049 the one of a later ell's parity has a budget at least as large:
# where the later ell has a term of its parity, so does that one, and the
# projection refuses its degree, which passes MAX_DEGREE.  Later candidates
# would change only the degree that the refusal names.
HERMITE_ELL_CAP = MAX_DEGREE + 2


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation task: provider, inputs, sparse-set parameters."""

    provider: FourierSymbol | HermiteCache
    inputs: tuple[SpectralVector, ...]
    spec: SparseSetSpec
    output_domain: tuple[Index, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.inputs) != self.spec.p:
            raise ValueError(f"spec has p={self.spec.p} but {len(self.inputs)} inputs given")
        basis = self.provider.basis
        for u in self.inputs:
            if u.basis != basis:
                raise ValueError(f"basis mismatch: provider {basis} vs input {u.basis}")
        if basis.lattice != self.spec.lattice:
            raise ValueError("sparse-set lattice does not match the provider basis")


@dataclass(frozen=True)
class EvalResult:
    vector: SpectralVector
    terms: int


class _Line(NamedTuple):
    """Term values and term counts on the consecutive flat keys lo, lo + 1, ..."""

    lo: int
    vals: np.ndarray
    cnts: np.ndarray


def _line(keys: np.ndarray, vals: np.ndarray) -> _Line:
    lo = int(keys.min())
    n = int(keys.max()) - lo + 1
    line = _Line(lo, np.zeros(n, dtype=complex), np.zeros(n))
    line.vals[keys - lo] = vals
    line.cnts[keys - lo] = 1.0
    return line


def _convolve(a: _Line, b: _Line) -> _Line:
    return _Line(a.lo + b.lo, np.convolve(a.vals, b.vals), np.convolve(a.cnts, b.cnts))


def _cap(spec: SparseSetSpec, alpha: int = 1) -> int | None:
    """The largest size of an index in a term (None: no bound).

    The sizes of the inputs, and of the output at alpha = 1, count against
    N, so none exceeds min(N, box); at alpha = 0 only the box bounds the
    output's.
    """
    if alpha == 0:
        return spec.box
    return spec.level if spec.box is None else min(spec.level, spec.box)


def _grid(spec: SparseSetSpec, lo, hi) -> np.ndarray:
    """The indices of the box [lo, hi] as an (n, d) array, less those with a
    coordinate past the output cap: no size is below a coordinate's magnitude."""
    top = _cap(spec, spec.alpha)
    if top is not None:
        lo, hi = np.maximum(lo, -top), np.minimum(hi, top)
    axes = [np.arange(a, b + 1) for a, b in zip(lo.tolist(), hi.tolist())]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _outputs(spec: SparseSetSpec, ells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidate outputs, rows of an (n, d) array, that can have a term,
    and the budget N // size(ell)**alpha that each leaves to the inputs."""
    top = _cap(spec, spec.alpha)
    if top is None:
        return ells, np.full(len(ells), spec.level, dtype=np.int64)
    sizes = _sizes(ells, spec.size, top)
    return ells[sizes <= top], spec.level // sizes[sizes <= top] ** spec.alpha


def _sizes(coords: np.ndarray, size: SizeFunction, cap: int) -> np.ndarray:
    """min(size(j), cap + 1) for each row j of an (n, d) coordinate array,
    for cap < COORD_MAX.

    Callers only compare a size above cap against cap, so the clip loses
    nothing.  The product stays exact in int64: a factor that would take it
    past cap + 1 saturates it there instead.
    """
    a = np.abs(coords)
    if size is SizeFunction.MAX:
        return np.minimum(a, cap + 1).max(axis=1, initial=1)
    out = np.ones(len(a), dtype=np.int64)
    for col in a.T:
        factor = np.minimum(col, cap) + 1
        out = np.where(out <= (cap + 1) // factor, out * factor, cap + 1)
    return out


def _reach(keys: np.ndarray) -> tuple[int, ...]:
    """Each coordinate's largest magnitude in the rows of an (n, d) array, in
    Python ints; a sum of one row of each of several arrays is bounded by
    the sum of their reaches, which cannot wrap."""
    return tuple(np.abs(keys).max(axis=0, initial=0).tolist())


def _clipped(spec: SparseSetSpec, reaches: Sequence[tuple[int, ...]], reach) -> SparseSetSpec:
    """spec with its budget and box cut to ones that admit the same terms and
    fit int64.

    No input index is larger than its input's reach, so no product of input
    sizes passes m, the product of the reaches' sizes; reach, when known,
    bounds every output coordinate, so no output size passes e.  A
    budget past m (alpha = 0) or m * e (alpha = 1) admits every tuple at
    every output, as that bound does, and keeps the same outputs.  A box at
    or past every reach's size and e caps nothing and is dropped; one that
    caps something from int64 on is named at alpha = 0, where it alone caps
    the outputs (at alpha = 1 the kernels read min(N, box)).
    """
    m = math.prod(map(spec.size.of, reaches))
    e = spec.level if reach is None else spec.size.of(reach)
    level = min(spec.level, m * e**spec.alpha)
    if level >= COORD_MAX:
        raise ValueError(f"budget {spec.level} reaches the int64 limit {COORD_MAX} of the kernels")
    top = max(e, *map(spec.size.of, reaches))  # no index in a term is larger
    box = spec.box if spec.box is not None and spec.box < top else None
    if box is not None and box >= COORD_MAX and spec.alpha == 0:
        raise ValueError(f"box {box} reaches the int64 limit {COORD_MAX} of the kernels")
    return replace(spec, level=level, box=box)


class _Slots:
    """The budget-class recursion over p inputs, apart from what is summed.

    A tuple (j_1, ..., j_p) is admitted at budget b when the product of the
    sizes is <= b (box-capped).  Slot s at budget b leaves b // size(j) to
    slot s + 1, and (b // x) // y is b // (x y), so only the budgets N // m
    are reached, about 2 sqrt(N) per slot.  Each input is trimmed to its
    entries of admissible size and sorted by size once.  need[s] is the least
    budget that admits a tuple of slots s..p-1; a slot-s entry that leaves
    less than need[s + 1] heads no tuple and is cut.  The remaining entries
    that leave the same budget c form one block, combined as a whole with
    the next slot's fold at budget c.  The kernels supply the combine.

    Each distinct input is kept once, in self.inputs, and slot s reads
    self.inputs[self.at[s]]; the kernels' per-input tables follow that list.
    """

    def __init__(self, inputs: Sequence[SpectralVector], spec: SparseSetSpec):
        cap = _cap(spec)
        place = {}  # the place of each distinct input in self.inputs, in order of first use
        self.at = [place.setdefault(id(u), len(place)) for u in inputs]
        self.inputs = []  # per distinct input: sizes, coordinates, values, sorted by size then key
        for u in {id(u): u for u in inputs}.values():
            coords, vals = u.as_arrays()
            sizes = _sizes(coords, spec.size, cap)
            order = np.flatnonzero(sizes <= cap)
            order = order[np.argsort(sizes[order], kind="stable")]
            self.inputs.append((sizes[order], coords[order], vals[order]))
        self.slots = [self.inputs[i] for i in self.at]
        self.empty = any(len(sizes) == 0 for sizes, _, _ in self.inputs)
        if not self.empty:
            least = [int(sizes[0]) for sizes, _, _ in self.slots]
            self.need = [math.prod(least[s:]) for s in range(len(least) + 1)]
        self.plans: dict[tuple[int, int], tuple[int, list[int], list[int]]] = {}

    def plan(self, s: int, b: int) -> tuple[int, list[int], list[int]]:
        """(hi, starts, budgets) of slot s at budget b >= need[s].

        The entries [:hi] of the size order are admitted; the block starting
        at starts[k] leaves budgets[k] to the next slot (0 past the last
        slot, where the one block leaves nothing to spend).
        """
        key = (s, b)
        if key not in self.plans:
            sizes = self.slots[s][0]
            hi = int(np.searchsorted(sizes, b // self.need[s + 1], side="right"))
            if s == len(self.slots) - 1:
                self.plans[key] = hi, [0], [0]
            else:
                cs = b // sizes[:hi]
                first = np.ones(hi, dtype=bool)
                first[1:] = cs[1:] != cs[:-1]
                starts = first.nonzero()[0]
                self.plans[key] = hi, starts.tolist(), cs[starts].tolist()
        return self.plans[key]

    def fold(self, memo: dict, combine, s: int, b: int):
        """memo[s, b] = combine(s, hi, starts, subs), for b >= need[s].

        (hi, starts, budgets) is plan(s, b) and subs[k] the fold of the next
        slot at budgets[k]; memo holds the empty product at (p, 0).
        """
        key = (s, b)
        if key not in memo:
            hi, starts, budgets = self.plan(s, b)
            subs = [self.fold(memo, combine, s + 1, c) for c in budgets]
            memo[key] = combine(s, hi, starts, subs)
        return memo[key]


# A hole between two entries of a block is filled with zeros when that costs
# fewer multiply-adds than one more np.convolve call (about a microsecond).
_HOLE_MACS = 1024


class _BudgetClasses(_Slots):
    """Budgeted sums over tuples of Fourier inputs, as dense convolutions.

    Multi-indices are flattened to one integer each, key(j) = sum_c j_c *
    stride_c, with strides wider than the output extent in every coordinate:
    the key of a sum is the sum of the keys and no two outputs share a key.
    partial(s, b) is the sum over the tuples of slots s..p-1 within budget b
    of prod u, placed at the key of sum(js), with the number of such tuples
    beside it.  A block of slot-s entries is convolved with partial(s + 1, c)
    as a whole.
    """

    def __init__(
        self, inputs: Sequence[SpectralVector], symbol: FourierSymbol, spec: SparseSetSpec
    ):
        super().__init__(inputs, spec)
        self.level = spec.level
        # with no tuple in the budget, no key is formed
        self.empty = self.empty or not symbol.table or self.need[0] > spec.level
        if self.empty:
            return
        bkeys, bvals = symbol.arrays
        picked = [coords for _, coords, _ in self.slots] + [bkeys]
        # the box, its strides and the reach in Python ints, where sums cannot wrap
        lows = [k.min(axis=0).tolist() for k in picked]
        highs = [k.max(axis=0).tolist() for k in picked]
        lo, hi = [sum(c) for c in zip(*lows)], [sum(c) for c in zip(*highs)]
        width = [h - l + 1 for l, h in zip(lo, hi)]
        strides = [math.prod(width[i + 1 :]) for i in range(len(width))]
        reach = [sum(map(max, (-a for a in ls), hs)) for ls, hs in zip(zip(*lows), zip(*highs))]
        # every key formed is that of a sum of entries, within the reach,
        # and every offset read is a difference of two keys in the box
        span = max(sum(r * s for r, s in zip(reach, strides)), math.prod(width) - 1)
        if span >= COORD_MAX:
            raise ValueError(f"flat keys reach {span}, at or past the int64 limit {COORD_MAX}")
        self.lo, self.hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
        self.strides = np.array(strides, dtype=np.int64)
        self.keys = [coords @ self.strides for _, coords, _ in self.inputs]
        self.symbol = _line(bkeys @ self.strides, bvals)
        self.lines = {(len(self.slots), 0): _Line(0, np.ones(1, dtype=complex), np.ones(1))}

    def partial(self, s: int, b: int) -> _Line | None:
        """None when no tuple of slots s..p-1 fits in budget b."""
        return self.fold(self.lines, self._blocks, s, b) if b >= self.need[s] else None

    def _blocks(self, s: int, hi: int, starts: list[int], subs: list[_Line]) -> _Line:
        """Sum over the admitted slot-s entries j of u_j * subs[block of j] shifted by key(j).

        A block is cut into runs of nearby keys, each run one np.convolve of
        its own value and count lines with the block's sub line, and a lone
        key a scaled copy of it; the parts are added in run order.  The
        bookkeeping is done once for all runs: block ids, the cuts, and where
        each entry's shifted sub line starts.  The last slot's one block
        meets the unit line, so its entries are placed as they are.
        """
        keys, vals = self.keys[self.at[s]][:hi], self.slots[s][2][:hi]
        if s == len(self.slots) - 1:
            return _line(keys, vals)
        # blocks are consecutive in the size order, so sorting by (block,
        # key) keeps each entry's block id and leaves a run's keys ascending
        group = np.repeat(np.arange(len(starts)), np.diff(starts, append=hi))
        order = np.lexsort((keys, group))
        keys, vals = keys[order], vals[order]
        sub_lo = np.array([x.lo for x in subs], dtype=np.int64)
        width = np.array([len(x.vals) for x in subs], dtype=np.int64)[group]
        cut = (np.diff(keys, prepend=keys[:1]) - 1) * width > _HOLE_MACS
        cut[starts] = True
        first = np.flatnonzero(cut)
        last = np.append(first[1:], hi) - 1
        at = keys + sub_lo[group]  # where each entry's shifted sub line starts
        lo = int(at[first].min())
        n = int((at[last] + width[last]).max()) - lo
        out_vals, out_cnts = np.zeros(n, dtype=complex), np.zeros(n)
        shift = (at - lo).tolist()
        runs = zip(first.tolist(), (last + 1).tolist(), (keys[last] - keys[first] + 1).tolist())
        for (a, e, m), g in zip(runs, group[first].tolist()):
            sub, i = subs[g], shift[a]
            if e - a == 1:
                part_vals, part_cnts = vals[a] * sub.vals, sub.cnts
            else:  # a run's keys ascend, so it spans m keys from keys[a] on
                run_vals, run_cnts = np.zeros(m, dtype=complex), np.zeros(m)
                rel = keys[a:e] - keys[a]
                run_vals[rel], run_cnts[rel] = vals[a:e], 1.0
                part_vals = np.convolve(run_vals, sub.vals)
                part_cnts = np.convolve(run_cnts, sub.cnts)
            out_vals[i : i + len(part_vals)] += part_vals
            out_cnts[i : i + len(part_vals)] += part_cnts
        return _Line(lo, out_vals, out_cnts)

    def at_level(self, coords: np.ndarray):
        """alpha = 0: (symbol * partial(0, N))[ell] for each row ell of coords.

        Returns (values, term counts)."""
        vals, cnts = np.zeros(len(coords), dtype=complex), np.zeros(len(coords))
        total = self.partial(0, self.level)
        if total is not None:
            total = _convolve(total, self.symbol)
            pos = coords @ self.strides - total.lo
            at = (pos >= 0) & (pos < len(total.vals))
            vals[at], cnts[at] = total.vals[pos[at]], total.cnts[pos[at]]
        return vals, cnts

    def _row(self, c: int) -> _Line | None:
        """symbol * partial(1, c): every slot but the first, at budget c."""
        if len(self.slots) == 1:
            return self.symbol
        sub = self.partial(1, c)
        return None if sub is None else _convolve(sub, self.symbol)

    def at_own_budget(self, coords: np.ndarray, budgets: np.ndarray):
        """alpha = 1: X_ell = (symbol * partial(0, budget(ell)))[ell].

        partial(0, c) is never formed whole: an ell of class c reads
        sum over slot-0 entries j of u_j * row(c // size(j))[ell - j].  One
        stable sort groups the ells by class, and one gather per class reads
        its (members, h) block from the rows stored back to back, each
        between two zeros: an offset clipped to [-1, len] reads the row or a
        zero beside it.  Each class multiplies and sums its own block, since
        the bits of a complex product depend on the shape it is taken in.
        Returns (values, term counts) at coords.
        """
        sizes0, _, vals0 = self.slots[0]
        targets = coords @ self.strides
        order = np.argsort(budgets, kind="stable")  # by class, and by key within one
        bounds = np.flatnonzero(np.diff(budgets[order], prepend=-1, append=-1)).tolist()
        classes = budgets[order[bounds[:-1]]]
        his = np.searchsorted(sizes0, classes, side="right")
        wanted = np.unique(np.concatenate([c // sizes0[:h] for c, h in zip(classes, his)]))
        none = _Line(0, np.zeros(0, dtype=complex), np.zeros(0))
        rows = [self._row(c) or none for c in wanted.tolist()]
        lens = np.array([len(r.vals) for r in rows], dtype=np.int64)
        los = np.array([r.lo for r in rows], dtype=np.int64)
        # the rows back to back, each between two zeros, row k from bases[k] on
        bases = np.cumsum(lens + 1) - lens
        zv, zc = np.zeros(1, dtype=complex), np.zeros(1)
        flat_v = np.concatenate([zv] + [x for r in rows for x in (r.vals, zv)])
        flat_c = np.concatenate([zc] + [x for r in rows for x in (r.cnts, zc)])
        del rows  # copied: the gathers below would otherwise run on top of them
        vals, cnts = np.zeros(len(coords), dtype=complex), np.zeros(len(coords))
        for a, e, c, h in zip(bounds, bounds[1:], classes.tolist(), his.tolist()):
            sel = order[a:e]
            r = np.searchsorted(wanted, c // sizes0[:h])
            # keys + los is the key of a sum in the box, so an offset stays within
            # its span; clipped to [-1, len] it reads a row or a zero beside it
            idx = targets[sel, None] - (self.keys[self.at[0]][:h] + los[r])
            np.clip(idx, -1, lens[r], out=idx)
            idx += bases[r]
            vals[sel] = (flat_v[idx] * vals0[:h]).sum(axis=1)
            cnts[sel] = flat_c[idx].sum(axis=1)
        return vals, cnts


def _nothing(spec: SparseSetSpec, terms: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """No output index, with the given number of terms."""
    return np.empty((0, spec.lattice.dim), dtype=np.int64), np.empty(0, dtype=complex), terms


def _fourier_sum(
    symbol: FourierSymbol,
    inputs: Sequence[SpectralVector],
    spec: SparseSetSpec,
    ells: np.ndarray | None,
):
    """(ells, values, terms): the outputs that have a term, in key order."""
    kernel = _BudgetClasses(inputs, symbol, spec)
    if kernel.empty:
        return _nothing(spec)
    if ells is None:
        ells = _grid(spec, kernel.lo, kernel.hi)
    else:
        # outside the reachable box a flat key could alias one inside it
        ells = ells[np.all((ells >= kernel.lo) & (ells <= kernel.hi), axis=1)]
    ells, budgets = _outputs(spec, ells)
    if not len(ells):
        return _nothing(spec)
    vals, cnts = kernel.at_own_budget(ells, budgets) if spec.alpha else kernel.at_level(ells)
    keep = cnts > 0
    return ells[keep], vals[keep], int(round(cnts[keep].sum()))


class _Tally(NamedTuple):
    """The tuples within one budget: counted by the parity of their degree
    sum, and the largest degree sum."""

    even: int
    odd: int
    deg: int


class _HermiteClasses(_Slots):
    """Budgeted sums over tuples of Hermite inputs, pointwise at quadrature nodes.

    P(s, b)(x) is the sum over the tuples of slots s..p-1 within budget b of
    prod u_j chi_j(x).  By orthonormality X_ell is the integral of chi_ell *
    P(0, budget(ell)), and one Gauss-Hermite rule makes every such integral
    exact (see project).  A block's rows u_j chi_j are summed once and
    multiplied once by P(s + 1, c).

    chi_j(-x) = (-1)**j chi_j(x), so P is kept as an even part (tuples of
    even degree sum) and an odd part, each at the rule's nonnegative nodes
    only; chi_ell meets the part of its own parity, and the other part
    integrates to zero exactly.  tally folds the same blocks on Python ints
    first: it counts the tuples of either parity and finds the largest
    degree, which sizes the rule before any row is evaluated.  Per distinct
    input it keeps the keys in size order and the prefix count of odd keys,
    so a block is read as three numbers with no numpy call.
    """

    def __init__(self, inputs: Sequence[SpectralVector], spec: SparseSetSpec):
        super().__init__(inputs, spec)
        self.tallies = {(len(self.slots), 0): _Tally(1, 0, 0)}
        keys = [coords[:, 0].tolist() for _, coords, _ in self.inputs]
        self.prefix = [(k, list(accumulate((x & 1 for x in k), initial=0))) for k in keys]

    def tally(self, b: int) -> _Tally:
        """The tuples of all slots within budget b >= need[0]."""
        return self.fold(self.tallies, self._count, 0, b)

    def _count(self, s: int, hi: int, starts: list[int], subs: list[_Tally]) -> _Tally:
        """A block [a, e) holds odd[e] - odd[a] odd keys, and its largest key
        is keys[e - 1]: keys ascend with size on the Hermite lattice."""
        keys, odd = self.prefix[self.at[s]]
        even_n = odd_n = 0
        deg = -1
        for a, e, sub in zip(starts, starts[1:] + [hi], subs):
            o = odd[e] - odd[a]
            even_n += (e - a - o) * sub.even + o * sub.odd
            odd_n += (e - a - o) * sub.odd + o * sub.even
            deg = max(deg, keys[e - 1] + sub.deg)
        return _Tally(even_n, odd_n, deg)

    def project(self, ells: np.ndarray, budgets: np.ndarray) -> np.ndarray:
        """X_ell for each ell; each must have a term of its parity.

        The integrand chi_ell * prod chi_j is a polynomial of degree
        D = ell + sum(js) times exp(-(p+1) x^2 / 2).  Substituting y = c x
        with c = sqrt((p+1)/2) turns that into exp(-y^2), which a rule of
        ceil((D + 1) / 2) nodes integrates exactly.
        """
        largest = dict(sorted(zip(budgets.tolist(), ells.tolist())))  # each budget's largest ell
        deg = max(ell + self.tally(b).deg for b, ell in largest.items())
        if deg > MAX_DEGREE:
            raise ValueError(
                f"the terms reach degree {deg} (ell + j_1 + ... + j_p); a {MAX_NODES}-node"
                f" Gauss-Hermite rule integrates degree {MAX_DEGREE} at most"
            )
        n = deg // 2 + 1
        rule = gauss_hermite_rule(n)
        c = math.sqrt((len(self.slots) + 1) / 2.0)
        half = n // 2  # nodes[half:] are the nonnegative nodes
        weights = rule.scaled_weights[half:] * (2.0 / c)
        if n % 2:
            weights[0] /= 2.0  # the node at 0 has no mirror image
        chi = hermite_batch(deg, rule.nodes[half:] / c)
        self.rows = []  # per distinct input: its even-key and odd-key rows
        for _, coords, vals in self.inputs:
            # no term of these ells holds a key past deg; keys ascend with
            # size on the Hermite lattice, so the rest is a prefix
            keys = coords[:, 0]
            held = keys <= deg
            rows = vals[held, None] * chi[keys[held]]
            odd = (keys[held] & 1).astype(bool)[:, None]
            self.rows.append((np.where(odd, 0.0, rows), np.where(odd, rows, 0.0)))
        unit = np.ones(len(weights), dtype=complex), np.zeros(len(weights), dtype=complex)
        parts = {(len(self.slots), 0): unit}
        out = np.empty(len(ells), dtype=complex)
        for b in np.unique(budgets).tolist():
            at = np.flatnonzero(budgets == b)
            even, odd = self.fold(parts, self._product, 0, b)
            own = np.where((ells[at] & 1).astype(bool)[:, None], odd, even)
            out[at] = (chi[ells[at]] * own) @ weights
        return out

    def _product(self, s: int, hi: int, starts: list[int], subs: list) -> tuple:
        """Even and odd parts of P(s, b) at the nonnegative nodes."""
        even_rows, odd_rows = self.rows[self.at[s]]
        be = np.add.reduceat(even_rows[:hi], starts, axis=0)
        bo = np.add.reduceat(odd_rows[:hi], starts, axis=0)
        se, so = (np.array(x) for x in zip(*subs))
        return (be * se + bo * so).sum(axis=0), (be * so + bo * se).sum(axis=0)


def _hermite_sum(inputs: Sequence[SpectralVector], spec: SparseSetSpec, ells: np.ndarray | None):
    """(ells, values, terms) as _fourier_sum returns them."""
    if ells is None:  # alpha = 1 here
        ells = np.arange(min(_cap(spec), HERMITE_ELL_CAP) + 1)[:, None]
    ells, budgets = _outputs(spec, ells)
    ells = ells[:, 0]
    if not len(ells):
        return _nothing(spec)
    kernel = _HermiteClasses(inputs, spec)
    if kernel.empty:
        return _nothing(spec)
    # an ell whose budget admits no tuple has no term
    fits = budgets >= kernel.need[0]
    ells, budgets = ells[fits], budgets[fits]
    per_ell = budgets.tolist()
    tallies = {b: kernel.tally(b) for b in set(per_ell)}
    terms = sum(tallies[b].even + tallies[b].odd for b in per_ell)
    # the terms of the other parity integrate to zero: an ell with no term
    # of its own parity stays out, as does one with no term at all
    own = [tallies[b].odd if ell & 1 else tallies[b].even for ell, b in zip(ells.tolist(), per_ell)]
    present = np.array([n > 0 for n in own], dtype=bool)
    if not present.any():
        return _nothing(spec, terms)
    ells, budgets = ells[present], budgets[present]
    return ells[:, None], kernel.project(ells, budgets), terms


def direct_sparse_eval(request: EvalRequest) -> EvalResult:
    """Evaluate the budgeted sum per output index in one pass.

    For Fourier providers the output domain defaults to the momentum
    closure of the admitted tuples; for Hermite, alpha = 1 defaults to
    {ell <= HERMITE_ELL_CAP : size(ell) <= N} and alpha = 0 requires an
    explicit domain since nothing else bounds the output range.  An
    explicit domain must hold indices of the provider's lattice.  A Hermite
    provider fixes only the basis: no coefficient is looked up, and no
    table is read.
    """
    spec = request.spec
    ells = reach = None
    reaches = [_reach(u.as_arrays()[0]) for u in request.inputs]
    if request.output_domain is not None:
        domain = {spec.lattice.validate(ell) for ell in request.output_domain}
        ells = np.array(sorted(domain), dtype=np.int64).reshape(-1, spec.lattice.dim)
        reach = _reach(ells)
    elif isinstance(request.provider, FourierSymbol):
        reach = tuple(map(sum, zip(*reaches, _reach(request.provider.arrays[0]))))
    spec = _clipped(spec, reaches, reach)
    if isinstance(request.provider, FourierSymbol):
        ells, vals, terms = _fourier_sum(request.provider, request.inputs, spec, ells)
    else:
        if ells is None and spec.alpha == 0:
            raise ValueError("alpha = 0 with a Hermite provider needs an explicit output domain")
        ells, vals, terms = _hermite_sum(request.inputs, spec, ells)
    return EvalResult(SpectralVector._from_arrays(request.provider.basis, ells, vals), terms)


def iterative_eval(
    provider,
    inputs: Sequence[SpectralVector],
    level: int,
    alpha: int,
    *,
    ell_cap: int | None = None,
) -> EvalResult:
    """Left fold of budgeted binary products: X(..X(X(u1,u2),u3).., up).

    Each fold reuses the same budget N and alpha under the max-norm size.
    For a Fourier symbol the symbol is applied on the first fold only and
    the remaining folds use the plain product, which keeps the composition
    equal to the direct p-ary sum when the symbol is b = 1 and matches it
    bit for bit at p = 2.  A Hermite provider fixes only the basis, and
    every fold is a Hermite product; at alpha = 0 its outputs are
    0..ell_cap, and at most HERMITE_ELL_CAP.
    """
    if not inputs:
        raise ValueError("need at least one input")
    if len(inputs) == 1:
        return EvalResult(inputs[0], 0)
    basis = inputs[0].basis
    fourier = isinstance(provider, FourierSymbol)
    pair_spec = SparseSetSpec(2, level, alpha, SizeFunction.MAX, basis.lattice)
    domain = None
    if not fourier and alpha == 0:
        if ell_cap is None:
            raise ValueError("alpha = 0 with a Hermite provider needs ell_cap")
        domain = tuple((l,) for l in range(min(ell_cap, HERMITE_ELL_CAP) + 1))
    later = FourierSymbol.unit(basis.dim) if fourier else provider  # the folds after the first
    acc = inputs[0]
    terms = 0
    for i, u in enumerate(inputs[1:]):
        prov = later if i else provider
        res = direct_sparse_eval(EvalRequest(prov, (acc, u), pair_spec, domain))
        acc = res.vector
        terms += res.terms
    return EvalResult(acc, terms)


def _shared_basis(inputs: Sequence[SpectralVector], kind: BasisKind, oracle: str) -> Basis:
    """The basis all inputs share, which must be of the kind the named oracle applies to."""
    if not inputs:
        raise ValueError("need at least one input")
    basis = inputs[0].basis
    if basis.kind is not kind:
        raise ValueError(f"the {oracle} oracle applies to {kind.value.capitalize()} inputs")
    if any(u.basis != basis for u in inputs):
        raise ValueError("all inputs must share one basis")
    return basis


def dense_oracle_fourier(
    inputs: Sequence[SpectralVector],
    symbol: FourierSymbol | None = None,
) -> SpectralVector:
    """Full convolution of the stored entries, with no sparsity at all.

    Desk-scale reference, one numpy path in every dimension: each factor's
    keys, shifted to start at 0, are flattened in the C order of the output
    box, so the flat key of a sum is the sum of the flat keys, and the
    factors are folded by np.convolve on dense lines.  Cost and memory
    follow the span of the inputs' box, not their number of entries.  An
    optional symbol applies b as one more factor.
    """
    basis = _shared_basis(inputs, BasisKind.FOURIER, "convolution")
    factors = [u.as_arrays() for u in inputs]
    if symbol is not None:
        if symbol.dim != basis.dim:
            raise ValueError("symbol dimension does not match the inputs")
        factors.append(symbol.arrays)
    if not all(len(vals) for _, vals in factors):
        return SpectralVector(basis, {})
    lows = [keys.min(axis=0) for keys, _ in factors]
    # the output box in Python ints, where sums cannot wrap
    low = [sum(c) for c in zip(*(own.tolist() for own in lows))]
    high = [sum(c) for c in zip(*(keys.max(axis=0).tolist() for keys, _ in factors))]
    if max(map(abs, low + high)) > COORD_MAX:
        raise ValueError(f"output indices reach past the int64 bound |c| <= {COORD_MAX}")
    box = [h - l + 1 for l, h in zip(low, high)]
    if math.prod(box) > COORD_MAX:  # no factor's flat keys span more
        raise ValueError(f"the output box has flat keys past the int64 limit {COORD_MAX}")
    line, off = None, 0
    for (keys, vals), own in zip(factors, lows):
        flat = np.ravel_multi_index(tuple((keys - own).T), box)
        start = int(flat.min())
        factor = np.zeros(int(flat.max()) - start + 1, dtype=complex)
        factor[flat - start] = vals
        line = factor if line is None else np.convolve(line, factor)
        # trim exact zeros from both ends: np.convolve's order of summation,
        # and so the bits of the d=1 outputs, depend on the operands' lengths
        nz = np.flatnonzero(line)
        if not len(nz):
            break
        line, off = line[nz[0] : nz[-1] + 1], off + start + int(nz[0])
    nz = np.flatnonzero(line)
    keys = np.stack(np.unravel_index(nz + off, box), axis=1) + np.array(low, dtype=np.int64)
    return SpectralVector._from_arrays(basis, keys, line[nz])


def dense_oracle_hermite(
    inputs: Sequence[SpectralVector],
    n_nodes: int,
    jmax_out: int,
    strict: bool = True,
) -> SpectralVector:
    """Pointwise route: evaluate the inputs at quadrature nodes, multiply,
    and project back onto chi_0 .. chi_jmax_out.

    The product of p inputs and one projector carries exp(-(p+1)x^2/2), so
    nodes are substituted with c = sqrt((p+1)/2) and combined with scaled
    weights.  With strict=True the node count must make the rule exact for
    the polynomial degree involved; strict=False emulates a practical
    fixed-resolution transform.  Either way no input or output degree may
    pass MAX_DEGREE, which no other Hermite route passes either.
    """
    basis = _shared_basis(inputs, BasisKind.HERMITE, "transform")
    if jmax_out < 0:
        raise ValueError(f"jmax_out must be >= 0, got {jmax_out}")
    degs = [int(u.as_arrays()[0].max(initial=0)) for u in inputs]
    needed = sum(degs) + jmax_out
    if strict and 2 * n_nodes - 1 < needed:
        raise ValueError(
            f"{n_nodes} nodes cannot integrate degree {needed}; need at least {(needed + 2) // 2}"
        )
    top = max(max(degs, default=0), jmax_out)  # the chi rows evaluated at every node
    if top > MAX_DEGREE:
        raise ValueError(f"degree {top} exceeds {MAX_DEGREE}, the Hermite degree limit")
    weights, chi = _chi_table(n_nodes, len(inputs) + 1, top)
    prod = weights.astype(complex)
    sums = {}  # per distinct input: the sum of u_j chi_j at the nodes
    for u in inputs:
        if id(u) not in sums:
            keys, coeffs = u.as_arrays()
            # the rows are added in key order; summed as float pairs, so that
            # a one-node rule does not sum them pairwise
            rows = coeffs[:, None] * chi[keys[:, 0]]
            sums[id(u)] = rows.view(float).sum(axis=0).view(complex)
        prod *= sums[id(u)]
    proj = chi[: jmax_out + 1] @ prod
    return SpectralVector._from_arrays(basis, np.arange(jmax_out + 1).reshape(-1, 1), proj)


def error_report(
    approx: SpectralVector,
    reference: SpectralVector,
    s: float = 0.0,
    size: SizeFunction = SizeFunction.MAX,
) -> float:
    """Weighted l1 distance over the union of the supports."""
    if approx.basis != reference.basis:
        raise ValueError("cannot compare vectors over different bases")
    a_keys, a_vals = approx.as_arrays()
    r_keys, r_vals = reference.as_arrays()
    keys = np.concatenate([a_keys, r_keys])
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    first = np.ones(len(ranked), dtype=bool)  # the first row of each run of equal keys
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    slot = np.empty(len(keys), dtype=np.intp)  # each row's place in the sorted union
    slot[order] = np.cumsum(first) - 1
    diff = np.zeros(int(first.sum()), dtype=complex)
    diff[slot[: len(a_keys)]] = a_vals
    diff[slot[len(a_keys) :]] -= r_vals
    # np.abs on complex can round differently from Python's abs; hypot does not
    gaps = np.hypot(diff.real, diff.imag).tolist()
    if s == 0:  # size(j) ** 0 * x == x exactly; skip the size and the power
        return float(sum(gaps))
    # every term is >= +0.0, so leaving out the zero gaps keeps the sum's bits,
    # and a weight is formed only where its gap counts
    held = [(tuple(j), g) for j, g in zip(ranked[first].tolist(), gaps) if g]
    try:
        return float(sum(size.of(j) ** s * g for j, g in held))
    except OverflowError:  # the weight grows with the size, so the largest passes
        j, limit = max((j for j, _ in held), key=size.of), sys.float_info.max
        raise ValueError(f"index {j}: size ** {s} passes the float limit {limit!r}") from None


class RatePrediction(NamedTuple):
    value: float
    valid: bool


def predicted_rate(
    s: float,
    s_prime: float,
    sigma_embed: float = 1.0,
    *,
    theta: float,
    nu: float,
    kappa: float,
    alpha: int,
) -> RatePrediction:
    """Guaranteed direct-method rate: error = O(N**-value) when valid.

    sigma_embed is the exponent relating the two size functions in play
    (1 when the estimate and the budget use the same size).  The flag is
    False when s_prime sits below the regularity threshold, in which case
    the formula value is returned anyway but is not backed by the theory.
    """
    beta = min(
        (s_prime - sigma_embed * s - theta * kappa) / (sigma_embed * alpha + 1),
        s_prime - (1.0 - theta) * kappa - nu,
    )
    valid = s_prime >= max(sigma_embed * s + theta * kappa, (1.0 - theta) * kappa + nu)
    return RatePrediction(beta, valid)


def predicted_rate_iterative(
    p: int,
    s: float,
    s_prime: float,
    *,
    theta: float,
    nu: float,
    kappa: float,
    alpha: int,
) -> RatePrediction:
    """Guaranteed rate for the folded binary products; equals the direct
    formula with sigma_embed = 1 at p = 2."""
    if p < 2:
        raise ValueError(f"iterative rate needs p >= 2, got {p}")
    beta = min(
        (s_prime - s - (p - 1) * theta * kappa) / (alpha + 1),
        s_prime - (p - 3) * theta * kappa - kappa - nu,
    )
    valid = s_prime >= max(s + (p - 1) * theta * kappa, (1.0 - theta) * kappa + nu)
    return RatePrediction(beta, valid)
