"""Sparse, iterative, and dense evaluation of coefficient-space products.

The target quantity per output index ell is

    X_ell = sum over admitted (j_1, ..., j_p) of a_{ell;js} * u^1_{j_1} * ... * u^p_{j_p}

with the tuples admitted by a SparseSetSpec budget.  Both bases plan their
outputs in one place (_outputs): of the candidate indices, an explicit
domain or the default range, they keep each ell that can have a term, with
the budget N // size(ell)**alpha it leaves to the inputs; at alpha = 1 no
ell past min(N, box) has a term, at alpha = 0 none past the box.  Both
share one budget-class planner (_Slots): the budget a slot leaves to the
next only takes the values N // m, O(sqrt(N)) of them, so the entries of a
slot that leave the same budget form one block, combined as a whole with
the sum of the later slots at that budget.  The planner finds each slot's
distinct budgets top-down and has the basis lay out all the steps of a
slot at once, bottom-up, over arrays of the slot's blocks at every budget.
Each basis supplies what a block combine computes:

* A Fourier coefficient is a symbol entry b_{ell - sum(js)}, so X is b
  convolved with the budgeted sum, and a block is one numpy convolution per
  run of nearby keys, over lines trimmed to their own span.  At alpha = 1,
  size(ell) * prod size(j) <= N exactly when prod size(j) <= N // size(ell),
  so X_ell is the alpha = 0 sum at budget N // size(ell), read at ell; the
  outputs are grouped by that budget with one stable sort, and each group
  reads its terms with one gather.  The work is split in two passes.  The
  plan reads only the supports, the symbol's keys, the spec and the
  explicit domain: it lays out every run and line, and it alone forms the
  count lines (the same convolutions over 0/1 indicators), which fix the
  outputs that have a term and the number of terms.  The value pass runs
  the laid-out convolutions on the values.  np.convolve sums in an order
  set by its operands' lengths, and numpy rounds a lone complex product
  apart from a longer one, so the arithmetic on values stays per run and
  per group, which keeps the outputs' bits.  Cost and memory follow the
  span of the input supports, not the number of entries.
* A Hermite coefficient is the integral of chi_ell chi_j1 ... chi_jp, so X
  is the projection onto chi_ell of a budgeted sum of products of
  functions, and a block is a sum of rows multiplied once by the later
  slots' sum, at the nodes of one Gauss-Hermite rule that integrates every
  term exactly.  The plan reads only the supports, the spec and the
  candidate outputs: the same blocks tally the terms, once per distinct
  budget, as sums of Python ints over per-input prefix counts of odd keys,
  which fix the outputs that have a term of their own parity, the number of
  terms and the rule.  The plan also lists the steps its kept outputs
  reach and, per kept budget, its top step and the outputs that read it.
  The value pass forms the rows on the values, runs the listed steps at
  the nodes and projects.  No coefficient is looked up.

Both bases thus plan without values, each (slot, budget) once, and list
their steps, each after the steps it reads; a value pass runs the steps
its plan lists, in order, on the values, and plans nothing nor writes to
the plan.  direct_sparse_eval runs the two passes the same way, and skips
the value pass of a plan that kept no output.  Both are deterministic:
every sum is accumulated in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .coeffs import FourierSymbol, HermiteCache, _chi_table
from .indices import COORD_MAX, Index, SizeFunction, SparseSetSpec, _integers
from .quadrature import MAX_DEGREE, MAX_NODES, gauss_hermite_rule, hermite_batch
from .spectral import Basis, BasisKind, SpectralVector, _weighted_l1

# The last Hermite candidate output.  Sizes grow with ell on N^1, so of 2048
# and 2049 the one of a later ell's parity has a budget at least as large:
# where the later ell has a term of its parity, so does that one, and the
# projection refuses its degree, which passes MAX_DEGREE.  Later candidates
# would change only the degree that the refusal names.
HERMITE_ELL_CAP = MAX_DEGREE + 2

# Entries of one dense array an evaluation lays out over a span of keys: the
# grid of candidate outputs, a line of the Fourier plan, or the dense
# oracle's output box.  2**24 complex entries are 256 MiB.  The tests, tools
# and benchmark lay out at most 529,208 entries in one array, and the keys
# {0, 1, 10**6} at p = 3 in d = 1 a grid of 3 * 10**6 + 1.
DENSE_ENTRIES_MAX = 2**24


def _check_dense(what: str, entries: int) -> None:
    """Refuse a dense array past DENSE_ENTRIES_MAX before it is allocated."""
    if entries > DENSE_ENTRIES_MAX:
        raise ValueError(f"{what} has {entries} entries, past the limit of {DENSE_ENTRIES_MAX}")


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation task: provider, inputs, sparse-set parameters.

    The kernel is chosen by the provider's basis: a Fourier provider is the
    symbol b, a coefficient vector on the inputs' lattice (a FourierSymbol
    or any Fourier SpectralVector), and a Hermite provider fixes only the
    basis."""

    provider: SpectralVector | HermiteCache
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
    bounds = list(zip(lo.tolist(), hi.tolist()))
    _check_dense("the output grid", math.prod(max(0, b - a + 1) for a, b in bounds))
    axes = [np.arange(a, b + 1) for a, b in bounds]
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
    """The budget-class planner over p inputs, apart from what is summed.

    A tuple (j_1, ..., j_p) is admitted at budget b when the product of the
    sizes is <= b (box-capped).  Slot s at budget b leaves b // size(j) to
    slot s + 1, and (b // x) // y is b // (x y), so only the budgets N // m
    are reached, about 2 sqrt(N) per slot.  Each input is trimmed to its
    entries of admissible size and sorted by size once.  need[s] is the least
    budget that admits a tuple of slots s..p-1; a slot-s entry that leaves
    less than need[s + 1] heads no tuple and is cut.  The remaining entries
    that leave the same budget c form one block, combined as a whole with
    the next slot's step at budget c.  The kernels supply the combine.

    Each distinct input is kept once, in self.inputs, and slot s reads
    self.inputs[self.at[s]]; the kernels' per-input tables follow that list.
    The tables hold supports only: values(inputs) takes each slot's values
    to its size order, for any inputs on the same supports.

    levels() plans a slot's budgets a level at a time: each slot's distinct
    budgets are found top-down, and each kernel's _level lays out all the
    steps of one slot at once, bottom-up, appending them to the plan's list
    after the steps of the next slot, so a value pass runs the list in order
    and plans nothing.
    """

    def __init__(self, inputs: Sequence[SpectralVector], spec: SparseSetSpec):
        cap = _cap(spec)
        place = {}  # the place of each distinct input in self.inputs, in order of first use
        self.at = [place.setdefault(id(u), len(place)) for u in inputs]
        # per distinct input: sizes and coordinates sorted by size then key,
        # and the order that takes its entries there
        self.inputs = []
        for u in {id(u): u for u in inputs}.values():
            coords = u.as_arrays()[0]
            sizes = _sizes(coords, spec.size, cap)
            order = np.flatnonzero(sizes <= cap)
            order = order[np.argsort(sizes[order], kind="stable")]
            self.inputs.append((sizes[order], coords[order], order))
        self.slots = [self.inputs[i] for i in self.at]
        self.empty = any(len(sizes) == 0 for sizes, _, _ in self.inputs)
        if not self.empty:
            least = [int(sizes[0]) for sizes, _, _ in self.slots]
            self.need = [math.prod(least[s:]) for s in range(len(least) + 1)]
            # sat[s]: slot s plans any budget b >= sat[s] as it does sat[s].
            # With M the slot's largest size, the last slot admits every
            # entry in one block at any b >= M.  At b >= max(M**2, M *
            # sat[s + 1]) an earlier slot admits every entry (b // need[s + 1]
            # >= M, as need[s + 1] <= sat[s + 1]); for sizes x < y <= M, b / x
            # - b / y >= b / (x y) >= 1, so b // x > b // y and each size is a
            # block of its own; and every sub-budget b // size is >= sat[s + 1].
            # By induction the step at b has the (hi, starts) and the sub steps
            # of the step at sat[s].
            most = [int(sizes[-1]) for sizes, _, _ in self.slots]
            self.sat = [0]  # past the last slot
            for s, m in enumerate(reversed(most)):
                self.sat.insert(0, max(m * m, m * self.sat[0]) if s else m)

    def values(self, inputs: Sequence[SpectralVector]) -> list[np.ndarray]:
        """Each slot's values in its size order."""
        return [u.as_arrays()[1][self.inputs[i][2]] for u, i in zip(inputs, self.at)]

    def levels(self, s: int, budgets) -> np.ndarray:
        """The steps of slot s at budgets, each >= need[s], as _level gives
        them, one per budget.

        A budget past sat[s] is read as sat[s], which plans the same.
        Top-down, each slot's distinct budgets b are found, and in groups of
        at most _LEVEL_ENTRIES admitted entries (or one budget), as arrays
        over their entries laid back to back: the admitted prefix [:hi] of
        each b's size order, where each prefix starts (heads), the starts of
        its blocks of equal b // size and, as subs, the place among the next
        slot's budgets of the budget each block leaves to it.  Bottom-up,
        _level lays out the steps of a group, given below, the steps of the
        next slot's budgets.
        """
        last = len(self.slots) - 1
        budgets = np.minimum(budgets, min(self.sat[s], COORD_MAX))
        b = top = np.unique(budgets)
        levels = []  # per slot from s on: its groups of budgets, as (his, heads, starts, subs)
        for t in range(s, last + 1):
            sizes = self.slots[t][0]
            his = np.searchsorted(sizes, b // self.need[t + 1], side="right")
            if t == last:  # one block each, which leaves nothing to spend
                levels.append((t, [(his, np.cumsum(his) - his, None, None)]))
                break
            group = max(1, _LEVEL_ENTRIES // len(sizes))  # budgets, each with hi <= len(sizes)
            level = []
            for a in range(0, len(b), group):
                hs = his[a : a + group]
                heads = np.cumsum(hs) - hs  # where each budget's entries start
                pos = np.arange(heads[-1] + hs[-1]) - np.repeat(heads, hs)  # their places
                cs = np.repeat(b[a : a + group], hs) // sizes[pos]
                first = pos == 0  # each budget's first entry starts a block
                first[1:] |= cs[1:] != cs[:-1]
                starts = np.flatnonzero(first)
                cs = np.minimum(cs[starts], min(self.sat[t + 1], COORD_MAX))
                level.append((hs, heads, starts, cs))
            b = np.unique(np.concatenate([cs for *_, cs in level]))  # the next slot's budgets
            levels.append((t, [(*g, np.searchsorted(b, c)) for *g, c in level]))
        steps = None
        for t, level in reversed(levels):
            steps = np.concatenate([self._level(t, *group, steps) for group in level])
        return steps[np.searchsorted(top, budgets)]


# A slot's budgets are planned in groups of at most this many admitted
# entries in all, so that the working arrays of a level stay small.
_LEVEL_ENTRIES = 2**14

# A hole between two entries of a block is filled with zeros when that costs
# fewer multiply-adds than one more np.convolve call (about a microsecond).
_HOLE_MACS = 1024


class _BudgetClasses(_Slots):
    """The plan of the budgeted sums over tuples of Fourier inputs, as dense
    convolutions.

    Multi-indices are flattened to one integer each, key(j) = sum_c j_c *
    stride_c, with strides wider than the output extent in every coordinate:
    the key of a sum is the sum of the keys and no two outputs share a key.
    line(s, b) is the sum over the tuples of slots s..p-1 within budget b
    of prod u, placed at the key of sum(js).  A block of slot-s entries is
    convolved with line(s + 1, c) as a whole.

    The plan reads the supports, the symbol's keys, the spec and the output
    domain, and no value.  Each line is one step, the layout of its runs
    over the lines of earlier steps; levels() gives the span and step of
    line(s, b), and lays out the steps of all the budgets a slot is asked
    for at once.  The steps run over ones give the count lines, the number
    of tuples at each key; only the plan forms them, to keep the outputs
    that have a term and count the terms.  evaluate() is the value pass: the
    same steps over the inputs' and the symbol's values.
    """

    def __init__(
        self,
        inputs: Sequence[SpectralVector],
        symbol: SpectralVector,
        spec: SparseSetSpec,
        ells: np.ndarray | None,
    ):
        super().__init__(inputs, spec)
        self.alpha, self.terms = spec.alpha, 0
        self.ells = np.empty((0, spec.lattice.dim), dtype=np.int64)  # the outputs with a term
        self.flat, self.steps, self.classes, self.feeds = [], [], [], {}
        # with no tuple in the budget, no key is formed
        if self.empty or not len(symbol) or self.need[0] > spec.level:
            return
        bkeys = symbol.as_arrays()[0]
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
        lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
        strides = np.array(strides, dtype=np.int64)
        keys = [coords @ strides for _, coords, _ in self.inputs]
        self.flat = [keys[i] for i in self.at] + [bkeys @ strides]  # per slot, then the symbol's
        if ells is None:
            ells = _grid(spec, lo, hi)
        else:
            # outside the reachable box a flat key could alias one inside it
            ells = ells[np.all((ells >= lo) & (ells <= hi), axis=1)]
        ells, budgets = _outputs(spec, ells)
        if not len(ells):
            return
        sym = self._level(len(self.slots), np.r_[len(bkeys)], None, None, None, None)  # placed
        self.sym = tuple(sym[0].tolist())
        if spec.alpha:
            self._classes(ells @ strides, budgets)
        else:  # the line symbol * line(0, N), read at each ell within it
            total = self.levels(0, [spec.level])[0].tolist()
            pos = ells @ strides - (total[0] + self.sym[0])
            at = (pos >= 0) & (pos < total[1] + self.sym[1] - 1)
            ells, self.pos, self.total = ells[at], pos[at], total[2]
        longest = max([n for *_, n in self.steps] + [self.width if spec.alpha else 0])
        _check_dense("a count line", longest)
        cnts = self._sums([np.ones(len(k)) for k in self.flat])
        # every partial sum of a count is at most the count, so one below
        # 2**53 is exact in float64, and one that is not still reads >= 2**53
        if cnts.max(initial=0) >= 2**53:
            raise ValueError(f"an output has {cnts.max():.0f} terms, at or past 2**53, where"
                             " the float64 count lines stop being exact")
        self.keep = cnts > 0
        self.ells, self.terms = ells[self.keep], sum(cnts[self.keep].astype(np.int64).tolist())
        # a class is gathered whole or not at all: one with no term is dropped
        self.classes = [c for c in self.classes if self.keep[self.order[c[0] : c[1]]].any()]

    def _level(self, s: int, his: np.ndarray, heads, starts, subs, below) -> np.ndarray:
        """The (lo, length, step) of the lines of new steps of slot s, one
        per admitted prefix [:hi] (past the last slot, of the symbol's keys).

        The last slot's one block meets the unit line, so a prefix's entries
        are placed as they are, over the span of their keys (subs is None).
        Otherwise, with the prefixes laid back to back from heads on,
        starts[k] is where block k starts and below[subs[k]] the (lo, length,
        step) of its sub line.  A step sums, over its entries j, u_j * the
        sub line of j's block shifted by key(j).  A block is cut into runs of
        nearby keys, each run one np.convolve of its own line with the
        block's sub line, and a lone key a scaled copy of it; the parts are
        added in run order.  The layout is worked out at once for all runs of
        all the steps: the cuts, each entry's place in its run, each line's
        span and where each run's part starts in it.
        """
        keys = self.flat[s]
        if subs is None:
            lo = np.minimum.accumulate(keys)[his - 1]
            n = np.maximum.accumulate(keys)[his - 1] - lo + 1
            new = [(s, slice(h), a, None, m) for h, a, m in np.stack((his, lo, n), 1).tolist()]
        else:
            pos = np.arange(heads[-1] + his[-1]) - np.repeat(heads, his)
            # blocks are consecutive in the size order, so sorting by (block,
            # key) keeps each entry's block and step, and leaves a run's keys
            # ascending
            group = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(pos)))
            pos = pos[np.lexsort((keys[pos], group))]
            keys = keys[pos]
            sub_lo, width, sub = below[subs[group]].T  # each entry's block's sub line
            cut = (np.diff(keys, prepend=keys[:1]) - 1) * width > _HOLE_MACS
            cut[starts] = True
            first = np.flatnonzero(cut)
            last = np.append(first[1:], len(keys)) - 1
            at = keys + sub_lo  # where each entry's shifted sub line starts
            runs = np.searchsorted(first, heads)  # each step's first run
            lo = np.minimum.reduceat(at[first], runs)
            n = np.maximum.reduceat(at[last] + width[last], runs) - lo
            rel = keys - np.repeat(keys[first], last - first + 1)
            count = np.diff(runs, append=len(first))  # each step's runs
            head, base = np.repeat(heads, count), np.repeat(lo, count)  # each run's step's
            table = (first - head, last + 1 - head, rel[last] + 1, sub[first], at[first] - base)
            table = list(zip(*(x.tolist() for x in table)))
            e, r = heads.tolist() + [len(keys)], runs.tolist() + [len(first)]
            new = [(s, pos[e[i] : e[i + 1]], rel[e[i] : e[i + 1]], table[r[i] : r[i + 1]], m)
                   for i, m in enumerate(n.tolist())]
        self.steps += new
        return np.stack((lo, n, np.arange(len(self.steps) - len(new), len(self.steps))), axis=1)

    def _classes(self, targets: np.ndarray, budgets: np.ndarray) -> None:
        """alpha = 1: X_ell = (symbol * line(0, budget(ell)))[ell].

        line(0, c) is never formed whole: an ell of class c reads sum
        over slot-0 entries j of u_j * row(c // size(j))[ell - j].  One
        stable sort groups the ells by class, and one gather per class reads
        its (members, h) block from the rows stored back to back, each
        between two zeros: an offset held to a row's window reads the row or
        a zero beside it.  Each class multiplies and sums its own block,
        since the bits of a complex product depend on the shape it is taken
        in.  The plan keeps each class's members and the row each slot-0
        entry reads.
        """
        sizes0 = self.slots[0][0]
        self.order = np.argsort(budgets, kind="stable")  # by class, and by key within one
        self.targets = targets[self.order]
        bounds = np.flatnonzero(np.diff(budgets[self.order], prepend=-1, append=-1)).tolist()
        classes = budgets[self.order[bounds[:-1]]].tolist()
        his = np.searchsorted(sizes0, classes, side="right").tolist()
        reads = [c // sizes0[:h] for c, h in zip(classes, his)]  # the row of each slot-0 entry
        wanted = np.unique(np.concatenate(reads))
        # row c is symbol * line(1, c), every slot but the first at budget c,
        # on the step of line(1, c) (-1: no tuple, no row); at p = 1 it is the
        # symbol's own line
        rows = np.tile(self.sym if len(self.slots) == 1 else (0, 0, -1), (len(wanted), 1))
        if len(self.slots) > 1 and (held := wanted >= self.need[1]).any():
            rows[held] = self.levels(1, wanted[held]) + (self.sym[0], self.sym[1] - 1, 0)
        los, lens, sources = rows.T
        # the rows back to back, each between two zeros, row k from bases[k] on;
        # the read at ell - j of row k is at ell - (key(j) + shift[k]) in flat,
        # held to [below[k], above[k]]
        bases = np.cumsum(lens + 1) - lens
        self.width = int((lens + 1).sum()) + 1
        # the rows each step's line makes
        for k, base, n in zip(sources.tolist(), bases.tolist(), lens.tolist()):
            if n:
                self.feeds.setdefault(k, []).append(base)
        self.shift, self.below, self.above = los - bases, bases - 1, bases + lens
        for a, e, h, read in zip(bounds, bounds[1:], his, reads):
            self.classes.append((a, e, h, np.searchsorted(wanted, read)))

    def _sums(self, vals: list[np.ndarray]) -> np.ndarray:
        """The sum at each candidate output, over vals: each slot's values in
        its size order, then the symbol's (ones for the count lines)."""
        flat = np.zeros(self.width, dtype=vals[-1].dtype) if self.alpha else None
        lines = []
        for step, (s, order, rel, runs, n) in enumerate(self.steps):
            v = vals[s][order]
            out = np.zeros(n, dtype=v.dtype)
            if runs is None:  # rel is the line's first key
                out[self.flat[s][order] - rel] = v
            else:
                for a, e, m, k, i in runs:
                    if e - a == 1:
                        part = v[a] * lines[k]
                    else:  # a run's keys ascend, so it spans m keys from its first on
                        run = np.zeros(m, dtype=v.dtype)
                        run[rel[a:e]] = v[a:e]
                        part = np.convolve(run, lines[k])
                    out[i : i + len(part)] += part
            if step in self.feeds:  # alpha = 1: its rows are filled in place, and
                # no later step reads it (slot 0 forms no line), so it is dropped
                row = out if len(self.slots) == 1 else np.convolve(out, lines[self.sym[2]])
                for base in self.feeds[step]:
                    flat[base : base + len(row)] = row
                out = row = None
            lines.append(out)
        if not self.alpha:
            return np.convolve(lines[self.total], lines[self.sym[2]])[self.pos]
        out = np.zeros(len(self.targets), dtype=flat.dtype)
        for a, e, h, rows in self.classes:
            # keys + los is the key of a sum in the box, so an offset stays within
            # its span; held to [below, above] it reads a row or a zero beside it
            idx = self.targets[a:e, None] - (self.flat[0][:h] + self.shift[rows])
            np.maximum(np.minimum(idx, self.above[rows], out=idx), self.below[rows], out=idx)
            out[self.order[a:e]] = np.add.reduce(flat[idx] * vals[0][:h], axis=1)
        return out

    def evaluate(self, inputs: Sequence[SpectralVector], symbol: SpectralVector) -> np.ndarray:
        """The value pass: the sums at self.ells, for inputs and a symbol on
        the supports and keys of this plan."""
        return self._sums(self.values(inputs) + [symbol.as_arrays()[1]])[self.keep]


class _Tally(NamedTuple):
    """The tuples within one budget: counted by the parity of their degree
    sum, and the largest degree sum."""

    even: int
    odd: int
    deg: int


class _HermiteClasses(_Slots):
    """The plan of the budgeted sums over tuples of Hermite inputs, pointwise
    at quadrature nodes.

    P(s, b)(x) is the sum over the tuples of slots s..p-1 within budget b of
    prod u_j chi_j(x).  By orthonormality X_ell is the integral of chi_ell *
    P(0, budget(ell)).  The integrand chi_ell * prod chi_j is a polynomial of
    degree D = ell + sum(js) times exp(-(p+1) x^2 / 2); substituting y = c x
    with c = sqrt((p+1)/2) turns that into exp(-y^2), which a rule of
    ceil((D + 1) / 2) nodes integrates exactly.  A block's rows u_j chi_j
    are summed once and multiplied once by P(s + 1, c).

    chi_j(-x) = (-1)**j chi_j(x), so P is kept as an even part (tuples of
    even degree sum) and an odd part, each at the rule's nonnegative nodes
    only; chi_ell meets the part of its own parity, and the other part
    integrates to zero exactly.

    The plan reads the supports, the spec and the candidate outputs, and no
    value.  Each step (s, hi, starts, sub steps, tally) tallies its blocks
    on Python ints: it counts the tuples of either parity and finds the
    largest degree, which fix the outputs that have a term of their own
    parity, the number of terms and the rule.  Per distinct input it keeps
    the keys in size order and the prefix count of odd keys, so a block is
    read as three numbers with no numpy call.  levels() plans the outputs'
    distinct budgets at once, a slot at a time; step 0 is the unit past the
    last slot.  Of the kept outputs' budgets, reads holds each one's top
    step and the outputs that read it, and live the steps they reach, in
    list order.  evaluate() is the value pass: the rows, the live steps at
    the nodes, and the projections; it is run only on a plan that kept an
    output.
    """

    def __init__(
        self, inputs: Sequence[SpectralVector], spec: SparseSetSpec, ells: np.ndarray | None
    ):
        if ells is None and spec.alpha == 0:
            raise ValueError("alpha = 0 with a Hermite provider needs an explicit output domain")
        if ells is None:
            ells = np.arange(min(_cap(spec), HERMITE_ELL_CAP) + 1)[:, None]
        super().__init__(inputs, spec)
        self.steps = [(len(self.slots), 0, [], [], _Tally(1, 0, 0))]
        keys = [coords[:, 0].tolist() for _, coords, _ in self.inputs]
        self.prefix = [(k, list(accumulate((x & 1 for x in k), initial=0))) for k in keys]
        ells, budgets = _outputs(spec, ells)
        # an ell whose budget admits no tuple has no term
        held = np.zeros(len(ells), dtype=bool) if self.empty else budgets >= self.need[0]
        per_ell = budgets[held].tolist()
        distinct = sorted(set(per_ell))
        tops = dict(zip(distinct, self.levels(0, distinct).tolist())) if distinct else {}
        tallies = {b: self.steps[k][4] for b, k in tops.items()}
        self.terms = sum(tallies[b].even + tallies[b].odd for b in per_ell)
        # the terms of the other parity integrate to zero: an ell with no term
        # of its own parity stays out, as does one with no term at all
        held[held] = [tallies[b][ell & 1] > 0 for ell, b in zip(ells[held, 0].tolist(), per_ell)]
        self.ells, budgets = ells[held], budgets[held]
        if not len(self.ells):
            return
        largest = dict(sorted(zip(budgets.tolist(), self.ells[:, 0].tolist())))  # per kept budget
        self.deg = max(ell + tallies[b].deg for b, ell in largest.items())
        if self.deg > MAX_DEGREE:
            raise ValueError(
                f"the terms reach degree {self.deg} (ell + j_1 + ... + j_p); a {MAX_NODES}-node"
                f" Gauss-Hermite rule integrates degree {MAX_DEGREE} at most"
            )
        n = self.deg // 2 + 1
        rule = gauss_hermite_rule(n)
        c = math.sqrt((len(self.slots) + 1) / 2.0)
        half = n // 2  # nodes[half:] are the nonnegative nodes
        self.weights = rule.scaled_weights[half:] * (2.0 / c)
        if n % 2:
            self.weights[0] /= 2.0  # the node at 0 has no mirror image
        self.chi = hermite_batch(self.deg, rule.nodes[half:] / c)
        # per kept budget, its top step and the outputs that read it; and the
        # steps those reach, in list order, where a step's subs come before
        # it.  A budget whose outputs were all dropped for their parity can
        # admit a key past deg, which has no row, so its steps stay out.
        self.reads = [(tops[b], np.flatnonzero(budgets == b)) for b in largest]
        live = {top for top, _ in self.reads}
        for k in range(len(self.steps) - 1, 0, -1):
            live.update(self.steps[k][3] if k in live else ())
        self.live = sorted(live - {0})

    def tally(self, b: int) -> _Tally:
        """The tuples of all slots within budget b >= need[0]."""
        return self.steps[self.levels(0, [b])[0]][4]

    def _level(self, s: int, his: np.ndarray, heads, starts, subs, below) -> np.ndarray:
        """The numbers of the new steps of slot s, one per admitted prefix
        [:hi], each tallied over its blocks and their sub steps (the last
        slot's one block over the unit).  A block [a, e) holds odd[e] -
        odd[a] odd keys, and its largest key is keys[e - 1]: keys ascend
        with size on the Hermite lattice."""
        keys, odd = self.prefix[self.at[s]]
        if subs is None:  # the last slot's one block meets the unit, step 0 (and heads[0] = 0)
            starts, subs, below = heads, 0 * heads, heads[:1]
        firsts = np.searchsorted(starts, heads).tolist() + [len(starts)]  # each step's first block
        starts, subs = (starts - np.repeat(heads, np.diff(firsts))).tolist(), below[subs].tolist()
        for i, hi in enumerate(his.tolist()):
            ss, ks = starts[firsts[i] : firsts[i + 1]], subs[firsts[i] : firsts[i + 1]]
            even_n, odd_n, deg = 0, 0, -1
            for a, e, k in zip(ss, ss[1:] + [hi], ks):
                sub, o = self.steps[k][4], odd[e] - odd[a]
                even_n += (e - a - o) * sub.even + o * sub.odd
                odd_n += (e - a - o) * sub.odd + o * sub.even
                deg = max(deg, keys[e - 1] + sub.deg)
            self.steps.append((s, hi, ss, ks, _Tally(even_n, odd_n, deg)))
        return np.arange(len(self.steps) - len(his), len(self.steps))

    def evaluate(self, inputs: Sequence[SpectralVector], provider: HermiteCache) -> np.ndarray:
        """The value pass: X_ell at self.ells, for inputs on the supports of
        this plan.  The provider fixes only the basis."""
        rows = {}  # per input and size order: its even-key and odd-key rows
        for u, i, vals in zip(inputs, self.at, self.values(inputs)):
            if (id(u), i) not in rows:
                # no term of these ells holds a key past deg; keys ascend with
                # size on the Hermite lattice, so the rest is a prefix
                keys = self.inputs[i][1][:, 0]
                held = keys <= self.deg
                row = vals[held, None] * self.chi[keys[held]]
                odd = (keys[held] & 1).astype(bool)[:, None]
                rows[id(u), i] = np.where(odd, 0.0, row), np.where(odd, row, 0.0)
        rows = [rows[id(u), i] for u, i in zip(inputs, self.at)]  # per slot
        # the even and odd parts of each listed step's P(s, b) at the
        # nonnegative nodes
        parts = {0: np.outer([1, 0], np.ones(len(self.weights), dtype=complex))}  # the unit
        for k in self.live:
            s, hi, starts, subs, _ = self.steps[k]
            even_rows, odd_rows = rows[s]
            be = np.add.reduceat(even_rows[:hi], starts, axis=0)
            bo = np.add.reduceat(odd_rows[:hi], starts, axis=0)
            se, so = (np.array(x) for x in zip(*(parts[j] for j in subs)))
            parts[k] = (be * se + bo * so).sum(axis=0), (be * so + bo * se).sum(axis=0)
        out = np.empty(len(self.ells), dtype=complex)
        for top, at in self.reads:  # each ell meets the part of its own parity
            ells = self.ells[at, 0]
            out[at] = (self.chi[ells] * np.array(parts[top])[ells & 1]) @ self.weights
        return out


def direct_sparse_eval(request: EvalRequest) -> EvalResult:
    """Evaluate the budgeted sum per output index in one pass.

    The kernel is chosen by the provider's basis.  For Fourier the output
    domain defaults to the momentum closure of the admitted tuples; for
    Hermite, alpha = 1 defaults to {ell <= HERMITE_ELL_CAP : size(ell) <= N}
    and alpha = 0 requires an explicit domain since nothing else bounds the
    output range.  An explicit domain must hold indices of the provider's
    lattice.  A Hermite provider fixes only the basis: no coefficient is
    looked up, and no table is read.  Either basis builds its plan, which
    reads no value, and runs the plan's value pass once, unless the plan
    kept no output.
    """
    spec, fourier = request.spec, request.provider.basis.kind is BasisKind.FOURIER
    ells = reach = None
    reaches = [_reach(u.as_arrays()[0]) for u in request.inputs]
    if request.output_domain is not None:
        domain = {spec.lattice.validate(ell) for ell in request.output_domain}
        ells = np.array(sorted(domain), dtype=np.int64).reshape(-1, spec.lattice.dim)
        reach = _reach(ells)
    elif fourier:
        reach = tuple(map(sum, zip(*reaches, _reach(request.provider.as_arrays()[0]))))
    spec = _clipped(spec, reaches, reach)
    if fourier:
        plan = _BudgetClasses(request.inputs, request.provider, spec, ells)
    else:
        plan = _HermiteClasses(request.inputs, spec, ells)
    vals = (plan.evaluate(request.inputs, request.provider) if len(plan.ells)
            else np.empty(0, dtype=complex))
    vector = SpectralVector._from_arrays(request.provider.basis, plan.ells, vals)
    return EvalResult(vector, plan.terms)


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
    For a Fourier provider the symbol is applied on the first fold only and
    the remaining folds use the plain product, which keeps the composition
    equal to the direct p-ary sum when the symbol is b = 1 and matches it
    bit for bit at p = 2.  A Hermite provider fixes only the basis, and
    every fold is a Hermite product; at alpha = 0 its outputs are
    0..ell_cap, and at most HERMITE_ELL_CAP.  One input has no fold: it is
    the one-slot direct evaluation, with the same provider, budget and
    outputs.
    """
    if not inputs:
        raise ValueError("need at least one input")
    basis = inputs[0].basis
    fourier = provider.basis.kind is BasisKind.FOURIER
    domain = None
    if not fourier and alpha == 0:
        if ell_cap is None:
            raise ValueError("alpha = 0 with a Hermite provider needs ell_cap")
        domain = tuple((l,) for l in range(min(ell_cap, HERMITE_ELL_CAP) + 1))
    pair_spec = SparseSetSpec(min(len(inputs), 2), level, alpha, SizeFunction.MAX, basis.lattice)
    if len(inputs) == 1:
        return direct_sparse_eval(EvalRequest(provider, tuple(inputs), pair_spec, domain))
    later = FourierSymbol.unit(basis.dim) if fourier else provider  # the folds after the first
    acc, terms = inputs[0], 0
    for i, u in enumerate(inputs[1:]):
        res = direct_sparse_eval(EvalRequest(later if i else provider, (acc, u), pair_spec, domain))
        acc, terms = res.vector, terms + res.terms
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
    symbol: SpectralVector | None = None,
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
        if symbol.basis != basis:
            raise ValueError("symbol dimension does not match the inputs")
        factors.append(symbol.as_arrays())
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
    _check_dense("the output box", math.prod(box))
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
    _integers(n_nodes=n_nodes, jmax_out=jmax_out)
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


def _ordered(keys: np.ndarray) -> np.ndarray:
    """One value per row of (n, dim) int64 keys that orders as the rows do
    lexicographically: the coordinate in d = 1, else the row's big-endian
    bytes with each sign bit flipped, compared as bytes."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    rows = np.ascontiguousarray(keys.view(np.uint64) ^ np.uint64(1 << 63), dtype=">u8")
    return rows.view(f"V{8 * keys.shape[1]}")[:, 0]


def error_report(
    approx: SpectralVector,
    reference: SpectralVector,
    s: float = 0.0,
    size: SizeFunction = SizeFunction.MAX,
) -> float:
    """Weighted l1 distance over the union of the supports: the gaps
    |a_j - r_j|, each times size(j) ** s, added one at a time from the left
    in key order.

    Each vector holds its keys in key order without repeats, so one search
    places approx's keys among reference's and nothing is reordered: the
    gaps start as reference's stored magnitudes, a shared key's gap becomes
    |a - r|, and approx's other keys insert their stored magnitudes at their
    places.
    """
    if approx.basis != reference.basis:
        raise ValueError("cannot compare vectors over different bases")
    a_keys, a_vals = approx.as_arrays()
    r_keys, r_vals = reference.as_arrays()
    a_order, r_order = _ordered(a_keys), _ordered(r_keys)
    at = np.searchsorted(r_order, a_order)  # each approx key's place among reference's
    shared = at < len(r_order)
    shared[shared] = r_order[at[shared]] == a_order[shared]  # the place holds the same key
    gaps = reference.magnitudes().copy()
    # np.abs on complex can round differently from Python's abs, and hypot
    # does not; a gap past the float range is inf, and _weighted_l1 refuses it
    with np.errstate(over="ignore"):
        diff = a_vals[shared] - r_vals[at[shared]]
        gaps[at[shared]] = np.hypot(diff.real, diff.imag)
    new = ~shared
    gaps = np.insert(gaps, at[new], approx.magnitudes()[new])
    keys = np.insert(r_keys, at[new], a_keys[new], axis=0) if s != 0 else None
    return _weighted_l1(gaps, keys, s, size)


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
