import functools
import itertools
import math
import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spspec import indices
from spspec.bounds import check_kernel_bound
from spspec.coeffs import build_cache
from spspec.evaluators import dense_oracle_hermite
from spspec.quadrature import gauss_hermite_rule, hermite_batch
from spspec.spectral import Basis, SpectralVector, power_law_vector
from spspec.indices import (
    Lattice,
    LatticeKind,
    SizeFunction,
    SparseSetSpec,
    count_indices_up_to,
    count_sparse,
    enumerate_sparse,
    indices_up_to,
    integers,
    max_norm,
    naturals,
    prod_norm,
)


def brute_tuples(spec: SparseSetSpec, ell):
    """Filter the boxed p-fold product set; the reference for enumerate_sparse.

    Any admitted index satisfies size(j) <= N, so coordinates beyond N can
    never appear and the box [-N..N]^d is exhaustive.  The inequality
    size(ell)**alpha * size(j_1) * ... * size(j_p) <= N, with every size at
    most the box, is applied to the whole p-fold product of sizes at once,
    and np.nonzero reads the admitted tuples in C order, which is the order
    of itertools.product.
    """
    if spec.lattice.kind is LatticeKind.INTEGERS:
        coords = range(-spec.level, spec.level + 1)
    else:
        coords = range(0, spec.level + 1)
    single = [j for j in itertools.product(coords, repeat=spec.lattice.dim)]
    sizes = np.array([spec.size.of(j) for j in single], dtype=np.int64)
    sz_ell = spec.size.of(ell)
    ok = sz_ell**spec.alpha * functools.reduce(np.multiply.outer, [sizes] * spec.p) <= spec.level
    if spec.box is not None:
        ok &= sz_ell <= spec.box
        ok &= functools.reduce(np.logical_and.outer, [sizes <= spec.box] * spec.p)
    return [tuple(single[i] for i in idx) for idx in zip(*(a.tolist() for a in np.nonzero(ok)))]


def weight(size: SizeFunction, j) -> int:
    if size is SizeFunction.MAX:
        return max(1, max(abs(c) for c in j))
    return math.prod(1 + abs(c) for c in j)


# ---------------------------------------------------------------- norms

def test_max_norm_values():
    assert max_norm((0,)) == 1
    assert max_norm((2, -3)) == 3
    assert max_norm((-7,)) == 7


def test_prod_norm_values():
    assert prod_norm((0, 0)) == 1
    assert prod_norm((2, -1)) == 6
    assert prod_norm((3,)) == 4


def test_norms_are_floored_at_one():
    for d in (1, 2, 3):
        zero = (0,) * d
        assert max_norm(zero) == 1
        assert prod_norm(zero) == 1


def test_sandwich_inequality():
    # MaxNorm(j) <= ProdNorm(j) <= 2^d * MaxNorm(j)^d on |coords| <= 10
    for d in (1, 2, 3):
        for j in itertools.product(range(-10, 11), repeat=d):
            m, q = max_norm(j), prod_norm(j)
            assert m <= q <= 2**d * m**d


# ---------------------------------------------------------------- lattices

def test_lattice_membership():
    assert integers(1).contains((-4,))
    assert naturals(1).contains((0,))
    assert not naturals(1).contains((-1,))
    assert not integers(2).contains((1,))


def test_lattice_dimension_validation():
    with pytest.raises(ValueError):
        Lattice(LatticeKind.INTEGERS, 0)


def test_indices_up_to_matches_count():
    for lattice in (integers(1), naturals(1), integers(2), naturals(2), integers(3), naturals(3)):
        for size in SizeFunction:
            # product-norm caps 60 and 97 have blocks of constant cap // k longer than one entry
            for cap in (1, 2, 3, 7, 12) + ((60, 97) if size is SizeFunction.PROD else ()):
                listed = list(indices_up_to(lattice, size, cap))
                assert listed == sorted(listed)
                assert len(listed) == len(set(listed))
                assert all(weight(size, j) <= cap for j in listed)
                assert count_indices_up_to(lattice, size, cap) == len(listed)


@pytest.mark.parametrize("lattice", [integers(1), naturals(2)])
@pytest.mark.parametrize("size", list(SizeFunction))
def test_no_index_fits_under_cap_zero(lattice, size):
    assert list(indices_up_to(lattice, size, 0)) == []
    assert count_indices_up_to(lattice, size, 0) == 0


# ---------------------------------------------------------------- enumeration

ENVELOPE_1D = [
    (p, n, alpha, size, kind)
    for p in (1, 2, 3)
    for n in (1, 2, 3, 5, 8, 13, 20)
    for alpha in (0, 1)
    for size in SizeFunction
    for kind in (LatticeKind.INTEGERS, LatticeKind.NATURALS)
] + [
    (4, n, alpha, size, kind)
    for n in (1, 2, 3, 5, 8)
    for alpha in (0, 1)
    for size in SizeFunction
    for kind in (LatticeKind.INTEGERS, LatticeKind.NATURALS)
]


@pytest.mark.parametrize("p,n,alpha,size,kind", ENVELOPE_1D)
def test_enumerate_matches_brute_force_1d(p, n, alpha, size, kind):
    lattice = Lattice(kind, 1)
    # box 1 admits only size-1 indices; box 3 cuts below the budget from N = 5 on
    for box in (None, 1, 3):
        spec = SparseSetSpec(p, n, alpha, size, lattice, box)
        for ell in ((0,), (2,)):
            got = list(enumerate_sparse(spec, ell))
            assert got == sorted(got)
            assert len(got) == len(set(got))
            assert got == brute_tuples(spec, ell)


@pytest.mark.parametrize("p,n", [(1, 20), (2, 20), (3, 6)])
def test_enumerate_matches_brute_force_2d(p, n):
    for lattice, ells in ((integers(2), ((0, 0), (1, -2))), (naturals(2), ((0, 0), (1, 2)))):
        for alpha in (0, 1):
            for size in SizeFunction:
                spec = SparseSetSpec(p, n, alpha, size, lattice)
                for ell in ells:
                    assert list(enumerate_sparse(spec, ell)) == brute_tuples(spec, ell)


def test_enumerate_ignores_ell_when_alpha_zero():
    spec = SparseSetSpec(2, 6, 0, SizeFunction.MAX, integers(1))
    a = list(enumerate_sparse(spec, (0,)))
    b = list(enumerate_sparse(spec, (17,)))
    assert a == b


def test_enumerate_empty_when_ell_exceeds_budget():
    spec = SparseSetSpec(2, 3, 1, SizeFunction.MAX, integers(1))
    assert list(enumerate_sparse(spec, (4,))) == []


def test_spec_example_21_tuples():
    spec = SparseSetSpec(2, 2, 0, SizeFunction.MAX, integers(1))
    got = list(enumerate_sparse(spec, (0,)))
    assert len(got) == 21
    small = [t for t in got if all(abs(j[0]) <= 1 for j in t)]
    assert len(small) == 9


def test_spec_example_momentum_budget():
    spec = SparseSetSpec(1, 3, 1, SizeFunction.MAX, naturals(1))
    assert list(enumerate_sparse(spec, (2,))) == [((0,),), ((1,),)]


def test_unit_budget_admits_every_size_one_tuple():
    # at N=1 with alpha=1 and ell=(0,) the budget forces size(j)=1 for
    # every slot, which over Z leaves the three indices {-1, 0, 1}
    for p in (1, 2, 3):
        spec = SparseSetSpec(p, 1, 1, SizeFunction.MAX, integers(1))
        got = list(enumerate_sparse(spec, (0,)))
        assert len(got) == 3**p
        assert all(max_norm(j) == 1 for t in got for j in t)


def test_monotone_in_level_and_alpha():
    for size in SizeFunction:
        prev: set = set()
        for n in (1, 2, 4, 8):
            spec = SparseSetSpec(2, n, 0, size, integers(1))
            cur = set(enumerate_sparse(spec, (0,)))
            assert prev <= cur
            prev = cur
    for n in (2, 5, 9):
        tight = SparseSetSpec(2, n, 1, SizeFunction.MAX, integers(1))
        loose = SparseSetSpec(2, n, 0, SizeFunction.MAX, integers(1))
        assert set(enumerate_sparse(tight, (2,))) <= set(enumerate_sparse(loose, (2,)))


def test_box_cap_restricts_every_slot():
    spec = SparseSetSpec(2, 12, 0, SizeFunction.MAX, integers(1), box=2)
    got = list(enumerate_sparse(spec, (0,)))
    assert got == brute_tuples(spec, (0,))
    assert all(max_norm(j) <= 2 for t in got for j in t)
    # the box also gates the output index
    assert list(enumerate_sparse(spec, (3,))) == []


def test_spec_validation():
    with pytest.raises(ValueError):
        SparseSetSpec(0, 4, 0, SizeFunction.MAX, integers(1))
    with pytest.raises(ValueError):
        SparseSetSpec(2, 0, 0, SizeFunction.MAX, integers(1))
    with pytest.raises(ValueError):
        SparseSetSpec(2, 4, 2, SizeFunction.MAX, integers(1))
    with pytest.raises(ValueError, match="^box cap must be >= 1, got 0$"):
        SparseSetSpec(2, 4, 0, SizeFunction.MAX, integers(1), box=0)


@pytest.mark.parametrize(
    "field,value", [("p", 2.0), ("level", 8.5), ("level", 8.0), ("level", "8"), ("alpha", 1.0), ("box", 3.0)]
)
def test_spec_rejects_non_integer_fields(field, value):
    fields = {"p": 2, "level": 8, "alpha": 0, "box": None, field: value}
    with pytest.raises(TypeError, match=f"^{field} must be an integer"):
        SparseSetSpec(size=SizeFunction.MAX, lattice=integers(1), **fields)


NON_INTEGER_COUNTS = [
    (check_kernel_bound, (2, 3.5, 0.5), "size_max"),
    (check_kernel_bound, (2.5, 3, 0.5), "p"),
    (gauss_hermite_rule, (2.5,), "n"),
    (hermite_batch, (2.5, np.zeros(3)), "nmax"),
    (dense_oracle_hermite, ([SpectralVector(Basis.hermite(), {(0,): 1.0})], 2.5, 3), "n_nodes"),
    (dense_oracle_hermite, ([SpectralVector(Basis.hermite(), {(0,): 1.0})], 8, 2.5), "jmax_out"),
    (build_cache, (2.0, 2), "p"),
    (build_cache, (2, 2.5), "jmax"),
    (power_law_vector, (3.0, 2.5, Basis.hermite()), "cutoff"),
    (power_law_vector, (3.0, "8", Basis.fourier()), "cutoff"),
]


@pytest.mark.parametrize("call,args,name", NON_INTEGER_COUNTS,
                         ids=[f"{call.__name__}-{name}" for call, _, name in NON_INTEGER_COUNTS])
def test_a_count_that_is_not_an_integer_is_named(call, args, name):
    # check_kernel_bound(2, 3.5, 0.5) swept sizes 1..4 and reported 64 rows
    # checked; the others raised numpy's or Python's TypeError, naming nothing
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        call(*args)


def test_spec_accepts_numpy_integers():
    spec = SparseSetSpec(np.int64(2), np.int32(8), np.int8(1), SizeFunction.MAX, integers(1), np.int64(3))
    plain = SparseSetSpec(2, 8, 1, SizeFunction.MAX, integers(1), 3)
    assert list(enumerate_sparse(spec, (1,))) == list(enumerate_sparse(plain, (1,)))
    assert count_sparse(spec) == count_sparse(plain)


@pytest.mark.parametrize("entries", [0, 1, 7, 40])
def test_enumerate_past_the_memo_cap_streams_the_same_tuples(entries, monkeypatch):
    # a small cap leaves some budgets, or all at 0, to be streamed afresh at every visit
    monkeypatch.setattr(indices, "ENUM_MEMO_ENTRIES", entries)
    cases = [
        (SparseSetSpec(3, 13, 0, SizeFunction.MAX, integers(1)), (0,)),
        (SparseSetSpec(3, 20, 1, SizeFunction.PROD, naturals(1), box=5), (1,)),
        (SparseSetSpec(2, 12, 0, SizeFunction.PROD, integers(2)), (0, 0)),
        (SparseSetSpec(2, 9, 1, SizeFunction.MAX, naturals(2), box=4), (1, 0)),
        (SparseSetSpec(4, 8, 0, SizeFunction.MAX, integers(1)), (0,)),
        (SparseSetSpec(2, 5, 0, SizeFunction.PROD, integers(3)), (0, 0, 0)),
    ]
    for spec, ell in cases:
        assert list(enumerate_sparse(spec, ell)) == brute_tuples(spec, ell)


def test_a_streamed_budget_is_listed_once_per_visit(monkeypatch):
    # a visit reads the indices and their leftover budgets from one stream,
    # not from two.  Budget 6 is visited at slot 0 and after each of the nine
    # size-1 indices of Z^2 at slot 1.
    monkeypatch.setattr(indices, "ENUM_MEMO_ENTRIES", 0)
    caps = []

    def spy(lattice, size, cap):
        caps.append(cap)
        return indices_up_to(lattice, size, cap)

    monkeypatch.setattr(indices, "indices_up_to", spy)
    spec = SparseSetSpec(2, 6, 0, SizeFunction.MAX, integers(2))
    assert list(enumerate_sparse(spec, (0, 0))) == brute_tuples(spec, (0, 0))
    assert caps.count(6) == 1 + 9


def test_a_listed_run_streams_a_leftover_past_the_memo(monkeypatch):
    # budget 12 (25 indices) and budget 1 (3) fill a memo of 28, so the runs
    # of listed 12 that leave 2, 3, 4 or 6 meet the last slot streamed, once
    # per index: the run (-6, -5) leaves 2, and so does (5, 6)
    monkeypatch.setattr(indices, "ENUM_MEMO_ENTRIES", 28)
    caps = []

    def spy(lattice, size, cap):
        caps.append(cap)
        return indices_up_to(lattice, size, cap)

    monkeypatch.setattr(indices, "indices_up_to", spy)
    spec = SparseSetSpec(2, 12, 0, SizeFunction.MAX, integers(1))
    assert list(enumerate_sparse(spec, (0,))) == brute_tuples(spec, (0,))
    assert caps == [12, 1, 2, 2, 3, 4, 6, 6, 4, 3, 2, 2]


def test_enumerate_streams_a_huge_line_lazily():
    # the first index of Z^1 within 10^9 is -10^9, which leaves budget 1 to the last slot
    spec = SparseSetSpec(2, 10**9, 0, SizeFunction.MAX, integers(1))
    tracemalloc.start()
    try:
        first = next(enumerate_sparse(spec, (0,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == ((-(10**9),), (-1,))
    assert peak < 2**20


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("lattice", [integers, naturals])
def test_max_norm_boxes_stream_in_product_order(d, lattice):
    for cap in range(1, 4):
        coords = range(-cap if lattice is integers else 0, cap + 1)
        got = indices_up_to(lattice(d), SizeFunction.MAX, cap)
        assert list(got) == list(itertools.product(coords, repeat=d))


def test_enumerate_streams_a_huge_box_lazily():
    # the first index of Z^2 within 10^9 is (-10^9, -10^9), which leaves budget 1
    spec = SparseSetSpec(2, 10**9, 0, SizeFunction.MAX, integers(2))
    tracemalloc.start()
    try:
        first = next(enumerate_sparse(spec, (0, 0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == ((-(10**9), -(10**9)), (-1, -1))
    assert peak < 2**20


@pytest.mark.parametrize("d", [1, 2, 3])
def test_enumerate_serves_a_huge_budget_lazily_through_a_product(d):
    # the first index within 2**62 leaves budget 1, whose listed run meets
    # the last slot as one product; within 2**80 an index would pass int64
    spec = SparseSetSpec(3, 2**62, 0, SizeFunction.MAX, integers(d))
    tracemalloc.start()
    try:
        first = next(enumerate_sparse(spec, (0,) * d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == ((-(2**62),) * d, (-1,) * d, (-1,) * d)
    assert peak < 2**20
    with pytest.raises(ValueError, match=re.escape(f"|c| <= {2**63 - 1}")):
        next(enumerate_sparse(replace(spec, level=2**80), (0,) * d))


@pytest.mark.parametrize("size", SizeFunction)
@pytest.mark.parametrize("lattice", [integers(1), naturals(2)])
def test_no_index_is_listed_past_the_int64_bound(lattice, size):
    # a coordinate reaches cap under the max norm and cap - 1 under the
    # product norm; the refusal comes at the call, before any index
    top = 2**63 - 1
    last = top if size is SizeFunction.MAX else top + 1
    low = -top if lattice.kind is LatticeKind.INTEGERS else 0
    assert next(indices_up_to(lattice, size, last)) == (low,) * lattice.dim
    with pytest.raises(ValueError, match=re.escape(f"|c| <= {top}")):
        indices_up_to(lattice, size, last + 1)
    # an unboxed budget past the bound refuses at the first next(), a boxed one streams
    spec = SparseSetSpec(2, 2**64, 0, size, lattice)
    stream = enumerate_sparse(spec, (0,) * lattice.dim)
    with pytest.raises(ValueError, match=re.escape(f"|c| <= {top}")):
        next(stream)
    for js in itertools.islice(enumerate_sparse(replace(spec, box=2**40), (0,) * lattice.dim), 10):
        assert all(lattice.validate(j) == j for j in js)


@pytest.mark.parametrize("spec,ell,limit", [
    (SparseSetSpec(2, 6, 0, SizeFunction.MAX, integers(1)), (2**63,), f"|c| <= {2**63 - 1}"),
    (SparseSetSpec(2, 6, 0, SizeFunction.MAX, naturals(2)), (1, -1), "not in N^2"),
    (SparseSetSpec(2, 6, 1, SizeFunction.PROD, integers(1)), (0.5,), "non-integer"),
])
def test_a_bad_ell_raises_at_the_first_next(spec, ell, limit):
    stream = enumerate_sparse(spec, ell)
    with pytest.raises(ValueError, match=re.escape(limit)):
        next(stream)


EDGE_BUDGETS = (2**62, 2**63 - 1, 2**64, 2**80)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("size", SizeFunction)
@pytest.mark.parametrize("lattice", [integers, naturals])
def test_enumerate_and_count_at_the_edge_of_the_int64_range(d, size, lattice):
    # every case either streams a sorted prefix inside the budget and the box,
    # or raises a ValueError naming its limit; nothing else may escape
    lat = lattice(d)
    top = 2**63 - 1
    ells = [(0,) * d] + [(c,) + (0,) * (d - 1) for c in (top - 1, top, top + 1)]
    if lattice is integers:
        ells.append((-top,) * d)
    for n in EDGE_BUDGETS:
        for alpha in (0, 1):
            for box in (None, 2**40):
                spec = SparseSetSpec(3, n, alpha, size, lat, box)
                for ell in ells:
                    stream = enumerate_sparse(spec, ell)
                    if max(map(abs, ell)) > top:
                        with pytest.raises(ValueError, match=re.escape(f"|c| <= {top}")):
                            next(stream)
                        continue
                    sz_ell = size.of(ell)
                    # an unboxed budget whose first index would pass the bound
                    reach = n // sz_ell**alpha - (size is SizeFunction.PROD)
                    if box is None and reach > top:
                        with pytest.raises(ValueError, match=re.escape(f"|c| <= {top}")):
                            next(stream)
                        continue
                    got = list(itertools.islice(stream, 40))
                    assert got == sorted(got) and len(got) == len(set(got))
                    for js in got:
                        sizes = [size.of(j) for j in js]
                        assert sz_ell**alpha * math.prod(sizes) <= n
                        assert box is None or max(sizes + [sz_ell]) <= box
                        assert all(lat.contains(j) for j in js)
                    # a stream is empty only where ell breaks the box or the budget
                    assert bool(got) == ((box is None or sz_ell <= box) and n // sz_ell**alpha >= 1)
                with pytest.raises(ValueError, match=f"budget {n} exceeds {2**36}"):
                    count_sparse(spec)


def test_enumerate_memory_is_bounded_by_the_memo_cap():
    # the budgets reached, 20000 // m, hold 241,079 indices in all, 3.7 times the cap
    spec = SparseSetSpec(2, 20000, 0, SizeFunction.MAX, integers(1))
    tracemalloc.start()
    try:
        n = sum(1 for _ in enumerate_sparse(spec, (0,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 884709
    assert peak <= 12 * 2**20


# ---------------------------------------------------------------- counting

def test_count_examples():
    assert count_sparse(SparseSetSpec(2, 2, 0, SizeFunction.MAX, integers(1))) == 21
    assert count_sparse(SparseSetSpec(1, 1, 0, SizeFunction.MAX, integers(1))) == 3
    assert count_sparse(SparseSetSpec(2, 4, 0, SizeFunction.PROD, naturals(1))) == 8


@pytest.mark.parametrize("p,n,alpha,size,kind", ENVELOPE_1D[::7])
def test_count_equals_enumeration_length(p, n, alpha, size, kind):
    spec = SparseSetSpec(p, n, alpha, size, Lattice(kind, 1))
    assert count_sparse(spec) == len(list(enumerate_sparse(spec, (0,))))


def test_count_with_output_index():
    # alpha=1 pairs (ell, tuple): ell ranges over sizes within the budget
    spec = SparseSetSpec(2, 6, 1, SizeFunction.MAX, integers(1))
    brute = 0
    for ell in itertools.product(range(-6, 7)):
        brute += len(brute_tuples(spec, ell))
    assert count_sparse(spec, include_ell=True) == brute


def test_count_with_output_index_needs_a_box_at_alpha_zero():
    spec = SparseSetSpec(2, 6, 0, SizeFunction.MAX, integers(1))
    with pytest.raises(ValueError):
        count_sparse(spec, include_ell=True)
    boxed = SparseSetSpec(2, 6, 0, SizeFunction.MAX, integers(1), box=6)
    brute = 0
    for ell in itertools.product(range(-6, 7)):
        brute += len(brute_tuples(boxed, ell))
    assert count_sparse(boxed, include_ell=True) == brute


def enumerated_count(spec: SparseSetSpec, include_ell: bool) -> int:
    """count_sparse by enumeration: tuples at one ell, or over every ell admitted."""
    at_origin = sum(1 for _ in enumerate_sparse(spec, (0,) * spec.lattice.dim))
    if not include_ell:
        return at_origin
    if spec.alpha == 0:  # every ell in the box admits the same tuples
        return at_origin * sum(1 for _ in indices_up_to(spec.lattice, spec.size, spec.box))
    # at alpha = 1 an ell of size above N leaves no budget
    cap = spec.level if spec.box is None else min(spec.level, spec.box)
    return sum(
        sum(1 for _ in enumerate_sparse(spec, ell))
        for ell in indices_up_to(spec.lattice, spec.size, cap)
    )


BOXED_GRID = [
    (p, d, size, kind)
    for p in (1, 2, 3)
    for d in (1, 2)
    for size in SizeFunction
    for kind in LatticeKind
]


@pytest.mark.parametrize("p,d,size,kind", BOXED_GRID)
def test_count_matches_enumeration_under_a_box(p, d, size, kind):
    # budgets above the box must keep their own sub-budgets b // k; N = 4
    # already puts budgets above boxes 1..3, and enumeration grows fast with d
    levels = (4, 9, 16) if d == 1 else (4, 9) if p < 3 else (4,)
    lattice = Lattice(kind, d)
    for n in levels:
        for box in (None, 1, 2, 3, 4, 5, 6, n + 3):
            for alpha in (0, 1):
                spec = SparseSetSpec(p, n, alpha, size, lattice, box)
                assert count_sparse(spec) == enumerated_count(spec, False), (spec, False)
                if alpha == 1 or box is not None:
                    got = count_sparse(spec, include_ell=True)
                    assert got == enumerated_count(spec, True), (spec, True)


def test_count_with_a_box_far_below_the_budget():
    # five indices of Z^2 have product-norm size <= 2, and any four of them fit in N
    spec = SparseSetSpec(3, 10**18, 1, SizeFunction.PROD, integers(2), box=2)
    assert count_sparse(spec, include_ell=True) == 5**4


@pytest.mark.parametrize("p,d,size", [(p, d, size) for p in (1, 2) for d in (1, 2)
                                      for size in SizeFunction])
def test_count_saturates_where_the_box_admits_every_tuple(p, d, size):
    # from N = box**slots on, every boxed tuple is admitted; one below, not every one
    lattice = integers(d)
    for box in (1, 2, 3):
        for alpha in (0, 1):
            slots = p + alpha
            for n in (box**slots - 1, box**slots, box**slots + 1):
                if n < 1:
                    continue
                spec = SparseSetSpec(p, n, alpha, size, lattice, box)
                assert count_sparse(spec, include_ell=True) == enumerated_count(spec, True), spec
    # every tuple is admitted at N = 2**62, box 1000: the closed form, at once
    spec = SparseSetSpec(2, 2**62, 1, size, lattice, box=1000)
    assert count_sparse(spec, include_ell=True) == count_indices_up_to(lattice, size, 1000) ** 3


def test_count_is_a_python_int():
    # cardinalities must never wrap; arbitrary-precision int is the contract
    big = count_sparse(SparseSetSpec(4, 1024, 1, SizeFunction.MAX, integers(1)))
    assert type(big) is int
    assert big > 0


def test_count_above_int64_is_exact():
    # p = 40 slots on Z^1 under the max norm: at N = 1 every slot is one of
    # {-1, 0, 1}; N = 2 also lets one slot be +-2
    spec_of = lambda n: SparseSetSpec(40, n, 0, SizeFunction.MAX, integers(1))
    assert count_sparse(spec_of(1)) == 3**40 > 2**63
    assert count_sparse(spec_of(2)) == 3**40 + 80 * 3**39


# ------------------------------------------------------- int64 and object tables


def _recorded_dtypes(monkeypatch) -> list:
    """The dtype of every table _Budgets.convolve returns, in call order."""
    seen = []
    real = indices._Budgets.convolve

    def convolve(self, *args):
        out = real(self, *args)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(indices._Budgets, "convolve", convolve)
    return seen


def _object_count(monkeypatch, spec: SparseSetSpec, include_ell: bool = False) -> int:
    """count_sparse with the index tables built on object keys: a level with an
    object input stays object, so every level runs in Python ints."""
    as_object = lambda b: b.astype(object) if isinstance(b, np.ndarray) else b
    with monkeypatch.context() as m:
        for name in ("_max_norm_count", "_line_count"):
            real = getattr(indices, name)
            m.setattr(indices, name, lambda head, b, real=real: real(head, as_object(b)))
        seen = _recorded_dtypes(m)
        count = count_sparse(spec, include_ell)
    assert set(seen) <= {np.dtype(object)}
    return count


def test_budget_roots_are_isqrt():
    ns = {1, 2, 3, 10**9, indices.BUDGET_MAX}
    ns |= {2**k + e for k in range(1, 37) for e in (-1, 0)}
    ns |= {k * k + e for k in (2, 3, 1000, 46341, 2**18 - 1, 2**18) for e in (-1, 0, 1)}
    for n in sorted(ns):
        if n <= indices.BUDGET_MAX:
            budgets = indices._Budgets(n)
            assert budgets.roots.tolist() == [math.isqrt(b) for b in budgets.keys.tolist()], n


@pytest.mark.parametrize("seed", range(4))
def test_int64_levels_count_as_python_ints_do(seed, monkeypatch):
    rng = random.Random(seed)
    seen, plain = _recorded_dtypes(monkeypatch), set()
    for _ in range(40):
        level = rng.randint(1, 3000)
        box = rng.choice((None, rng.randint(1, 16), level + rng.randint(0, 100)))
        alpha = rng.randint(0, 1)
        spec = SparseSetSpec(
            rng.randint(1, 5), level, alpha, rng.choice(list(SizeFunction)),
            rng.choice((integers, naturals))(rng.randint(1, 3)), box,
        )
        include_ell = (alpha == 1 or box is not None) and rng.random() < 0.5
        start = len(seen)
        got = count_sparse(spec, include_ell)
        plain |= set(seen[start:])
        assert type(got) is int
        assert got == _object_count(monkeypatch, spec, include_ell), (spec, include_ell)
    # the grid reaches both sides of the switch
    assert plain == {np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize("spec, first_object", [
    # Z^3 under the max norm: B passes 2**63 at the inner level, of two
    (SparseSetSpec(3, 30140, 0, SizeFunction.MAX, integers(3)), 0),
    # 17 slots on Z^2 at N = 4: only the last of 16 levels passes it
    (SparseSetSpec(17, 4, 0, SizeFunction.MAX, integers(2)), 15),
])
def test_a_count_just_past_int64_leaves_int64_where_its_bound_does(spec, first_object, monkeypatch):
    seen = _recorded_dtypes(monkeypatch)
    got = count_sparse(spec)
    assert [dtype == object for dtype in seen] == [i >= first_object for i in range(len(seen))]
    assert 2**63 < got < 2**63 + 2**58
    assert got == _object_count(monkeypatch, spec)
    # one budget less, the count fits int64
    assert count_sparse(replace(spec, level=spec.level - 1)) < 2**63


@pytest.mark.parametrize("size, dim, level", [
    *((SizeFunction.MAX, 1, n) for n in (2**11, 2**13, 2**15, 10**7)),
    *((SizeFunction.PROD, 1, n) for n in (2**7, 2**8, 2**9, 10**7)),
    *((SizeFunction.PROD, 2, n) for n in (2**6, 2**7, 2**8)),
])
def test_benchmark_counts_run_every_level_in_int64(size, dim, level, monkeypatch):
    # the nine count shapes of perfbench's count workload, and N = 10**7 on Z^1
    seen = _recorded_dtypes(monkeypatch)
    count_sparse(SparseSetSpec(3, level, 1, size, integers(dim)), include_ell=True)
    assert len(seen) >= 3 and set(seen) == {np.dtype(np.int64)}


def test_count_past_the_budget_limit_is_refused():
    limit = f"exceeds {2**36}, the largest a count tabulates"
    spec = SparseSetSpec(2, indices.BUDGET_MAX + 1, 0, SizeFunction.MAX, integers(1))
    with pytest.raises(ValueError, match=limit):
        count_sparse(spec)
    # a box closed form that would count from the product-norm table of the box
    spec = SparseSetSpec(1, 2**40, 0, SizeFunction.PROD, integers(2), box=2**40)
    with pytest.raises(ValueError, match=limit):
        count_sparse(spec)
    # on one axis the product-norm count is the line count, with no table
    for lattice, want in ((integers(1), 2 * 2**40 - 1), (naturals(1), 2**40)):
        spec = SparseSetSpec(1, 2**40, 0, SizeFunction.PROD, lattice, box=2**40)
        assert count_sparse(spec) == want
    # the max-norm box closed form needs no table, at any budget
    assert count_sparse(SparseSetSpec(2, 2**80, 0, SizeFunction.MAX, integers(1), box=3)) == 7**2


def test_huge_budgets_are_refused_before_their_table(run_capped):
    # at 2**63 the budget table asked numpy for 22.6 GiB and raised a bare
    # MemoryError; the child's capped address space keeps such a request there
    child = run_capped("-c", """
import tracemalloc
from spspec.indices import SizeFunction, SparseSetSpec, count_sparse, integers
tracemalloc.start()
for n in (2**62, 2**63, 2**80):
    try:
        count_sparse(SparseSetSpec(2, n, 0, SizeFunction.MAX, integers(1)))
    except ValueError as exc:
        print(exc)
print(tracemalloc.get_traced_memory()[1])
""")
    assert child.returncode == 0, child.stderr
    *errors, peak = child.stdout.splitlines()
    assert errors == [
        f"budget {n} exceeds {2**36}, the largest a count tabulates" for n in (2**62, 2**63, 2**80)
    ]
    assert int(peak) < 2**20


@pytest.mark.parametrize("size", SizeFunction)
def test_cumulative_counts_are_read_at_sqrt_n_budgets(size, monkeypatch):
    # C(b) = #{j : size(j) <= b} is needed only at the budgets N // m, about
    # 2 sqrt(N) of them, which _index_counts reads as one array; a loop over
    # every k <= N reads it 2N times through count_indices_up_to
    import spspec.indices as indices

    reads = [0]

    def counted(name, budgets_read):
        real = getattr(indices, name, None)
        if real is None:  # a per-k loop has no array helper
            return

        def wrapper(*args):
            reads[0] += budgets_read(*args)
            return real(*args)

        monkeypatch.setattr(indices, name, wrapper)

    counted("count_indices_up_to", lambda lattice, size, cap: 1)
    counted("_index_counts", lambda lattice, size, budgets: len(budgets.keys))
    reads_at = []
    for n in (2**10, 2**12, 2**14):
        reads[0] = 0
        count_sparse(SparseSetSpec(3, n, 1, size, integers(1)), include_ell=True)
        reads_at.append(reads[0])
    # sqrt growth doubles the reads per 4x of N; linear growth quadruples them
    assert reads_at[1] <= 2.1 * reads_at[0]
    assert reads_at[2] <= 2.1 * reads_at[1]
    assert reads_at[2] <= 2 * math.isqrt(2**14)


def test_normalized_count_stays_bounded():
    spec_of = lambda n: SparseSetSpec(2, n, 0, SizeFunction.MAX, integers(1))
    ratios = [
        count_sparse(spec_of(n)) / (n * math.log(n + 1.0))
        for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
    ]
    assert max(ratios) / min(ratios[-5:]) < 6
    assert max(ratios[-5:]) / min(ratios[-5:]) < 3
