import functools
import hashlib
import itertools
import json
import math
import operator
import random
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

from spspec import spectral
from spspec.indices import COORD_MAX, Lattice, SizeFunction
from spspec.spectral import (
    PRUNE_TOL,
    Basis,
    BasisKind,
    SpectralVector,
    dump_vector,
    l1s_norm,
    parse_vector,
    power_law_vector,
    read_vector,
    write_vector,
)

FOURIER = Basis.fourier()
HERMITE = Basis.hermite()


def random_vector(basis: Basis, seed: int, size: int = 12) -> SpectralVector:
    rng = random.Random(seed)
    entries = {}
    for _ in range(size):
        if basis.kind is BasisKind.FOURIER:
            j = tuple(rng.randint(-9, 9) for _ in range(basis.dim))
        else:
            j = (rng.randint(0, 18),)
        entries[j] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return SpectralVector(basis, entries)


# ---------------------------------------------------------------- construction

def test_entries_are_sorted_and_pruned():
    u = SpectralVector(FOURIER, {(3,): 1.0, (-1,): 2.0, (0,): 0.0, (5,): 1e-320})
    assert list(u) == [(-1,), (3,)]
    assert u[(-1,)] == 2.0 + 0j


def test_scalars_are_complex():
    u = SpectralVector(HERMITE, {(0,): 1.0})
    assert isinstance(u[(0,)], complex)


def test_key_validation():
    with pytest.raises(ValueError):
        SpectralVector(FOURIER, {(1, 2): 1.0})
    with pytest.raises(ValueError):
        SpectralVector(HERMITE, {(-1,): 1.0})
    with pytest.raises(ValueError):
        SpectralVector(FOURIER, {(1.5,): 1.0})


def test_repeated_indices_are_rejected():
    # (0.0,) validates to (0,); a pruned first value repeats all the same
    with pytest.raises(ValueError, match=r"index \(0,\) is repeated"):
        SpectralVector(FOURIER, [((0,), 1.0), ((1,), 2.0), ((0.0,), 5.0)])
    with pytest.raises(ValueError, match=r"index \(2, -1\) is repeated"):
        SpectralVector(Basis.fourier(2), iter([((2, -1), 0.0), ((2, -1), 1.0)]))


def test_equality_requires_same_basis():
    u = SpectralVector(FOURIER, {(0,): 1.0})
    v = SpectralVector(HERMITE, {(0,): 1.0})
    assert u != v
    assert u == SpectralVector(FOURIER, {(0,): 1.0 + 0j})


def test_bases_check_their_dimension():
    with pytest.raises(ValueError, match="^basis dimension must be >= 1, got 0$"):
        Basis(BasisKind.FOURIER, 0)
    with pytest.raises(ValueError, match="^the Hermite basis is one-dimensional$"):
        Basis(BasisKind.HERMITE, 2)


def test_a_vector_equals_no_dict_and_names_its_size():
    empty = SpectralVector(FOURIER, {})
    assert (empty == {}) is False
    assert empty != {}
    assert repr(SpectralVector(HERMITE, {(0,): 1.0, (3,): 2.0})) == "SpectralVector(hermite, 2 entries)"


def test_mapping_interface_is_read_only():
    u = SpectralVector(FOURIER, {(0,): 1.0})
    with pytest.raises(TypeError):
        u[(1,)] = 2.0  # type: ignore[index]


def test_lookup_and_arrays():
    u = SpectralVector(Basis.fourier(2), {(1, -2): 2.0, (-3, 0): 1j})
    assert u.get((1, -2)) == 2.0 + 0j
    assert u.get((0, 0)) is None
    assert u.get((0, 0), 0j) == 0j
    assert (-3, 0) in u and (0, 0) not in u
    keys, vals = u.as_arrays()
    assert keys.tolist() == [[-3, 0], [1, -2]]
    assert vals.tolist() == [1j, 2.0 + 0j]
    # converted once, and shared read-only
    assert u.as_arrays()[0] is keys and u.as_arrays()[1] is vals
    for a in [a for a in (keys, vals, keys.base) if a is not None]:  # a base of None is no alias
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert SpectralVector(FOURIER, {}).as_arrays()[0].shape == (0, 1)


@pytest.mark.parametrize("basis, j", [(FOURIER, (-2**63,)), (FOURIER, (2**70,)),
                                      (Basis.fourier(3), (0, 2**63, -1)), (HERMITE, (2**64,))])
def test_coordinates_past_the_bound_are_rejected(basis, j):
    message = re.escape(f"index {j} has a coordinate past the bound |c| <= {COORD_MAX}")
    with pytest.raises(ValueError, match=message):
        SpectralVector(basis, {(0,) * basis.dim: 1.0, j: 0.5})


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_non_finite_coordinates_are_rejected(c):
    # int(inf) raised a bare OverflowError
    with pytest.raises(ValueError, match=r"non-integer coordinate in index \(0, "):
        SpectralVector(Basis.fourier(2), {(0, c): 1.0})


def test_vector_files_are_held_to_the_coordinate_bound():
    message = r"^line 2: index \(18446744073709551616,\) has a coordinate past the bound"
    with pytest.raises(ValueError, match=message):
        parse_vector("0\t1.0\t0.0\n18446744073709551616\t1.0\t0.0\n", FOURIER)


def test_parse_names_the_line_of_an_index_off_the_lattice():
    with pytest.raises(ValueError, match=r"^line 3: index \(-1,\) not in N\^1$"):
        parse_vector("0\t1.0\t0.0\n\n-1\t0.5\t0.0\n", HERMITE)
    with pytest.raises(ValueError, match=r"^line 1: expected 1 coordinates, got 2$"):
        parse_vector("0 -1\t1.0\t0.0\n", HERMITE)


def test_array_built_vectors_make_no_per_entry_objects():
    # 66,049 entries: 2 MiB of arrays, 4.1 MiB traced with temporaries; 18.7 MiB with a tuple-key dict
    basis = Basis.fourier(2)
    twin = power_law_vector(3.0, 128, basis)
    tracemalloc.start()
    try:
        u = power_law_vector(3.0, 128, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
    keys, vals = u.as_arrays()
    assert len(u) == len(keys) == len(vals) == 257**2
    assert sum(1 for _ in u) == len(u) and u == twin
    assert u._lookup is None
    assert u[(128, -3)] == 129.0**-3 and u._lookup is not None


@pytest.mark.parametrize("basis", [FOURIER, Basis.fourier(2), HERMITE])
def test_items_and_values_come_from_the_arrays(basis):
    u = random_vector(basis, seed=3)
    twin = random_vector(basis, seed=3)
    items, values = u.items(), u.values()
    assert dict(items) == {j: twin[j] for j in twin}
    assert list(values) == [twin[j] for j in twin]
    assert len(items) == len(values) == len(u)
    assert u._lookup is None
    j = next(iter(u))
    assert (j, twin[j]) in items and (j, twin[j] + 1) not in items
    assert twin[j] in values and items == dict(twin.items()).items()


def test_only_spectral_names_the_vector_state():
    """Other modules read a vector through as_arrays() and build one through
    _from_arrays, so its representation can change in spectral.py alone."""
    state = re.compile(r"\b_(keys|vals|lookup|entries|arrays|mags)\b")
    named = [f"{path.name}:{n}"
             for path in sorted(Path(spectral.__file__).parent.glob("*.py")) if path.name != "spectral.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if state.search(line)]
    assert named == []


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, complex(1.0, -math.inf), complex(math.nan, 0.0)]
)
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(ValueError, match=r"index \(2,\) is not finite"):
        SpectralVector(FOURIER, {(0,): 1.0, (2,): bad})


def test_magnitudes_are_pythons_abs_of_the_kept_values():
    """Each built vector keeps |v| for every kept entry, bit for bit as
    Python's abs gives it, read-only; a pruned entry leaves none behind."""
    parts = (0.0, -0.0, 1e-300, -1e-300, 3e-301, 0.5, -3.25, 1e300, -1e300)
    values = [complex(re, im) for re, im in itertools.product(parts, repeat=2)]
    text = "".join(f"{k}\t{v.real!r}\t{v.imag!r}\n" for k, v in enumerate(values))
    keys = np.arange(len(values)).reshape(-1, 1)
    built = {
        "init": SpectralVector(Basis.fourier(2), {(k, -k): v for k, v in enumerate(values)}),
        "arrays": SpectralVector._from_arrays(FOURIER, keys, np.array(values)),
        "parse": parse_vector(text, HERMITE),
        "power law": power_law_vector(150.0, 120, HERMITE),  # 101**-150 < 1e-300
        "power law 2d": power_law_vector(3.0, 6, Basis.fourier(2)),
        "empty": SpectralVector(FOURIER, {}),
    }
    kept = [v for v in values if abs(v) >= PRUNE_TOL]
    assert 0 < len(kept) < len(values)
    for name, u in built.items():
        mags = u.magnitudes()
        assert mags.dtype == np.float64 and len(mags) == len(u), name
        assert [m.hex() for m in mags.tolist()] == [abs(v).hex() for v in u.values()], name
        assert u.magnitudes() is mags
        for a in [a for a in (mags, mags.base) if a is not None]:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
    for name in ("init", "arrays", "parse"):
        assert list(built[name].values()) == kept, name
    assert len(built["power law"]) == 100


def test_a_magnitude_past_the_float_range_is_refused():
    """Finite parts whose magnitude passes the float range are refused, at
    the first such index in key order, by every way a vector is built."""
    big = complex(1.5e308, 1.5e308)  # |big| is about 2.1e308
    limit = re.escape(repr(sys.float_info.max))
    message = rf"^coefficient at index \(3,\) has a magnitude past the float limit {limit}$"
    builds = {
        "init": lambda: SpectralVector(FOURIER, {(5,): big, (0,): 1.0, (3,): -big}),
        "arrays": lambda: SpectralVector._from_arrays(
            FOURIER, np.array([[0], [3], [5]]), np.array([1.0, -big, big])),
        "parse": lambda: parse_vector("5\t1.5e308\t1.5e308\n3\t-1.5e308\t1.5e308\n", HERMITE),
    }
    for build in builds.values():
        with pytest.raises(ValueError, match=message):
            build()
    # the largest magnitude that stays finite is kept as it is
    edge = complex(sys.float_info.max, 0.0)
    assert SpectralVector(FOURIER, {(0,): edge}).magnitudes().tolist() == [sys.float_info.max]


# ---------------------------------------------------------------- norms

def test_l1s_examples():
    assert l1s_norm(SpectralVector(FOURIER, {(0,): 1.0}), 7.0) == 1.0
    u = SpectralVector(FOURIER, {(2,): 1.0, (-2,): 1.0})
    assert l1s_norm(u, 1.0) == 4.0


@pytest.mark.parametrize("size,entries,named", [
    (SizeFunction.MAX, {(2**62,): 1.0}, (2**62,)),
    (SizeFunction.MAX, {(3,): 1.0, (-(2**62),): 0.5, (2**61,): 2.0}, (-(2**62),)),
    (SizeFunction.PROD, {(2**40, 2**30): 1.0, (-(2**50), 7): 1.0, (1, 1): 1.0}, (2**40, 2**30)),
])
def test_l1s_names_the_float_limit_where_a_weight_overflows(size, entries, named):
    """The largest size's weight passes the float range first, and is named
    as error_report names it."""
    u = SpectralVector(Basis.fourier(len(named)), entries)
    limit = re.escape(repr(sys.float_info.max))
    index = re.escape(str(named))
    with pytest.raises(ValueError, match=rf"^index {index}: size \*\* 40.0 passes the float limit {limit}$"):
        l1s_norm(u, 40.0, size)


def test_l1s_refuses_a_sum_past_the_float_range():
    text = f"the weighted sum passes the float limit {sys.float_info.max!r}"
    for u, s in [
        (SpectralVector(FOURIER, {(0,): 1.5e308, (1,): 1.5e308}), 0.0),
        (SpectralVector(FOURIER, {(9,): 1e308}), 1.0),  # 9.0 * 1e308 is inf, and Python does not raise
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            l1s_norm(u, s)
    # the largest finite sum is kept as it is
    edge = SpectralVector(FOURIER, {(0,): sys.float_info.max})
    assert l1s_norm(edge, 0.0) == sys.float_info.max


def test_l1s_power_law_partial_sums_approach_zeta():
    limit = 2.0 * (float(zeta(3.0)) - 1.0) + 1.0
    for cutoff in (50, 200, 800):
        u = power_law_vector(3.0, cutoff, FOURIER)
        partial = l1s_norm(u, 0.0)
        tail = (1.0 + cutoff) ** -2.0  # integral envelope of the dropped terms
        assert partial < limit
        assert limit - partial < tail


def test_l1s_homogeneity_and_monotonicity():
    u = random_vector(FOURIER, 11)
    scaled = SpectralVector(FOURIER, {j: 3.5 * v for j, v in u.items()})
    assert math.isclose(l1s_norm(scaled, 1.5), 3.5 * l1s_norm(u, 1.5), rel_tol=1e-13)
    assert l1s_norm(u, 0.5) <= l1s_norm(u, 2.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_norms_add_their_terms_from_the_left_in_key_order(dim):
    """Bit for bit the terms over the sorted keys added one at a time from
    0.0, over magnitudes 10**-8 to 10**8, where a compensated sum (the
    builtin sum from Python 3.12 on) rounds apart."""
    rng = random.Random(f"norms-{dim}")
    reach = 3000 if dim == 1 else 40
    cells = rng.sample(list(itertools.product(range(-reach, reach + 1), repeat=dim)), 4000)
    u = SpectralVector(Basis.fourier(dim), {
        j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.randint(-8, 8)
        for j in cells
    })
    keys = sorted(u)
    for s in (0.0, 1.5):
        for size in SizeFunction:
            terms = (size.of(j) ** s * abs(u[j]) for j in keys)
            assert l1s_norm(u, s, size) == functools.reduce(operator.add, terms, 0.0)
    assert l1s_norm(SpectralVector(u.basis, {}), 1.5) == 0.0


def test_prod_norm_embedding():
    # weighted-prod l1 norm <= 2^{ds} * max-norm l1 norm at exponent d*s
    for d in (1, 2, 3):
        basis = Basis.fourier(d)
        for seed in (5, 6):
            u = random_vector(basis, seed)
            for s in (0.0, 0.7, 1.5):
                lhs = l1s_norm(u, s, SizeFunction.PROD)
                rhs = 2.0 ** (d * s) * l1s_norm(u, d * s, SizeFunction.MAX)
                assert lhs <= rhs * (1.0 + 1e-12)


# ---------------------------------------------------------------- test family

def test_power_law_examples():
    assert dict(power_law_vector(3.0, 0, HERMITE)) == {(0,): 1.0 + 0j}
    u = power_law_vector(3.0, 2, HERMITE)
    assert u[(1,)] == 0.125
    assert abs(u[(2,)] - 1.0 / 27.0) < 1e-16
    v = power_law_vector(2.0, 1, FOURIER)
    assert dict(v) == {(-1,): 0.25 + 0j, (0,): 1.0 + 0j, (1,): 0.25 + 0j}


def test_power_law_isotropic_in_2d():
    u = power_law_vector(2.0, 2, Basis.fourier(2))
    assert u[(2, 1)] == u[(-2, 0)] == (1.0 / 9.0)
    assert len(u) == 25


def test_power_law_rejects_non_summable_exponent():
    with pytest.raises(ValueError):
        power_law_vector(1.0, 4, FOURIER)
    with pytest.raises(ValueError):
        power_law_vector(0.5, 4, HERMITE)
    with pytest.raises(ValueError, match="power-law exponent must be > 1, got nan"):
        power_law_vector(math.nan, 3, FOURIER)


def test_power_law_rejects_a_negative_cutoff():
    with pytest.raises(ValueError, match="^cutoff must be >= 0, got -1$"):
        power_law_vector(3.0, -1, FOURIER)


@pytest.mark.parametrize("basis", [FOURIER, Basis.fourier(2), HERMITE])
@pytest.mark.parametrize("cutoff", [3.5, 3.0])
def test_power_law_rejects_a_non_integer_cutoff(basis, cutoff):
    with pytest.raises(TypeError, match=f"^cutoff must be an integer, got {cutoff!r}$"):
        power_law_vector(3.0, cutoff, basis)


# Digests of the dump_vector text (shortest round-trip reprs) of
# power_law_vector at every cutoff 0..64 (eight of them at d=2), per basis
# and exponent, recorded in vector_golden.json.  At sigma = 200 the
# tail falls below PRUNE_TOL and is dropped.
POWER_LAW_GRID = {
    "fourier1": (FOURIER, range(65)),
    "fourier2": (Basis.fourier(2), [0, 1, 2, 3, 8, 16, 32, 64]),
    "hermite": (HERMITE, range(65)),
}


@pytest.mark.parametrize("name", sorted(POWER_LAW_GRID))
def test_power_law_keeps_its_bits(name):
    golden = json.loads(Path(__file__).with_name("vector_golden.json").read_text())
    basis, cutoffs = POWER_LAW_GRID[name]
    for sigma in (1.5, 2, 3.0, 6.5, 200.0):
        h = hashlib.sha256()
        for cutoff in cutoffs:
            h.update(dump_vector(power_law_vector(sigma, cutoff, basis)).encode())
        assert h.hexdigest()[:16] == golden["power_law_vector"][f"{name}-sigma{sigma}"]


# ---------------------------------------------------------------- serialization

def test_dump_format_and_order():
    u = SpectralVector(FOURIER, {(1,): 0.1, (-2,): complex(1.0, -0.5)})
    assert dump_vector(u) == "-2\t1.0\t-0.5\n1\t0.1\t0.0\n"


def test_round_trip_through_text_and_file(tmp_path):
    for basis, seed in ((FOURIER, 21), (Basis.fourier(2), 22), (HERMITE, 23)):
        u = random_vector(basis, seed)
        assert parse_vector(dump_vector(u), basis) == u
        path = tmp_path / f"v{seed}.tsv"
        write_vector(u, path)
        assert read_vector(path, basis) == u


@pytest.mark.parametrize("basis", [FOURIER, Basis.fourier(2), HERMITE])
def test_parse_validates_each_index_once(basis, monkeypatch):
    # the last line's value is pruned, and its index is still checked once
    text = dump_vector(random_vector(basis, 24)) + " ".join(["30"] * basis.dim) + "\t1e-301\t0.0\n"
    calls = []
    validate = Lattice.validate
    monkeypatch.setattr(Lattice, "validate", lambda self, j: calls.append(j) or validate(self, j))
    u = parse_vector(text, basis)
    assert len(calls) == len(text.splitlines()) == len(u) + 1
    monkeypatch.undo()
    assert u == SpectralVector(basis, {j: v for j, v in u.items()})


def test_empty_vector_round_trip():
    u = SpectralVector(FOURIER, {})
    assert dump_vector(u) == ""
    assert parse_vector("", FOURIER) == u


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_vector("0\t1.0\n", FOURIER)
    with pytest.raises(ValueError, match="line 2"):
        parse_vector("0\t1.0\t0.0\nx\t1.0\t0.0\n", FOURIER)
    with pytest.raises(ValueError, match="line 1"):
        parse_vector("0 1\t1.0\t0.0\n", FOURIER)


def test_parse_rejects_repeated_indices():
    with pytest.raises(ValueError, match=r"line 4: index \(0,\) repeats line 1"):
        parse_vector("0\t0.5\t0.0\n\n1\t1.0\t0.0\n-0\t0.25\t0.0\n", FOURIER)
    with pytest.raises(ValueError, match=r"line 2: index \(1, -2\) repeats line 1"):
        parse_vector("1 -2\t0.5\t0.0\n1 -2\t0.5\t0.0\n", Basis.fourier(2))


@pytest.mark.parametrize("re, im", [("nan", "0.0"), ("1.0", "-inf"), ("inf", "nan")])
def test_parse_rejects_non_finite_values(re, im):
    text = f"0\t1.0\t0.0\n2\t{re}\t{im}\n"
    with pytest.raises(ValueError, match=r"line 2: coefficient at index \(2,\) is not finite"):
        parse_vector(text, FOURIER)
