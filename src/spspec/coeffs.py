"""Coefficient providers a_{ell; j_1..j_p} for the two bases.

Fourier coefficients are momentum lookups in a symbol b, a finitely
supported coefficient vector on Z^d like the inputs.
Hermite coefficients are integrals of products of normalized Hermite
functions, computed by Gauss-Hermite quadrature after the substitution
y = x * sqrt(q/2) for q factors, and memoized under sorted keys since the
integral is symmetric in all of its indices.  Only the last chi table used
is kept: build_cache reads each degree's table for one block of keys, and
repeated dense oracle calls at one rule and degree read one table again.
"""

from __future__ import annotations

import functools
import io
import math
import re

import numpy as np

from .indices import Index, naturals
from .quadrature import MAX_NODES, gauss_hermite_rule, hermite_batch
from .spectral import Basis, SpectralVector, _sorted_arrays, _valid_entries

# Node policy for a product of q Hermite functions of degree at most D:
# the substituted integrand is a polynomial of degree <= q*D, integrated
# exactly with ceil(q*D/2) nodes; the +8 margin absorbs roundoff.
POLICY_ID = "halfdeg8"

CACHE_MAGIC = "SPSPEC-HERMITE"
CACHE_VERSION = "v1"

# Bytes of chi factors gathered at once: a block of keys is integrated in
# chunks of rows under this bound.
FACTOR_BYTES = 2**20


class FourierSymbol(SpectralVector):
    """The symbol b, a finite coefficient vector on Z^dim; a_{ell;js} = b_{ell - sum js}."""

    __slots__ = ()

    def __init__(self, table: dict[Index, complex], dim: int = 1):
        basis = Basis.fourier(dim)
        clean = _valid_entries(basis.lattice, table.items(), "symbol key")
        self._store(basis, *_sorted_arrays(clean, dim))

    @property
    def table(self) -> "FourierSymbol":
        """The symbol itself, read as a mapping of its keys to b_k."""
        return self

    @staticmethod
    def unit(dim: int = 1) -> "FourierSymbol":
        """b = 1: the plain product of the inputs."""
        return FourierSymbol({(0,) * dim: 1.0 + 0j}, dim)

    @staticmethod
    def inverse_two_minus_cos(tol: float = 1e-16) -> "FourierSymbol":
        """b(x) = 1/(2 - cos x): b_k = r**|k| / sqrt(3) with r = 2 - sqrt(3).

        The table is truncated where |b_k| < tol.
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
        return FourierSymbol(table, 1)


def hermite_product_integral(indices: tuple[int, ...], node_factor: int = 1) -> float:
    """Integral over the line of the product of chi_{indices[i]}.

    The integrand is P(x) * exp(-q*x**2/2) for q = len(indices); substituting
    y = x*sqrt(q/2) reduces it to the Gauss-Hermite weight, and the scaled
    weights keep the evaluation stable when the Gaussian tails underflow.
    The chi table is the last one used when q, the largest index and the node
    count match it; otherwise it is built afresh, with the same bits.
    """
    q = len(indices)
    if q < 1:
        raise ValueError("need at least one index")
    if min(indices) < 0:
        raise ValueError(f"Hermite indices must be >= 0, got {indices}")
    deg = max(indices)
    n = _node_count(q, deg, node_factor)
    return float(_integrals(np.array([indices]), n, deg)[0])


def _node_count(q: int, deg: int, node_factor: int = 1) -> int:
    """Nodes of the rule for a product of q chi of degree at most deg (POLICY_ID)."""
    n = (math.ceil(q * deg / 2) + 8) * node_factor
    if n > MAX_NODES:
        limit = 2 * (MAX_NODES // node_factor - 8) // q
        raise ValueError(
            f"degree {deg} exceeds {limit}, the largest a product of {q} Hermite functions"
            f" supports within the {MAX_NODES}-node rule cap"
        )
    return n


def _integrals(keys: np.ndarray, n: int, deg: int) -> np.ndarray:
    """The integrals of the chi products on the rows of keys, every index <= deg.

    Each row's factors are multiplied in column order and reduced with the
    weights by one dot product per row (matmul of a stack of 1 x n rows by
    an n-vector runs the BLAS dot that np.dot runs on two vectors, where a
    matrix-vector product would sum in another order), so a value has the
    same bits whichever rows share its call.
    """
    weights, chi = _chi_table(n, keys.shape[1], deg)
    out = np.empty(len(keys))
    step = max(1, FACTOR_BYTES // (keys.shape[1] * chi[0].nbytes))
    for start in range(0, len(keys), step):
        factors = chi[keys[start : start + step].T]  # one contiguous rows x n block per column
        prod = factors[0]
        for factor in factors[1:]:
            prod *= factor
        np.matmul(prod[:, None], weights, out=out[start : start + step, None])
    return out


def _block_keys(q: int, deg: int) -> np.ndarray:
    """The sorted q-tuples of even sum whose largest index is deg, in lexicographic order."""
    keys = np.zeros((1, 0), dtype=np.int64)
    low = np.zeros(1, dtype=np.int64)  # the last column, the least the next one may take
    for _ in range(q - 1):
        counts = deg + 1 - low
        ends = np.cumsum(counts)
        keys = np.repeat(keys, counts, axis=0)
        low = np.arange(ends[-1]) - np.repeat(ends - counts - low, counts)
        keys = np.column_stack((keys, low))
    keys = np.column_stack((keys, np.full(len(keys), deg)))
    return keys[keys.sum(axis=1) % 2 == 0]


@functools.lru_cache(maxsize=1)
def _chi_table(n: int, q: int, deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled weights and chi_0..chi_deg at the n-node rule's nodes / sqrt(q/2),
    both read-only.

    Only the last table is kept (one degree-1000 table at q = 2 takes 8 MB);
    any other is rebuilt bit for bit on its next use.
    """
    rule = gauss_hermite_rule(n)
    c = math.sqrt(q / 2.0)
    table = (rule.scaled_weights / c, hermite_batch(deg, rule.nodes / c))
    for arr in table:
        arr.setflags(write=False)
    return table


class HermiteCache:
    """Memo table of Hermite product coefficients for a fixed arity.

    The arity p is the number of inputs; keys are sorted (p+1)-tuples
    (ell and the p input indices).  Tuples with odd coordinate sum are
    exactly zero by parity and are never stored.  Writes are idempotent
    single dict assignments and the chi tables are read-only, so concurrent
    readers are safe and get the values a sequential reader gets.
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

    def coefficient(self, ell: Index, js) -> float:
        """a_{ell; j_1..j_p} of indices of N^1, memoized under the sorted key."""
        flat = tuple(j for (j,) in map(naturals(1).validate, (ell, *js)))
        if len(flat) != self.arity + 1:
            raise ValueError(f"expected {self.arity} input indices, got {len(flat) - 1}")
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
        for deg in range(jmax + 1):  # one chi table per degree
            keys = _block_keys(p + 1, deg)
            values = _integrals(keys, _node_count(p + 1, deg), deg)
            cache.table.update(zip(zip(*keys.T.tolist()), values.tolist()))
    except MemoryError:
        raise RuntimeError(
            f"cache build ran out of memory after {len(cache.table)} entries"
        ) from None
    return cache


def save_cache(cache: HermiteCache, path) -> None:
    """Text format: header line, then one sorted key and value per line."""
    jmax = max((key[-1] for key in cache.table), default=0)
    lines = [f"{CACHE_MAGIC} {CACHE_VERSION} p={cache.arity} jmax={jmax} policy={POLICY_ID}"]
    entry = " ".join(["%d"] * (cache.arity + 1)) + "\t%r"
    lines += [entry % (*key, cache.table[key]) for key in sorted(cache.table)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _entry_lines(arity: int) -> bytes:
    """The pattern of a run of entry lines as save_cache writes them.

    A line is arity + 1 keys, each one to 19 digits that fit int64,
    separated by single spaces; then a tab, the value and "\n".  A value is
    an optional minus, then inf, nan, or digits with an optional point,
    fraction digits and signed exponent, which holds repr of every float.
    np.loadtxt reads every line this accepts.  The run is possessive, so it
    holds no backtrack point per line, and it ends where the first line that
    breaks the grammar starts.  Its first branch is the second one narrowed
    to keys below 10**18 and finite values; nearly every line takes it, and
    it is the faster.  Both count their keys, so the pattern's length does
    not grow with the arity.
    """
    top = str(np.iinfo(np.int64).max)
    # 18 digits at most, or 19 that fall below top's at digit i, or top
    key = "|".join(["[0-9]{1,18}+", top] + [
        f"{top[:i]}[0-{int(c) - 1}][0-9]{{{18 - i}}}" for i, c in enumerate(top) if c != "0"
    ])
    number = r"[0-9]++\.?+[0-9]*+(?:e[+-][0-9]++)?+"
    fast = rf"[0-9]{{1,18}}+(?: [0-9]{{1,18}}+){{{arity}}}\t-?+{number}\n"
    full = rf"(?:{key})(?: (?:{key})){{{arity}}}\t-?+(?:{number}|inf|nan)\n"
    return f"(?:{fast}|{full})*+".encode()


def load_cache(path) -> HermiteCache:
    """Read a file written by save_cache, and no other format.

    The header line is as save_cache writes it, every later line is one
    entry (see _entry_lines), and a file of the header alone holds no
    entries.  One match finds where the first line that breaks the grammar
    starts, one np.loadtxt call parses the lines before it, and one mask
    per rule marks the rows that break it.  The first bad line is searched
    for only when there is one.
    """
    with open(path, "rb") as fh:
        header, body = fh.readline(), fh.read()
    if not header:
        raise ValueError(f"{path}: empty cache file")
    header = header.removesuffix(b"\n").decode(errors="backslashreplace")
    number = "[1-9][0-9]{0,18}"  # the 19 digits of an int64 at most
    head = re.fullmatch(
        rf"{CACHE_MAGIC} {CACHE_VERSION} p=({number}) jmax=(0|{number}) policy=(\S*)", header
    )
    if not head:
        raise ValueError(f"{path}: bad cache header {header!r}")
    if head[3] != POLICY_ID:
        raise ValueError(f"{path}: unsupported node policy {head[3]!r}")
    cache, jmax = HermiteCache(int(head[1])), int(head[2])
    length = cache.arity + 1
    # a line holds at least 2 * length + 2 bytes: skip the pattern where none
    # fits, as past 2**32 keys its counted repeat would not compile
    end = re.match(_entry_lines(cache.arity), body).end() if len(body) > 2 * length + 1 else 0
    if end:  # np.loadtxt warns on input without data
        dtype = [("key", np.int64, (length,)), ("value", float)]
        rows = np.loadtxt(io.BytesIO(body[:end]), dtype, comments=None, encoding="ascii", ndmin=1)
        keys, values = rows["key"], rows["value"]
        # the rows that break each rule, in the order a line is checked; a
        # pass per column is quicker than one along rows of a few keys, and
        # an int64 sum that wraps keeps its parity
        cols = list(keys.T)
        broken = [
            (~np.isfinite(values), "coefficient {value} is not finite"),
            (np.any([b < a for a, b in zip(cols, cols[1:])], axis=0),
             "key {key} is not a sorted tuple of length {length}"),
            ((sum(cols) & 1) == 1, "odd-parity key {key} should not be stored"),
            (cols[-1] > jmax, "key {key} exceeds declared jmax {jmax}"),
        ]
        if not any(mask.any() for mask, _ in broken):
            cache.table = dict(zip(zip(*keys.T.tolist()), values.tolist()))
        if len(cache.table) < len(keys):  # a row breaks a rule, or a key repeats
            # a repeat is the first bad row only before the first that breaks a rule
            n = min([int(mask.argmax()) + 1 for mask, _ in broken if mask.any()], default=len(keys))
            _, first, inverse = np.unique(keys[:n], axis=0, return_index=True, return_inverse=True)
            broken.append((first[inverse] < np.arange(n), "key {key} repeats line {line}"))
            i = int(np.flatnonzero(np.any([mask[:n] for mask, _ in broken], axis=0))[0])
            rule = next(text for mask, text in broken if mask[i])
            key, line = tuple(keys[i].tolist()), int(first[inverse[i]]) + 2
            rule = rule.format(value=float(values[i]), key=key, length=length, jmax=jmax, line=line)
            raise ValueError(f"{path}:{i + 2}: {rule}")
    if end < len(body):
        line = body.count(b"\n", 0, end) + 2
        text = body[end:].partition(b"\n")[0].decode(errors="backslashreplace")
        raise ValueError(f"{path}:{line}: malformed entry {text!r}")
    return cache
