"""Coefficient providers a_{ell; j_1..j_p} for the two bases.

Fourier coefficients are momentum lookups in a finite symbol table b_k.
Hermite coefficients are integrals of products of normalized Hermite
functions, computed by Gauss-Hermite quadrature after the substitution
y = x * sqrt(q/2) for q factors, and memoized under sorted keys since the
integral is symmetric in all of its indices.
"""

from __future__ import annotations

import io
import locale
import math
import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import NoReturn, Sequence

import numpy as np

from .indices import Index, integers, momentum
from .quadrature import MAX_NODES, gauss_hermite_rule, hermite_batch
from .spectral import Basis, _finite

# Node policy for a product of q Hermite functions of degree at most D:
# the substituted integrand is a polynomial of degree <= q*D, integrated
# exactly with ceil(q*D/2) nodes; the +8 margin absorbs roundoff.
POLICY_ID = "halfdeg8"

CACHE_MAGIC = "SPSPEC-HERMITE"
CACHE_VERSION = "v1"

# chi tables at substituted nodes by (n_nodes, q, max_degree), least recently
# used first.  build_cache reads each degree's table for one block of keys;
# the bound is for HermiteCache misses, which may reach any degree in any
# order, and it is on bytes, not on a count of tables: one degree-1000 table
# at q = 2 takes 8 MB.
CHI_TABLE_BYTES = 32 * 2**20
_chi_tables: OrderedDict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = OrderedDict()

# Bytes of chi factors gathered at once: a block of keys is integrated in
# chunks of rows under this bound.
FACTOR_BYTES = 2**20


def _radius(k: Index) -> int:
    return max((abs(c) for c in k), default=0)


@dataclass(frozen=True)
class FourierSymbol:
    """Finite table of symbol coefficients b_k; a_{ell;js} = b_{ell - sum js}."""

    table: dict[Index, complex]
    dim: int = 1
    decay: tuple[float, float] | None = None  # (amplitude, rate): |b_k| <= A*exp(-rate*|k|)

    def __post_init__(self) -> None:
        lattice, clean = integers(self.dim), {}
        for k, v in self.table.items():
            k = lattice.validate(k)
            if k in clean:  # zero or not
                raise ValueError(f"symbol key {k} is repeated")
            clean[k] = _finite(k, complex(v))
        object.__setattr__(self, "table", dict(sorted((k, v) for k, v in clean.items() if v != 0)))

    @property
    def q(self) -> int:
        """Momentum radius: largest coordinate magnitude with b_k != 0."""
        return max((_radius(k) for k in self.table), default=0)

    @property
    def basis(self) -> Basis:
        return Basis.fourier(self.dim)

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


def _chi_table(n: int, q: int, deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled weights and chi_0..chi_deg at the n-node rule's nodes / sqrt(q/2).

    A table dropped to keep the others under CHI_TABLE_BYTES is rebuilt bit
    for bit on its next use; the newest table is always kept.
    """
    key = (n, q, deg)
    table = _chi_tables.pop(key, None)
    if table is None:
        rule = gauss_hermite_rule(n)
        c = math.sqrt(q / 2.0)
        table = (rule.scaled_weights / c, hermite_batch(deg, rule.nodes / c))
        kept = sum(w.nbytes + chi.nbytes for w, chi in _chi_tables.values())
        while _chi_tables and kept + table[0].nbytes + table[1].nbytes > CHI_TABLE_BYTES:
            w, chi = _chi_tables.popitem(last=False)[1]
            kept -= w.nbytes + chi.nbytes
    _chi_tables[key] = table
    return table


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
    lines = [
        f"{CACHE_MAGIC} {CACHE_VERSION} p={cache.arity} jmax={cache.jmax} policy={POLICY_ID}"
    ]
    entry = " ".join(["%d"] * (cache.arity + 1)) + "\t%r"
    lines += [entry % (*key, cache.table[key]) for key in sorted(cache.table)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# the line breaks of str.splitlines that an ASCII file can hold besides "\n"
_OTHER_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


def _entry(arity: int) -> str:
    """The pattern of one entry line: arity + 1 key tokens, a tab, the value.

    Its quantifiers are possessive, which changes no match, since no class
    borders on its own kind, and spares the engine a backtrack point per
    token.
    """
    number = "[0-9+.eE-]++"
    return " *+" + " ++".join([number] * (arity + 1)) + rf" *+\t *+{number} *+"


def load_cache(path) -> HermiteCache:
    """Read a file written by save_cache.

    After the header, each line is blank (spaces and tabs only) or holds
    p + 1 integer key tokens separated by spaces, one tab, and one decimal
    float, with optional spaces around every token.  Any line break that
    str.splitlines honours ends a line.  The whole body is matched against
    one pattern, the one each line is checked with, and parsed in one
    np.loadtxt call; only when that fails are its lines walked one by one to
    name the first bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii() or any(c in data for c in _OTHER_BREAKS):
        text = data.decode(locale.getpreferredencoding(False))  # as open(path) reads it
        data = "".join(line + "\n" for line in text.splitlines()).encode()
    if not data:
        raise ValueError(f"{path}: empty cache file")
    header, _, body = data.partition(b"\n")
    del data
    header = header.decode()
    head = header.split()
    if len(head) != 5 or head[0] != CACHE_MAGIC or head[1] != CACHE_VERSION:
        raise ValueError(f"{path}: bad cache header {header!r}")
    fields = {}
    for part in head[2:]:
        name, _, value = part.partition("=")
        fields[name] = value
    try:
        arity = int(fields["p"])
        jmax = int(fields["jmax"])
    except (KeyError, ValueError):
        raise ValueError(f"{path}: bad cache header {header!r}") from None
    if fields.get("policy") != POLICY_ID:
        raise ValueError(f"{path}: unsupported node policy {fields.get('policy')!r}")
    table = _parse_body(body, arity, jmax) if arity >= 1 else None
    if table is None:
        _raise_first_bad_line(path, body.decode(), arity, jmax)
    return HermiteCache(arity, table)


def _parse_body(body: bytes, arity: int, jmax: int) -> dict | None:
    """The table in a cache body, or None when a line breaks the grammar or a rule."""
    line = f"(?:{_entry(arity)}|[ \t]*)"
    # possessive: a plain * would hold a backtrack point for every line
    if not re.fullmatch(f"(?:{line}\n)*+{line}".encode(), body):
        return None
    if not body.strip():  # np.loadtxt warns on input without data
        return {}
    try:  # a token numpy does not read as a number, or a key past int64
        entries = np.loadtxt(
            io.BytesIO(body),
            dtype=[("key", np.int64, (arity + 1,)), ("value", float)],
            comments=None,
            encoding="ascii",
            ndmin=1,
        )
    except ValueError:
        return None
    keys, values = entries["key"], entries["value"]
    if not (
        np.isfinite(values).all()
        and (keys[:, 0] >= 0).all()
        and (np.diff(keys, axis=1) >= 0).all()
        and not (keys.sum(axis=1) & 1).any()  # a wrapped sum keeps its parity
        and (keys[:, -1] <= jmax).all()
    ):
        return None
    table = dict(zip(zip(*keys.T.tolist()), values.tolist()))
    return table if len(table) == len(keys) else None  # else a key repeats


def _raise_first_bad_line(path, body: str, arity: int, jmax: int) -> NoReturn:
    """Raise the error of the first line of body that load_cache rejects.

    The checks and messages are those of a line-at-a-time loader.  A line
    that only Python's int and float read (underscores, non-ASCII digits or
    spaces, integers past int64) is a malformed entry.
    """
    seen: dict[tuple[int, ...], int] = {}
    for i, line in enumerate(body.split("\n"), start=2):
        if not line.strip():
            if line.strip(" \t"):
                raise ValueError(f"{path}:{i}: malformed entry {line!r}")
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
        if key in seen:
            raise ValueError(f"{path}:{i}: key {key} repeats line {seen[key]}")
        seen[key] = i
        if not re.fullmatch(_entry(arity), line) or max(key, default=0) > np.iinfo(np.int64).max:
            raise ValueError(f"{path}:{i}: malformed entry {line!r}")
    HermiteCache(arity)  # raises for an arity below 1
    raise ValueError(f"{path}: malformed cache body")
