import functools
import itertools
import math
import os
import random
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from spspec import coeffs
from spspec.bounds import a_theta
from spspec.cli import cmd_bench
from spspec.coeffs import (
    CACHE_MAGIC,
    POLICY_ID,
    FourierSymbol,
    HermiteCache,
    build_cache,
    hermite_product_integral,
    load_cache,
    save_cache,
)
from spspec.quadrature import gauss_hermite_rule, hermite_batch

# Adaptive-quadrature oracle values (scipy.integrate.quad on the raw
# integrand over the whole line, absolute error estimates below 2e-8).
QUAD_ORACLE = {
    (0, 0, 0): 6.1329143890310212e-01,
    (2, 0, 0): -1.4455417843067964e-01,
    (4, 0, 0): 4.1729196914719061e-02,
    (8, 0, 0): 3.9592317249008370e-03,
    (12, 0, 0): 3.9957231112729450e-04,
    (2, 1, 1): 2.8910835686135949e-01,
    (4, 2, 2): 9.5049837416860142e-02,
    (5, 3, 2): 2.9928978648392071e-02,
    (6, 3, 3): -4.0915101928779632e-02,
    (20, 12, 8): 7.1701323837250489e-02,
    (0, 0, 0, 0): 3.9894228040143320e-01,
    (2, 2, 1, 1): 1.7453724767562681e-01,
    (4, 3, 2, 1): 5.0688907896868737e-02,
    (10, 5, 3, 2): 2.1620057755385377e-02,
}


# ---------------------------------------------------------------- fourier

@pytest.mark.parametrize("table, message", [
    ({(0,): 1.0, (0.7,): 5.0}, r"non-integer coordinate in index \(0.7,\)"),
    ({(0,): 1.0, (2**63,): 5.0}, r"index \(9223372036854775808,\) has a coordinate past the bound"),
    ({(0,): 1.0, (1, 2): 5.0}, r"index \(1, 2\) not in Z\^1"),
    ({(1,): 0.0, range(1, 2): 5.0}, r"symbol key \(1,\) is repeated"),
    ({(0,): 1.0, (3,): complex(0.0, math.inf)}, r"index \(3,\) is not finite"),
], ids=["non-integer", "bound", "dimension", "repeated", "non-finite"])
def test_symbol_keys_and_values_are_validated(table, message):
    # (0.7,) was truncated onto (0,): u = {0: 1, 1: 0.5} at p=2, N=4, alpha=0 gave 5, 5, 1.25
    with pytest.raises(ValueError, match=message):
        FourierSymbol(table)


def test_two_minus_cos_symbol_closed_form():
    # 1/(2-cos x) has coefficients (2-sqrt3)^{|k|}/sqrt3
    sym = FourierSymbol.inverse_two_minus_cos()
    r = 2.0 - math.sqrt(3.0)
    amp = 1.0 / math.sqrt(3.0)
    for (k,), b in sym.table.items():
        assert abs(b - amp * r ** abs(k)) < 1e-16
    assert max(sym.table) == (27,)
    assert abs(amp * r**27) >= 1e-16
    assert abs(amp * r**28) < 1e-16


def test_two_minus_cos_against_trapezoid():
    # periodic trapezoid sums converge spectrally, an independent route
    sym = FourierSymbol.inverse_two_minus_cos()
    xs = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    f = 1.0 / (2.0 - np.cos(xs))
    for k in (0, 1, 5, 12):
        b = complex(np.mean(f * np.exp(-1j * k * xs)))
        assert abs(b - sym.table[(k,)]) < 1e-12


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_two_minus_cos_rejects_non_positive_tol(tol):
    # r**k underflows to 0, never below such a tol: the table would grow forever
    with pytest.raises(ValueError, match="tol"):
        FourierSymbol.inverse_two_minus_cos(tol)


# ---------------------------------------------------------------- hermite

def test_triple_product_closed_forms():
    # integral of chi_0^3 = pi^{-3/4} * sqrt(2 pi / 3)
    want = math.sqrt(2.0 / 3.0) * math.pi**-0.25
    assert abs(hermite_product_integral((0, 0, 0)) - want) < 1e-12
    # integral of chi_0^4 = 1 / sqrt(2 pi)
    assert abs(hermite_product_integral((0, 0, 0, 0)) - 1.0 / math.sqrt(2 * math.pi)) < 1e-12


@pytest.mark.parametrize("key,want", sorted(QUAD_ORACLE.items()))
def test_product_integrals_match_adaptive_quadrature(key, want):
    assert abs(hermite_product_integral(key) - want) < 5e-8


def test_product_integral_at_the_degree_limit():
    assert abs(hermite_product_integral((1016, 1016)) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="1016"):
        hermite_product_integral((1017, 1017))


@pytest.mark.parametrize("q,limit", [(3, 677), (4, 508)])
def test_product_integral_names_the_degree_limit(q, limit):
    hermite_product_integral((limit,) * 2 + (0,) * (q - 2))
    with pytest.raises(ValueError, match=f"exceeds {limit}"):
        hermite_product_integral((limit + 1,) + (1,) * (q - 1))


def test_product_integral_rejects_negative_indices():
    # chi[-1] would wrap around to the top row
    with pytest.raises(ValueError, match=">= 0"):
        hermite_product_integral((3, -1))
    with pytest.raises(ValueError, match="^need at least one index$"):
        hermite_product_integral(())


def resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_chi_tables_stay_bounded_over_high_degrees():
    # each degree d at q = 2 has its own (d + 1) x (d + 8) table, 8 MB near
    # d = 1000; kept for the life of the process, 17 of them took 136 MB
    first = hermite_product_integral((1000, 1000))
    before = resident_mb()
    for d in range(1000, 1017):
        hermite_product_integral((d, d))
    assert resident_mb() - before < 64
    assert coeffs._chi_table.cache_info().currsize <= 1
    # the degree-1000 table was dropped on the way and is rebuilt bit for bit
    assert hermite_product_integral((1000, 1000)) == first


def test_node_policy_self_consistency():
    for key in itertools.combinations_with_replacement(range(0, 21, 4), 3):
        if sum(key) % 2:
            continue
        a = hermite_product_integral(key)
        b = hermite_product_integral(key, node_factor=2)
        assert abs(a - b) < 1e-11


def test_cache_parity_zeros_are_exact():
    cache = HermiteCache(2)
    assert cache.coefficient((0,), ((1,), (0,))) == 0.0
    assert cache.coefficient((3,), ((2,), (2,))) == 0.0
    assert (1, 0, 0) not in cache.table


def test_cache_permutation_symmetry_is_exact():
    cache = HermiteCache(2)
    vals = {
        cache.coefficient(ell, js)
        for ell, js in [
            ((2,), ((0,), (4,))),
            ((4,), ((2,), (0,))),
            ((0,), ((4,), (2,))),
        ]
    }
    assert len(vals) == 1


def test_cache_validates_arity_and_sign():
    cache = HermiteCache(2)
    with pytest.raises(ValueError):
        cache.coefficient((0,), ((1,),))
    with pytest.raises(ValueError):
        cache.coefficient((-1,), ((1,), (0,)))
    with pytest.raises(ValueError):
        HermiteCache(0)


@pytest.mark.parametrize("ell", [(2, 5), (2.7,), ("2",), (-1,)])
def test_cache_refuses_malformed_indices(ell):
    # the first three were read as degree 2 and returned its coefficient
    with pytest.raises(ValueError, match=re.escape(f"index {ell}")):
        HermiteCache(2).coefficient(ell, ((1,), (1,)))


def test_hermite_cache_coefficient_closed_form():
    cache = HermiteCache(2)
    want = math.sqrt(2.0 / 3.0) * math.pi**-0.25
    assert abs(cache.coefficient((0,), ((0,), (0,))) - want) < 1e-12


def test_build_cache_small_cases():
    cache = build_cache(2, 1)
    assert set(cache.table) == {(0, 0, 0), (0, 1, 1)}
    assert build_cache(2, 0).table.keys() == {(0, 0, 0)}
    with pytest.raises(ValueError):
        build_cache(1, 3)
    with pytest.raises(ValueError, match="^jmax must be >= 0, got -1$"):
        build_cache(2, -1)


def test_small_coefficients_are_kept():
    # far-off-diagonal entries are tiny but they stay as computed
    cache = HermiteCache(2)
    v = cache.coefficient((20,), ((0,), (0,)))
    assert v != 0.0
    assert abs(v) < 1e-5


# ---------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path):
    cache = build_cache(2, 3)
    path = tmp_path / "c.cache"
    save_cache(cache, path)
    again = load_cache(path)
    assert again.arity == cache.arity
    assert again.table == cache.table
    save_cache(again, tmp_path / "c2.cache")
    assert (tmp_path / "c.cache").read_bytes() == (tmp_path / "c2.cache").read_bytes()


def test_cache_file_format(tmp_path):
    path = tmp_path / "c.cache"
    save_cache(build_cache(2, 1), path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"{CACHE_MAGIC} v1 p=2 jmax=1 policy={POLICY_ID}"
    assert len(lines) == 3
    assert lines[1].startswith("0 0 0\t")
    assert lines[2].startswith("0 1 1\t")


def test_empty_cache_saves_header_only(tmp_path):
    path = tmp_path / "e.cache"
    save_cache(HermiteCache(2), path)
    assert len(path.read_text().splitlines()) == 1
    assert load_cache(path).table == {}


def test_load_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.cache"
    path.write_text("")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty cache file$"):
        load_cache(path)


def test_load_rejects_tampered_files(tmp_path):
    good = tmp_path / "g.cache"
    save_cache(build_cache(2, 1), good)
    text = good.read_text()

    bad = tmp_path / "bad.cache"
    bad.write_text(text.replace(CACHE_MAGIC, "SOMETHING"))
    with pytest.raises(ValueError, match="header"):
        load_cache(bad)

    bad.write_text(text.replace(f"policy={POLICY_ID}", "policy=other"))
    with pytest.raises(ValueError, match="policy"):
        load_cache(bad)

    bad.write_text(text + "0 1 1 garbage\n")
    with pytest.raises(ValueError, match=":4"):
        load_cache(bad)

    bad.write_text(text + "1 1 1\t0.5\n")
    with pytest.raises(ValueError, match="parity"):
        load_cache(bad)

    bad.write_text(text + "0 2 2\t0.5\n")
    with pytest.raises(ValueError, match="jmax"):
        load_cache(bad)

    bad.write_text(text + "0 0 0\t0.25\n")
    with pytest.raises(ValueError, match=r"bad.cache:4: key \(0, 0, 0\) repeats line 2"):
        load_cache(bad)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_coefficients(tmp_path, value):
    path = tmp_path / "c.cache"
    save_cache(build_cache(2, 1), path)
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, first.split("\t")[0] + "\t" + value, *rest]) + "\n")
    with pytest.raises(ValueError, match=f"c.cache:2: coefficient {value} is not finite"):
        load_cache(path)



def test_save_load_round_trip_is_bit_exact(tmp_path):
    extremes = [5e-324, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-300]
    keys = [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 1, 2), (2, 2, 2)]
    cache = HermiteCache(2, dict(zip(keys, extremes)))
    first, second = tmp_path / "a.cache", tmp_path / "b.cache"
    save_cache(cache, first)
    again = load_cache(first)
    save_cache(again, second)
    assert first.read_bytes() == second.read_bytes()
    assert {k: v.hex() for k, v in again.table.items()} == {
        k: v.hex() for k, v in cache.table.items()
    }
    assert math.copysign(1.0, again.table[(0, 1, 1)]) == -1.0


@pytest.mark.parametrize("body", ["", "\n", "\n\n  \n\t\n"])
def test_entryless_bodies_load_empty_or_name_the_blank_line(tmp_path, body):
    path = tmp_path / "e.cache"
    save_cache(HermiteCache(3), path)
    path.write_text(path.read_text() + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if body:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: malformed entry ''$"):
                load_cache(path)
            return
        cache = load_cache(path)
    assert cache.arity == 3
    assert cache.table == {}


def test_a_header_arity_past_the_body_builds_no_pattern(tmp_path):
    # no line of 10**9 + 1 keys fits a short body; its pattern would take gigabytes
    path = tmp_path / "h.cache"
    header = f"{CACHE_MAGIC} v1 p={10**9} jmax=0 policy={POLICY_ID}\n"
    path.write_text(header)
    assert load_cache(path).arity == 10**9 and load_cache(path).table == {}
    path.write_text(header + "0 0\t1.0\n")
    with pytest.raises(ValueError, match=r":2: malformed entry '0 0\\t1.0'$"):
        load_cache(path)


@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
def test_save_load_round_trip_every_arity(tmp_path, arity):
    rng = np.random.default_rng(arity)
    keys = {tuple(sorted(rng.integers(0, 40, arity + 1).tolist())) for _ in range(300)}
    keys = [k for k in keys if sum(k) % 2 == 0]
    values = rng.standard_normal(len(keys)) * 10.0 ** rng.integers(-300, 300, len(keys))
    cache = HermiteCache(arity, dict(zip(keys, values.tolist())))
    path = tmp_path / "r.cache"
    save_cache(cache, path)
    again = load_cache(path)
    assert again.arity == arity
    assert bits(again.table) == bits(cache.table)


def _load_peak(path, error: str) -> int:
    """The traced peak of load_cache(path), which raises error, if not ''."""
    tracemalloc.start()
    try:
        try:
            load_cache(path)
        except ValueError as exc:
            assert error and str(exc).endswith(error), exc
        else:
            assert not error
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_cache_memory_stays_flat(tmp_path):
    path = tmp_path / "w.cache"
    save_cache(build_cache(2, 64), path)
    assert _load_peak(path, "") <= 8 * 2**20
    with open(path, "a") as fh:
        fh.write("0 0 0\t0.5")
    assert _load_peak(path, "malformed entry '0 0 0\\t0.5'") <= 8 * 2**20
    keys = [(a, b) for b in range(1000) for a in range(b % 2, b + 1, 2)]
    table = dict(zip(keys, np.random.default_rng(5).standard_normal(len(keys)).tolist()))
    assert len(table) > 250_000
    save_cache(HermiteCache(1, table), path)
    assert load_cache(path).table == table
    # the body-wide match must not hold a backtrack point per line: that
    # adds some 70 MiB on these 250,500 lines, whose body and parse take
    # 15 MiB.  The first entry breaks a rule, so no table is built and no
    # repeat is looked for past it.
    header, body = path.read_text().split("\n", 1)
    path.write_text(f"{header}\n0 1\t0.5\n{body}")
    assert _load_peak(path, ":2: odd-parity key (0, 1) should not be stored") <= 24 * 2**20


# ------------------------------------------------------ differential loader

def _is_key(token: str) -> bool:
    """One to 19 ASCII digits that fit int64."""
    return token.isascii() and token.isdigit() and len(token) <= 19 and int(token) < 2**63


def _is_value(token: str) -> bool:
    """An optional minus, then inf, nan, or digits with an optional point,
    fraction digits and signed exponent."""
    token = token.removeprefix("-")
    if token in ("inf", "nan"):
        return True
    mantissa, e, exponent = token.partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = lambda t: t == "" or (t.isascii() and t.isdigit())
    signed = exponent[:1] in ("+", "-") and exponent[1:] != "" and digits(exponent[1:])
    return whole != "" and digits(whole) and digits(fraction) and (not e or signed)


def reference_load(path) -> HermiteCache:
    """A line-at-a-time reader of the format save_cache writes, with the
    rules and messages of load_cache."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise ValueError(f"{path}: empty cache file")
    header, _, body = data.partition(b"\n")
    header = header.decode(errors="backslashreplace")
    fields = header.split(" ")
    names = [CACHE_MAGIC, "v1", "p=", "jmax=", "policy="]
    if len(fields) != 5 or any(not f.startswith(n) for f, n in zip(fields, names)):
        raise ValueError(f"{path}: bad cache header {header!r}")
    p, jmax, policy = (f.partition("=")[2] for f in fields[2:])
    canonical = lambda t: t.isascii() and t.isdigit() and len(t) <= 19 and str(int(t)) == t
    if (
        fields[:2] != names[:2] or not canonical(p) or p == "0" or not canonical(jmax)
        or any(c.isspace() for c in policy)
    ):
        raise ValueError(f"{path}: bad cache header {header!r}")
    if policy != POLICY_ID:
        raise ValueError(f"{path}: unsupported node policy {policy!r}")
    arity, jmax = int(p), int(jmax)
    table, seen = {}, {}
    *lines, tail = body.split(b"\n")
    if tail:  # a last line without its "\n"
        lines.append(None)
    for i, raw in enumerate(lines, start=2):
        line = (raw if raw is not None else tail).decode(errors="backslashreplace")
        keys, tab, value = line.partition("\t")
        keys = keys.split(" ")
        if raw is None or not tab or len(keys) != arity + 1 or not all(map(_is_key, keys)) or not _is_value(value):
            raise ValueError(f"{path}:{i}: malformed entry {line!r}")
        key, value = tuple(map(int, keys)), float(value)
        if not math.isfinite(value):
            raise ValueError(f"{path}:{i}: coefficient {value} is not finite")
        if list(key) != sorted(key):
            raise ValueError(f"{path}:{i}: key {key} is not a sorted tuple of length {arity + 1}")
        if sum(key) % 2:
            raise ValueError(f"{path}:{i}: odd-parity key {key} should not be stored")
        if key[-1] > jmax:
            raise ValueError(f"{path}:{i}: key {key} exceeds declared jmax {jmax}")
        if key in seen:
            raise ValueError(f"{path}:{i}: key {key} repeats line {seen[key]}")
        seen[key], table[key] = i, value
    return HermiteCache(arity, table)


def outcome(load, path):
    """The table with every value's bits, or the ValueError's message."""
    try:
        cache = load(path)
    except ValueError as exc:
        return "error", str(exc)
    return "table", cache.arity, sorted((k, v.hex()) for k, v in cache.table.items())


def _entry(rng, lines):
    """The index of a random entry line (never the header)."""
    return int(rng.integers(1, len(lines)))


def _edit_entry(edit):
    def tamper(rng, lines):
        entries = [i for i, line in enumerate(lines) if i and line.count("\t") == 1]
        i = entries[int(rng.integers(len(entries)))]
        key, value = lines[i].split("\t")
        return lines[:i] + [edit(rng, key.split(), value)] + lines[i + 1 :]
    return tamper


def _insert(text):
    def tamper(rng, lines):
        i = _entry(rng, lines)
        return lines[:i] + [text] + lines[i:]
    return tamper


def _key_token(token):
    def edit(rng, key, value):
        key[int(rng.integers(len(key)))] = token
        return " ".join(key) + "\t" + value
    return edit


def _value(token):
    return lambda rng, key, value: " ".join(key) + "\t" + token


def _random_token(rng, key, value):
    """One field replaced by a short random spelling over the numeric bytes."""
    fields = key + [value]
    fields[int(rng.integers(len(fields)))] = "".join(rng.choice(list("0123456789+-.eE"), rng.integers(1, 5)))
    return " ".join(fields[:-1]) + "\t" + fields[-1]


def _repeat(gap):
    def tamper(rng, lines):
        i = _entry(rng, lines)
        j = min(i + 1 + gap, len(lines))
        return lines[:j] + [lines[i]] + lines[j:]
    return tamper


def _breaks(sep, final="\n"):
    def tamper(rng, lines):
        return sep.join(lines) + final
    return tamper


def _some_breaks(sep):
    def tamper(rng, lines):
        i = _entry(rng, lines)
        return "\n".join(lines[:i]) + sep + "\n".join(lines[i:]) + "\n"
    return tamper


TAMPERINGS = {
    "tab_in_key": _edit_entry(lambda rng, key, value: " ".join(key[:-1]) + "\t" + key[-1] + " " + value),
    "two_tabs": _edit_entry(lambda rng, key, value: " ".join(key) + "\t" + value + "\t"),
    "two_tabs_in_key": _edit_entry(lambda rng, key, value: "\t".join(key) + "\t" + value),
    "no_tab": _edit_entry(lambda rng, key, value: " ".join(key) + " " + value),
    "tab_only_line": _insert("\t"),
    "blank_line": _insert(""),
    "whitespace_line": _insert("  \t "),
    "leading_spaces": _edit_entry(lambda rng, key, value: "  " + " ".join(key) + "\t" + value),
    "trailing_spaces": _edit_entry(lambda rng, key, value: " ".join(key) + "\t" + value + "  "),
    "double_spaces": _edit_entry(lambda rng, key, value: "  ".join(key) + " \t  " + value),
    "crlf": _breaks("\r\n"),
    "cr": _breaks("\r"),
    "form_feed": _breaks("\x0c"),
    "some_form_feeds": _some_breaks("\x0c"),
    "vertical_tab": _some_breaks("\x0b"),
    "separators": _some_breaks("\x1d"),
    "next_line": _some_breaks("\x85"),
    "line_separator": _some_breaks("\u2028"),
    "no_final_newline": _breaks("\n", final=""),
    "comment_line": _insert("# a comment"),
    "comment_entry": _edit_entry(lambda rng, key, value: "#" + " ".join(key) + "\t" + value),
    "missing_key_field": _edit_entry(lambda rng, key, value: " ".join(key[1:]) + "\t" + value),
    "extra_key_field": _edit_entry(lambda rng, key, value: " ".join(key + ["0"]) + "\t" + value),
    "missing_value": _edit_entry(lambda rng, key, value: " ".join(key) + "\t"),
    "extra_value": _edit_entry(lambda rng, key, value: " ".join(key) + "\t" + value + " 1.0"),
    "negative_key": _edit_entry(lambda rng, key, value: " ".join(["-2"] + key[1:]) + "\t" + value),
    "unsorted_key": _edit_entry(lambda rng, key, value: " ".join(key[::-1]) + "\t" + value),
    "odd_key": _edit_entry(lambda rng, key, value: " ".join(key[:-1] + [str(int(key[-1]) + 1)]) + "\t" + value),
    "key_past_jmax": _edit_entry(lambda rng, key, value: " ".join(key[:-1] + [str(int(key[-1]) + 64)]) + "\t" + value),
    "fractional_key": _edit_entry(_key_token("1.5")),
    "exponent_key": _edit_entry(_key_token("1e2")),
    "signed_key": _edit_entry(_key_token("+0")),
    "minus_zero_key": _edit_entry(_key_token("-0")),
    "leading_zero_key": _edit_entry(_key_token("007")),
    "int64_max_key": _edit_entry(_key_token(str(2**63 - 1))),
    "key_past_int64": _edit_entry(_key_token(str(2**63))),
    "long_zero_key": _edit_entry(_key_token("0" * 20)),
    "nan": _edit_entry(_value("nan")),
    "inf": _edit_entry(_value("inf")),
    "minus_inf": _edit_entry(_value("-Infinity")),
    "overflow": _edit_entry(_value("1e400")),
    "signed_overflow": _edit_entry(_value("1e+400")),
    "integer_value": _edit_entry(_value("5")),
    "bare_point_value": _edit_entry(_value("5.")),
    "two_points": _edit_entry(_value("1.5.5")),
    "capital_exponent": _edit_entry(_value("1.5E+3")),
    "minus_nan": _edit_entry(_value("-nan")),
    "underflow": _edit_entry(_value("1e-400")),
    "short_value": _edit_entry(_value(".5")),
    "signed_value": _edit_entry(_value("+5.E-3")),
    "bad_exponent": _edit_entry(_value("1.5e")),
    "word_value": _edit_entry(_value("half")),
    "random_token": _edit_entry(_random_token),
    "repeat_far": _repeat(10**6),
    "repeat_adjacent": _repeat(0),
    "repeat_near": _repeat(2),
}


def _tampered_files(name, tmp_path):
    """Seeded tamperings of two good files, alone and on top of another one.

    A tampering returns the file's lines, or its whole text when it changes
    the line breaks.
    """
    files = []
    for arity, jmax in ((2, 5), (3, 3)):
        good = tmp_path / f"good{arity}.cache"
        save_cache(build_cache(arity, jmax), good)
        lines = good.read_text().splitlines()
        rng = np.random.default_rng([arity, sum(map(ord, name))])
        others = sorted(TAMPERINGS)
        for trial in range(12):
            start = lines
            if trial >= 6:
                start = TAMPERINGS[others[int(rng.integers(len(others)))]](rng, lines)
                if isinstance(start, str):
                    start = start.splitlines()
            tampered = TAMPERINGS[name](rng, start)
            files.append(tampered if isinstance(tampered, str) else "\n".join(tampered) + "\n")
    return files


@pytest.mark.parametrize("name", sorted(TAMPERINGS))
def test_load_matches_the_line_loader_on_tampered_files(tmp_path, name):
    path = tmp_path / "t.cache"
    for text in _tampered_files(name, tmp_path):
        path.write_bytes(text.encode())
        assert outcome(load_cache, path) == outcome(reference_load, path), text


@pytest.mark.parametrize(
    "header",
    [
        "p=0 jmax=5", "p=2 jmax=-1", "p=2 jmax=x", "p=2", "p=2 jmax=5 extra=1", "p=-1 jmax=5",
        # 19 digits at most; past 4,300 int() would raise its own error
        f"p={10**19 - 1} jmax=5", f"p=2 jmax={10**19 - 1}", f"p={10**19} jmax=5",
        f"p=2 jmax={10**19}", f"p={'9' * 4301} jmax=5", f"p=2 jmax={'9' * 4301}",
    ],
)
def test_load_matches_the_line_loader_on_tampered_headers(tmp_path, header):
    path = tmp_path / "t.cache"
    save_cache(build_cache(2, 5), path)
    first, *body = path.read_text().splitlines()
    for rows in ([], body, ["\t1.0"], ["0\t1.0"]):
        path.write_text("\n".join([f"{CACHE_MAGIC} v1 {header} policy={POLICY_ID}", *rows]) + "\n")
        assert outcome(load_cache, path) == outcome(reference_load, path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("0 1_0 10", "0.5"),
        ("0 0 0", "1_0.5"),
        ("0 \u0661 1", "0.5"),
        ("\uff10 0 0", "0.5"),
        ("0\xa00 0", "0.5"),
        ("0 0 0", "\xa00.5"),
        ("0\x1f0 0", "0.5"),
    ],
)
def test_python_only_spellings_load_or_name_their_line(tmp_path, key, value):
    path = tmp_path / "s.cache"
    save_cache(build_cache(2, 10), path)
    first, *body = path.read_text().splitlines()
    at = [tuple(map(int, row.split("\t")[0].split())) for row in body].index(
        tuple(int(c) for c in key.split())
    )
    body[at] = f"{key}\t{value}"
    path.write_bytes("\n".join([first, *body]).encode() + b"\n")
    # spellings that only Python's int and float read name their line
    want = ("error", f"{path}:{at + 2}: malformed entry {body[at]!r}")
    assert outcome(load_cache, path) == outcome(reference_load, path) == want


# ------------------------------------------------------ differential builder

@functools.lru_cache(maxsize=None)
def _reference_chi(n: int, q: int, deg: int):
    rule = gauss_hermite_rule(n)
    c = math.sqrt(q / 2.0)
    return rule.scaled_weights / c, hermite_batch(deg, rule.nodes / c)


def reference_integral(indices, node_factor: int = 1) -> float:
    """The per-key quadrature the block build replaced: products in index order, one np.dot."""
    q, deg = len(indices), max(indices)
    weights, chi = _reference_chi((math.ceil(q * deg / 2) + 8) * node_factor, q, deg)
    prod = chi[indices[0]].copy()
    for i in indices[1:]:
        prod *= chi[i]
    return float(np.dot(weights, prod))


def reference_build(p: int, jmax: int) -> dict:
    """The per-key build_cache the block build replaced, kept as its reference."""
    return {
        key: reference_integral(key)
        for key in itertools.combinations_with_replacement(range(jmax + 1), p + 1)
        if sum(key) % 2 == 0
    }


def reference_save(arity: int, table: dict, path) -> None:
    """The per-line save_cache the one-format-string writer replaced."""
    jmax = max((k[-1] for k in table), default=0)
    lines = [f"{CACHE_MAGIC} v1 p={arity} jmax={jmax} policy={POLICY_ID}"]
    for key in sorted(table):
        coords = " ".join(str(c) for c in key)
        lines.append(f"{coords}\t{table[key]!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def bits(table: dict) -> dict:
    return {k: v.hex() for k, v in table.items()}


@pytest.mark.parametrize("jmax", [0, 1, 2, 7, 8, 20])
@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_build_and_save_match_the_per_key_build(tmp_path, p, jmax):
    want = reference_build(p, jmax)
    cache = build_cache(p, jmax)
    assert cache.arity == p
    assert bits(cache.table) == bits(want)
    save_cache(cache, tmp_path / "got.cache")
    reference_save(p, want, tmp_path / "want.cache")
    assert (tmp_path / "got.cache").read_bytes() == (tmp_path / "want.cache").read_bytes()


@pytest.fixture
def tables_built(monkeypatch):
    """The degrees of the chi tables coeffs builds from here on, from an empty memo."""
    degrees = []

    def batch(nmax, x):
        degrees.append(nmax)
        return hermite_batch(nmax, x)

    coeffs._chi_table.cache_clear()
    monkeypatch.setattr(coeffs, "hermite_batch", batch)
    return degrees


def test_build_makes_one_chi_table_per_degree_under_a_small_table_bound(tables_built):
    # a per-key build, largest index innermost, rebuilt a dropped table for
    # almost every key once the tables of all degrees passed the bound
    cache = build_cache(2, 40)
    assert tables_built == list(range(41))
    assert bits(cache.table) == bits(reference_build(2, 40))


def test_one_chi_table_is_kept_and_it_is_read_only(tables_built):
    build_cache(2, 40)
    assert coeffs._chi_table.cache_info().currsize == 1
    weights, chi = coeffs._chi_table(coeffs._node_count(3, 40), 3, 40)  # the build's last
    assert len(tables_built) == 41
    for table in (weights, chi):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_repeated_oracle_calls_read_the_kept_table(tables_built):
    # 3 repeats at each of 3 budgets, the repeats of one budget one after another
    cmd_bench("hermite", 2, 3.0, [8, 16, 32], 1, "transform")
    assert len(tables_built) == 3


def test_concurrent_misses_give_the_sequential_values():
    rng = random.Random(32)
    blocks = [coeffs._block_keys(3, deg).tolist() for deg in range(41)]
    keys = [tuple(key) for block in blocks for key in rng.sample(block, min(10, len(block)))]
    want = {key: hermite_product_integral(key) for key in keys}
    # two readers share each cache, and each walks the keys in its own
    # order, so the kept table changes under the others
    caches = [HermiteCache(2), HermiteCache(2)]
    work = [(caches[i % 2], rng.sample(keys, len(keys))) for i in range(4)]

    def miss(cache, order):
        for key in order:
            cache.coefficient((key[0],), ((key[1],), (key[2],)))

    threads = [threading.Thread(target=miss, args=pair) for pair in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for cache in caches:
        assert bits(cache.table) == bits(want)


def test_build_in_chunks_of_a_few_rows(monkeypatch):
    # the 4 factors of 3 rows at degree 0 (8 nodes), of 1 row from degree 4 (16 nodes) on
    monkeypatch.setattr(coeffs, "FACTOR_BYTES", 3 * 4 * 8 * 8)
    assert bits(build_cache(3, 8).table) == bits(reference_build(3, 8))
    assert hermite_product_integral((8, 1, 7, 0)).hex() == reference_integral((8, 1, 7, 0)).hex()


def test_build_out_of_memory_names_the_entries_built(monkeypatch):
    def batch(nmax, x):
        if nmax == 5:
            raise MemoryError
        return hermite_batch(nmax, x)

    coeffs._chi_table.cache_clear()
    monkeypatch.setattr(coeffs, "hermite_batch", batch)
    monkeypatch.setattr(coeffs, "FACTOR_BYTES", 3 * 4 * 8 * 8)
    entries = len(reference_build(3, 4))  # the blocks of degrees 0..4
    with pytest.raises(RuntimeError, match=f"^cache build ran out of memory after {entries} entries$"):
        build_cache(3, 8)


def test_product_integral_matches_the_per_key_quadrature_in_any_order():
    rng = np.random.default_rng(14)
    keys = [(5, 0, 3), (0, 5, 3), (3, 5, 0), (7,), (0, 0), (9, 2, 2, 9, 1), (40, 1, 39, 0, 2, 40)]
    keys += [tuple(int(c) for c in rng.integers(0, 30, rng.integers(1, 7))) for _ in range(60)]
    for key in keys:
        for node_factor in (1, 2):
            assert hermite_product_integral(key, node_factor).hex() == reference_integral(key, node_factor).hex(), key

# ---------------------------------------------------------------- decay shape

def test_coefficient_decay_kernel_bound():
    """|a| * A_{1/2}^{-R} * mu3^{-1/4} stays bounded as the grid grows."""
    cache = HermiteCache(2)

    def fitted_constant(cap: int, R: int) -> float:
        best = 0.0
        for key in itertools.combinations_with_replacement(range(cap + 1), 3):
            if sum(key) % 2:
                continue
            a = cache.coefficient((key[0],), ((key[1],), (key[2],)))
            if a == 0.0:
                continue
            kern = a_theta((key[0],), ((key[1],), (key[2],)), 0.5)
            mu3 = max(1, min(key))
            best = max(best, abs(a) * kern**-R * mu3**-0.25)
        return best

    for R in (2, 4):
        c20 = fitted_constant(20, R)
        c40 = fitted_constant(40, R)
        assert math.isfinite(c40) and c40 > 0.0
        # the empirical constant saturates well inside the grid
        assert c40 <= c20 * (1.0 + 1e-12)
