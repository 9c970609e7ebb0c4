"""Seeded differential of direct_sparse_eval and iterative_eval outputs across two trees.

Usage:

    PYTHONPATH=PARENT/src python3 tools/eval_diff.py run CASES parent.json
    PYTHONPATH=CHANGE/src python3 tools/eval_diff.py run CASES change.json
    PYTHONPATH=src python3 tools/eval_diff.py compare parent.json change.json

`run` draws CASES Fourier evaluations from seeds 0 .. CASES - 1, and CASES
Hermite evaluations from the same seeds under the keys `h<seed>`, and
writes, per case, the sha256 of its `dump_vector` text with its term count
and length, or the type and message of the error it raised.  The draw depends on the seed alone, not on the
tree, so two trees run the same cases.  A Fourier case
crosses d in {1, 2}, p in 1..4, alpha, both norms, no box or a box from 2 to
2**70, the default output grid or an explicit domain, the unit and
1/(2 - cos x) symbols (its tensor square in d = 2), and one of: random entries with +-0.0 or random
imaginary parts and +-1e-200 entries past both corners of the support and
inside it; random entries with complex parts only; or sigma = 1.5 or 3
power laws with random phases, the same vector in every slot or not.  About
one case in seven folds iteratively.  A Hermite case crosses p in
1..4, alpha, both norms, no box or a box from 2 to 2**70, the default
outputs or an explicit domain (always at alpha = 0; at times with an index
of 10**6; at p <= 2 sometimes with a budget of 2**70), and one of: random
complex entries, some with +-0.0 imaginary parts, or sigma = 2, 3 or 10
power laws with random signs; the same vector in every slot or not.  About
one max-norm case in seven at p >= 2 folds iteratively on an arity-2 cache.

`compare` counts the cases whose records agree bit for bit, and lists the
others.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys

import numpy as np

from spspec.coeffs import FourierSymbol, HermiteCache
from spspec.evaluators import EvalRequest, direct_sparse_eval, iterative_eval
from spspec.indices import SizeFunction, SparseSetSpec, integers, naturals
from spspec.spectral import Basis, SpectralVector, dump_vector, power_law_vector

FAR_BOX = 2**70


def symbol(d: int, name: str) -> FourierSymbol:
    if name == "unit":
        return FourierSymbol.unit(d)
    if d == 1:
        return FourierSymbol.inverse_two_minus_cos()
    axis = FourierSymbol.inverse_two_minus_cos(1e-4).table
    pairs = itertools.product(axis.items(), repeat=2)
    return FourierSymbol({a + b: va * vb for (a, va), (b, vb) in pairs}, 2)


def random_vector(rng: random.Random, d: int, tiny: bool, real: bool) -> SpectralVector:
    reach = rng.choice((3, 12, 40, 200) if d == 1 else (2, 3, 6, 10))
    cells = list(itertools.product(range(-reach, reach + 1), repeat=d))
    near = list(itertools.product(range(-2, 3), repeat=d))
    keys = rng.sample(near, rng.randint(1, 5))
    keys += rng.sample(cells, rng.randint(0, min(len(cells), 30)))
    entries = {}
    for j in keys:
        im = rng.choice([0.0, -0.0, rng.uniform(-1, 1)]) if real else rng.uniform(-1, 1)
        entries[j] = complex(rng.uniform(-1, 1), im) * 10.0 ** rng.randint(-4, 4)
    if tiny:
        lows = tuple(min(c) - 1 for c in zip(*entries))
        highs = tuple(max(c) + 1 for c in zip(*entries))
        for j in (lows, highs, rng.choice(cells)):
            entries[j] = rng.choice([1e-200, -1e-200, 1e-200j])
    return SpectralVector(Basis.fourier(d), entries)


def power_vector(rng: random.Random, d: int) -> SpectralVector:
    cutoff = rng.choice((32, 128, 512) if d == 1 else (4, 8, 16))
    u = power_law_vector(rng.choice((1.5, 3.0)), cutoff, Basis.fourier(d))
    phases = np.exp(2j * np.pi * np.random.default_rng(rng.randrange(2**32)).random(len(u)))
    return SpectralVector(Basis.fourier(d), {k: v * f for (k, v), f in zip(u.items(), phases)})


def evaluate(seed: int):
    """(kind, result) of the Fourier case drawn from seed."""
    rng = random.Random(seed)
    d = rng.choice((1, 1, 2))
    p = rng.randint(1, 4)
    alpha = rng.randint(0, 1)
    size = rng.choice(list(SizeFunction))
    sym = symbol(d, rng.choice(("unit", "cos")))
    if rng.choice(("random", "random", "power")) == "power":
        inputs = tuple(power_vector(rng, d) for _ in range(p))
        if rng.random() < 0.5:
            inputs = (inputs[0],) * p
        level_cap = 256 if p >= 3 and d == 1 else None
    else:
        real = rng.random() < 0.5
        inputs = tuple(random_vector(rng, d, rng.random() < 0.5, real) for _ in range(p))
        level_cap = None
    level = rng.choice((4, 8, 24, 64, 256, 1024) if d == 1 else (4, 9, 24, 64))
    level = min(level, level_cap or level)
    if rng.random() < 0.15 and size is SizeFunction.MAX:
        return "iterative", iterative_eval(sym, inputs, level, alpha)
    box = rng.choice((None, None, 2, 3, 5, 12, 100, FAR_BOX))
    ells = None
    if rng.random() < 0.3:
        near = min(level + 2, 300) if d == 1 else 8
        cells = list(itertools.product(range(-near, near + 1), repeat=d))
        ells = tuple(rng.sample(cells, min(len(cells), 60))) + ((10**6,) * d,)
    spec = SparseSetSpec(p, level, alpha, size, integers(d), box=box)
    return "direct", direct_sparse_eval(EvalRequest(sym, inputs, spec, ells))


def hermite_vector(rng: random.Random, law: bool) -> SpectralVector:
    basis = Basis.hermite()
    if law:
        u = power_law_vector(rng.choice((2.0, 3.0, 10.0)), rng.choice((8, 32, 64)), basis)
        return SpectralVector(basis, {j: v * rng.choice((1, -1)) for j, v in u.items()})
    reach = rng.choice((12, 40, 200))
    keys = rng.sample(range(5), rng.randint(1, 3)) + rng.sample(range(reach), rng.randint(0, 12))
    entries = {}
    for k in keys:
        im = rng.choice([0.0, -0.0, rng.uniform(-1, 1)])
        entries[(k,)] = complex(rng.uniform(-1, 1), im) * 10.0 ** rng.randint(-4, 4)
    return SpectralVector(basis, entries)


def evaluate_hermite(seed: int):
    """(kind, result) of the Hermite case drawn from seed."""
    rng = random.Random(f"h{seed}")
    p = rng.randint(1, 4)
    alpha = rng.randint(0, 1)
    size = rng.choice(list(SizeFunction))
    law = rng.random() < 0.5
    inputs = tuple(hermite_vector(rng, law) for _ in range(p))
    if rng.random() < 0.5:
        inputs = (inputs[0],) * p
    level = rng.choice((4, 8, 16, 32, 64, 128))
    if rng.random() < 0.15 and size is SizeFunction.MAX and p >= 2:
        got = iterative_eval(HermiteCache(2), inputs, level, alpha, ell_cap=level + 2)
        return "iterative", got
    box = rng.choice((None, None, 2, 3, 7, 20, 100, FAR_BOX))
    ells = None
    if alpha == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            ells = tuple((ell,) for ell in range(level + 3))
        else:
            ells = tuple((rng.randint(0, 2 * level + 8),) for _ in range(rng.randint(1, 40)))
            ells += ((10**6,),) if rng.random() < 0.1 else ()
        if p <= 2 and rng.random() < 0.2:
            level = FAR_BOX  # cut to what the inputs and the domain can reach
    spec = SparseSetSpec(p, level, alpha, size, naturals(1), box=box)
    return "direct", direct_sparse_eval(EvalRequest(HermiteCache(p), inputs, spec, ells))


def record(seed: int, hermite: bool):
    try:
        kind, got = evaluate_hermite(seed) if hermite else evaluate(seed)
    except Exception as e:  # recorded: the two trees may raise differently
        return ["error", type(e).__name__, str(e)]
    text = dump_vector(got.vector).encode()
    return [kind, hashlib.sha256(text).hexdigest()[:16], got.terms, len(got.vector)]


def run(cases: int, path: str) -> None:
    out = {str(seed): record(seed, hermite=False) for seed in range(cases)}
    out.update({f"h{seed}": record(seed, hermite=True) for seed in range(cases)})
    with open(path, "w") as f:
        json.dump(out, f)
    for name, hermite_key in (("Fourier", False), ("Hermite", True)):
        base = [v for k, v in out.items() if k.startswith("h") == hermite_key]
        errors = sum(v[0] == "error" for v in base)
        empty = sum(v[0] != "error" and v[3] == 0 for v in base)
        print(f"{len(base)} {name} cases: {errors} raised, {empty} returned no entry")


def compare(first_path: str, second_path: str) -> int:
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    other = [k for k in first if first[k] != second.get(k)]
    hermite = sum(k.startswith("h") for k in first)
    print(f"{len(first)} cases ({len(first) - hermite} Fourier, {hermite} Hermite):"
          f" {len(first) - len(other)} identical, {len(other)} differ")
    for k in other:
        print(f"  {k}: {first[k]} -> {second.get(k)}")
    return 1 if other else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "run":
        run(int(sys.argv[2]), sys.argv[3])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
