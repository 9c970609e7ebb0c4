"""Seeded differential of direct_sparse_eval and iterative_eval outputs across two trees.

Usage:

    PYTHONPATH=PARENT/src python3 tools/eval_diff.py run CASES parent.json
    PYTHONPATH=CHANGE/src python3 tools/eval_diff.py run CASES change.json
    PYTHONPATH=src python3 tools/eval_diff.py compare parent.json change.json

`run` draws CASES Fourier evaluations from seeds 0 .. CASES - 1 and writes,
per case, the sha256 of its `dump_vector` text with its term count and
length, or the type and message of the error it raised.  The draw depends on
the seed alone, not on the tree, so two trees run the same cases.  A case
crosses d in {1, 2}, p in 1..4, alpha, both norms, no box or a box from 2 to
2**70, the default output grid or an explicit domain, the unit and
1/(2 - cos x) symbols (its tensor square in d = 2), and one of: random entries with +-0.0 or random
imaginary parts and +-1e-200 entries past both corners of the support and
inside it; random entries with complex parts only; or sigma = 1.5 or 3
power laws with random phases, the same vector in every slot or not.  About
one case in seven folds iteratively.  A case with box 2**70 is also run
without the box, under the key `<seed>n`.

`compare` counts the cases whose records agree bit for bit, and lists the
others; a case that raised at the first tree and returns, at the second,
the first tree's output without its box counts apart.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys

import numpy as np

from spspec.coeffs import FourierSymbol
from spspec.evaluators import EvalRequest, direct_sparse_eval, iterative_eval
from spspec.indices import SizeFunction, SparseSetSpec, integers
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


def evaluate(seed: int, boxed: bool = True):
    """(kind, result) of the case drawn from seed; None for a companion
    without the box when the case has no far box."""
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
        return ("iterative", iterative_eval(sym, inputs, level, alpha)) if boxed else None
    box = rng.choice((None, None, 2, 3, 5, 12, 100, FAR_BOX))
    ells = None
    if rng.random() < 0.3:
        near = min(level + 2, 300) if d == 1 else 8
        cells = list(itertools.product(range(-near, near + 1), repeat=d))
        ells = tuple(rng.sample(cells, min(len(cells), 60))) + ((10**6,) * d,)
    if not boxed and box != FAR_BOX:
        return None
    spec = SparseSetSpec(p, level, alpha, size, integers(d), box=box if boxed else None)
    return "direct", direct_sparse_eval(EvalRequest(sym, inputs, spec, ells))


def record(seed: int, boxed: bool):
    try:
        out = evaluate(seed, boxed)
    except Exception as e:  # recorded: the two trees may raise differently
        return ["error", type(e).__name__, str(e)]
    if out is None:
        return None
    kind, got = out
    text = dump_vector(got.vector).encode()
    return [kind, hashlib.sha256(text).hexdigest()[:16], got.terms, len(got.vector)]


def run(cases: int, path: str) -> None:
    out = {}
    for seed in range(cases):
        for key, boxed in ((str(seed), True), (f"{seed}n", False)):
            rec = record(seed, boxed)
            if rec is not None:
                out[key] = rec
    with open(path, "w") as f:
        json.dump(out, f)
    base = [v for k, v in out.items() if not k.endswith("n")]
    errors = sum(v[0] == "error" for v in base)
    empty = sum(v[0] != "error" and v[3] == 0 for v in base)
    print(f"{len(base)} cases: {errors} raised, {empty} returned no entry")


def compare(first_path: str, second_path: str) -> int:
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    cases = [k for k in first if not k.endswith("n")]
    same = [k for k in cases if first[k] == second.get(k)]
    mended = [k for k in cases if first[k][0] == "error" and second.get(k) == first.get(k + "n")]
    other = [k for k in cases if k not in same and k not in mended]
    print(f"{len(cases)} cases: {len(same)} identical, {len(mended)} raised at the first tree and"
          f" now equal its output without the box, {len(other)} differ")
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
