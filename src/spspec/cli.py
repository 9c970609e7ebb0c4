"""Command line experiments: convergence sweeps, set counting, timing,
coefficient cache building, and ad-hoc evaluation of serialized vectors.

All experiments are seedless and deterministic.  CSV goes to --out (default
stdout); diagnostics such as the fitted slope go to stderr so the CSV body
stays machine readable.  Validation problems exit with status 2.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from dataclasses import astuple, dataclass, fields
from fractions import Fraction

import numpy as np

from .coeffs import FourierSymbol, HermiteCache, build_cache, save_cache
from .evaluators import (
    HERMITE_ELL_CAP,
    EvalRequest,
    EvalResult,
    dense_oracle_fourier,
    dense_oracle_hermite,
    direct_sparse_eval,
    error_report,
    iterative_eval,
)
from .indices import Lattice, LatticeKind, SizeFunction, SparseSetSpec, count_sparse
from .quadrature import MAX_NODES
from .spectral import Basis, BasisKind, l1s_norm, power_law_vector, read_vector, write_vector

ERROR_FLOOR = 1e-13  # rows at or below this are saturated and excluded from fits
REF_MULT = 4  # the Fourier reference cutoff is REF_MULT * max N unless --cutoff sets it


class CliError(ValueError):
    """Invalid experiment parameters; maps to exit status 2."""


@dataclass(frozen=True)
class ConvergenceRecord:
    method: str
    basis: str
    p: int
    sigma: float
    alpha: int
    N: int
    terms: int
    error_l1: float
    wall_time_s: float

    def row(self) -> str:
        """The fields in CSV_HEADER's order, floats as their shortest repr."""
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in astuple(self))


CSV_HEADER = ",".join(f.name for f in fields(ConvergenceRecord))


def fit_slope(ns, errors) -> float:
    """Least-squares slope of log error against log N, skipping saturated rows."""
    pts = [(math.log(n), math.log(e)) for n, e in zip(ns, errors) if e > ERROR_FLOOR]
    if len(pts) < 2:
        return math.nan
    x, y = zip(*pts)
    return float(np.polyfit(np.array(x), np.array(y), 1)[0])


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise CliError(f"bad N list {text!r}; expected comma-separated integers") from None
    if not ns or any(n < 1 for n in ns):
        raise CliError(f"bad N list {text!r}; budgets must be positive")
    return ns


def _setup(u, p, alpha, method, norm, jmax, ell_cap):
    """run(n) -> EvalResult: the p-fold product of u with itself at budget n.

    The one check of a run's options, made before any evaluation or
    reference is built: p >= 1, alpha 0 or 1, transform on the Hermite
    basis only, iterative under the max-norm size only, and ell_cap >= 0.
    The basis comes from u.  Fourier runs use the unit symbol.  Hermite
    runs give direct and iterative one empty HermiteCache(p), which fixes
    only the basis (no evaluator reads its table), gate alpha = 0 outputs
    to 0..ell_cap (default jmax, at most HERMITE_ELL_CAP), and send
    transform to the pointwise route with min(n - 1, jmax) projected
    coefficients.
    """
    if p < 1:
        raise CliError(f"p must be >= 1, got {p}")
    if alpha not in (0, 1):
        raise CliError(f"alpha must be 0 or 1, got {alpha}")
    if method == "transform" and u.basis.kind is BasisKind.FOURIER:
        raise CliError("the transform method applies to the Hermite basis")
    if method == "iterative" and norm is not SizeFunction.MAX:
        raise CliError("iterative evaluation is defined for the max-norm size only")
    if ell_cap is not None and ell_cap < 0:
        raise CliError(f"--ell-cap must be >= 0, got {ell_cap}")
    lattice = u.basis.lattice
    if u.basis.kind is BasisKind.FOURIER:
        provider = FourierSymbol.unit(1)
        domain = None
    elif method != "transform":
        provider = HermiteCache(p)
        ell_cap = min(ell_cap if ell_cap is not None else jmax, HERMITE_ELL_CAP)
        domain = tuple((l,) for l in range(ell_cap + 1)) if alpha == 0 else None

    def run(n):
        spec = SparseSetSpec(p, n, alpha, norm, lattice)
        if method == "direct":
            return direct_sparse_eval(EvalRequest(provider, (u,) * p, spec, domain))
        if method == "iterative":
            return iterative_eval(provider, [u] * p, n, alpha, ell_cap=ell_cap)
        out = min(n - 1, jmax) if n > 1 else 0
        vec = dense_oracle_hermite([u] * p, n, out, strict=False)
        # transform work units: nodes times projected coefficients
        return EvalResult(vec, n * (out + 1))

    return run


def _sweep(run, n_list, repeats, reference, head):
    """One record per N after head = (method, basis, p, sigma, alpha): the
    median wall time of `repeats` calls of run(n), and the error of the
    last call against reference (nan without one), taken outside the
    timed span."""
    records = []
    for n in n_list:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = run(n)
            times.append(time.perf_counter() - t0)
        err = math.nan if reference is None else error_report(res.vector, reference)
        records.append(ConvergenceRecord(*head, n, res.terms, err, statistics.median(times)))
    return records


def cmd_converge(
    basis: str,
    p: int,
    sigma: float,
    n_list: list[int],
    alpha: int,
    method: str,
    *,
    norm: SizeFunction = SizeFunction.MAX,
    cutoff: int | None = None,
    ref_nodes: int = 500,
    ref_jmax: int | None = None,
    ell_cap: int | None = None,
    fit_window: tuple[int, int] | None = None,
):
    """Error against a dominating dense reference, one record per N.

    Returns (records, slope, notes).  The run's options are checked before
    the reference is built, and references weaker than the runs they are
    supposed to certify are refused.
    """
    n_max = max(n_list)
    notes = []
    input_basis = Basis(BasisKind(basis))
    fourier = input_basis.kind is BasisKind.FOURIER
    cut = cutoff if cutoff is not None else (REF_MULT if fourier else 1) * n_max
    if fourier and cut < n_max:
        raise CliError(f"reference weaker than test: cutoff {cut} < max N {n_max}")
    u = power_law_vector(sigma, cut, input_basis)
    jmax = ref_jmax if ref_jmax is not None else p * n_max  # the Hermite reference's outputs
    run = _setup(u, p, alpha, method, norm, jmax, ell_cap)
    if fourier:
        reference = dense_oracle_fourier([u] * p)
        tail = 2.0 * (1.0 + cut) ** (1.0 - sigma) / (sigma - 1.0)
        bound = p * tail * l1s_norm(u, 0.0) ** (p - 1)
        notes.append(f"input tail beyond cutoff {cut} shifts the reference by <= {bound:.3e}")
    else:
        if jmax < n_max:
            raise CliError(f"reference weaker than test: output range {jmax} < max N {n_max}")
        if ref_nodes > MAX_NODES:
            raise CliError(f"--ref-nodes {ref_nodes} exceeds the supported maximum {MAX_NODES}")
        try:
            reference = dense_oracle_hermite([u] * p, ref_nodes, jmax, strict=True)
        except ValueError as exc:
            raise CliError(f"reference weaker than test: {exc}") from None
    records = _sweep(run, n_list, 1, reference, (method, basis, p, sigma, alpha))
    fit_records = records
    if fit_window is not None:
        lo, hi = fit_window
        fit_records = [r for r in records if lo <= r.N <= hi]
    slope = fit_slope([r.N for r in fit_records], [r.error_l1 for r in fit_records])
    return records, slope, notes


def cmd_count(
    p: int,
    alpha: int,
    n_list: list[int],
    *,
    norm: SizeFunction = SizeFunction.MAX,
    lattice_kind: str = "Z",
    dim: int = 1,
    q: int | None = None,
    box: int | None = None,
):
    """Exact cardinalities with the matching log-normalized column.

    With q, each counted tuple takes one of (2q+1)^d momenta, a factor on
    the alpha = 0 count that leaves its growth, and so the column, alone.
    """
    lattice = Lattice(LatticeKind(lattice_kind), dim)
    if q is not None:
        if alpha != 0:
            raise CliError("momentum-restricted counting is defined for alpha = 0")
        if lattice.kind is not LatticeKind.INTEGERS:
            raise CliError("momentum-restricted counting applies to the Fourier lattice")
        if q < 0:
            raise CliError(f"momentum radius must be >= 0, got {q}")
    momenta = 1 if q is None else (2 * q + 1) ** dim
    rows = []
    for n in n_list:
        spec = SparseSetSpec(p, n, alpha, norm, lattice, box)
        count = count_sparse(spec, include_ell=(alpha == 1)) * momenta
        if norm is SizeFunction.MAX:
            scale, power = n**dim, p - 1 + alpha
        else:
            scale, power = n, dim * (p + alpha) - 1
        rows.append((n, count, _normalized(count, n, scale, power)))
    return rows


def _normalized(count: int, n: int, scale: int, power: int) -> float:
    """count / (scale * log(n + 1)**power), the count column's normalization.

    In Python floats wherever every step stays in their range, which keeps
    the bits of those rows; elsewhere exactly, from the float log of n + 1,
    rounded once.  A value past the float range, or a nonzero one that
    rounds to 0, is refused.
    """
    try:
        z = count / (scale * math.log(n + 1.0) ** power)
    except (OverflowError, ZeroDivisionError):
        z = 0.0
    if not 0 < z < math.inf:  # count >= 1, so a step left the float range
        exact = Fraction(count) / (scale * Fraction(math.log(n + 1)) ** power)
        if not math.ulp(0.0) <= exact <= sys.float_info.max:
            raise CliError(f"normalized count at N={n} is outside the float range")
        z = float(exact)
    return z


def cmd_bench(
    basis: str,
    p: int,
    sigma: float,
    n_list: list[int],
    alpha: int,
    method: str,
    repeats: int = 3,
    *,
    norm: SizeFunction = SizeFunction.MAX,
    ell_cap: int | None = None,
):
    """Median-of-repeats timings; error column is nan (no reference here).

    Timing runs are always sequential so the rows reflect single-threaded
    cost.
    """
    if repeats < 3:
        raise CliError(f"need at least 3 repeats for a stable median, got {repeats}")
    n_max = max(n_list)
    u = power_law_vector(sigma, n_max, Basis(BasisKind(basis)))
    run = _setup(u, p, alpha, method, norm, p * n_max, ell_cap)
    return _sweep(run, n_list, repeats, None, (method, basis, p, sigma, alpha))


def cmd_coeffs(p: int, jmax: int, out_path):
    """Build the bulk cache, save it, report (entry count, seconds)."""
    t0 = time.perf_counter()
    cache = build_cache(p, jmax)
    elapsed = time.perf_counter() - t0
    save_cache(cache, out_path)
    return len(cache.table), elapsed


def cmd_eval(
    in_path,
    out_path,
    basis: str,
    p: int,
    n: int,
    alpha: int,
    method: str,
    *,
    norm: SizeFunction = SizeFunction.MAX,
    ell_cap: int | None = None,
):
    """Evaluate the p-fold product of one serialized vector with itself."""
    u = read_vector(in_path, Basis(BasisKind(basis)))
    jmax = ell_cap if ell_cap is not None else p * n
    run = _setup(u, p, alpha, method, norm, jmax, ell_cap)
    if basis == "hermite" and alpha == 0 and method != "transform" and ell_cap is None:
        raise CliError("alpha = 0 on the Hermite basis needs --ell-cap")
    res = run(n)
    write_vector(res.vector, out_path)
    return res.terms


def _write_csv(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    """Each option's dest is the name of the command parameter it feeds;
    a metavar keeps the flag's own name in usage and help."""
    parser = argparse.ArgumentParser(
        prog="spspec", description="sparse coefficient-space product experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        return sp

    def common(sp, n_dest, **n_args):
        sp.add_argument("--basis", choices=("fourier", "hermite"), required=True)
        sp.add_argument("--p", type=int, required=True, help="number of inputs")
        sp.add_argument("--alpha", type=int, choices=(0, 1), required=True)
        sp.add_argument("--N", dest=n_dest, metavar="N", required=True, **n_args)
        sp.add_argument("--norm", choices=("max", "prod"), default="max")
        sp.add_argument("--method", choices=("direct", "iterative", "transform"), default="direct")

    def sweep(sp):
        common(sp, "n_list", help="comma-separated budget list")
        sp.add_argument("--out", default=None, help="CSV output path (default stdout)")

    con = command("converge", cmd_converge, "error sweep against a dense reference")
    sweep(con)
    con.add_argument("--sigma", type=float, default=3.0, help="power-law decay exponent")
    cutoff = f"input truncation (default {REF_MULT} * max N for Fourier, max N for Hermite)"
    con.add_argument("--cutoff", type=int, help=cutoff)
    con.add_argument("--ref-nodes", type=int, default=500, help="Hermite reference transform nodes")
    con.add_argument("--ref-jmax", type=int, default=None, help="Hermite reference output range")
    con.add_argument("--ell-cap", type=int, default=None, help="output cap for Hermite alpha=0")
    con.add_argument("--fit-window", default=None, help="lo:hi N window for the slope fit")

    cnt = command("count", cmd_count, "exact sparse-set cardinalities")
    cnt.add_argument("--p", type=int, required=True)
    cnt.add_argument("--alpha", type=int, choices=(0, 1), required=True)
    cnt.add_argument("--N", dest="n_list", metavar="N", required=True)
    cnt.add_argument("--norm", choices=("max", "prod"), default="max")
    cnt.add_argument("--lattice", dest="lattice_kind", choices=("Z", "N"), default="Z")
    cnt.add_argument("--d", dest="dim", metavar="D", type=int, default=1, help="lattice dimension")
    cnt.add_argument("--q", type=int, default=None, help="momentum radius (alpha=0, Fourier)")
    cnt.add_argument("--box", type=int, default=None, help="per-index size cap")
    cnt.add_argument("--out", default=None)

    ben = command("bench", cmd_bench, "median-of-repeats timing rows")
    sweep(ben)
    ben.add_argument("--sigma", type=float, default=3.0)
    ben.add_argument("--repeats", type=int, default=3)
    ben.add_argument("--ell-cap", type=int, default=None)

    cof = command("coeffs", cmd_coeffs, "build and save a Hermite coefficient cache")
    cof.add_argument("--p", type=int, required=True)
    cof.add_argument("--jmax", type=int, required=True)
    cof.add_argument("--out", dest="out_path", metavar="OUT", required=True)

    ev = command("eval", cmd_eval, "evaluate the p-fold product of a serialized vector")
    ev.add_argument(
        "in_path", metavar="input", help="vector file, one 'coords<TAB>re<TAB>im' line per entry"
    )
    common(ev, "n", type=int)
    ev.add_argument("--ell-cap", type=int, default=None)
    ev.add_argument("--out", dest="out_path", metavar="OUT", required=True)
    return parser


def _parse_fit_window(text):
    if text is None:
        return None
    lo, sep, hi = text.partition(":")
    if not sep:
        raise CliError(f"bad fit window {text!r}; expected lo:hi")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise CliError(f"bad fit window {text!r}; expected integers") from None
    if lo > hi:
        raise CliError(f"bad fit window {text!r}; lo must not exceed hi")
    return lo, hi


def _report(command: str, result, out) -> None:
    """CSV rows to out (stdout when None), then diagnostics to stderr."""
    lines = []
    if command == "converge":
        result, slope, notes = result
        lines = [f"note: {note}" for note in notes] + [f"slope={slope!r}"]
    if command in ("converge", "bench"):
        _write_csv([CSV_HEADER] + [r.row() for r in result], out)
    elif command == "count":
        _write_csv(["N,count,normalized"] + [f"{n},{c},{z!r}" for n, c, z in result], out)
    elif command == "coeffs":
        lines = [f"wrote {result[0]} coefficients to {out} in {result[1]:.3f}s"]
    else:
        lines = [f"evaluated {result} terms"]
    for line in lines:
        print(line, file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command, run, out = args.pop("command"), args.pop("run"), args.pop("out", None)
    try:
        for name, parse in (
            ("n_list", _parse_n_list), ("norm", SizeFunction), ("fit_window", _parse_fit_window)
        ):
            if name in args:
                args[name] = parse(args[name])
        _report(command, run(**args), args.get("out_path", out))
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
