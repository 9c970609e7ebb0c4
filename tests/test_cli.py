import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from spspec.cli import (
    CSV_HEADER,
    CliError,
    cmd_bench,
    cmd_converge,
    cmd_count,
    fit_slope,
    main,
)
from spspec.coeffs import build_cache, load_cache
from spspec.evaluators import dense_oracle_fourier
from spspec.indices import COORD_MAX, SizeFunction
from spspec.spectral import Basis, SpectralVector, read_vector, write_vector


# ---------------------------------------------------------------- slope fit

def test_fit_slope_recovers_a_power_law():
    ns = [8, 16, 32, 64]
    errors = [4.0 * n**-2.0 for n in ns]
    assert abs(fit_slope(ns, errors) + 2.0) < 1e-12


def test_fit_slope_excludes_saturated_rows():
    ns = [8, 16, 32, 64]
    errors = [4.0 * n**-2.0 for n in ns[:-1]] + [5e-14]
    assert abs(fit_slope(ns, errors) + 2.0) < 1e-12


def test_fit_slope_needs_two_points():
    assert math.isnan(fit_slope([8], [0.1]))
    assert math.isnan(fit_slope([8, 16], [1e-14, 1e-15]))


# ---------------------------------------------------------------- converge

def test_converge_fourier_records():
    records, slope, notes = cmd_converge("fourier", 2, 3.0, [4, 8, 16], 0, "direct")
    assert [r.N for r in records] == [4, 8, 16]
    assert all(r.method == "direct" and r.basis == "fourier" for r in records)
    errs = [r.error_l1 for r in records]
    assert errs[0] > errs[1] > errs[2] > 0
    assert slope < -1.0
    assert any("tail" in n for n in notes)


def test_converge_refuses_weak_fourier_reference():
    with pytest.raises(CliError, match="reference"):
        cmd_converge("fourier", 2, 3.0, [4, 8, 16], 0, "direct", cutoff=8)


def test_unknown_basis_and_alpha_are_refused():
    with pytest.raises(CliError, match="^unknown basis 'laguerre'$"):
        cmd_bench("laguerre", 2, 3.0, [4], 1, "direct")
    with pytest.raises(CliError, match="^alpha must be 0 or 1, got 2$"):
        cmd_converge("fourier", 2, 3.0, [4], 2, "direct")


def test_converge_refuses_weak_hermite_reference():
    with pytest.raises(CliError, match="reference"):
        cmd_converge("hermite", 2, 6.0, [4, 8], 1, "direct", ref_jmax=6)


def test_converge_hermite_transform_method():
    records, slope, _ = cmd_converge("hermite", 2, 6.0, [4, 8, 16], 1, "transform")
    errs = [r.error_l1 for r in records]
    assert errs[0] > errs[-1]
    assert slope < -1.0


def test_converge_fit_window():
    full, slope_full, _ = cmd_converge("fourier", 2, 3.0, [4, 8, 16, 32], 0, "direct")
    _, slope_tail, _ = cmd_converge(
        "fourier", 2, 3.0, [4, 8, 16, 32], 0, "direct", fit_window=(16, 32)
    )
    tail = fit_slope([r.N for r in full[-2:]], [r.error_l1 for r in full[-2:]])
    assert abs(slope_tail - tail) < 1e-12
    assert slope_tail != slope_full


# ---------------------------------------------------------------- count/bench

def test_count_rows_and_normalization():
    rows = cmd_count(2, 0, [1, 2, 4])
    assert [r[0] for r in rows] == [1, 2, 4]
    assert rows[0][1] == 9  # every pair from {-1,0,1}^2 at unit budget
    assert rows[1][1] == 21
    for n, count, normalized in rows:
        assert abs(normalized - count / (n * math.log(n + 1.0))) < 1e-12


def test_count_momentum_restricted_growth():
    rows = cmd_count(3, 0, [2**i for i in range(4, 11)], q=0)
    normalized = [z for _, _, z in rows]
    tail = normalized[-5:]
    assert max(tail) / min(tail) < 3.0


def test_count_momentum_mode_validation():
    with pytest.raises(CliError):
        cmd_count(2, 1, [8], q=0)
    with pytest.raises(CliError):
        cmd_count(2, 0, [8], q=0, lattice_kind="N")
    with pytest.raises(CliError):
        cmd_count(2, 0, [8], q=-1)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("norm", list(SizeFunction))
def test_count_momentum_is_a_factor_on_the_plain_count(norm, dim):
    # under the product norm at d = 2 the --q column divided by the max-norm growth
    ns = [4, 16, 64]
    plain = cmd_count(2, 0, ns, norm=norm, dim=dim)
    assert cmd_count(2, 0, ns, norm=norm, dim=dim, q=0) == plain
    widened = cmd_count(2, 0, ns, norm=norm, dim=dim, q=1)
    assert [(n, c) for n, c, _ in widened] == [(n, c * 3**dim) for n, c, _ in plain]
    for (_, _, z), (_, _, z1) in zip(plain, widened):
        assert z1 == pytest.approx(z * 3**dim, rel=1e-12)


def test_bench_median_rows():
    records = cmd_bench("fourier", 2, 3.0, [4, 8], 0, "direct", repeats=3)
    assert [r.N for r in records] == [4, 8]
    assert all(math.isnan(r.error_l1) for r in records)
    assert all(r.wall_time_s >= 0 for r in records)
    with pytest.raises(CliError):
        cmd_bench("fourier", 2, 3.0, [4], 0, "direct", repeats=2)


def test_bench_direct_equals_iterative_terms_at_p_two():
    a = cmd_bench("fourier", 2, 3.0, [16], 0, "direct", repeats=3)
    b = cmd_bench("fourier", 2, 3.0, [16], 0, "iterative", repeats=3)
    assert a[0].terms == b[0].terms


# ---------------------------------------------------------------- main()

def run_main(args):
    return main(args)


def test_main_converge_writes_csv(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = run_main(
        ["converge", "--basis", "fourier", "--p", "2", "--alpha", "0",
         "--N", "4,8,16", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[:6] == ["direct", "fourier", "2", "3.0", "0", "4"]
    assert "slope=" in capsys.readouterr().err


def test_main_single_point_slope_is_nan(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = run_main(
        ["converge", "--basis", "fourier", "--p", "2", "--alpha", "0",
         "--N", "8", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 2
    assert "slope=nan" in capsys.readouterr().err


def test_main_count(tmp_path):
    out = tmp_path / "n.csv"
    code = run_main(["count", "--p", "2", "--alpha", "0", "--N", "1,2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,count,normalized"
    assert lines[1].startswith("1,9,")
    assert lines[2].startswith("2,21,")


def test_main_validation_failures_exit_2(tmp_path):
    # transform is hermite-only
    assert run_main(
        ["converge", "--basis", "fourier", "--p", "2", "--alpha", "0",
         "--N", "4,8", "--method", "transform"]
    ) == 2
    # hermite alpha=0 eval needs an ell cap
    vec = tmp_path / "u.tsv"
    write_vector(SpectralVector(Basis.hermite(), {(0,): 1.0}), vec)
    assert run_main(
        ["eval", str(vec), "--basis", "hermite", "--p", "2", "--alpha", "0",
         "--N", "4", "--out", str(tmp_path / "o.tsv")]
    ) == 2
    # malformed N list
    assert run_main(
        ["count", "--p", "2", "--alpha", "0", "--N", "4,x"]
    ) == 2
    # bad flag value is caught by argparse
    assert run_main(
        ["converge", "--basis", "nope", "--p", "2", "--alpha", "0", "--N", "4"]
    ) == 2


def test_main_coeffs_idempotent(tmp_path, capsys):
    out = tmp_path / "h.cache"
    assert run_main(["coeffs", "--p", "2", "--jmax", "1", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert run_main(["coeffs", "--p", "2", "--jmax", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert "wrote 2 coefficients" in capsys.readouterr().err


def test_main_coeffs_file_loads_as_the_built_cache(tmp_path):
    # the one path from the program's writer to its reader
    out = tmp_path / "h.cache"
    assert main(["coeffs", "--p", "3", "--jmax", "8", "--out", str(out)]) == 0
    got, want = load_cache(out), build_cache(3, 8)
    assert got.arity == want.arity == 3
    assert {k: v.hex() for k, v in got.table.items()} == {k: v.hex() for k, v in want.table.items()}


def test_main_eval_round_trip(tmp_path):
    basis = Basis.fourier(1)
    u = SpectralVector(basis, {(-1,): 0.5, (0,): 1.0, (2,): 0.25})
    vec = tmp_path / "u.tsv"
    write_vector(u, vec)
    out = tmp_path / "x.tsv"
    code = run_main(
        ["eval", str(vec), "--basis", "fourier", "--p", "2", "--alpha", "0",
         "--N", "4", "--out", str(out)]
    )
    assert code == 0
    got = read_vector(out, basis)
    assert got == dense_oracle_fourier((u, u))


def test_main_eval_hermite_with_cache(tmp_path):
    u = SpectralVector(Basis.hermite(), {(0,): 1.0, (1,): 0.5})
    vec = tmp_path / "u.tsv"
    write_vector(u, vec)
    out = tmp_path / "x.tsv"
    code = run_main(
        ["eval", str(vec), "--basis", "hermite", "--p", "2", "--alpha", "1",
         "--N", "4", "--out", str(out)]
    )
    assert code == 0
    got = read_vector(out, Basis.hermite())
    assert (0,) in got and (2,) in got


def test_main_eval_rejects_repeated_indices(tmp_path, capsys):
    vec = tmp_path / "u.tsv"
    vec.write_text("0\t0.5\t0.0\n0\t0.25\t0.0\n")
    assert run_main(
        ["eval", str(vec), "--basis", "fourier", "--p", "2", "--alpha", "0",
         "--N", "4", "--out", str(tmp_path / "o.tsv")]
    ) == 2
    assert "line 2: index (0,) repeats line 1" in capsys.readouterr().err
    assert not (tmp_path / "o.tsv").exists()


def test_main_eval_rejects_coordinates_past_the_bound(tmp_path, capsys):
    vec = tmp_path / "u.tsv"
    vec.write_text("0\t0.5\t0.0\n18446744073709551616\t0.25\t0.0\n")
    assert run_main(
        ["eval", str(vec), "--basis", "fourier", "--p", "2", "--alpha", "0",
         "--N", "4", "--out", str(tmp_path / "o.tsv")]
    ) == 2
    assert "index (18446744073709551616,) has a coordinate past the bound" in capsys.readouterr().err
    assert not (tmp_path / "o.tsv").exists()


@pytest.mark.parametrize("basis, entry, message", [
    ("hermite", "-1\t0.5\t0.0", "index (-1,) not in N^1"),
    ("fourier", "18446744073709551616\t0.25\t0.0",
     f"index (18446744073709551616,) has a coordinate past the bound |c| <= {COORD_MAX}"),
], ids=["off-the-lattice", "past-the-bound"])
def test_main_eval_names_the_line_of_a_bad_index(basis, entry, message, tmp_path, capsys):
    vec = tmp_path / "u.tsv"
    vec.write_text(f"0\t1.0\t0.0\n{entry}\n")
    assert run_main(
        ["eval", str(vec), "--basis", basis, "--p", "2", "--alpha", "1",
         "--N", "4", "--out", str(tmp_path / "o.tsv")]
    ) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: line 2: {message}"]
    assert not (tmp_path / "o.tsv").exists()


def test_main_rejects_missing_input_file(tmp_path):
    assert run_main(
        ["eval", str(tmp_path / "absent.tsv"), "--basis", "fourier", "--p", "2",
         "--alpha", "0", "--N", "4", "--out", str(tmp_path / "o.tsv")]
    ) == 2


# ---------------------------------------------------------------- CLI guard
#
# Every case runs main() on small inputs and is compared exactly with the
# outcome recorded in cli_golden.json: exit code, stdout with the
# wall_time_s column removed from CSV rows, stderr lines, and the bytes of
# the eval output file.  {dir} stands for the directory holding the inputs
# made by guard_inputs.

GOLDEN = Path(__file__).with_name("cli_golden.json")

FOURIER = "--basis fourier --sigma 3"
HERMITE = "--basis hermite --sigma 6"
EVAL_F = "eval {dir}/f.vec --basis fourier --out {dir}/out.vec"
EVAL_H = "eval {dir}/h.vec --basis hermite --out {dir}/out.vec"

GUARD_CASES = {
    "converge-f-direct-a0": f"converge {FOURIER} --p 3 --alpha 0 --N 4,8,16",
    "converge-f-direct-a1-prod": f"converge {FOURIER} --p 2 --alpha 1 --N 4,8 --norm prod",
    "converge-f-iterative-a1": f"converge {FOURIER} --p 3 --alpha 1 --N 4,8 --method iterative",
    "converge-f-iterative-a0": f"converge {FOURIER} --p 2 --alpha 0 --N 4,8 --method iterative",
    "converge-f-fit-window": f"converge {FOURIER} --p 2 --alpha 0 --N 4,8,16,32 --fit-window 8:16",
    "converge-f-cutoff": f"converge {FOURIER} --p 2 --alpha 1 --N 4,8 --cutoff 20",
    "converge-f-ell-cap": f"converge {FOURIER} --p 2 --alpha 0 --N 4,8 --ell-cap 3",
    "converge-f-weak-reference": f"converge {FOURIER} --p 2 --alpha 0 --N 4,8,16 --cutoff 8",
    "converge-f-transform": f"converge {FOURIER} --p 2 --alpha 0 --N 4,8 --method transform",
    "converge-h-direct-a0": f"converge {HERMITE} --p 2 --alpha 0 --N 2,4",
    "converge-h-direct-a0-cap": f"converge {HERMITE} --p 2 --alpha 0 --N 2,4 --ell-cap 3",
    "converge-h-direct-a1-cache": f"converge {HERMITE} --p 2 --alpha 1 --N 2,4,8",
    "converge-h-direct-a1-p3-cache": f"converge {HERMITE} --p 3 --alpha 1 --N 2,4",
    "converge-h-direct-a1-prod": f"converge {HERMITE} --p 2 --alpha 1 --N 2,4 --norm prod",
    "converge-h-iterative-a1-cache": (
        f"converge {HERMITE} --p 3 --alpha 1 --N 2,4 --method iterative"
    ),
    "converge-h-iterative-a0-cap": (
        f"converge {HERMITE} --p 3 --alpha 0 --N 2,4 --method iterative --ell-cap 5"
    ),
    "converge-h-iterative-prod": (
        f"converge {HERMITE} --p 2 --alpha 1 --N 2,4 --method iterative --norm prod"
    ),
    "converge-h-transform-a0": f"converge {HERMITE} --p 2 --alpha 0 --N 2,4,8 --method transform",
    "converge-h-transform-a1": f"converge {HERMITE} --p 3 --alpha 1 --N 2,4 --method transform",
    "converge-h-weak-ref-jmax": f"converge {HERMITE} --p 2 --alpha 1 --N 2,4 --ref-jmax 3",
    "converge-h-weak-ref-nodes": f"converge {HERMITE} --p 2 --alpha 1 --N 2,4 --ref-nodes 4",
    "bench-f-direct-a0": f"bench {FOURIER} --p 3 --alpha 0 --N 4,8",
    "bench-f-iterative-a1": f"bench {FOURIER} --p 3 --alpha 1 --N 4,8 --method iterative",
    "bench-f-direct-a1-prod": f"bench {FOURIER} --p 2 --alpha 1 --N 8 --norm prod --repeats 4",
    "bench-f-repeats-2": f"bench {FOURIER} --p 2 --alpha 0 --N 4 --repeats 2",
    "bench-f-transform": f"bench {FOURIER} --p 2 --alpha 0 --N 4 --method transform",
    "bench-h-direct-a0": f"bench {HERMITE} --p 2 --alpha 0 --N 2,4",
    "bench-h-direct-a0-cap": f"bench {HERMITE} --p 2 --alpha 0 --N 2,4 --ell-cap 3",
    "bench-h-direct-a1-cache": f"bench {HERMITE} --p 2 --alpha 1 --N 2,4",
    "bench-h-iterative-a1-cache": f"bench {HERMITE} --p 3 --alpha 1 --N 2,4 --method iterative",
    "bench-h-iterative-a0-cap": (
        f"bench {HERMITE} --p 2 --alpha 0 --N 2,4 --method iterative --ell-cap 4"
    ),
    "bench-h-transform-a0": f"bench {HERMITE} --p 2 --alpha 0 --N 2,4 --method transform",
    "bench-h-transform-a1-cache": f"bench {HERMITE} --p 2 --alpha 1 --N 2,4 --method transform",
    "eval-f-direct-a0": f"{EVAL_F} --p 2 --alpha 0 --N 4",
    "eval-f-direct-a1": f"{EVAL_F} --p 3 --alpha 1 --N 8",
    "eval-f-direct-a1-prod": f"{EVAL_F} --p 2 --alpha 1 --N 6 --norm prod",
    "eval-f-iterative-a1": f"{EVAL_F} --p 3 --alpha 1 --N 8 --method iterative",
    "eval-f-transform": f"{EVAL_F} --p 2 --alpha 0 --N 4 --method transform",
    "eval-f-missing-file": "eval {dir}/absent.vec --basis fourier --p 2 --alpha 0 --N 4 "
    "--out {dir}/out.vec",
    "eval-h-direct-a0-cap": f"{EVAL_H} --p 2 --alpha 0 --N 4 --ell-cap 5",
    "eval-h-direct-a0-no-cap": f"{EVAL_H} --p 2 --alpha 0 --N 4",
    "eval-h-direct-a1-cache": f"{EVAL_H} --p 2 --alpha 1 --N 4",
    "eval-h-direct-a1-prod": f"{EVAL_H} --p 3 --alpha 1 --N 6 --norm prod",
    "eval-h-direct-a1-cap": f"{EVAL_H} --p 2 --alpha 1 --N 4 --ell-cap 2",
    "eval-h-iterative-a1-cache": f"{EVAL_H} --p 3 --alpha 1 --N 4 --method iterative",
    "eval-h-iterative-a0-cap": f"{EVAL_H} --p 3 --alpha 0 --N 4 --method iterative --ell-cap 6",
    "eval-h-transform-a0": f"{EVAL_H} --p 2 --alpha 0 --N 6 --method transform",
    "eval-h-transform-a0-cap": f"{EVAL_H} --p 2 --alpha 0 --N 6 --method transform --ell-cap 2",
    "eval-h-transform-a1-cache": f"{EVAL_H} --p 2 --alpha 1 --N 4 --method transform",
    "count-z": "count --p 2 --alpha 0 --N 1,2,4,8",
    "count-prod-d2": "count --p 2 --alpha 1 --N 4,8 --norm prod --d 2",
    "count-momentum": "count --p 3 --alpha 0 --N 8,16 --q 1",
    "count-momentum-alpha-1": "count --p 3 --alpha 1 --N 8 --q 1",
    "count-naturals-box": "count --p 3 --alpha 1 --N 8,16 --lattice N --box 3",
    "count-momentum-prod-d2": "count --p 2 --alpha 0 --N 4,16 --norm prod --d 2 --q 1",
    # the parser's surface: help, usage errors, and the checks main and the commands make
    "help": "--help",
    "help-converge": "converge --help",
    "help-count": "count --help",
    "help-bench": "bench --help",
    "help-coeffs": "coeffs --help",
    "help-eval": "eval --help",
    "usage-no-command": "",
    "usage-converge-missing-p": f"converge {FOURIER} --alpha 0 --N 4,8",
    "usage-count-missing-n": "count --p 2 --alpha 0",
    "usage-bench-bad-alpha": f"bench {FOURIER} --p 2 --alpha 2 --N 4",
    "usage-coeffs-missing-jmax": "coeffs --p 2 --out {dir}/out.vec",
    "usage-eval-bad-n": f"{EVAL_F} --p 2 --alpha 0 --N x",
    "bench-f-bad-n-list": f"bench {FOURIER} --p 2 --alpha 0 --N 4,x",
    "count-n-zero": "count --p 2 --alpha 0 --N 0",
    "converge-f-fit-window-no-colon": (
        f"converge {FOURIER} --p 2 --alpha 0 --N 4,8 --fit-window 8-16"
    ),
    "converge-f-fit-window-words": f"converge {FOURIER} --p 2 --alpha 0 --N 4,8 --fit-window a:b",
    "converge-f-p-0": f"converge {FOURIER} --p 0 --alpha 0 --N 4,8",
    "converge-f-n-before-window": (
        f"converge {FOURIER} --p 0 --alpha 0 --N 4,x --fit-window a:b"
    ),
    "converge-f-window-before-p": f"converge {FOURIER} --p 0 --alpha 0 --N 4 --fit-window a:b",
    "count-momentum-negative": "count --p 2 --alpha 0 --N 4 --q -1",
    "count-momentum-naturals": "count --p 2 --alpha 0 --N 4 --q 1 --lattice N",
    "count-d-0": "count --p 2 --alpha 0 --N 4 --d 0",
    "coeffs-p-1": "coeffs --p 1 --jmax 4 --out {dir}/out.vec",
}


def guard_inputs(root: Path) -> None:
    """Input vectors shared by the guard cases."""
    fourier = {(-2,): 0.25, (-1,): 0.5, (0,): 1.0, (1,): -0.5 + 0.25j, (3,): 0.125}
    write_vector(SpectralVector(Basis.fourier(1), fourier), root / "f.vec")
    hermite = {(0,): 1.0, (1,): 0.5, (2,): -0.25, (4,): 0.125}
    write_vector(SpectralVector(Basis.hermite(), hermite), root / "h.vec")


def guard_outcome(argv: str, root: Path) -> dict:
    out = root / "out.vec"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv.format(dir=root).split())
    rows = stdout.getvalue().splitlines()
    if rows and rows[0] == CSV_HEADER:
        rows = [row.rsplit(",", 1)[0] for row in rows]
    return {
        "code": code,
        "stdout": rows,
        "stderr": stderr.getvalue().replace(str(root), "{dir}").splitlines(),
        "eval_out": out.read_bytes().decode() if out.exists() else None,
    }


@pytest.fixture(scope="module")
def guard_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("guard")
    guard_inputs(root)
    return root


@pytest.mark.parametrize("name", sorted(GUARD_CASES))
def test_cli_outcomes_match_recorded(name, guard_dir, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal width
    golden = json.loads(GOLDEN.read_text())
    assert guard_outcome(GUARD_CASES[name], guard_dir) == golden[name]


@pytest.mark.parametrize("argv", [
    f"converge {HERMITE} --p 2 --alpha 1 --N 2,4",
    f"bench {HERMITE} --p 2 --alpha 1 --N 2,4",
    f"{EVAL_H} --p 2 --alpha 1 --N 4",
], ids=["converge", "bench", "eval"])
def test_cache_flag_is_rejected(argv, guard_dir, tmp_path):
    # no evaluator reads coefficient values, so no evaluating command takes a cache file
    cache = tmp_path / "h2.cache"
    assert main(["coeffs", "--p", "2", "--jmax", "8", "--out", str(cache)]) == 0
    outcome = guard_outcome(f"{argv} --cache {cache}", guard_dir)
    assert outcome["code"] == 2
    assert outcome["stdout"] == [] and outcome["eval_out"] is None
    assert any("unrecognized arguments: --cache" in line for line in outcome["stderr"])


def test_ref_mult_flag_is_rejected(guard_dir):
    # the reference cutoff multiplier is fixed; --cutoff sets the cutoff itself
    outcome = guard_outcome(f"converge {FOURIER} --p 2 --alpha 0 --N 4,8 --ref-mult 4", guard_dir)
    assert outcome["code"] == 2
    assert outcome["stdout"] == [] and outcome["eval_out"] is None
    assert any("unrecognized arguments: --ref-mult" in line for line in outcome["stderr"])


@pytest.mark.parametrize("argv", [
    f"converge {HERMITE} --p 2 --alpha 0 --N 2,4",
    f"bench {HERMITE} --p 2 --alpha 0 --N 2,4",
    f"{EVAL_H} --p 2 --alpha 0 --N 4",
    f"{EVAL_H} --p 2 --alpha 0 --N 4 --method transform",
], ids=["converge", "bench", "eval", "eval-transform"])
def test_negative_ell_cap_is_rejected(argv, guard_dir):
    outcome = guard_outcome(argv + " --ell-cap -1", guard_dir)
    assert outcome["code"] == 2
    assert outcome["stdout"] == [] and outcome["eval_out"] is None
    assert outcome["stderr"] == ["error: --ell-cap must be >= 0, got -1"]


def test_inverted_fit_window_is_rejected(guard_dir):
    outcome = guard_outcome(f"converge {FOURIER} --p 2 --alpha 0 --N 8,16,32 --fit-window 32:8",
                            guard_dir)
    assert outcome["code"] == 2
    assert outcome["stderr"] == ["error: bad fit window '32:8'; lo must not exceed hi"]
