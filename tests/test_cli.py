import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import Estimate, Mat, Params, expected_kernel_size, field_make, save_matrix
from starprod.catalog import (
    evaluation_code,
    full_space,
    hamming_7_4,
    mds63_gf7_codes,
    repetition_code,
    single_coordinate_code,
)
from starprod.cli import _dec, main
from starprod.matrices import identity
from starprod.oracle import exact_expected_star_dim_fixed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_plain(capsys):
    code, out, _ = run(capsys, "bound", "-q", "2", "-n", "7", "-k1", "2", "-k2", "3")
    assert code == 0
    assert "bound = 4.362865723" in out  # rounds to the published 4.3629
    assert "E[kernel] = 25481/8192" in out


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "-q", "2", "-n", "2", "-k1", "1", "-k2", "1", "--format", "json")
    obj = json.loads(out)
    assert code == 0 and obj["kernel_num"] == "1" and obj["bound"] == 1.0


def test_bound_validation_exit_code(capsys):
    code, _, err = run(capsys, "bound", "-q", "2", "-n", "2", "-k1", "3", "-k2", "3")
    assert code == 2 and "error" in err


def test_bound_at_a_large_prime_order(capsys):
    code, out, _ = run(capsys, "bound", "-q", "99999999999973", "-n", "5", "-k1", "2", "-k2", "2")
    assert code == 0 and "bound = " in out


def test_usage_error_exit_code(capsys):
    assert main(["bound", "-q", "2"]) == 2  # missing required flags
    capsys.readouterr()


def test_expect_kernel(capsys):
    code, out, _ = run(capsys, "expect-kernel", "-q", "2", "-n", "2", "-k1", "1", "-k2", "1")
    assert code == 0 and "E[kernel] = 1/1" in out


def test_mc_deterministic_json(capsys):
    args = ["mc", "-q", "2", "-n", "7", "-k1", "2", "-k2", "3", "--samples", "3000", "--seed", "4"]
    outs = []
    for threads in ("1", "4", "8"):
        code, out, _ = run(capsys, *args, "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    est = Estimate.from_json(json.loads(outs[0]))
    assert est.samples == 3000 and est.seed == 4


def test_thread_counts_below_one_or_not_integers_exit_2(capsys, monkeypatch):
    args = ["mc", "-q", "2", "-n", "7", "-k1", "2", "-k2", "3", "--samples", "30"]
    code, _, err = run(capsys, *args, "--threads", "0")
    assert code == 2 and "threads must be >= 1" in err
    for env in ("abc", "-3"):
        monkeypatch.setenv("STARPROD_THREADS", env)
        code, _, err = run(capsys, *args)
        assert code == 2 and "STARPROD_THREADS" in err
    assert run(capsys, *args, "--threads", "1")[0] == 0  # the flag wins over the variable


def test_mc_kernel_and_full_dim_stats(capsys):
    code, out, _ = run(
        capsys, "mc", "-q", "2", "-n", "4", "-k1", "2", "-k2", "2",
        "--samples", "500", "--seed", "1", "--stat", "kernel-size",
    )
    assert code == 0 and json.loads(out)["stat"] == "kernel-size"
    code, out, _ = run(
        capsys, "mc", "-q", "2", "-n", "8", "-k1", "2", "-k2", "3",
        "--samples", "500", "--seed", "1", "--stat", "full-dim",
    )
    obj = json.loads(out)
    assert code == 0 and 0 <= obj["mean_f64"] <= 1
    # the asymptotic bound is reported beside the frequency, never asserted
    assert "asymptotic_bound" in obj


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table1", "--samples", "200", "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k1,k2,q,mc_mean,bound,ratio"
    assert len(lines) == 37
    assert lines[1].startswith("7,2,3,2,")


def test_table1_seed_reproducible(capsys):
    a = run(capsys, "table1", "--samples", "150", "--seed", "3")[1]
    b = run(capsys, "table1", "--samples", "150", "--seed", "3")[1]
    assert a == b


def test_oracle_checks_pass(capsys):
    code, out, _ = run(capsys, "oracle", "--check", "zerodiag", "--qmax", "3", "--kmax", "2")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out and "all checks passed" in out
    code, out, _ = run(capsys, "oracle", "--check", "kernel", "--qmax", "2", "--nmax", "3")
    assert code == 0 and "all checks passed" in out


def test_mds_subcommand(capsys):
    code, out, _ = run(capsys, "mds", "-q", "2", "-n", "3", "-k1", "2", "-k2", "2")
    assert code == 0 and "18/7" in out
    code, _, err = run(capsys, "mds", "-q", "7", "-n", "6", "-k1", "3", "-k2", "2")
    assert code == 2  # uncovered regime


def test_intersect_subcommand(capsys):
    code, out, _ = run(capsys, "intersect", "-q", "2", "-n", "3", "-k1", "1", "-k2", "2")
    assert code == 0 and "3/7" in out
    code, out, _ = run(
        capsys, "intersect", "-q", "2", "-n", "2", "-k1", "1", "-k2", "1",
        "--mc", "--samples", "2000", "--seed", "5",
    )
    assert code == 0 and "1/3" in out


def test_limit_q_subcommand(capsys):
    code, out, _ = run(capsys, "limit-q", "-n", "7", "-k1", "2", "-k2", "3", "--qlist", "2,3,5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("q=2:")


def test_mc_mean_past_the_float_range_prints_inf(capsys):
    # every sample has kernel 7**380, past the float range: the float view
    # is inf and the exact fields stay exact (exit 1 is a failed oracle check)
    argv = ("mc", "-q", "7", "-n", "20", "-k1", "20", "-k2", "20", "--stat", "kernel-size", "--samples", "3")
    code, out, err = run(capsys, *argv, "--threads", "1")
    obj = json.loads(out)
    assert (code, err) == (0, "") and obj["mean_f64"] == math.inf and obj["stderr"] == 0.0
    kernel = 7 ** (20 * 20 - 20)
    assert (obj["sum"], obj["mean_num"], obj["mean_den"]) == (str(3 * kernel), str(kernel), "1")


def test_limit_q_gap_past_the_float_range_prints_inf(capsys):
    e = expected_kernel_size(Params(7, 30, 25, 30))
    argv = ("limit-q", "-n", "30", "-k1", "25", "-k2", "30", "--qlist", "7")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith(f"q=7: E = {e.numerator}/{e.denominator}, ")
    assert out.endswith(", |gap| = inf\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    [row] = json.loads(out)
    assert (code, err) == (0, "") and row["abs_gap"] == math.inf
    assert (row["kernel_num"], row["kernel_den"]) == (str(e.numerator), str(e.denominator))


@pytest.mark.parametrize("fmt", [(), ("--format", "json")])
@pytest.mark.parametrize("qlist", [",", "", " , "])
def test_limit_q_empty_qlist_is_a_usage_error(capsys, qlist, fmt):
    code, out, err = run(capsys, "limit-q", "-n", "7", "-k1", "2", "-k2", "3", "--qlist", qlist, *fmt)
    assert code == 2 and "names no field order" in err and out == ""


def test_apps_pir_and_sdmm(tmp_path, capsys):
    f5 = field_make(5)
    from conftest import grs_code

    c = grs_code(5, 5, 2)
    path = tmp_path / "grs.mat"
    save_matrix(c.basis, path)
    code, out, _ = run(capsys, "apps", "pir", "--c", str(path), "--d", str(path))
    obj = json.loads(out)
    assert code == 0 and obj["rate_upper"] == "2/5"
    code, out, _ = run(capsys, "apps", "sdmm", "--ca", str(path), "--cb", str(path))
    obj = json.loads(out)
    assert code == 0 and obj["recovery"] == 3 and obj["stragglers"] == 2


def test_apps_csst(tmp_path, capsys):
    f2 = field_make(2)
    r3 = repetition_code(f2, 3)
    path = tmp_path / "rep3.mat"
    save_matrix(r3.basis, path)
    code, out, _ = run(capsys, "apps", "csst", "--c1", str(path))
    obj = json.loads(out)
    assert code == 0 and obj["feasible"] is False


def test_apps_field_mismatch_exit(tmp_path, capsys):
    f2, f3 = field_make(2), field_make(3)
    p2 = tmp_path / "c2.mat"
    p3 = tmp_path / "c3.mat"
    save_matrix(identity(f2, 3), p2)
    save_matrix(identity(f3, 3), p3)
    code, _, err = run(capsys, "apps", "pir", "--c", str(p2), "--d", str(p3))
    assert code == 2 and "error" in err


def test_apps_bad_matrix_entries_exit(tmp_path, capsys):
    # an entry beyond int64 or a non-integer entry is a usage error (exit 2),
    # not a failed oracle check (exit 1)
    for entry in (str(2**70), str(2**64 - 1), "1.7"):
        path = tmp_path / "bad.mat"
        path.write_text(f"5 1 2\n1 {entry}\n")
        code, out, err = run(capsys, "apps", "pir", "--c", str(path), "--d", str(path))
        assert code == 2 and out == "" and err.startswith("error:"), entry


def test_apps_missing_file_exit(tmp_path, capsys):
    code, _, err = run(capsys, "apps", "csst", "--c1", str(tmp_path / "nope.mat"))
    assert code == 4


APPS_STDOUT = [
    (("pir", "--c", "ev2", "--d", "ev3"), '{"n": 7, "star_dim": 4, "rate_upper": "3/7", "rate_lower": "3/7"}'),
    # the star of F_2^4 with itself is the full space
    (("pir", "--c", "full4", "--d", "full4"), '{"n": 4, "star_dim": 4, "rate_upper": "0/1", "rate_lower": "0/1"}'),
    (("sdmm", "--ca", "ev2", "--cb", "ev3"), '{"servers": 7, "star_distance": 4, "recovery": 4, "stragglers": 3}'),
    (("csst", "--c1", "rep4"), '{"feasible": true, "envelope_dim": 1, "distance_floor": null}'),
    (("csst", "--c1", "rep4", "--c2", "rep4"), '{"feasible": true, "envelope_dim": 1, "distance_floor": 2}'),
    (("csst", "--c1", "rep4", "--c2", "e0"), '{"feasible": false, "envelope_dim": 1, "distance_floor": 1}'),
    (("csst", "--c1", "ham"), '{"feasible": false, "envelope_dim": 0, "distance_floor": null}'),
    (("csst", "--c1", "full4", "--c2", "rep4"), '{"feasible": false, "envelope_dim": 0, "distance_floor": 2}'),
]


@pytest.mark.parametrize("argv,want", APPS_STDOUT)
def test_apps_exact_stdout(tmp_path, capsys, argv, want):
    # byte-exact report lines, key order included, on catalog codes
    f2, f7 = field_make(2), field_make(7)
    codes = {
        "ev2": evaluation_code(f7, 2),
        "ev3": evaluation_code(f7, 3),
        "full4": full_space(f2, 4),
        "rep4": repetition_code(f2, 4),
        "e0": single_coordinate_code(f2, 4, 0),
        "ham": hamming_7_4(),
    }
    for name, c in codes.items():
        save_matrix(c.basis, tmp_path / name)
    code, out, err = run(capsys, "apps", *(str(tmp_path / a) if a in codes else a for a in argv))
    assert (code, out, err) == (0, want + "\n", "")


@pytest.mark.parametrize("seed", [str(-1), str(2**64), str(-(2**64))])
def test_mc_seed_outside_64_bits_is_a_usage_error(capsys, seed):
    # a seed is a Philox key word: it is refused, not wrapped onto another seed's stream
    code, out, err = run(capsys, "mc", "-q", "2", "-n", "7", "-k1", "2", "-k2", "3", "--samples", "3000", "--seed", seed)
    assert code == 2 and out == "" and f"seed must lie in [0, 2**64), got {seed}" in err


def test_mc_seed_bounds_run(capsys):
    sums = {}
    for seed in ("0", str(2**64 - 1)):
        code, out, _ = run(capsys, "mc", "-q", "2", "-n", "7", "-k1", "2", "-k2", "3", "--samples", "3000", "--seed", seed)
        obj = json.loads(out)
        assert code == 0 and obj["seed"] == int(seed)
        sums[seed] = obj["sum"]
    assert sums == {"0": "13890", str(2**64 - 1): "13898"}


def test_example_mds_custom_code(tmp_path, capsys):
    f2 = field_make(2)
    parity = Mat(f2, [[1, 0, 1], [0, 1, 1]])
    path = tmp_path / "parity.mat"
    save_matrix(parity, path)
    code, out, _ = run(capsys, "example-mds", "--code", str(path), "--l", "1", "--threads", "1")
    assert code == 0
    from starprod import code_from_matrix

    want = exact_expected_star_dim_fixed(code_from_matrix(parity), 1)
    assert f"{want.numerator}/{want.denominator}" in out


def test_example_mds_builtin_names(capsys):
    # keep the built-in run tiny: dimension-1 partners enumerate 19608 lines
    code, out, _ = run(capsys, "example-mds", "--l", "1", "--threads", "2")
    assert code == 0
    assert "E[dim C1*D]" in out and "E[dim C2*D]" in out
    c1, c2 = mds63_gf7_codes()
    e1 = exact_expected_star_dim_fixed(c1, 1)
    assert f"{e1.numerator}/{e1.denominator}" in out


def test_oracle_intersection_grid_skips_points_above_budget(capsys):
    # (2, 7, 3, 3) represents 139,499,721 pairs, above the default budget
    code, out, _ = run(capsys, "oracle", "--check", "intersection", "--qmax", "2", "--nmax", "7")
    assert code == 0 and "FAIL" not in out and "all checks passed" in out
    assert "PASS intersection q=2 n=7 k1=2 k2=7" in out and "q=2 n=7 k1=3 k2=3" not in out
    code, out, _ = run(capsys, "oracle", "--check", "intersection", "--qmax", "9", "--nmax", "4")
    assert code == 0 and "PASS intersection q=9 n=4 k1=2 k2=2" in out


def test_oracle_grid_runs_every_check_over_extension_fields(capsys):
    code, out, _ = run(capsys, "oracle", "--check", "all", "--qmax", "9", "--nmax", "4", "--kmax", "2")
    assert code == 0 and "FAIL" not in out and "all checks passed" in out
    for check in ("kernel", "zerodiag", "intersection", "support"):
        assert f"PASS {check} q=9 " in out, check


def test_oracle_grid_skips_points_the_oracle_prices_above_its_budget(monkeypatch, capsys):
    from starprod import oracle
    from starprod.oracle import EnumBudget

    real = oracle.count_zero_diag_oracle
    monkeypatch.setattr(
        oracle, "count_zero_diag_oracle", lambda k1, k2, q: real(k1, k2, q, budget=EnumBudget(3**6))
    )
    code, out, _ = run(capsys, "oracle", "--check", "zerodiag", "--qmax", "3", "--kmax", "3")
    assert code == 0 and "FAIL" not in out
    want = [
        f"PASS zerodiag q={q} k1={k1} k2={k2}"
        for q in (2, 3)
        for k1 in range(1, 4)
        for k2 in range(k1, 5)
        if q ** (k1 * k2 - k1) <= 3**6
    ]
    assert out.splitlines() == want + ["all checks passed"]
    assert len(want) < 2 * 9  # some points were skipped


def test_oracle_support_check(monkeypatch, capsys):
    # supports are counted over RREF blocks, with no code object per subspace
    from starprod import oracle

    def refuse(*args, **kwargs):
        raise AssertionError("per-code enumeration")

    monkeypatch.setattr(oracle, "enumerate_subspaces", refuse)
    code, out, _ = run(capsys, "oracle", "--check", "support", "--qmax", "3", "--nmax", "5")
    assert code == 0 and "FAIL" not in out and "all checks passed" in out
    assert out.count("PASS support") == 2 * 15


def test_oracle_grid_skips_only_budget_errors(monkeypatch, capsys):
    from starprod import exact
    from starprod.errors import BadRange

    def bad_range(p):
        raise BadRange("closed form refused")

    monkeypatch.setattr(exact, "expected_kernel_size", bad_range)
    code, out, err = run(capsys, "oracle", "--check", "kernel", "--qmax", "2", "--nmax", "2")
    assert code == 2 and "closed form refused" in err and "PASS" not in out


@pytest.mark.parametrize(
    "args", [("--qmax", "1"), ("--check", "mds", "--nmax", "2"), ("--check", "kernel", "--kmax", "0")]
)
def test_oracle_grid_that_checks_nothing_is_a_usage_error(capsys, args):
    code, out, err = run(capsys, "oracle", *args)
    assert code == 2 and "no oracle grid point was checked" in err
    assert "PASS" not in out and "all checks passed" not in out


def test_failed_oracle_check_exit_code(monkeypatch, capsys):
    from starprod import exact

    monkeypatch.setattr(exact, "expected_kernel_size", lambda p: -1)
    code, out, _ = run(capsys, "oracle", "--check", "kernel", "--qmax", "2", "--nmax", "2")
    assert code == 1
    assert "FAIL kernel q=2 n=1 k1=1 k2=1" in out and "checks FAILED" in out


def test_budget_exit_code(tmp_path, capsys):
    # a partner-dimension enumeration far beyond the budget fails fast
    f2 = field_make(2)
    big = identity(f2, 60)
    path = tmp_path / "big.mat"
    save_matrix(big, path)
    code, _, err = run(capsys, "example-mds", "--code", str(path), "--l", "30", "--threads", "1")
    assert code == 3 and "budget" in err


def test_example_mds_partner_dimension_exit(capsys):
    for ell in ("0", "9"):
        code, out, err = run(capsys, "example-mds", "--l", ell, "--threads", "1")
        assert code == 2 and "need 1 <= k <= n" in err and out == ""


def test_example_mds_dump(tmp_path, capsys):
    out_dir = tmp_path / "dumped"
    code, out, _ = run(
        capsys, "example-mds", "--l", "1", "--threads", "1", "--dump", str(out_dir)
    )
    assert code == 0
    from starprod import code_from_matrix, load_matrix
    from starprod.catalog import mds63_gf7_codes

    c1, c2 = mds63_gf7_codes()
    assert code_from_matrix(load_matrix(out_dir / "C1.mat")) == c1
    assert code_from_matrix(load_matrix(out_dir / "C2.mat")) == c2


GOLDEN_STDOUT = {
    "table1 --samples 2000 --seed 7 --format json --threads 2":
        "787ffeba38164e612212f7ff5e891df12f7afcfd4cf5c2bb469fbb70ee3d61ae",
    "mc -q 4 -n 4 -k1 2 -k2 2 --model uniform --stat kernel-size --samples 4113 --threads 2":
        "e9ce6b3d39c45c05d3873b764252c71779fe1c2ebafdb0dc881f4679c1367f8f",
    "mc -q 7 -n 15 -k1 3 -k2 4 --stat full-dim --samples 4113 --threads 1":
        "081691ba17d24475aea62809c40decbfcfd55168afba7d81f15bfd8bce2b63ac",
    "intersect -q 8 -n 4 -k1 2 -k2 2 --mc --samples 4113":
        "a287a480d3b3df46ca7a803047bbdd8d02e1c874f106d0d495c4cee67887ce00",
    "oracle --check all --qmax 3":
        "2fd59a5576b0cbc28d1f03a7fe532c6189f502318be05482b27cff5013cc9eb5",
    "oracle --check all":
        "dd8847307872edfbea80c12e090d6b6b379361d549b11ad3f47ed2920be9d8bd",
    "oracle --check kernel --nmax 6":
        "ed388562ecdd5096a9e8ddd4fa8d9e980d2b3b676d259f0732869b8b5d3863d8",
    "example-mds --l 1 --threads 2":
        "8df0447f373a1c246829f0b4d3935061be01d67fd52b939ee986ce35ee1731b9",
}


@pytest.mark.parametrize("command", list(GOLDEN_STDOUT))
def test_golden_stdout(capsys, command):
    # byte-exact stdout of the recorded commands; the uniform-model ones
    # change only with the uniform sample stream
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


def _run_python(code):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


def test_import_does_not_load_mpmath():
    # mpmath is a test dependency only
    res = _run_python("import sys, starprod, starprod.cli; assert 'mpmath' not in sys.modules, 'mpmath imported'")
    assert res.returncode == 0, res.stderr


def test_exact_decimals_print_with_mpmath_blocked():
    # None in sys.modules makes any import of mpmath raise ImportError
    res = _run_python(
        "import sys; sys.modules['mpmath'] = None; from starprod import cli; "
        "sys.exit(cli.main(['bound', '-q', '2', '-n', '7', '-k1', '2', '-k2', '3']))"
    )
    assert (res.returncode, res.stdout) == (0, "E[kernel] = 25481/8192 (= 3.110473633)\nbound = 4.362865723\n"), res.stderr


# -- the 10-digit decimal of an exact rational --------------------------------

DEC_EXAMPLES = {
    Fraction(0): "0.0",
    Fraction(1025, 1024): "1.000976563",  # an exact binary tie
    Fraction(12345678905, 10**10): "1.234567891",  # a decimal tie; mpmath prints 1.23456789
    Fraction(99999999995, 10**10): "10.0",  # a decimal tie that carries; mpmath prints 9.999999999
    Fraction(99999999995, 10): "1.0e+10",
    Fraction(-(10**9)): "-1000000000.0",
    Fraction(1, 10**4): "0.0001",
    Fraction(1, 10**5): "1.0e-5",
    Fraction(10**10): "1.0e+10",
    Fraction(-3, 7): "-0.4285714286",
    Fraction(7) ** 1600: "1.435040053e+1352",
    Fraction(7) ** -1600: "6.968446614e-1353",
}


@pytest.mark.parametrize("x,want", DEC_EXAMPLES.items(), ids=str)
def test_dec_examples(x, want):
    assert _dec(x) == want


def _half_up(x: Fraction) -> tuple:
    """x rounded half away from zero to 10 significant digits, exactly,
    and the distance of its scaled digits from the nearest half-way point,
    relative to the digits."""
    a = abs(x)
    e = math.floor(math.log10(a.numerator) - math.log10(a.denominator))
    e += (Fraction(10) ** (e + 1) <= a) - (Fraction(10) ** e > a)
    scale = Fraction(10) ** (9 - e)
    y = a * scale
    rounded = math.floor(y + Fraction(1, 2))
    return (1 if x > 0 else -1) * rounded / scale, abs(y - math.floor(y) - Fraction(1, 2)) / y


def _mpmath_dec(x: Fraction) -> str:
    with mpmath.workdps(25):
        return mpmath.nstr(mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator), 10)


# num / q**k * 10**shift: wide exponents, denominators that are powers of
# field orders, and numerators with runs of 9s that carry
WIDE_FRACTIONS = st.builds(
    lambda num, q, k, shift: Fraction(num, q**k) * Fraction(10) ** shift,
    st.one_of(
        st.integers(-(10**30), 10**30).filter(bool),
        st.builds(lambda t, d: 10**t - d, st.integers(9, 14), st.integers(0, 9)),
    ),
    st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 256)),
    st.integers(0, 400),
    st.integers(-30, 30),
)
# +-(10 m + 5) * 10**shift, m of 10 digits: half-way between two 10-digit decimals
DECIMAL_TIES = st.builds(
    lambda sign, m, shift: sign * Fraction(10 * m + 5) * Fraction(10) ** shift,
    st.sampled_from((1, -1)),
    st.integers(10**9, 10**10 - 1),
    st.integers(-30, 30),
)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.one_of(WIDE_FRACTIONS, DECIMAL_TIES))
def test_dec_rounds_half_up_and_matches_mpmath(x):
    # the exact half-up value always; mpmath's rendering wherever its binary
    # quotient (86 bits, read back through about 53) cannot misround
    got = _dec(x)
    want, tie_distance = _half_up(x)
    assert Fraction(got) == want
    if tie_distance > Fraction(1, 2**50):
        assert got == _mpmath_dec(x)
