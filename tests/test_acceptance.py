"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (visible with pytest -s).

Criterion 8b is expected to fail: the claimed monotone decay of the
kernel expectation toward 2 at (n, k1, k2) = (6, 2, 3) is contradicted by
the exact values at q = 2 and q = 3 (the sequence rises before it falls),
and the q = 2 value is confirmed by full enumeration.  The assertion is
kept as stated rather than weakened; see the test's docstring.
"""

import json
from fractions import Fraction

import numpy as np

from starprod import (
    EnumBudget,
    Params,
    RandomModel,
    count_zero_diag_rank,
    count_zero_diag_rank_zerocols,
    count_zero_diag_oracle,
    enumerate_subspaces,
    exact_expected_intersection,
    exact_expected_kernel,
    exact_expected_star_dim,
    exact_expected_star_dim_fixed,
    expected_intersection_dim,
    expected_kernel_size,
    expected_star_dim_mds,
    field_from_order,
    field_make,
    is_mds,
    kernel_limit_value,
    mc_star_dim,
    rank_many,
    star_dim_lower_bound,
)
from starprod.catalog import mds63_gf7_codes
from starprod.codes import _kernel_min_weights, pairwise_product_rows
from starprod.oracle import systematic_count
from starprod.sampling import _pair_generators, resolve_threads
import starprod.cli as cli

THREADS = resolve_threads(None)


def report(num: str, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {desc}{tail}")


def test_criterion_01_kernel_formula_vs_oracle():
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 6):
            for k1 in range(1, min(n, 3) + 1):
                for k2 in range(k1, min(n, 3) + 1):
                    pairs = systematic_count(q, n, k1) * systematic_count(q, n, k2)
                    if pairs > 2**26:
                        continue
                    p = Params(q, n, k1, k2)
                    ok = expected_kernel_size(p) == exact_expected_kernel(p)
                    if not ok:
                        report("1", False, "kernel expectation formula vs oracle", f"{p}")
                        assert ok, (q, n, k1, k2)
                    checked += 1
    report("1", True, "kernel expectation formula = enumeration oracle, exactly", f"{checked} parameter points")
    assert checked >= 30


def test_criterion_02_zero_diagonal_counts():
    for q in (2, 3, 4, 5):
        for k1 in range(1, 4):
            for k2 in range(k1, 5):
                if q ** (k1 * k2 - k1) > 2**22:
                    continue
                counts = count_zero_diag_oracle(k1, k2, q)
                for r in range(k1 + 1):
                    assert counts.by_rank.get(r, 0) == count_zero_diag_rank(k1, k2, r, q)
                for (r, cols), c in counts.by_rank_and_zero_set.items():
                    assert c == count_zero_diag_rank_zerocols(k1, k2, r, len(cols), q)
    for q in (2, 3, 4, 5):
        for k1 in range(1, 6):
            for k2 in range(k1, 6):
                total = sum(count_zero_diag_rank(k1, k2, r, q) for r in range(k1 + 1))
                assert total == q ** (k1 * k2 - k1)
    report("2", True, "zero-diagonal rank counts = exhaustive enumeration; checksum identity")


# Appendix-table values, as printed (grouped by (n, k1, k2), q = 2, 3, 5, 7)
PUBLISHED_BOUNDS = [
    "4.3629", "5.1610", "5.6761", "5.8348",
    "5.4339", "6.2843", "6.7708", "6.8982",
    "5.9594", "6.6232", "6.9011", "6.9582",
    "5.3628", "5.9117", "5.9960", "5.9996",
    "7.3205", "8.5237", "8.9360", "8.9822",
    "8.5278", "9.9850", "10.691", "10.851",
    "5.7877", "5.9922", "5.999", "6.0000",
    "8.3906", "8.9642", "8.9995", "9.0000",
    "10.473", "11.793", "11.990", "11.998",
]
PUBLISHED_MEANS = [
    4.6264, 5.4398, 5.8522, 5.9415,
    5.7123, 6.5425, 6.9000, 6.9663,
    6.1949, 6.7812, 6.9595, 6.9858,
    5.5339, 5.9514, 5.9984, 5.9999,
    7.6598, 8.7159, 8.9731, 8.9943,
    8.9618, 10.336, 10.859, 10.947,
    5.8525, 5.9963, 6.0000, 6.0000,
    8.5608, 8.9812, 8.9999, 9.0000,
    10.843, 11.885, 11.996, 11.999,
]
GRID = [(n, k1, k2, q) for (n, k1, k2) in [(7, 2, 3), (7, 3, 3), (7, 3, 4), (11, 2, 3), (11, 3, 3), (11, 3, 4), (15, 2, 3), (15, 3, 3), (15, 3, 4)] for q in (2, 3, 5, 7)]


def test_criterion_03_bound_column():
    worst = 0.0
    for (n, k1, k2, q), pub in zip(GRID, PUBLISHED_BOUNDS):
        bound = star_dim_lower_bound(Params(q, n, k1, k2)).bound
        decimals = len(pub.split(".")[1])
        tol = 1.01 * 10.0**-decimals  # one unit in the last printed digit
        diff = abs(bound - float(pub))
        worst = max(worst, diff / tol)
        assert diff <= tol, (n, k1, k2, q, bound, pub)
    report("3", True, "all 36 published bound values reproduced at printed precision", f"worst |diff|/tol = {worst:.3f}")


def test_criterion_04_monte_carlo_column():
    worst = 0.0
    for (n, k1, k2, q), pub in zip(GRID, PUBLISHED_MEANS):
        est = mc_star_dim(Params(q, n, k1, k2), RandomModel.SYSTEMATIC, 100_000, 42, THREADS)
        tol = max(0.02, 4 * est.stderr)
        diff = abs(est.mean_f64 - pub)
        worst = max(worst, diff / tol)
        assert diff <= tol, (n, k1, k2, q, est.mean_f64, pub)
    report("4", True, "36 Monte Carlo means within max(0.02, 4 stderr) of published values", f"100000 samples/row, worst |diff|/tol = {worst:.3f}")


def test_criterion_04_exact_means_at_n7():
    # the systematic oracle's exact means of Table 1's n = 7 rows that it
    # reaches in about a second; each lies within 0.0018 of the published mean
    exact = {
        (7, 2, 3, 2): (Fraction(19409927, 4194304), None),
        (7, 3, 3, 2): (Fraction(47909153, 8388608), None),
        (7, 3, 4, 2): (Fraction(25983301, 4194304), None),
        (7, 2, 3, 3): (Fraction(56903676446, 10460353203), EnumBudget(3**22)),
    }
    published = dict(zip(GRID, PUBLISHED_MEANS))
    for (n, k1, k2, q), (want, budget) in exact.items():
        got = exact_expected_star_dim(Params(q, n, k1, k2), RandomModel.SYSTEMATIC, budget)
        assert got == want, (n, k1, k2, q)
        assert abs(float(got) - published[n, k1, k2, q]) < 0.0018, (n, k1, k2, q)
    report("4", True, "exact systematic means of four n = 7 rows within 0.0018 of published values")


def test_criterion_05_fixed_code_expectations_dim2():
    c1, c2 = mds63_gf7_codes()
    e1 = exact_expected_star_dim_fixed(c1, 2, threads=THREADS)
    e2 = exact_expected_star_dim_fixed(c2, 2, threads=THREADS)
    ok = e1 == Fraction(13138498, 2288417) and e2 == Fraction(13154050, 2288417)
    report("5", ok, "GF(7) fixed-code expectations at partner dimension 2, exact rationals", f"{e1} and {e2}")
    assert ok


def test_criterion_05_fixed_code_expectations_dim3():
    c1, c2 = mds63_gf7_codes()
    e1 = exact_expected_star_dim_fixed(c1, 3, threads=THREADS)
    e2 = exact_expected_star_dim_fixed(c2, 3, threads=THREADS)
    ok = e1 == e2 == Fraction(72051027, 12044300)
    report("5", ok, "GF(7) fixed-code expectations at partner dimension 3", f"{e1} and {e2}")
    assert ok


def test_criterion_06_mds_formula_vs_enumeration():
    checked = 0
    for q, n, k1 in [(2, 3, 2), (3, 4, 2), (3, 4, 3), (5, 4, 2), (4, 3, 2), (4, 4, 2)]:
        field = field_from_order(q)
        mds_codes = [c for c in enumerate_subspaces(field, n, k1) if is_mds(c)]
        assert mds_codes, (q, n, k1)
        covered = [k2 for k2 in range(1, n + 1) if k2 == 1 or k2 >= n - k1 + 1]
        for k2 in covered:
            want = expected_star_dim_mds(q, n, k1, k2)
            for c in mds_codes:
                assert exact_expected_star_dim_fixed(c, k2) == want, (q, n, k1, k2)
                checked += 1
    report("6", True, "MDS-vs-uniform expectation equals enumeration for every MDS code", f"{checked} (code, dimension) combinations")


def test_criterion_07_intersection_formula_and_trend():
    for q in (2, 4, 5, 7, 8, 9):
        for n in range(1, 5):
            for k1 in range(1, n + 1):
                for k2 in range(k1, n + 1):
                    p = Params(q, n, k1, k2)
                    assert expected_intersection_dim(p) == exact_expected_intersection(p), (q, n, k1, k2)
    vals = [expected_intersection_dim(Params(2, k * k, k, k)) for k in (2, 3, 4, 5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    report("7", True, "intersection expectation = pair enumeration (q in {2,4,5,7,8,9}, n<=4); vanishing trend at n=k^2")


def test_criterion_08a_kernel_gap_strictly_decreasing():
    gaps = []
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        p = Params(q, 7, 2, 3)
        gaps.append(abs(expected_kernel_size(p) - kernel_limit_value(p)))
    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    report("8a", ok, "|E[kernel] - (1 + 1/q)| strictly decreasing at (n,k1,k2) = (7,2,3)")
    assert ok


def test_criterion_08b_kernel_gap_monotone_at_critical_length():
    """Asserted as stated: E[kernel] - 2 decreases monotonically over
    q in {2, 3, 5, ..., 23} at (n, k1, k2) = (6, 2, 3).

    This is false at the first step: the exact values are
    E - 2 = 2045/1024 (about 1.9971) at q = 2 and 125959/59049 (about
    2.1331) at q = 3, so the sequence rises before decaying.  Both values
    are confirmed by exhaustive enumeration of every systematic pair
    (2**17 pairs at q = 2, 3**17 at q = 3).  The test is kept faithful to
    the stated guarantee instead of being weakened to "eventually
    monotone".
    """
    vals = []
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        vals.append(expected_kernel_size(Params(q, 6, 2, 3)) - 2)
    ok = all(a > b for a, b in zip(vals, vals[1:]))
    report(
        "8b",
        ok,
        "E[kernel] - 2 monotonically decreasing at (n,k1,k2) = (6,2,3)",
        f"documented counterexample: gap rises {float(vals[0]):.4f} -> {float(vals[1]):.4f} from q=2 to q=3",
    )
    assert ok, "sequence is not monotone at the first step (exact values; see docstring)"


def _dual_bases_from_systematic(field, gens, k):
    b, _, n = gens.shape
    a = gens[:, :, k:]
    out = np.zeros((b, n - k, n), dtype=np.int64)
    out[:, :, :k] = field.neg(a.transpose(0, 2, 1))
    out[:, np.arange(n - k), k + np.arange(n - k)] = 1
    return out


def test_criterion_09_per_instance_bounds():
    budget = 2**24
    violations = 0
    instances = 0
    for q in (2, 3, 5):
        field = field_make(q)
        for n in range(2, 9):
            combos = [(k1, k2) for k1 in range(1, n) for k2 in range(k1, n)]
            per_combo = -(-11000 // len(combos))
            tested_here = 0
            for idx, (k1, k2) in enumerate(combos):
                p = Params(q, n, k1, k2)
                seed = 9000 + 97 * q + 13 * n + idx
                # draw until per_combo non-degenerate pairs have been accepted,
                # in rounds that double, since rare shapes accept few pairs; the
                # stream does not depend on the rounds, so the pairs kept are
                # the first per_combo non-degenerate ones by index
                parts1, parts2 = [], []
                accepted, start, m = 0, 0, 2 * per_combo + 64
                while accepted < per_combo:
                    c1, c2 = _pair_generators(field, p, RandomModel.SYSTEMATIC, seed, start, m)
                    start += m
                    m *= 2
                    keep = ((c1[:, :, k1:] != 0).any(axis=1).all(axis=1)) & (
                        (c2[:, :, k2:] != 0).any(axis=1).all(axis=1)
                    )
                    parts1.append(c1[keep])
                    parts2.append(c2[keep])
                    accepted += int(keep.sum())
                g1 = np.concatenate(parts1)[:per_combo]
                g2 = np.concatenate(parts2)[:per_combo]
                dims = rank_many(field, pairwise_product_rows(field, g1, g2))
                h1 = _dual_bases_from_systematic(field, g1, k1)
                h2 = _dual_bases_from_systematic(field, g2, k2)
                # d(C-dual) is the least kernel weight of G, d(C) that of H
                dd1 = _kernel_min_weights(field, g1, lambda live: h1[live], budget)
                dd2 = _kernel_min_weights(field, g2, lambda live: h2[live], budget)
                dual_bound = np.minimum(n, np.minimum(k1 + dd2 - 2, k2 + dd1 - 2))
                violations += int((dims < dual_bound).sum())
                mds_any = (_kernel_min_weights(field, h1, lambda live: g1[live], budget) == n - k1 + 1) | (
                    _kernel_min_weights(field, h2, lambda live: g2[live], budget) == n - k2 + 1
                )
                violations += int((mds_any & (dims < min(n, k1 + k2 - 1))).sum())
                instances += g1.shape[0]
                tested_here += g1.shape[0]
            assert tested_here >= 10_000, (q, n, tested_here)
    ok = violations == 0
    report("9", ok, "per-instance star lower bounds on random non-degenerate pairs", f"{instances} pairs, {violations} violations")
    assert ok


def test_criterion_10_cli_thread_determinism(capsys):
    argv = ["mc", "-q", "3", "-n", "7", "-k1", "2", "-k2", "3", "--samples", "20000", "--seed", "42"]
    outputs = []
    for threads in ("1", "4", "8"):
        assert cli.main(argv + ["--threads", threads]) == 0
        outputs.append(capsys.readouterr().out.encode())
    ok = outputs[0] == outputs[1] == outputs[2]
    json.loads(outputs[0])  # valid JSON payload
    with capsys.disabled():
        report("10", ok, "mc subcommand JSON is byte-identical at 1, 4 and 8 threads")
    assert ok
