import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (
    Params,
    binom,
    count_subspaces_with_support,
    count_zero_diag_rank,
    count_zero_diag_rank_zerocols,
    expected_intersection_dim,
    expected_kernel_size,
    expected_star_dim_mds,
    field_make,
    full_dim_probability_bound,
    full_dim_probability_bound_exponent,
    kernel_conjecture_value,
    kernel_limit_value,
    qbinom,
    star_dim_lower_bound,
    zeros_of_form,
)
from starprod.errors import BadRange, UncoveredCase
from starprod.exact import _float, _json_float
from starprod.fields import field_from_order, prime_power

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]
SMALL_QS = (2, 3, 4, 5, 7, 8, 9)


def test_params_normalisation_and_validation():
    p = Params(q=2, n=5, k1=3, k2=2)
    assert (p.k1, p.k2) == (2, 3)
    with pytest.raises(BadRange):
        Params(q=6, n=4, k1=1, k2=1)
    with pytest.raises(BadRange):
        Params(q=2, n=2, k1=1, k2=3)
    with pytest.raises(BadRange):
        Params(q=2, n=2, k1=0, k2=1)
    # a bool or a float that happens to be whole is not a dimension
    for point in [(7, 5.0, 2, 3), (7, 5, True, 3), ("7", 5, 2, 3), (7.0, 5, 2, 3), (7, 5, 2, 3.5), (7, None, 2, 3)]:
        with pytest.raises(BadRange):
            Params(*point)
    p = Params(np.int64(7), np.int32(5), np.uint8(3), np.int16(2))
    assert p == Params(7, 5, 2, 3)
    assert all(type(v) is int for v in (p.q, p.n, p.k1, p.k2))


INTEGER_ARGUMENT_CALLS = [
    (binom, (5, 2)),
    (qbinom, (5, 2, 2)),
    (count_zero_diag_rank, (2, 3, 1, 3)),
    (count_zero_diag_rank_zerocols, (2, 4, 1, 1, 2)),
    (zeros_of_form, (1, 2, 2, 2)),
    (expected_star_dim_mds, (2, 3, 2, 2)),
    (count_subspaces_with_support, (2, 3, 2, 3)),
    (full_dim_probability_bound_exponent, (3, 2)),
    (full_dim_probability_bound, (2, 5, 2, 2)),
    (kernel_conjecture_value, (3, 2, 3)),
    (prime_power, (9,)),
    (field_make, (2, 2)),
    (field_from_order, (4,)),
]


@pytest.mark.parametrize("fn,args", INTEGER_ARGUMENT_CALLS, ids=[fn.__name__ for fn, _ in INTEGER_ARGUMENT_CALLS])
def test_integer_arguments_refuse_floats_bools_and_strings(fn, args):
    # the Params rule on every integer argument at the fields/exact boundary:
    # a whole float, a bool and a string are refused, a numpy integer is the int it holds
    want = fn(*args)
    for i, value in enumerate(args):
        for bad in (float(value), True, str(value)):
            with pytest.raises(BadRange, match="must be an integer"):
                fn(*args[:i], bad, *args[i + 1 :])
        got = fn(*args[:i], np.int64(value), *args[i + 1 :])
        assert got == want and type(got) is type(want)
    got = fn(*(np.uint8(v) for v in args))
    assert got == want and type(got) is type(want)


def test_float_view_of_exact_values_is_inf_past_the_float_range():
    assert _float(Fraction(1, 3)) == 1 / 3
    assert _float(Fraction(7) ** 400) == math.inf and _float(-Fraction(7) ** 400) == -math.inf
    assert _float(Fraction(7) ** -400) == 0.0


def test_json_view_of_a_float_is_null_unless_finite():
    # RFC 8259 JSON has no Infinity or NaN: those print as null, finite floats as themselves
    for x in (0.0, -2.5, 1e308, 5e-324):
        assert _json_float(x) == x and type(_json_float(x)) is float
    for x in (math.inf, -math.inf, math.nan):
        assert _json_float(x) is None


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(-1, 2) == 0
    assert binom(2, -1) == 0
    assert binom(2, 3) == 0
    assert binom(0, 0) == 1


def test_qbinom_examples():
    assert qbinom(4, 0, 3) == 1
    assert qbinom(3, 1, 2) == 7
    assert qbinom(4, 2, 2) == 35
    assert qbinom(2, 3, 5) == 0
    assert qbinom(-1, 1, 2) == 0
    assert qbinom(3, -1, 2) == 0
    # the published reduced denominators of the GF(7) worked example
    assert qbinom(6, 2, 7) == 3 * 2288417
    assert qbinom(6, 3, 7) == 4 * 12044300


@pytest.mark.parametrize("q", [1, 0, 6])
def test_qbinom_rejects_non_prime_power_order(q):
    # once a ZeroDivisionError at q = 1, and 1 at q = 0 and 43 at q = 6
    with pytest.raises(BadRange):
        qbinom(3, 1, q)


def test_large_prime_orders_are_checked_without_factoring():
    # a 14-digit prime order and its square, certified without factoring
    q = 99999999999973
    assert Params(q, 5, 2, 2).q == q
    assert qbinom(5, 2, q) == (q**5 - 1) * (q**4 - 1) // ((q**2 - 1) * (q - 1))
    assert Params(q**2, 3, 1, 1).q == q**2
    for call in (lambda: Params(6**20, 5, 2, 2), lambda: qbinom(5, 2, 6**20)):
        with pytest.raises(BadRange):
            call()


def test_qbinom_symmetry():
    for q in (2, 3, 4, 5):
        for n in range(8):
            for k in range(n + 1):
                assert qbinom(n, k, q) == qbinom(n, n - k, q)


def test_qbinom_counts_subspaces():
    # recursion count check: sum over pivot sets of q**(free entries)
    from itertools import combinations

    for q, n, k in [(2, 4, 2), (3, 4, 2), (2, 5, 3)]:
        total = 0
        for piv in combinations(range(n), k):
            free = sum(1 for i in range(k) for c in range(piv[i] + 1, n) if c not in piv)
            total += q**free
        assert total == qbinom(n, k, q)


def test_count_zero_diag_rank_examples():
    assert count_zero_diag_rank(2, 3, 0, 5) == 1
    assert count_zero_diag_rank(2, 2, 1, 2) == 2
    assert count_zero_diag_rank(2, 2, 2, 2) == 1
    with pytest.raises(BadRange):
        count_zero_diag_rank(3, 2, 1, 2)
    with pytest.raises(BadRange):
        count_zero_diag_rank(2, 2, 3, 2)


@pytest.mark.parametrize("q", [0, 1, 6])
def test_count_primitives_reject_non_prime_power_q(q):
    for call in (
        lambda: count_zero_diag_rank(2, 3, 1, q),
        lambda: count_zero_diag_rank_zerocols(2, 3, 1, 0, q),
        lambda: zeros_of_form(1, 2, 3, q),
        lambda: count_subspaces_with_support(q, 3, 1, 2),
    ):
        with pytest.raises(BadRange):
            call()


def test_count_zero_diag_rank_checksum():
    # summing over ranks frees the off-diagonal entries completely
    for q in (2, 3, 4, 5):
        for k1 in range(1, 6):
            for k2 in range(k1, 6):
                total = sum(count_zero_diag_rank(k1, k2, r, q) for r in range(k1 + 1))
                assert total == q ** (k1 * k2 - k1)


def test_count_zero_diag_zerocols_examples():
    for q in (2, 3):
        for k1 in range(1, 4):
            for r in range(k1 + 1):
                assert count_zero_diag_rank_zerocols(k1, k1, r, 0, q) == count_zero_diag_rank(
                    k1, k1, r, q
                )
    assert count_zero_diag_rank_zerocols(1, 2, 1, 1, 2) == 0
    assert count_zero_diag_rank_zerocols(1, 2, 1, 0, 2) == 1
    with pytest.raises(BadRange):
        count_zero_diag_rank_zerocols(2, 3, 1, 2, 2)


def test_count_zero_diag_zerocols_consistency():
    # regrouping by the number of prescribed zero columns recovers the total
    for q in (2, 3):
        for k1 in range(1, 4):
            for k2 in range(k1, 5):
                for r in range(k1 + 1):
                    total = sum(
                        binom(k2 - k1, ell) * count_zero_diag_rank_zerocols(k1, k2, r, ell, q)
                        for ell in range(k2 - k1 + 1)
                    )
                    assert total == count_zero_diag_rank(k1, k2, r, q)


def test_count_primitives_reject_out_of_range_dimensions():
    with pytest.raises(BadRange, match="r <= k1"):
        count_zero_diag_rank_zerocols(2, 3, 3, 0, 2)  # r > k1
    for k1, k2 in ((0, 2), (2, 0), (-1, 1)):
        with pytest.raises(BadRange, match="must be >= 1"):
            zeros_of_form(0, k1, k2, 2)
        with pytest.raises(BadRange, match="must be >= 1"):
            kernel_conjecture_value(2, k1, k2)


def test_zeros_of_form_examples():
    assert zeros_of_form(0, 2, 3, 5) == 5**5
    assert zeros_of_form(1, 1, 1, 2) == 3
    assert zeros_of_form(2, 2, 2, 3) == 33
    with pytest.raises(BadRange):
        zeros_of_form(3, 2, 2, 3)


def test_zeros_of_form_decreasing_in_rank():
    for q in (2, 3, 7):
        for k1, k2 in [(3, 3), (2, 5)]:
            vals = [zeros_of_form(r, k1, k2, q) for r in range(min(k1, k2) + 1)]
            assert all(a > b for a, b in zip(vals, vals[1:]))


def test_zeros_of_form_exhaustive_oracle():
    # count zeros of an explicit rank-r form by brute force
    for q, k1, k2, r in [(2, 2, 2, 1), (2, 2, 3, 2), (3, 2, 2, 2), (3, 1, 2, 1)]:
        f = field_make(q)
        a = np.zeros((k1, k2), dtype=np.int64)
        for i in range(r):
            a[i, i] = 1
        count = 0
        for v1 in range(q**k1):
            d1 = [(v1 // q**i) % q for i in range(k1)]
            for v2 in range(q**k2):
                d2 = [(v2 // q**i) % q for i in range(k2)]
                val = 0
                for i in range(k1):
                    for j in range(k2):
                        val = int(f.add(val, f.mul(int(f.mul(d1[i], a[i, j])), d2[j])))
                count += val == 0
        assert count == zeros_of_form(r, k1, k2, q)


def test_expected_kernel_size_basics():
    assert expected_kernel_size(Params(2, 2, 1, 1)) == 1
    for q in (2, 3):
        for n in range(1, 5):
            for k1 in range(1, n + 1):
                for k2 in range(k1, n + 1):
                    assert expected_kernel_size(Params(q, n, k1, k2)) >= 1


def _gamma(j, q):
    return Fraction(q**j + q - 1, q**j)


def _kernel_triple_sum(p):
    # the paper's triple sum over r, i and j <= min(r, k1 - i), term by term
    q, n, k1, k2 = p.q, p.n, p.k1, p.k2
    total = Fraction(0)
    for r in range(k1 + 1):
        for i in range(k1 + 1):
            for j in range(min(r, k1 - i) + 1):
                total += (
                    (-1) ** (r - j)
                    * _gamma(r, q) ** (n - k2)
                    * _gamma(j, q) ** (k2 - k1)
                    * binom(k1, i)
                    * (q - 1) ** i
                    * qbinom(k1 - i, j, q)
                    * qbinom(k1 - j, k1 - r, q)
                    * Fraction(q) ** (j * k2 - n + binom(r - j, 2))
                )
    return total


def test_expected_kernel_size_equals_triple_sum():
    for q in SMALL_QS:
        for n in range(1, 13):
            for k1 in range(1, min(n, 4) + 1):
                for k2 in range(k1, min(n, 6) + 1):
                    p = Params(q, n, k1, k2)
                    assert expected_kernel_size(p) == _kernel_triple_sum(p), (q, n, k1, k2)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(q=st.sampled_from(SMALL_QS), n=st.integers(1, 13), data=st.data())
def test_expected_kernel_size_by_zero_column_patterns(q, n, data):
    # first principles: B lies in the kernel of a systematic pair iff its
    # diagonal vanishes (the k1 identity coordinates), a.T B e_c = 0 at the
    # k2 - k1 coordinates where only G1's column a is random (probability
    # 1/q unless column c of B is zero), and a.T B b = 0 at the n - k2
    # coordinates where both columns are random (gamma_r / q at rank r)
    k1 = data.draw(st.integers(1, n))
    k2 = data.draw(st.integers(k1, n))
    w = k2 - k1
    want = sum(
        binom(w, ell)
        * count_zero_diag_rank_zerocols(k1, k2, r, ell, q)
        * Fraction(q) ** (ell - w)
        * (_gamma(r, q) / q) ** (n - k2)
        for r in range(k1 + 1)
        for ell in range(w + 1)
    )
    assert expected_kernel_size(Params(q, n, k1, k2)) == want


def test_star_dim_lower_bound_published_values():
    cases = {(2, 7, 2, 3): 4.3629, (3, 11, 3, 3): 8.5237, (7, 15, 3, 4): 11.998}
    for (q, n, k1, k2), want in cases.items():
        res = star_dim_lower_bound(Params(q, n, k1, k2))
        tol = 1.01e-4 if want < 10 else 1.01e-3
        assert abs(res.bound - want) <= tol
        assert res.bound <= k1 * k2
        assert res.kernel_expectation >= 1


def test_star_dim_lower_bound_matches_mpmath_reference():
    # the bound's logarithm at 40 digits, against mpmath at the same
    # precision, over prime orders and odd- and even-p extension orders
    import mpmath

    for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 49, 81, 125, 243, 256):
        for n in range(1, 16):
            for k1 in range(1, 5):
                for k2 in range(k1, min(n, 4) + 1):
                    res = star_dim_lower_bound(Params(q, n, k1, k2))
                    e = res.kernel_expectation
                    with mpmath.workdps(40):
                        logq_e = (mpmath.log(e.numerator) - mpmath.log(e.denominator)) / mpmath.log(q)
                        assert res.bound == float(k1 * k2 - logq_e), (q, n, k1, k2)


def test_expected_star_dim_mds_examples():
    assert expected_star_dim_mds(2, 2, 2, 1) == Fraction(4, 3)
    assert expected_star_dim_mds(2, 2, 2, 2) == 2
    assert expected_star_dim_mds(2, 3, 2, 2) == Fraction(18, 7)
    with pytest.raises(UncoveredCase):
        expected_star_dim_mds(7, 6, 3, 2)
    with pytest.raises(BadRange):
        expected_star_dim_mds(2, 3, 4, 1)


def _mds_line_formula(q, n, k1):
    return Fraction(sum(binom(n, i) * (q - 1) ** i * min(k1, i) for i in range(1, n + 1)), q**n - 1)


def _mds_high_dim_formula(q, n, k2):
    total = 0
    for s in range(k2, n + 1):
        inner = sum((-1) ** i * qbinom(s - i, k2, q) * binom(s, s - i) for i in range(s - k2 + 1))
        total += s * binom(n, s) * inner
    return Fraction(total, qbinom(n, k2, q))


def test_expected_star_dim_mds_matches_regime_formulas():
    checked = 0
    for q in SMALL_QS:
        for n in range(1, 10):
            for k1 in range(1, n + 1):
                assert expected_star_dim_mds(q, n, k1, 1) == _mds_line_formula(q, n, k1)
                for k2 in range(max(2, n - k1 + 1), n + 1):
                    assert expected_star_dim_mds(q, n, k1, k2) == _mds_high_dim_formula(q, n, k2)
                    checked += 1
    assert checked > 1000


def test_count_subspaces_with_support_examples():
    assert count_subspaces_with_support(2, 2, 1, 2) == 1
    assert count_subspaces_with_support(2, 3, 2, 3) == 4
    assert count_subspaces_with_support(2, 4, 3, 2) == 0  # ell > s
    assert count_subspaces_with_support(3, 4, 0, 0) == 1
    with pytest.raises(BadRange):
        count_subspaces_with_support(2, 3, 4, 2)


def test_count_subspaces_sum_over_supports():
    # summing the per-support counts over all coordinate subsets gives
    # the Gaussian binomial
    for q, n, ell in [(2, 4, 2), (3, 4, 2), (2, 5, 1)]:
        total = sum(binom(n, s) * count_subspaces_with_support(q, n, ell, s) for s in range(n + 1))
        assert total == qbinom(n, ell, q)


def test_expected_intersection_dim_examples():
    assert expected_intersection_dim(Params(2, 2, 1, 1)) == Fraction(1, 3)
    assert expected_intersection_dim(Params(2, 3, 1, 2)) == Fraction(3, 7)
    for q, n, k in [(2, 3, 3), (3, 2, 2)]:
        assert expected_intersection_dim(Params(q, n, n, n)) == n
    # equals k1 whenever the second code is the whole space
    assert expected_intersection_dim(Params(2, 4, 2, 4)) == 2


def test_kernel_limit_value():
    assert kernel_limit_value(Params(5, 6, 2, 3)) == 2
    assert kernel_limit_value(Params(2, 7, 2, 3)) == Fraction(3, 2)
    assert kernel_limit_value(Params(3, 5, 2, 3)) == 1 + Fraction(3)


def test_full_dim_probability_bound():
    assert full_dim_probability_bound_exponent(3, 0) == 0.0
    assert full_dim_probability_bound_exponent(2, 4) == 0.68359375
    assert abs(full_dim_probability_bound_exponent(7, 2) - (1 - (13 / 49) ** 2)) < 1e-15
    assert full_dim_probability_bound(2, 8, 2, 3) == full_dim_probability_bound_exponent(2, 2)
    with pytest.raises(BadRange):
        full_dim_probability_bound(2, 5, 2, 3)
    with pytest.raises(BadRange):
        full_dim_probability_bound_exponent(2, -1)


def test_kernel_conjecture_value():
    assert kernel_conjecture_value(5, 1, 4) == 2.0
    assert abs(kernel_conjecture_value(2, 2, 2) - (math.exp(0.5) + 1)) < 1e-12
    # exploratory comparison only: finite, positive gap to the exact value
    exact = expected_kernel_size(Params(2, 9, 3, 3))
    gap = abs(kernel_conjecture_value(2, 3, 3) - float(exact))
    assert math.isfinite(gap)


def test_kernel_gap_decreases_in_q():
    gaps = []
    for q in PRIMES:
        p = Params(q, 7, 2, 3)
        gaps.append(abs(expected_kernel_size(p) - kernel_limit_value(p)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_intersection_vanishes_on_diagonal_growth():
    vals = [expected_intersection_dim(Params(2, k * k, k, k)) for k in (2, 3, 4, 5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < Fraction(1, 100)
