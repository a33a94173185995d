"""Exact evaluation of the closed-form counts, expectations and bounds.

Everything here is integer or rational arithmetic (fractions.Fraction),
with floating point appearing only in the final logarithm or exponential
of a result.  That matters: the kernel-expectation formula is an
alternating sum of q-power terms whose cancellation would destroy any
fixed-precision evaluation.

Conventions, applied uniformly through binom() and qbinom(): binomial and
q-binomial coefficients are zero whenever any argument is negative or the
lower index exceeds the upper one, and the empty product is 1.  Every
integer argument of a public function must be an integer (_integer):
a bool, a float or a string is a BadRange, and a numpy integer counts
as the int it holds.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import BadRange, UncoveredCase
from .fields import _integer, prime_power


def _integers(**values) -> tuple:
    """The values as ints, in order (_integer)."""
    return tuple(_integer(name, value) for name, value in values.items())


def _float(x: Fraction) -> float:
    """float(x), or +-inf where x lies past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _json_float(x: float):
    """x as a JSON number, or None (null) where x is not finite: RFC 8259
    JSON has no Infinity or NaN."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class Params:
    """A (q, n, k1, k2) parameter point of ints, normalised so that k1 <= k2.

    The star product and every formula taking a Params are symmetric in
    the two dimensions; asymmetric operations take explicit arguments.
    A field that is not an integer (_integer) is a BadRange.
    """

    q: int
    n: int
    k1: int
    k2: int

    def __post_init__(self):
        names = ("q", "n", "k1", "k2")
        q, n, k1, k2 = (_integer(name, getattr(self, name)) for name in names)
        prime_power(q, BadRange)
        for name, value in zip(names, (q, n, min(k1, k2), max(k1, k2))):
            object.__setattr__(self, name, value)
        if not 1 <= self.k1 <= self.k2 <= self.n:
            raise BadRange(f"need 1 <= k1 <= k2 <= n, got k1={self.k1} k2={self.k2} n={self.n}")


class RandomModel(Enum):
    """How a random [n, k] code is drawn, by Monte Carlo and by the oracles.

    SYSTEMATIC: generator [I_k | A] with A uniform over F_q^(k x (n-k)).
    UNIFORM_SUBSPACE: a uniform k-dimensional subspace of F_q^n.
    """

    SYSTEMATIC = "systematic"
    UNIFORM_SUBSPACE = "uniform"


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the zero convention for bad arguments."""
    n, k = _integers(n=n, k=k)
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def qbinom(n: int, k: int, q: int) -> int:
    """Gaussian binomial: the number of k-dim subspaces of F_q^n.

    Zero when k > n or any argument is negative; 1 on empty products.
    Raises BadRange when q is not a prime power.
    """
    n, k, q = _integers(n=n, k=k, q=q)
    prime_power(q, BadRange)
    return _qbinom(n, k, q)


def _qbinom(n: int, k: int, q: int) -> int:
    """qbinom without the check on q, for the sums that have made it."""
    if n < 0 or k < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (q ** (n - k + i) - 1) // (q**i - 1)
    return out


def _zero_diag_terms(k1: int, k2: int, r: int, q: int) -> list[int]:
    """The inclusion-exclusion over the k1 diagonal constraints behind
    every zero-diagonal count: entry j is the sum over i of
    binom(k1, i) (q-1)**i (-1)**(r-j) q**(j*k2 + binom(r-j, 2))
    qbinom(k1-i, j) qbinom(k1-j, k1-r), for j = 0..r (the q-binomials
    vanish beyond)."""
    terms = []
    for j in range(r + 1):
        ci = sum(math.comb(k1, i) * (q - 1) ** i * _qbinom(k1 - i, j, q) for i in range(k1 - j + 1))
        qb = _qbinom(k1 - j, k1 - r, q)
        terms.append((-1) ** (r - j) * q ** (j * k2 + math.comb(r - j, 2)) * qb * ci)
    return terms


def count_zero_diag_rank(k1: int, k2: int, r: int, q: int) -> int:
    """Number of rank-r k1 x k2 matrices over F_q with zero diagonal.

    Inclusion-exclusion over the diagonal constraints; the alternating
    sum is always divisible by q**k1.
    """
    k1, k2, r, q = _integers(k1=k1, k2=k2, r=r, q=q)
    prime_power(q, BadRange)
    if not 0 <= r <= k1 <= k2:
        raise BadRange(f"need 0 <= r <= k1 <= k2, got r={r} k1={k1} k2={k2}")
    quot, rem = divmod(sum(_zero_diag_terms(k1, k2, r, q)), q**k1)
    if rem:
        raise AssertionError("zero-diagonal count not divisible by q**k1")
    return quot


def count_zero_diag_rank_zerocols(k1: int, k2: int, r: int, ell: int, q: int) -> int:
    """Zero-diagonal rank-r count with a prescribed zero-column pattern.

    Counts matrices of count_zero_diag_rank type that additionally vanish
    on a fixed set of ell of the last k2 - k1 columns and are nonzero on
    each of the remaining ones.  Moebius inversion over column subsets
    reduces this to plain zero-diagonal counts at shrunken widths.
    """
    k1, k2, r, ell, q = _integers(k1=k1, k2=k2, r=r, ell=ell, q=q)
    prime_power(q, BadRange)
    if not 0 <= r <= k1 <= k2:
        raise BadRange(f"need 0 <= r <= k1 <= k2, got r={r} k1={k1} k2={k2}")
    w = k2 - k1
    if not 0 <= ell <= w:
        raise BadRange(f"need 0 <= ell <= k2 - k1, got ell={ell}")
    total = 0
    for m in range(ell, w + 1):
        total += (-1) ** (m - ell) * math.comb(w - ell, m - ell) * count_zero_diag_rank(
            k1, k2 - m, r, q
        )
    return total


def zeros_of_form(r: int, k1: int, k2: int, q: int) -> int:
    """Number of zeros of any rank-r bilinear form on F_q^k1 x F_q^k2."""
    r, k1, k2, q = _integers(r=r, k1=k1, k2=k2, q=q)
    prime_power(q, BadRange)
    if k1 < 1 or k2 < 1:
        raise BadRange("form dimensions must be >= 1")
    if not 0 <= r <= min(k1, k2):
        raise BadRange(f"need 0 <= r <= min(k1, k2), got r={r}")
    return (q**r + q - 1) * q ** (k1 + k2 - r - 1)


def _gamma(j: int, q: int) -> Fraction:
    return Fraction(q**j + q - 1, q**j)


def expected_kernel_size(p: Params) -> Fraction:
    """Exact expected kernel size of the bilinear evaluation map.

    Every generator pair (G1, G2) induces the linear map sending a k1 x k2
    coefficient matrix B to the length-n vector of values G1_col.T B
    G2_col; its image is the star product, so the kernel size determines
    the star dimension.  The expectation is over the systematic random
    model (identity block fixed, remaining columns uniform) and always
    satisfies E >= 1.  It is the triple sum
    q**-n sum_r gamma_r**(n-k2) sum_j gamma_j**(k2-k1) terms_r[j], with
    gamma_j = (q**j + q - 1) / q**j and terms_r the zero-diagonal
    inclusion-exclusion of count_zero_diag_rank at rank r.
    """
    q, n, k1, k2 = p.q, p.n, p.k1, p.k2
    total = Fraction(0)
    for r in range(k1 + 1):
        terms = _zero_diag_terms(k1, k2, r, q)
        inner = sum(_gamma(j, q) ** (k2 - k1) * t for j, t in enumerate(terms))
        total += _gamma(r, q) ** (n - k2) * inner
    return total / q**n


class StarDimBound(NamedTuple):
    bound: float
    kernel_expectation: Fraction


def star_dim_lower_bound(p: Params) -> StarDimBound:
    """Jensen lower bound k1*k2 - log_q E[kernel size] on the expected
    star dimension, with the exact rational expectation alongside.

    The logarithm is taken at 40 decimal digits of working precision so
    the float result is correct to well over 10 significant digits.
    """
    e = expected_kernel_size(p)
    with decimal.localcontext(decimal.Context(prec=40)):
        ln_num, ln_den, ln_q = (decimal.Decimal(v).ln() for v in (e.numerator, e.denominator, p.q))
        bound = float(p.k1 * p.k2 - (ln_num - ln_den) / ln_q)
    return StarDimBound(bound, e)


def expected_star_dim_mds(q: int, n: int, k1: int, k2: int) -> Fraction:
    """Expected star dimension of a fixed MDS [n, k1] code with a uniform
    random k2-dimensional code, in the two determined regimes.

    For k2 = 1 and for k2 >= n - k1 + 1 the star dimension is
    min(k1 + k2 - 1, s) for a random code of support size s, so the
    expectation is one sum over support sizes.
    In between the value depends on the particular MDS code, so
    UncoveredCase is raised.  Existence of an MDS [n, k1] code over F_q
    is assumed, not checked.
    """
    q, n, k1, k2 = _integers(q=q, n=n, k1=k1, k2=k2)
    prime_power(q, BadRange)
    if not (1 <= k1 <= n and 1 <= k2 <= n):
        raise BadRange(f"need 1 <= k1, k2 <= n, got k1={k1} k2={k2} n={n}")
    if k2 == 1 or k2 >= n - k1 + 1:
        total = sum(
            min(s, k1 + k2 - 1) * math.comb(n, s) * count_subspaces_with_support(q, n, k2, s)
            for s in range(n + 1)
        )
        return Fraction(total, _qbinom(n, k2, q))
    raise UncoveredCase(
        f"2 <= k2 <= n - k1 (k2={k2}, n-k1={n - k1}): expectation depends on the code"
    )


def count_subspaces_with_support(q: int, n: int, ell: int, s: int) -> int:
    """Number of ell-dim subspaces of F_q^n whose support is a fixed
    s-element coordinate set, by inclusion-exclusion over subsets."""
    q, n, ell, s = _integers(q=q, n=n, ell=ell, s=s)
    prime_power(q, BadRange)
    if not (0 <= ell <= n and 0 <= s <= n):
        raise BadRange(f"need 0 <= ell, s <= n, got ell={ell} s={s} n={n}")
    return sum((-1) ** (s - i) * math.comb(s, i) * _qbinom(i, ell, q) for i in range(ell, s + 1))


def expected_intersection_dim(p: Params) -> Fraction:
    """Exact expected intersection dimension of two independent uniformly
    random subspaces of dimensions k1 and k2, by counting pairs with a
    prescribed intersection."""
    q, n, k1, k2 = p.q, p.n, p.k1, p.k2
    num = 0
    for i in range(1, k1 + 1):
        num += (
            i
            * _qbinom(n, i, q)
            * _qbinom(n - i, k1 - i, q)
            * q ** ((k1 - i) * (k2 - i))
            * _qbinom(n - k1, k2 - i, q)
        )
    return Fraction(num, _qbinom(n, k1, q) * _qbinom(n, k2, q))


def kernel_limit_value(p: Params) -> Fraction:
    """The large-field limit expression 1 + q**(k1*k2 - n), evaluated
    exactly at the given q."""
    return 1 + Fraction(p.q) ** (p.k1 * p.k2 - p.n)


def full_dim_probability_bound_exponent(q: int, t: int) -> float:
    """The bound value 1 - ((2q - 1) / q**2)**t for an explicit exponent.

    A lower bound on the probability of a full-dimensional star product
    only asymptotically; at small parameters it is advisory and should be
    reported next to empirical frequencies, never asserted against them.
    """
    q, t = _integers(q=q, t=t)
    prime_power(q, BadRange)
    if t < 0:
        raise BadRange(f"exponent must be >= 0, got {t}")
    return float(1 - Fraction(2 * q - 1, q * q) ** t)


def full_dim_probability_bound(q: int, n: int, k1: int, k2: int) -> float:
    """Same bound with the exponent n - k1*k2 (requires n >= k1*k2)."""
    q, n, k1, k2 = _integers(q=q, n=n, k1=k1, k2=k2)
    if n < k1 * k2:
        raise BadRange(f"need n >= k1*k2 for this form, got n={n}, k1*k2={k1 * k2}")
    return full_dim_probability_bound_exponent(q, n - k1 * k2)


def kernel_conjecture_value(q: int, k1: int, k2: int) -> float:
    """Conjectured growing-dimension kernel-size limit
    exp((q - 1) * k2 * (k1 - 1) / q**k1) + 1, for exploratory comparison
    against expected_kernel_size."""
    q, k1, k2 = _integers(q=q, k1=k1, k2=k2)
    prime_power(q, BadRange)
    if k1 < 1 or k2 < 1:
        raise BadRange("dimensions must be >= 1")
    return math.exp((q - 1) * k2 * (k1 - 1) / q**k1) + 1.0
