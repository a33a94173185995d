"""Arithmetic for GF(p**m), table driven and numpy friendly.

Elements are encoded as integers in [0, q): an element sum(a_i * x**i) in
the polynomial basis maps to sum(a_i * p**i).  Prime fields add, subtract
and multiply residues.  For extension fields the shipped modulus (see
_moduli.py) makes x a multiplicative generator.  Up to q = 256 (_TABLE_Q)
multiplication is one lookup in a flat q*q uint8 table indexed by
a*q + b; above 256 it goes through log/antilog tables.  Addition is XOR
when p = 2 and a sum of base-p digit rows otherwise.  neg and inv are
one table lookup on every field.

All FieldSpec tables are immutable after construction; the vectorised
methods accept numpy arrays of encoded elements in [0, q), of any integer
dtype and broadcastable shape, and never mutate them.  Prime-field add
and sub compute in int64; a mul input too narrow for its products (uint8
over GF(31)) is widened to int64 first; int64 inputs are never copied.
An extension mul up to q = 256 returns np.result_type(a, b, np.uint8),
which holds [0, q): uint8 for uint8 inputs, int64 for int64 ones.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from ._moduli import MODULI
from .errors import BadRange, DivisionByZero, NoModulusTableEntry, NotPrime, TooLarge

Q_LIMIT = 2**16
_TABLE_Q = 256  # extension fields up to this order use q*q uint8 tables
_INT64 = np.dtype(np.int64)


def _integer(name: str, value) -> int:
    """value as an int; a bool or a non-integer is a BadRange (numpy
    integers pass)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadRange(f"{name} must be an integer, got {value!r}")
    return int(value)


def _fitted(lo: int, hi: int, *arrays) -> tuple:
    """The integer arrays, each cast to int64 unless its dtype holds every
    value in [lo, hi]; other dtypes pass unchanged.  Callers skip it for
    int64 inputs, which hold every bound a field of order at most Q_LIMIT
    needs."""
    out = []
    for a in arrays:
        if a.dtype.kind in "iu" and not np.iinfo(a.dtype).min <= lo <= hi <= np.iinfo(a.dtype).max:
            a = a.astype(np.int64)
        out.append(a)
    return tuple(out)


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x % q for an integer array x, as a new array, computed as
    x - (x // q) * q: the same residues, and about half the time on arrays
    that fit in cache, since numpy divides by a scalar through libdivide
    for // but not for %.  Exact in any signed dtype holding x and q: the
    product may wrap, but the wrap cancels modulo 2**bits (the residue fits).
    A power of two q takes x & (q - 1), the same residue in two's
    complement and in unsigned dtypes, at a fraction of the cost."""
    if q & (q - 1) == 0:
        return x & (q - 1)
    t = x // q
    t *= q
    return np.subtract(x, t, out=t)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # Miller-Rabin with _MR_BASES is exact below it


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test with the prime bases 2..41, exact
    for p < _MR_LIMIT; BadRange at or above it."""
    if p >= _MR_LIMIT:
        raise BadRange(f"primality of {p} is certified only below {_MR_LIMIT}")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class FieldSpec:
    """A finite field GF(p**m) with its lookup tables.

    neg(a) is _neg[a] and inv(a) is _inv[a] after a zero check.  Extension
    fields of order q <= _TABLE_Q multiply through _mul, the flat q*q
    uint8 table of products indexed by a*q + b; larger ones through
    _exp/_log, which exist for every extension field and build _mul and
    _inv.  Odd-p extension fields add through _digits, the base-p digits
    of every element.  Table lookups need a in [0, q).

    _dtype is the narrowest dtype for arrays of elements that mul takes
    without widening: np.min_scalar_type((q-1)**2) on prime fields, where
    a product of two entries cannot wrap (uint8 up to q = 16), uint8 on
    the table-driven extension fields and int64 above.

    Do not call directly; use :func:`field_make` so instances are cached
    per (p, m).  Two specs with equal order are interchangeable.
    """

    __slots__ = ("p", "m", "q", "modulus", "_dtype", "_neg", "_inv", "_exp", "_log", "_digits", "_place", "_mul")

    def __init__(self, p: int, m: int):
        if m < 1:
            raise BadRange(f"extension degree must be >= 1, got {m}")
        # the bound first, so an order above it raises TooLarge, never _is_prime's BadRange;
        # 2**b > Q_LIMIT for b = Q_LIMIT.bit_length(), so no power of p >= 2 past b is needed
        if p > 1 and p ** min(m, Q_LIMIT.bit_length()) > Q_LIMIT:
            raise TooLarge(f"field order {p}**{m} exceeds limit {Q_LIMIT}")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p**m
        self.p = p
        self.m = m
        self.q = q
        self.modulus = self._exp = self._log = self._digits = self._mul = None
        place = p ** np.arange(m, dtype=np.int64)
        digits = np.arange(q, dtype=np.int64)[:, None] // place % p
        self._dtype = np.dtype(np.int64)
        if m == 1:
            self._dtype = np.min_scalar_type((q - 1) ** 2)
            # inv[a] for a >= 1 via the standard recurrence; inv[0] = 0, as on every field
            inv = np.zeros(q, dtype=np.int64)
            inv[1] = 1
            for a in range(2, q):
                inv[a] = (-(q // a) * inv[q % a]) % q
        else:
            key = (p, m)
            if key not in MODULI:
                raise NoModulusTableEntry(f"no shipped modulus for GF({p}^{m})")
            self.modulus = MODULI[key]
            self._build_log_tables(digits, place)
            log = self._log
            inv = np.concatenate(([0], self._exp[-log[1:] % (q - 1)]))
            if q <= _TABLE_Q:
                self._dtype = np.dtype(np.uint8)
                mul = self._exp[(log[:, None] + log) % (q - 1)]
                mul[0] = mul[:, 0] = 0  # log[0] is a placeholder: 0 has no log
                self._mul = mul.astype(np.uint8).ravel()
            if p > 2:
                # a sum of two digits is at most 2(p - 1), so add never widens
                self._digits = digits.astype(np.min_scalar_type(2 * (p - 1)))
        self._place = place
        self._neg = -digits % p @ place
        self._inv = inv
        for table in (self._neg, self._inv, self._exp, self._log, self._digits, self._place, self._mul):
            if table is not None:
                table.flags.writeable = False

    def _build_log_tables(self, digits: np.ndarray, place: np.ndarray) -> None:
        p, m, q = self.p, self.m, self.q
        # x times every element: shift its base-p digits up one place and
        # reduce the overflow digit with x**m = -red, red = modulus[:m]
        shifted = np.pad(digits[:, :-1], ((0, 0), (1, 0)))
        times_x = ((shifted - digits[:, -1:] * np.array(self.modulus[:m])) % p @ place).tolist()
        powers_of_x = [1]
        for i in range(1, q - 1):
            val = times_x[powers_of_x[-1]]
            if val == 1:
                raise NoModulusTableEntry(f"modulus for GF({p}^{m}) is not primitive (x has order {i})")
            powers_of_x.append(val)
        exp = np.array(powers_of_x, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        # x never reaches 1 only if it is a zero divisor: then some power
        # is 0 or repeats, and some nonzero element is no power of x
        if (exp[log[1:]] != np.arange(1, q)).any():
            raise NoModulusTableEntry(f"modulus for GF({p}^{m}) is reducible (x is a zero divisor)")
        self._exp = exp
        self._log = log

    # -- vectorised arithmetic on integer-encoded elements ----------------

    def add(self, a, b):
        if self.m == 1:
            return np.add(a, b, dtype=np.int64) % self.q
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return (self._digits[a] + self._digits[b]) % self.p @ self._place

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        if self.m == 1:
            return np.subtract(a, b, dtype=np.int64) % self.q
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self.add(a, self._neg[b])

    def mul(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        if self.m == 1:
            if a.dtype != _INT64 or b.dtype != _INT64:
                a, b = _fitted(0, max((self.q - 1) ** 2, self.q), a, b)
            out = a * b
            out -= out // self.q * self.q
            return out
        if self._mul is not None:
            # _mul[a*q + b], the index in the narrowest dtype that holds
            # q*q - 1 (the unsafe casts are exact for a and b in [0, q))
            idx = np.multiply(a, self.q, dtype=np.min_scalar_type(self.q**2 - 1), casting="unsafe")
            idx = np.add(idx, b, dtype=idx.dtype, casting="unsafe")
            return np.take(self._mul, idx).astype(np.result_type(a, b, np.uint8), copy=False)
        prod = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def inv(self, a):
        a = np.asarray(a)
        if (a == 0).any():
            raise DivisionByZero("zero has no multiplicative inverse")
        return self._inv[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.q == other.q

    def __hash__(self):
        return hash(("FieldSpec", self.q))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


def field_make(p: int, m: int = 1) -> FieldSpec:
    """Construct (and cache) GF(p**m).  p must be prime and p**m <= 2**16;
    p or m not an integer (_integer) is a BadRange."""
    return _field(_integer("p", p), _integer("m", m))


_field = functools.lru_cache(maxsize=None)(FieldSpec)


def prime_power(q: int, error=NotPrime) -> tuple:
    """Return (p, m) with q = p**m and p prime, without building tables.

    Raises BadRange when q is not an integer (_integer), q < 2 or p >=
    _MR_LIMIT, where primality is not certified, and error when q is not a
    prime power.
    """
    q = _integer("q", q)
    if q < 2:
        raise BadRange(f"field order must be >= 2, got {q}")
    # p**m = q with the largest such m; p is then prime or q no prime power
    for m in range(q.bit_length() - 1, 0, -1):
        p = _root(q, m)
        if p**m == q:
            break
    if not _is_prime(p):
        raise error(f"{q} is not a prime power")
    return p, m


def _root(q: int, m: int) -> int:
    """floor(q ** (1/m)) for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // m)
    while True:
        s = ((m - 1) * r + q // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


@functools.lru_cache(maxsize=None)
def field_from_order(q: int) -> FieldSpec:
    """Construct GF(q) from the order q = p**m."""
    if _integer("q", q) > Q_LIMIT:  # before factoring, so that any order above it raises TooLarge
        raise TooLarge(f"field order {q} exceeds limit {Q_LIMIT}")
    return field_make(*prime_power(q))

