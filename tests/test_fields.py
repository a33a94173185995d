import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from starprod import field_from_order, field_make, parse_matrix
from starprod.errors import BadRange, DivisionByZero, NotPrime, TooLarge
from starprod.fields import _MR_LIMIT, FieldSpec, _is_prime, _mod, _x_generates, _x_power, prime_power

# the modulus of every extension field GF(p^m), q = p^m <= 2**16, as the
# encoding sum c_i p**i of its coefficients below x**m, constant term first
GOLDEN_MODULI = {
    (2, 2): 3, (2, 3): 3, (2, 4): 3, (2, 5): 5, (2, 6): 3, (2, 7): 3, (2, 8): 29, (2, 9): 17, (2, 10): 9, (2, 11): 5,
    (2, 12): 83, (2, 13): 27, (2, 14): 43, (2, 15): 3, (2, 16): 45, (3, 2): 5, (3, 3): 7, (3, 4): 5, (3, 5): 7,
    (3, 6): 5, (3, 7): 16, (3, 8): 29, (3, 9): 64, (3, 10): 32, (5, 2): 7, (5, 3): 17, (5, 4): 37, (5, 5): 22,
    (5, 6): 7, (7, 2): 10, (7, 3): 23, (7, 4): 75, (7, 5): 11, (11, 2): 18, (11, 3): 15, (11, 4): 13, (13, 2): 15,
    (13, 3): 19, (13, 4): 184, (17, 2): 20, (17, 3): 20, (19, 2): 21, (19, 3): 23, (23, 2): 30, (23, 3): 26,
    (29, 2): 32, (29, 3): 40, (31, 2): 43, (31, 3): 45, (37, 2): 42, (37, 3): 50, (41, 2): 53, (43, 2): 46,
    (47, 2): 60, (53, 2): 58, (59, 2): 61, (61, 2): 63, (67, 2): 79, (71, 2): 82, (73, 2): 84, (79, 2): 82,
    (83, 2): 85, (89, 2): 95, (97, 2): 102, (101, 2): 104, (103, 2): 108, (107, 2): 112, (109, 2): 115, (113, 2): 123,
    (127, 2): 130, (131, 2): 145, (137, 2): 143, (139, 2): 141, (149, 2): 152, (151, 2): 163, (157, 2): 163,
    (163, 2): 174, (167, 2): 172, (173, 2): 178, (179, 2): 186, (181, 2): 199, (191, 2): 210, (193, 2): 198,
    (197, 2): 200, (199, 2): 205, (211, 2): 214, (223, 2): 228, (227, 2): 232, (229, 2): 235, (233, 2): 236,
    (239, 2): 252, (241, 2): 254, (251, 2): 270,
}  # fmt: skip

# the modulus x + c of every prime field GF(p), p < 256, and of GF(65521),
# as c: x = -c is the primitive root of least c
GOLDEN_PRIME_MODULI = {
    2: 1, 3: 1, 5: 2, 7: 2, 11: 3, 13: 2, 17: 3, 19: 4, 23: 2, 29: 2, 31: 7, 37: 2, 41: 6, 43: 9, 47: 2, 53: 2,
    59: 3, 61: 2, 67: 4, 71: 2, 73: 5, 79: 2, 83: 3, 89: 3, 97: 5, 101: 2, 103: 2, 107: 3, 109: 6, 113: 3, 127: 9,
    131: 3, 137: 3, 139: 4, 149: 2, 151: 5, 157: 5, 163: 4, 167: 2, 173: 2, 179: 3, 181: 2, 191: 2, 193: 5, 197: 2,
    199: 2, 211: 4, 223: 9, 227: 3, 229: 6, 233: 3, 239: 2, 241: 7, 251: 3, 65521: 17,
}  # fmt: skip

# prime powers up to 64, all of which ship with tables
SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]
EXHAUSTIVE_Q = [2, 3, 4, 5, 7, 8, 9]
# every extension field, and primes around the uint8/int8 limits and below 2**16
DTYPE_Q = sorted(p**m for p, m in GOLDEN_MODULI) + [2, 3, 5, 7, 31, 127, 131, 251, 257, 65521]
INT_DTYPES = [np.uint8, np.uint16, np.int8, np.int32, np.int64]


def test_prime_field_basics():
    f2 = field_make(2)
    assert f2.q == 2 and f2.p == 2 and f2.m == 1
    f7 = field_make(7)
    assert int(f7.mul(3, 5)) == 1  # 3 * 5 = 15 = 1 mod 7
    assert int(f7.inv(3)) == 5


def test_gf4_polynomial_arithmetic():
    # modulus x^2 + x + 1: x * x = x + 1 and x * (x + 1) = 1
    f4 = field_make(2, 2)
    assert f4.modulus == (1, 1, 1)
    assert int(f4.mul(2, 2)) == 3
    assert int(f4.mul(2, 3)) == 1


def test_construction_errors():
    with pytest.raises(NotPrime):
        field_make(4, 1)
    with pytest.raises(NotPrime):
        field_make(1, 1)
    with pytest.raises(TooLarge):
        field_make(2, 17)
    with pytest.raises(BadRange):
        field_make(2, 0)


def test_order_bound_checked_before_factoring(monkeypatch):
    # an order above the bound is refused with TooLarge before any factoring
    # helper runs, even where _is_prime would raise BadRange
    import starprod.fields as fields_mod

    def refuse(*args):
        raise AssertionError("no factoring expected above the order bound")

    monkeypatch.setattr(fields_mod, "prime_power", refuse)
    monkeypatch.setattr(fields_mod, "_is_prime", refuse)
    for q in (2**16 + 1, 99999999999973, 10**20 + 39):
        with pytest.raises(TooLarge):
            field_from_order(q)
        with pytest.raises(TooLarge):
            parse_matrix(f"{q} 1 1\n0\n")
    for p, m in ((99999999999973, 1), (2, 17), (3, 11), (10**20 + 39, 10**9)):
        with pytest.raises(TooLarge):
            FieldSpec(p, m)


def test_field_from_order():
    assert field_from_order(49).p == 7 and field_from_order(49).m == 2
    assert field_from_order(4) == field_make(2, 2)
    with pytest.raises(NotPrime):
        field_from_order(12)
    with pytest.raises(BadRange):
        field_from_order(1)


def _trial_prime_power(q):
    """(p, m) with q = p**m by trial division, or None."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


def test_prime_power_matches_trial_division():
    for q in range(2, 3000):
        want = _trial_prime_power(q)
        if want is None:
            with pytest.raises(NotPrime):
                prime_power(q)
        else:
            assert prime_power(q) == want, q
    sieve = np.ones(20000, dtype=bool)
    sieve[:2] = False
    for d in range(2, 142):
        sieve[d * d :: d] = False
    assert [_is_prime(n) for n in range(20000)] == sieve.tolist()


def test_prime_power_large_orders():
    p14, p20, p24 = 99999999999973, 10**20 + 39, 3317044064679887385961813  # primes
    assert prime_power(p14) == (p14, 1)
    assert prime_power(p14**2) == (p14, 2)
    assert prime_power(p20**3) == (p20, 3)
    assert prime_power(p24) == (p24, 1) and p24 < _MR_LIMIT
    assert prime_power(2**100) == (2, 100)
    # strong pseudoprimes to the prime bases up to 7, 23 and 37, and a semiprime
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, p14 * 1000000007):
        assert not _is_prime(n)
    with pytest.raises(NotPrime):
        prime_power(p14 * 1000000007)
    with pytest.raises(BadRange, match=str(_MR_LIMIT)):
        prime_power(2**89 - 1)  # a prime above the certified range
    with pytest.raises(BadRange, match="not a prime power"):
        prime_power(6**20, BadRange)


def test_division_by_zero():
    f5 = field_make(5)
    with pytest.raises(DivisionByZero):
        f5.inv(0)
    with pytest.raises(DivisionByZero):
        f5.inv(np.array([1, 0, 2]))


@pytest.mark.parametrize("q", EXHAUSTIVE_Q)
def test_field_axioms_exhaustive(q):
    f = field_from_order(q)
    a, b, c = np.meshgrid(np.arange(q), np.arange(q), np.arange(q), indexing="ij")
    assert (f.add(a, b) == f.add(b, a)).all()
    assert (f.mul(a, b) == f.mul(b, a)).all()
    assert (f.add(f.add(a, b), c) == f.add(a, f.add(b, c))).all()
    assert (f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))).all()
    assert (f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))).all()
    elems = np.arange(q)
    assert (f.add(elems, f.neg(elems)) == 0).all()
    nz = np.arange(1, q)
    assert (f.mul(nz, f.inv(nz)) == 1).all()
    assert (f.mul(elems, 1) == elems).all()
    assert (f.add(elems, 0) == elems).all()


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_randomized(q):
    f = field_from_order(q)
    rng = np.random.default_rng(q)
    a, b, c = rng.integers(0, q, size=(3, 500))
    assert (f.add(f.add(a, b), c) == f.add(a, f.add(b, c))).all()
    assert (f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))).all()
    assert (f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))).all()
    assert (f.sub(a, b) == f.add(a, f.neg(b))).all()
    nz = a[a != 0]
    assert (f.mul(nz, f.inv(nz)) == 1).all()
    # closure within the integer encoding
    for arr in (f.add(a, b), f.mul(a, b), f.neg(a)):
        assert arr.min() >= 0 and arr.max() < q


@pytest.mark.parametrize("q", [4, 8, 256])
def test_binary_extension_sub_is_add_neg(q):
    # sub over GF(2^m) is a plain XOR; it must agree with add(a, neg(b))
    # on every element pair and leave both operands untouched
    f = field_from_order(q)
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    a0, b0 = a.copy(), b.copy()
    assert (f.sub(a, b) == f.add(a, f.neg(b))).all()
    assert (a == a0).all() and (b == b0).all()


def test_large_prime_field_inverse_table():
    f = field_make(65521)  # largest prime below 2**16
    rng = np.random.default_rng(0)
    a = rng.integers(1, f.q, size=200)
    assert (f.mul(a, f.inv(a)) == 1).all()


@pytest.mark.parametrize("q", EXHAUSTIVE_Q)
def test_div_inverts_mul_exhaustive(q):
    f = field_from_order(q)
    a, b = np.meshgrid(np.arange(q), np.arange(1, q), indexing="ij")
    assert (f.mul(f.div(a, b), b) == a).all()
    with pytest.raises(DivisionByZero):
        f.div(a, np.zeros_like(a))
    with pytest.raises(DivisionByZero):
        f.div(1, np.array([1, 0]))


def test_specs_with_equal_order_interchangeable():
    assert field_make(3, 2) == field_from_order(9)
    assert hash(field_make(3, 2)) == hash(field_from_order(9))


def _monic(p, m, low):
    """The monic degree-m polynomial over GF(p) whose coefficients below
    x**m have the encoding low, constant term first."""
    return tuple(low // p**i % p for i in range(m)) + (1,)


def test_computed_moduli_equal_golden():
    # every extension field up to the order bound computes its golden modulus
    keys = {(p, m) for p in range(2, 257) if _is_prime(p) for m in range(2, 17) if p**m <= 2**16}
    assert keys == set(GOLDEN_MODULI)
    for (p, m), low in sorted(GOLDEN_MODULI.items()):
        assert field_make(p, m).modulus == _monic(p, m, low), (p, m)


def test_prime_moduli_equal_golden():
    # a prime field is GF(p)[x]/(x + c), built by the same rule as GF(p^m)
    assert set(GOLDEN_PRIME_MODULI) == {p for p in range(2, 256) if _is_prime(p)} | {65521}
    for p, c in sorted(GOLDEN_PRIME_MODULI.items()):
        f = field_make(p)
        assert f.modulus == (c, 1), p
        assert f._exp[1 % (p - 1)] == -c % p, p


@pytest.mark.parametrize("p", sorted(GOLDEN_PRIME_MODULI))
def test_prime_field_x_generates(p):
    # x = -c has multiplicative order p - 1 by walking its powers, no
    # smaller c gives a primitive root, and the log tables and inverses
    # follow from the powers of x as on every extension field
    c = GOLDEN_PRIME_MODULI[p]
    assert _order_of_x(p, (c, 1)) == p - 1
    assert all(_order_of_x(p, (smaller, 1)) != p - 1 for smaller in range(c))
    f = field_make(p)
    assert f._exp.tolist() == [pow(-c, i, p) for i in range(p - 1)]
    assert (f._log[f._exp] == np.arange(p - 1)).all()
    units = np.arange(1, p)
    assert (units * f._inv[1:] % p == 1).all() and f._inv[0] == 0


@pytest.mark.parametrize("q", sorted({q for q in DTYPE_Q if q <= 256 or prime_power(q)[1] == 1} | set(GOLDEN_PRIME_MODULI)))
def test_mul_dtype_rule(q):
    # on prime and table fields mul returns np.result_type(a, b, _dtype),
    # for every pair of input dtypes; p = 2 adds and subtracts by XOR,
    # in the inputs' dtype
    f = field_from_order(q)
    drawn = np.random.default_rng(q).integers(0, q, size=(2, 40))
    for da in INT_DTYPES:
        for db in INT_DTYPES:
            a = (drawn[0] % min(q, int(np.iinfo(da).max) + 1)).astype(da)
            b = (drawn[1] % min(q, int(np.iinfo(db).max) + 1)).astype(db)
            got = f.mul(a, b)
            assert got.dtype == np.result_type(a, b, f._dtype), (da, db)
            assert (got == f.mul(a.astype(np.int64), b.astype(np.int64))).all(), (da, db)
            if f.p == 2:
                assert f.add(a, b).dtype == f.sub(a, b).dtype == np.result_type(a, b), (da, db)


@pytest.mark.parametrize("p,m", sorted(GOLDEN_MODULI))
def test_shipped_modulus_is_primitive(p, m):
    # a monic degree-m modulus whose root x has multiplicative order q - 1
    f = field_make(p, m)
    assert len(f.modulus) == m + 1 and f.modulus[-1] == 1
    assert sorted(f._exp.tolist()) == list(range(1, f.q))
    assert (f._log[f._exp] == np.arange(f.q - 1)).all()


def _order_of_x(p, f):
    """The multiplicative order of x modulo the monic f over GF(p), by
    stepping through its powers with schoolbook arithmetic on coefficient
    lists, or None where no power below p**m is 1 (x is a zero divisor)."""
    one = [1] + [0] * (len(f) - 2)
    power = one
    for i in range(1, p ** (len(f) - 1)):
        top = power[-1]
        power = [(c - top * r) % p for c, r in zip([0] + power[:-1], f)]
        if power == one:
            return i
    return None


def test_shipped_moduli_have_least_encoding():
    # each golden modulus is the monic polynomial of least encoding
    # sum c_i p**i (constant term first) that makes x primitive, checked
    # apart from the search: x has order q - 1 modulo it, and x has
    # another order, or none, modulo every monic candidate of smaller
    # encoding
    for (p, m), low in sorted(GOLDEN_MODULI.items()):
        if p**m > 4096:
            continue
        assert _order_of_x(p, _monic(p, m, low)) == p**m - 1, (p, m)
        for smaller in range(low):
            assert _order_of_x(p, _monic(p, m, smaller)) != p**m - 1, (p, m, smaller)


def _times_x(field, v):
    """x * v in GF(p^m) by schoolbook polynomial arithmetic on base-p digits."""
    p, m = field.p, field.m
    digits = [v // p**j % p for j in range(m)]
    top, shifted = digits[-1], [0] + digits[:-1]
    return sum((d - top * r) % p * p**j for j, (d, r) in enumerate(zip(shifted, field.modulus[:m])))


@pytest.mark.parametrize("p,m", sorted(GOLDEN_MODULI))
def test_exp_table_steps_by_x(p, m):
    # exp[i] = x**i: exp[0] = 1 and exp[i + 1] = x * exp[i] at sampled i,
    # the last step wrapping round to 1
    f = field_make(p, m)
    exp = f._exp.tolist()
    idx = np.random.default_rng(p * 100 + m).integers(0, f.q - 1, size=64).tolist() + [0, f.q - 2]
    assert exp[0] == 1
    for i in idx:
        assert _times_x(f, exp[i]) == exp[(i + 1) % (f.q - 1)], i


def test_log_tables_unchanged():
    # sha256 of every extension field's exp and log tables, little-endian
    # int64, as the element-by-element builder made them
    h = hashlib.sha256()
    for p, m in sorted(GOLDEN_MODULI):
        f = field_make(p, m)
        h.update(f._exp.astype("<i8").tobytes())
        h.update(f._log.astype("<i8").tobytes())
    assert h.hexdigest() == "cbc7711d5d3476832eb7ecf1fae1790ec88765f6d9429e9508ed1afaf0a6f52e"


def test_zero_divisor_modulus_refused():
    # x^2 + x = x(x + 1): x is a zero divisor, so its powers 1, x, x, ...
    # repeat without returning to 1
    f = (0, 1, 1)
    assert [_x_power(e, f, 2) for e in range(4)] == [[1, 0], [0, 1], [0, 1], [0, 1]]
    assert _order_of_x(2, f) is None and not _x_generates(f, 2)


def test_non_primitive_modulus_refused():
    # x^4 + x^3 + x^2 + x + 1 is irreducible over GF(2), but x has order 5
    f = (1, 1, 1, 1, 1)
    assert _x_power(5, f, 2) == [1, 0, 0, 0] and _x_power(15, f, 2) == [1, 0, 0, 0]
    assert _order_of_x(2, f) == 5 and not _x_generates(f, 2)


@pytest.mark.parametrize("q", sorted(set(SMALL_Q + DTYPE_Q)))
def test_neg_and_inv_tables_cover_every_element(q):
    f = field_from_order(q)
    elems = np.arange(q)
    # rank_many reads _inv unchecked: a lane without a pivot scales by _inv[0]
    assert f._inv[0] == 0
    assert (f.add(elems, f.neg(elems)) == 0).all()
    assert (f.mul(elems[1:], f.inv(elems[1:])) == 1).all()


def _digits(field, v):
    return [v // field.p**j % field.p for j in range(field.m)]


def _from_digits(field, digits):
    return sum(d % field.p * field.p**j for j, d in enumerate(digits))


@pytest.mark.parametrize("p,m", sorted(key for key in GOLDEN_MODULI if key[0] > 2))
def test_odd_extension_add_neg_match_digitwise(p, m):
    # add and neg over GF(p^m), p odd, against base-p digit arithmetic
    f = field_make(p, m)
    a, b = np.random.default_rng(p * 100 + m).integers(0, f.q, size=(2, 64))
    got_add, got_neg, got_sub = f.add(a, b), f.neg(a), f.sub(a, b)
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        dx, dy = _digits(f, x), _digits(f, y)
        assert got_add[i] == _from_digits(f, [s + t for s, t in zip(dx, dy)])
        assert got_neg[i] == _from_digits(f, [-s for s in dx])
        assert got_sub[i] == _from_digits(f, [s - t for s, t in zip(dx, dy)])


@pytest.mark.parametrize("p,m", sorted(key for key in GOLDEN_MODULI if key[0] ** key[1] <= 256))
def test_qq_tables_match_log_and_digit_formulas(p, m):
    # every pair (a, b) of GF(p^m), q <= 256: mul through the q*q table
    # against exp[(log a + log b) % (q - 1)], add and sub against base-p
    # digit sums; for uint8, int8 and int64 inputs the table lookup
    # returns a dtype that holds [0, q)
    f = field_make(p, m)
    q = f.q
    assert f._mul is not None
    a, b = (x.ravel() for x in np.meshgrid(np.arange(q), np.arange(q), indexing="ij"))
    place = p ** np.arange(m)
    da, db = a[:, None] // place % p, b[:, None] // place % p
    want = {
        f.mul: np.where((a == 0) | (b == 0), 0, f._exp[(f._log[a] + f._log[b]) % (q - 1)]),
        f.add: (da + db) % p @ place,
        f.sub: (da - db) % p @ place,
    }
    for dtype in (np.uint8, np.int8, np.int64):
        fits = (a <= np.iinfo(dtype).max) & (b <= np.iinfo(dtype).max)
        x, y = a[fits].astype(dtype), b[fits].astype(dtype)
        for op, expected in want.items():
            got = op(x, y)
            if op == f.mul:
                assert np.iinfo(got.dtype).min <= 0 and np.iinfo(got.dtype).max >= q - 1, (op, dtype)
            assert (got == expected[fits]).all(), (op, dtype)


@pytest.mark.parametrize("q", DTYPE_Q)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(data=st.data())
def test_field_axioms_any_integer_dtype(q, data):
    # elements stored in any integer dtype that holds them give the int64 results
    f = field_from_order(q)
    drawn = data.draw(arrays(np.int64, (3, 12), elements=st.integers(0, q - 1)))
    for dtype in INT_DTYPES:
        a, b, c = (drawn % min(q, int(np.iinfo(dtype).max) + 1)).astype(dtype)
        a0, b0 = a.copy(), b.copy()
        wa, wb = a.astype(np.int64), b.astype(np.int64)
        for op in (f.add, f.sub, f.mul):
            got = op(a, b)
            assert (got == op(wa, wb)).all() and got.min() >= 0 and got.max() < q
        assert (f.neg(a) == f.neg(wa)).all()
        assert (a == a0).all() and (b == b0).all()
        assert (f.add(a, f.neg(a)) == 0).all()
        assert (f.sub(a, b) == f.add(a, f.neg(b))).all()
        assert (f.add(a, b) == f.add(b, a)).all() and (f.mul(a, b) == f.mul(b, a)).all()
        assert (f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))).all()
        assert (f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))).all()
        nz = a[a != 0]
        assert (f.mul(nz, f.inv(nz)) == 1).all()


def test_narrow_unsigned_inputs_reduce_correctly():
    u8 = np.uint8
    assert int(field_make(3).neg(u8(1))) == 2
    assert int(field_make(3).sub(u8(1), u8(2))) == 2
    assert int(field_make(31).mul(u8(30), u8(30))) == 1
    assert int(field_make(251).add(u8(200), u8(100))) == 49
    assert int(field_from_order(9).neg(np.array([1], dtype=u8))[0]) == 2


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from([np.int8, np.int16, np.int64, np.uint64]),
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 256]),
    data=st.data(),
)
def test_mod_matches_np_mod(dtype, q, data):
    # floor division for any q, a mask for a power of two: both give the
    # residue in [0, q) of negative entries too, in x's dtype, in a new array
    assume(q <= np.iinfo(dtype).max)
    x = data.draw(arrays(dtype, array_shapes(min_dims=1, max_dims=3, max_side=6)))
    got = _mod(x, q)
    assert got.dtype == x.dtype
    assert np.array_equal(got, np.mod(x, q))
    assert not np.shares_memory(got, x)
