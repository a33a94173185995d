import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from starprod import field_from_order, field_make, parse_matrix
from starprod._moduli import MODULI
from starprod.errors import BadRange, DivisionByZero, NoModulusTableEntry, NotPrime, TooLarge
from starprod.fields import _MR_LIMIT, FieldSpec, _is_prime, _mod, prime_power

# prime powers up to 64, all of which ship with tables
SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]
EXHAUSTIVE_Q = [2, 3, 4, 5, 7, 8, 9]
# every shipped modulus, and primes around the uint8/int8 limits and below 2**16
DTYPE_Q = sorted(p**m for p, m in MODULI) + [2, 3, 5, 7, 31, 127, 131, 251, 257, 65521]
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


def test_missing_modulus_entry(monkeypatch):
    import starprod.fields as fields_mod

    monkeypatch.setattr(fields_mod, "MODULI", {})
    with pytest.raises(NoModulusTableEntry):
        FieldSpec(2, 2)


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


@pytest.mark.parametrize("p,m", sorted(MODULI))
def test_shipped_modulus_is_primitive(p, m):
    # a monic degree-m modulus whose root x has multiplicative order q - 1
    f = field_make(p, m)
    assert len(f.modulus) == m + 1 and f.modulus[-1] == 1
    assert sorted(f._exp.tolist()) == list(range(1, f.q))
    assert (f._log[f._exp] == np.arange(f.q - 1)).all()


def test_shipped_moduli_have_least_encoding(monkeypatch):
    # each shipped modulus is the monic polynomial of least encoding
    # sum c_i p**i (constant term first) that makes x primitive, the rule
    # tools/gen_modulus_table.py generates the table by: FieldSpec refuses
    # every monic candidate of smaller encoding
    import starprod.fields as fields_mod

    for (p, m), modulus in sorted(MODULI.items()):
        if p**m > 4096:
            continue
        for low in range(sum(c * p**i for i, c in enumerate(modulus[:m]))):
            monkeypatch.setattr(fields_mod, "MODULI", {(p, m): tuple(low // p**i % p for i in range(m)) + (1,)})
            with pytest.raises(NoModulusTableEntry):
                FieldSpec(p, m)


def _times_x(field, v):
    """x * v in GF(p^m) by schoolbook polynomial arithmetic on base-p digits."""
    p, m = field.p, field.m
    digits = [v // p**j % p for j in range(m)]
    top, shifted = digits[-1], [0] + digits[:-1]
    return sum((d - top * r) % p * p**j for j, (d, r) in enumerate(zip(shifted, field.modulus[:m])))


@pytest.mark.parametrize("p,m", sorted(MODULI))
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
    # sha256 of every shipped field's exp and log tables, little-endian
    # int64, as the element-by-element builder made them
    h = hashlib.sha256()
    for p, m in sorted(MODULI):
        f = field_make(p, m)
        h.update(f._exp.astype("<i8").tobytes())
        h.update(f._log.astype("<i8").tobytes())
    assert h.hexdigest() == "cbc7711d5d3476832eb7ecf1fae1790ec88765f6d9429e9508ed1afaf0a6f52e"


def test_zero_divisor_modulus_raises(monkeypatch):
    # x^2 + x = x(x + 1): x is a zero divisor, so its powers 1, x, x, ...
    # repeat without returning to 1
    import starprod.fields as fields_mod

    monkeypatch.setattr(fields_mod, "MODULI", {(2, 2): (0, 1, 1)})
    with pytest.raises(NoModulusTableEntry, match="zero divisor"):
        FieldSpec(2, 2)


def test_non_primitive_modulus_raises(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 is irreducible over GF(2), but x has order 5
    import starprod.fields as fields_mod

    monkeypatch.setattr(fields_mod, "MODULI", {(2, 4): (1, 1, 1, 1, 1)})
    with pytest.raises(NoModulusTableEntry, match="x has order 5"):
        FieldSpec(2, 4)


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


@pytest.mark.parametrize("p,m", sorted(key for key in MODULI if key[0] > 2))
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


@pytest.mark.parametrize("p,m", sorted(key for key in MODULI if key[0] ** key[1] <= 256))
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
