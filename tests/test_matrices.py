import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from starprod import Mat, field_make, format_matrix, load_matrix, mat_mul, parse_matrix, rank, rank_many, right_kernel_basis, rref, save_matrix
from starprod.errors import FieldMismatch, TooLarge
from starprod.matrices import _plane_apply, _plane_constants, _plane_inverse, _plane_times, _takes_planes, identity, stack, zeros


def test_rref_identity_and_zero():
    f2 = field_make(2)
    eye = identity(f2, 3)
    red, piv = rref(eye)
    assert red == eye and piv == (0, 1, 2)
    z = zeros(f2, 2, 4)
    red, piv = rref(z)
    assert red == z and piv == ()


def test_rref_dependent_rows_gf3():
    f3 = field_make(3)
    m = Mat(f3, [[1, 2], [2, 1]])  # second row = 2 * first
    red, piv = rref(m)
    assert piv == (0,)
    assert red.data.tolist() == [[1, 2], [0, 0]]


def test_rref_idempotent_random():
    rng = np.random.default_rng(1)
    for q in (2, 3, 5, 4, 9):
        f = field_make(*_pm(q))
        for _ in range(20):
            m = Mat(f, rng.integers(0, q, size=(4, 6)))
            red, piv = rref(m)
            red2, piv2 = rref(red)
            assert red2 == red and piv2 == piv


def _gauss_jordan(f, rows, ncols):
    """Reference RREF: pivots (first nonzero scanning down), row scaling
    and elimination one scalar at a time on lists of ints."""
    mul, sub = (lambda x, y: int(f.mul(x, y))), (lambda x, y: int(f.sub(x, y)))
    a = [[int(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        scale = int(f.inv(a[r][c]))
        a[r] = [mul(scale, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                fac = a[i][c]
                a[i] = [sub(x, mul(fac, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, tuple(pivots)


@st.composite
def rref_inputs(draw):
    """(field, matrix) over prime fields and GF(4), GF(8), GF(9): rows or
    cols may be 0; dense, sparse, all-zero, or rank deficient through a
    repeated row or a row proportional to the first."""
    q = draw(st.sampled_from((2, 3, 5, 7, 251, 4, 8, 9)))
    f = field_make(*_pm(q))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("dense", "sparse", "zero", "repeated", "proportional")))
    entries = st.just(0) if kind == "zero" else st.integers(0, q - 1)
    fill = st.just(0) if kind in ("sparse", "zero") else entries
    a = draw(arrays(np.int64, (rows, cols), elements=entries, fill=fill))
    if rows >= 2 and kind in ("repeated", "proportional"):
        i = draw(st.integers(1, rows - 1))
        scale = draw(st.integers(0, q - 1)) if kind == "proportional" else 1
        a[i] = f.mul(scale, a[0])
    return f, a


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rref_inputs())
def test_rref_equals_gauss_jordan_property(case):
    f, a = case
    red, pivots = rref(Mat(f, a))
    want, want_pivots = _gauss_jordan(f, a, a.shape[1])
    assert red.data.dtype == np.int64 and not red.data.flags.writeable
    assert red.shape == a.shape
    assert red.data.tolist() == want and pivots == want_pivots


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(2)
    for q in (2, 3, 4, 7):
        f = field_make(*_pm(q))
        for _ in range(20):
            m = Mat(f, rng.integers(0, q, size=(5, 3)))
            assert rank(m) == rank(m.transpose())


def test_kernel_examples():
    f2 = field_make(2)
    assert right_kernel_basis(identity(f2, 4)).rows == 0
    ker0 = right_kernel_basis(zeros(f2, 2, 3))
    assert ker0 == identity(f2, 3)
    parity = Mat(f2, [[1, 1, 1]])
    ker = right_kernel_basis(parity)
    assert ker.rows == 2
    # every basis row is orthogonal to the parity row
    assert mat_mul(parity, ker.transpose()).data.sum() == 0
    # matches exhaustive enumeration of even-weight vectors in F_2^3
    even = [v for v in range(8) if bin(v).count("1") % 2 == 0 and v]
    assert len(even) == 2**ker.rows - 1


def test_rank_nullity_random():
    rng = np.random.default_rng(3)
    for q in (2, 3, 8):
        f = field_make(*_pm(q))
        for _ in range(25):
            m = Mat(f, rng.integers(0, q, size=rng.integers(1, 6, size=2)))
            ker = right_kernel_basis(m)
            assert ker.data.dtype == np.int64 and not ker.data.flags.writeable
            assert ker.rows + rank(m) == m.cols
            if ker.rows:
                assert not mat_mul(m, ker.transpose()).data.any()


def test_rank_many_matches_rank():
    rng = np.random.default_rng(4)
    for q in (2, 3, 5, 7, 4, 9):
        f = field_make(*_pm(q))
        batch = rng.integers(0, q, size=(60, 5, 7))
        got = rank_many(f, batch)
        want = [rank(Mat(f, b)) for b in batch]
        assert got.tolist() == want


# primes, extension fields on the q*q tables (q <= 256) and on the
# log/antilog path (729)
RANK_QS = (2, 3, 5, 7, 251, 65521, 4, 8, 9, 16, 27, 243, 256, 729)


@st.composite
def rank_batches(draw, sizes=st.integers(0, 4), side=7):
    """(field, batch): a batch size drawn from sizes, rows and cols up to
    side, any of them may be 0; dense, sparse (mostly zeros) or with the
    first rows repeated (rank deficient); the batch is uint8 or int64 when
    q <= 256, int64 above."""
    q = draw(st.sampled_from(RANK_QS))
    shape = draw(st.tuples(sizes, st.integers(0, side), st.integers(0, side)))
    kind = draw(st.sampled_from(("dense", "sparse", "duplicate")))
    entries = st.integers(0, q - 1)
    fill = st.just(0) if kind == "sparse" else entries
    batch = draw(arrays(np.int64, shape, elements=entries, fill=fill))
    if kind == "duplicate":
        half = shape[1] // 2
        batch[:, shape[1] - half :] = batch[:, :half]
    dtype = draw(st.sampled_from((np.uint8, np.int64))) if q <= 256 else np.int64
    return field_make(*_pm(q)), batch.astype(dtype)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rank_batches())
def test_rank_many_equals_rref_rank_property(case):
    f, batch = case
    got = rank_many(f, batch)
    assert got.dtype == np.int64 and got.shape == batch.shape[:1]
    assert got.tolist() == rank_many(f, batch.astype(np.int64)).tolist()
    assert got.tolist() == [rank(Mat(f, b)) for b in batch]


# batch sizes on both sides of 64 and 128 lanes, so that the flat lane-major
# pivot indices of rank_many cross several lanes of a wide batch
@settings(derandomize=True, max_examples=60, deadline=None)
@given(rank_batches(st.sampled_from((1, 63, 64, 65, 129)), 14))
def test_rank_many_wide_batches_property(case):
    f, batch = case
    assert rank_many(f, batch).tolist() == [rank(Mat(f, b)) for b in batch]


PLANE_QS = (2, 4, 8, 16)  # the fields whose large batches take the bit planes


def _small_batch_ranks(f, batch):
    """rank_many of batch in runs of lanes too few for the bit planes, so
    on the elimination path that the properties above pin to rref."""
    run = 64 * f.m**2 - 1
    assert not _takes_planes(f, run) and _takes_planes(f, run + 1)
    return np.concatenate([rank_many(f, batch[i : i + run]) for i in range(0, len(batch), run)])


def _mixed_ranks(rng, q, shape):
    """Entries in [0, q), each lane with its own share of zeros, so that a
    batch holds many ranks and a lane read in the wrong place shows."""
    batch = rng.integers(0, q, size=shape)
    return batch * (rng.random(shape) < rng.random((shape[0], 1, 1)))


@st.composite
def plane_batches(draw):
    """(field, batch) over GF(2^m), m <= 4, with a batch size on either
    side of the bit-plane rule's 64 m^2 lanes or across the 64-lane words
    past it, rows and cols up to 9 (either may be 0, or exceed the other),
    the first rows repeated in some batches (rank deficient), and in some
    row i and column i zero in every lane, so that an elimination step
    finds no pivot in any lane before steps that do; the entries come from
    a seeded generator (_mixed_ranks)."""
    q = draw(st.sampled_from(PLANE_QS))
    f = field_make(2, q.bit_length() - 1)
    least = 64 * f.m**2
    shape = (draw(st.sampled_from((least - 1, least, least + 1, least + 63, 2 * least + 37))),) + draw(
        st.tuples(st.integers(0, 9), st.integers(0, 9))
    )
    batch = _mixed_ranks(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), q, shape)
    if draw(st.booleans()):
        half = shape[1] // 2
        batch[:, shape[1] - half :] = batch[:, :half]
    if draw(st.booleans()):
        i = draw(st.integers(0, 3))
        batch[:, i : i + 1] = batch[:, :, i : i + 1] = 0  # a no-op past the edge
    return f, batch.astype(draw(st.sampled_from((np.uint8, np.int64))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(plane_batches())
def test_rank_many_bit_plane_batches_property(case):
    f, batch = case
    got = rank_many(f, batch)
    assert got.dtype == np.int64 and got.tolist() == _small_batch_ranks(f, batch).tolist()
    ends = batch[[0, -1]]
    assert got[[0, -1]].tolist() == [rank(Mat(f, b)) for b in ends]


def _planes(f, values):
    """The bit planes (m, words) of the encoded elements, lane b at bit
    b % 64 of word b // 64, as _plane_rank lays them out."""
    bits = np.zeros((f.m, -(-len(values) // 64) * 64), dtype=np.uint8)
    bits[:, : len(values)] = values >> np.arange(f.m)[:, None] & 1
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


def _elements(planes, count):
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, count=count, bitorder="little")
    return (1 << np.arange(len(planes))) @ bits


@pytest.mark.parametrize("q", PLANE_QS)
def test_bit_plane_products_equal_field_tables(q):
    # all q^2 pairs, one to a lane: a * b and a * b^-1 (0 for b = 0)
    f = field_make(2, q.bit_length() - 1)
    consts = _plane_constants(f)
    a, b = np.arange(q).repeat(q), np.tile(np.arange(q), q)
    pa, pb = _planes(f, a), _planes(f, b)
    assert _elements(_plane_apply(_plane_times(consts[0], pb), pa), q * q).tolist() == f.mul(a, b).tolist()
    if f.m > 1:
        quotient = _elements(_plane_apply(_plane_inverse(consts, pb), pa), q * q)
        nonzero = b != 0
        assert quotient[nonzero].tolist() == f.div(a[nonzero], b[nonzero]).tolist()
        assert not quotient[~nonzero].any()
    assert not consts.flags.writeable


def _deferred_bound_worst_case(q, s, dependent):
    """An s x s matrix whose last entry loses (q-1)^2 at each of the s-1
    elimination steps, the most the deferred reduction allows: rows
    e_i + (q-1) e_{s-1} for i < s-1, then (q-1, ..., q-1, d).  With
    d = (s-1) mod q the last row is (q-1) times the sum of the others."""
    a = np.zeros((s, s), dtype=np.int64)
    a[np.arange(s - 1), np.arange(s - 1)] = 1
    a[:, -1] = q - 1
    a[-1, :-1] = q - 1
    a[-1, -1] = (s - 1 + (not dependent)) % q
    return a


def _scaled_pivot_row_case(q, s):
    """An s x s matrix of rank s - 1 whose pivot at step s - 2 is q - 1, on
    a row that lost (q-1)^2 at each earlier step: rows e_i + (q-1) e_{s-1}
    for i < s-2, then the row (q-1, ..., q-1, 0) twice.  Only after its
    reduction may that row be scaled by the inverse q - 1: unreduced, the
    product -(s-2)(q-1)^3 can leave the deferred bound's dtype."""
    a = np.zeros((s, s), dtype=np.int64)
    a[np.arange(s - 2), np.arange(s - 2)] = 1
    a[: s - 2, -1] = q - 1
    a[s - 2 :, :-1] = q - 1
    return a


# Shorter-side lengths on both sides of each dtype switch of the deferred
# bound (s - 1)(q - 1)^2: int8 -> int16 for GF(2), GF(3), GF(7); int16 ->
# int32 for GF(251); int32 -> int64 for GF(65521).  GF(13) switches int8
# -> int16 at 2 steps, the first at which the scaled pivot row's (q - 1)^2
# = 144 must fit.  Over GF(2) wraparound modulo 2^8 keeps parity, so no
# input can expose an int8 overflow there.  Seven lanes keep GF(2) off the
# bit planes, which start at 64.
@pytest.mark.parametrize("q,s", [(2, 129), (2, 130), (3, 33), (3, 34), (7, 4), (7, 5), (13, 1), (13, 2), (251, 1), (251, 2), (65521, 1), (65521, 2), (65521, 3)])
def test_rank_many_dtype_boundaries(q, s):
    f = field_make(q)
    rng = np.random.default_rng(s)
    square = [
        _deferred_bound_worst_case(q, s, dependent=True),
        _deferred_bound_worst_case(q, s, dependent=False),
        np.full((s, s), q - 1),
        _scaled_pivot_row_case(q, s),
        *rng.integers(0, q, size=(3, s, s)),
    ]
    assert not _takes_planes(f, len(square))
    want = [rank(Mat(f, a)) for a in square]
    assert want[:4] == [s - 1, s, 1, s - 1]
    tall = np.stack([np.vstack([a, np.zeros((1, s), dtype=np.int64)]) for a in square])
    assert rank_many(f, np.stack(square)).tolist() == want
    assert rank_many(f, tall).tolist() == want
    assert rank_many(f, tall.transpose(0, 2, 1)).tolist() == want


def test_rank_many_contract():
    rng = np.random.default_rng(5)
    f = field_make(2)
    read_only = Mat(f, rng.integers(0, 2, size=(3, 6))).data[None]
    before = read_only.copy()
    assert rank_many(f, read_only).tolist() == [rank(Mat(f, read_only[0]))]
    assert (read_only == before).all()
    # (4, 8, 6) stores the elimination layout of the first two views (the
    # second on the transposed path) in the dtype rank_many works in, on
    # fields that never take the bit planes
    for f, dtype in ((field_make(3), np.int8), (field_make(3, 2), np.uint8)):
        store = rng.integers(0, f.q, size=(4, 8, 6)).astype(dtype)
        before = store.copy()
        for view in (store.transpose(1, 2, 0), store.transpose(1, 0, 2), store[::-1, ::2]):
            got = rank_many(f, view)
            assert got.dtype == np.int64 and got.shape == view.shape[:1]
            assert got.tolist() == [rank(Mat(f, b)) for b in view]
        assert (store == before).all()
    # read-only, transposed, reversed and strided views on the bit planes
    for q in PLANE_QS:
        f = field_make(2, q.bit_length() - 1)
        store = _mixed_ranks(rng, q, (2 * 64 * f.m**2 + 3, 8, 6)).astype(np.uint8)
        store.flags.writeable = False
        before = store.copy()
        for view in (store, store.transpose(0, 2, 1), store[::-1, ::2], store[::2, 1:]):
            assert _takes_planes(f, len(view))
            got = rank_many(f, view)
            assert got.dtype == np.int64 and got.tolist() == _small_batch_ranks(f, view).tolist()
        assert (store == before).all()
    assert rank_many(f, np.zeros((0, 3, 5), dtype=np.int64)).dtype == np.int64
    with pytest.raises(ValueError):
        rank_many(f, np.zeros((3, 5), dtype=np.int64))


def test_mat_mul_extension_field():
    f4 = field_make(2, 2)
    a = Mat(f4, [[2, 1]])
    b = Mat(f4, [[2], [3]])
    # 2*2 + 1*3 = 3 + 3 = 0
    assert mat_mul(a, b).data.tolist() == [[0]]


def test_matrix_validation():
    f3 = field_make(3)
    with pytest.raises(ValueError):
        Mat(f3, [[0, 3]])  # entry out of range
    with pytest.raises(TooLarge):
        zeros(f3, 1, 4097)


def test_matrix_shape_and_field_validation():
    f2, f3 = field_make(2), field_make(3)
    with pytest.raises(ValueError, match="2-dimensional"):
        Mat(f3, np.zeros((2, 2, 2), dtype=np.int64))
    a, b = Mat(f2, [[1, 0]]), Mat(f3, [[1, 0]])
    with pytest.raises(FieldMismatch):
        stack(a, b)
    with pytest.raises(FieldMismatch):
        mat_mul(a, Mat(f3, [[1], [0]]))
    with pytest.raises(ValueError, match="column counts"):
        stack(a, Mat(f2, [[1, 0, 1]]))
    with pytest.raises(ValueError, match="inner dimensions"):
        mat_mul(a, Mat(f2, [[1, 0]]))
    entry = Mat(f3, [[2, 1]])[0, 0]
    assert type(entry) is int and entry == 2


def test_matrix_rejects_non_integer_data():
    # floats were truncated and strings parsed; now only integer and bool data pass
    f3 = field_make(3)
    for data in ([[1.7, 2]], [[1.0, 2.0]], [["1", "2"]], [[1, 2**70]], np.array([[0.0, 1.0]]), [[None, 1]]):
        with pytest.raises(ValueError, match="must be integers"):
            Mat(f3, data)
    assert Mat(f3, [[True, False]]).data.tolist() == [[1, 0]]
    assert Mat(f3, np.array([[2, 1]], dtype=np.uint8)).data.dtype == np.int64
    assert Mat(f3, []).shape == (1, 0)


def test_parse_matrix_entries_beyond_int64_raise_value_error():
    # np.array(..., dtype=np.int64) raised OverflowError on these
    for entry in (2**63, 2**64 - 1, 2**64, 10**30):
        with pytest.raises(ValueError):
            parse_matrix(f"5 1 2\n1 {entry}\n")
    assert parse_matrix("2 0 3\n").shape == (0, 3)


def test_text_format_roundtrip(tmp_path):
    f5 = field_make(5)
    m = Mat(f5, [[0, 1, 2], [3, 4, 0]])
    text = format_matrix(m)
    assert text.splitlines()[0] == "5 2 3"
    assert parse_matrix(text) == m
    path = tmp_path / "m.mat"
    save_matrix(m, path)
    assert load_matrix(path) == m


def test_text_format_comments_and_blanks():
    text = "# a comment\n\n4 1 2\n # indented comment\n2 3\n"
    m = parse_matrix(text)
    assert m.field.q == 4
    assert m.data.tolist() == [[2, 3]]


def test_text_format_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 1\n0\n")  # bad header
    with pytest.raises(ValueError):
        parse_matrix("2 2 2\n0 1\n")  # missing row
    with pytest.raises(ValueError):
        parse_matrix("2 1 2\n0 1 1\n")  # long row


def _pm(q):
    p = 2
    while q % p:
        p += 1
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return p, m
