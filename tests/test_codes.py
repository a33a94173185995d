import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starprod import (
    Mat,
    code_from_matrix,
    csst_envelope,
    dual,
    field_make,
    intersection_dim,
    is_degenerate,
    is_mds,
    is_subcode,
    min_distance,
    project,
    star_lower_bound_dual_distance,
    star_lower_bound_mds,
    star_product,
    support,
)
from starprod import apps, codes, matrices
from starprod.catalog import evaluation_code, full_space, hamming_7_4, mds63_gf7_codes, repetition_code, single_coordinate_code
from starprod.errors import (
    BudgetExceeded,
    DegenerateInput,
    FieldMismatch,
    LengthMismatch,
    NeitherMDS,
    ZeroCode,
    ZeroDual,
)
from starprod.matrices import rank, rref, stack

from conftest import grs_code, random_code


def test_code_from_matrix_systematic():
    f2 = field_make(2)
    c = code_from_matrix(Mat(f2, [[1, 0, 1, 1], [0, 1, 0, 1]]))
    assert c.k == 2 and c.systematic is not None
    assert c.systematic == c.basis


def test_code_from_matrix_dependent_rows():
    f2 = field_make(2)
    c = code_from_matrix(Mat(f2, [[1, 1, 0], [1, 1, 0]]))
    assert c.k == 1


def test_code_from_matrix_zero():
    f2 = field_make(2)
    with pytest.raises(ZeroCode):
        code_from_matrix(Mat(f2, [[0, 0, 0]]))


def test_gf7_example_codes_canonical():
    c1, c2 = mds63_gf7_codes()
    assert (c1.n, c1.k) == (6, 3) and (c2.n, c2.k) == (6, 3)
    assert c1.systematic is not None and c2.systematic is not None
    # already in reduced echelon form, so the basis is the input matrix
    assert c1.basis.data[:, 3:].tolist() == [[4, 5, 2], [6, 1, 1], [5, 6, 5]]
    assert c1 != c2


def test_star_product_examples():
    f2 = field_make(2)
    full = full_space(f2, 3)
    assert star_product(full, full) == full
    rng = np.random.default_rng(0)
    for q, n in [(2, 5), (5, 4), (4, 4)]:
        f = field_make(*_pm(q))
        rep = repetition_code(f, n)
        c = random_code(f, n, 3, rng)
        assert star_product(c, rep) == c
    # polynomials of degree <= 1 star themselves into degree <= 2
    c = grs_code(5, 5, 2)
    assert star_product(c, c).k == 3


def test_star_product_errors():
    f2, f3 = field_make(2), field_make(3)
    a = full_space(f2, 3)
    with pytest.raises(FieldMismatch):
        star_product(a, full_space(f3, 3))
    with pytest.raises(LengthMismatch):
        star_product(a, full_space(f2, 4))
    with pytest.raises(ZeroCode):
        star_product(single_coordinate_code(f2, 3, 0), single_coordinate_code(f2, 3, 1))


def test_star_commutative_and_bounded():
    rng = np.random.default_rng(1)
    for q in (2, 3, 4, 7):
        f = field_make(*_pm(q))
        for _ in range(15):
            c1 = random_code(f, 6, rng.integers(1, 4), rng)
            c2 = random_code(f, 6, rng.integers(1, 4), rng)
            try:
                s12 = star_product(c1, c2)
            except ZeroCode:
                continue
            assert s12 == star_product(c2, c1)
            assert s12.k <= min(c1.k * c2.k, c1.n)


def test_star_monotone_in_subcodes():
    rng = np.random.default_rng(2)
    f3 = field_make(3)
    for _ in range(15):
        big = random_code(f3, 6, 4, rng)
        if big.k < 2:
            continue
        small = code_from_matrix(Mat(f3, big.basis.data[: big.k - 1]))
        c2 = random_code(f3, 6, 2, rng)
        try:
            s_small = star_product(small, c2)
        except ZeroCode:
            continue
        assert is_subcode(s_small, star_product(big, c2))


def test_dual_examples():
    f2 = field_make(2)
    rep3 = repetition_code(f2, 3)
    even = dual(rep3)
    assert even.k == 2
    weights = {int(w.sum()) for w in even.basis.data}
    assert all(w % 2 == 0 for w in weights)
    h = hamming_7_4()
    simplex = dual(h)
    assert simplex.k == 3
    assert min_distance(simplex) == 4
    with pytest.raises(ZeroDual):
        dual(full_space(f2, 3))


def test_dual_involution():
    rng = np.random.default_rng(3)
    for q in (2, 3, 9):
        f = field_make(*_pm(q))
        for _ in range(10):
            c = random_code(f, 6, 3, rng)
            if c.k == c.n:
                continue
            assert dual(dual(c)) == c


def test_min_distance_examples():
    f3 = field_make(3)
    assert min_distance(full_space(f3, 4)) == 1
    assert min_distance(repetition_code(f3, 6)) == 6
    assert min_distance(hamming_7_4()) == 3
    with pytest.raises(BudgetExceeded):
        min_distance(hamming_7_4(), budget=8)


def _brute_min_weights(field, bases):
    """Minimum nonzero weight of each basis's span over all q**k messages,
    one field term at a time."""
    _, k, n = bases.shape
    msgs = np.array(list(itertools.product(range(field.q), repeat=k))[1:], dtype=np.int64)
    out = []
    for basis in bases:
        words = np.zeros((len(msgs), n), dtype=np.int64)
        for t in range(k):
            words = field.add(words, field.mul(msgs[:, t : t + 1], basis[t][None, :]))
        out.append(int(np.count_nonzero(words, axis=1).min()))
    return out


def _check_matrices(field, bases):
    """A (P, n - k, n) stack of check matrices H, one per basis of a
    (P, k, n) stack of full-rank bases, each read off the basis's RREF."""
    out = []
    for b in bases:
        red, pivots = rref(Mat(field, b))
        out.append(matrices._kernel_basis(field, red.data, pivots))
    return np.array(out)


def _full_rank_bases(field, n, k, count, rng):
    out = []
    while len(out) < count:
        m = rng.integers(0, field.q, size=(k, n), dtype=np.int64)
        if rank(Mat(field, m)) == k:
            out.append(m)
    return np.array(out)


def _mds_basis(field, n, k):
    """A basis of an MDS [n, k] code, or None where none is at hand."""
    if k == n:
        return np.eye(n, dtype=np.int64)
    if k == 1:
        return np.ones((1, n), dtype=np.int64)
    if k == n - 1:
        return np.hstack([np.eye(k, dtype=np.int64), np.ones((k, 1), dtype=np.int64)])
    if n <= field.q:
        return evaluation_code(field, k, points=list(range(n))).basis.data
    return None


def _mixed_bases(field, n, k, rng):
    """Random full-rank bases, one with a weight-1 codeword (d = 1) and one
    MDS basis (d = n - k + 1) where one is at hand, so the girth levels of
    the check matrices close some bases at the first level and leave
    others open past the last."""
    parts = [_full_rank_bases(field, n, k, 3, rng)]
    while True:
        m = _full_rank_bases(field, n, k, 1, rng)
        m[0, 0] = 0
        m[0, 0, rng.integers(n)] = 1
        if rank(Mat(field, m[0])) == k:
            parts.append(m)
            break
    mds = _mds_basis(field, n, k)
    if mds is not None:
        parts.append(mds[None])
    return np.concatenate(parts)


def _check_routes(field, bases):
    """The priced search on the check matrices H, the full girth search on
    H (all n - k levels) and the enumeration of the bases, each called
    directly, equal brute force on the stack."""
    want = _brute_min_weights(field, bases)
    _, k, n = bases.shape
    assert 1 in want, (field.q, n, k)
    if _mds_basis(field, n, k) is not None:
        assert n - k + 1 in want, (field.q, n, k)
    checks = _check_matrices(field, bases)
    assert codes._kernel_min_weights(field, checks, lambda live: bases[live], 2**24).tolist() == want, (field.q, n, k)
    assert codes._girth(field, checks, n - k).tolist() == want, (field.q, n, k)
    assert codes._enumerated_min_weights(field, bases).tolist() == want, (field.q, n, k)


def test_min_weights_equal_brute_force_on_criterion_9_shapes():
    # every (q, n, k) the per-instance bound check draws, plus k = n
    rng = np.random.default_rng(11)
    for q in (2, 3, 5):
        f = field_make(q)
        for n in range(2, 9):
            for k in range(1, n + 1):
                _check_routes(f, _mixed_bases(f, n, k, rng))


def test_min_weights_equal_brute_force_over_extension_fields():
    rng = np.random.default_rng(12)
    shapes = {4: [(1, 5), (3, 6), (5, 7), (6, 6)], 8: [(1, 4), (3, 6), (4, 5), (5, 5)], 9: [(2, 5), (4, 6), (5, 5)]}
    for q, ks in shapes.items():
        f = field_make(*_pm(q))
        for k, n in ks:
            _check_routes(f, _mixed_bases(f, n, k, rng))


@st.composite
def small_codes(draw):
    """(q, n, k, seed) of a drawn code with n <= 8 and q**k <= 8192, so
    brute force stays cheap; high rates take the column-subset route and
    low rates the enumeration."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, min(n, int(math.log(8192, q) + 1e-9))))
    return q, n, k, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_codes())
@example((7, 7, 6, 0))  # column subsets
@example((2, 8, 2, 0))  # enumeration
def test_min_distance_equals_brute_force_property(shape):
    q, n, k, seed = shape
    f = field_make(*_pm(q))
    c = random_code(f, n, k, np.random.default_rng(seed))
    assert min_distance(c) == _brute_min_weights(f, c.basis.data[None])[0]


def test_min_weights_picks_route_by_cell_count(monkeypatch):
    # the rule depends on (q, n, k) only: the girth levels of the (n - k) x n
    # check matrix run while their summed cells stay below enumerating the
    # code's n (q**k - 1) / (q - 1) cells
    f2, f7 = field_make(2), field_make(7)

    def refuse(*args):
        raise AssertionError("route not expected here")

    # every level is cheaper than enumerating, so nothing is enumerated:
    # [7, 6] and [7, 5] over GF(7) (7 and 182 level cells against 137,256 and
    # 19,607), [10, 9] (10 against 5,110) and [13, 11] over GF(2) (650 against
    # 26,611), and k = n, whose check matrix has no rows and no level
    monkeypatch.setattr(codes, "_enumerated_min_weights", refuse)
    assert min_distance(grs_code(7, 7, 6)) == 2
    assert min_distance(grs_code(7, 7, 5)) == 3
    assert min_distance(dual(repetition_code(f2, 10))) == 2
    assert min_distance(dual(code_from_matrix(Mat(f2, [[1] * 13, [0] * 6 + [1] * 7])))) == 2
    assert min_distance(full_space(f7, 8)) == 1
    monkeypatch.undo()
    # [60, 3] over GF(2): level 1 alone (3,420 cells) costs more than enumerating
    # the code (420), so none of the subsets is indexed
    monkeypatch.setattr(codes, "rank_many", refuse)
    blocks = np.kron(np.eye(3, dtype=np.int64), np.ones((1, 20), dtype=np.int64))
    assert min_distance(code_from_matrix(Mat(f2, blocks))) == 20
    monkeypatch.undo()
    # [7, 2] over GF(7): level 1 (35 cells) costs less than enumerating (56),
    # levels 1 and 2 (455) do not, so only the bases level 1 leaves open, those
    # without a weight-1 codeword, are enumerated
    rng = np.random.default_rng(14)
    bases = np.concatenate([_mixed_bases(f7, 7, 2, rng) for _ in range(3)])
    want = _brute_min_weights(f7, bases)
    seen = []
    girth, enumerate_ = codes._girth, codes._enumerated_min_weights
    monkeypatch.setattr(codes, "_girth", lambda field, mats, levels: seen.append(levels) or girth(field, mats, levels))
    monkeypatch.setattr(codes, "_enumerated_min_weights", lambda field, b: seen.append(len(b)) or enumerate_(field, b))
    assert codes._kernel_min_weights(f7, _check_matrices(f7, bases), lambda live: bases[live], 2**24).tolist() == want
    assert 1 in want and seen == [1, sum(d > 1 for d in want)]


def test_min_weights_blocks_match_single_codes(monkeypatch):
    rng = np.random.default_rng(13)
    for q in (3, 4):
        f = field_make(*_pm(q))
        bases = _full_rank_bases(f, 7, 4, 40, rng)
        # in every other basis, make e_0 = row 0 + (q - 1) * (rows 1..3), the
        # last message of the first lead, so a skipped last block shows
        for b in bases[::2]:
            b[0] = f.sub(np.eye(7, dtype=np.int64)[0], f.mul(q - 1, f.add(f.add(b[1], b[2]), b[3])))
        bases = bases[[rank(Mat(f, b)) == 4 for b in bases]]
        single = [min_distance(code_from_matrix(Mat(f, b))) for b in bases]
        assert 1 in single[::2]
        checks = _check_matrices(f, bases)
        for cap in (None, 50):
            # a cap below one code's block splits both the messages and the stack
            if cap:
                monkeypatch.setattr(codes, "_BLOCK_CELLS", cap)
            assert codes._enumerated_min_weights(f, bases).tolist() == single
            assert codes._kernel_min_weights(f, checks, lambda live: bases[live], 2**24).tolist() == single
        monkeypatch.undo()
    # girth levels: a cap below one subset of the stack ranks one subset a call
    f7 = field_make(7)
    bases = np.concatenate([_mixed_bases(f7, 7, 5, rng) for _ in range(4)])
    single = [min_distance(code_from_matrix(Mat(f7, b))) for b in bases]
    checks = _check_matrices(f7, bases)
    assert codes._girth(f7, checks, 2).tolist() == single
    monkeypatch.setattr(codes, "_BLOCK_CELLS", 50)
    assert codes._girth(f7, checks, 2).tolist() == single


def test_min_distance_budget_edge():
    # the enumeration and, for the two GF(7) codes, the column subsets
    for code, d in (
        (hamming_7_4(), 3),
        (grs_code(5, 5, 2), 4),
        (repetition_code(field_make(2, 2), 4), 4),
        (grs_code(7, 7, 6), 2),
        (grs_code(7, 7, 5), 3),
    ):
        q, k = code.field.q, code.k
        assert min_distance(code, budget=q**k) == d
        with pytest.raises(BudgetExceeded, match=re.escape(f"q**k = {q}**{k} exceeds budget {q**k - 1}")):
            min_distance(code, budget=q**k - 1)


def _dual_cases(field, n, k, rng):
    """Full-rank k x n bases (k < n): two random ones, one whose column 1
    is a nonzero multiple of column 0 (dual distance at most 2), one with a
    zero column (dual distance 1) and an MDS one (dual distance k + 1)
    where one is at hand."""
    out = list(_full_rank_bases(field, n, k, 2, rng))
    for zero in (False, True):
        while True:
            m = _full_rank_bases(field, n, k, 1, rng)[0]
            if zero:
                m[:, rng.integers(n)] = 0
            else:
                m[:, 1] = field.mul(int(rng.integers(1, field.q)), m[:, 0])
            if rank(Mat(field, m)) == k:
                out.append(m)
                break
    mds = _mds_basis(field, n, k)
    if mds is not None:
        out.append(mds)
    return out


def _check_dual_distance(field, n, k, rng):
    """_dual_distance, the full girth search on the basis (all k levels)
    and min_distance(dual) equal brute force over the dual's codewords."""
    want = []
    for basis in _dual_cases(field, n, k, rng):
        c = code_from_matrix(Mat(field, basis))
        d = _brute_min_weights(field, dual(c).basis.data[None])[0]
        assert codes._dual_distance(c) == min_distance(dual(c)) == d, (field.q, n, k, basis)
        assert codes._girth(field, c.basis.data[None], k).tolist() == [d], (field.q, n, k)
        want.append(d)
    assert want[2] <= 2 and want[3] == 1, (field.q, n, k)
    if _mds_basis(field, n, k) is not None:
        assert want[4] == k + 1, (field.q, n, k)


def test_dual_distance_equals_brute_force_on_criterion_9_shapes():
    rng = np.random.default_rng(21)
    for q in (2, 3, 5):
        f = field_make(q)
        for n in range(2, 9):
            for k in range(1, n):
                _check_dual_distance(f, n, k, rng)
            with pytest.raises(ZeroDual):
                codes._dual_distance(full_space(f, n))


def test_dual_distance_equals_brute_force_over_extension_fields():
    rng = np.random.default_rng(22)
    shapes = {4: [(1, 5), (2, 5), (3, 6), (5, 7)], 8: [(1, 4), (3, 6), (4, 5)], 9: [(2, 5), (3, 6), (4, 5)]}
    for q, ks in shapes.items():
        f = field_make(*_pm(q))
        for k, n in ks:
            _check_dual_distance(f, n, k, rng)


@st.composite
def dual_distance_codes(draw):
    """(q, n, k, kind, seed) of a drawn [n, k] code, k < n, whose dual has
    at most 8192 words; kind adds a repeated or a zero column."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    n = draw(st.integers(2, 8))
    k = draw(st.integers(max(1, n - int(math.log(8192, q) + 1e-9)), n - 1))
    kind = draw(st.sampled_from(("plain", "repeated", "zero")))
    return q, n, k, kind, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(dual_distance_codes())
def test_dual_distance_equals_brute_force_property(shape):
    q, n, k, kind, seed = shape
    f = field_make(*_pm(q))
    rng = np.random.default_rng(seed)
    m = rng.integers(0, q, size=(k, n), dtype=np.int64)
    m[0, 0] = 1  # a nonzero matrix
    if kind == "repeated":
        m[:, -1] = m[:, 0]
    elif kind == "zero":
        m[:, -1] = 0
    c = code_from_matrix(Mat(f, m))
    if c.k == n:
        return
    want = _brute_min_weights(f, dual(c).basis.data[None])[0]
    assert codes._dual_distance(c) == min_distance(dual(c)) == want


def test_dual_distance_picks_route_by_cell_count(monkeypatch):
    f2 = field_make(2)

    def refuse(*args):
        raise AssertionError("route not expected here")

    h = hamming_7_4()
    even = code_from_matrix(Mat(f2, np.hstack([np.eye(39, dtype=np.int64), np.ones((39, 1), dtype=np.int64)])))
    # [7, 3] over GF(7): all three levels (1,218 cells) cost less than
    # enumerating the [7, 4] dual (2,800), so the search ends open at k + 1
    monkeypatch.setattr(codes, "_enumerated_min_weights", refuse)
    assert codes._dual_distance(grs_code(7, 7, 3)) == 4
    monkeypatch.undo()
    # [7, 4] Hamming: level 1 (28 cells) fits under the dual's 49, level 2
    # (364 in all) does not, so after level 1 a kernel basis of the [7, 3]
    # simplex dual is enumerated, without dual()'s canonical form
    monkeypatch.setattr(codes, "dual", refuse)
    assert codes._dual_distance(h) == 4
    # [40, 39] even-weight code: level 1 alone (1,560 cells) costs more than
    # the dual's 40, so nothing is ranked
    monkeypatch.setattr(codes, "rank_many", refuse)
    assert codes._dual_distance(even) == 40


def test_dual_distance_bound_and_floor_build_no_dual(monkeypatch):
    f2 = field_make(2)
    rng = np.random.default_rng(23)
    pairs = [(grs_code(7, 7, 2), grs_code(7, 7, 3))]
    for n, k1, k2 in ((10, 3, 3), (13, 3, 4)):
        while True:
            c1, c2 = (random_code(f2, n, k, rng) for k in (k1, k2))
            # a repeated column keeps [13, 4] inside its two affordable levels
            c2 = code_from_matrix(Mat(f2, np.hstack([c2.basis.data[:, :-1], c2.basis.data[:, :1]])))
            if (c1.k, c2.k) == (k1, k2) and not (is_degenerate(c1) or is_degenerate(c2)):
                pairs.append((c1, c2))
                break
    zero_col = code_from_matrix(Mat(f2, [[1, 1, 0, 1, 0], [0, 1, 1, 1, 0]]))
    want_bounds = [
        min(c1.n, c1.k + min_distance(dual(c2)) - 2, c2.k + min_distance(dual(c1)) - 2) for c1, c2 in pairs
    ]
    want_floors = [min_distance(dual(c2)) for _, c2 in pairs[1:]]

    def refuse(*args):
        raise AssertionError("no dual basis expected here")

    for module, name in (
        (codes, "dual"),
        (codes, "_kernel_basis"),
        (matrices, "_kernel_basis"),
        (matrices, "right_kernel_basis"),
        (codes, "_enumerated_min_weights"),
    ):
        monkeypatch.setattr(module, name, refuse)
    # apps imports no dual; the refusal still fires should it ever import one
    monkeypatch.setattr(apps, "dual", refuse, raising=False)
    assert [star_lower_bound_dual_distance(c1, c2) for c1, c2 in pairs] == want_bounds
    # c1 = F_2^n squares to the full space, so the envelope needs no dual either
    floors = [csst_envelope(full_space(f2, c2.n), c2).distance_floor for _, c2 in pairs[1:]]
    assert floors == want_floors
    assert csst_envelope(full_space(f2, 5), zero_col).distance_floor == 1


def test_dual_distance_budget_edge():
    # the column levels alone (GRS over GF(7)) and the dual enumeration (Hamming)
    h = hamming_7_4()
    for c, bound in ((grs_code(7, 7, 3), 5), (h, 6)):
        q, r = c.field.q, c.n - c.k
        assert star_lower_bound_dual_distance(c, c, budget=q**r) == bound
        with pytest.raises(BudgetExceeded, match=re.escape(f"q**k = {q}**{r} exceeds budget {q**r - 1}")):
            star_lower_bound_dual_distance(c, c, budget=q**r - 1)
    f2 = field_make(2)
    assert csst_envelope(full_space(f2, 7), h, budget=8).distance_floor == 4
    assert csst_envelope(full_space(f2, 7), h, budget=7).distance_floor is None


def test_singleton_bound_random():
    rng = np.random.default_rng(4)
    for q in (2, 3, 5):
        f = field_make(q)
        for _ in range(10):
            c = random_code(f, 7, 3, rng)
            assert c.k <= c.n - min_distance(c) + 1


def test_support_and_degeneracy():
    f2 = field_make(2)
    assert support(full_space(f2, 4)) == frozenset(range(4))
    assert not is_degenerate(full_space(f2, 4))
    e1 = single_coordinate_code(f2, 3, 0)
    assert support(e1) == frozenset({0})
    assert is_degenerate(e1)
    c = code_from_matrix(Mat(f2, [[1, 1, 0], [0, 1, 1]]))
    assert support(c) == frozenset({0, 1, 2})


def test_project():
    f2 = field_make(2)
    h = hamming_7_4()
    assert project(h, range(7)) == h
    assert project(single_coordinate_code(f2, 3, 0), [0]) == full_space(f2, 1)
    assert project(h, [0, 1, 2, 3]) == full_space(f2, 4)
    with pytest.raises(ZeroCode):
        project(single_coordinate_code(f2, 3, 0), [1, 2])
    with pytest.raises(ValueError):
        project(h, [])


def test_project_coordinates_outside_length():
    h = hamming_7_4()
    for coords in ([0, 7], [-1, 2]):
        with pytest.raises(ValueError, match="outside"):
            project(h, coords)


def test_is_mds():
    f2 = field_make(2)
    assert is_mds(full_space(f2, 3))
    assert is_mds(repetition_code(f2, 5))
    c1, c2 = mds63_gf7_codes()
    assert is_mds(c1) and is_mds(c2)
    assert not is_mds(hamming_7_4())


def test_intersection_dim():
    f2 = field_make(2)
    h = hamming_7_4()
    assert intersection_dim(h, h) == h.k
    assert intersection_dim(single_coordinate_code(f2, 3, 0), single_coordinate_code(f2, 3, 1)) == 0
    rng = np.random.default_rng(5)
    for _ in range(10):
        c1 = random_code(f2, 3, 2, rng)
        c2 = random_code(f2, 3, 2, rng)
        if c1.k == 2 and c2.k == 2:
            assert intersection_dim(c1, c2) >= 1  # forced by dimension count
        # the defining identity
        assert intersection_dim(c1, c2) + rank(stack(c1.basis, c2.basis)) == c1.k + c2.k


def test_star_lower_bound_dual_distance():
    h = hamming_7_4()
    assert star_lower_bound_dual_distance(h, h) == 6  # min(7, 4+4-2)
    assert star_product(h, h).k >= 6
    c = grs_code(5, 5, 2)
    assert star_lower_bound_dual_distance(c, c) == 3
    assert star_product(c, c).k == 3
    f2 = field_make(2)
    with pytest.raises(ZeroDual):
        star_lower_bound_dual_distance(full_space(f2, 3), full_space(f2, 3))
    with pytest.raises(DegenerateInput):
        e1 = single_coordinate_code(f2, 3, 0)
        star_lower_bound_dual_distance(e1, e1)


def test_star_lower_bound_mds():
    f3 = field_make(3)
    rep = repetition_code(f3, 4)
    line = code_from_matrix(Mat(f3, [[1, 2, 1, 1]]))
    assert star_lower_bound_mds(rep, line) == 1
    assert star_product(rep, line).k == 1
    c = grs_code(5, 5, 2)
    assert star_lower_bound_mds(c, c) == 3
    c1, _ = mds63_gf7_codes()
    f7 = field_make(7)
    # any non-degenerate dim-3 partner gives bound min(6, 5) = 5
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = random_code(f7, 6, 3, rng)
        if d.k != 3 or is_degenerate(d):
            continue
        assert star_lower_bound_mds(c1, d) == 5
        assert star_product(c1, d).k >= 5
    f2 = field_make(2)
    notmds = code_from_matrix(Mat(f2, [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 1, 1]]))
    with pytest.raises(NeitherMDS):
        star_lower_bound_mds(notmds, notmds)


def test_dual_distance_bound_random_instances():
    rng = np.random.default_rng(7)
    for q in (2, 3):
        f = field_make(q)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            c1 = random_code(f, n, int(rng.integers(1, n)), rng)
            c2 = random_code(f, n, int(rng.integers(1, n)), rng)
            if is_degenerate(c1) or is_degenerate(c2) or c1.k == n or c2.k == n:
                continue
            bound = star_lower_bound_dual_distance(c1, c2)
            assert star_product(c1, c2).k >= bound


def _pm(q):
    p = 2
    while q % p:
        p += 1
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return p, m
