import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from starprod import (
    EnumBudget,
    Mat,
    Params,
    RandomModel,
    code_from_matrix,
    count_zero_diag_oracle,
    count_zero_diag_rank,
    count_zero_diag_rank_zerocols,
    enumerate_subspaces,
    enumerate_systematic,
    exact_expected_intersection,
    exact_expected_kernel,
    exact_expected_star_dim,
    exact_expected_star_dim_fixed,
    expected_intersection_dim,
    expected_kernel_size,
    field_make,
    monomial_invariance_check,
    qbinom,
    star_dim_lower_bound,
    star_product,
    support,
)
from starprod import oracle
from starprod._tally import dim_histogram, meet_dims, pair_stat, star_dims
from starprod.catalog import mds63_gf7_codes
from starprod.fields import field_from_order
from starprod.matrices import rank_many
from starprod.oracle import DEFAULT_BUDGET, systematic_count
from starprod.errors import BadRange, BudgetExceeded, NotMonomial, TooLarge, ZeroCode

from conftest import random_code


def test_enum_budget():
    b = EnumBudget(max_items=10)
    b.charge(6)
    with pytest.raises(BudgetExceeded):
        b.charge(5)


def test_enumerate_systematic_examples():
    f2, f3 = field_make(2), field_make(3)
    items = list(enumerate_systematic(f2, 2, 1))
    assert [c.basis.data.tolist() for c in items] == [[[1, 0]], [[1, 1]]]
    assert len(list(enumerate_systematic(f2, 3, 2))) == 4
    assert len(list(enumerate_systematic(f3, 3, 1))) == 9
    assert all(c.systematic is not None for c in items)
    with pytest.raises(BudgetExceeded):
        list(enumerate_systematic(f2, 40, 20))


def test_enumerate_subspaces_examples():
    f2 = field_make(2)
    lines = list(enumerate_subspaces(f2, 2, 1))
    assert len(lines) == 3
    planes = list(enumerate_subspaces(f2, 4, 2))
    assert len(planes) == qbinom(4, 2, 2) == 35
    assert len(set(planes)) == 35  # canonical forms, each exactly once
    for c in list(enumerate_subspaces(field_make(2, 2), 4, 2)) + planes:
        # an int64 basis of its own, read-only and canonical, not a view into a block
        data = c.basis.data
        assert data.dtype == np.int64 and data.base is None and not data.flags.writeable
        assert code_from_matrix(c.basis).basis == c.basis
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(f2, 60, 30))


def test_enumerate_subspaces_matches_qbinom():
    for q, n, k in [(2, 5, 2), (3, 4, 2), (2, 5, 3), (5, 3, 2)]:
        f = field_make(q)
        assert sum(1 for _ in enumerate_subspaces(f, n, k)) == qbinom(n, k, q)


def test_exact_expected_kernel_tiny():
    assert exact_expected_kernel(Params(2, 2, 1, 1)) == 1


def test_kernel_formula_equals_oracle_small_grid():
    for q in (2, 3):
        for n in range(1, 5):
            for k1 in range(1, min(n, 3) + 1):
                for k2 in range(k1, min(n, 3) + 1):
                    p = Params(q, n, k1, k2)
                    assert expected_kernel_size(p) == exact_expected_kernel(p), (q, n, k1, k2)


def test_exact_expected_star_dim():
    assert exact_expected_star_dim(Params(2, 2, 1, 1), RandomModel.SYSTEMATIC) == 1
    assert exact_expected_star_dim(Params(2, 3, 3, 3), RandomModel.SYSTEMATIC) == 3
    assert exact_expected_star_dim(Params(3, 3, 3, 3), RandomModel.UNIFORM_SUBSPACE) == 3
    p = Params(2, 3, 2, 2)
    val = exact_expected_star_dim(p, RandomModel.SYSTEMATIC)
    assert float(val) >= star_dim_lower_bound(p).bound - 1e-12  # Jensen direction


def test_exact_star_dim_refuses_a_model_that_is_no_random_model():
    # "systematic" once ran the uniform oracle; now BadRange, budget uncharged
    budget = EnumBudget()
    for model in ("systematic", "uniform", None):
        with pytest.raises(BadRange, match="model"):
            exact_expected_star_dim(Params(2, 5, 2, 3), model, budget)
    assert budget.observed == 0
    assert exact_expected_star_dim(Params(2, 5, 2, 3), RandomModel.SYSTEMATIC) == Fraction(15599, 4096)
    assert exact_expected_star_dim(Params(2, 5, 2, 3), RandomModel.UNIFORM_SUBSPACE) == Fraction(15821, 4805)


def test_exact_star_dim_uniform_vs_direct():
    # cross-check the batched enumeration against per-pair star products
    f2 = field_make(2)
    p = Params(2, 3, 1, 2)
    total = 0
    lines = list(enumerate_subspaces(f2, 3, 1))
    planes = list(enumerate_subspaces(f2, 3, 2))
    for c1 in lines:
        for c2 in planes:
            try:
                total += star_product(c1, c2).k
            except ZeroCode:
                pass
    want = Fraction(total, len(lines) * len(planes))
    assert exact_expected_star_dim(p, RandomModel.UNIFORM_SUBSPACE) == want


def test_exact_expected_star_dim_fixed_direct():
    f2 = field_make(2)
    parity = code_from_matrix(Mat(f2, [[1, 0, 1], [0, 1, 1]]))
    total = 0
    for d in enumerate_subspaces(f2, 3, 1):
        try:
            total += star_product(parity, d).k
        except ZeroCode:
            pass
    assert exact_expected_star_dim_fixed(parity, 1) == Fraction(total, 7)


def test_exact_expected_star_dim_fixed_thread_invariance():
    c1, _ = mds63_gf7_codes()
    assert exact_expected_star_dim_fixed(c1, 1, threads=1) == exact_expected_star_dim_fixed(
        c1, 1, threads=3
    )


def test_exact_expected_star_dim_fixed_validates_ell():
    c1, _ = mds63_gf7_codes()
    for ell in (-1, 0, c1.n + 1):
        with pytest.raises(BadRange):
            exact_expected_star_dim_fixed(c1, ell)


def test_exact_expected_intersection():
    assert exact_expected_intersection(Params(2, 2, 1, 1)) == Fraction(1, 3)
    assert exact_expected_intersection(Params(2, 3, 1, 2)) == Fraction(3, 7)
    assert exact_expected_intersection(Params(3, 3, 2, 3)) == 2
    for q, n in [(2, 3), (2, 4)]:
        for k1 in range(1, n + 1):
            for k2 in range(k1, n + 1):
                p = Params(q, n, k1, k2)
                assert exact_expected_intersection(p) == expected_intersection_dim(p)


def test_count_zero_diag_oracle_examples():
    counts = count_zero_diag_oracle(2, 2, 2)
    assert counts.by_rank == {0: 1, 1: 2, 2: 1}
    assert count_zero_diag_oracle(1, 1, 5).by_rank == {0: 1}
    c23 = count_zero_diag_oracle(2, 3, 2)
    assert sum(c23.by_rank.values()) == 2 ** (6 - 2)


def test_count_zero_diag_oracle_rejects_k1_above_k2():
    # the same shape rule as count_zero_diag_rank
    for k1, k2 in [(3, 2), (2, 1)]:
        with pytest.raises(BadRange):
            count_zero_diag_oracle(k1, k2, 2)


def test_count_zero_diag_oracle_matches_formulas():
    for q in (2, 3):
        for k1 in range(1, 4):
            for k2 in range(k1, 5):
                counts = count_zero_diag_oracle(k1, k2, q)
                for r in range(k1 + 1):
                    assert counts.by_rank.get(r, 0) == count_zero_diag_rank(k1, k2, r, q)
                # every individual zero-column set matches the shared count
                for (r, cols), c in counts.by_rank_and_zero_set.items():
                    assert c == count_zero_diag_rank_zerocols(k1, k2, r, len(cols), q)


def test_count_zero_diag_oracle_equals_full_enumeration():
    # the orbit count against every matrix of the same ~eye(k1, k2) mask,
    # with k1 = 0, k1 = k2 and k2 = k1 + 1 at every q
    for q in ORBIT_QS:
        field = field_from_order(q)
        for k1 in range(4):
            for k2 in (k1, k1 + 1):
                free = ~np.eye(k1, k2, dtype=bool)[None]
                if q ** int(free.sum()) > 1 << 16:
                    continue
                mats = np.concatenate(list(oracle._subspace_blocks(field, free, np.zeros(free.shape, int), 1 << 15)))
                ranks = rank_many(field, mats).tolist()
                zero_sets = [frozenset(k1 + np.flatnonzero(~m[:, k1:].any(axis=0))) for m in mats]
                counts = count_zero_diag_oracle(k1, k2, q)
                assert counts.by_rank == dict(Counter(ranks)), (q, k1, k2)
                assert counts.by_rank_and_zero_set == dict(Counter(zip(ranks, zero_sets))), (q, k1, k2)


def test_count_support_oracle_equals_full_enumeration():
    for q in ORBIT_QS:
        field = field_from_order(q)
        for n in range(1, 6):
            for ell in range(1, n + 1):
                if qbinom(n, ell, q) <= FULL_PAIRS_LIMIT:
                    full = _full_blocks(field, n, ell, RandomModel.UNIFORM_SUBSPACE)
                    want = np.bincount((full != 0).any(axis=1).sum(axis=1), minlength=n + 1)
                    assert oracle.count_support_oracle(q, n, ell) == want.tolist(), (q, n, ell)


def test_count_support_oracle_matches_per_code_count():
    # the block count equals counting supports one code object at a time
    for q, nmax in [(2, 5), (3, 4), (4, 3), (9, 3)]:
        f = field_from_order(q)
        for n in range(1, nmax + 1):
            for ell in range(1, n + 1):
                want = Counter(len(support(c)) for c in enumerate_subspaces(f, n, ell))
                got = oracle.count_support_oracle(q, n, ell)
                assert got == [want[s] for s in range(n + 1)], (q, n, ell)


def test_monomial_invariance():
    f2 = field_make(2)
    parity = code_from_matrix(Mat(f2, [[1, 0, 1], [0, 1, 1]]))
    swap = Mat(f2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    res = monomial_invariance_check(parity, swap, 1)
    assert res.equal and res.expectation_original == res.expectation_image
    eye = Mat(f2, np.eye(3, dtype=np.int64))
    assert monomial_invariance_check(parity, eye, 2).equal
    with pytest.raises(NotMonomial):
        monomial_invariance_check(parity, Mat(f2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]), 1)


def test_monomial_invariance_wrong_size():
    f2 = field_make(2)
    parity = code_from_matrix(Mat(f2, [[1, 0, 1], [0, 1, 1]]))
    for wrong in (Mat(f2, [[1, 0], [0, 1]]), Mat(f2, [[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(NotMonomial, match="3 x 3"):
            monomial_invariance_check(parity, wrong, 1)


def test_monomial_invariance_gf7():
    c1, _ = mds63_gf7_codes()
    f7 = field_make(7)
    rng = np.random.default_rng(10)
    perm = rng.permutation(6)
    m = np.zeros((6, 6), dtype=np.int64)
    for i, j in enumerate(perm):
        m[i, j] = rng.integers(1, 7)
    res = monomial_invariance_check(c1, Mat(f7, m), 1)
    assert res.equal


def test_dual_distance_bound_holds_on_enumerated_pairs():
    # every non-degenerate systematic pair satisfies the dual-distance bound
    from starprod.codes import dual, is_degenerate, min_distance

    f2 = field_make(2)
    pairs = 0
    for c1 in enumerate_systematic(f2, 4, 2):
        if is_degenerate(c1):
            continue
        d1 = min_distance(dual(c1))
        for c2 in enumerate_systematic(f2, 4, 2):
            if is_degenerate(c2):
                continue
            d2 = min_distance(dual(c2))
            bound = min(4, c1.k + d2 - 2, c2.k + d1 - 2)
            assert star_product(c1, c2).k >= bound
            pairs += 1
    assert pairs > 0


def test_jensen_bound_below_exact_star_dim_grid():
    # the bound that the kernel expectation yields never exceeds the
    # exact mean star dimension, at any enumerable parameter point
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 5):
            for k1 in range(1, min(n, 3) + 1):
                for k2 in range(k1, min(n, 3) + 1):
                    p = Params(q, n, k1, k2)
                    bound = star_dim_lower_bound(p).bound
                    exact = exact_expected_star_dim(p, RandomModel.SYSTEMATIC)
                    assert bound <= float(exact) + 1e-12, (q, n, k1, k2)


def test_enumerators_validate_dimensions():
    f2 = field_make(2)
    from starprod.errors import BadRange

    with pytest.raises(BadRange):
        next(enumerate_systematic(f2, 3, 0))
    with pytest.raises(BadRange):
        next(enumerate_subspaces(f2, 3, 4))
    for ell in (0, 4):
        with pytest.raises(BadRange):
            oracle.count_support_oracle(2, 3, ell)


def test_enumeration_indices_beyond_int64_raise_too_large():
    # a raised budget must not let q**width indices wrap or overflow int64
    huge = EnumBudget(2**200)
    with pytest.raises(TooLarge):
        exact_expected_kernel(Params(2, 40, 2, 2), budget=huge)
    with pytest.raises(TooLarge):
        exact_expected_star_dim(Params(2, 40, 2, 2), RandomModel.UNIFORM_SUBSPACE, budget=huge)
    with pytest.raises(TooLarge):
        count_zero_diag_oracle(8, 9, 2, budget=huge)
    # the default budget refuses those 2**64 matrices before int64 indexing does
    with pytest.raises(BudgetExceeded):
        count_zero_diag_oracle(8, 9, 2)


# -- column-scaling orbit reduction -------------------------------------------

ORBIT_QS = (2, 3, 4, 5, 7, 8, 9)
FULL_PAIRS_LIMIT = 1 << 13  # pairs the full reference enumeration ranks per point


def _full_blocks(field, n, k, model):
    # int64, so that the reference ranks wide arrays whatever dtype the oracle uses
    masks = oracle._rref_masks(n, k, model)
    return np.concatenate(list(oracle._subspace_blocks(field, *masks, 1 << 15))).astype(np.int64)


def _full_histogram(field, stat, size, g1, g2):
    """Histogram of stat over every (g1[i], g2[j]) pair, enumerated in full."""
    jobs = [g1[i : i + 64] for i in range(0, len(g1), 64)]
    return dim_histogram(size, jobs, lambda g: [stat(field, g[:, None], g2[None])])


def _small_pair_points(model):
    for q in ORBIT_QS:
        for n in range(1, 6):
            for k1 in range(1, n + 1):
                for k2 in range(k1, n + 1):
                    if model is RandomModel.SYSTEMATIC:
                        count = systematic_count(q, n, k1) * systematic_count(q, n, k2)
                    else:
                        count = qbinom(n, k1, q) * qbinom(n, k2, q)
                    if count <= FULL_PAIRS_LIMIT:
                        yield Params(q, n, k1, k2)


def _one_outer_histogram(p, outer):
    """The intersection oracle's orbit-weighted histogram over every
    k2-subspace D of dim(outer meet D), outer a (k1, n) basis."""
    return oracle._fixed_histogram(field_from_order(p.q), outer, p.k2, meet_dims)


@pytest.mark.parametrize(
    "model, stat",
    [
        (RandomModel.SYSTEMATIC, star_dims),
        (RandomModel.UNIFORM_SUBSPACE, star_dims),
        (RandomModel.UNIFORM_SUBSPACE, meet_dims),
    ],
    ids=["star-systematic", "star-uniform", "intersection"],
)
def test_orbit_pair_histograms_equal_full_enumeration(model, stat):
    # the star-dim and kernel oracles share the star-dim histogram; the
    # intersection oracle's one outer subspace stands for all k1-subspaces
    points = list(_small_pair_points(model))
    assert {p.q for p in points} == set(ORBIT_QS)
    for p in points:
        field = field_from_order(p.q)
        if stat is star_dims:
            hist, count = oracle._pair_histogram(p, model, None)
        else:
            one = _one_outer_histogram(p, np.eye(p.k1, p.n))
            hist = [qbinom(p.n, p.k1, p.q) * c for c in one]
            count = qbinom(p.n, p.k1, p.q) * qbinom(p.n, p.k2, p.q)
        g1 = _full_blocks(field, p.n, p.k1, model)
        g2 = _full_blocks(field, p.n, p.k2, model)
        assert len(g1) * len(g2) == count
        assert hist == _full_histogram(field, stat, len(hist), g1, g2), p
        assert sum(hist) == count


def test_orbit_fixed_histograms_equal_full_enumeration():
    # the fixed-code oracle's C, and the intersection oracle's C0 = [I_k | 0]
    rng = np.random.default_rng(7)
    checked = set()
    for q in ORBIT_QS:
        field = field_from_order(q)
        for n in range(2, 6):
            for k in range(1, n):
                code = random_code(field, n, k, rng)
                for ell in range(1, n + 1):
                    count = qbinom(n, ell, q)
                    if count > FULL_PAIRS_LIMIT:
                        continue
                    g2 = _full_blocks(field, n, ell, RandomModel.UNIFORM_SUBSPACE)
                    assert count == len(g2)
                    for basis, stat in [(code.basis.data, star_dims), (np.eye(k, n, dtype=np.int64), meet_dims)]:
                        hist = oracle._fixed_histogram(field, basis, ell, stat)
                        assert hist == _full_histogram(field, stat, len(hist), basis[None], g2)
                        assert sum(hist) == count
                    checked.add(q)
    assert checked == set(ORBIT_QS)


def test_intersection_histogram_same_for_every_outer_subspace():
    # GL(n) is transitive on k1-subspaces: the unreduced histogram of
    # dim(C meet D) over every D, for a random C that no diagonal map
    # fixes, equals the one-outer orbit-weighted histogram of [I_k1 | 0]
    rng = np.random.default_rng(11)
    checked = 0
    for p in _small_pair_points(RandomModel.UNIFORM_SUBSPACE):
        if p.q == 2 or p.k1 == p.n:
            continue  # every subspace is then torus-fixed
        field = field_from_order(p.q)
        while True:
            c = random_code(field, p.n, p.k1, rng)
            if c.k == p.k1 and np.delete(c.basis.data, c.pivots, axis=1).any():
                break  # full rank, and not spanned by unit vectors
        one = _one_outer_histogram(p, np.eye(p.k1, p.n))
        g2 = _full_blocks(field, p.n, p.k2, RandomModel.UNIFORM_SUBSPACE)
        assert _full_histogram(field, meet_dims, len(one), c.basis.data[None], g2) == one, p
        checked += 1
    assert checked > 50


def test_intersection_histogram_same_for_torus_fixed_outer_subspaces():
    # diagonal maps fix the span of any k1 unit vectors, so the last k1
    # give the same orbit-weighted histogram as the first k1
    for p in _small_pair_points(RandomModel.UNIFORM_SUBSPACE):
        last = np.eye(p.k1, p.n, p.n - p.k1)
        assert _one_outer_histogram(p, last) == _one_outer_histogram(p, np.eye(p.k1, p.n)), p


def test_orbit_blocks_cover_every_basis_once():
    # expanding each representative by its column scalings gives every
    # RREF basis exactly once, with (q-1)**z bases per representative
    for q, n, k in [(3, 4, 2), (4, 4, 2), (5, 3, 1), (9, 3, 2)]:
        field = field_from_order(q)
        full = _full_blocks(field, n, k, RandomModel.UNIFORM_SUBSPACE)
        masks = oracle._rref_masks(n, k, RandomModel.UNIFORM_SUBSPACE)
        seen = []
        for mats, z in oracle._orbit_blocks(field, *masks, 5):
            for g, zi in zip(mats, z):
                nonpivot = [c for c in range(n) if g[:, c].any() and c not in np.argmax(g != 0, axis=1)]
                assert len(nonpivot) == zi
                assert all(g[np.argmax(g[:, c] != 0), c] == 1 for c in nonpivot)
                for scales in itertools.product(range(1, q), repeat=len(nonpivot)):
                    d = np.ones(n, dtype=np.int64)
                    d[nonpivot] = scales
                    seen.append(field.mul(g, d).tobytes())
        assert len(seen) == len(set(seen)) == len(full)
        assert set(seen) == {g.tobytes() for g in full}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_blocks_expand_to_every_filling_once(data):
    # arbitrary stacked masks (empty and full columns, gaps inside a
    # column, base entries in columns without free cells): each
    # representative's column scalings give every filling exactly once
    k, n, masks = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    free = data.draw(arrays(bool, (masks, k, n)))
    cells = int(free.sum(axis=(1, 2)).max())
    q = data.draw(st.sampled_from([q for q in ORBIT_QS if q**cells <= 1 << 12]))
    base = data.draw(arrays(np.int64, free.shape, elements=st.integers(0, q - 1)))
    base[free.any(axis=1, keepdims=True).repeat(k, axis=1)] = 0
    field = field_from_order(q)
    full = np.concatenate(list(oracle._subspace_blocks(field, free, base, 1 << 15)))
    reps, z = (np.concatenate(part) for part in zip(*oracle._orbit_blocks(field, free, base, 5)))
    # mask by mask, the product over its columns of 1 + (q**h - 1)/(q - 1) orbits
    heights = free.sum(axis=1)
    counts = np.prod(1 + (q**heights - 1) // (q - 1), axis=1)
    scalable = np.repeat(heights > 0, counts, axis=0)  # the columns a representative's mask lets scale
    assert len(reps) == len(scalable)
    assert (z == ((reps != 0).any(axis=1) & scalable).sum(axis=1)).all()
    cols = np.flatnonzero(scalable.any(axis=0))
    scales = np.ones(((q - 1) ** len(cols), n), dtype=np.int64)
    scales[:, cols] = list(itertools.product(range(1, q), repeat=len(cols)))
    d = np.where(scalable[:, None, :], scales, 1)[:, :, None, :]
    place = q ** np.arange(k * n, dtype=np.int64)  # one integer per matrix
    codes = np.sort(field.mul(reps[:, None], d).reshape(len(reps), len(scales), -1) @ place, axis=1)
    new = np.diff(codes, axis=1) != 0  # a filling not yet seen in the representative's orbit
    assert (1 + new.sum(axis=1) == (q - 1) ** z).all()
    orbits = np.concatenate([codes[:, 0], codes[:, 1:][new]])
    assert np.array_equal(np.sort(orbits), np.sort(full.reshape(len(full), -1) @ place))


def _orbit_listing(q, h):
    """Zero and the vectors of F_q^h whose topmost nonzero entry is 1, in
    increasing order when read top-down as base-q digits."""
    return [v for v in itertools.product(range(q), repeat=h) if not any(v) or v[np.flatnonzero(v)[0]] == 1]


def test_orbit_blocks_decode_columns_in_order_in_field_dtype():
    # a pivot set's non-pivot columns, of heights 1 to 3 here, run over the
    # brute-force listings in mixed-radix order, leftmost column first
    for q in ORBIT_QS:
        field = field_from_order(q)
        for n, k in [(4, 3), (5, 3), (4, 1)]:
            for free, base in zip(*oracle._rref_masks(n, k, RandomModel.UNIFORM_SUBSPACE)):
                pivots = np.flatnonzero(base.any(axis=0))
                cols = [c for c in range(n) if c not in pivots]
                heights = [sum(p < c for p in pivots) for c in cols]
                want = list(itertools.product(*(_orbit_listing(q, h) for h in heights)))
                got, z = [], []
                for mats, zs in oracle._orbit_blocks(field, free[None], base[None], 7):
                    assert mats.dtype == field._dtype
                    got += [tuple(tuple(g[:h, c].tolist()) for c, h in zip(cols, heights)) for g in mats]
                    z += zs.tolist()
                assert got == want, (q, n, k, pivots)
                assert z == [sum(map(any, combo)) for combo in want]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_index_inverts_orbit_blocks(data):
    # on one arbitrary mask, k = 0 included, each representative encodes to
    # its own index, and so does every column scaling of it
    k, n = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 4))
    free = data.draw(arrays(bool, (k, n)))
    q = data.draw(st.sampled_from([q for q in ORBIT_QS if q ** int(free.sum()) <= 1 << 12]))
    field = field_from_order(q)
    reps = np.concatenate([m for m, _ in oracle._orbit_blocks(field, free[None], np.zeros((1, k, n), dtype=np.int64), 5)])
    index = np.arange(len(reps))
    assert np.array_equal(oracle._orbit_index(field, free, reps), index)
    scales = data.draw(arrays(np.int64, (len(reps), 1, n), elements=st.integers(1, q - 1)))
    assert np.array_equal(oracle._orbit_index(field, free, field.mul(reps, scales)), index)


@st.composite
def _stacked_masks(draw):
    """(free, base, q): stacked masks drawn as in
    test_orbit_blocks_expand_to_every_filling_once."""
    k, n, masks = draw(st.integers(0, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    free = draw(arrays(bool, (masks, k, n)))
    cells = int(free.sum(axis=(1, 2)).max())
    q = draw(st.sampled_from([q for q in ORBIT_QS if q**cells <= 1 << 12]))
    base = draw(arrays(np.int64, free.shape, elements=st.integers(0, q - 1)))
    base[free.any(axis=1, keepdims=True).repeat(k, axis=1)] = 0
    return free, base, q


@settings(max_examples=60, deadline=None)
@given(_stacked_masks())
@example((np.zeros((2, 0, 3), dtype=bool), np.zeros((2, 0, 3), dtype=np.int64), 3))  # k = 0 rows
@example((np.ones((1, 2, 3), dtype=bool), np.zeros((1, 2, 3), dtype=np.int64), 3))  # 3 free columns, n - k = 1
@example((np.array([[[1, 0, 0], [0, 0, 0]], [[1, 1, 1], [0, 1, 1]]], bool), np.zeros((2, 2, 3), np.int64), 4))
def test_orbit_count_equals_full_enumeration(masks):
    # keyed by the rank and the number of nonzero columns, which column
    # scaling keeps, _orbit_count's weighted histogram is the full one
    free, base, q = masks
    field = field_from_order(q)
    _, k, n = free.shape
    size = (k + 1) * (n + 1)

    def key(mats):
        return rank_many(field, mats) * (n + 1) + (mats != 0).any(axis=1).sum(axis=1)

    full = np.concatenate(list(oracle._subspace_blocks(field, free, base, 1 << 15)))
    counts = oracle._orbit_count(field, free, base, size, lambda mats, offset: [key(mats) + offset])
    assert counts == np.bincount(key(full), minlength=size).tolist()


# -- the outer side, and permutation orbits on the systematic one -------------

SYSTEMATIC = RandomModel.SYSTEMATIC
UNIFORM = RandomModel.UNIFORM_SUBSPACE


def _column_scaling_histogram(p):
    """The systematic star-dimension histogram with every outer column-scaling
    representative ranked, each weighted by (q-1)**z1: no permutation orbits."""
    field = field_from_order(p.q)
    stat, size = pair_stat(p, SYSTEMATIC, star_dims)
    blocks = oracle._orbit_blocks(field, *oracle._rref_masks(p.n, p.k1, SYSTEMATIC), 1 << 15)
    g1, z1 = (np.concatenate(part) for part in zip(*blocks))
    weights = [(p.q - 1) ** z for z in range(p.n - p.k1 + 1)]
    return oracle._orbit_histogram(field, stat, size, weights, g1, z1, *oracle._rref_masks(p.n, p.k2, SYSTEMATIC))


def _side_representatives(q, n, k, model):
    """Column-scaling orbit representatives of the model's k-side: a column
    to the right of h pivots has 1 + (q**h - 1)/(q - 1) of them."""
    sets = [range(k)] if model is SYSTEMATIC else itertools.combinations(range(n), k)
    return sum(math.prod(1 + (q ** sum(t < j for t in s) - 1) // (q - 1) for j in range(n) if j not in s) for s in sets)


@pytest.mark.parametrize(
    "point",
    [(2, 6, 2, 2), (2, 6, 3, 3), (2, 5, 2, 3), (3, 5, 2, 3), (4, 5, 2, 3), (5, 4, 2, 2), (9, 4, 2, 2),
     (3, 4, 1, 3), (3, 4, 2, 4), (2, 6, 2, 5), (3, 5, 2, 4)],
)
def test_permutation_orbit_histograms_equal_column_scaling_only(point):
    # shapes where many outer representatives share an orbit; k2 = n and
    # (2, 6, 2, 5), (3, 5, 2, 4) label the k2 side, the others the k1 side
    p = Params(*point)
    hist, count = oracle._pair_histogram(p, SYSTEMATIC, None)
    assert hist == _column_scaling_histogram(p)
    assert sum(hist) == count
    _, _, z, maps, _ = oracle._outer_side(field_from_order(p.q), p, SYSTEMATIC)
    label = oracle._orbit_classes(maps, z, p.q)[0]
    assert all(np.array_equal(label[m], label) for m in maps)  # propagation ran to its fixed point


def _brute_orbit_count(q, n, k1, k2, k):
    """The number of orbits of the matrices A of systematic [I_k | A] over
    GF(q), q prime, under the module docstring's group, by brute force:
    rows and columns of A permuted within the coordinate blocks cut at k1
    and k2, and A -> D1 A D2 for invertible diagonal D1 and D2.  Each
    matrix is labelled by the least encoding in its orbit."""
    block = [(c >= k1) + (c >= k2) for c in range(n)]

    def block_perms(coords):  # every permutation of coords that keeps each coordinate's block
        for perm in itertools.permutations(range(len(coords))):
            if all(block[coords[i]] == block[coords[j]] for i, j in enumerate(perm)):
                yield list(perm)

    a = np.array(list(itertools.product(range(q), repeat=k * (n - k)))).reshape(-1, k, n - k)
    weights = q ** np.arange(k * (n - k))
    least = a.reshape(len(a), -1) @ weights
    units = range(1, q)
    for rows in block_perms(range(k)):
        for cols in block_perms(range(k, n)):
            moved = a[:, rows][:, :, cols]
            for d1 in itertools.product(units, repeat=k):
                for d2 in itertools.product(units, repeat=n - k):
                    image = moved * np.array(d1)[:, None] * np.array(d2) % q
                    least = np.minimum(least, image.reshape(len(a), -1) @ weights)
    return len(np.unique(least))


@pytest.mark.parametrize(
    "point,classes", [((3, 5, 2, 3), 30), ((4, 5, 2, 3), 32), ((5, 4, 2, 2), 9), ((7, 4, 2, 2), 10), ((9, 4, 2, 2), 11)]
)
def test_systematic_orbit_classes_pinned(point, classes):
    # the orbit classes _pair_histogram ranks at these points; rows scaled
    # by an element that does not generate F_q^* would split them finer,
    # and over prime fields the count equals a brute-force orbit count
    q, n, k1, k2 = point
    field = field_from_order(q)
    k, _, z, maps, _ = oracle._outer_side(field, Params(*point), SYSTEMATIC)
    assert len(oracle._orbit_classes(maps, z, q)[1]) == classes
    if field.m == 1:
        assert _brute_orbit_count(q, n, k1, k2, k) == classes


def _small_side_points():
    for model in (SYSTEMATIC, UNIFORM):
        for q in ORBIT_QS:
            for n in range(1, 7):
                for k1 in range(1, n + 1):
                    for k2 in range(k1, n + 1):
                        if oracle._items(model, q, n, k1) * oracle._items(model, q, n, k2) <= 1 << 20:
                            yield model, q, n, k1, k2


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(list(_small_side_points())))
def test_systematic_orbit_classes_property(point):
    # the outer side of both models, and the systematic side's permutation orbits
    model, q, n, k1, k2 = point
    pairs = oracle._items(model, q, n, k1) * oracle._items(model, q, n, k2)
    k, mats, z, maps, (free, _) = oracle._outer_side(field_from_order(q), Params(q, n, k1, k2), model)
    sides = [_side_representatives(q, n, side, model) for side in (k1, k2)]
    # the side with fewer representatives (k1 on a tie), at most the square root of the pairs
    assert k == (k1 if sides[0] <= sides[1] else k2)
    assert len(mats) == min(sides) <= math.isqrt(pairs)
    assert mats.shape[1] == k and free.shape[1] == k1 + k2 - k  # the inner side is the other one
    assert sum((q - 1) ** int(c) for c in z) == oracle._items(model, q, n, k)
    if model is UNIFORM:
        assert maps is None
        return
    label, reps, weights = oracle._orbit_classes(maps, z, q)
    index = np.arange(len(mats))
    assert sum(weights) == systematic_count(q, n, k)
    for m in maps:
        assert np.array_equal(np.sort(m), index)  # a permutation of the representatives
        assert np.array_equal(label[m], label)
    assert np.array_equal(reps, np.flatnonzero(label == index))
    assert (label <= index).all()


@pytest.mark.parametrize("point", [(2, 6, 2, 5), (3, 5, 2, 4), (2, 5, 2, 4), (2, 5, 1, 4)])
def test_uniform_outer_side_is_the_smaller_side(monkeypatch, point):
    # the first three take the k2 side outside; the tie (2, 5, 1, 4) keeps k1
    p = Params(*point)
    field = field_from_order(p.q)
    seen, orbit_histogram = [], oracle._orbit_histogram

    def recorded(field, stat, size, weights, g1, c1, free, base):
        seen.append((weights, g1, c1, free))
        return orbit_histogram(field, stat, size, weights, g1, c1, free, base)

    monkeypatch.setattr(oracle, "_orbit_histogram", recorded)
    hist, count = oracle._pair_histogram(p, UNIFORM, None)
    g1, g2 = (_full_blocks(field, p.n, k, UNIFORM) for k in (p.k1, p.k2))
    assert hist == _full_histogram(field, star_dims, len(hist), g1, g2)
    assert sum(hist) == count == len(g1) * len(g2)
    [(weights, outer, classes, free)] = seen
    k = p.k1 if point == (2, 5, 1, 4) else p.k2
    assert outer.shape[1] == k and free.shape[1] == p.k1 + p.k2 - k
    # one weight (q-1)**z per class z, and every class has a representative
    assert np.bincount(classes).all() and len(np.bincount(classes)) == len(weights)
    assert sum(weights[c] for c in classes) == qbinom(p.n, k, p.q)


def test_orbit_decode_sized_by_columns_not_by_k():
    # n = k leaves no non-pivot column, so q**k may exceed int64 indices
    assert exact_expected_star_dim(Params(2, 70, 70, 70), RandomModel.UNIFORM_SUBSPACE) == 70
    with pytest.raises(TooLarge):
        exact_expected_star_dim(Params(2, 64, 63, 63), RandomModel.UNIFORM_SUBSPACE, budget=EnumBudget(2**200))


def test_orbit_oracles_reach_new_ground_truth():
    # points the full enumeration could not reach under the default budget
    for p in (Params(7, 5, 2, 2), Params(5, 5, 2, 3)):
        count = systematic_count(p.q, p.n, p.k1) * systematic_count(p.q, p.n, p.k2)
        assert count > DEFAULT_BUDGET
        assert exact_expected_kernel(p, budget=EnumBudget(count)) == expected_kernel_size(p)
    for t in [(5, 4, 2, 2), (7, 4, 2, 2), (9, 4, 2, 2), (16, 4, 2, 2), (5, 5, 2, 3), (7, 5, 2, 2)]:
        p = Params(*t)
        budget = EnumBudget(qbinom(p.n, p.k1, p.q) * qbinom(p.n, p.k2, p.q))
        assert exact_expected_intersection(p, budget=budget) == expected_intersection_dim(p)
        assert budget.observed == budget.max_items


def test_budget_charges_items_represented():
    # each oracle passes at a budget of exactly its item count and raises
    # one item below it, however few orbit representatives it ranks
    c1, _ = mds63_gf7_codes()
    f3 = field_make(3)
    p = Params(3, 4, 2, 2)
    sys_count = systematic_count(3, 4, 2) ** 2
    uni_count = qbinom(4, 2, 3) ** 2
    calls = [
        (sys_count, lambda b: exact_expected_kernel(p, budget=b)),
        (sys_count, lambda b: exact_expected_star_dim(p, RandomModel.SYSTEMATIC, budget=b)),
        (uni_count, lambda b: exact_expected_star_dim(p, RandomModel.UNIFORM_SUBSPACE, budget=b)),
        (uni_count, lambda b: exact_expected_intersection(p, budget=b)),
        (qbinom(6, 2, 7), lambda b: exact_expected_star_dim_fixed(c1, 2, budget=b)),
        (systematic_count(3, 4, 2), lambda b: list(enumerate_systematic(f3, 4, 2, budget=b))),
        (qbinom(4, 2, 3), lambda b: list(enumerate_subspaces(f3, 4, 2, budget=b))),
        (3**9, lambda b: count_zero_diag_oracle(3, 4, 3, budget=b)),
        (qbinom(4, 2, 3), lambda b: oracle.count_support_oracle(3, 4, 2, budget=b)),
    ]
    for count, call in calls:
        budget = EnumBudget(max_items=count)
        call(budget)
        assert budget.observed == count
        with pytest.raises(BudgetExceeded):
            call(EnumBudget(max_items=count - 1))


def test_orbit_indices_beyond_int64_raise_too_large():
    # q = 7: 9 orbits per two-cell column, 9**20 >= 2**63 on the k = 2 side
    huge = EnumBudget(2**200)
    p = Params(7, 22, 1, 2)
    with pytest.raises(TooLarge):
        exact_expected_kernel(p, budget=huge)
    with pytest.raises(TooLarge):
        exact_expected_star_dim(p, RandomModel.UNIFORM_SUBSPACE, budget=huge)
    with pytest.raises(TooLarge):
        exact_expected_intersection(p, budget=huge)
    code = random_code(field_make(7), 22, 3, np.random.default_rng(1))
    with pytest.raises(TooLarge):
        exact_expected_star_dim_fixed(code, 2, budget=huge)


@pytest.mark.parametrize("subspace_block, pair_block", [(7, 5), (7, 2)])
def test_oracle_histograms_independent_of_block_sizes(monkeypatch, subspace_block, pair_block):
    # the uniform (3, 4, 1, 2) point's 15 outer rows outgrow either pair
    # block, so its inner slices are one row wide
    rng = np.random.default_rng(3)
    code = random_code(field_from_order(5), 5, 2, rng)
    points = [
        lambda: oracle._fixed_histogram(code.field, code.basis.data, 2, star_dims),
        lambda: oracle._pair_histogram(Params(3, 4, 1, 2), RandomModel.UNIFORM_SUBSPACE, None),
        lambda: oracle._pair_histogram(Params(3, 4, 2, 2), RandomModel.SYSTEMATIC, None),
        lambda: oracle._pair_histogram(Params(4, 4, 2, 2), RandomModel.UNIFORM_SUBSPACE, None),
        lambda: _one_outer_histogram(Params(3, 4, 2, 2), np.eye(2, 4)),
    ]
    built = []
    orbit_blocks = oracle._orbit_blocks

    def counted(field, free, base, block):
        for piece in orbit_blocks(field, free, base, block):
            built.append((free.shape[1], len(piece[1])))
            yield piece

    def inner_rows_built(call):
        # the inner side is the ell = 2 or k2 = 2 one; the uniform outer side has k1 = 1
        built.clear()
        call()
        return sum(rows for k, rows in built if k == 2)

    # the inner sides of the fixed-code point and of the uniform (3, 4, 1, 2) point
    inner = [
        (points[0], code.field, oracle._rref_masks(5, 2, RandomModel.UNIFORM_SUBSPACE)),
        (points[1], field_from_order(3), oracle._rref_masks(4, 2, RandomModel.UNIFORM_SUBSPACE)),
    ]
    reps = [sum(len(z) for _, z in orbit_blocks(field, *masks, 1 << 15)) for _, field, masks in inner]
    monkeypatch.setattr(oracle, "_orbit_blocks", counted)
    default = [call() for call in points]
    assert [inner_rows_built(call) for call, _, _ in inner] == reps  # one inner block, built once
    monkeypatch.setattr(oracle, "_SUBSPACE_BLOCK", subspace_block)
    monkeypatch.setattr(oracle, "_PAIR_BLOCK", pair_block)
    for _, field, masks in inner:
        assert len(list(oracle._packed(orbit_blocks(field, *masks, subspace_block), subspace_block))) > 1
    assert [call() for call in points] == default
    assert [inner_rows_built(call) for call, _, _ in inner] == reps  # several inner blocks, each built once
