"""Exhaustive ground truth for the closed forms, at small parameters.

Everything here enumerates a finite probability space completely and
counts it into an exact histogram (_tally.dim_histogram), so results are
rationals the formula modules must match exactly.  Enumerations charge an
EnumBudget up front and fail loudly rather than truncate; an oracle that
silently samples is not an oracle.

Two enumeration orders matter and are deliberately different:

* systematic generators are enumerated as matrices (distinct matrices may
  share a row space), mirroring the systematic random model exactly;
* subspaces are enumerated once each via their canonical RREF bases
  (pivot column sets, then free entries), mirroring the uniform model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from ._tally import dim_histogram, meet_dims, star_dims
from .codes import LinearCode, code_from_matrix
from .errors import BadRange, BudgetExceeded, NotMonomial, TooLarge
from .exact import Params, RandomModel, qbinom
from .fields import FieldSpec, field_from_order
from .matrices import Mat, _rref_cells, mat_mul, rank_many

DEFAULT_BUDGET = 2**26
_PAIR_BLOCK = 1 << 14
_SUBSPACE_BLOCK = 1 << 15


@dataclass
class EnumBudget:
    """Item budget for exhaustive enumerations."""

    max_items: int = DEFAULT_BUDGET
    observed: int = 0

    def charge(self, count: int) -> None:
        self.observed += count
        if self.observed > self.max_items:
            raise BudgetExceeded(
                f"enumeration of {self.observed} items exceeds budget {self.max_items}"
            )


def _budget(budget) -> EnumBudget:
    return budget if budget is not None else EnumBudget()


def _index_count(q: int, width: int) -> int:
    """q**width, or TooLarge when int64 indices cannot address that many."""
    total = q**width
    if total >= 2**63:
        raise TooLarge(f"{q}**{width} enumeration indices overflow int64")
    return total


def _mixed_radix(idx: np.ndarray, q: int, width: int) -> np.ndarray:
    """Base-q digits of each index, most significant digit first."""
    out = np.empty((idx.size, width), dtype=np.int64)
    place = _index_count(q, width)
    for t in range(width):
        place //= q
        out[:, t] = (idx // place) % q
    return out


def _systematic_blocks(field: FieldSpec, n: int, k: int, block: int) -> Iterator[np.ndarray]:
    """All systematic generators [I_k | A] as (B, k, n) tensors, A in
    lexicographic order (first row first)."""
    q = field.q
    width = k * (n - k)
    total = _index_count(q, width)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        g = np.zeros((idx.size, k, n), dtype=np.int64)
        g[:, np.arange(k), np.arange(k)] = 1
        if width:
            g[:, :, k:] = _mixed_radix(idx, q, width).reshape(idx.size, k, n - k)
        yield g


def _subspace_blocks(field: FieldSpec, n: int, k: int, block: int, pivot_sets=None) -> Iterator[np.ndarray]:
    """Canonical RREF bases of all k-dim subspaces as (B, k, n) tensors.

    Iterates pivot column sets in lexicographic order, then free entries
    in lexicographic order (row-major cell order); restricting pivot_sets
    enumerates a slice.
    """
    q = field.q
    if pivot_sets is None:
        pivot_sets = itertools.combinations(range(n), k)
    for pivots in pivot_sets:
        free, base = _rref_cells(np.isin(np.arange(n), pivots), k)
        rows, cols = np.nonzero(free)
        total = _index_count(q, rows.size)
        for start in range(0, total, block):
            idx = np.arange(start, min(start + block, total), dtype=np.int64)
            mats = np.broadcast_to(base, (idx.size, k, n)).copy()
            if rows.size:
                mats[:, rows, cols] = _mixed_radix(idx, q, rows.size)
            yield mats


def systematic_count(q: int, n: int, k: int) -> int:
    return q ** ((n - k) * k)


def _check_dims(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise BadRange(f"need 1 <= k <= n, got k={k} n={n}")


def enumerate_systematic(field: FieldSpec, n: int, k: int, budget=None) -> Iterator[LinearCode]:
    """Every systematic generator [I_k | A], one code object per matrix."""
    _check_dims(n, k)
    _budget(budget).charge(systematic_count(field.q, n, k))
    for g in _systematic_blocks(field, n, k, _SUBSPACE_BLOCK):
        for mat in g:
            yield code_from_matrix(Mat(field, mat))


def enumerate_subspaces(field: FieldSpec, n: int, k: int, budget=None) -> Iterator[LinearCode]:
    """Every k-dimensional subspace of F_q^n, exactly once."""
    _check_dims(n, k)
    _budget(budget).charge(qbinom(n, k, field.q))
    for block in _subspace_blocks(field, n, k, _SUBSPACE_BLOCK):
        for mat in block:
            m = Mat(field, mat)
            pivots = tuple(int(np.argmax(row != 0)) for row in mat)
            yield LinearCode(field, m, pivots)


def _pair_histogram(p: Params, model: RandomModel, stat, budget) -> tuple:
    """Exact histogram of stat over every generator pair of the model,
    with the pair count.  Its length min(k1*k2, n) + 1 bounds both
    statistics, since an intersection has dim <= k1."""
    field = field_from_order(p.q)
    if model is RandomModel.SYSTEMATIC:
        blocks = _systematic_blocks
        count = systematic_count(p.q, p.n, p.k1) * systematic_count(p.q, p.n, p.k2)
    else:
        blocks = _subspace_blocks
        count = qbinom(p.n, p.k1, p.q) * qbinom(p.n, p.k2, p.q)
    _budget(budget).charge(count)

    def pairs(g1):
        inner = _PAIR_BLOCK // g1.shape[0]
        for g2 in blocks(field, p.n, p.k2, _SUBSPACE_BLOCK):
            for s2 in range(0, g2.shape[0], inner):
                yield g1[:, None], g2[None, s2 : s2 + inner]

    size = min(p.k1 * p.k2, p.n) + 1
    return dim_histogram(field, stat, size, blocks(field, p.n, p.k1, 64), pairs), count


def exact_expected_kernel(p: Params, budget=None) -> Fraction:
    """Exact average kernel size of the bilinear evaluation map over all
    systematic generator pairs: per pair the kernel size is
    q**(k1*k2 - star dimension)."""
    hist, count = _pair_histogram(p, RandomModel.SYSTEMATIC, star_dims, budget)
    kk = p.k1 * p.k2
    return Fraction(sum(c * p.q ** (kk - d) for d, c in enumerate(hist)), count)


def exact_expected_star_dim(p: Params, model: RandomModel, budget=None) -> Fraction:
    """Exact average star dimension over all pairs under the model."""
    hist, count = _pair_histogram(p, model, star_dims, budget)
    return Fraction(sum(d * c for d, c in enumerate(hist)), count)


def exact_expected_star_dim_fixed(
    c: LinearCode, ell: int, budget=None, threads: int = 1
) -> Fraction:
    """Exact average of dim(C star D) over all ell-dim subspaces D.

    One job per pivot column set, so threads > 1 runs the enumeration on
    several threads.
    """
    field = c.field
    _check_dims(c.n, ell)
    total_subspaces = qbinom(c.n, ell, field.q)
    _budget(budget).charge(total_subspaces)
    basis = c.basis.data[None]

    def pairs(pivots):
        for block in _subspace_blocks(field, c.n, ell, _SUBSPACE_BLOCK, [pivots]):
            yield basis, block

    pivot_sets = list(itertools.combinations(range(c.n), ell))
    hist = dim_histogram(field, star_dims, min(c.k * ell, c.n) + 1, pivot_sets, pairs, threads or 1)
    return Fraction(sum(d * cnt for d, cnt in enumerate(hist)), total_subspaces)


def exact_expected_intersection(p: Params, budget=None) -> Fraction:
    """Exact average of dim(C1 meet C2) over all subspace pairs."""
    hist, count = _pair_histogram(p, RandomModel.UNIFORM_SUBSPACE, meet_dims, budget)
    return Fraction(sum(d * c for d, c in enumerate(hist)), count)


@dataclass
class ZeroDiagCounts:
    """Exhaustive zero-diagonal matrix counts.

    by_rank maps rank -> count; by_rank_and_zero_set maps
    (rank, frozenset of all-zero columns among the trailing k2 - k1)
    -> count, with column indices in [k1, k2).
    """

    by_rank: dict = dc_field(default_factory=dict)
    by_rank_and_zero_set: dict = dc_field(default_factory=dict)


def count_zero_diag_oracle(k1: int, k2: int, q: int, budget=None) -> ZeroDiagCounts:
    """Enumerate every k1 x k2 matrix with zero diagonal and bucket by
    rank and by the exact set of zero columns among the last k2 - k1."""
    field = field_from_order(q)
    rows, cols = np.nonzero(~np.eye(k1, k2, dtype=bool))
    total = _index_count(q, rows.size)
    _budget(budget).charge(total)
    w = k2 - k1
    counts = np.zeros((k1 + 1) * (1 << w), dtype=np.int64)
    for start in range(0, total, _SUBSPACE_BLOCK):
        idx = np.arange(start, min(start + _SUBSPACE_BLOCK, total), dtype=np.int64)
        mats = np.zeros((idx.size, k1, k2), dtype=np.int64)
        mats[:, rows, cols] = _mixed_radix(idx, q, rows.size)
        ranks = rank_many(field, mats)
        if w:
            zero_cols = (mats[:, :, k1:] == 0).all(axis=1)
            masks = zero_cols @ (1 << np.arange(w, dtype=np.int64))
        else:
            masks = np.zeros(idx.size, dtype=np.int64)
        counts += np.bincount(ranks * (1 << w) + masks, minlength=counts.size)
    out = ZeroDiagCounts()
    for r in range(k1 + 1):
        rank_total = 0
        for mask in range(1 << w):
            c = int(counts[r * (1 << w) + mask])
            rank_total += c
            if c:
                cols = frozenset(k1 + t for t in range(w) if mask >> t & 1)
                out.by_rank_and_zero_set[(r, cols)] = c
        if rank_total:
            out.by_rank[r] = rank_total
    return out


class MonomialCheck(NamedTuple):
    equal: bool
    expectation_original: Fraction
    expectation_image: Fraction


def monomial_invariance_check(
    c: LinearCode, m: Mat, ell: int, budget=None, threads: int = 1
) -> MonomialCheck:
    """Compare the exact fixed-code star expectation of C and of C * M
    for a monomial matrix M; monomially equivalent codes must agree."""
    if m.rows != m.cols or m.rows != c.n or m.field != c.field:
        raise NotMonomial(f"need an {c.n} x {c.n} matrix over {c.field!r}")
    nz = m.data != 0
    if not ((nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all()):
        raise NotMonomial("matrix must have exactly one nonzero entry per row and column")
    image = code_from_matrix(mat_mul(c.basis, m))
    e1 = exact_expected_star_dim_fixed(c, ell, budget, threads)
    e2 = exact_expected_star_dim_fixed(image, ell, budget, threads)
    return MonomialCheck(e1 == e2, e1, e2)

