"""Exhaustive ground truth for the closed forms, at small parameters.

Everything here enumerates a finite probability space completely and
counts it into an exact histogram (_tally.dim_histogram), so results are
rationals the formula modules must match exactly.  Enumerations charge an
EnumBudget up front and fail loudly rather than truncate; an oracle that
silently samples is not an oracle.

Two enumeration orders matter and are deliberately different:

* systematic generators are enumerated as matrices (distinct matrices may
  share a row space), mirroring the systematic random model exactly; a
  generator [I_k | A] is the canonical RREF with pivot columns range(k);
* subspaces are enumerated once each via their canonical RREF bases
  (pivot column sets, then free entries), mirroring the uniform model.

The pair oracles rank one representative per column-scaling orbit.
Scaling a non-pivot column of an RREF basis by a nonzero scalar gives
another RREF basis with the same pivots, and dim(C1 star C2) does not
change when C1 or C2 is scaled column by column, each independently.  So
_orbit_blocks yields only the bases whose non-pivot columns are zero or
have topmost nonzero entry 1, each with z, its number of nonzero
non-pivot columns: it stands for (q-1)**z bases.  Histograms are keyed
by (z, dim) and weighted with Python ints at the end, so results stay
exact.  The star-dimension and kernel oracles reduce both sides and the
fixed-code oracle its enumerated side.  The intersection oracle is the
fixed-code oracle of the one outer subspace C0 = rowspace [I_k1 | 0]:
GL(n) is transitive on k1-subspaces, and diagonal maps fix C0 (see
exact_expected_intersection).  At q = 2 every orbit is a single basis
and nothing is saved.  _orbit_blocks decodes the representatives through
one shift table per call and builds them in field._dtype, like
_subspace_blocks and the fixed basis, so the star and meet products run
on the narrow arrays rank_many reduces.

Every oracle runs through _orbit_histogram on the calling thread;
_fixed_histogram's outer side is one basis, that of C or of C0.

An EnumBudget is charged the number of pairs (or subspaces) represented,
not the number of orbit representatives ranked, so an oracle call raises
BudgetExceeded at the same sizes whatever the enumeration ranks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from ._tally import dim_histogram, meet_dims, pair_stat, star_dims
from .codes import LinearCode, code_from_matrix
from .errors import BadRange, BudgetExceeded, NotMonomial, TooLarge
from .exact import Params, RandomModel, qbinom
from .fields import FieldSpec, _mod, field_from_order
from .matrices import Mat, _rref_cells, mat_mul, rank_many

DEFAULT_BUDGET = 2**26
_PAIR_BLOCK = 1 << 14
_SUBSPACE_BLOCK = 1 << 15
_OUTER_BLOCK = 64  # outer rows per batch of the pair oracles


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


def _index_count(radices) -> int:
    """Product of the mixed radices, or TooLarge when int64 indices
    cannot address that many."""
    total = math.prod(radices)
    if total >= 2**63:
        raise TooLarge(f"{total} enumeration indices overflow int64")
    return total


def _digit_blocks(radices, block: int) -> Iterator[np.ndarray]:
    """Mixed-radix digits, most significant first, of every index below
    the product of the radices, in blocks of at most block rows."""
    total = _index_count(radices)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        digits = np.empty((idx.size, len(radices)), dtype=np.int64)
        place = total
        for t, r in enumerate(radices):
            place //= r
            digits[:, t] = (idx // place) % r
        yield digits


def _pivot_sets(n: int, k: int, model: RandomModel) -> list:
    """A systematic generator [I_k | A] is the RREF with pivots range(k)."""
    if model is RandomModel.SYSTEMATIC:
        return [tuple(range(k))]
    return list(itertools.combinations(range(n), k))


def _fillings(free: np.ndarray, base: np.ndarray, q: int, block: int) -> Iterator[np.ndarray]:
    """Every filling of the free cells of base with entries in [0, q), as
    (B,) + base.shape blocks of at most block matrices, in lexicographic
    order of the free entries (row-major cell order)."""
    rows, cols = np.nonzero(free)
    for digits in _digit_blocks([q] * rows.size, block):
        mats = np.broadcast_to(base, (len(digits),) + base.shape).copy()
        mats[:, rows, cols] = digits
        yield mats


def _subspace_blocks(field: FieldSpec, n: int, k: int, block: int, pivot_sets) -> Iterator[np.ndarray]:
    """Canonical RREF bases of the k-dim subspaces with the given pivot
    column sets, as (B, k, n) tensors in field._dtype, pivot set by pivot
    set."""
    for pivots in pivot_sets:
        free, base = _rref_cells(np.isin(np.arange(n), pivots), k)
        yield from _fillings(free, base.astype(field._dtype), field.q, block)


def _orbit_blocks(field: FieldSpec, n: int, k: int, block: int, pivot_sets) -> Iterator[tuple]:
    """(mats, z) blocks, in field._dtype, of the canonical RREF bases with
    the given pivot column sets whose non-pivot columns are zero or have
    topmost nonzero entry 1, one per column-scaling orbit; z counts the
    nonzero non-pivot columns.  The free cells of a column c are its top
    h_c rows, h_c being the number of pivots left of c."""
    q = field.q
    # Read top-down as base-q digits, the representatives of a height-h
    # column are the integers below q**h whose leading digit is 0 or 1, in
    # increasing order: zero, then q**m + [0, q**m) for m = 0, 1, ..., from
    # orbit starts[m] = 1 + (q**m - 1)/(q - 1) on.  So orbit o is o +
    # shift[j], j = searchsorted(starts, o, "right"), and starts[h] is the
    # orbit count.  Only n > k leaves non-pivot columns, of height <= k.
    top = k if n > k else 0
    _index_count([q] * top)  # every representative is an int64 below q**top
    powers = q ** np.arange(top + 1, dtype=np.int64)
    starts = 1 + (powers - 1) // (q - 1)
    shift = np.concatenate(([0], powers[:-1] - starts[:-1]))
    for pivots in pivot_sets:
        free, base = _rref_cells(np.isin(np.arange(n), pivots), k)
        heights = free.sum(axis=0)
        cols = np.nonzero(heights)[0]
        rows, cell_cols = np.nonzero(free)
        cell_t = np.searchsorted(cols, cell_cols)
        place = powers[heights[cell_cols] - 1 - rows]
        base = base.astype(field._dtype)
        for orbits in _digit_blocks(starts[heights[cols]].tolist(), block):
            value = orbits + shift[np.searchsorted(starts, orbits, side="right")]
            mats = np.broadcast_to(base, (len(orbits), k, n)).copy()
            mats[:, rows, cell_cols] = _mod(value[:, cell_t] // place, q)
            yield mats, np.count_nonzero(orbits, axis=1)


def _packed(pieces, rows: int) -> Iterator[tuple]:
    """Consecutive (mats, z) pieces of at most rows rows each, concatenated
    into batches of at most rows rows, so that pivot sets with few
    representatives do not each cost a batch of their own."""

    def concat(buf):
        return buf[0] if len(buf) == 1 else tuple(np.concatenate(parts) for parts in zip(*buf))

    buf, size = [], 0
    for piece in pieces:
        if buf and size + len(piece[1]) > rows:
            yield concat(buf)
            buf, size = [], 0
        buf.append(piece)
        size += len(piece[1])
    if buf:
        yield concat(buf)


def _orbit_histogram(field: FieldSpec, stat, size: int, z_max: int, outer, n: int, k: int, pivots) -> list:
    """Exact histogram of stat over the pairs of a row of an outer (g1, z1)
    batch and an inner (g2, z2) orbit representative of the k-dim subspaces
    of F_q^n with the given pivot sets.  A pair stands for (q-1)**(z1 + z2)
    pairs, counted by the key z*size + dim and weighted at the end; stat
    sees about _PAIR_BLOCK pairs a call."""

    def inner_blocks():
        return _packed(_orbit_blocks(field, n, k, _SUBSPACE_BLOCK, pivots), _SUBSPACE_BLOCK)

    first = inner_blocks()
    head = list(itertools.islice(first, 2))
    # an inner side that fits one block is built once; otherwise the first
    # outer batch finishes the blocks already built and later batches rebuild
    started = [itertools.chain(head, first)]

    def blocks():
        if len(head) == 1:
            return head
        return started.pop() if started else inner_blocks()

    def keys(batch):
        g1, z1 = batch
        width = max(1, _PAIR_BLOCK // len(g1))
        for g2, z2 in blocks():
            for s in range(0, len(g2), width):
                g2s, z2s = g2[None, s : s + width], z2[None, s : s + width]
                yield stat(field, g1[:, None], g2s) + size * (z1[:, None] + z2s).ravel()

    keyed = dim_histogram(size * (z_max + 1), outer, keys)
    hist = [0] * size
    for key, c in enumerate(keyed):
        hist[key % size] += c * (field.q - 1) ** (key // size)
    return hist


def _mean(hist: list, count: int) -> Fraction:
    return Fraction(sum(d * c for d, c in enumerate(hist)), count)


def systematic_count(q: int, n: int, k: int) -> int:
    return q ** ((n - k) * k)


def _check_dims(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise BadRange(f"need 1 <= k <= n, got k={k} n={n}")


def enumerate_systematic(field: FieldSpec, n: int, k: int, budget=None) -> Iterator[LinearCode]:
    """Every systematic generator [I_k | A], one code object per matrix."""
    _check_dims(n, k)
    _budget(budget).charge(systematic_count(field.q, n, k))
    yield from _rref_codes(field, n, k, RandomModel.SYSTEMATIC)


def enumerate_subspaces(field: FieldSpec, n: int, k: int, budget=None) -> Iterator[LinearCode]:
    """Every k-dimensional subspace of F_q^n, exactly once."""
    _check_dims(n, k)
    _budget(budget).charge(qbinom(n, k, field.q))
    yield from _rref_codes(field, n, k, RandomModel.UNIFORM_SUBSPACE)


def _rref_codes(field: FieldSpec, n: int, k: int, model: RandomModel) -> Iterator[LinearCode]:
    """The codes of the model's canonical RREF bases, taken as they are."""
    for pivots in _pivot_sets(n, k, model):
        for block in _subspace_blocks(field, n, k, _SUBSPACE_BLOCK, [pivots]):
            for mat in block:
                # a copy, so that a code kept by the caller does not pin its block
                yield LinearCode(field, Mat._trusted(field, mat.astype(np.int64)), pivots)


def _pair_histogram(p: Params, model: RandomModel, budget) -> tuple:
    """Exact star-dimension histogram over every generator pair of the
    model, with the pair count.  Both sides run over column-scaling orbits
    (see the module docstring)."""
    field = field_from_order(p.q)
    stat, size = pair_stat(p, model, star_dims)
    if model is RandomModel.SYSTEMATIC:
        count = systematic_count(p.q, p.n, p.k1) * systematic_count(p.q, p.n, p.k2)
    else:
        count = qbinom(p.n, p.k1, p.q) * qbinom(p.n, p.k2, p.q)
    _budget(budget).charge(count)
    outer_pivots = _pivot_sets(p.n, p.k1, model)
    outer = _packed(_orbit_blocks(field, p.n, p.k1, _OUTER_BLOCK, outer_pivots), _OUTER_BLOCK)
    inner_pivots = _pivot_sets(p.n, p.k2, model)
    z_max = 2 * p.n - p.k1 - p.k2
    return _orbit_histogram(field, stat, size, z_max, outer, p.n, p.k2, inner_pivots), count


def exact_expected_kernel(p: Params, budget=None) -> Fraction:
    """Exact average kernel size of the bilinear evaluation map over all
    systematic generator pairs: per pair the kernel size is
    q**(k1*k2 - star dimension)."""
    hist, count = _pair_histogram(p, RandomModel.SYSTEMATIC, budget)
    kk = p.k1 * p.k2
    return Fraction(sum(c * p.q ** (kk - d) for d, c in enumerate(hist)), count)


def exact_expected_star_dim(p: Params, model: RandomModel, budget=None) -> Fraction:
    """Exact average star dimension over all pairs under the model."""
    return _mean(*_pair_histogram(p, model, budget))


def _fixed_histogram(field: FieldSpec, basis: np.ndarray, ell: int, stat) -> list:
    """Exact histogram of stat over the pairs of a (k, n) basis, the single
    outer batch of _orbit_histogram, and every ell-dim subspace D, D
    running over column-scaling orbits.  The caller charges the budget."""
    k, n = basis.shape
    outer = [(basis.astype(field._dtype)[None], np.zeros(1, dtype=np.int64))]
    pivots = _pivot_sets(n, ell, RandomModel.UNIFORM_SUBSPACE)
    return _orbit_histogram(field, stat, min(k * ell, n) + 1, n - ell, outer, n, ell, pivots)


def exact_expected_star_dim_fixed(
    c: LinearCode, ell: int, budget=None, threads: int = 1
) -> Fraction:
    """Exact average of dim(C star D) over all ell-dim subspaces D.

    threads is accepted for callers that pass it; the enumeration is not
    split and runs on the calling thread whatever its value.
    """
    _check_dims(c.n, ell)
    count = qbinom(c.n, ell, c.field.q)
    _budget(budget).charge(count)
    return _mean(_fixed_histogram(c.field, c.basis.data, ell, star_dims), count)


def exact_expected_intersection(p: Params, budget=None) -> Fraction:
    """Exact average of dim(C1 meet C2) over all subspace pairs: that of
    dim(C0 meet D) over all k2-subspaces D, for the one outer subspace
    C0 = rowspace [I_k1 | 0], D running over column-scaling orbits.

    * x -> xA maps C1 meet C2 A^-1 onto C1 A meet C2 for an invertible A,
      and C2 -> C2 A^-1 permutes the k2-subspaces, so C1 A and C1 have the
      same histogram over all C2.  GL(n) is transitive on k1-subspaces (a
      basis of C1 extends to one of F_q^n), so every C1 has that of C0.
    * An invertible diagonal T only scales the unit rows of [I_k1 | 0], so
      C0 T = C0 and dim(C0 meet D T) = dim(C0 T meet D T) = dim(C0 meet D).

    The budget is charged the qbinom(n,k1,q)*qbinom(n,k2,q) pairs represented.
    """
    inner = qbinom(p.n, p.k2, p.q)
    _budget(budget).charge(qbinom(p.n, p.k1, p.q) * inner)
    return _mean(_fixed_histogram(field_from_order(p.q), np.eye(p.k1, p.n), p.k2, meet_dims), inner)


def count_support_oracle(q: int, n: int, ell: int, budget=None) -> list:
    """Number of ell-dim subspaces of F_q^n with support size s, for
    s = 0..n, counted over their canonical RREF bases."""
    _check_dims(n, ell)
    _budget(budget).charge(qbinom(n, ell, q))
    pivots = _pivot_sets(n, ell, RandomModel.UNIFORM_SUBSPACE)
    blocks = _subspace_blocks(field_from_order(q), n, ell, _SUBSPACE_BLOCK, pivots)
    return dim_histogram(n + 1, blocks, lambda mats: [mats.any(axis=1).sum(axis=1)])


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
    if not 0 <= k1 <= k2:
        raise BadRange(f"need 0 <= k1 <= k2, got k1={k1} k2={k2}")
    field = field_from_order(q)
    free = ~np.eye(k1, k2, dtype=bool)
    _budget(budget).charge(q ** int(free.sum()))  # _fillings raises TooLarge past int64
    w = k2 - k1

    def keys(mats):
        zero_cols = (mats[:, :, k1:] == 0).all(axis=1)
        yield rank_many(field, mats) * (1 << w) + zero_cols @ (1 << np.arange(w, dtype=np.int64))

    blocks = _fillings(free, np.zeros((k1, k2), dtype=field._dtype), q, _SUBSPACE_BLOCK)
    counts = dim_histogram((k1 + 1) << w, blocks, keys)
    out = ZeroDiagCounts()
    for index, c in enumerate(counts):
        if c:
            r, mask = divmod(index, 1 << w)
            out.by_rank[r] = out.by_rank.get(r, 0) + c
            out.by_rank_and_zero_set[(r, frozenset(k1 + t for t in range(w) if mask >> t & 1))] = c
    return out


class MonomialCheck(NamedTuple):
    equal: bool
    expectation_original: Fraction
    expectation_image: Fraction


def monomial_invariance_check(c: LinearCode, m: Mat, ell: int, budget=None) -> MonomialCheck:
    """Compare the exact fixed-code star expectation of C and of C * M
    for a monomial matrix M; monomially equivalent codes must agree."""
    if m.rows != m.cols or m.rows != c.n or m.field != c.field:
        raise NotMonomial(f"need an {c.n} x {c.n} matrix over {c.field!r}")
    nz = m.data != 0
    if not ((nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all()):
        raise NotMonomial("matrix must have exactly one nonzero entry per row and column")
    image = code_from_matrix(mat_mul(c.basis, m))
    e1 = exact_expected_star_dim_fixed(c, ell, budget)
    e2 = exact_expected_star_dim_fixed(image, ell, budget)
    return MonomialCheck(e1 == e2, e1, e2)

