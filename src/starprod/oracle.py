"""Exhaustive ground truth for the closed forms, at small parameters.

Everything here enumerates a finite probability space completely and
counts it into an exact histogram (_tally.dim_histogram), so results are
rationals the formula modules must match exactly.  Enumerations charge an
EnumBudget up front and fail loudly rather than truncate; an oracle that
silently samples is not an oracle.

A space of matrices is a stack of (P, k, n) cell masks: free marks the
cells that run over F_q and base holds the fixed entries, none of them
in a column with free cells.  _rref_masks gives one mask per pivot
column set of the canonical RREF bases, so each subspace appears once
(uniform model); the systematic model's generators [I_k | A] are the
mask of pivots range(k) alone, taken as matrices.  _subspace_blocks
enumerates every filling, for enumerate_subspaces, enumerate_systematic
and the tests' unreduced references.

Every count ranks one representative per column-scaling orbit instead:
_orbit_blocks yields the fillings whose columns with free cells are zero
or have topmost nonzero entry 1, each with z, its number of such nonzero
columns, standing for (q-1)**z fillings (a Python-int weight, so results
stay exact); _orbit_index inverts it.  _orbit_count is the one counting
loop: it tallies and weights every count's keyed representatives.  Each
count states why its statistic is the same on a whole orbit.
dim(C1 star C2) does not change when C1 or C2 is scaled column by column,
each independently, so the pair oracles reduce both sides and the
fixed-code oracle its enumerated side; the intersection oracle is the
fixed-code oracle of rowspace [I_k1 | 0] (see exact_expected_intersection).
The star dimension and the systematic prefix peel are symmetric in the
codes, so _outer_side materialises the side with fewer representatives
as the one outer batch (no more than items, so at most the square root of
the pairs charged: 2**13 at the default budget), and the other side is
built once against it.  Every oracle runs on the calling thread.

The systematic pair oracles rank the outer side by orbits of a larger group:

* Let sigma permute the coordinates, mapping [0, k1), [k1, k2) and
  [k2, n) onto themselves.  (x star y) sigma = x sigma star y sigma, so
  dim(C1 sigma star C2 sigma) = dim(C1 star C2), and C -> C sigma maps
  the systematic codes of either dimension onto themselves.  With a
  diagonal D as above, sum_C2 f(C1 D sigma, C2) = sum_C2 f(C1, C2
  sigma^-1) = sum_C2 f(C1, C2), and likewise with the sides exchanged.
* On [I_k | A], sigma swaps rows of A where it permutes pivots and
  columns of A elsewhere, and D scales rows and columns of A.  So one A
  per orbit is ranked, weighted by the sum of (q-1)**z over the orbit.

An EnumBudget is charged the number of items (pairs, subspaces or
matrices) represented, from _items, the one count per side, not the
number of orbit representatives ranked, so an oracle call raises
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


def _rref_masks(n: int, k: int, model: RandomModel) -> tuple:
    """(free, base) masks, each (P, k, n), of the model's canonical RREF
    bases, one per pivot column set in lexicographic order."""
    sets = [range(k)] if model is RandomModel.SYSTEMATIC else itertools.combinations(range(n), k)
    pivots = np.array([np.isin(np.arange(n), s) for s in sets])
    return tuple(mask.transpose(2, 0, 1) for mask in _rref_cells(pivots.T, k))


def _subspace_blocks(field: FieldSpec, free: np.ndarray, base: np.ndarray, block: int) -> Iterator[np.ndarray]:
    """Every filling of the free cells of each mask with entries in
    [0, q), as (B, k, n) blocks of at most block matrices in field._dtype,
    mask by mask, in lexicographic order of the free entries (row-major
    cell order)."""
    for f, b in zip(free, base.astype(field._dtype)):
        rows, cols = np.nonzero(f)
        for digits in _digit_blocks([field.q] * rows.size, block):
            mats = np.broadcast_to(b, (len(digits),) + b.shape).copy()
            mats[:, rows, cols] = digits
            yield mats


def _orbit_tables(q: int, free: np.ndarray) -> tuple:
    """(depth, heights, powers, starts, shift) of stacked (P, k, n) masks.
    Top-down in base q, a column of h free cells has orbit representatives
    0, then q**m + [0, q**m) from orbit starts[m] = 1 + (q**m - 1)/(q - 1)
    on (m < h): orbit o is o + shift[searchsorted(starts, o, "right")] and
    v is orbit v - shift[searchsorted(powers, v, "right")].  A cell's digit
    place is h minus its depth in its column."""
    heights = free.sum(axis=1)
    top = int(heights.max(initial=0))
    _index_count([q] * top)  # every representative is an int64 below q**top
    powers = q ** np.arange(top + 1, dtype=np.int64)
    starts = 1 + (powers - 1) // (q - 1)
    return np.cumsum(free, axis=1), heights, powers, starts, np.concatenate(([0], powers[:-1] - starts[:-1]))


def _orbit_blocks(field: FieldSpec, free: np.ndarray, base: np.ndarray, block: int) -> Iterator[tuple]:
    """(mats, z) blocks, in field._dtype, of the fillings of each mask
    whose columns with free cells are zero or have topmost nonzero entry
    1, one per column-scaling orbit; z counts those nonzero columns."""
    depth, heights, powers, starts, shift = _orbit_tables(field.q, free)
    for f, b, d, h in zip(free, base.astype(field._dtype), depth, heights):
        cols = np.nonzero(h)[0]
        rows, cell_cols = np.nonzero(f)
        cell_t = np.searchsorted(cols, cell_cols)
        place = powers[h[cell_cols] - d[rows, cell_cols]]
        for orbits in _digit_blocks(starts[h[cols]].tolist(), block):
            value = orbits + shift[np.searchsorted(starts, orbits, side="right")]
            mats = np.broadcast_to(b, (len(orbits),) + b.shape).copy()
            mats[:, rows, cell_cols] = _mod(value[:, cell_t] // place, field.q)
            yield mats, np.count_nonzero(orbits, axis=1)


def _orbit_index(field: FieldSpec, free: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The index in _orbit_blocks' order over one (k, n) mask free of the
    orbit of each (B, k, n) filling, its columns first scaled to a topmost
    nonzero free cell 1 (field._inv[0] = 0 keeps a zero column).  A mask
    with no free cell has the one orbit 0."""
    if not free.any():
        return np.zeros(len(mats), dtype=np.int64)
    depth, heights, powers, starts, shift = _orbit_tables(field.q, free[None])
    h, cols = heights[0], np.flatnonzero(heights[0])
    cells = np.where(free, mats, 0)[:, :, cols]
    lead = np.take_along_axis(cells, np.argmax(cells != 0, axis=1)[:, None], axis=1)
    value = (field.mul(cells, field._inv[lead]) * powers[h - depth[0]][:, cols]).sum(axis=1)
    orbits = value - shift[np.searchsorted(powers, value, side="right")]
    radices = starts[h[cols]].tolist()
    return orbits @ np.array([math.prod(radices[t + 1 :]) for t in range(len(radices))], dtype=np.int64)


def _orbit_classes(maps: list, z: np.ndarray, q: int) -> tuple:
    """(label, reps, weights) of the orbits of [0, len(z)) under the group
    the index maps (permutations) generate: label is each index's least
    orbit mate, reps the labels in increasing order and weights each
    orbit's Python-int sum of (q-1)**z.  Propagation stops at label[i] <=
    label[m[i]] for all m, i: constant on each cycle, so on each orbit."""
    label, last = np.arange(len(z)), None
    while last is None or not np.array_equal(label, last):
        last = label
        for m in maps:
            label = np.minimum(label, label[m])
    reps, orbit = np.unique(label, return_inverse=True)
    return label, reps, _weighted(np.bincount(z * len(reps) + orbit).tolist(), len(reps), q)


def _weighted(keyed: list, size: int, q: int) -> list:
    """The histogram over [0, size) of a histogram keyed by z*size +
    value, each key weighted by the (q-1)**z fillings it stands for."""
    hist = [0] * size
    for key, c in enumerate(keyed):
        hist[key % size] += c * (q - 1) ** (key // size)
    return hist


def _packed(pieces, rows: int) -> Iterator[tuple]:
    """Consecutive (mats, z) pieces of at most rows rows each, concatenated
    into batches of at most rows rows, so that masks with few
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


def _orbit_count(field: FieldSpec, free, base, size: int, keys) -> list:
    """The histogram over [0, size) of the values keys(mats, offset) yields
    for each _SUBSPACE_BLOCK batch of orbit representatives of the masks,
    offset being size*z by row, weighted by the (q-1)**z fillings each
    stands for; z runs to the most columns with free cells in a mask."""
    z_top = int(free.any(axis=1).sum(axis=1).max(initial=0))
    blocks = _packed(_orbit_blocks(field, free, base, _SUBSPACE_BLOCK), _SUBSPACE_BLOCK)
    keyed = dim_histogram(size * (z_top + 1), blocks, lambda block: keys(block[0], size * block[1]))
    return _weighted(keyed, size, field.q)


def _orbit_histogram(field: FieldSpec, stat, size: int, weights: list, g1, c1, free, base) -> list:
    """Exact histogram of stat over the pairs of an outer generator g1[i] and
    an inner orbit representative of the masks, each standing for weights[c1[i]]
    (a Python int) * (q-1)**z2; stat sees about _PAIR_BLOCK pairs a call."""
    width, key1 = max(1, _PAIR_BLOCK // len(g1)), size * c1

    def keys(g2, offset):  # pairs inner-major: the outer batch varies fastest
        for s in range(0, len(g2), width):
            yield stat(field, g1, g2[s : s + width, None]) + (key1 + offset[s : s + width, None]).ravel()

    hist = _orbit_count(field, free, base, len(weights) * size, keys)
    return [sum(w * hist[c * size + d] for c, w in enumerate(weights)) for d in range(size)]


def _mean(hist: list, count: int) -> Fraction:
    return Fraction(sum(d * c for d, c in enumerate(hist)), count)


def systematic_count(q: int, n: int, k: int) -> int:
    return q ** ((n - k) * k)


def _items(model: RandomModel, q: int, n: int, k: int) -> int:
    """The number of items on one side of the model: systematic generator
    matrices or k-dimensional subspaces of F_q^n."""
    return systematic_count(q, n, k) if model is RandomModel.SYSTEMATIC else qbinom(n, k, q)


def _check_dims(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise BadRange(f"need 1 <= k <= n, got k={k} n={n}")


def enumerate_systematic(field: FieldSpec, n: int, k: int, budget=None) -> Iterator[LinearCode]:
    """Every systematic generator [I_k | A], one code object per matrix."""
    return _rref_codes(field, n, k, RandomModel.SYSTEMATIC, budget)


def enumerate_subspaces(field: FieldSpec, n: int, k: int, budget=None) -> Iterator[LinearCode]:
    """Every k-dimensional subspace of F_q^n, exactly once."""
    return _rref_codes(field, n, k, RandomModel.UNIFORM_SUBSPACE, budget)


def _rref_codes(field: FieldSpec, n: int, k: int, model: RandomModel, budget) -> Iterator[LinearCode]:
    """The codes of the model's canonical RREF bases, taken as they are;
    the dimensions are checked and the budget charged on the first next()."""
    _check_dims(n, k)
    _budget(budget).charge(_items(model, field.q, n, k))
    for free, base in zip(*_rref_masks(n, k, model)):
        pivots = tuple(np.flatnonzero(base.any(axis=0)).tolist())
        for block in _subspace_blocks(field, free[None], base[None], _SUBSPACE_BLOCK):
            for mat in block:
                # a copy, so that a code kept by the caller does not pin its block
                yield LinearCode(field, Mat._trusted(field, mat.astype(np.int64)), pivots)


def _outer_side(field: FieldSpec, p: Params, model: RandomModel) -> tuple:
    """(k, mats, z, maps, inner): the side k of (k1, k2) with fewer column-scaling
    representatives (k1 on a tie), its _orbit_blocks, the other side's masks, and the
    index maps (None for uniform pairs) of the module docstring's group's generators: the
    adjacent transpositions inside [0, k1), [k1, k2), [k2, n), at q > 2 each row times a generator of F_q^*."""
    q, n = field.q, p.n
    masks = {k: _rref_masks(n, k, model) for k in (p.k1, p.k2)}

    def representatives(k):  # _orbit_blocks' rows: per mask, the product of its radices
        _, heights, _, starts, _ = _orbit_tables(q, masks[k][0])
        return sum(_index_count(starts[h].tolist()) for h in heights)

    k = min(masks, key=representatives)
    (free, base), inner = masks[k], masks[p.k1 + p.k2 - k]
    mats, z = (np.concatenate(part) for part in zip(*_orbit_blocks(field, free, base, _SUBSPACE_BLOCK)))
    if model is not RandomModel.SYSTEMATIC:
        return k, mats, z, None, inner
    perms = [[*range(i), i + 1, i, *range(i + 2, n)] for i in range(n - 1) if i + 1 not in (p.k1, p.k2)]
    images = [mats[:, perm[:k]][:, :, perm] for perm in perms]  # a pivot swap also swaps rows
    # x = _exp[1] generates F_q^* where q > 2; a scaled row's pivot is not a free cell
    images += [field.mul(mats, np.where(np.arange(k) == r, field._exp[1], 1)[:, None]) for r in range(k if q > 2 else 0)]
    maps = _orbit_index(field, free[0], np.concatenate([mats[:0], *images])).reshape(-1, len(mats))
    return k, mats, z, maps, inner


def _pair_histogram(p: Params, model: RandomModel, budget) -> tuple:
    """Exact star-dimension histogram over every generator pair of the model, and
    the pair count: _outer_side's representatives in classes z of weight (q-1)**z,
    or one per systematic permutation orbit, against the other side's orbits."""
    field = field_from_order(p.q)
    stat, size = pair_stat(p, model, star_dims)
    count = _items(model, p.q, p.n, p.k1) * _items(model, p.q, p.n, p.k2)
    _budget(budget).charge(count)
    k, g1, z, maps, inner = _outer_side(field, p, model)
    c1, weights = z, [(p.q - 1) ** c for c in range(p.n - k + 1)]  # uniform pairs: classes z
    if maps is not None:  # one class per systematic permutation orbit
        _, reps, weights = _orbit_classes(maps, z, p.q)
        g1, c1 = g1[reps], np.arange(len(reps))
    return _orbit_histogram(field, stat, size, weights, g1, c1, *inner), count


def exact_expected_kernel(p: Params, budget=None) -> Fraction:
    """Exact average kernel size of the bilinear evaluation map over all
    systematic generator pairs, q**(k1*k2 - star dimension) per pair, from
    _pair_histogram's permutation orbits (see the module docstring)."""
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
    masks = _rref_masks(n, ell, RandomModel.UNIFORM_SUBSPACE)
    g1 = basis.astype(field._dtype)[None]
    return _orbit_histogram(field, stat, min(k * ell, n) + 1, [1], g1, np.zeros(1, dtype=np.int64), *masks)


def exact_expected_star_dim_fixed(
    c: LinearCode, ell: int, budget=None, threads: int = 1
) -> Fraction:
    """Exact average of dim(C star D) over all ell-dim subspaces D.

    threads is accepted for callers that pass it; the enumeration is not
    split and runs on the calling thread whatever its value.
    """
    _check_dims(c.n, ell)
    count = _items(RandomModel.UNIFORM_SUBSPACE, c.field.q, c.n, ell)
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
    inner = _items(RandomModel.UNIFORM_SUBSPACE, p.q, p.n, p.k2)
    _budget(budget).charge(_items(RandomModel.UNIFORM_SUBSPACE, p.q, p.n, p.k1) * inner)
    return _mean(_fixed_histogram(field_from_order(p.q), np.eye(p.k1, p.n), p.k2, meet_dims), inner)


def count_support_oracle(q: int, n: int, ell: int, budget=None) -> list:
    """Number of ell-dim subspaces of F_q^n with support size s, for
    s = 0..n, counted over column-scaling orbits of their canonical RREF
    bases: a column scaled by a nonzero scalar stays zero or nonzero, so
    every basis of an orbit has the same support."""
    _check_dims(n, ell)
    _budget(budget).charge(_items(RandomModel.UNIFORM_SUBSPACE, q, n, ell))
    masks = _rref_masks(n, ell, RandomModel.UNIFORM_SUBSPACE)
    return _orbit_count(field_from_order(q), *masks, n + 1, lambda mats, off: [mats.any(axis=1).sum(axis=1) + off])


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
    """Count every k1 x k2 matrix with zero diagonal by rank and by the
    exact set of zero columns among the last k2 - k1, over column-scaling
    orbits: a column scaled by a nonzero scalar keeps the zero diagonal,
    the rank and the set of zero columns."""
    if not 0 <= k1 <= k2:
        raise BadRange(f"need 0 <= k1 <= k2, got k1={k1} k2={k2}")
    field = field_from_order(q)
    free = ~np.eye(k1, k2, dtype=bool)[None]
    _budget(budget).charge(q ** int(free.sum()))  # _orbit_blocks raises TooLarge past int64 indices
    w = k2 - k1

    def keys(mats, offset):
        zero_cols = (mats[:, :, k1:] == 0).all(axis=1)
        yield rank_many(field, mats) * (1 << w) + zero_cols @ (1 << np.arange(w, dtype=np.int64)) + offset

    counts = _orbit_count(field, free, np.zeros(free.shape, dtype=np.int64), (k1 + 1) << w, keys)
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

