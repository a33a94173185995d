"""Linear codes and their deterministic operations.

A LinearCode is a nonzero k-dimensional subspace of F_q^n held by its
canonical basis: the reduced row echelon form of any generator matrix.
Canonical storage makes code equality exact, which the enumeration and
expectation machinery relies on. When the pivot columns are the first k
coordinates the basis is literally a systematic generator [I_k | A] and
is exposed as such.

Operations (star product, dual, distance, projections, the deterministic
star-dimension lower bounds) are pure functions of their inputs.  Every
minimum distance is the least weight of a kernel: d(C) of the kernel of
a check matrix H, read off the RREF basis G, and d(C-dual), behind the
lower bound and the CSS-T distance floor, of the kernel of G.  One rule
computes it: the column girth of the matrix, t-column subsets ranked
level by level while their summed cost stays below enumerating the
kernel, and the kernel enumerated for a matrix still open after those
levels.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateInput,
    FieldMismatch,
    LengthMismatch,
    NeitherMDS,
    ZeroCode,
    ZeroDual,
)
from .fields import FieldSpec
from .matrices import Mat, _combine, _kernel_basis, rank, rank_many, rref, stack

DEFAULT_DISTANCE_BUDGET = 2**24
_BLOCK_CELLS = 1 << 20


class LinearCode:
    """A nonzero [n, k] code over a finite field, stored canonically."""

    __slots__ = ("field", "n", "k", "basis", "pivots", "systematic")

    def __init__(self, field: FieldSpec, basis: Mat, pivots: tuple):
        # trusted constructor: callers must pass an RREF basis of full rank
        self.field = field
        self.n = basis.cols
        self.k = basis.rows
        self.basis = basis
        self.pivots = pivots
        self.systematic = basis if pivots == tuple(range(self.k)) else None

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field.q, self.basis))

    def __repr__(self):
        return f"LinearCode([{self.n}, {self.k}] over {self.field!r})"


def code_from_matrix(m: Mat) -> LinearCode:
    """The code spanned by the rows of m, canonicalised."""
    red, pivots = rref(m)
    k = len(pivots)
    if k == 0:
        raise ZeroCode("matrix spans the zero subspace")
    return LinearCode(m.field, Mat._trusted(m.field, red.data[:k]), pivots)


def _check_pair(c1: LinearCode, c2: LinearCode) -> None:
    if c1.field != c2.field:
        raise FieldMismatch(f"codes over {c1.field!r} and {c2.field!r}")
    if c1.n != c2.n:
        raise LengthMismatch(f"code lengths differ: {c1.n} vs {c2.n}")


def pairwise_product_rows(field: FieldSpec, gens1: np.ndarray, gens2: np.ndarray) -> np.ndarray:
    """Componentwise products of every row pair, batched.

    gens1 has shape (..., k1, n) and gens2 (..., k2, n); the result has
    shape (..., k1*k2, n) and spans the star product of the row spaces.
    """
    prod = field.mul(gens1[..., :, None, :], gens2[..., None, :, :])
    return prod.reshape(prod.shape[:-3] + (prod.shape[-3] * prod.shape[-2], prod.shape[-1]))


def star_product(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """The span of all componentwise products of codewords.

    Computed as the row space of the k1*k2 pairwise products of basis
    rows, so dim <= min(k1*k2, n).  Raises ZeroCode in the degenerate
    situation where the supports of the two codes are disjoint.
    """
    _check_pair(c1, c2)
    rows = pairwise_product_rows(c1.field, c1.basis.data, c2.basis.data)
    return code_from_matrix(Mat(c1.field, rows))


def dual(c: LinearCode) -> LinearCode:
    """The orthogonal complement under the standard bilinear form."""
    if c.k == c.n:
        raise ZeroDual("the full space has zero dual")
    return code_from_matrix(Mat._trusted(c.field, _kernel_basis(c.field, c.basis.data, c.pivots)))


def _level_cells(n: int, r: int, t: int) -> int:
    """Estimated cells of ranking every t-column subset of an r x n matrix."""
    return math.comb(n, t) * r * t * min(r, t)


def _girth(field: FieldSpec, mats: np.ndarray, levels: int) -> np.ndarray:
    """For each matrix of a (P, r, n) stack, the least t <= levels such
    that some t of its columns have rank below t, or levels + 1 where no
    such t exists.

    Each level ranks the still-open matrices restricted to every t-subset,
    about _BLOCK_CELLS cells per `rank_many` call; a matrix closes at the
    first dependent subset.
    """
    count, r, n = mats.shape
    best = np.full(count, levels + 1, dtype=np.int64)
    live = np.arange(count)
    for t in range(1, levels + 1):
        subsets = itertools.combinations(range(n), t)
        while live.size:
            block = np.array(list(itertools.islice(subsets, max(1, _BLOCK_CELLS // (live.size * r * t)))))
            if not block.size:
                break
            sub = mats[live][:, :, block].transpose(0, 2, 1, 3).reshape(-1, r, t)
            closed = (rank_many(field, sub) < t).reshape(live.size, -1).any(axis=1)
            best[live[closed]] = t
            live = live[~closed]
    return best


def _kernel_min_weights(field: FieldSpec, mats: np.ndarray, kernel, budget: int) -> np.ndarray:
    """Minimum Hamming weights of the nonzero kernels {x : M x^T = 0} of a
    (P, r, n) stack of full-rank matrices M, r < n, as a length-P int64
    array; kernel(idx) returns the (len(idx), n - r, n) kernel bases of
    mats[idx].

    A nonzero kernel word is supported inside S iff the columns of M on S
    are dependent (MacWilliams-Sloane, ch. 1), so its least weight is the
    girth of M's columns, at most r + 1.  The budget is charged q**(n-r),
    the size of the kernel, first.  Levels t = 1, 2, ... of _girth run
    while their summed cells stay below enumerating the kernel,
    n (q**(n-r) - 1) / (q - 1); a matrix still open after a partial run
    has its kernel enumerated, and one open after all r levels has weight
    r + 1.
    """
    _, r, n = mats.shape
    q = field.q
    if q ** (n - r) > budget:
        raise BudgetExceeded(f"codeword enumeration q**k = {q}**{n - r} exceeds budget {budget}")
    enumerated = n * (q ** (n - r) - 1) // (q - 1)
    spent = itertools.accumulate(_level_cells(n, r, t) for t in range(1, r + 1))
    last = sum(1 for _ in itertools.takewhile(lambda cells: cells < enumerated, spent))
    best = _girth(field, mats, last)
    if last < r:
        live = np.flatnonzero(best > last)
        if live.size:
            best[live] = _enumerated_min_weights(field, kernel(live))
    return best


def _enumerated_min_weights(field: FieldSpec, bases: np.ndarray) -> np.ndarray:
    """Minimum weights of a (P, k, n) stack of full-rank bases by codeword
    enumeration.

    Enumerates one message per projective point (scaling keeps weights):
    for each lead position, the codewords lead row + digits . trailing
    rows over every digit vector of the trailing positions, in blocks of
    about _BLOCK_CELLS entries across messages and bases.  A block is laid
    out (bases, n, messages), so weights sum over a middle axis, and an
    entry is nonzero iff its trailing part differs from -lead.
    """
    count, k, n = bases.shape
    q = field.q
    cols = bases.transpose(0, 2, 1)
    best = np.full(count, n, dtype=np.int64)
    for lead in range(k):
        rest = k - lead - 1
        total = q**rest
        msgs = min(total, max(1, _BLOCK_CELLS // n))
        per_block = max(1, _BLOCK_CELLS // (msgs * n))
        powers = q ** np.arange(rest - 1, -1, -1, dtype=np.int64)[:, None]
        neg_lead = field.neg(cols[:, :, lead, None])
        for start in range(0, total, msgs):
            digits = np.arange(start, min(start + msgs, total), dtype=np.int64) // powers % q
            for s in range(0, count, per_block):
                part = slice(s, s + per_block)
                trail = _combine(field, cols[part, :, lead + 1 :], digits)
                best[part] = np.minimum(best[part], (trail != neg_lead[part]).sum(axis=1).min(axis=1))
            if (best == 1).all():
                return best
    return best


def min_distance(c: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> int:
    """Minimum Hamming weight of a nonzero codeword: the column girth of a
    check matrix H, or by enumerating the code where that is cheaper
    (_kernel_min_weights).  Raises BudgetExceeded when q**k > budget."""
    h = _kernel_basis(c.field, c.basis.data, c.pivots)
    return int(_kernel_min_weights(c.field, h[None], lambda live: c.basis.data[None], budget)[0])


def _dual_distance(c: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> int:
    """Minimum distance of the dual, min_distance(dual(c)): the column
    girth of c's basis G, or by enumerating a kernel basis of G where that
    is cheaper (_kernel_min_weights), with no canonical dual built.
    Raises ZeroDual when k = n and BudgetExceeded when q**(n-k) > budget,
    as min_distance(dual(c)) does.
    """
    if c.k == c.n:
        raise ZeroDual("the full space has zero dual")
    g = c.basis.data
    return int(_kernel_min_weights(c.field, g[None], lambda live: _kernel_basis(c.field, g, c.pivots)[None], budget)[0])


def support(c: LinearCode) -> frozenset:
    """Coordinates where some codeword is nonzero."""
    return frozenset(int(i) for i in np.nonzero(c.basis.data.any(axis=0))[0])


def is_degenerate(c: LinearCode) -> bool:
    return len(support(c)) != c.n


def project(c: LinearCode, coords) -> LinearCode:
    """The code of restrictions to the given coordinates, canonicalised."""
    idx = sorted(set(int(i) for i in coords))
    if not idx:
        raise ValueError("projection needs a nonempty coordinate set")
    if idx[0] < 0 or idx[-1] >= c.n:
        raise ValueError(f"coordinates outside [0, {c.n})")
    return code_from_matrix(Mat(c.field, c.basis.data[:, idx]))


def is_mds(c: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> bool:
    """Whether the code meets the Singleton bound, d = n - k + 1."""
    return min_distance(c, budget) == c.n - c.k + 1


def intersection_dim(c1: LinearCode, c2: LinearCode) -> int:
    """dim of the intersection, via k1 + k2 - rank of the stacked bases."""
    _check_pair(c1, c2)
    return c1.k + c2.k - rank(stack(c1.basis, c2.basis))


def is_subcode(inner: LinearCode, outer: LinearCode) -> bool:
    """Whether every codeword of inner lies in outer."""
    _check_pair(inner, outer)
    return rank(stack(outer.basis, inner.basis)) == outer.k


def _require_nondegenerate(c1: LinearCode, c2: LinearCode) -> None:
    if is_degenerate(c1) or is_degenerate(c2):
        raise DegenerateInput("both codes must have full support")


def star_lower_bound_dual_distance(
    c1: LinearCode, c2: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET
) -> int:
    """Dual-distance lower bound on dim of the star product.

    For non-degenerate codes the star dimension is at least
    min(n, k1 + d(dual of C2) - 2, k2 + d(dual of C1) - 2).
    """
    _check_pair(c1, c2)
    _require_nondegenerate(c1, c2)
    d1 = _dual_distance(c1, budget)
    d2 = _dual_distance(c2, budget)
    return min(c1.n, c1.k + d2 - 2, c2.k + d1 - 2)


def star_lower_bound_mds(
    c1: LinearCode, c2: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET
) -> int:
    """MDS lower bound min(n, k1 + k2 - 1) on dim of the star product.

    Valid for non-degenerate codes when at least one of them is MDS.
    """
    _check_pair(c1, c2)
    _require_nondegenerate(c1, c2)
    if not (is_mds(c1, budget) or is_mds(c2, budget)):
        raise NeitherMDS("the bound needs at least one MDS operand")
    return min(c1.n, c1.k + c2.k - 1)
