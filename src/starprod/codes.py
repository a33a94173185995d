"""Linear codes and their deterministic operations.

A LinearCode is a nonzero k-dimensional subspace of F_q^n held by its
canonical basis: the reduced row echelon form of any generator matrix.
Canonical storage makes code equality exact, which the enumeration and
expectation machinery relies on. When the pivot columns are the first k
coordinates the basis is literally a systematic generator [I_k | A] and
is exposed as such.

Operations (star product, dual, distance, projections, the deterministic
star-dimension lower bounds) are pure functions of their inputs.  Minimum
distance is found by codeword enumeration for low-rate codes and by ranks
of column subsets for high-rate ones, star products among them.  The dual
distance behind the lower bound and the CSS-T distance floor comes from
column-subset ranks of the code's own basis, with no dual basis built
unless enumerating the dual is cheaper.
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
from .matrices import Mat, _combine, rank, rank_many, rref, right_kernel_basis, stack

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
    return code_from_matrix(right_kernel_basis(c.basis))


def _min_weights(field: FieldSpec, bases: np.ndarray, budget: int) -> np.ndarray:
    """Minimum Hamming weights of the nonzero spans of a (P, k, n) stack
    of full-rank bases, as a length-P int64 array.

    The budget is charged q**k, the size of the span, whichever route
    runs.  The route is the cheaper, in estimated cells per basis, of
    codeword enumeration, n (q**k - 1) / (q - 1), and column-subset ranks,
    the sum over t = 1..n-k of C(n, t) k**2 (n - t); high-rate codes take
    the subsets, whose cost does not depend on q.  The subset count is
    below n q**k, so the budget bounds it too.
    """
    count, k, n = bases.shape
    q = field.q
    if q**k > budget:
        raise BudgetExceeded(f"codeword enumeration q**k = {q}**{k} exceeds budget {budget}")
    enumerated = n * (q**k - 1) // (q - 1)
    subsets = itertools.accumulate(_level_cells(n, k, n - t) for t in range(1, n - k + 1))
    if all(cells < enumerated for cells in subsets):
        return _subset_min_weights(field, bases)
    return _enumerated_min_weights(field, bases)


def _level_cells(n: int, k: int, size: int) -> int:
    """Estimated cells of ranking every size-column subset of a k x n basis."""
    return math.comb(n, size) * k * size * min(k, size)


def _deficient_level(field: FieldSpec, bases: np.ndarray, levels: list) -> np.ndarray:
    """For each basis of a (P, k, n) stack, the first level t (from 1)
    whose (size, target) = levels[t - 1] has some size-column subset of
    rank below target, or len(levels) + 1 where none has.

    Each level ranks the still-open bases restricted to every size-subset,
    about _BLOCK_CELLS cells per `rank_many` call; a basis closes at the
    first deficient rank.
    """
    count, k, n = bases.shape
    best = np.full(count, len(levels) + 1, dtype=np.int64)
    live = np.arange(count)
    for t, (size, target) in enumerate(levels, 1):
        subsets = itertools.combinations(range(n), size)
        while live.size:
            block = np.array(list(itertools.islice(subsets, max(1, _BLOCK_CELLS // (live.size * k * size)))))
            if not block.size:
                break
            sub = bases[live][:, :, block].transpose(0, 2, 1, 3).reshape(-1, k, size)
            closed = (rank_many(field, sub) < target).reshape(live.size, -1).any(axis=1)
            best[live[closed]] = t
            live = live[~closed]
    return best


def _subset_min_weights(field: FieldSpec, bases: np.ndarray) -> np.ndarray:
    """Minimum weights of a (P, k, n) stack of full-rank bases by column
    subsets: a nonzero codeword vanishes on S iff rank G_S < k
    (MacWilliams-Sloane, ch. 1), so d = min{t : rank G_S < k for some S
    of n - t columns}.  Levels t = 1, ..., n - k; a basis open after them
    is MDS, d = n - k + 1.
    """
    _, k, n = bases.shape
    return _deficient_level(field, bases, [(n - t, k) for t in range(1, n - k + 1)])


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
    """Minimum Hamming weight of a nonzero codeword: by column-subset ranks
    for high-rate codes, by codeword enumeration otherwise (_min_weights).
    Raises BudgetExceeded when q**k > budget."""
    return int(_min_weights(c.field, c.basis.data[None], budget)[0])


def _dual_distance(c: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> int:
    """Minimum distance of the dual, min_distance(dual(c)), read off the
    columns of c's basis G.

    A nonzero word of the dual is supported inside S iff the columns of G
    on S are dependent (MacWilliams-Sloane, ch. 1), so d(dual) is the
    least t with some t columns of rank below t, and k + 1 when no t <= k
    has one.  Levels t = 1, 2, ... run while their summed cells stay below
    enumerating the dual's q**(n-k) codewords, n (q**(n-k) - 1) / (q - 1);
    a code still open after them enumerates a kernel basis of G.
    Raises ZeroDual when k = n and BudgetExceeded when q**(n-k) > budget,
    as min_distance(dual(c)) does.
    """
    if c.k == c.n:
        raise ZeroDual("the full space has zero dual")
    q, n, k = c.field.q, c.n, c.k
    if q ** (n - k) > budget:
        raise BudgetExceeded(f"codeword enumeration q**k = {q}**{n - k} exceeds budget {budget}")
    enumerated = n * (q ** (n - k) - 1) // (q - 1)
    spent = itertools.accumulate(_level_cells(n, k, t) for t in range(1, k + 1))
    last = sum(1 for _ in itertools.takewhile(lambda cells: cells < enumerated, spent))
    d = int(_deficient_level(c.field, c.basis.data[None], [(t, t) for t in range(1, last + 1)])[0])
    if last < k and d > last:
        d = int(_enumerated_min_weights(c.field, right_kernel_basis(c.basis).data[None])[0])
    return d


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
