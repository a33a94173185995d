"""Dense matrices over a finite field: RREF, rank, kernels, text I/O.

A Mat wraps a read-only int64 numpy array of integer-encoded field
elements.  All operations are pure and return fresh matrices.  Pivoting
always picks the first nonzero entry scanning top to bottom, so the RREF
(and everything built on it) is canonical.

rank_many() is the batched workhorse used by the Monte Carlo and
enumeration code: it eliminates a whole (batch, rows, cols) tensor at
once, which is one to two orders of magnitude faster than per-matrix
calls at the sizes this package cares about.  It steps over the shorter
side (transposing wide batches), works on one column-major private copy,
marks pivot rows in place of swapping them and reaches them by flat
lane-major indices.  Over prime fields it reduces only the pivot column
and row, by fields._mod (floor division, a mask at q = 2), never ``%``,
which bounds every entry and lets the copy use the narrowest integer
dtype holding the bound.  Extension fields up to q = 256 eliminate on a
uint8 copy through the FieldSpec's q*q mul table; larger ones on an
int64 copy.  A batch over GF(2), GF(4), GF(8) or GF(16) of at least
64 m^2 matrices (q = 2^m) takes a bit-plane kernel instead: 64 lanes to
a uint64 word, one plane per bit of the encoding, and a bitsliced
elimination whose products are ANDs and XORs.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import FieldMismatch, TooLarge
from .fields import FieldSpec, _mod, field_from_order

MAX_SIDE = 4096


class Mat:
    """An immutable rows x cols matrix over a FieldSpec, built from integer
    or bool data."""

    __slots__ = ("field", "data")

    def __init__(self, field: FieldSpec, data):
        arr = np.asarray(data)
        if arr.size and arr.dtype.kind not in "biu":
            raise ValueError(f"matrix entries must be integers in [0, {field.q}), got {arr.dtype} data")
        arr = np.array(arr, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        if max(arr.shape, default=0) > MAX_SIDE:
            raise TooLarge(f"matrix side {max(arr.shape)} exceeds limit {MAX_SIDE}")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise ValueError(f"entries must lie in [0, {field.q})")
        arr.flags.writeable = False
        self.field = field
        self.data = arr

    @classmethod
    def _trusted(cls, field: FieldSpec, data: np.ndarray) -> "Mat":
        """A Mat over an array the package built: 2-D int64 with entries in
        [0, q) and sides within MAX_SIDE, taken as is (no copy, no checks)
        and made read-only."""
        self = object.__new__(cls)
        data.flags.writeable = False
        self.field = field
        self.data = data
        return self

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def transpose(self) -> "Mat":
        return Mat(self.field, self.data.T)

    def __getitem__(self, idx) -> int:
        return int(self.data[idx])

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.shape == other.shape
            and (self.data == other.data).all()
        )

    def __hash__(self):
        return hash((self.field.q, self.shape, self.data.tobytes()))

    def __repr__(self):
        return f"Mat({self.field!r}, shape={self.shape})"


def zeros(field: FieldSpec, rows: int, cols: int) -> Mat:
    return Mat(field, np.zeros((rows, cols), dtype=np.int64))


def identity(field: FieldSpec, n: int) -> Mat:
    return Mat(field, np.eye(n, dtype=np.int64))


def stack(a: Mat, b: Mat) -> Mat:
    if a.field != b.field:
        raise FieldMismatch("cannot stack matrices over different fields")
    if a.cols != b.cols:
        raise ValueError("cannot stack matrices with different column counts")
    return Mat(a.field, np.vstack([a.data, b.data]))


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Matrix product over the common field."""
    if a.field != b.field:
        raise FieldMismatch("cannot multiply matrices over different fields")
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    return Mat(a.field, _combine(a.field, a.data, b.data))


def _combine(field: FieldSpec, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The field matrix product of broadcastable (..., m, r) and (..., r, n)
    stacks: entry (i, j) is the sum over t of coeffs[i, t] * rows[t, j]."""
    if field.m == 1 or coeffs.shape[-1] == 0:
        # exact in int64, as entries < 2**16 and r <= 4096; r = 0 gives the zero product
        return _mod(np.matmul(coeffs, rows), field.q)
    out = field.mul(coeffs[..., :, :1], rows[..., :1, :])
    for t in range(1, coeffs.shape[-1]):
        out = field.add(out, field.mul(coeffs[..., :, t : t + 1], rows[..., t : t + 1, :]))
    return out


def rref(m: Mat) -> tuple:
    """Reduced row echelon form and its pivot columns.

    Returns (R, pivots) where R is the unique RREF of m and pivots is a
    strictly increasing tuple of column indices; rank = len(pivots).

    Each pivot scales its row by one inverse-table lookup and clears its
    column in every other row with one outer product.  Over prime fields
    the scaled row and the product stay unreduced (below q**3 <= 2**48)
    until one ``% q`` of the whole matrix per pivot.
    """
    f = m.field
    prime = f.m == 1
    a = m.data.copy()
    nr, nc = a.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        row = a[r]
        piv = int(row[c])
        if piv != 1:
            row = row * int(f._inv[piv]) if prime else f.mul(row, int(f._inv[piv]))
        col = a[:, c].copy()
        col[r] = 0
        a[r] = row
        if prime:
            a -= col[:, None] * row
            a %= f.q
        else:
            a = f.sub(a, f.mul(col[:, None], row[None, :]))
        pivots.append(c)
        r += 1
    return Mat._trusted(f, a), tuple(pivots)


def _rref_cells(pivots: np.ndarray, k: int) -> tuple:
    """(free, ones) bool masks of the canonical k x n RREFs with the pivot
    columns marked in an (n, ...) bool array: free marks the cells (i, c)
    with c right of row i's pivot and not a pivot, ones the pivot 1s.
    Both are (k, n, ...): the batch axes come last, so that each step
    works on whole rows of lanes; callers that want (..., k, n) take the
    transposed view, which numpy's broadcasts iterate in memory order."""
    # rows[c]: pivots at or left of column c, so rows i < rows[c] are pivoted by c;
    # summed row by row, since np.cumsum(axis=0) walks each lane's column (7-12x slower)
    rows = pivots.astype(np.intp)
    for c in range(1, len(rows)):
        rows[c] += rows[c - 1]
    i = np.arange(k).reshape((k,) + (1,) * pivots.ndim)
    return (rows > i) & ~pivots, (rows == i + 1) & pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def right_kernel_basis(m: Mat) -> Mat:
    """A basis (as rows) of {x : m @ x.T = 0}, one row per free column."""
    red, pivots = rref(m)
    return Mat._trusted(m.field, _kernel_basis(m.field, red.data, pivots))


def _kernel_basis(field: FieldSpec, red: np.ndarray, pivots: tuple) -> np.ndarray:
    """The kernel basis of an RREF red with the given pivot columns, as an
    int64 array with one row per free column c: 1 at c and minus column c
    of red at the pivots."""
    n = red.shape[1]
    free = [c for c in range(n) if c not in pivots]
    out = np.zeros((len(free), n), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, list(pivots)] = field.neg(red[: len(pivots), free].T)
    return out


def rank_many(field: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Ranks of a (batch, rows, cols) tensor of encoded entries, as int64.

    Forward elimination vectorised across the batch, one step per column
    of the shorter side (rank M = rank M^T, so a wide batch is transposed).
    The input is copied once, never modified, into a column-major
    (steps, batch, rows) array, so a step updates the remaining columns as
    one contiguous block.  Rows are never swapped: a boolean mask marks the
    pivot rows, each pivot is the first unmarked row with a nonzero entry,
    and only unmarked rows are eliminated; the rank is the number marked.
    The mask is flat and lane-major, so lane b's pivot, b * rows + its
    argmax, is marked and its value and row read by 1-D takes and puts.
    Its inverse is read straight from _inv: _inv[0] = 0 scales a lane
    without a pivot by 0, and that lane eliminates nothing anyway.

    Prime fields defer reduction: a step reduces only the pivot column and
    the pivot row, by fields._mod (no ``%``), and the rest loses a product
    of two values in [0, q) unreduced.  An entry loses at most steps - 1
    such products, so it stays in [low, q - 1], low = -(steps - 1)(q - 1)^2,
    and the copy takes the narrowest signed integer dtype holding that range
    (int8 for GF(2) up to 129 steps, on batches too small for the bit
    planes; int64 is enough for any q <= 2^16 and side <= 4096).  A
    reduced pivot-row entry times the inverse, at most (q - 1)^2, fits
    too: a step that scales has -low >= (q - 1)^2 (steps >= 2), and the
    dtype's -min, an odd power of two, is no square.
    Extension fields use the FieldSpec arithmetic, which keeps entries in
    [0, q): the copy is uint8 up to q = 256, where mul is one q*q table
    lookup, and int64 above.  Subtraction is XOR for p = 2; for odd p the
    digit-table sum returns int64, which the copy casts back.

    A batch over GF(2^m), m <= 4, of at least 64 m^2 lanes is ranked on
    bit planes instead (_plane_rank; _takes_planes is the rule).  The
    rule rests on timings of both paths, best of 25 on 2 vCPUs with numpy
    2.4, over shapes (2, 4), (4, 4), (5, 5), (6, 6), (16, 4), (10, 6)
    and (9, 12): the planes overtook the path above at 32-64 lanes over
    GF(2), 192-256 over GF(4), 384-512 over GF(8) and 768-1024 over
    GF(16), and read 3.2-6.4x, 3.3-5.4x, 2.4-3.6x and 1.8-2.4x as fast
    at 4096 lanes.  Over GF(32) they read 0.8-1.0x at 1024 lanes.
    """
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ValueError("rank_many expects a (batch, rows, cols) tensor")
    B, R, C = mats.shape
    if B == 0 or R == 0 or C == 0:
        return np.zeros(B, dtype=np.int64)
    if _takes_planes(field, B):
        return _plane_rank(field, mats.transpose(0, 2, 1) if R >= C else mats)
    steps = min(R, C)
    q = field.q
    prime = field.m == 1
    # -max(low, q) fits a signed dtype exactly when -low and q - 1 both do
    dtype = np.min_scalar_type(-max((steps - 1) * (q - 1) ** 2, q)) if prime else field._dtype
    m = np.array(mats.transpose(2, 0, 1) if R >= C else mats.transpose(1, 0, 2), dtype=dtype, order="C")
    prod = np.empty_like(m[1:]) if prime else None
    used = np.zeros(m[0].size, dtype=bool)
    base = np.arange(0, used.size, m.shape[2])
    for c in range(steps):
        col = _mod(m[c], q) if prime else m[c]
        cand = col.ravel() != 0
        cand &= ~used
        flat = cand.reshape(B, -1).argmax(axis=1) + base
        has = cand.take(flat)
        if not has.any():
            continue
        used[flat] |= has
        if c + 1 == steps:
            break
        cand[flat] = False
        rest = m[c + 1 :]
        pivinv = field._inv.take(col.take(flat)).astype(dtype)
        prow = rest.reshape(len(rest), -1).take(flat, axis=1)
        elim = (col * cand.reshape(B, -1))[None]
        if prime:
            out = prod[: len(rest)]
            np.multiply(_mod(_mod(prow, q) * pivinv, q)[:, :, None], elim, out=out)
            rest -= out
        else:
            rest[...] = field.sub(rest, field.mul(field.mul(prow, pivinv)[:, :, None], elim))
    return used.reshape(B, -1).sum(axis=1, dtype=np.int64)


def _takes_planes(field: FieldSpec, lanes: int) -> bool:
    """Whether rank_many ranks a batch of this many lanes by _plane_rank:
    over GF(2^m), m <= 4, from 64 m^2 lanes (m^2 words of lanes) on."""
    return field.p == 2 and field.m <= 4 and lanes >= 64 * field.m**2


@functools.lru_cache(maxsize=None)
def _plane_constants(field: FieldSpec) -> np.ndarray:
    """The structure constants of GF(2^m) as uint64 masks, all ones where a
    bit is set: c[i, a, k, j] is bit k of e_a * e_j^(2^i), i < m, for the
    basis elements e_j = 2^j = x^j.  They are read from field.mul, so they
    reduce by the computed modulus; c[0] holds the products e_a * e_j."""
    e = 1 << np.arange(field.m)
    frob = [e]  # frob[i] = e^(2^i)
    for _ in range(1, field.m):
        frob.append(field.mul(frob[-1], frob[-1]))
    prod = field.mul(e[:, None], np.array(frob)[:, None, :]).astype(np.int64)  # [i, a, j]
    out = np.where(prod[:, :, None, :] & e[:, None] != 0, ~np.uint64(0), np.uint64(0))
    out.flags.writeable = False
    return out


def _plane_times(consts: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrices of multiplication by the elements whose bit planes are
    b (..., m, W): out[..., a, k, :] is plane k of e_a * b, the XOR of the
    planes j of b with consts[a, k, j] set."""
    return np.bitwise_xor.reduce(b[..., None, None, :, :] & consts[..., None], axis=-2)


def _plane_apply(mat: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The planes of a * b from the planes of a (m, ...) and the
    multiplication matrices of b (m, m, ...): the XOR over i of a_i & mat[i]."""
    return np.bitwise_xor.reduce(a[:, None] & mat, axis=0)


def _plane_inverse(consts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The multiplication matrices (m, m, W) of x^-1 over GF(2^m), m >= 2,
    for the planes x (m, W), zero where x = 0: x^-1 = x^(2^m - 2) is the
    product of the Frobenius powers x^(2^i), i = 1..m-1, each of whose
    matrices is GF(2)-linear in x (consts[i]), so their matrix product
    is the inverse's."""
    powers = _plane_times(consts[1:], x)
    inv = powers[0]
    for mat in powers[1:]:
        inv = np.bitwise_xor.reduce(inv[:, :, None] & mat, axis=1)
    return inv


def _plane_rank(field: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """rank_many over GF(2^m) on bit planes, for a (batch, steps, rows)
    tensor with steps <= rows.

    Lane b of the batch is bit b % 64 of word b // 64 (packbits, little
    bit order, viewed as uint64; only bitwise operations follow, so the
    lanes stay put on any byte order).  The copy holds, per step and
    plane, one row of words per row: (steps, m, rows, words).  At each
    step a lane's candidates are its unused rows with a nonzero entry, its
    pivot the first of them, found as the new bits of a prefix OR over
    the rows; one OR-reduce reads the pivot row.  The other candidates
    lose their entry times the pivot's inverse times the pivot row, a
    bitsliced product: m^2 ANDs per step, XOR-reduced through the
    structure constants.  The rank of a lane is the popcount of its used
    rows, read by one unpackbits.
    """
    B, steps, rows = mats.shape
    m = field.m
    words = -(-B // 64)
    lanes = np.array(mats.transpose(1, 2, 0), dtype=np.uint8, order="C")  # exact for entries in [0, 16)
    planes = np.zeros((steps, m, rows, 8 * words), dtype=np.uint8)
    for j in range(m):
        planes[:, j, :, : -(-B // 8)] = np.packbits(lanes & (1 << j), axis=-1, bitorder="little")
    planes = planes.view(np.uint64)
    consts = _plane_constants(field)
    used = np.zeros((rows, words), dtype=np.uint64)
    for c in range(steps):
        col = planes[c]
        cand = np.bitwise_or.reduce(col, axis=0) & ~used
        first = np.bitwise_or.accumulate(cand, axis=0)
        if not first[-1].any():
            continue
        first[1:] ^= first[:-1]  # the first candidate of each lane
        used |= first
        if c + 1 == steps:
            break
        piv = np.bitwise_or.reduce(planes[c:] & first, axis=2)  # (steps - c, m, words)
        other = col & (cand ^ first)
        rest = planes[c + 1 :]
        if m == 1:  # every pivot is 1
            rest[:, 0] ^= other[0] & piv[1:, 0, None]
            continue
        other = _plane_apply(_plane_inverse(consts, piv[0])[:, :, None], other)
        times = _plane_times(consts[0], piv[1:])  # (steps - c - 1, m, m, words)
        rest ^= np.bitwise_xor.reduce(other[None, :, None] & times[:, :, :, None], axis=1)
    bits = np.unpackbits(used.view(np.uint8), axis=1, count=B, bitorder="little")
    return bits.sum(axis=0, dtype=np.int64)


# -- text format ------------------------------------------------------------
#
# Line 1: "q rows cols"; then `rows` lines of `cols` whitespace-separated
# integers in [0, q) using the element encoding.  Blank lines and lines
# starting with '#' are ignored.


def format_matrix(m: Mat) -> str:
    lines = [f"{m.field.q} {m.rows} {m.cols}"]
    for row in m.data:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Mat:
    data_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_lines.append(stripped)
    if not data_lines:
        raise ValueError("empty matrix file")
    header = data_lines[0].split()
    if len(header) != 3:
        raise ValueError(f"bad header {data_lines[0]!r}, expected 'q rows cols'")
    q, nrows, ncols = (int(tok) for tok in header)
    field = field_from_order(q)
    if len(data_lines) - 1 != nrows:
        raise ValueError(f"expected {nrows} rows, found {len(data_lines) - 1}")
    grid = []
    for line in data_lines[1:]:
        row = [int(tok) for tok in line.split()]
        if len(row) != ncols:
            raise ValueError(f"expected {ncols} columns, found {len(row)}")
        grid.append(row)
    return Mat(field, np.array(grid).reshape(nrows, ncols))


def save_matrix(m: Mat, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(m))


def load_matrix(path) -> Mat:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())
