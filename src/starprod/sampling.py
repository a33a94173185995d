"""Reproducible Monte Carlo estimation under the two random-code models.

Every sample index owns a fixed slice of a Philox counter stream keyed by
the seed, so sample i draws the same field elements no matter how the
work is chunked or how many threads run.  A seed outside [0, 2**64) is a
BadRange, checked once per call (_check_seed), never wrapped.  Chunks
of _CHUNK samples are counted into one exact histogram by
_tally.dim_histogram, and each estimate is an exact integer sum over it;
floating point enters only in the final mean/stderr rendering.

The uniform-subspace model draws a canonical RREF basis directly: the
subspaces with pivot columns P number q**(free cells of P), so a column,
with m columns and r pivots left, is a pivot with probability
q**(m-r) qbinom(m-1, r-1) / qbinom(m, r) (the q-binomial recurrence),
and the free cells are uniform.  No rejection, no rank test.

Generators are built lane last, (k, n, b) for b samples, so the pivot
loop, the RREF cell masks and the fill run over rows of b lanes, not
over an innermost axis of n = 4..15 entries.  The Philox words stay
sample-major and are transposed in the copy that narrows them to the
field dtype.  The generators come back as (b, k, n) transposed views:
the callers' broadcasts iterate in memory order, lanes innermost.

Uniformity caveat: words are reduced mod q, a bias below q * 2**-64 per
cell, and pivot thresholds are rounded down to multiples of 2**-64, a
bias below 2**-64 per column; no statistic here can see either.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._tally import dim_histogram, meet_dims, pair_stat, resolve_threads, star_dims
from .codes import LinearCode, code_from_matrix
from .errors import BadRange
from .exact import Params, RandomModel, _float, _qbinom, star_dim_lower_bound
from .fields import FieldSpec, _integer, _mod, field_from_order
from .matrices import Mat, _rref_cells

_KEY_CONST = 0x5374617250726F64  # stream key tag
_CHUNK = 4096

DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 42


# -- counter-based streams ---------------------------------------------------


def _raw_words(seed: int, start_sample: int, count: int, wps: int) -> np.ndarray:
    """Words [start, start+count) x wps of the seed's Philox stream.

    wps (words per sample) must be a multiple of 4 so each sample owns a
    whole number of Philox blocks and slicing is chunk-independent.
    """
    ph = np.random.Philox(key=np.array([seed, _KEY_CONST], dtype=np.uint64))
    ph.advance(start_sample * (wps // 4))
    return ph.random_raw(count * wps).reshape(count, wps)


def _check_seed(seed) -> None:
    if not 0 <= _integer("seed", seed) < 2**64:
        raise BadRange(f"seed must lie in [0, 2**64), got {seed!r}")


def _round4(w: int) -> int:
    return max(4, 4 * ((w + 3) // 4))


def _systematic_from_words(field, words, n, k, offset):
    """Systematic generators [I_k | A], A from the k*(n-k) words at offset mod q.

    Generators of both models come in field._dtype, the narrowest dtype
    whose products FieldSpec.mul forms without widening (uint8 up to
    q = 16 on prime fields and up to q = 256 on extension fields), so
    FieldSpec.mul and rank_many work on narrow copies.
    """
    b = words.shape[0]
    g = np.zeros((k, n, b), dtype=field._dtype)
    g[np.arange(k), np.arange(k)] = 1
    a = k * (n - k)
    if a:
        g[:, k:] = _mod(words[:, offset : offset + a], field.q).T.reshape(k, n - k, b)
    return g.transpose(2, 0, 1)


@functools.lru_cache(maxsize=64)
def _pivot_thresholds(q: int, n: int, k: int) -> np.ndarray:
    """uint64 T[m, r] = floor(2**64 * P(first of m columns is a pivot |
    r pivots left)) = floor(2**64 * q**(m-r) qbinom(m-1, r-1) / qbinom(m, r)).
    T[m, m] = 2**64 does not fit: the caller forces that pivot.  Cached
    per (q, n, k), so read-only."""
    t = np.zeros((n + 1, k + 1), dtype=np.uint64)
    for m in range(1, n + 1):
        for r in range(1, min(k, m - 1) + 1):
            t[m, r] = (q ** (m - r) * _qbinom(m - 1, r - 1, q) << 64) // _qbinom(m, r, q)
    t.flags.writeable = False
    return t


def _uniform_from_words(field, words, n, k, offset):
    """Canonical RREF bases of uniform k-dim subspaces in field._dtype:
    the n words at offset pick the pivot columns left to right, then the
    next k*n words mod q fill the free cells."""
    b = words.shape[0]
    thresholds = _pivot_thresholds(field.q, n, k)
    pivots = np.empty((n, b), dtype=bool)
    left = np.full(b, k)
    for j in range(n):
        pivots[j] = (words[:, offset + j] < thresholds[n - j, left]) | (left == n - j)
        left -= pivots[j]
    free, ones = _rref_cells(pivots, k)
    lo = offset + n
    g = np.ascontiguousarray(_mod(words[:, lo : lo + k * n], field.q).T.reshape(k, n, b), dtype=field._dtype)
    g *= free
    g += ones
    return g.transpose(2, 0, 1)


# per model: words one code takes from its sample's slice, and its decoder
_LAYOUT = {
    RandomModel.SYSTEMATIC: (lambda n, k: k * (n - k), _systematic_from_words),
    RandomModel.UNIFORM_SUBSPACE: (lambda n, k: (k + 1) * n, _uniform_from_words),
}


def _pair_generators(field, p: Params, model: RandomModel, seed, start, count):
    code_words, from_words = _LAYOUT[model]
    first = code_words(p.n, p.k1)  # the second code's words follow the first's
    words = _raw_words(seed, start, count, _round4(first + code_words(p.n, p.k2)))
    return from_words(field, words, p.n, p.k1, 0), from_words(field, words, p.n, p.k2, first)


def sample_code(
    field: FieldSpec,
    n: int,
    k: int,
    model: RandomModel = RandomModel.SYSTEMATIC,
    seed: int = DEFAULT_SEED,
    index: int = 0,
) -> LinearCode:
    """Draw the code with the given sample index from the seed's stream.

    Deterministic: the same (field, n, k, model, seed, index) always
    yields the same code.  n, k and index must be integers (_integer), the
    seed must lie in [0, 2**64) and the index be >= 0 (BadRange).
    """
    n, k, index = _integer("n", n), _integer("k", k), _integer("index", index)
    if not 1 <= k <= n:
        raise BadRange(f"need 1 <= k <= n, got k={k} n={n}")
    _check_seed(seed)
    if index < 0:
        raise BadRange(f"need index >= 0, got {index}")
    code_words, from_words = _LAYOUT[model]
    g = from_words(field, _raw_words(seed, index, 1, _round4(code_words(n, k))), n, k, 0)
    return code_from_matrix(Mat(field, g[0]))


# -- estimates ---------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """An exactly aggregated Monte Carlo estimate of an integer statistic."""

    params: Params
    model: RandomModel
    samples: int
    seed: int
    total: int  # exact sum of the integer-valued samples
    stderr: float

    @property
    def mean(self) -> Fraction:
        return Fraction(self.total, self.samples)

    @property
    def mean_f64(self) -> float:
        """The mean as a float, +-inf past the float range (_float)."""
        return _float(self.mean)

    def to_json(self) -> dict:
        return {
            "q": self.params.q,
            "n": self.params.n,
            "k1": self.params.k1,
            "k2": self.params.k2,
            "model": self.model.value,
            "samples": self.samples,
            "seed": self.seed,
            "sum": str(self.total),
            "mean_num": str(self.mean.numerator),
            "mean_den": str(self.mean.denominator),
            "mean_f64": self.mean_f64,
            "stderr": self.stderr,
        }

    @staticmethod
    def from_json(obj: dict) -> "Estimate":
        """The inverse of to_json.  A missing key raises KeyError; samples
        below 1 or not an integer, a seed that is not an integer in [0,
        2**64) (_check_seed), a sum that is not an integer, a mean_num/mean_den
        that differ from sum/samples, a stderr that is not a real number >= 0
        (inf passes, NaN does not) and params that Params refuses raise
        BadRange."""
        samples, seed, total, stderr = obj["samples"], obj["seed"], obj["sum"], obj["stderr"]
        if _integer("samples", samples) < 1:
            raise BadRange(f"samples must be >= 1, got {samples!r}")
        _check_seed(seed)
        if isinstance(stderr, bool) or not isinstance(stderr, numbers.Real) or not stderr >= 0:
            raise BadRange(f"stderr must be a real number >= 0, got {stderr!r}")
        try:
            total = int(str(total))
        except ValueError:
            raise BadRange(f"sum must be an integer, got {total!r}") from None
        mean = Fraction(total, samples)
        for key, want in (("mean_num", mean.numerator), ("mean_den", mean.denominator)):
            if key in obj and str(obj[key]) != str(want):
                raise BadRange(f"{key} = {obj[key]!r} differs from sum/samples = {mean}")
        return Estimate(
            params=Params(q=obj["q"], n=obj["n"], k1=obj["k1"], k2=obj["k2"]),
            model=RandomModel(obj["model"]),
            samples=samples,
            seed=seed,
            total=total,
            stderr=stderr,
        )


def _stderr_from_sums(total: int, total_sq: int, n: int) -> float:
    if n < 2:
        return 0.0
    num = n * total_sq - total * total  # >= 0 by Cauchy-Schwarz, exactly
    return math.sqrt(_float(Fraction(num, n * n * (n - 1))))


def _sample_histogram(p: Params, model, samples, seed, threads, stat) -> list:
    """Exact histogram of stat (star_dims or meet_dims, see
    _tally.pair_stat) over the sample range, one job per _CHUNK samples."""
    if _integer("samples", samples) < 1:
        raise BadRange(f"need samples >= 1, got {samples}")
    _check_seed(seed)
    field = field_from_order(p.q)
    stat, size = pair_stat(p, model, stat)
    chunks = [(s, min(_CHUNK, samples - s)) for s in range(0, samples, _CHUNK)]
    return dim_histogram(
        size,
        chunks,
        lambda chunk: [stat(field, *_pair_generators(field, p, model, seed, *chunk))],
        resolve_threads(threads),
    )


def _estimate(p: Params, model, samples, seed, hist, value) -> Estimate:
    """The Estimate of the integer statistic value(d) over a dimension
    histogram, samples and seed stored as ints (numpy integers pass _integer)."""
    samples, seed = int(samples), int(seed)
    total = sum(c * value(d) for d, c in enumerate(hist))
    total_sq = sum(c * value(d) ** 2 for d, c in enumerate(hist))
    return Estimate(p, model, samples, seed, total, _stderr_from_sums(total, total_sq, samples))


def mc_star_dim(
    p: Params,
    model: RandomModel = RandomModel.SYSTEMATIC,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    threads=None,
) -> Estimate:
    """Monte Carlo estimate of the expected star-product dimension."""
    hist = _sample_histogram(p, model, samples, seed, threads, star_dims)
    return _estimate(p, model, samples, seed, hist, lambda d: d)


def mc_kernel_size(
    p: Params,
    model: RandomModel = RandomModel.SYSTEMATIC,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    threads=None,
) -> Estimate:
    """Monte Carlo estimate of the expected kernel size of the bilinear
    evaluation map; per pair the kernel size is the exact integer
    q**(k1*k2 - star dimension)."""
    hist = _sample_histogram(p, model, samples, seed, threads, star_dims)
    return _estimate(p, model, samples, seed, hist, lambda d: p.q ** (p.k1 * p.k2 - d))


def mc_full_dim_frequency(
    p: Params,
    model: RandomModel = RandomModel.SYSTEMATIC,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    threads=None,
) -> Estimate:
    """Fraction of sampled pairs whose star product has the maximal
    dimension min(k1*k2, n); samples are 0/1."""
    hist = _sample_histogram(p, model, samples, seed, threads, star_dims)
    return _estimate(p, model, samples, seed, hist, lambda d: int(d == min(p.k1 * p.k2, p.n)))


def mc_intersection_dim(
    p: Params,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    threads=None,
) -> Estimate:
    """Monte Carlo estimate of the expected intersection dimension of two
    uniform random subspaces (the uniform model is part of the contract)."""
    model = RandomModel.UNIFORM_SUBSPACE
    hist = _sample_histogram(p, model, samples, seed, threads, meet_dims)
    return _estimate(p, model, samples, seed, hist, lambda d: d)


# -- benchmark table ---------------------------------------------------------

TABLE1_GRID = [
    (n, k1, k2, q)
    for (n, k1, k2) in [
        (7, 2, 3),
        (7, 3, 3),
        (7, 3, 4),
        (11, 2, 3),
        (11, 3, 3),
        (11, 3, 4),
        (15, 2, 3),
        (15, 3, 3),
        (15, 3, 4),
    ]
    for q in (2, 3, 5, 7)
]

TABLE1_CSV_HEADER = "n,k1,k2,q,mc_mean,bound,ratio"


@dataclass(frozen=True)
class TableRow:
    """One benchmark row: Monte Carlo mean against the Jensen bound."""

    estimate: Estimate
    bound: float

    @property
    def ratio(self) -> float:
        return self.estimate.mean_f64 / self.bound

    def to_json(self) -> dict:
        obj = self.estimate.to_json()
        obj["bound"] = self.bound
        obj["ratio"] = self.ratio
        return obj

    def to_csv(self) -> str:
        p = self.estimate.params
        return (
            f"{p.n},{p.k1},{p.k2},{p.q},"
            f"{self.estimate.mean_f64:#.5g},{self.bound:#.5g},{self.ratio:.5f}"
        )


def reproduce_table1(
    samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED, threads=None
) -> list:
    """The 36-row (n, k1, k2, q) benchmark grid, in canonical row order,
    under the systematic model with the given per-row sample count."""
    rows = []
    for n, k1, k2, q in TABLE1_GRID:
        p = Params(q=q, n=n, k1=k1, k2=k2)
        est = mc_star_dim(p, RandomModel.SYSTEMATIC, samples, seed, threads)
        rows.append(TableRow(est, star_dim_lower_bound(p).bound))
    return rows

