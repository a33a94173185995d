"""Exact dimension histograms over batches of generator pairs.

Monte Carlo and the exhaustive oracles compute the same thing: a per-pair
dimension statistic counted over a pair space.  Only the source of the
pairs differs, so the counting rule lives here once, and callers apply
their own statistic (star_dims, meet_dims, or a packed key) and hand over
integer arrays.  Each job counts its arrays with np.bincount and the
per-job counts are merged by Python integer addition, so a histogram
depends neither on how the pair space is split into jobs nor on how many
threads run them.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .codes import pairwise_product_rows
from .errors import BadRange
from .exact import RandomModel
from .fields import _integer
from .matrices import rank_many


def resolve_threads(threads=None) -> int:
    """threads; when it is None, STARPROD_THREADS, and when that is unset
    or empty too, the CPUs this process may use.  A bool, a non-integer
    or a value below 1 is a BadRange."""
    name = "threads"
    if threads is None:
        threads = os.environ.get("STARPROD_THREADS")
        if not threads:
            return _cpus()
        name = "STARPROD_THREADS"
        try:
            threads = int(threads)
        except ValueError:
            raise BadRange(f"STARPROD_THREADS must be an integer, got {threads!r}") from None
    if _integer(name, threads) < 1:
        raise BadRange(f"{name} must be >= 1, got {threads!r}")
    return int(threads)


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def star_dims(field, g1: np.ndarray, g2: np.ndarray, prefix: int = 0) -> np.ndarray:
    """Star-product dimension of each generator pair, flattened.

    g1 (..., k1, n) and g2 (..., k2, n) broadcast over the leading axes.

    prefix > 0 requires that the first prefix columns of every g1 and g2
    be the unit columns e_0, ..., e_(prefix-1), with prefix <= min(k1, k2),
    as in systematic generators [I_k1 | A1] and [I_k2 | A2].  Column
    j < prefix of the pairwise product matrix is then g1[:, j] (x) g2[:, j]
    = e_j (x) e_j, the unit vector at row (j, j).  Moving those rows to
    the top and those columns to the left gives [[I, X], [0, R]], whose
    rank is prefix + rank R, R being the product of the other rows on the
    other columns.  So only R is formed and ranked.  The prefix is not
    detected: the caller knows it from the model.
    """
    prod = pairwise_product_rows(field, g1[..., prefix:], g2[..., prefix:])
    if prefix:
        k2 = g2.shape[-2]
        kept = np.delete(np.arange(prod.shape[-2]), np.arange(prefix) * (k2 + 1))
        prod = prod[..., kept, :]
    batch = math.prod(prod.shape[:-2])  # reshape(-1, ...) fails on a zero-column batch
    return prefix + rank_many(field, prod.reshape((batch,) + prod.shape[-2:]))


def _check_model(model) -> None:
    if not isinstance(model, RandomModel):
        raise BadRange(f"model must be a RandomModel, got {model!r}")


def pair_stat(p, model, stat) -> tuple:
    """(stat, size) for the model's generator pairs at p.  size =
    min(k1*k2, n) + 1 bounds both statistics (an intersection has dim <=
    k1), and systematic pairs [I_k1 | A1], [I_k2 | A2] share min(k1, k2)
    unit columns, which stat (star_dims, the only systematic one) peels.
    A model that is not a RandomModel is a BadRange (_check_model)."""
    _check_model(model)
    if model is RandomModel.SYSTEMATIC:
        stat = functools.partial(stat, prefix=min(p.k1, p.k2))
    return stat, min(p.k1 * p.k2, p.n) + 1


def meet_dims(field, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Intersection dimension k1 + k2 - rank [G1; G2] of each pair of
    full-rank generators, flattened; shapes broadcast as in star_dims."""
    k1, k2 = g1.shape[-2], g2.shape[-2]
    lead = np.broadcast_shapes(g1.shape[:-2], g2.shape[:-2])
    stacked = np.empty(lead + (k1 + k2, g1.shape[-1]), dtype=np.result_type(g1, g2))
    stacked[..., :k1, :] = g1
    stacked[..., k1:, :] = g2
    return k1 + k2 - rank_many(field, stacked.reshape((-1,) + stacked.shape[-2:]))


def dim_histogram(size: int, jobs, values, threads: int = 1) -> list:
    """Exact histogram, as Python ints of length size, of every entry of
    the integer arrays in [0, size) that values(job) yields for each job.

    jobs must be a sequence when threads > 1; jobs then run on
    min(threads, len(jobs), the CPUs this process may use) worker threads.
    """

    def work(job):
        counts = np.zeros(size, dtype=np.int64)
        for v in values(job):
            counts += np.bincount(v, minlength=size)
        return counts

    workers = min(threads, len(jobs), _cpus()) if threads > 1 else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(work, jobs))
    else:
        parts = map(work, jobs)
    hist = [0] * size
    for part in parts:
        for d, c in enumerate(part):
            hist[d] += int(c)
    return hist
