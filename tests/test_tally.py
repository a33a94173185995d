import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import Params, RandomModel, _tally, field_from_order, field_make, intersection_dim, mc_star_dim, star_product
from starprod._tally import dim_histogram, meet_dims, resolve_threads, star_dims
from starprod.errors import BadRange, ZeroCode
from starprod.sampling import _pair_generators

from conftest import random_code


def _codes(field, n, k, count, rng):
    out = []
    while len(out) < count:
        c = random_code(field, n, k, rng)
        if c.k == k:
            out.append(c)
    return out


def _star_k(c1, c2):
    try:
        return star_product(c1, c2).k
    except ZeroCode:
        return 0


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (2, 2)])
def test_broadcast_dims_match_per_pair_codes(p, m):
    field = field_make(p, m)
    rng = np.random.default_rng(p * 10 + m)
    n, k1, k2 = 5, 2, 3
    left = _codes(field, n, k1, 4, rng)
    right = _codes(field, n, k2, 3, rng)
    g1 = np.stack([c.basis.data for c in left])[:, None]
    g2 = np.stack([c.basis.data for c in right])[None]
    stars = star_dims(field, g1, g2).reshape(len(left), len(right))
    meets = meet_dims(field, g1, g2).reshape(len(left), len(right))
    for i, c1 in enumerate(left):
        for j, c2 in enumerate(right):
            assert stars[i, j] == _star_k(c1, c2)
            assert meets[i, j] == intersection_dim(c1, c2)


def test_dim_histogram_independent_of_jobs_and_threads():
    field = field_make(3)
    rng = np.random.default_rng(1)
    g1 = np.stack([c.basis.data for c in _codes(field, 4, 2, 6, rng)])
    g2 = np.stack([c.basis.data for c in _codes(field, 4, 2, 6, rng)])
    whole = dim_histogram(5, [0], lambda _: [star_dims(field, g1, g2)])
    one_pair = lambda i: [star_dims(field, g1[i : i + 1], g2[i : i + 1])]
    for threads in (1, 2):
        split = dim_histogram(5, range(6), one_pair, threads)
        assert split == whole
    assert sum(whole) == 6 and all(type(c) is int for c in whole)


def test_resolve_threads_refuses_non_counts(monkeypatch):
    monkeypatch.delenv("STARPROD_THREADS", raising=False)
    assert resolve_threads(None) == _tally._cpus() and resolve_threads(np.int64(3)) == 3
    for bad in (True, 2.0, "2", 0, -3):
        with pytest.raises(BadRange, match="threads"):
            resolve_threads(bad)
    for env, want in (("3", 3), ("", _tally._cpus())):
        monkeypatch.setenv("STARPROD_THREADS", env)
        assert resolve_threads(None) == want
    assert resolve_threads(2) == 2  # an explicit count wins over the variable
    for env in ("abc", "-3", "0", "1.5"):
        monkeypatch.setenv("STARPROD_THREADS", env)
        with pytest.raises(BadRange, match="STARPROD_THREADS"):
            resolve_threads(None)


def test_cpus_without_affinity(monkeypatch):
    # where os has no sched_getaffinity, the CPU count, or 1 when unknown
    monkeypatch.delattr(_tally.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_tally.os, "cpu_count", lambda: 5)
    assert _tally._cpus() == 5
    monkeypatch.setattr(_tally.os, "cpu_count", lambda: None)
    assert _tally._cpus() == 1


def test_thread_pool_capped_by_jobs_and_cpus(monkeypatch):
    # the spy records the pool size and runs the jobs on the calling thread
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(_tally, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(_tally, "_cpus", lambda: 3)
    values = lambda job: [np.array([job % 3])]
    for threads, jobs in ((10**5, 30), (2, 30), (10**5, 2), (10**5, 1), (1, 30)):
        assert dim_histogram(3, range(jobs), values, threads) == dim_histogram(3, range(jobs), values)
    assert sizes == [3, 2, 2]  # one job or one thread: no pool
    p = Params(2, 6, 2, 3)
    samples = 3 * 4096 + 1  # four chunks
    est = mc_star_dim(p, RandomModel.UNIFORM_SUBSPACE, samples, 5, 10**5)
    assert sizes[3:] == [3] and est == mc_star_dim(p, RandomModel.UNIFORM_SUBSPACE, samples, 5, 1)


PEEL_QS = [2, 3, 4, 5, 7, 8, 9]


def _assert_peel_exact(field, g1, g2):
    """Peeling the common unit columns of systematic g1, g2 keeps every
    star dimension, flat and in the oracle's broadcast shape, whatever
    the generators' integer dtype."""
    prefix = min(g1.shape[-2], g2.shape[-2])
    for a, b in ((g1, g2), (g1[:, None], g2[None]), (g1.astype(np.int64), g2.astype(np.int64))):
        assert (star_dims(field, a, b, prefix) == star_dims(field, a, b)).all()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(q=st.sampled_from(PEEL_QS), n=st.integers(1, 7), data=st.data())
def test_peeled_star_dims_equal_unpeeled(q, n, data):
    k1 = data.draw(st.integers(1, n))
    k2 = data.draw(st.integers(1, n))
    field = field_from_order(q)
    seed = data.draw(st.integers(0, 2**32))
    g1, g2 = _pair_generators(field, Params(q, n, k1, k2), RandomModel.SYSTEMATIC, seed, 0, 24)
    if k1 > k2:  # Params orders the dimensions; star_dims takes them as given
        g1, g2 = g2, g1
    _assert_peel_exact(field, g1, g2)


@pytest.mark.parametrize("q", PEEL_QS)
@pytest.mark.parametrize("n", [1, 3])
def test_peeled_star_dims_full_space(q, n):
    # k1 = k2 = n peels every column and leaves a batch of 0-column matrices
    field = field_from_order(q)
    g1, g2 = _pair_generators(field, Params(q, n, n, n), RandomModel.SYSTEMATIC, 3, 0, 5)
    assert (star_dims(field, g1, g2, n) == n).all()
    _assert_peel_exact(field, g1, g2)


STAR_QS = [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 31, 32, 49, 64, 81, 128, 256]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(q=st.sampled_from(STAR_QS), n=st.integers(1, 8), data=st.data())
def test_star_dims_symmetric_and_bounded(q, n, data):
    # any generators, rank-deficient ones included, over prime and extension fields
    k1, k2 = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    g1 = rng.integers(0, q, size=(16, k1, n))
    g2 = rng.integers(0, q, size=(16, k2, n))
    field = field_from_order(q)
    dims = star_dims(field, g1, g2)
    assert (dims == star_dims(field, g2, g1)).all()
    assert dims.min() >= 0 and dims.max() <= min(k1 * k2, n)
