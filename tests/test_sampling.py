import ast
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (
    Estimate,
    Params,
    RandomModel,
    TABLE1_CSV_HEADER,
    TABLE1_GRID,
    exact_expected_kernel,
    exact_expected_intersection,
    exact_expected_star_dim,
    expected_intersection_dim,
    expected_kernel_size,
    field_from_order,
    field_make,
    mc_full_dim_frequency,
    mc_intersection_dim,
    mc_kernel_size,
    mc_star_dim,
    qbinom,
    reproduce_table1,
    sample_code,
    star_dim_lower_bound,
)
from starprod._tally import star_dims
from starprod.errors import BadRange
from starprod.matrices import Mat, rref
import starprod.sampling as sampling


def test_sample_code_systematic_structure():
    f3 = field_make(3)
    c = sample_code(f3, 5, 2, RandomModel.SYSTEMATIC, seed=1, index=0)
    assert c.k == 2 and c.systematic is not None
    assert c.basis.data[:, :2].tolist() == [[1, 0], [0, 1]]


def test_sample_code_deterministic():
    f2 = field_make(2)
    a = sample_code(f2, 3, 2, RandomModel.SYSTEMATIC, seed=9, index=5)
    b = sample_code(f2, 3, 2, RandomModel.SYSTEMATIC, seed=9, index=5)
    assert a == b
    draws = {sample_code(f2, 6, 3, seed=9, index=i) for i in range(12)}
    assert len(draws) > 1


def test_sample_code_uniform_full_rank():
    f2 = field_make(2)
    for i in range(40):
        c = sample_code(f2, 4, 2, RandomModel.UNIFORM_SUBSPACE, seed=3, index=i)
        assert c.k == 2


def test_sample_code_uniform_line_frequencies():
    # the three lines of F_2^2 should come out uniformly
    f2 = field_make(2)
    n_draws = 30_000
    counts = {}
    for i in range(n_draws):
        c = sample_code(f2, 2, 1, RandomModel.UNIFORM_SUBSPACE, seed=17, index=i)
        key = c.basis.data.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    sigma = math.sqrt((1 / 3) * (2 / 3) / n_draws)
    for c in counts.values():
        assert abs(c / n_draws - 1 / 3) < 3 * sigma


def test_sample_code_validation():
    f2 = field_make(2)
    with pytest.raises(BadRange):
        sample_code(f2, 3, 4)
    # a bool or a float is no dimension or index (index=1.5 used to raise TypeError)
    for kwargs in ({"n": 5.0}, {"k": True}, {"index": 1.5}, {"index": True}):
        with pytest.raises(BadRange):
            sample_code(f2, **{"n": 5, "k": 2, "index": 0, **kwargs})
    assert sample_code(f2, np.int64(5), np.int32(2), index=np.uint8(3)) == sample_code(f2, 5, 2, index=3)


def test_seed_and_index_outside_the_stream_raise():
    # the Philox key holds a 64-bit seed and a sample index owns the slice at
    # its counter: a value outside either is refused, never wrapped
    f2 = field_make(2)
    p = Params(2, 7, 2, 3)
    for seed in (-1, 2**64, -(2**64), 2**65 + 7):
        with pytest.raises(BadRange, match="seed must lie in"):
            sample_code(f2, 5, 2, seed=seed)
        for mc in (mc_star_dim, mc_kernel_size, mc_full_dim_frequency):
            with pytest.raises(BadRange, match="seed must lie in"):
                mc(p, RandomModel.SYSTEMATIC, 10, seed)
        with pytest.raises(BadRange, match="seed must lie in"):
            mc_intersection_dim(p, 10, seed)
    with pytest.raises(BadRange, match="index"):
        sample_code(f2, 5, 2, seed=1, index=-1)
    for seed in (0, 2**64 - 1):
        for model in RandomModel:
            assert sample_code(f2, 5, 2, model, seed=seed, index=3).k == 2
        assert mc_star_dim(p, RandomModel.SYSTEMATIC, 10, seed).seed == seed


def test_stderr_overflow_is_infinite():
    # a variance beyond the float range renders as inf, not OverflowError
    assert sampling._stderr_from_sums(0, 10**700, 2) == math.inf
    assert sampling._stderr_from_sums(3, 9, 1) == 0.0
    # and an Estimate carrying it loads back from JSON, where it prints as null
    obj = mc_star_dim(Params(5, 6, 2, 2), samples=1200, seed=11).to_json()
    for stderr in (math.inf, 0, 0.25):
        assert Estimate.from_json({**obj, "stderr": stderr}).stderr == stderr
    est = Estimate.from_json({**obj, "stderr": None})
    assert est.stderr == math.inf and est.to_json()["stderr"] is None
    assert Estimate.from_json(json.loads(json.dumps(est.to_json()))) == est


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 5, 2), (4, 4, 2), (2, 6, 3)])
def test_pivot_thresholds_exact(q, n, k):
    # walking the columns with the threshold table picks each pivot set P
    # with probability q**(free cells of P) / qbinom(n, k), up to the
    # rounding of each threshold down to a multiple of 2**-64
    t = sampling._pivot_thresholds(q, n, k)
    one = Fraction(1)
    total = Fraction(0)
    for pivots in itertools.combinations(range(n), k):
        prob, left = one, k
        for j in range(n):
            m = n - j
            if left == m:
                assert j in pivots
                left -= 1
                continue
            step = Fraction(int(t[m, left]), 2**64)
            prob *= step if j in pivots else one - step
            left -= j in pivots
        free = sum(n - c - (k - i) for i, c in enumerate(pivots))
        want = Fraction(q**free, qbinom(n, k, q))
        assert abs(prob - want) <= Fraction(n, 2**64), pivots
        total += prob
    assert abs(total - 1) <= Fraction(n, 2**64)
    # one shared table per (q, n, k), which no caller can change
    assert sampling._pivot_thresholds(q, n, k) is t and not t.flags.writeable


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
    data=st.data(),
    batch=st.sampled_from([1, 63, 64, 65]),
    model=st.sampled_from(list(RandomModel)),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**20),
)
def test_lane_last_generators_match_sample_code(q, data, batch, model, seed, start):
    # the generators are built lane last but come back as (batch, k, n),
    # row i being the code of sample start + i
    field = field_from_order(q)
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, n))
    code_words, from_words = sampling._LAYOUT[model]
    words = sampling._raw_words(seed, start, batch, sampling._round4(code_words(n, k)))
    g, used = from_words(field, words, n, k, 0), code_words(n, k)
    assert g.shape == (batch, k, n) and g.dtype == field._dtype
    for i, mat in enumerate(g):
        if model is RandomModel.SYSTEMATIC:
            a = np.mod(words[i, :used], q).reshape(k, n - k)
            assert np.array_equal(mat, np.hstack([np.eye(k, dtype=np.int64), a]))
        else:
            red, pivots = rref(Mat(field, mat))
            assert np.array_equal(red.data, mat) and len(pivots) == k
        assert np.array_equal(sample_code(field, n, k, model, seed, start + i).basis.data, mat)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (4, 3, 1)])
def test_uniform_subspace_chi_square(q, n, k):
    # every draw is a canonical RREF basis, every subspace appears, and the
    # counts pass a chi-square test of uniformity
    field = field_from_order(q)
    draws = 40_000
    words = sampling._raw_words(23, 0, draws, sampling._round4((k + 1) * n))
    g = sampling._uniform_from_words(field, words, n, k, 0)
    assert sampling._LAYOUT[RandomModel.UNIFORM_SUBSPACE][0](n, k) == (k + 1) * n
    for mat in g[:200]:
        assert (rref(Mat(field, mat))[0].data == mat).all()
    counts = Counter(mat.tobytes() for mat in g)
    cells = qbinom(n, k, q)
    assert len(counts) == cells
    expected = draws / cells
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    p_value = mpmath.gammainc((cells - 1) / 2, chi2 / 2, mpmath.inf, regularized=True)
    assert p_value > 1e-3, (chi2, cells)


@pytest.mark.parametrize("q,n,k1,k2", [(2, 4, 2, 2), (4, 4, 2, 2), (2, 5, 2, 3)])
def test_uniform_mc_means_match_oracles(q, n, k1, k2):
    p = Params(q, n, k1, k2)
    model = RandomModel.UNIFORM_SUBSPACE
    for est, exact in [
        (mc_star_dim(p, model, 20_000, 31), exact_expected_star_dim(p, model)),
        (mc_intersection_dim(p, 20_000, 32), exact_expected_intersection(p)),
    ]:
        assert abs(est.mean_f64 - float(exact)) <= 4 * est.stderr


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    model=st.sampled_from(list(RandomModel)),
    start=st.integers(0, 2 * sampling._CHUNK + 9),
    count=st.integers(1, 70),
)
def test_pair_generators_chunk_independent(model, start, count):
    # any window of samples equals the matching rows of one covering call
    field = field_make(3)
    p = Params(3, 6, 2, 3)
    whole = sampling._pair_generators(field, p, model, 5, 0, start + count)
    part = sampling._pair_generators(field, p, model, 5, start, count)
    for a, b in zip(part, whole):
        assert (a == b[start:]).all()


@pytest.mark.parametrize("model", list(RandomModel), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "q,dtype",
    [(2, np.uint8), (7, np.uint8), (251, np.uint16), (4, np.uint8), (9, np.uint8), (243, np.uint8), (256, np.uint8), (729, np.int64)],
)
def test_pair_generators_narrow_dtype(monkeypatch, q, dtype, model):
    # generators come in the narrow dtype up to q = 256, with the values
    # an int64 decode of the same words gives, at chunk-boundary starts
    field = field_from_order(q)
    p = Params(q, 6, 2, 3)
    starts = (0, sampling._CHUNK - 3, sampling._CHUNK, 2 * sampling._CHUNK - 1)
    narrow = [sampling._pair_generators(field, p, model, 9, start, 7) for start in starts]
    monkeypatch.setattr(field, "_dtype", np.dtype(np.int64))
    for start, gens in zip(starts, narrow):
        wide = sampling._pair_generators(field, p, model, 9, start, 7)
        for g, w in zip(gens, wide):
            assert g.dtype == dtype and w.dtype == np.int64
            assert (g == w).all(), start


def test_mc_star_dim_full_space_exact():
    p = Params(2, 3, 3, 3)
    est = mc_star_dim(p, samples=500, seed=0)
    assert est.mean == 3 and est.stderr == 0.0


def test_mc_star_dim_thread_determinism():
    p = Params(3, 7, 2, 3)
    runs = [mc_star_dim(p, samples=9000, seed=5, threads=t) for t in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2]
    assert json.dumps(runs[0].to_json()) == json.dumps(runs[2].to_json())


@pytest.mark.parametrize("model", list(RandomModel), ids=lambda m: m.value)
def test_mc_other_stats_thread_determinism(model):
    # one full chunk plus a partial one, so threads=2 splits the work
    p = Params(4, 4, 2, 2)
    for fn in (mc_kernel_size, mc_full_dim_frequency):
        assert fn(p, model, 4096 + 17, 3, 1) == fn(p, model, 4096 + 17, 3, 2)
    if model is RandomModel.UNIFORM_SUBSPACE:
        assert mc_intersection_dim(p, 4096 + 17, 3, 1) == mc_intersection_dim(p, 4096 + 17, 3, 2)


def test_mc_golden_totals():
    # exact sums at one small point; a change to the sample stream or to
    # the aggregation must show up here
    p = Params(3, 5, 2, 2)
    want = {
        RandomModel.SYSTEMATIC: (2160, 1120, 370),
        RandomModel.UNIFORM_SUBSPACE: (2006, 1704, 267),
    }
    for model, totals in want.items():
        got = tuple(
            fn(p, model, 600, 11, 1).total
            for fn in (mc_star_dim, mc_kernel_size, mc_full_dim_frequency)
        )
        assert got == totals, model
    assert mc_intersection_dim(p, 600, 11, 1).total == 83


def test_mc_star_dim_uniform_model_runs():
    p = Params(2, 5, 2, 2)
    est = mc_star_dim(p, RandomModel.UNIFORM_SUBSPACE, samples=4000, seed=2)
    assert 1 <= est.mean_f64 <= 4


def test_mc_kernel_size_constant_case():
    # with k1 = k2 = 1 the first star coordinate is 1, so the map is injective
    p = Params(2, 4, 1, 1)
    est = mc_kernel_size(p, samples=2000, seed=3)
    assert est.mean == 1 and est.stderr == 0.0


def test_mc_kernel_size_matches_exact():
    for q, n, k1, k2 in [(2, 3, 2, 2), (2, 4, 2, 2)]:
        p = Params(q, n, k1, k2)
        exact = expected_kernel_size(p)
        assert exact == exact_expected_kernel(p)
        est = mc_kernel_size(p, samples=200_000, seed=21)
        assert abs(est.mean_f64 - float(exact)) <= 3 * est.stderr


def test_mc_kernel_samples_are_q_powers():
    p = Params(3, 4, 2, 2)
    est = mc_kernel_size(p, samples=1, seed=4)
    assert est.total in {3**i for i in range(5)}


def test_mc_full_dim_frequency():
    p = Params(2, 3, 3, 3)
    est = mc_full_dim_frequency(p, samples=300, seed=5)
    assert est.mean == 1
    # frequency of hitting min(k1*k2, n) grows with the field size
    freqs = []
    for q in (2, 3, 5, 7):
        p = Params(q, 7, 3, 3)
        freqs.append(mc_full_dim_frequency(p, samples=20_000, seed=6).mean_f64)
    assert all(a < b for a, b in zip(freqs, freqs[1:]))


def test_mc_intersection_dim():
    p = Params(2, 2, 1, 1)
    est = mc_intersection_dim(p, samples=100_000, seed=7)
    want = expected_intersection_dim(p)
    assert want == Fraction(1, 3) == exact_expected_intersection(p)
    assert abs(est.mean_f64 - float(want)) <= 3 * max(est.stderr, 1e-9)
    p2 = Params(2, 3, 1, 2)
    est2 = mc_intersection_dim(p2, samples=100_000, seed=8)
    assert abs(est2.mean_f64 - 3 / 7) <= 3 * est2.stderr
    # second code = whole space forces dim k1 exactly
    est3 = mc_intersection_dim(Params(2, 3, 1, 3), samples=500, seed=9)
    assert est3.mean == 1 and est3.stderr == 0.0


def test_estimate_json_roundtrip():
    p = Params(5, 6, 2, 2)
    est = mc_star_dim(p, samples=1200, seed=11)
    again = Estimate.from_json(json.loads(json.dumps(est.to_json())))
    assert again == est


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 7, 9, 64, 65521]),
    n=st.integers(1, 40),
    data=st.data(),
    model=st.sampled_from(list(RandomModel)),
    samples=st.integers(1, 2**62),
    seed=st.integers(0, 2**64 - 1),
    stderr=st.floats(0, 1e6, allow_nan=False),
)
def test_estimate_json_roundtrip_drawn(q, n, data, model, samples, seed, stderr):
    k1, k2 = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    total = data.draw(st.integers(0, samples * n))
    est = Estimate(Params(q, n, k1, k2), model, samples, seed, total, stderr)
    assert Estimate.from_json(json.loads(json.dumps(est.to_json()))) == est


@pytest.mark.parametrize(
    "change",
    [
        {"samples": 0},
        {"samples": 1200.0},
        {"samples": "1200"},
        {"sum": "12.5"},
        {"sum": 12.5},
        {"sum": "twelve"},
        {"mean_num": "1"},
        {"mean_den": "7"},
        {"seed": -1},
        {"seed": 2**64},
        {"seed": "abc"},
        {"seed": 11.0},
        {"seed": True},
        {"stderr": "abc"},
        {"stderr": -1.0},
        {"stderr": math.nan},
        {"stderr": True},
        {"q": "7"},
        {"q": 5.0},
        {"n": 6.0},
        {"k1": True},
        {"model": "gaussian"},
        {"model": "SYSTEMATIC"},
        {"model": None},
    ],
    ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()),
)
def test_estimate_from_json_rejects_malformed(change):
    obj = mc_star_dim(Params(5, 6, 2, 2), samples=1200, seed=11).to_json()
    with pytest.raises(BadRange):
        Estimate.from_json({**obj, **change})


def test_estimate_from_json_missing_key():
    obj = mc_star_dim(Params(5, 6, 2, 2), samples=1200, seed=11).to_json()
    for key in ("samples", "sum", "seed"):
        with pytest.raises(KeyError):
            Estimate.from_json({k: v for k, v in obj.items() if k != key})
    # the mean is redundant, so an object without it still loads
    bare = {k: v for k, v in obj.items() if k not in ("mean_num", "mean_den")}
    assert Estimate.from_json(bare) == Estimate.from_json(obj)


def test_estimate_requires_samples():
    # samples=True used to run one sample
    for samples in (0, True, 2.0, "10"):
        with pytest.raises(BadRange, match="samples"):
            mc_star_dim(Params(2, 3, 1, 1), samples=samples)
    # numpy integers pass and are stored as ints, so the Estimate serialises
    p = Params(3, 6, 2, 3)
    est = mc_kernel_size(p, RandomModel.UNIFORM_SUBSPACE, np.int64(300), np.uint64(5), 1)
    assert est == mc_kernel_size(p, RandomModel.UNIFORM_SUBSPACE, 300, 5, 1)
    assert type(est.samples) is int and type(est.seed) is int
    assert Estimate.from_json(json.loads(json.dumps(est.to_json()))) == est


def test_reproduce_table1_small():
    rows = reproduce_table1(samples=300, seed=12, threads=2)
    assert len(rows) == len(TABLE1_GRID) == 36
    assert TABLE1_CSV_HEADER == "n,k1,k2,q,mc_mean,bound,ratio"
    for row, (n, k1, k2, q) in zip(rows, TABLE1_GRID):
        p = row.estimate.params
        assert (p.n, p.k1, p.k2, p.q) == (n, k1, k2, q)
        assert row.bound == star_dim_lower_bound(p).bound
        line = row.to_csv()
        assert line.startswith(f"{n},{k1},{k2},{q},")
        assert len(line.split(",")) == 7
    # mean stays above the bound minus statistical slack even at tiny n
    for row in rows:
        assert row.estimate.mean_f64 >= row.bound - 6 * row.estimate.stderr


def test_jensen_direction_moderate_samples():
    for n, k1, k2, q in [(7, 2, 3, 2), (11, 3, 3, 3)]:
        p = Params(q, n, k1, k2)
        est = mc_star_dim(p, samples=20_000, seed=13)
        assert est.mean_f64 >= star_dim_lower_bound(p).bound - 4 * est.stderr


def test_star_dim_samples_in_range():
    # systematic model: the first star coordinate is always 1
    p = Params(2, 6, 2, 3)
    hist = sampling._sample_histogram(p, RandomModel.SYSTEMATIC, 5000, 14, 1, star_dims)
    assert hist[0] == 0
    assert sum(hist) == 5000
    assert len(hist) == min(p.k1 * p.k2, p.n) + 1


def test_model_that_is_no_random_model_refused(monkeypatch):
    # a model's value or name is not the model: BadRange, before any draw
    def no_draw(*args):
        raise AssertionError("words drawn")

    monkeypatch.setattr(sampling, "_raw_words", no_draw)
    p, field = Params(2, 5, 2, 3), field_make(2)
    for model in ("systematic", "uniform", "SYSTEMATIC", None):
        for mc in (mc_star_dim, mc_kernel_size, mc_full_dim_frequency):
            with pytest.raises(BadRange, match="model"):
                mc(p, model, samples=10, seed=1, threads=1)
        with pytest.raises(BadRange, match="model"):
            sample_code(field, 5, 2, model=model)


def _chunks(monkeypatch, p, model, samples):
    """The (start, count) jobs that Monte Carlo hands dim_histogram; the
    spy runs none of them, so nothing is drawn or ranked."""
    seen = []

    def spy(size, jobs, values, threads=1):
        seen.append(list(jobs))
        return [0] * size

    monkeypatch.setattr(sampling, "dim_histogram", spy)
    mc_star_dim(p, model, samples, 1, 1)
    return seen[0]


def _perfbench_mc_points():
    """The keys of perfbench/workloads.py's MC_UNIFORM_POINTS, read from its source."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text())
    [node] = [n for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "MC_UNIFORM_POINTS"]
    return [ast.literal_eval(key) for key in node.value.keys]


def test_full_chunks_at_every_table1_golden_and_perfbench_shape(monkeypatch):
    uniform, systematic = RandomModel.UNIFORM_SUBSPACE, RandomModel.SYSTEMATIC
    points = [((q, n, k1, k2), systematic) for n, k1, k2, q in TABLE1_GRID]
    points += [(point, uniform) for point in _perfbench_mc_points()]
    points += [((4, 4, 2, 2), uniform), ((7, 15, 3, 4), systematic), ((8, 4, 2, 2), uniform)]  # test_cli GOLDEN_STDOUT
    for point, model in points:
        assert _chunks(monkeypatch, Params(*point), model, 8192) == [(0, 4096), (4096, 4096)], point


def test_chunks_shrink_where_a_sample_is_large(monkeypatch):
    # systematic (2, 120, 8, 8): 2 * 8 * 112 words and 8 * 8 * 120 cells a
    # sample, 75776 bytes at 8 each, so 2**26 // 75776 = 885 samples a
    # chunk; (2, 2000, 40, 40): 2 * 40 * 1960 words and 1600 * 2000 cells,
    # 26854400 bytes, so 2; one sample above 2**26 bytes still runs alone
    systematic = RandomModel.SYSTEMATIC
    assert _chunks(monkeypatch, Params(2, 120, 8, 8), systematic, 2000) == [(0, 885), (885, 885), (1770, 230)]
    assert _chunks(monkeypatch, Params(2, 2000, 40, 40), systematic, 3) == [(0, 2), (2, 1)]
    monkeypatch.setattr(sampling, "_CHUNK_BYTES", 2**20)
    assert _chunks(monkeypatch, Params(2, 2000, 40, 40), systematic, 3) == [(0, 1), (1, 1), (2, 1)]


def test_estimate_independent_of_the_chunk_cap(monkeypatch):
    # a cap that forces 7-sample chunks leaves every estimate unchanged
    p = Params(3, 6, 2, 3)
    for model in RandomModel:
        want = mc_star_dim(p, model, 100, 3, 1), mc_intersection_dim(p, 100, 3, 1)
        cells = 2 * (p.k1 + 1) * p.n + p.k1 * p.k2 * p.n  # the uniform model's words, more than systematic ones
        monkeypatch.setattr(sampling, "_CHUNK_BYTES", 8 * cells * 7)
        assert (mc_star_dim(p, model, 100, 3, 1), mc_intersection_dim(p, 100, 3, 1)) == want
        monkeypatch.undo()
