import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from starprod import (
    Mat,
    code_from_matrix,
    csst_envelope,
    dual,
    field_make,
    min_distance,
    pir_rate_bounds,
    sdmm_thresholds,
)
from starprod.catalog import full_space, repetition_code
from starprod.errors import BudgetExceeded, NotBinary

from conftest import grs_code


def test_pir_full_space():
    f2 = field_make(2)
    full = full_space(f2, 4)
    rep = pir_rate_bounds(full, full)
    assert rep.rate_upper == 0
    assert rep.rate_lower == 0  # distance 1


def test_pir_grs_pair():
    c = grs_code(5, 5, 2)
    rep = pir_rate_bounds(c, c)
    assert rep.star_dim == 3
    assert rep.rate_upper == Fraction(2, 5)
    # the star of two k=2 evaluation codes is the [5, 3] MDS code, d = 3
    assert rep.rate_lower == Fraction(2, 5)
    # matches the closed-form rate of an evaluation-code scheme
    assert rep.rate_upper == 1 - Fraction(2 + 2 - 1, 5)


def test_pir_repetition_partner():
    # repetition is the star identity, so the rate depends on the partner only
    f3 = field_make(3)
    rep_code = repetition_code(f3, 6)
    partner = code_from_matrix(Mat(f3, [[1, 0, 2, 1, 0, 0], [0, 1, 1, 2, 1, 0]]))
    out = pir_rate_bounds(rep_code, partner)
    assert out.rate_upper == 1 - Fraction(partner.k, 6)


def test_pir_budget_suppresses_lower_bound():
    c = grs_code(5, 5, 2)
    rep = pir_rate_bounds(c, c, budget=2)
    assert rep.rate_lower is None and rep.rate_upper == Fraction(2, 5)
    assert rep.to_json()["rate_lower"] is None


def test_pir_rate_order():
    c = grs_code(7, 7, 2)
    d = grs_code(7, 7, 3)
    rep = pir_rate_bounds(c, d)
    assert 0 <= rep.rate_lower <= rep.rate_upper <= 1


def test_sdmm_full_star():
    f2 = field_make(2)
    full = full_space(f2, 5)
    rep = sdmm_thresholds(full, full)
    assert rep.star_distance == 1
    assert rep.recovery == 5 and rep.stragglers == 0


def test_sdmm_grs_pair():
    c = grs_code(5, 5, 2)
    rep = sdmm_thresholds(c, c)
    assert rep.star_distance == 3
    assert rep.recovery == 3 and rep.stragglers == 2
    assert rep.recovery + rep.stragglers == rep.servers == 5


def test_sdmm_repetition_pair():
    f2 = field_make(2)
    r4 = repetition_code(f2, 4)
    rep = sdmm_thresholds(r4, r4)
    assert rep.star_distance == 4
    assert rep.recovery == 1 and rep.stragglers == 3


def test_sdmm_budget_error():
    c = grs_code(5, 5, 2)
    with pytest.raises(BudgetExceeded):
        sdmm_thresholds(c, c, budget=2)


def test_csst_repetition_length_2():
    f2 = field_make(2)
    r2 = repetition_code(f2, 2)
    rep = csst_envelope(r2)
    assert rep.feasible and rep.envelope_dim == 1
    # supplying the envelope itself keeps the pair feasible
    rep2 = csst_envelope(r2, r2)
    assert rep2.feasible
    assert rep2.distance_floor == 2  # dual of the repetition code is itself


def test_csst_repetition_length_3_infeasible():
    f2 = field_make(2)
    rep = csst_envelope(repetition_code(f2, 3))
    assert not rep.feasible and rep.envelope_dim == 0


def test_csst_full_space_infeasible():
    f2 = field_make(2)
    rep = csst_envelope(full_space(f2, 3))
    assert not rep.feasible and rep.envelope_dim == 0


def test_csst_membership_check():
    f2 = field_make(2)
    c1 = code_from_matrix(Mat(f2, [[1, 1, 0, 0], [0, 0, 1, 1]]))
    base = csst_envelope(c1)
    assert base.feasible and base.envelope_dim >= 1
    outside = code_from_matrix(Mat(f2, [[1, 0, 0, 0]]))
    assert not csst_envelope(c1, outside).feasible
    inside = code_from_matrix(Mat(f2, [[1, 1, 1, 1]]))
    rep = csst_envelope(c1, inside)
    assert rep.feasible == (rep.envelope_dim >= 1)


def _bits(rows, cols):
    return st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def csst_cases(draw):
    """(n, rows of c1, how c2 is drawn, rows of c2 or coefficients over c1's rows)."""
    n = draw(st.integers(1, 8))
    g1 = draw(_bits(draw(st.integers(1, n)), n))
    mode = draw(st.sampled_from(("none", "random", "subcode", "c1")))
    g2 = draw(_bits(draw(st.integers(1, n)), len(g1) if mode == "subcode" else n))
    return n, g1, mode, g2


def _words(basis):
    """Every codeword of a GF(2) basis, one row per message."""
    msgs = np.array(list(itertools.product((0, 1), repeat=basis.shape[0])))
    return msgs @ basis % 2


@settings(derandomize=True, max_examples=400, deadline=None)
@given(csst_cases())
@example((3, [[1, 1, 0], [0, 1, 1]], "random", [[1, 0, 1]]))  # the square is F_2^3
@example((3, [[1, 1, 0], [0, 1, 1]], "none", [[1, 0, 1]]))
@example((4, [[1, 1, 1, 1]], "c1", [[1, 1, 1, 1]]))
@example((4, [[1, 1, 0, 0], [0, 0, 1, 1]], "subcode", [[1, 1]]))
def test_csst_envelope_equals_brute_force(case):
    # the envelope counted from all 2**k1 messages whose codeword is
    # orthogonal to every pairwise product of c1's basis rows
    n, g1, mode, g2 = case
    f2 = field_make(2)
    g1 = np.array(g1)
    assume(g1.any())
    c1 = code_from_matrix(Mat(f2, g1))
    c2 = None if mode == "none" else c1
    if mode in ("random", "subcode"):
        rows = np.array(g2) @ g1 % 2 if mode == "subcode" else np.array(g2)
        assume(rows.any())
        c2 = code_from_matrix(Mat(f2, rows))
    b1 = c1.basis.data
    products = (b1[:, None, :] * b1[None, :, :]).reshape(-1, n)
    orthogonal = ~(_words(b1) @ products.T % 2).any(axis=1)
    envelope_dim = int(orthogonal.sum()).bit_length() - 1
    feasible, floor = envelope_dim >= 1, None
    if c2 is not None:
        in_c1 = {w.tobytes() for w in _words(b1)}
        w2 = _words(c2.basis.data)
        feasible = all(w.tobytes() in in_c1 for w in w2) and not (w2 @ products.T % 2).any()
        floor = None if c2.k == n else min_distance(dual(c2))
    rep = csst_envelope(c1, c2)
    assert (rep.feasible, rep.envelope_dim, rep.distance_floor) == (feasible, envelope_dim, floor)


def test_csst_requires_binary():
    f3 = field_make(3)
    with pytest.raises(NotBinary):
        csst_envelope(repetition_code(f3, 3))


def test_report_json_shapes():
    c = grs_code(5, 5, 2)
    pir = pir_rate_bounds(c, c).to_json()
    assert pir == {"n": 5, "star_dim": 3, "rate_upper": "2/5", "rate_lower": "2/5"}
    sdmm = sdmm_thresholds(c, c).to_json()
    assert sdmm == {"servers": 5, "star_distance": 3, "recovery": 3, "stragglers": 2}
    f2 = field_make(2)
    csst = csst_envelope(repetition_code(f2, 2)).to_json()
    assert csst == {"feasible": True, "envelope_dim": 1, "distance_floor": None}


def test_report_json_roundtrip():
    import json

    from starprod import CsstReport, PirReport, SdmmReport

    c = grs_code(5, 5, 2)
    pir = pir_rate_bounds(c, c)
    assert PirReport.from_json(json.loads(json.dumps(pir.to_json()))) == pir
    trimmed = pir_rate_bounds(c, c, budget=2)
    assert PirReport.from_json(json.loads(json.dumps(trimmed.to_json()))) == trimmed
    sdmm = sdmm_thresholds(c, c)
    assert SdmmReport.from_json(json.loads(json.dumps(sdmm.to_json()))) == sdmm
    f2 = field_make(2)
    csst = csst_envelope(repetition_code(f2, 2), repetition_code(f2, 2))
    assert CsstReport.from_json(json.loads(json.dumps(csst.to_json()))) == csst


def test_pir_rate_trend_toward_limit():
    # with random pairs the mean upper rate falls toward 1 - min(k1k2, n)/n
    # as the field grows; the residual bias at q = 11 is below one percent
    from starprod import Params, mc_star_dim

    limit = 1 - 6 / 7
    gaps = []
    for q in (2, 3, 5, 7, 11):
        est = mc_star_dim(Params(q, 7, 2, 3), samples=2000, seed=31)
        gaps.append(abs((1 - est.mean_f64 / 7) - limit))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01
