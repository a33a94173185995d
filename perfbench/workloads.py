"""The benchmark workloads: inputs made from a seed, public calls, checks.

Each workload turns a cycle seed into a list of Ops.  An Op is one public
call (one table row, one expectation, one code pair) that a single caller
issues and waits for.  Its check compares the output with reference.json
or with an independent computation, and its canon is the byte string that
must not change between threads=1 and threads=2.

Why these four, and which layer each one stresses, is recorded in
predictions.json.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import starprod as sp
from starprod.catalog import evaluation_code
from starprod.codes import pairwise_product_rows

SYSTEMATIC = sp.RandomModel.SYSTEMATIC
UNIFORM = sp.RandomModel.UNIFORM_SUBSPACE

# Two full 4096-sample chunks per call, so threads=2 has work to split.
MC_SAMPLES = 8192
# An MC mean passes when it lies within this many standard errors of the
# exact reference mean; the standard error comes from the exact variance.
MC_Z = 6
# Table-1 means are checked against the published values, whose own Monte
# Carlo error and rounding need the absolute floor.
TABLE1_Z = 5
TABLE1_FLOOR = 0.02

# (q, n, k1, k2) -> statistics estimated there.  GF(4) and GF(8) take the
# log/antilog path in fields, GF(3) and GF(2) the residue path, and
# (2,4,4,4) asks for full-rank 4x4 binary generators, which the rejection
# sampler often misses.  There the star, kernel and intersection values
# are all fixed by k1 = k2 = n, so one call stands for the three.
ALL_STATS = ("star_dim", "kernel_size", "intersection_dim")
MC_UNIFORM_POINTS = {
    (4, 4, 2, 2): ALL_STATS,
    (8, 4, 2, 2): ALL_STATS,
    (3, 5, 2, 2): ALL_STATS,
    (2, 6, 2, 3): ALL_STATS,
    (2, 4, 4, 4): ("star_dim",),
}

# Exhaustive enumerations, each about 0.1-0.5 s on one core.  Five ops of
# distinct cost keep the median and tail ranks inside one op's latencies.
ENUM_FIXED = [(7, 5, 3, 2), (5, 5, 3, 3)]  # (q, n, k) evaluation code, partner dim ell
ENUM_KERNEL = [(2, 6, 2, 2)]  # (q, n, k1, k2), systematic pairs
ENUM_INTERSECTION = [(4, 4, 2, 2), (2, 5, 2, 3)]  # (q, n, k1, k2), subspace pairs

# (q, n, k1, k2) of the random code pairs; csst_envelope needs q = 2.  The
# star product never fills F_q^n here (k1*k2 < n), so min_distance always
# enumerates.  The three points cost about 5, 15 and 40 ms a pair, so the
# median falls inside the middle point's latencies; a random [7, 2] code
# over GF(7) is MDS about 2% of the time.
CODE_PAIR_POINTS = [(2, 10, 3, 3), (2, 13, 3, 4), (7, 7, 2, 3)]


@dataclass
class Op:
    key: str
    call: Callable  # call(threads) -> (result, items)
    check: Callable  # check(result) -> failure message or None
    canon: Callable  # canon(result) -> bytes compared across thread counts


def _estimate_canon(est) -> bytes:
    return json.dumps(est.to_json(), sort_keys=True).encode()


def _mc_check(est, ref: dict):
    """Mean within MC_Z exact standard errors of the exact reference mean."""
    mean, var = Fraction(ref["mean"]), Fraction(ref["var"])
    if var == 0:
        return None if est.mean == mean else f"mean {est.mean} != exact {mean}"
    tol = MC_Z * math.sqrt(var / est.samples)
    diff = abs(float(est.mean - mean))
    if diff > tol:
        return f"mean {est.mean_f64:.6g} vs exact {float(mean):.6g}: |diff| {diff:.3g} > {MC_Z} stderr = {tol:.3g}"
    return None


def point_key(*nums) -> str:
    return ",".join(str(v) for v in nums)


# -- table1-systematic ---------------------------------------------------------


def table1_ops(ref: dict, seed: int) -> list:
    ops = []
    rows = ref["table1"]["rows"]
    for (n, k1, k2, q), row in zip(sp.TABLE1_GRID, rows):
        if (row["n"], row["k1"], row["k2"], row["q"]) != (n, k1, k2, q):
            raise ValueError(f"reference row {row} does not match TABLE1_GRID entry {(n, k1, k2, q)}")
        p = sp.Params(q=q, n=n, k1=k1, k2=k2)

        def call(threads, p=p):
            est = sp.mc_star_dim(p, SYSTEMATIC, MC_SAMPLES, seed, threads)
            return (est, sp.star_dim_lower_bound(p)), MC_SAMPLES

        def check(res, row=row):
            est, bound = res
            if bound.kernel_expectation != Fraction(row["kernel_expectation"]):
                return f"E[kernel] {bound.kernel_expectation} != {row['kernel_expectation']}"
            pub = row["published_bound"]
            tol = 1.01 * 10.0 ** -len(pub.split(".")[1])  # one unit in the last printed digit
            if abs(bound.bound - float(pub)) > tol:
                return f"bound {bound.bound:.6g} vs published {pub}"
            tol = max(TABLE1_FLOOR, TABLE1_Z * est.stderr)
            if abs(est.mean_f64 - row["published_mean"]) > tol:
                return f"MC mean {est.mean_f64:.6g} vs published {row['published_mean']} (tol {tol:.3g})"
            return None

        ops.append(Op(f"table1:{point_key(n, k1, k2, q)}", call, check, lambda res: _estimate_canon(res[0])))
    return ops


# -- mc-uniform ----------------------------------------------------------------


def mc_uniform_ops(ref: dict, seed: int) -> list:
    ops = []
    for (q, n, k1, k2), stats in MC_UNIFORM_POINTS.items():
        p = sp.Params(q=q, n=n, k1=k1, k2=k2)
        point_ref = ref["mc_uniform"][point_key(q, n, k1, k2)]
        calls = {
            "star_dim": lambda th, p=p: sp.mc_star_dim(p, UNIFORM, MC_SAMPLES, seed, th),
            "kernel_size": lambda th, p=p: sp.mc_kernel_size(p, UNIFORM, MC_SAMPLES, seed, th),
            "intersection_dim": lambda th, p=p: sp.mc_intersection_dim(p, MC_SAMPLES, seed, th),
        }
        for stat in stats:
            ops.append(
                Op(
                    f"mc-uniform:{stat}:{point_key(q, n, k1, k2)}",
                    lambda th, f=calls[stat]: (f(th), MC_SAMPLES),
                    lambda est, r=point_ref[stat]: _mc_check(est, r),
                    _estimate_canon,
                )
            )
    return ops


# -- enum-exact ----------------------------------------------------------------


def _monomial_image(code, rng):
    """code * M for a seeded monomial M; star expectations are invariant."""
    f, n = code.field, code.n
    m = np.zeros((n, n), dtype=np.int64)
    m[np.arange(n), rng.permutation(n)] = rng.integers(1, f.q, size=n)
    return sp.code_from_matrix(sp.mat_mul(code.basis, sp.Mat(f, m)))


def _exact_op(key: str, want: Fraction, fn) -> Op:
    def call(threads):
        budget = sp.EnumBudget()
        return fn(budget, threads), budget.observed

    def check(val):
        return None if val == want else f"{val} != exact {want}"

    return Op(key, call, check, lambda val: str(val).encode())


def enum_exact_ops(ref: dict, seed: int) -> list:
    rng = np.random.default_rng(seed)
    table = ref["enum_exact"]
    ops = []
    for q, n, k, ell in ENUM_FIXED:
        key = f"fixed:{point_key(q, n, k, ell)}"
        code = _monomial_image(evaluation_code(sp.field_from_order(q), k, list(range(n))), rng)
        ops.append(
            _exact_op(
                f"enum-exact:{key}",
                Fraction(table[key]["value"]),
                lambda b, th, c=code, ell=ell: sp.exact_expected_star_dim_fixed(c, ell, budget=b, threads=th),
            )
        )
    for q, n, k1, k2 in ENUM_KERNEL:
        key = f"kernel:{point_key(q, n, k1, k2)}"
        p = sp.Params(q=q, n=n, k1=k1, k2=k2)
        ops.append(_exact_op(f"enum-exact:{key}", Fraction(table[key]["value"]), lambda b, th, p=p: sp.exact_expected_kernel(p, budget=b)))
    for q, n, k1, k2 in ENUM_INTERSECTION:
        key = f"intersection:{point_key(q, n, k1, k2)}"
        p = sp.Params(q=q, n=n, k1=k1, k2=k2)
        ops.append(
            _exact_op(f"enum-exact:{key}", Fraction(table[key]["value"]), lambda b, th, p=p: sp.exact_expected_intersection(p, budget=b))
        )
    return ops


# -- codes-apps ----------------------------------------------------------------


def _nondegenerate_pair(q, n, k1, k2, seed):
    """The first sample-index pair whose codes both have full support."""
    field = sp.field_from_order(q)
    idx = 0
    while True:
        c1 = sp.sample_code(field, n, k1, UNIFORM, seed, 2 * idx)
        c2 = sp.sample_code(field, n, k2, UNIFORM, seed, 2 * idx + 1)
        if not (sp.is_degenerate(c1) or sp.is_degenerate(c2)):
            return c1, c2
        idx += 1


def _brute_min_weight(code) -> int:
    """Minimum nonzero weight over all q**k messages (prime q only), in
    small blocks so the check never sets the worker's peak memory."""
    q, k = code.field.q, code.k
    best = code.n
    for start in range(1, q**k, 4096):
        idx = np.arange(start, min(start + 4096, q**k))
        words = ((idx[:, None] // q ** np.arange(k)) % q) @ code.basis.data % q
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def _code_pair_call(c1, c2):
    star = sp.star_product(c1, c2)
    mds = sp.is_mds(c1) or sp.is_mds(c2)
    out = {
        "star": star,
        "dual_dims": (sp.dual(c1).k, sp.dual(c2).k),
        "distance": sp.min_distance(star),
        "lb_dual": sp.star_lower_bound_dual_distance(c1, c2),
        "lb_mds": sp.star_lower_bound_mds(c1, c2) if mds else None,
        "pir": sp.pir_rate_bounds(c1, c2),
        "sdmm": sp.sdmm_thresholds(c1, c2),
        "csst": sp.csst_envelope(c1, c2) if c1.field.q == 2 else None,
    }
    return out, 1


def _code_pair_check(c1, c2, res):
    star, d, n = res["star"], res["distance"], c1.n
    f = c1.field
    batched = int(sp.rank_many(f, pairwise_product_rows(f, c1.basis.data, c2.basis.data)[None])[0])
    brute = _brute_min_weight(star)
    problems = [
        (star.k != batched, f"star dim {star.k} != batched rank {batched}"),
        (d != brute, f"distance {d} != brute force {brute}"),
        (d > n - star.k + 1, f"distance {d} breaks the Singleton bound"),
        (res["dual_dims"] != (n - c1.k, n - c2.k), f"dual dims {res['dual_dims']}"),
        (res["lb_dual"] > star.k, f"dual-distance bound {res['lb_dual']} > star dim {star.k}"),
        (res["lb_mds"] is not None and res["lb_mds"] > star.k, f"MDS bound {res['lb_mds']} > star dim {star.k}"),
        (res["pir"].star_dim != star.k or res["pir"].rate_upper != Fraction(n - star.k, n), f"pir {res['pir']}"),
        (res["pir"].rate_lower != Fraction(d - 1, n), f"pir lower rate {res['pir'].rate_lower}"),
        (res["sdmm"] != sp.SdmmReport(n, d, n - d + 1, d - 1), f"sdmm {res['sdmm']}"),
        (
            res["csst"] is not None and (res["csst"].envelope_dim > c1.k or (res["csst"].feasible and res["csst"].envelope_dim < 1)),
            f"csst {res['csst']}",
        ),
    ]
    return "; ".join(msg for bad, msg in problems if bad) or None


def _code_pair_canon(res) -> bytes:
    obj = {k: v for k, v in res.items() if k not in ("star", "pir", "sdmm", "csst")}
    obj["star"] = res["star"].basis.data.tolist()
    for app in ("pir", "sdmm", "csst"):
        obj[app] = None if res[app] is None else res[app].to_json()
    return json.dumps(obj, sort_keys=True).encode()


def codes_apps_ops(ref: dict, seed: int) -> list:
    ops = []
    for q, n, k1, k2 in CODE_PAIR_POINTS:
        c1, c2 = _nondegenerate_pair(q, n, k1, k2, seed)
        ops.append(
            Op(
                f"codes-apps:{point_key(q, n, k1, k2)}",
                lambda th, c1=c1, c2=c2: _code_pair_call(c1, c2),
                lambda res, c1=c1, c2=c2: _code_pair_check(c1, c2, res),
                _code_pair_canon,
            )
        )
    return ops


# -- registry ------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    ops: Callable  # ops(reference, cycle_seed) -> list of Op
    fields: tuple  # field orders whose tables set-up builds
    first_call: Callable  # one small call down the workload's path
    # seconds one cycle takes at threads=1 plus threads=2 on the 2-vCPU
    # machine the benchmark was sized on; a run of S seconds makes
    # max(3, round(S / cycle_s)) cycles, so every commit does the same work
    cycle_s: float

    def warm_up(self) -> None:
        """Set-up as a user pays it: field tables and a first call."""
        for q in self.fields:
            sp.field_from_order(q)
        self.first_call()


def _first_table1_call():
    sp.mc_star_dim(sp.Params(2, 7, 2, 3), SYSTEMATIC, 64, 0, 1)
    sp.star_dim_lower_bound(sp.Params(2, 7, 2, 3))


def _first_code_pair_call():
    f = sp.field_from_order(2)
    sp.star_product(sp.sample_code(f, 6, 2, UNIFORM, 0, 0), sp.sample_code(f, 6, 3, UNIFORM, 0, 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1-systematic", table1_ops, (2, 3, 5, 7), _first_table1_call, 9.0),
        Workload(
            "mc-uniform", mc_uniform_ops, (2, 3, 4, 8), lambda: sp.mc_star_dim(sp.Params(4, 4, 2, 2), UNIFORM, 64, 0, 1), 3.0
        ),
        Workload(
            "enum-exact",
            enum_exact_ops,
            (2, 3, 4, 5, 7),
            lambda: sp.exact_expected_kernel(sp.Params(2, 3, 1, 2), budget=sp.EnumBudget()),
            2.35,
        ),
        Workload("codes-apps", codes_apps_ops, (2, 7), _first_code_pair_call, 0.16),
    )
}
