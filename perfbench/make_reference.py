"""Regenerate perfbench/reference.json, the benchmark's correctness data.

    python3 perfbench/make_reference.py    # from the repository root, about 3 minutes

Published Table-1 values are copied below as printed in the paper's
appendix table (the same figures tests/test_acceptance.py carries); they
are not imported from the tests.  Every other entry is an exact rational
computed here by the closed form or enumeration named in its "source".
Each enumerated mean is cross-checked against a second public oracle or
closed form before it is written.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import starprod as sp  # noqa: E402
from starprod.catalog import evaluation_code  # noqa: E402
from starprod.codes import pairwise_product_rows  # noqa: E402

from workloads import (  # noqa: E402
    ENUM_FIXED,
    ENUM_INTERSECTION,
    ENUM_KERNEL,
    MC_UNIFORM_POINTS,
    UNIFORM,
    point_key,
)

# Appendix-table values, grouped by (n, k1, k2), q = 2, 3, 5, 7.
PUBLISHED_BOUNDS = [
    "4.3629", "5.1610", "5.6761", "5.8348",
    "5.4339", "6.2843", "6.7708", "6.8982",
    "5.9594", "6.6232", "6.9011", "6.9582",
    "5.3628", "5.9117", "5.9960", "5.9996",
    "7.3205", "8.5237", "8.9360", "8.9822",
    "8.5278", "9.9850", "10.691", "10.851",
    "5.7877", "5.9922", "5.999", "6.0000",
    "8.3906", "8.9642", "8.9995", "9.0000",
    "10.473", "11.793", "11.990", "11.998",
]  # fmt: skip
PUBLISHED_MEANS = [
    4.6264, 5.4398, 5.8522, 5.9415,
    5.7123, 6.5425, 6.9000, 6.9663,
    6.1949, 6.7812, 6.9595, 6.9858,
    5.5339, 5.9514, 5.9984, 5.9999,
    7.6598, 8.7159, 8.9731, 8.9943,
    8.9618, 10.336, 10.859, 10.947,
    5.8525, 5.9963, 6.0000, 6.0000,
    8.5608, 8.9812, 8.9999, 9.0000,
    10.843, 11.885, 11.996, 11.999,
]  # fmt: skip


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def moments(hist: dict, value) -> dict:
    """Exact mean and variance of value(d) under the histogram {d: count}."""
    total = sum(hist.values())
    mean = Fraction(sum(c * value(d) for d, c in hist.items()), total)
    second = Fraction(sum(c * value(d) ** 2 for d, c in hist.items()), total)
    return {"mean": frac(mean), "var": frac(second - mean * mean)}


def subspace_bases(field, n, k) -> np.ndarray:
    return np.stack([c.basis.data for c in sp.enumerate_subspaces(field, n, k)])


def pair_histograms(p):
    """Star and intersection dimension counts over all subspace pairs."""
    field = sp.field_from_order(p.q)
    g1s, g2s = subspace_bases(field, p.n, p.k1), subspace_bases(field, p.n, p.k2)
    star, inter = {}, {}
    for g1 in g1s:
        dims = sp.rank_many(field, pairwise_product_rows(field, g1[None], g2s))
        stacked = np.concatenate([np.broadcast_to(g1, (len(g2s),) + g1.shape), g2s], axis=1)
        meets = p.k1 + p.k2 - sp.rank_many(field, stacked)
        for hist, vals in ((star, dims), (inter, meets)):
            for d, c in enumerate(np.bincount(vals)):
                if c:
                    hist[d] = hist.get(d, 0) + int(c)
    return star, inter


def mc_uniform_reference() -> dict:
    out = {}
    enum = "histogram over all pairs of enumerate_subspaces bases, via pairwise_product_rows + rank_many"
    for q, n, k1, k2 in MC_UNIFORM_POINTS:
        p = sp.Params(q=q, n=n, k1=k1, k2=k2)
        star, inter = pair_histograms(p)
        kk = k1 * k2
        entry = {
            "star_dim": {**moments(star, lambda d: d), "source": f"{enum}; mean == oracle.exact_expected_star_dim(p, UNIFORM)"},
            "kernel_size": {**moments(star, lambda d: q ** (kk - d)), "source": f"{enum}; kernel size q**(k1*k2 - dim)"},
            "intersection_dim": {
                **moments(inter, lambda d: d),
                "source": f"{enum} of stacked bases; mean == exact.expected_intersection_dim(p)",
            },
        }
        require(Fraction(entry["star_dim"]["mean"]) == sp.exact_expected_star_dim(p, UNIFORM), p)
        require(Fraction(entry["intersection_dim"]["mean"]) == sp.expected_intersection_dim(p), p)
        out[point_key(q, n, k1, k2)] = entry
        print("mc-uniform", p, entry["star_dim"]["mean"], file=sys.stderr)
    return out


def enum_exact_reference() -> dict:
    out = {}
    for q, n, k, ell in ENUM_FIXED:
        code = evaluation_code(sp.field_from_order(q), k, list(range(n)))
        value = sp.exact_expected_star_dim_fixed(code, ell)
        source = f"oracle.exact_expected_star_dim_fixed(evaluation_code(GF({q}), {k}, points 0..{n - 1}), {ell})"
        if ell == 1 or ell >= n - k + 1:
            require(value == sp.expected_star_dim_mds(q, n, k, ell), (q, n, k, ell))
            source = f"exact.expected_star_dim_mds({q}, {n}, {k}, {ell}); equals {source}"
        out[f"fixed:{point_key(q, n, k, ell)}"] = {"value": frac(value), "source": source}
    for q, n, k1, k2 in ENUM_KERNEL:
        p = sp.Params(q=q, n=n, k1=k1, k2=k2)
        value = sp.expected_kernel_size(p)
        require(value == sp.exact_expected_kernel(p), p)
        out[f"kernel:{point_key(q, n, k1, k2)}"] = {
            "value": frac(value),
            "source": "exact.expected_kernel_size(p); equals oracle.exact_expected_kernel(p)",
        }
    for q, n, k1, k2 in ENUM_INTERSECTION:
        p = sp.Params(q=q, n=n, k1=k1, k2=k2)
        value = sp.expected_intersection_dim(p)
        require(value == sp.exact_expected_intersection(p), p)
        out[f"intersection:{point_key(q, n, k1, k2)}"] = {
            "value": frac(value),
            "source": "exact.expected_intersection_dim(p); equals oracle.exact_expected_intersection(p)",
        }
    return out


def table1_reference() -> dict:
    rows = []
    for (n, k1, k2, q), bound, mean in zip(sp.TABLE1_GRID, PUBLISHED_BOUNDS, PUBLISHED_MEANS):
        e = sp.expected_kernel_size(sp.Params(q=q, n=n, k1=k1, k2=k2))
        rows.append(
            {"n": n, "k1": k1, "k2": k2, "q": q, "published_bound": bound, "published_mean": mean, "kernel_expectation": frac(e)}
        )
    return {
        "source": "published_*: the paper's appendix table as printed; kernel_expectation: exact.expected_kernel_size(p)",
        "rows": rows,
    }


def main() -> None:
    ref = {
        "table1": table1_reference(),
        "enum_exact": enum_exact_reference(),
        "mc_uniform": mc_uniform_reference(),
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
