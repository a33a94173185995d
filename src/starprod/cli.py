"""Command-line front end.

Subcommands: bound, expect-kernel, mc, table1, oracle, mds, intersect,
limit-q, apps {pir,sdmm,csst}, example-mds.  Exit codes: 0 success,
1 failed oracle check, 2 usage or validation error, 3 enumeration budget
exceeded, 4 I/O error.  Exact rationals print as num/den plus a decimal
to 10 significant digits, rounded half up from the exact quotient by the
standard library's decimal module (_dec); estimates and app reports print
as JSON.  A float view of an exact value past the float range prints as
+-inf in plain text and as null in JSON, which has no infinity (RFC 8259).
STARPROD_THREADS overrides --threads when the flag is absent; example-mds
accepts --threads and ignores it.  oracle runs q in
{2, 3, 4, 5, 7, 8, 9} up to --qmax, skips grid points over
oracle.DEFAULT_BUDGET instead of exiting 3, and exits 2 if it checks none.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys
from fractions import Fraction

from . import apps, catalog, exact, oracle, sampling
from .codes import code_from_matrix, is_mds
from .errors import BadRange, BudgetExceeded, StarprodError
from .exact import RandomModel
from .fields import field_from_order
from .matrices import load_matrix, save_matrix


def _dec(x: Fraction) -> str:
    """x to 10 significant digits, rounded half up (away from zero) from
    the exact quotient.  With e the exponent of the leading digit after
    rounding, the digits print in fixed point when -5 < e < 10 and as
    d.ddde+X or d.ddde-X otherwise, trailing zeros stripped but one digit
    kept after the point: 0.0, 1.000976563, 0.0001, 1.0e-5, 1.0e+10."""
    ctx = decimal.Context(prec=10, rounding=decimal.ROUND_HALF_UP, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    d = ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    if not d:
        return "0.0"
    sign, digits, _ = d.as_tuple()
    e = d.adjusted()
    digits = "".join(map(str, digits)).rstrip("0")
    if -5 < e < 10:
        digits = "0" * -e + digits.ljust(e + 1, "0")
        point = max(e, 0) + 1
        return "-" * sign + f"{digits[:point]}.{digits[point:] or '0'}"
    return "-" * sign + f"{digits[0]}.{digits[1:] or '0'}e{e:+d}"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _exact_line(label: str, x: Fraction) -> str:
    return f"{label} = {_frac(x)} (= {_dec(x)})"


def _exact_json(name: str, x: Fraction) -> dict:
    return {f"{name}_num": str(x.numerator), f"{name}_den": str(x.denominator)}


def _header(args) -> dict:
    return {"q": args.q, "n": args.n, "k1": args.k1, "k2": args.k2}


def _emit(args, plain_lines, payload) -> None:
    if getattr(args, "format", "plain") == "json":
        print(json.dumps(payload))
    else:
        for line in plain_lines:
            print(line)


def _params(args) -> exact.Params:
    return exact.Params(q=args.q, n=args.n, k1=args.k1, k2=args.k2)


def _load_code(path):
    return code_from_matrix(load_matrix(path))


# -- subcommands -------------------------------------------------------------


def cmd_bound(args) -> int:
    res = exact.star_dim_lower_bound(_params(args))
    e = res.kernel_expectation
    _emit(
        args,
        [_exact_line("E[kernel]", e), f"bound = {res.bound:.10g}"],
        {**_header(args), **_exact_json("kernel", e), "bound": res.bound},
    )
    return 0


def cmd_expect_kernel(args) -> int:
    e = exact.expected_kernel_size(_params(args))
    _emit(args, [_exact_line("E[kernel]", e)], {**_header(args), **_exact_json("kernel", e)})
    return 0


def cmd_mc(args) -> int:
    p = _params(args)
    model = RandomModel(args.model)
    fn = {
        "star-dim": sampling.mc_star_dim,
        "kernel-size": sampling.mc_kernel_size,
        "full-dim": sampling.mc_full_dim_frequency,
    }[args.stat]
    est = fn(p, model, args.samples, args.seed, args.threads)
    obj = est.to_json()
    obj["stat"] = args.stat
    if args.stat == "full-dim" and p.n >= p.k1 * p.k2:
        # advisory asymptotic bound, reported beside the frequency
        obj["asymptotic_bound"] = exact.full_dim_probability_bound(p.q, p.n, p.k1, p.k2)
    print(json.dumps(obj))
    return 0


def cmd_table1(args) -> int:
    rows = sampling.reproduce_table1(args.samples, args.seed, args.threads)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in rows]))
    else:
        print(sampling.TABLE1_CSV_HEADER)
        for r in rows:
            print(r.to_csv())
    return 0


# Each oracle check yields one zero-argument callable per GF(q) grid point, returning (label, ok).
_ORACLE_FIELDS = (2, 3, 4, 5, 7, 8, 9)
_MDS_POINTS = ((2, 3, 2), (3, 4, 2))  # (q, n, k1)


def _param_points(args, q, name, kmax, enumerate_, formula):
    def point(p):
        return f"{name} q={q} n={p.n} k1={p.k1} k2={p.k2}", enumerate_(p) == formula(p)

    for n in range(1, args.nmax + 1):
        for k1 in range(1, min(n, kmax) + 1):
            for k2 in range(k1, min(n, kmax) + 1):
                yield functools.partial(point, exact.Params(q=q, n=n, k1=k1, k2=k2))


def _oracle_kernel(args, q):
    return _param_points(args, q, "kernel", args.kmax, oracle.exact_expected_kernel, exact.expected_kernel_size)


def _oracle_intersection(args, q):
    return _param_points(
        args, q, "intersection", args.nmax, oracle.exact_expected_intersection, exact.expected_intersection_dim
    )


def _oracle_zerodiag(args, q):
    def point(k1, k2):
        by_rank = oracle.count_zero_diag_oracle(k1, k2, q).by_rank
        ok = all(by_rank.get(r, 0) == exact.count_zero_diag_rank(k1, k2, r, q) for r in range(k1 + 1))
        return f"zerodiag q={q} k1={k1} k2={k2}", ok

    for k1 in range(1, args.kmax + 1):
        for k2 in range(k1, args.kmax + 2):
            yield functools.partial(point, k1, k2)


def _oracle_support(args, q):
    def point(n, ell):
        counts = oracle.count_support_oracle(q, n, ell)
        want = [exact.binom(n, s) * exact.count_subspaces_with_support(q, n, ell, s) for s in range(n + 1)]
        return f"support q={q} n={n} ell={ell}", counts == want

    for n in range(1, args.nmax + 1):
        for ell in range(1, n + 1):
            yield functools.partial(point, n, ell)


def _oracle_mds(args, q):
    @functools.cache  # one enumeration serves every k2 of a point
    def mds_codes(n, k1):
        return [c for c in oracle.enumerate_subspaces(field_from_order(q), n, k1) if is_mds(c)]

    def point(n, k1, k2):
        dims = [oracle.exact_expected_star_dim_fixed(c, k2) for c in mds_codes(n, k1)]
        ok = all(d == exact.expected_star_dim_mds(q, n, k1, k2) for d in dims)
        return f"mds q={q} n={n} k1={k1} k2={k2} ({len(dims)} codes)", ok

    for q_, n, k1 in _MDS_POINTS:
        for k2 in range(1, n + 1):
            if q_ == q and n <= args.nmax and (k2 == 1 or k2 >= n - k1 + 1):
                yield functools.partial(point, n, k1, k2)


def cmd_oracle(args) -> int:
    checks = {
        "kernel": _oracle_kernel,
        "zerodiag": _oracle_zerodiag,
        "intersection": _oracle_intersection,
        "support": _oracle_support,
        "mds": _oracle_mds,
    }
    names = list(checks) if args.check == "all" else [args.check]
    checked = failed = 0
    for name in names:
        for q in (q for q in _ORACLE_FIELDS if q <= args.qmax):
            for point in checks[name](args, q):
                try:  # each point calls its oracle first, which charges its budget up front
                    label, ok = point()
                except BudgetExceeded:
                    continue
                print(f"{'PASS' if ok else 'FAIL'} {label}")
                checked += 1
                failed += 0 if ok else 1
    if not checked:
        raise BadRange("no oracle grid point was checked: the grid is empty or over the budget")
    print(f"{'all checks passed' if failed == 0 else f'{failed} checks FAILED'}")
    return 0 if failed == 0 else 1


def cmd_mds(args) -> int:
    val = exact.expected_star_dim_mds(args.q, args.n, args.k1, args.k2)
    _emit(args, [_exact_line("E[star dim]", val)], {**_header(args), **_exact_json("value", val)})
    return 0


def cmd_intersect(args) -> int:
    p = _params(args)
    val = exact.expected_intersection_dim(p)
    lines = [_exact_line("E[intersection dim]", val)]
    payload = {**_header(args), **_exact_json("value", val)}
    if args.mc:
        est = sampling.mc_intersection_dim(p, args.samples, args.seed, args.threads)
        lines.append(json.dumps(est.to_json()))
        payload["estimate"] = est.to_json()
    _emit(args, lines, payload)
    return 0


def cmd_limit_q(args) -> int:
    qs = [int(tok) for tok in args.qlist.split(",") if tok.strip()]
    if not qs:
        raise BadRange(f"--qlist {args.qlist!r} names no field order")
    lines, rows = [], []
    for q in qs:
        p = exact.Params(q=q, n=args.n, k1=args.k1, k2=args.k2)
        e = exact.expected_kernel_size(p)
        lim = exact.kernel_limit_value(p)
        gap = exact._float(abs(e - lim))
        lines.append(f"q={q}: E = {_frac(e)}, limit = {_frac(lim)}, |gap| = {gap:.6g}")
        rows.append({"q": q, **_exact_json("kernel", e), **_exact_json("limit", lim), "abs_gap": exact._json_float(gap)})
    _emit(args, lines, rows)
    return 0


def cmd_apps(args) -> int:
    if args.app == "pir":
        rep = apps.pir_rate_bounds(_load_code(args.c), _load_code(args.d))
    elif args.app == "sdmm":
        rep = apps.sdmm_thresholds(_load_code(args.ca), _load_code(args.cb))
    else:
        c2 = _load_code(args.c2) if args.c2 else None
        rep = apps.csst_envelope(_load_code(args.c1), c2)
    print(json.dumps(rep.to_json()))
    return 0


def cmd_example_mds(args) -> int:
    if args.code:
        codes = [("C", _load_code(args.code))]
    else:
        a, b = catalog.mds63_gf7_codes()
        codes = [("C1", a), ("C2", b)]
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        for name, c in codes:
            path = os.path.join(args.dump, f"{name}.mat")
            save_matrix(c.basis, path)
            print(f"wrote {path}")
    for name, c in codes:
        val = oracle.exact_expected_star_dim_fixed(c, args.l)
        print(_exact_line(f"E[dim {name}*D] (dim D = {args.l})", val))
    return 0


# -- parser ------------------------------------------------------------------


def _add_params(sp):
    sp.add_argument("-q", type=int, required=True, help="field order (prime power)")
    sp.add_argument("-n", type=int, required=True, help="code length")
    sp.add_argument("-k1", type=int, required=True, help="first dimension")
    sp.add_argument("-k2", type=int, required=True, help="second dimension")


def _add_common(sp):
    sp.add_argument("--format", choices=["plain", "json"], default="plain")


def _add_mc_opts(sp):
    sp.add_argument("--samples", type=int, default=sampling.DEFAULT_SAMPLES)
    sp.add_argument("--seed", type=int, default=sampling.DEFAULT_SEED)
    sp.add_argument("--threads", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starprod",
        description="Star products of linear codes: exact formulas, Monte Carlo, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="exact kernel expectation and the Jensen bound")
    _add_params(p)
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("expect-kernel", help="exact expected kernel size")
    _add_params(p)
    _add_common(p)
    p.set_defaults(func=cmd_expect_kernel)

    p = sub.add_parser("mc", help="Monte Carlo estimate (JSON)")
    _add_params(p)
    _add_mc_opts(p)
    p.add_argument("--model", choices=["systematic", "uniform"], default="systematic")
    p.add_argument(
        "--stat", choices=["star-dim", "kernel-size", "full-dim"], default="star-dim"
    )
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("table1", help="36-row bound-vs-Monte-Carlo benchmark grid")
    _add_mc_opts(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("oracle", help="formula-vs-enumeration consistency checks")
    p.add_argument(
        "--check",
        choices=["kernel", "zerodiag", "intersection", "support", "mds", "all"],
        default="all",
    )
    p.add_argument("--qmax", type=int, default=9)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--kmax", type=int, default=3)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("mds", help="expected star dimension, fixed MDS code vs uniform code")
    _add_params(p)
    _add_common(p)
    p.set_defaults(func=cmd_mds)

    p = sub.add_parser("intersect", help="expected intersection dimension")
    _add_params(p)
    _add_common(p)
    p.add_argument("--mc", action="store_true", help="also run a Monte Carlo estimate")
    _add_mc_opts(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("limit-q", help="kernel expectation against its large-field limit")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k1", type=int, required=True)
    p.add_argument("-k2", type=int, required=True)
    p.add_argument("--qlist", default="2,3,5,7,11,13,17,19,23")
    _add_common(p)
    p.set_defaults(func=cmd_limit_q)

    p = sub.add_parser("apps", help="application figure-of-merit calculators")
    appsub = p.add_subparsers(dest="app", required=True)
    pa = appsub.add_parser("pir", help="retrieval-rate bounds")
    pa.add_argument("--c", required=True, help="matrix file for the storage code")
    pa.add_argument("--d", required=True, help="matrix file for the query code")
    pa.set_defaults(func=cmd_apps)
    pa = appsub.add_parser("sdmm", help="recovery threshold and straggler tolerance")
    pa.add_argument("--ca", required=True)
    pa.add_argument("--cb", required=True)
    pa.set_defaults(func=cmd_apps)
    pa = appsub.add_parser("csst", help="CSS-T pair feasibility over GF(2)")
    pa.add_argument("--c1", required=True)
    pa.add_argument("--c2", default=None)
    pa.set_defaults(func=cmd_apps)

    p = sub.add_parser("example-mds", help="exact fixed-code star expectations over GF(7)")
    p.add_argument("--l", type=int, default=2, help="dimension of the random partner code")
    p.add_argument("--code", default=None, help="matrix file overriding the built-in pair")
    p.add_argument("--dump", default=None, help="directory to write the generator matrices to")
    p.add_argument(
        "--threads", type=int, default=None, help="accepted and unused: the exact enumeration runs on one thread"
    )
    p.set_defaults(func=cmd_example_mds)

    return parser


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(line_buffering=True)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args) or 0
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream consumer closed the pipe; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (StarprodError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
