#!/usr/bin/env python3
"""Regenerate src/starprod/_moduli.py.

For every prime power q = p^m with m >= 2 and q <= 2**16 this script finds
the canonical field modulus shipped with the package: the monic degree-m
polynomial over GF(p) with the smallest integer encoding (sum c_i p^i,
constant term first) such that x is a generator of the multiplicative
group of GF(p)[x]/(f).  Primitivity of x implies irreducibility of f, so a
single order computation certifies both.

The table is committed so that installs never depend on this script; rerun
it only if the q limit changes.  Without sympy,
tests/test_fields.py::test_shipped_moduli_have_least_encoding checks this
rule for every shipped modulus with q <= 4096.
"""

from __future__ import annotations

import sys
from pathlib import Path

from sympy import factorint, primerange

Q_LIMIT = 2**16


def _poly_mul_mod(a, b, f, p):
    """Multiply polynomials a*b modulo the monic polynomial f, over GF(p)."""
    m = len(f) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce: subtract multiples of f starting at the top degree
    for d in range(len(out) - 1, m - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for j in range(m):
                out[d - m + j] = (out[d - m + j] - c * f[j]) % p
    return out[:m]


def _x_pow_mod(e, f, p):
    """Compute x**e modulo f over GF(p), by square and multiply."""
    m = len(f) - 1
    result = [1] + [0] * (m - 1)
    base = ([0, 1] + [0] * (m - 2))[:m] if m >= 2 else [0]
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, f, p)
        base = _poly_mul_mod(base, base, f, p)
        e >>= 1
    return result


def _is_one(poly):
    return poly[0] == 1 and not any(poly[1:])


def _x_is_primitive(f, p):
    q = p ** (len(f) - 1)
    if not _is_one(_x_pow_mod(q - 1, f, p)):
        return False
    for ell in factorint(q - 1):
        if _is_one(_x_pow_mod((q - 1) // ell, f, p)):
            return False
    return True


def find_modulus(p, m):
    """Smallest-encoding monic degree-m polynomial with x primitive."""
    for low in range(p**m):
        coeffs = []
        v = low
        for _ in range(m):
            coeffs.append(v % p)
            v //= p
        if coeffs[0] == 0:
            continue  # x must be a unit
        f = coeffs + [1]
        if _x_is_primitive(f, p):
            return tuple(f)
    raise RuntimeError(f"no primitive modulus found for p={p}, m={m}")


def main():
    entries = []
    for p in primerange(2, 257):
        m = 2
        while p**m <= Q_LIMIT:
            entries.append(((p, m), find_modulus(p, m)))
            m += 1
    out = Path(__file__).resolve().parent.parent / "src" / "starprod" / "_moduli.py"
    with out.open("w") as fh:
        fh.write('"""Shipped field moduli, generated by tools/gen_modulus_table.py.\n\n')
        fh.write("Keys are (p, m); values are monic modulus coefficients, constant\n")
        fh.write("term first.  Each modulus makes x a multiplicative generator of\n")
        fh.write('GF(p**m), so the log tables in fields.py can use x as their base.\n"""\n\n')
        fh.write("MODULI = {\n")
        for (p, m), f in entries:
            fh.write(f"    ({p}, {m}): {f},\n")
        fh.write("}\n")
    print(f"wrote {len(entries)} moduli to {out}")


if __name__ == "__main__":
    sys.exit(main())
