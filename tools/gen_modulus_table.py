#!/usr/bin/env python3
"""Regenerate src/starprod/_moduli.py.

For every prime power q = p^m with m >= 2 and q <= 2**16 this script finds
the canonical field modulus shipped with the package: the monic degree-m
polynomial over GF(p) with the smallest integer encoding (sum c_i p^i,
constant term first) such that x is a generator of the multiplicative
group of GF(p)[x]/(f).  Primitivity of x implies irreducibility of f.

Each candidate is certified by the package itself: FieldSpec(p, m) is
built with fields.MODULI set to the candidate alone, and its log-table
builder raises NoModulusTableEntry unless x is primitive.  The first
candidate in encoding order that it accepts is the shipped one, the rule
tests/test_fields.py::test_shipped_moduli_have_least_encoding checks for
every shipped modulus with q <= 4096.  Primes come from fields._is_prime;
no sympy is needed.

The table is committed so that installs never depend on this script; rerun
it (python3 tools/gen_modulus_table.py) only if the q limit changes.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from starprod import fields  # noqa: E402
from starprod.errors import NoModulusTableEntry  # noqa: E402


def find_modulus(p, m):
    """Smallest-encoding monic degree-m polynomial with x primitive."""
    for low in range(p**m):
        f = tuple(low // p**i % p for i in range(m)) + (1,)
        fields.MODULI = {(p, m): f}
        try:
            fields.FieldSpec(p, m)
        except NoModulusTableEntry:
            continue
        return f
    raise RuntimeError(f"no primitive modulus found for p={p}, m={m}")


def main():
    entries = []
    for p in filter(fields._is_prime, range(2, 257)):
        m = 2
        while p**m <= fields.Q_LIMIT:
            entries.append(((p, m), find_modulus(p, m)))
            m += 1
    out = ROOT / "src" / "starprod" / "_moduli.py"
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
