"""Figure-of-merit calculators for star-product based protocols.

Each calculator takes concrete codes and reports the quantities a scheme
designer would read off: retrieval-rate bounds for private information
retrieval, recovery/straggler thresholds for secure distributed matrix
multiplication, and the feasibility envelope for binary CSS-T code pairs.
Optional outputs that need a minimum-distance enumeration are suppressed
(set to None) when the enumeration budget does not allow them, rather
than approximated.

The CSS-T envelope c1 meet (c1 star c1)-dual is the kernel of
x -> x G1 S^T on messages, S the basis of the square, so its dimension
is k1 - rank(G1 S^T) and no dual is built.  The three reports share one
JSON codec, _Report: fields in declaration order, a field declared
Fraction written as "num/den" and read back by Fraction(), None as null.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .codes import DEFAULT_DISTANCE_BUDGET, LinearCode, _dual_distance, is_subcode, min_distance, star_product
from .errors import BudgetExceeded, NotBinary
from .matrices import Mat, _combine, rank


class _Report:
    """JSON codec of the report dataclasses (see the module docstring)."""

    def to_json(self) -> dict:
        text = "{0.numerator}/{0.denominator}".format
        return {f.name: _convert(f, getattr(self, f.name), text) for f in fields(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "_Report":
        return cls(*(_convert(f, obj[f.name], Fraction) for f in fields(cls)))


def _convert(attr, value, fraction):
    """fraction(value) if the dataclass field attr is declared (Optional) Fraction, else value."""
    return fraction(value) if value is not None and "Fraction" in attr.type else value


@dataclass(frozen=True)
class PirReport(_Report):
    """Retrieval-rate bounds of a star-product retrieval scheme."""

    n: int
    star_dim: int
    rate_upper: Fraction
    rate_lower: Optional[Fraction]


def pir_rate_bounds(
    c: LinearCode, d: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET
) -> PirReport:
    """Rate window of the scheme built on the pair (c, d).

    The upper bound 1 - dim(c star d)/n is exact; the lower bound
    (distance(c star d) - 1)/n needs a distance enumeration and is
    omitted when that exceeds the budget.
    """
    star = star_product(c, d)
    rate_upper = Fraction(star.n - star.k, star.n)
    try:
        rate_lower = Fraction(min_distance(star, budget) - 1, star.n)
    except BudgetExceeded:
        rate_lower = None
    return PirReport(star.n, star.k, rate_upper, rate_lower)


@dataclass(frozen=True)
class SdmmReport(_Report):
    """Recovery threshold and straggler tolerance of a linear scheme."""

    servers: int
    star_distance: int
    recovery: int
    stragglers: int


def sdmm_thresholds(
    ca: LinearCode, cb: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET
) -> SdmmReport:
    """Thresholds N - d + 1 responses to decode, d - 1 stragglers
    tolerated, where d is the distance of the star code on N servers."""
    star = star_product(ca, cb)
    d = min_distance(star, budget)
    return SdmmReport(star.n, d, star.n - d + 1, d - 1)


@dataclass(frozen=True)
class CsstReport(_Report):
    """Feasibility of completing a binary code into a CSS-T style pair."""

    feasible: bool
    envelope_dim: int
    distance_floor: Optional[int]


def csst_envelope(
    c1: LinearCode, c2: Optional[LinearCode] = None, budget: int = DEFAULT_DISTANCE_BUDGET
) -> CsstReport:
    """Dimension of the envelope c1 meet (c1 star c1)-dual, and whether a
    given c2 sits inside it.

    A nonzero envelope is exactly what a second code needs to complete
    the pair; when c2 is supplied, feasibility requires c2 inside c1
    and orthogonal to the square.  distance_floor is the dual distance
    of c2, a floor on the resulting code's distance.
    """
    if c1.field.q != 2:
        raise NotBinary("CSS-T feasibility is defined for GF(2) codes")
    s_t = star_product(c1, c1).basis.data.T
    envelope_dim = c1.k - rank(Mat._trusted(c1.field, _combine(c1.field, c1.basis.data, s_t)))
    feasible = envelope_dim >= 1
    distance_floor = None
    if c2 is not None:
        # c2 is nonzero, so c2 inside the envelope makes it nonzero
        feasible = is_subcode(c2, c1) and not _combine(c1.field, c2.basis.data, s_t).any()
        if c2.k < c2.n:
            try:
                distance_floor = _dual_distance(c2, budget)
            except BudgetExceeded:
                distance_floor = None
    return CsstReport(feasible, envelope_dim, distance_floor)
