"""Figure-of-merit calculators for star-product based protocols.

Each calculator takes concrete codes and reports the quantities a scheme
designer would read off: retrieval-rate bounds for private information
retrieval, recovery/straggler thresholds for secure distributed matrix
multiplication, and the feasibility envelope for binary CSS-T code pairs.
Optional outputs that need a minimum-distance enumeration are suppressed
(set to None) when the enumeration budget does not allow them, rather
than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .codes import (
    DEFAULT_DISTANCE_BUDGET,
    LinearCode,
    _dual_distance,
    dual,
    intersection_dim,
    is_subcode,
    min_distance,
    star_product,
)
from .errors import BudgetExceeded, NotBinary


@dataclass(frozen=True)
class PirReport:
    """Retrieval-rate bounds of a star-product retrieval scheme."""

    n: int
    star_dim: int
    rate_upper: Fraction
    rate_lower: Optional[Fraction]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "star_dim": self.star_dim,
            "rate_upper": f"{self.rate_upper.numerator}/{self.rate_upper.denominator}",
            "rate_lower": (
                None
                if self.rate_lower is None
                else f"{self.rate_lower.numerator}/{self.rate_lower.denominator}"
            ),
        }

    @staticmethod
    def from_json(obj: dict) -> "PirReport":
        return PirReport(
            obj["n"],
            obj["star_dim"],
            Fraction(obj["rate_upper"]),
            None if obj["rate_lower"] is None else Fraction(obj["rate_lower"]),
        )


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
class SdmmReport:
    """Recovery threshold and straggler tolerance of a linear scheme."""

    servers: int
    star_distance: int
    recovery: int
    stragglers: int

    def to_json(self) -> dict:
        return {
            "servers": self.servers,
            "star_distance": self.star_distance,
            "recovery": self.recovery,
            "stragglers": self.stragglers,
        }

    @staticmethod
    def from_json(obj: dict) -> "SdmmReport":
        return SdmmReport(obj["servers"], obj["star_distance"], obj["recovery"], obj["stragglers"])


def sdmm_thresholds(
    ca: LinearCode, cb: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET
) -> SdmmReport:
    """Thresholds N - d + 1 responses to decode, d - 1 stragglers
    tolerated, where d is the distance of the star code on N servers."""
    star = star_product(ca, cb)
    d = min_distance(star, budget)
    return SdmmReport(star.n, d, star.n - d + 1, d - 1)


@dataclass(frozen=True)
class CsstReport:
    """Feasibility of completing a binary code into a CSS-T style pair."""

    feasible: bool
    envelope_dim: int
    distance_floor: Optional[int]

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "envelope_dim": self.envelope_dim,
            "distance_floor": self.distance_floor,
        }

    @staticmethod
    def from_json(obj: dict) -> "CsstReport":
        return CsstReport(obj["feasible"], obj["envelope_dim"], obj["distance_floor"])


def csst_envelope(
    c1: LinearCode, c2: Optional[LinearCode] = None, budget: int = DEFAULT_DISTANCE_BUDGET
) -> CsstReport:
    """Dimension of the envelope c1 meet (c1 star c1)-dual, and whether a
    given c2 sits inside it.

    A nonzero envelope is exactly what a second code needs to complete
    the pair; when c2 is supplied, feasibility additionally requires
    c2 inside c1 and inside the dual of the square.  distance_floor is
    the dual distance of c2, a floor on the resulting code's distance.
    """
    if c1.field.q != 2:
        raise NotBinary("CSS-T feasibility is defined for GF(2) codes")
    square = star_product(c1, c1)
    if square.k == square.n:
        square_dual = None
        envelope_dim = 0
    else:
        square_dual = dual(square)
        envelope_dim = intersection_dim(c1, square_dual)
    feasible = envelope_dim >= 1
    distance_floor = None
    if c2 is not None:
        inside = is_subcode(c2, c1) and square_dual is not None and is_subcode(c2, square_dual)
        feasible = feasible and inside
        if c2.k < c2.n:
            try:
                distance_floor = _dual_distance(c2, budget)
            except BudgetExceeded:
                distance_floor = None
    return CsstReport(feasible, envelope_dim, distance_floor)
