"""Genus-0 laboratory: vector bundles on the projective line split as sums of
line bundles, so a bundle is a sorted integer tuple, cohomology is a closed
formula, and the criterion "semistable <=> some twist kills all cohomology"
can be checked exhaustively inside a finite search box.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import InternalContradiction


@dataclass(frozen=True)
class SplittingType:
    """Nonincreasing integer tuple (a_1, ..., a_r)."""

    parts: tuple

    def __init__(self, parts):
        parts = tuple(sorted(parts, reverse=True))
        if not parts:
            raise ValueError("rank must be >= 1")
        object.__setattr__(self, "parts", parts)

    @property
    def rank(self):
        return len(self.parts)

    @property
    def degree(self):
        return sum(self.parts)

    def __repr__(self):
        return f"SplittingType{self.parts}"


@dataclass(frozen=True)
class CohomologyDims:
    h0: int
    h1: int


def slope(t):
    return Fraction(t.degree, t.rank)


def is_semistable(t):
    """On the genus-0 curve a direct sum of line bundles is semistable iff
    all summands have the same degree (the top one destabilizes otherwise)."""
    return t.parts[0] == t.parts[-1]


def tensor(e, f):
    return SplittingType([a + b for a in e.parts for b in f.parts])


def _h0_line(d):
    return max(d + 1, 0)


def _h1_line(d):
    return max(-d - 1, 0)


def cohomology_dims(t):
    h0 = sum(_h0_line(a) for a in t.parts)
    h1 = sum(_h1_line(a) for a in t.parts)
    dims = CohomologyDims(h0, h1)
    if dims.h0 - dims.h1 != t.degree + t.rank:
        raise InternalContradiction("Euler characteristic mismatch")
    return dims


def splitting_types(rank_max, coeff_bound):
    """All splitting types with rank <= rank_max and coefficients in
    [-coeff_bound, coeff_bound], canonical order: rank first, then
    lexicographic on the nondecreasing coefficient tuple."""
    for rank in range(1, rank_max + 1):
        for parts in combinations_with_replacement(
            range(-coeff_bound, coeff_bound + 1), rank
        ):
            yield SplittingType(parts)


def find_partner(e, search_bound, rank_bound):
    """First splitting type F (canonical order) inside the box with
    rank <= rank_bound and coefficients in [-search_bound, search_bound]
    such that E (x) F has no cohomology; None when the box has none.

    Analytically a partner exists iff all parts of E are equal (then
    O(-a-1) works), so any box with search_bound >= |a|+1 suffices.
    """
    for f in splitting_types(rank_bound, search_bound):
        dims = cohomology_dims(tensor(e, f))
        if dims.h0 == 0 and dims.h1 == 0:
            return f
    return None


@dataclass
class CriterionReport:
    rank_max: int
    coeff_bound: int
    search_bound: int
    rank_bound: int
    total_types: int = 0
    semistable_count: int = 0
    partnered_count: int = 0
    max_partner_rank: int = 0
    counterexamples: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.counterexamples


def verify_criterion(rank_max, coeff_bound, search_bound, rank_bound):
    """Exhaustively check "semistable <=> partner exists in the box" for
    every splitting type in the range.  search_bound must be at least
    coeff_bound + 1 so the analytic partner lies inside the box."""
    if search_bound < coeff_bound + 1:
        raise ValueError("search_bound must be >= coeff_bound + 1")
    report = CriterionReport(rank_max, coeff_bound, search_bound, rank_bound)
    for e in splitting_types(rank_max, coeff_bound):
        report.total_types += 1
        ss = is_semistable(e)
        partner = find_partner(e, search_bound, rank_bound)
        if ss:
            report.semistable_count += 1
        if partner is not None:
            report.partnered_count += 1
            report.max_partner_rank = max(report.max_partner_rank, partner.rank)
        if ss != (partner is not None):
            report.counterexamples.append((e, partner))
    return report
