"""Genus-0 laboratory: vector bundles on the projective line split as sums of
line bundles, so a bundle is a sorted integer tuple, cohomology is a closed
formula, and the criterion "semistable <=> some twist kills all cohomology"
can be checked exhaustively inside a finite search box.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import InternalContradiction, SpaceTooLarge

# line bundles a partner search or criterion scan may sum, counted before it
# starts: the sum of rank E over the types E it checks times the sum of
# rank F over the box, which is the number of entries its degree arrays hold
MAX_LINE_BUNDLES = 10 ** 6


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


def line_bundle_count(rank_max, coeff_bound):
    """Sum of the ranks of the types :func:`splitting_types` yields, summed
    by rank with ``comb``; the sum stops once it passes ``MAX_LINE_BUNDLES``."""
    width = 2 * coeff_bound + 1
    count = 0
    for rank in range(1, rank_max + 1):
        if width < 1 or count > MAX_LINE_BUNDLES:
            break
        count += rank * comb(width + rank - 1, rank)
    return count


def _check_budget(line_bundles, what):
    if line_bundles > MAX_LINE_BUNDLES:
        raise SpaceTooLarge(f"{what} needs more than {MAX_LINE_BUNDLES} line bundles")


def _box(rank_bound, search_bound):
    """The partner box in canonical order, one ``(parts, degrees)`` pair per
    rank r: an int64 array of shape (n_r, r) whose rows are the types F of
    rank r, and their degrees, summed apart from the array."""
    blocks = {}
    for f in splitting_types(rank_bound, search_bound):
        blocks.setdefault(f.rank, []).append(f)
    return [
        (np.array([f.parts for f in fs], dtype=np.int64),
         np.array([f.degree for f in fs], dtype=np.int64))
        for fs in blocks.values()
    ]


def _first_partner(e, box):
    """First F of ``box`` (rank blocks in order) with H^0(E (x) F) =
    H^1(E (x) F) = 0, or None.  Each rank block is evaluated as one
    (n_r, rank E, r) array of the degrees a_i + b_j, and every row is
    checked against the Euler characteristic deg E*r + deg F*rank E +
    rank E*r before a row is taken."""
    a = np.array(e.parts, dtype=np.int64)
    s = len(a)
    for parts, degrees in box:
        r = parts.shape[1]
        chi = a[:, None] + parts[:, None, :]
        chi += 1  # h0 - h1 of each line bundle O(d) is d + 1
        h0 = np.maximum(chi, 0).sum(axis=(1, 2))
        h1 = -np.minimum(chi, 0).sum(axis=(1, 2))
        if not np.array_equal(h0 - h1, e.degree * r + degrees * s + s * r):
            raise InternalContradiction("Euler characteristic mismatch")
        hits = np.flatnonzero((h0 == 0) & (h1 == 0))
        if len(hits):
            return SplittingType(parts[hits[0]].tolist())
    return None


def find_partner(e, search_bound, rank_bound):
    """First splitting type F (canonical order) inside the box with
    rank <= rank_bound and coefficients in [-search_bound, search_bound]
    such that E (x) F has no cohomology; None when the box has none.

    Analytically a partner exists iff all parts of E are equal (then
    O(-a-1) works), so any box with search_bound >= |a|+1 suffices.
    """
    box_size = line_bundle_count(rank_bound, search_bound)
    _check_budget(e.rank * box_size, "the partner box")
    if box_size == 0 or max(map(abs, e.parts)) > search_bound + 1:
        # a + b = -1 needs |b| >= |a| - 1 > search_bound; with the box empty
        # or bounded by the budget, this keeps parts past int64 out of the arrays
        return None
    return _first_partner(e, _box(rank_bound, search_bound))


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
    types_size = line_bundle_count(rank_max, coeff_bound)
    # an empty box still leaves one step per type E to take
    _check_budget(types_size * max(line_bundle_count(rank_bound, search_bound), 1),
                  "the scan")
    box = _box(rank_bound, search_bound) if types_size else []
    report = CriterionReport(rank_max, coeff_bound, search_bound, rank_bound)
    for e in splitting_types(rank_max, coeff_bound):
        report.total_types += 1
        ss = is_semistable(e)
        partner = _first_partner(e, box)
        if ss:
            report.semistable_count += 1
        if partner is not None:
            report.partnered_count += 1
            report.max_partner_rank = max(report.max_partner_rank, partner.rank)
        if ss != (partner is not None):
            report.counterexamples.append((e, partner))
    return report
