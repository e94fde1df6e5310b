"""Genus-0 laboratory: vector bundles on the projective line split as sums of
line bundles, so a bundle is a sorted integer tuple, cohomology is a closed
formula, and the criterion "semistable <=> some twist kills all cohomology"
can be checked exhaustively inside a finite search box.

A scan finds the first partner of every type in one pass: each type E gets
a table of h0 and one of h1 of E (x) O(t) over the box's range of t, and
the cohomology of E (x) F, for every F of a rank block of the box, is a sum
of gathers from those tables.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from .errors import InternalContradiction, SpaceTooLarge

# line bundles a partner search or criterion scan may sum, counted before it
# starts: the sum of rank E over the types E it checks times the sum of
# rank F over the box, which bounds the entries its tables and gathers touch
MAX_LINE_BUNDLES = 10 ** 6

# entries (types E times line bundles of a table or rank block) that one
# row block of a partner search holds in each of its arrays
_ROW_BLOCK_ENTRIES = 1 << 15


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


def _parts(ts, count):
    """The parts of the types ``ts``, ``count`` in all, one after another."""
    return np.fromiter(chain.from_iterable(t.parts for t in ts), dtype=np.int64,
                       count=count)


def _degrees(ts):
    return np.array([t.degree for t in ts], dtype=np.int64)


def _first_partners(types, box):
    """For each E of ``types``, the first F of ``box`` such that
    H^0(E (x) F) = H^1(E (x) F) = 0, or None.  ``box`` is an iterable that
    lists its types rank by rank, as :func:`splitting_types` does; it is
    not consumed when ``types`` is empty.

    Each E gets two tables over the box's part range [lo, hi],
    g_E(t) = sum_i max(a_i + t + 1, 0) and h_E(t) = sum_i max(-a_i - t - 1, 0),
    so h0(E (x) F) = sum_j g_E(b_j) and h1(E (x) F) = sum_j h_E(b_j) are
    gathers from the tables, (types x box line bundles) entries in all.
    Every pair evaluated is checked against the Euler characteristic
    h0 - h1 = deg E*r + deg F*s + s*r (s = rank E, r = rank F), with the
    degrees summed apart from the tables.  The types of each rank s go in
    row blocks of about ``_ROW_BLOCK_ENTRIES`` entries per array; a row
    block stops at the first rank block after which each of its rows has
    a partner."""
    partners = [None] * len(types)
    if not types:
        return partners
    by_rank = {}
    for f in box:
        by_rank.setdefault(f.rank, []).append(f)
    if not by_rank:
        return partners
    # the box as one flat array of parts, so that a rank block costs a few
    # views however many blocks there are
    members = [f for fs in by_rank.values() for f in fs]
    parts = _parts(members, sum(r * len(fs) for r, fs in by_rank.items()))
    degrees = _degrees(members)
    lo, hi = int(parts.min()), int(parts.max())
    t = np.arange(lo, hi + 1, dtype=np.int64)
    parts -= lo  # indices into the tables
    blocks, i, j = [], 0, 0
    for r, fs in by_rank.items():
        n = len(fs)
        # row c of the columns holds part c of every F in the block
        blocks.append((fs, parts[j:j + r * n].reshape(n, r).T, degrees[i:i + n]))
        i, j = i + n, j + r * n
    # entries per line bundle of E: its row of a table or of a rank block
    width = max(len(t), max(len(fs) for fs in by_rank.values()))
    rows_of_rank = {}
    for i, e in enumerate(types):
        rows_of_rank.setdefault(e.rank, []).append(i)
    for s, index in rows_of_rank.items():
        step = max(_ROW_BLOCK_ENTRIES // (s * width), 1)  # types E per row block
        for start in range(0, len(index), step):
            rows = index[start:start + step]
            es = [types[i] for i in rows]
            chi = _parts(es, s * len(es)).reshape(len(es), s, 1) + t
            chi += 1  # h0 - h1 of each line bundle O(d) is d + 1
            g = np.maximum(chi, 0).sum(axis=1)
            h = np.maximum(-chi, 0).sum(axis=1)
            deg_e = _degrees(es)[:, None]
            open_rows = len(rows)  # rows without a partner yet
            for fs, cols, deg_f in blocks:
                r = len(cols)
                h0 = g[:, cols].sum(axis=1)
                h1 = h[:, cols].sum(axis=1)
                if not np.array_equal(h0 - h1, deg_e * r + (deg_f * s + s * r)):
                    raise InternalContradiction("Euler characteristic mismatch")
                hits = h0 + h1 == 0  # both are sums of nonnegative terms
                for k in np.flatnonzero(hits.any(axis=1)):
                    if partners[rows[k]] is None:
                        partners[rows[k]] = fs[int(hits[k].argmax())]
                        open_rows -= 1
                if not open_rows:
                    break  # the later rank blocks come later in the order
    return partners


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
    return _first_partners([e], splitting_types(rank_bound, search_bound))[0]


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
    coeff_bound + 1, and rank_bound at least 1 when the range holds a type,
    so the analytic partner lies inside the box."""
    if search_bound < coeff_bound + 1:
        raise ValueError("search_bound must be >= coeff_bound + 1")
    types_size = line_bundle_count(rank_max, coeff_bound)
    # an empty box still leaves one step per type E to take
    _check_budget(types_size * max(line_bundle_count(rank_bound, search_bound), 1),
                  "the scan")
    if types_size and rank_bound < 1:
        # the analytic partner O(-a-1) has rank 1
        raise ValueError("rank_bound must be >= 1")
    types = list(splitting_types(rank_max, coeff_bound))
    partners = _first_partners(types, splitting_types(rank_bound, search_bound))
    report = CriterionReport(rank_max, coeff_bound, search_bound, rank_bound)
    for e, partner in zip(types, partners):
        report.total_types += 1
        ss = is_semistable(e)
        if ss:
            report.semistable_count += 1
        if partner is not None:
            report.partnered_count += 1
            report.max_partner_rank = max(report.max_partner_rank, partner.rank)
        if ss != (partner is not None):
            report.counterexamples.append((e, partner))
    return report
