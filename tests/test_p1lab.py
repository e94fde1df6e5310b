import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffgeom import p1lab
from ffgeom.errors import InternalContradiction, SpaceTooLarge
from ffgeom.p1lab import (
    MAX_LINE_BUNDLES,
    SplittingType,
    _first_partners,
    cohomology_dims,
    find_partner,
    is_semistable,
    line_bundle_count,
    slope,
    splitting_types,
    tensor,
    verify_criterion,
)


def _find_partner_python(e, search_bound, rank_bound):
    """Reference partner search: one cohomology evaluation per pair."""
    for f in splitting_types(rank_bound, search_bound):
        dims = cohomology_dims(tensor(e, f))
        if dims.h0 == 0 and dims.h1 == 0:
            return f
    return None


def _verify_criterion_python(rank_max, coeff_bound, search_bound, rank_bound):
    """Reference scan: the report fields as a tuple, pair by pair."""
    total = semistable = partnered = max_rank = 0
    counterexamples = []
    for e in splitting_types(rank_max, coeff_bound):
        total += 1
        ss = is_semistable(e)
        partner = _find_partner_python(e, search_bound, rank_bound)
        semistable += ss
        if partner is not None:
            partnered += 1
            max_rank = max(max_rank, partner.rank)
        if ss != (partner is not None):
            counterexamples.append((e, partner))
    return total, semistable, partnered, max_rank, counterexamples


class _Forged(SplittingType):
    """A splitting type whose degree is given apart from its parts."""

    def __init__(self, parts, degree):
        super().__init__(parts)
        object.__setattr__(self, "forged_degree", degree)

    @property
    def degree(self):
        return self.forged_degree


# ranks up to 4 with parts in [-6, 6]; half the draws repeat one part
_TYPES = st.one_of(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(lambda ar: [ar[0]] * ar[1]),
).map(SplittingType)


class TestSplittingType:
    def test_sorted_nonincreasing(self):
        t = SplittingType([1, 3, -2])
        assert t.parts == (3, 1, -2)
        assert t.rank == 3 and t.degree == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SplittingType([])

    def test_slope(self):
        assert slope(SplittingType([1, 2])) == Fraction(3, 2)

    def test_semistable_iff_balanced(self):
        assert is_semistable(SplittingType([2, 2, 2]))
        assert not is_semistable(SplittingType([2, 1]))


class TestCohomology:
    def test_line_bundle_values(self):
        assert cohomology_dims(SplittingType([3])).h0 == 4
        assert cohomology_dims(SplittingType([-1])).h0 == 0
        assert cohomology_dims(SplittingType([-1])).h1 == 0
        assert cohomology_dims(SplittingType([-3])).h1 == 2

    def test_vanishing_iff_all_parts_minus_one(self):
        for t in splitting_types(3, 4):
            dims = cohomology_dims(t)
            vanishes = dims.h0 == 0 and dims.h1 == 0
            assert vanishes == all(a == -1 for a in t.parts)

    def test_euler_identity_exhaustive(self):
        # chi = degree + rank for every type with rank <= 4, coeffs in [-5, 5]
        for t in splitting_types(4, 5):
            dims = cohomology_dims(t)
            assert dims.h0 - dims.h1 == t.degree + t.rank


class TestTensor:
    def test_rank_and_degree(self):
        e, f = SplittingType([1, 0]), SplittingType([2, -1, -1])
        t = tensor(e, f)
        assert t.rank == e.rank * f.rank
        assert t.degree == e.degree * f.rank + f.degree * e.rank

    def test_slope_additivity_random(self, rng):
        for _ in range(200):
            e = SplittingType([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            f = SplittingType([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            assert slope(tensor(e, f)) == slope(e) + slope(f)

    def test_commutative(self, rng):
        for _ in range(50):
            e = SplittingType([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
            f = SplittingType([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
            assert tensor(e, f) == tensor(f, e)


class TestPartner:
    def test_balanced_gets_dual_twist(self):
        assert find_partner(SplittingType([0, 0]), 3, 2) == SplittingType([-1])

    def test_unbalanced_gets_none(self):
        assert find_partner(SplittingType([1, -1]), 3, 2) is None

    def test_degree_two_balanced(self):
        assert find_partner(SplittingType([2, 2]), 4, 2) == SplittingType([-3])

    def test_partner_is_canonical_first(self):
        # the rank-1 partner comes before any rank-2 solution in the order
        partner = find_partner(SplittingType([0]), 2, 3)
        assert partner.rank == 1

    def test_box_monotonicity(self):
        # enlarging the box never turns a found partner into None
        for t in splitting_types(2, 2):
            small = find_partner(t, 3, 1)
            large = find_partner(t, 4, 2)
            if small is not None:
                assert large is not None


class TestArrayEvaluation:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_TYPES, st.integers(-1, 4), st.integers(0, 4))
    def test_partner_matches_reference(self, e, search_bound, rank_bound):
        assert find_partner(e, search_bound, rank_bound) == \
            _find_partner_python(e, search_bound, rank_bound)

    @pytest.mark.parametrize("args", [
        (4, 2, 3, 4), (3, 3, 4, 3), (2, 1, 2, 2), (3, 1, 4, 2), (2, 2, 3, 1), (1, 3, 5, 4),
    ])
    def test_scan_matches_reference(self, args):
        report = verify_criterion(*args)
        assert (report.total_types, report.semistable_count, report.partnered_count,
                report.max_partner_rank, report.counterexamples) == \
            _verify_criterion_python(*args)

    def test_huge_parts_have_no_partner(self):
        # parts past int64 never reach the arrays: no box type can cancel them
        e = SplittingType([10 ** 30, 10 ** 30])
        assert find_partner(e, 5, 3) is None
        assert find_partner(e, 5, 3) == _find_partner_python(e, 5, 3)
        # an empty box admits any search bound; the parts still stay out
        assert find_partner(SplittingType([10 ** 20]), 10 ** 21, 0) is None

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 3), st.integers(-1, 1), st.integers(0, 1), st.integers(0, 4),
           st.sampled_from([1, 3, 40]), _TYPES)
    def test_row_blocks_match_reference(self, rank_max, coeff_bound, extra, rank_bound,
                                        entries, e):
        # blocks of a few entries split the types and cross the rank blocks;
        # rank_bound 0 gives an empty box: the scan refuses it when the range
        # holds a type, and the partner search finds nothing in it
        search_bound = coeff_bound + 1 + extra
        refused = rank_bound < 1 and any(splitting_types(rank_max, coeff_bound))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(p1lab, "_ROW_BLOCK_ENTRIES", entries)
            partner = find_partner(e, search_bound, rank_bound)
            if refused:
                with pytest.raises(ValueError):
                    verify_criterion(rank_max, coeff_bound, search_bound, rank_bound)
            else:
                report = verify_criterion(rank_max, coeff_bound, search_bound, rank_bound)
        if not refused:
            assert (report.total_types, report.semistable_count, report.partnered_count,
                    report.max_partner_rank, report.counterexamples) == \
                _verify_criterion_python(rank_max, coeff_bound, search_bound, rank_bound)
        assert partner == _find_partner_python(e, search_bound, rank_bound)

    def test_first_hit_in_box_order(self):
        # without its rank-1 block the box's first partner of a balanced
        # type is the rank-2 one; a type found early keeps its partner
        box = [f for f in splitting_types(3, 2) if f.rank > 1]
        types = [SplittingType([0]), SplittingType([1, 0]), SplittingType([0, 0])]
        assert _first_partners(types, box) == \
            [SplittingType([-1, -1]), None, SplittingType([-1, -1])]

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_corrupted_degrees_raise(self, rank):
        # the Euler check compares the tables with degrees summed apart from
        # them; it raises, so it holds under python -O as well
        box = list(splitting_types(3, 4))
        i = max(i for i, f in enumerate(box) if f.rank == rank)
        box[i] = _Forged(box[i].parts, box[i].degree + 1)
        with pytest.raises(InternalContradiction):
            _first_partners([SplittingType([1, -1])], box)

    def test_corrupted_parts_raise(self):
        # a part of E no longer matches its degree
        types = [SplittingType([0]), _Forged([1], 0)]
        with pytest.raises(InternalContradiction):
            _first_partners(types, splitting_types(2, 4))

    def test_empty_box_or_range_builds_nothing(self):
        # an empty box cannot hold the rank-1 partner O(-a-1) of a type, so
        # a scan with types refuses it; with no type E the box, however
        # large or empty, is not enumerated
        for rank_bound in (0, -1):
            with pytest.raises(ValueError, match="rank_bound"):
                verify_criterion(1, 3, 10 ** 20, rank_bound)
            assert verify_criterion(0, 3, 10 ** 20, rank_bound).total_types == 0
        assert verify_criterion(0, 3, 10 ** 20, 10 ** 9).total_types == 0
        assert _first_partners([], splitting_types(10 ** 9, 10 ** 9)) == []

    def test_widest_scan_fast_and_small(self):
        # 999 types against a box of 1001 line bundles, inside the budget
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = verify_criterion(1, 499, 500, 1)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.total_types == report.partnered_count == 999
        assert elapsed < 2.0
        assert peak <= 16 * 2 ** 20


class TestCriterion:
    def test_acceptance_instance(self):
        report = verify_criterion(3, 2, 3, 3)
        assert report.total_types == 55
        assert report.ok
        assert report.semistable_count == report.partnered_count
        assert report.max_partner_rank == 1

    def test_bound_precondition(self):
        with pytest.raises(ValueError):
            verify_criterion(2, 3, 3, 2)

    def test_small_instance(self):
        report = verify_criterion(2, 1, 2, 2)
        assert report.ok
        # rank-1 types are always semistable; rank-2 balanced ones too
        assert report.semistable_count == 3 + 3


class TestBudget:
    def test_line_bundle_count_matches_enumeration(self):
        for rank_max in range(-1, 6):
            for coeff_bound in range(-2, 5):
                expected = sum(t.rank for t in splitting_types(rank_max, coeff_bound))
                assert line_bundle_count(rank_max, coeff_bound) == expected

    def test_line_bundle_count_stops_past_budget(self):
        # one type of each rank when the width is 1, so the count is
        # 1 + 2 + ... + R, which first passes the budget at R = 1414
        assert line_bundle_count(10 ** 9, 0) == 1414 * 1415 // 2 > MAX_LINE_BUNDLES
        assert line_bundle_count(10 ** 9, 10 ** 9) > MAX_LINE_BUNDLES

    @pytest.mark.parametrize("rank_max,coeff_bound", [(4, 2), (3, 3)])
    def test_default_scans_fit(self, rank_max, coeff_bound):
        # p1 scan's defaults: search bound coeff_bound + 1, rank bound rank_max
        box = line_bundle_count(rank_max, coeff_bound + 1)
        line_bundles = line_bundle_count(rank_max, coeff_bound) * box
        assert line_bundles == {(4, 2): 485100, (3, 3): 187110}[rank_max, coeff_bound]
        assert line_bundles <= MAX_LINE_BUNDLES

    def test_default_verify_box_fits_999_parts(self):
        # p1 verify's default box (search bound 5, rank bound 3) sums 1001
        # line bundles per part of E
        assert line_bundle_count(3, 5) == 1001
        assert find_partner(SplittingType([0] * 999), 5, 3) == SplittingType([-1])
        with pytest.raises(SpaceTooLarge):
            find_partner(SplittingType([0] * 1000), 5, 3)

    def test_over_budget_raises_before_scanning(self):
        with pytest.raises(SpaceTooLarge):
            find_partner(SplittingType([0, 1]), 20, 4)
        with pytest.raises(SpaceTooLarge):
            verify_criterion(5, 3, 4, 5)
        with pytest.raises(SpaceTooLarge):
            verify_criterion(4, 1000, 1001, 0)
        assert find_partner(SplittingType([0, 0]), 5, 3) == SplittingType([-1])
