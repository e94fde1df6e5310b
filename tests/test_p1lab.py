import random
from fractions import Fraction

import pytest

from ffgeom.errors import SpaceTooLarge
from ffgeom.p1lab import (
    MAX_EVALUATIONS,
    SplittingType,
    cohomology_dims,
    find_partner,
    is_semistable,
    slope,
    splitting_types,
    tensor,
    type_count,
    verify_criterion,
)


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
    def test_type_count_matches_enumeration(self):
        for rank_max in range(-1, 6):
            for coeff_bound in range(-2, 5):
                expected = sum(1 for _ in splitting_types(rank_max, coeff_bound))
                assert type_count(rank_max, coeff_bound) == expected

    def test_type_count_stops_past_budget(self):
        assert MAX_EVALUATIONS < type_count(10 ** 9, 0) <= MAX_EVALUATIONS + 1
        assert type_count(10 ** 9, 10 ** 9) > MAX_EVALUATIONS

    @pytest.mark.parametrize("rank_max,coeff_bound", [(4, 2), (3, 3)])
    def test_default_scans_fit(self, rank_max, coeff_bound):
        # p1 scan's defaults: search bound coeff_bound + 1, rank bound rank_max
        box = type_count(rank_max, coeff_bound + 1)
        assert type_count(rank_max, coeff_bound) * box <= MAX_EVALUATIONS

    def test_over_budget_raises_before_scanning(self):
        with pytest.raises(SpaceTooLarge):
            find_partner(SplittingType([0, 1]), 20, 4)
        with pytest.raises(SpaceTooLarge):
            verify_criterion(5, 3, 4, 5)
        assert find_partner(SplittingType([0, 0]), 5, 3) == SplittingType([-1])
