import importlib
import random
from math import comb

import pytest

from ffgeom.avoid import (
    AFFINE,
    EXHAUSTIVE,
    FOUND,
    GRASSMANNIAN,
    GUARANTEED,
    NO_POINT,
    PROJECTIVE,
    GrassmannianPoint,
    Hypersurface,
    ProjectivePoint,
    ambient_point_count,
    avoid,
    avoid_affine,
    avoid_grassmannian,
    avoid_projective,
    exhaustive_oracle,
    grass_cell_pullback,
    grassmannian_points,
    plucker,
    plucker_variable_names,
    projective_points,
)
from ffgeom.errors import (
    CellContained,
    InternalContradiction,
    NotHomogeneous,
    RankDeficient,
    SpaceTooLarge,
    ZeroPolynomial,
)
from ffgeom.fields import make_field
from ffgeom.polynomials import MultivariatePolynomial, parse_polynomial

from conftest import field_for, random_homogeneous_poly, random_poly

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F9 = make_field(3, 2)


def affine(text, fld, n):
    return Hypersurface(parse_polynomial(text, fld, n), AFFINE, (n,))


def projective(text, fld, n):
    return Hypersurface(parse_polynomial(text, fld, n + 1), PROJECTIVE, (n,))


class TestHypersurfaceValidation:
    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomial):
            Hypersurface(MultivariatePolynomial(2, F3), AFFINE, (2,))

    def test_projective_must_be_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            projective("x0^2 + x1", F3, 1)

    def test_grassmannian_arity(self):
        p = parse_polynomial("x0 + x1", F3, 2)
        with pytest.raises(ValueError):
            Hypersurface(p, GRASSMANNIAN, (2, 4))  # needs C(4,2)=6 vars

    def test_unknown_kind(self):
        p = parse_polynomial("x0", F3, 1)
        with pytest.raises(ValueError):
            Hypersurface(p, "weird", (1,))


class TestProjectivePoint:
    def test_normalization(self):
        pt = ProjectivePoint((2, 4, 0), F5)
        assert pt.coords == (1, 2, 0)

    def test_scaling_invariance(self):
        assert ProjectivePoint((2, 1), F5) == ProjectivePoint((4, 2), F5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint((0, 0), F3)

    def test_point_count(self):
        pts = list(projective_points(F4, 2))
        assert len(pts) == len(set(pts)) == 4 ** 2 + 4 + 1


class TestAffine:
    def test_zero_from_recursion_is_caught(self, monkeypatch):
        # the soundness check must reject a point where the polynomial
        # vanishes, and must do so under python -O as well
        d = affine("x0*x1 + 1", F5, 2)
        # the package re-exports a function named avoid, so fetch the module
        avoid_module = importlib.import_module("ffgeom.avoid")
        monkeypatch.setattr(
            avoid_module, "_affine_recurse", lambda poly, fld: ([1, 4], [])
        )
        with pytest.raises(InternalContradiction):
            avoid_affine(d, F5)

    def test_example_f4(self):
        d = affine("x0*x1*(x0+x1)", F4, 2)
        res = avoid_affine(d, F4)
        g = F4.from_coords([0, 1])
        assert res.outcome == FOUND and res.mode == GUARANTEED
        assert res.point == (1, g)
        assert res.trace == [(0, 1), (1, g)]

    def test_vanishing_everywhere_f2(self):
        # x0^2 + x0 is identically zero on F_2
        d = affine("x0^2 + x0", F2, 1)
        res = avoid_affine(d, F2)
        assert res.outcome == NO_POINT and res.mode == EXHAUSTIVE

    def test_full_product_f9(self):
        # prod over all of F_9 of (x0 - a) vanishes at every element
        poly = MultivariatePolynomial.constant(1, 1, F9)
        for a in F9.enumerate_elements():
            lin = MultivariatePolynomial(
                1, F9, {(1,): 1, (0,): F9.neg(a)}
            )
            poly = poly * lin
        d = Hypersurface(poly, AFFINE, (1,))
        res = avoid_affine(d, F9)
        assert res.outcome == NO_POINT and res.mode == EXHAUSTIVE

    def test_small_field_fallback_can_find(self):
        d = affine("x0*x1 + 1", F2, 2)  # degree 2 = q, not guaranteed
        res = avoid_affine(d, F2)
        assert res.outcome == FOUND and res.mode == EXHAUSTIVE
        assert d.poly.eval(list(res.point)) != 0

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
    def test_guaranteed_soundness_random(self, q):
        rng = random.Random(500 + q)
        fld = field_for(q)
        for _ in range(60):
            nvars = rng.randint(1, 3)
            poly = random_poly(rng, fld, nvars, min(q - 1, 4))
            d = Hypersurface(poly, AFFINE, (nvars,))
            res = avoid_affine(d, fld)
            assert res.outcome == FOUND and res.mode == GUARANTEED
            assert poly.eval(list(res.point)) != 0
            # trace replays to the returned point
            replay = [0] * nvars
            for var, val in res.trace:
                replay[var] = val
            assert tuple(replay) == res.point

    def test_deterministic(self, rng):
        for _ in range(20):
            poly = random_poly(rng, F5, 2, 3)
            d = Hypersurface(poly, AFFINE, (2,))
            first = avoid_affine(d, F5)
            second = avoid_affine(d, F5)
            assert first.point == second.point and first.trace == second.trace


class TestProjective:
    def test_example_f3(self):
        d = projective("x0*x1*x2", F3, 2)
        res = avoid_projective(d, F3)
        assert res.outcome == FOUND and res.mode == GUARANTEED
        assert res.point == ProjectivePoint((1, 1, 1), F3)

    def test_no_point_f2(self):
        # x0*x1*(x0+x1) vanishes on all of P^1(F_2)
        d = projective("x0*x1*(x0+x1)", F2, 1)
        res = avoid_projective(d, F2)
        assert res.outcome == NO_POINT and res.mode == EXHAUSTIVE

    def test_boundary_q_equals_degree(self):
        # q >= deg suffices in projective space
        d = projective("x0*x1*x2", F3, 2)
        assert avoid_projective(d, F3).mode == GUARANTEED

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
    def test_guaranteed_soundness_random(self, q):
        rng = random.Random(700 + q)
        fld = field_for(q)
        for _ in range(40):
            n = rng.randint(1, 3)
            poly = random_homogeneous_poly(rng, fld, n + 1, rng.randint(1, q))
            d = Hypersurface(poly, PROJECTIVE, (n,))
            res = avoid_projective(d, fld)
            assert res.outcome == FOUND and res.mode == GUARANTEED
            assert poly.eval(res.point.coords) != 0

    def test_fallback_agrees_with_oracle(self, rng):
        fld = F2
        for _ in range(40):
            n = rng.randint(1, 2)
            poly = random_homogeneous_poly(rng, fld, n + 1, 3)
            d = Hypersurface(poly, PROJECTIVE, (n,))
            res = avoid_projective(d, fld)
            oracle = exhaustive_oracle(d, fld)
            if oracle:
                assert res.outcome == FOUND and res.point == oracle[0]
            else:
                assert res.outcome == NO_POINT


class TestPlucker:
    def test_symbolic_example(self):
        mat = ((1, 0, 1, 0), (0, 1, 0, 2))
        assert plucker(mat, F3) == (1, 0, 2, 2, 0, 2)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            plucker(((1, 2, 0), (2, 4, 0)), F5)

    def test_row_operations_scale_minors(self, rng):
        # row-equivalent matrices give proportional minor vectors
        for _ in range(100):
            while True:
                mat = [[rng.randrange(5) for _ in range(4)] for _ in range(2)]
                try:
                    v1 = plucker(mat, F5)
                    break
                except RankDeficient:
                    continue
            a, b, c, d = (rng.randrange(5) for _ in range(4))
            det = F5.sub(F5.mul(a, d), F5.mul(b, c))
            if det == 0:
                continue
            new = [
                [F5.add(F5.mul(a, mat[0][j]), F5.mul(b, mat[1][j])) for j in range(4)],
                [F5.add(F5.mul(c, mat[0][j]), F5.mul(d, mat[1][j])) for j in range(4)],
            ]
            v2 = plucker(new, F5)
            assert v2 == tuple(F5.mul(det, x) for x in v1)

    def test_plucker_relation(self, rng):
        # p01*p23 - p02*p13 + p03*p12 = 0 for every 2-plane in 4-space
        for gp in grassmannian_points(F4, 2, 4):
            p = gp.plucker
            lhs = F4.sub(
                F4.add(F4.mul(p[0], p[5]), F4.mul(p[2], p[3])),
                F4.mul(p[1], p[4]),
            )
            assert lhs == 0

    def test_variable_names(self):
        names = plucker_variable_names(2, 4)
        assert names[0] == ("x0", (0, 1))
        assert names[-1] == ("x5", (2, 3))
        assert len(names) == comb(4, 2)


class TestGrassmannian:
    def test_pullback_example(self):
        # section p0*p5 (i.e. p01 * p23) on Grass(2,4) over F_3
        poly = parse_polynomial("x0*x5", F3, 6)
        d = Hypersurface(poly, GRASSMANNIAN, (2, 4))
        pulled = grass_cell_pullback(d)
        assert pulled == parse_polynomial("x0*x3 + 2*x1*x2", F3, 4)

    def test_pullback_degree_bound(self, rng):
        m, n = 2, 4
        for _ in range(50):
            poly = random_homogeneous_poly(rng, F5, comb(n, m), rng.randint(1, 2))
            d = Hypersurface(poly, GRASSMANNIAN, (m, n))
            try:
                pulled = grass_cell_pullback(d)
            except CellContained:
                continue
            assert pulled.total_degree() <= m * d.degree

    def test_cell_contained(self):
        # the quadric relation p01*p23 - p02*p13 + p03*p12 holds on all of
        # Grass(2,4), so its pullback to the dense cell is identically zero
        poly = parse_polynomial("x0*x5 + 2*x1*x4 + x2*x3", F3, 6)
        d = Hypersurface(poly, GRASSMANNIAN, (2, 4))
        with pytest.raises(CellContained):
            grass_cell_pullback(d)

    def test_point_count(self):
        pts = list(grassmannian_points(F2, 2, 4))
        # |Grass(2,4)(F_2)| = (2^4-1)(2^4-2)(2^4-4)(2^4-8) / |GL_2(F_2)| ...
        # standard count: gaussian binomial [4 choose 2]_2 = 35
        assert len(pts) == 35
        assert len({gp.matrix for gp in pts}) == 35

    def test_guaranteed_example(self):
        poly = parse_polynomial("x0*x5", F5, 6)
        d = Hypersurface(poly, GRASSMANNIAN, (2, 4))
        res = avoid_grassmannian(d, F5)
        assert res.outcome == FOUND and res.mode == GUARANTEED
        assert poly.eval(res.point.plucker) != 0
        assert res.point.matrix[0][:2] == (1, 0)

    def test_fallback_agrees_with_oracle(self, rng):
        for _ in range(20):
            poly = random_homogeneous_poly(rng, F2, 6, rng.randint(1, 2))
            d = Hypersurface(poly, GRASSMANNIAN, (2, 4))
            res = avoid_grassmannian(d, F2)
            oracle = exhaustive_oracle(d, F2)
            if oracle:
                assert res.outcome == FOUND
                assert res.point == oracle[0]
            else:
                assert res.outcome == NO_POINT

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_guaranteed_soundness_random(self, q):
        rng = random.Random(900 + q)
        fld = field_for(q)
        max_deg = (q - 1) // 2  # q > m*deg with m = 2
        if max_deg < 1:
            return
        for _ in range(20):
            poly = random_homogeneous_poly(rng, fld, 6, rng.randint(1, max_deg))
            d = Hypersurface(poly, GRASSMANNIAN, (2, 4))
            try:
                res = avoid_grassmannian(d, fld)
            except CellContained:
                continue
            assert res.outcome == FOUND and res.mode == GUARANTEED
            assert poly.eval(res.point.plucker) != 0


class TestOracle:
    def test_counts_projective_example(self):
        # x0*x1*x2 on P^2(F_3): points with all coordinates nonzero
        d = projective("x0*x1*x2", F3, 2)
        pts = exhaustive_oracle(d, F3)
        assert len(pts) == 4
        assert pts[0] == ProjectivePoint((1, 1, 1), F3)

    def test_negative_control_affine(self):
        d = affine("x0*x1*(x0+x1)", F2, 2)
        assert exhaustive_oracle(d, F2) == []

    def test_negative_control_projective(self):
        d = projective("x0*x1*(x0+x1)", F2, 1)
        assert exhaustive_oracle(d, F2) == []

    def test_limit(self):
        d = affine("x0 + 1", F5, 12)
        with pytest.raises(SpaceTooLarge):
            exhaustive_oracle(d, F5, limit=10 ** 6)

    def test_ambient_counts(self):
        assert ambient_point_count(affine("x0", F5, 3), F5) == 125
        assert ambient_point_count(projective("x0", F4, 2), F4) == 21
        poly = parse_polynomial("x0", F2, 6)
        d = Hypersurface(poly, GRASSMANNIAN, (2, 4))
        assert ambient_point_count(d, F2) == 35

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_search_agrees_with_oracle_all_kinds(self, q):
        rng = random.Random(1100 + q)
        fld = field_for(q)
        for _ in range(25):
            kind = rng.choice([AFFINE, PROJECTIVE])
            if kind == AFFINE:
                n = rng.randint(1, 3)
                poly = random_poly(rng, fld, n, 4)
                d = Hypersurface(poly, AFFINE, (n,))
            else:
                n = rng.randint(1, 2)
                poly = random_homogeneous_poly(rng, fld, n + 1, rng.randint(1, 4))
                d = Hypersurface(poly, PROJECTIVE, (n,))
            res = avoid(d, fld)
            oracle = exhaustive_oracle(d, fld)
            assert res.found == bool(oracle)
            if res.found:
                if res.mode == EXHAUSTIVE:
                    assert res.point == oracle[0]
                else:
                    assert res.point in oracle or tuple(res.point) in oracle
