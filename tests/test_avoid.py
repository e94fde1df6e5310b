import importlib
import random
import sys
import time
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffgeom.avoid import (
    AFFINE,
    DEFAULT_ORACLE_LIMIT,
    EXHAUSTIVE,
    FOUND,
    GRASSMANNIAN,
    GUARANTEED,
    NO_POINT,
    PROJECTIVE,
    Hypersurface,
    ProjectivePoint,
    _affine_recurse,
    _pencil_member,
    _section_coords,
    ambient_point_count,
    avoid,
    avoid_affine,
    avoid_grassmannian,
    avoid_projective,
    chart_rows,
    charts,
    exhaustive_oracle,
    grass_cell_pullback,
    plucker,
    plucker_variable_names,
    projective_points,
)
from ffgeom import kernels
from ffgeom.errors import (
    CellContained,
    InternalContradiction,
    NotHomogeneous,
    RankDeficient,
    SpaceTooLarge,
    ZeroPolynomial,
)
from ffgeom.fields import make_field
from ffgeom.polynomials import MultivariatePolynomial, UnivariatePolynomial, parse_polynomial

from conftest import (
    chart_reference,
    field_for,
    first_members_vanish,
    grassmannian_points,
    oracle_points,
    pencil_member_reference,
    per_point_oracle,
    random_homogeneous_poly,
    random_poly,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)


def affine(text, fld, n):
    return Hypersurface(parse_polynomial(text, fld, n), AFFINE, (n,))


def projective(text, fld, n):
    return Hypersurface(parse_polynomial(text, fld, n + 1), PROJECTIVE, (n,))


def _affine_recurse_reference(poly, fld):
    """The guaranteed affine induction as a recursion, one call per level."""
    used = poly.variables_used()
    if not used:
        return [0] * poly.nvars, []
    var = max(used)
    phis = poly.decompose_top_variable(var)
    sub_point, sub_trace = _affine_recurse_reference(phis[-1], fld)
    restricted = UnivariatePolynomial([phi.eval(sub_point) for phi in phis], fld)
    choice = next(x for x in fld.enumerate_elements() if restricted.eval(x))
    point = list(sub_point[:var]) + [choice] + list(sub_point[var:])
    trace = [(i if i < var else i + 1, v) for i, v in sub_trace]
    trace.append((var, choice))
    return point, trace


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
            avoid_affine(d)

    def test_example_f4(self):
        d = affine("x0*x1*(x0+x1)", F4, 2)
        res = avoid_affine(d)
        g = F4.from_coords([0, 1])
        assert res.outcome == FOUND and res.mode == GUARANTEED
        assert res.point == (1, g)
        assert res.trace == [(0, 1), (1, g)]

    def test_vanishing_everywhere_f2(self):
        # x0^2 + x0 is identically zero on F_2
        d = affine("x0^2 + x0", F2, 1)
        res = avoid_affine(d)
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
        res = avoid_affine(d)
        assert res.outcome == NO_POINT and res.mode == EXHAUSTIVE

    def test_small_field_fallback_can_find(self):
        d = affine("x0*x1 + 1", F2, 2)  # degree 2 = q, not guaranteed
        res = avoid_affine(d)
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
            res = avoid_affine(d)
            assert res.outcome == FOUND and res.mode == GUARANTEED
            assert poly.eval(list(res.point)) != 0
            # trace replays to the returned point
            replay = [0] * nvars
            for var, val in res.trace:
                replay[var] = val
            assert tuple(replay) == res.point

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
    def test_loop_matches_recursion(self, q):
        rng = random.Random(700 + q)
        fld = field_for(q)
        for _ in range(40):
            poly = random_poly(rng, fld, rng.randint(1, 4), min(q - 1, 4))
            assert _affine_recurse(poly, fld) == _affine_recurse_reference(poly, fld)

    def test_variables_above_recursion_limit(self):
        # one level per variable, in a loop: no RecursionError
        n = 1100
        fld = make_field(1201)
        res = avoid_affine(affine("*".join(f"x{i}" for i in range(n)), fld, n))
        assert res.mode == GUARANTEED and res.point == (1,) * n
        assert res.trace == [(i, 1) for i in range(n)]

    def test_deterministic(self, rng):
        for _ in range(20):
            poly = random_poly(rng, F5, 2, 3)
            d = Hypersurface(poly, AFFINE, (2,))
            first = avoid_affine(d)
            second = avoid_affine(d)
            assert first.point == second.point and first.trace == second.trace


class TestProjective:
    def test_example_f3(self):
        d = projective("x0*x1*x2", F3, 2)
        res = avoid_projective(d)
        assert res.outcome == FOUND and res.mode == GUARANTEED
        assert res.point == ProjectivePoint((1, 1, 1), F3)

    def test_no_point_f2(self):
        # x0*x1*(x0+x1) vanishes on all of P^1(F_2)
        d = projective("x0*x1*(x0+x1)", F2, 1)
        res = avoid_projective(d)
        assert res.outcome == NO_POINT and res.mode == EXHAUSTIVE

    def test_boundary_q_equals_degree(self):
        # q >= deg suffices in projective space
        d = projective("x0*x1*x2", F3, 2)
        assert avoid_projective(d).mode == GUARANTEED

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
    def test_guaranteed_soundness_random(self, q):
        rng = random.Random(700 + q)
        fld = field_for(q)
        for _ in range(40):
            n = rng.randint(1, 3)
            poly = random_homogeneous_poly(rng, fld, n + 1, rng.randint(1, q))
            d = Hypersurface(poly, PROJECTIVE, (n,))
            res = avoid_projective(d)
            assert res.outcome == FOUND and res.mode == GUARANTEED
            assert poly.eval(res.point.coords) != 0

    def test_high_dimension_is_fast(self):
        # each pencil level maps the terms directly, not through n fresh
        # variables: --dim 400 took ~4 s when every level built them
        d = projective("x0^7", F7, 400)
        start = time.perf_counter()
        res = avoid_projective(d)
        assert time.perf_counter() - start < 1.5
        assert res.mode == GUARANTEED
        assert res.point.coords == (1,) * 400 + (0,)
        assert res.trace == [("pencil", 1)] * 399 + [("point", (1, 0))]

    def test_dimension_above_recursion_limit(self):
        # one pencil level per dimension, in a loop: no RecursionError
        n = sys.getrecursionlimit() + 10
        res = avoid_projective(projective("x0^7", F7, n))
        assert res.point.coords == (1,) * n + (0,)

    def test_pencil_budget(self, monkeypatch):
        # x0 + x1 on P^2: 3 variables, squared, times 2 terms
        avoid_module = importlib.import_module("ffgeom.avoid")
        d = projective("x0 + x1", F7, 2)
        monkeypatch.setattr(avoid_module, "MAX_PENCIL_WORK", 18)
        assert avoid_projective(d).mode == GUARANTEED
        monkeypatch.setattr(avoid_module, "MAX_PENCIL_WORK", 17)
        with pytest.raises(SpaceTooLarge, match="exceeds limit 17"):
            avoid_projective(d)

    def test_past_pencil_budget_fails_fast(self):
        # 3163^2 > 10^7: refused before the first pencil level
        d = projective("x0", F7, 3162)
        start = time.perf_counter()
        with pytest.raises(SpaceTooLarge, match="pencil search cost exceeds limit"):
            avoid_projective(d)
        assert time.perf_counter() - start < 0.1

    def test_fallback_agrees_with_oracle(self, rng):
        fld = F2
        for _ in range(40):
            n = rng.randint(1, 2)
            poly = random_homogeneous_poly(rng, fld, n + 1, 3)
            d = Hypersurface(poly, PROJECTIVE, (n,))
            res = avoid_projective(d)
            _, oracle = oracle_points(d, fld)
            if oracle:
                assert res.outcome == FOUND and res.point == oracle[0]
            else:
                assert res.outcome == NO_POINT


@st.composite
def _pencil_cases(draw):
    """A polynomial over F_q in 2 to 6 variables, with a term free of x1,
    times :func:`first_members_vanish` of a drawn count: the first member
    that survives may be any element, or, for a count of q, only the member
    at infinity.  Now and then also times x1, so that no member survives."""
    fld = field_for(draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 16, 25))))
    nvars = draw(st.integers(2, 6))
    exps = st.lists(st.just(0) | st.integers(1, 4), min_size=nvars, max_size=nvars)
    terms = draw(st.lists(st.tuples(exps, st.integers(1, fld.q - 1)), min_size=1, max_size=6))
    terms[0][0][1] = 0  # a term free of x1: the member at infinity survives
    count = draw(st.one_of(st.just(fld.q), st.integers(0, fld.q)))
    poly = MultivariatePolynomial(nvars, fld, terms) * first_members_vanish(fld, nvars, count)
    if draw(st.sampled_from((False,) * 7 + (True,))):
        poly = poly * MultivariatePolynomial.variable(1, nvars, fld)
    return poly


class TestPencilMember:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_pencil_cases())
    @example(first_members_vanish(F4, 3))
    @example(first_members_vanish(F9, 4) * parse_polynomial("x2 + x3", F9, 4))
    # every member vanishes: the degree bound is violated
    @example(first_members_vanish(F4, 3) * parse_polynomial("x1", F4, 3))
    def test_matches_substitute_reference(self, poly):
        fld = poly.field
        expected = pencil_member_reference(poly, fld)
        if expected is None:
            with pytest.raises(InternalContradiction):
                _pencil_member(poly, fld)
        else:
            assert _pencil_member(poly, fld) == expected


@st.composite
def _one_row_sections(draw):
    """A homogeneous polynomial over F_q, q <= 9, in n + 1 variables,
    n <= 4: a section on P^n and on Grass(1, n + 1)."""
    fld = field_for(draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9))))
    nvars = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return random_homogeneous_poly(rng, fld, nvars, rng.randint(1, 4), rng.randint(1, 8))


class TestOneRowCharts:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_one_row_sections())
    # on the charts x0 = 0 of P^2, terms with a positive exponent before the pivot
    @example(parse_polynomial("x0^2 + x0*x1 + x1*x2 + x2^2", F3, 3))
    def test_matches_substitute_reference(self, poly):
        fld, n = poly.field, poly.nvars - 1
        plane = Hypersurface(poly, PROJECTIVE, (n,))
        grass = Hypersurface(poly, GRASSMANNIAN, (1, n + 1))
        for d in (plane, grass):
            for chart, cell in charts(d):
                assert chart == chart_reference(poly, cell.n, cell.pivots, cell.free)
                # a one-row cell never expands its minors
                assert "minors" not in vars(cell)
        dense = next(charts(grass))[0]
        if dense.is_zero():
            with pytest.raises(CellContained):
                grass_cell_pullback(grass)
        else:
            assert grass_cell_pullback(grass) == dense
        # P^n is Grass(1, n + 1): the same points, each row its own Pluecker vector
        count, points = oracle_points(plane, fld)
        grass_count, grass_points = oracle_points(grass, fld)
        assert count == grass_count == len(points)
        assert [(gp.matrix, gp.plucker) for gp in grass_points] == [
            ((pt.coords,), pt.coords) for pt in points]


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

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("m,n", [(2, 4), (2, 5), (3, 5)])
    def test_block_matches_per_point(self, q, m, n):
        # the Pluecker block of every cell at all its indices, shuffled, is
        # plucker of each decoded echelon matrix, and the matrices are the
        # per-point enumeration in canonical order
        fld = field_for(q)
        d = Hypersurface(parse_polynomial("x0", fld, comb(n, m)), GRASSMANNIAN, (m, n))
        rng = random.Random(q * 100 + m * 10 + n)
        matrices = []
        for chart, cell in charts(d):
            idx = np.arange(fld.q ** len(cell.free), dtype=np.int64)
            matrices += chart_rows(chart, cell, idx).tolist()
            rng.shuffle(idx)
            block = plucker(cell, fld, idx)
            assert block.shape == (len(idx), comb(n, m)) and block.dtype == np.int64
            expected = [plucker(mat, fld) for mat in chart_rows(chart, cell, idx).tolist()]
            assert [tuple(v) for v in block.tolist()] == expected
        assert matrices == [[list(row) for row in gp.matrix]
                            for gp in grassmannian_points(fld, m, n)]

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
        res = avoid_grassmannian(d)
        assert res.outcome == FOUND and res.mode == GUARANTEED
        assert poly.eval(res.point.plucker) != 0
        assert res.point.matrix[0][:2] == (1, 0)

    def test_fallback_agrees_with_oracle(self, rng):
        for _ in range(20):
            poly = random_homogeneous_poly(rng, F2, 6, rng.randint(1, 2))
            d = Hypersurface(poly, GRASSMANNIAN, (2, 4))
            res = avoid_grassmannian(d)
            _, oracle = oracle_points(d, F2)
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
                res = avoid_grassmannian(d)
            except CellContained:
                continue
            assert res.outcome == FOUND and res.mode == GUARANTEED
            assert poly.eval(res.point.plucker) != 0


class TestOracle:
    def test_counts_projective_example(self):
        # x0*x1*x2 on P^2(F_3): points with all coordinates nonzero
        d = projective("x0*x1*x2", F3, 2)
        count, pts = oracle_points(d, F3)
        assert count == len(pts) == 4
        assert pts[0] == ProjectivePoint((1, 1, 1), F3)

    def test_negative_control_affine(self):
        d = affine("x0*x1*(x0+x1)", F2, 2)
        assert exhaustive_oracle(d) == (0, [])

    def test_negative_control_projective(self):
        d = projective("x0*x1*(x0+x1)", F2, 1)
        assert exhaustive_oracle(d) == (0, [])

    def test_limit(self):
        d = affine("x0 + 1", F5, 12)
        with pytest.raises(SpaceTooLarge):
            exhaustive_oracle(d, limit=10 ** 6)
        # a limit may lower the default budget, never raise it, even on a
        # space that fits the limit asked for
        small = affine("x0 + 1", F5, 1)
        assert exhaustive_oracle(small, limit=5)[0] == 4
        with pytest.raises(SpaceTooLarge, match="more than"):
            exhaustive_oracle(small, limit=DEFAULT_ORACLE_LIMIT + 1)

    def test_ambient_counts(self):
        assert ambient_point_count(affine("x0", F5, 3)) == 125
        assert ambient_point_count(projective("x0", F4, 2)) == 21
        poly = parse_polynomial("x0", F2, 6)
        d = Hypersurface(poly, GRASSMANNIAN, (2, 4))
        assert ambient_point_count(d) == 35

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_search_agrees_with_oracle_all_kinds(self, q):
        # A^1..A^3, P^1..P^3 (P^3 takes two pencil levels), Grass(1,3) and
        # Grass(2,4): random sections, and on each space one that vanishes
        # at every F_q-point, x0^q*x1 - x0*x1^q (x0^q - x0 on A^1)
        rng = random.Random(1100 + q)
        fld = field_for(q)
        spaces = [(AFFINE, (n,), n) for n in (1, 2, 3)]
        spaces += [(PROJECTIVE, (n,), n + 1) for n in (1, 2, 3)]
        spaces += [(GRASSMANNIAN, (m, n), comb(n, m)) for m, n in ((1, 3), (2, 4))]
        no_point = 0
        for kind, params, nvars in spaces:
            vanishing = f"x0^{q} - x0" if nvars == 1 else f"x0^{q}*x1 - x0*x1^{q}"
            polys = [parse_polynomial(vanishing, fld, nvars)]
            for _ in range(8):
                if kind == AFFINE:
                    polys.append(random_poly(rng, fld, nvars, 4))
                else:
                    polys.append(random_homogeneous_poly(rng, fld, nvars, rng.randint(1, 4)))
            for poly in polys:
                d = Hypersurface(poly, kind, params)
                res = avoid(d)
                count, oracle = oracle_points(d, fld)
                if res.outcome == NO_POINT:
                    no_point += 1
                    assert res.mode == EXHAUSTIVE and count == 0 and oracle == []
                elif res.mode == EXHAUSTIVE:
                    assert res.point == oracle[0]
                else:
                    assert res.point in oracle or tuple(res.point) in oracle
        assert no_point >= len(spaces)


def _shapes(q):
    """(kind, params, variables) of the ambient spaces compared: P^n ends
    on the zero-variable chart (0:...:0:1); Grass(2,5) only where its
    listing stays small."""
    for n in (1, 2, 3):
        yield AFFINE, (n,), n
        yield PROJECTIVE, (n,), n + 1
    for m, n in ((1, 3), (2, 4), (3, 4)) + (((2, 5),) if q <= 3 else ()):
        yield GRASSMANNIAN, (m, n), comb(n, m)


class TestSharedCharts:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_oracle_and_fallback_match_per_point_reference(self, q):
        rng = random.Random(1300 + q)
        fld = field_for(q)
        for kind, params, nvars in _shapes(q):
            for _ in range(3):
                if kind == AFFINE:
                    poly = random_poly(rng, fld, nvars, 2 * q)
                else:
                    deg = rng.randint(1, q + 1)
                    poly = random_homogeneous_poly(rng, fld, nvars, deg)
                    if kind == PROJECTIVE and rng.random() < 0.5:
                        # nonzero at (0:...:0:1), so the last chart lists a point
                        last = [0] * (nvars - 1) + [deg]
                        poly = poly + MultivariatePolynomial(nvars, fld, {tuple(last): 1})
                        if poly.is_zero():
                            continue
                d = Hypersurface(poly, kind, params)
                reference = per_point_oracle(d, fld)
                assert oracle_points(d, fld) == (len(reference), reference)
                res = avoid(d)
                assert res.found == bool(reference)
                if res.found:
                    assert res.value == poly.eval(_section_coords(res.point)) != 0
                    if res.mode == EXHAUSTIVE:
                        assert res.point == reference[0]

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_listing_cut_matches_per_point_reference(self, q):
        rng = random.Random(1400 + q)
        fld = field_for(q)
        for kind, params, nvars in _shapes(q):
            if kind == AFFINE:
                poly = random_poly(rng, fld, nvars, 2 * q)
            else:
                poly = random_homogeneous_poly(rng, fld, nvars, rng.randint(1, q + 1))
            d = Hypersurface(poly, kind, params)
            reference = per_point_oracle(d, fld)
            c = len(reference)
            for max_listed in sorted({0, 1, max(c - 1, 0), c, c + 1}) + [None]:
                count, points = oracle_points(d, fld, max_listed=max_listed)
                assert count == c
                assert points == reference[:max_listed]

    def test_listing_that_starts_in_the_second_chunk(self):
        # over F_2 in b+1 variables, x0 is 1 from index 2^b on: the hits of
        # x0*(x_b + 1) are the even indices of the second chunk
        bits = kernels._CHUNK.bit_length() - 1
        d = affine(f"x0*(x{bits} + 1)", F2, bits + 1)
        reference = per_point_oracle(d, F2)
        c = len(reference)
        assert c == kernels._CHUNK // 2
        assert reference[0] == (1,) + (0,) * bits
        for max_listed in (0, 1, c - 1, c, c + 1, None):
            count, points = oracle_points(d, F2, max_listed=max_listed)
            assert count == c
            assert points == reference[:max_listed]

    def test_oracle_builds_only_listed_points(self, monkeypatch):
        avoid_module = importlib.import_module("ffgeom.avoid")
        calls = []
        plucker_fn = avoid_module.plucker
        monkeypatch.setattr(
            avoid_module, "plucker",
            lambda matrix, fld, at: calls.append(at.tolist()) or plucker_fn(matrix, fld, at))
        d = Hypersurface(parse_polynomial("x0*x5", F3, 6), GRASSMANNIAN, (2, 4))
        count, blocks = exhaustive_oracle(d, max_listed=3)
        # one Pluecker block for the one listed chunk, at the three listed indices
        assert count > 3 and len(blocks) == len(calls) == 1 and len(calls[0]) == 3
        assert [len(array) for array in blocks[0]] == [3, 3]

    def test_no_point_grassmannian(self):
        # the Pluecker relation vanishes on all of Grass(2,4)
        d = Hypersurface(parse_polynomial("x0*x5 + x1*x4 + x2*x3", F2, 6), GRASSMANNIAN, (2, 4))
        assert exhaustive_oracle(d) == (0, [])
        assert per_point_oracle(d, F2) == []
        assert avoid(d).outcome == NO_POINT

    @pytest.mark.parametrize("kind,text,params,nvars,bad", [
        (AFFINE, "x0*x1 + 1", (2,), 2, 3),  # index 3 is (1,1)
        (PROJECTIVE, "x0*x1*(x0+x1)", (1,), 2, 0),  # (1:0)
        (GRASSMANNIAN, "x0*x5", (2, 4), 6, 0),  # [I_2 | 0], where p23 = 0
    ])
    def test_fallback_point_on_hypersurface_is_caught(self, monkeypatch, kind, text,
                                                      params, nvars, bad):
        # the soundness check runs on fallback results too, under python -O
        d = Hypersurface(parse_polynomial(text, F2, nvars), kind, params)
        monkeypatch.setattr(kernels, "hits", lambda poly: iter([np.array([bad])]))
        with pytest.raises(InternalContradiction):
            avoid(d)

    def test_first_hit_fallback_evaluates_one_chunk(self, monkeypatch):
        requested = []
        grid_eval = kernels.grid_eval

        def recording(polys, idx):
            values = grid_eval(polys, idx)
            requested.append(len(values))
            return values

        monkeypatch.setattr(kernels, "grid_eval", recording)
        d = affine("x0*x1 + 1", F2, 20)  # degree 2 = q: the fallback, hit at 0
        kernels.field_tables(F2)  # built once per field, outside the measured scan
        tracemalloc.start()
        try:
            res = avoid_affine(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.mode == EXHAUSTIVE and res.point == (0,) * 20
        assert 0 < sum(requested) <= 2 ** 16
        assert peak < 32 * 2 ** 20
