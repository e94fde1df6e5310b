import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ffgeom import curvepoint
from ffgeom.avoid import ProjectivePoint, projective_points
from ffgeom.curvepoint import (
    CurveDivisor,
    PlaneCurve,
    _binary_form_squarefree,
    _line_frame,
    _on_line,
    _pencil_base_point,
    fiber_resultant,
    galois_orbit,
    point_off_divisor,
    projection_center,
    verify_on_curve,
)
from ffgeom.errors import (
    CenterOnCurve,
    DivisorNotProper,
    FieldMismatch,
    FieldTooSmall,
    InternalContradiction,
    NoEmbedding,
    NotSquarefree,
)
from ffgeom.fields import make_field
from ffgeom.polynomials import (
    MultivariatePolynomial,
    det_poly,
    parse_polynomial,
    sylvester_matrix,
)

from conftest import enumerate_curve_points, field_for, random_homogeneous_poly

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)
F49 = make_field(7, 2)


def curve(text, fld):
    return PlaneCurve(parse_polynomial(text, fld, 3))


def divisor(text, fld):
    return CurveDivisor(parse_polynomial(text, fld, 3))


class TestValidation:
    def test_conic_accepted(self):
        c = curve("x0*x1 + 2*x2^2", F5)
        assert c.degree == 2

    def test_square_rejected(self):
        with pytest.raises(NotSquarefree):
            curve("x0^2", F5)

    def test_doubled_component_rejected(self):
        with pytest.raises(NotSquarefree):
            curve("x0^2*(x1 + x2)", F7)

    def test_line_pair_accepted(self):
        # reducible but squarefree
        c = curve("x0*x1", F5)
        assert c.degree == 2

    def test_inhomogeneous_rejected(self):
        with pytest.raises(Exception):
            curve("x0^2 + x1", F5)

    def test_constant_divisor_allowed(self):
        assert divisor("2", F5).degree == 0


class TestProjectionCenter:
    def test_off_curve(self):
        c = curve("x0*x1 + 2*x2^2", F5)
        center = projection_center(c)
        assert c.poly.eval(center.coords) != 0

    def test_field_too_small(self):
        # q = 3 <= 2e = 4
        c = curve("x0*x1 + 2*x2^2", F3)
        with pytest.raises(FieldTooSmall):
            projection_center(c)

    def test_deterministic(self):
        c = curve("x0^3 + x1^3 + 2*x2^3 + x0*x1*x2", F7)
        assert projection_center(c) == projection_center(c)


def _p1(fld):
    return [pt.coords for pt in projective_points(fld, 1)]


class TestFiberResultant:
    def test_center_on_curve_rejected(self):
        c = curve("x0*x1 + 4*x2^2", F5)
        # (1:1:1): 1 + 4 = 0, on the curve
        center = ProjectivePoint((1, 1, 1), F5)
        with pytest.raises(CenterOnCurve):
            fiber_resultant(c, divisor("x2", F5), center, (1, 0))

    def test_center_over_another_field(self):
        c = curve("x0*x1 + 2*x2^2", F7)
        g = divisor("x2", F7)
        center = projection_center(c)
        assert fiber_resultant(c, g, center, (1, 0)) is not None
        with pytest.raises(FieldMismatch):
            fiber_resultant(c, g, ProjectivePoint(center.coords, F49), (1, 0))

    def test_degree_is_product(self):
        # R is a binary form of degree beta = 2 * 1: R(ls, lt) = l^beta R(s, t)
        c = curve("x0*x1 + 2*x2^2", F5)
        g = divisor("x0 + x1", F5)
        center = projection_center(c)
        beta = c.degree * g.degree
        values = {st: fiber_resultant(c, g, center, st) for st in _p1(F5)}
        assert any(values.values())
        for (s, t), r in values.items():
            for lam in range(1, F5.q):
                scaled = (F5.mul(lam, s), F5.mul(lam, t))
                assert fiber_resultant(c, g, center, scaled) == F5.mul(F5.pow(lam, beta), r)

    def test_constant_divisor(self):
        c = curve("x0*x1 + 2*x2^2", F5)
        center = projection_center(c)
        for st in _p1(F5):
            assert fiber_resultant(c, divisor("3", F5), center, st) == F5.pow(3, 2)

    def test_shared_component_rejected(self):
        c = curve("x0*x1", F7)
        g = divisor("x0", F7)
        center = projection_center(c)
        assert all(fiber_resultant(c, g, center, st) == 0 for st in _p1(F7))
        with pytest.raises(DivisorNotProper):
            point_off_divisor(c, g)

    def test_field_too_small_for_interpolation(self):
        # beta = 2 * 3 = 6 needs q >= 6, so that P^1 has beta + 1 points;
        # the center alone (q > 2e = 4) admits F_5, as a line divisor shows
        c = curve("x0*x1 + 2*x2^2", F5)
        with pytest.raises(FieldTooSmall, match="6-1"):
            point_off_divisor(c, divisor("x0^3 + x2^3", F5))
        assert all(point_off_divisor(c, divisor("x0", F5)).flags.values())

    def test_matches_symbolic_sylvester_determinant(self):
        # at every point of P^1, the value equals the cofactor determinant of
        # the Sylvester matrix over F[s,t]; the pipeline's fiber is the first
        # point where that determinant is nonzero
        rng = random.Random(2024)
        checked = 0
        for q in (7, 8, 9, 11, 13):
            fld = field_for(q)
            # Sylvester size e + mg <= 7, beta = e * mg <= q, center needs q > 2e
            shapes = [
                (e, mg)
                for e in (1, 2, 3)
                for mg in range(1, 7)
                if e + mg <= 7 and e * mg <= q and 2 * e < q
            ]
            done = 0
            while done < 6:
                e, mg = rng.choice(shapes)
                try:
                    c = PlaneCurve(
                        random_homogeneous_poly(rng, fld, 3, e, rng.randint(2, 8))
                    )
                    g = CurveDivisor(
                        random_homogeneous_poly(rng, fld, 3, mg, rng.randint(2, 8))
                    )
                    center = projection_center(c)
                except NotSquarefree:
                    continue
                done += 1
                expected = _symbolic_resultant(c, g, center, fld)
                for st in _p1(fld):
                    assert fiber_resultant(c, g, center, st) == expected.eval(st)
                first = next((st for st in _p1(fld) if expected.eval(st)), None)
                if first is None:
                    with pytest.raises(DivisorNotProper):
                        point_off_divisor(c, g)
                else:
                    assert point_off_divisor(c, g).fiber_parameter.coords == first
                    checked += 1
        assert checked >= 20

    def test_zero_set_matches_enumeration(self):
        # lines through the center hitting {F = G = 0} are exactly the roots
        # of the resultant, checked against brute force over the base field
        rng = random.Random(31)
        for q in (7, 9, 11):
            fld = field_for(q)
            trials = 0
            while trials < 8:
                f = parse_polynomial(
                    "x0*x1 + %d*x2^2" % rng.randrange(1, q), fld
                )
                g_text = rng.choice(["x0 + x1", "x2", "x0 + 2*x2", "x1"])
                try:
                    c = PlaneCurve(f)
                    g = CurveDivisor(parse_polynomial(g_text, fld, 3))
                    center = projection_center(c)
                except NotSquarefree:
                    continue
                trials += 1
                # brute force: for each point of F=G=0 over fld, the line
                # joining it to the center corresponds to a resultant root
                for pt in enumerate_curve_points(c, fld):
                    if g.poly.map_coefficients(fld).eval(pt.coords) != 0:
                        continue
                    hit = any(
                        fiber_resultant(c, g, center, param.coords) == 0
                        for param in _params_through(center, pt, fld)
                    )
                    assert hit


class TestSoundnessCheck:
    @pytest.mark.parametrize("curve_text,divisor_text", [
        ("x0^3 + 2*x1^3 + 3*x2^3 + x0*x1*x2", "x0"),
        # beta = q = 7: P^1(F_7) has beta + 1 points and no spare one
        ("x0 + x1 + x2", "x0^7 + x1^6*x2 + 3*x2^7"),
    ], ids=["cubic", "beta-equals-q"])
    def test_wrong_resultant_is_caught(self, monkeypatch, curve_text, divisor_text):
        c, d = curve(curve_text, F7), divisor(divisor_text, F7)
        assert all(point_off_divisor(c, d).flags.values())
        honest = curvepoint.resultant
        monkeypatch.setattr(curvepoint, "resultant",
                            lambda *args: args[4].add(honest(*args), 1))
        with pytest.raises(InternalContradiction, match="Sylvester determinant"):
            point_off_divisor(c, d)


def _symbolic_resultant(c, g, center, fld):
    """Reference R(s, t): the cofactor determinant of the Sylvester matrix
    of the two pencil restrictions, over F[s,t]."""
    rows = sylvester_matrix(
        _pencil_coefficients(c.poly, center, fld),
        _pencil_coefficients(g.poly, center, fld),
        c.degree,
        g.degree,
    )
    zero = MultivariatePolynomial(2, fld)
    return det_poly([[zero if x is None else x for x in row] for row in rows], 2, fld)


def _pencil_coefficients(form, center, fld):
    """Reference restriction to the pencil: the coefficients (in F[s,t]) of
    v^0..v^deg of form(u*c + v*Q(s,t)), from a substitution in all four
    variables (u, v, s, t)."""
    P = MultivariatePolynomial
    deg = form.total_degree()
    _, j1, j2 = _line_frame(center)
    u, v, s, t = (P.variable(i, 4, fld) for i in range(4))
    reps = []
    for l in range(3):
        term = P.constant(center.coords[l], 4, fld) * u
        if l in (j1, j2):
            term = term + (s if l == j1 else t) * v
        reps.append(term)
    expanded = form.map_coefficients(fld).substitute(reps)
    coeffs = [{} for _ in range(deg + 1)]
    for (eu, ev, es, et), c in expanded.terms.items():
        assert eu + ev == deg
        coeffs[ev][(es, et)] = c
    return [P(2, fld, d) for d in coeffs]


def _params_through(center, pt, fld):
    """Pencil parameters (s:t) whose line through the center contains pt."""
    out = []
    for s in fld.enumerate_elements():
        for t in fld.enumerate_elements():
            if s == 0 and t == 0:
                continue
            base = _pencil_base_point(center, s, t)
            # pt on line spanned by center and base <=> 3x3 det vanishes
            rows = [center.coords, base, pt.coords]
            det = 0
            for i, j, k, sign in (
                (0, 1, 2, 1), (0, 2, 1, -1), (1, 0, 2, -1),
                (1, 2, 0, 1), (2, 0, 1, 1), (2, 1, 0, -1),
            ):
                term = fld.mul(
                    fld.mul(rows[0][i], rows[1][j]), rows[2][k]
                )
                det = fld.add(det, term if sign == 1 else fld.neg(term))
            if det == 0:
                out.append(ProjectivePoint((s, t), fld))
    return out


def _restrict_to_line(form, a, b, fld):
    """Reference restriction to a line: the binary form form(s*a + t*b) in
    variables (s, t), from a substitution in both."""
    P = MultivariatePolynomial
    s, t = P.variable(0, 2, fld), P.variable(1, 2, fld)
    line = [P.constant(x, 2, fld) * s + P.constant(y, 2, fld) * t for x, y in zip(a, b)]
    return form.map_coefficients(fld).substitute(line)


@st.composite
def _line_cases(draw):
    """(field, form, a, b).  Where a and b span a line, half the forms are
    multiplied by the cross product a x b, a linear form that vanishes on
    the line, so the line lies inside the curve."""
    fld = field_for(draw(st.sampled_from([5, 7, 4, 9])))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a, b = ([rng.randrange(fld.q) for _ in range(3)] for _ in range(2))
    form = random_homogeneous_poly(rng, fld, 3, rng.randint(1, 4))
    mul, sub = fld.mul, fld.sub
    cross = [sub(mul(a[i - 2], b[i - 1]), mul(a[i - 1], b[i - 2])) for i in range(3)]
    if any(cross) and draw(st.booleans()):
        form = form * MultivariatePolynomial(3, fld, {
            tuple(int(i == j) for j in range(3)): c for i, c in enumerate(cross)})
    return fld, form, a, b


@st.composite
def _pencil_cases(draw):
    """(field, form, center, axis): the center's first nonzero coordinate,
    the frame axis of its pencil, is drawn from 0, 1 and 2."""
    fld = field_for(draw(st.sampled_from([5, 7, 4, 9, 8])))
    axis = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    coords = [0] * axis + [1] + [rng.randrange(fld.q) for _ in range(2 - axis)]
    form = random_homogeneous_poly(rng, fld, 3, rng.randint(1, 5), rng.randint(1, 10))
    return fld, form, ProjectivePoint(coords, fld), axis


class TestLineRestriction:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_line_cases())
    def test_matches_binary_form(self, case):
        fld, form, a, b = case
        e = form.total_degree()
        expected = [0] * (e + 1)
        for (_, i), c in _restrict_to_line(form, a, b, fld).terms.items():
            expected[i] = c
        coeffs = _on_line([form], a, b, fld)[0]
        assert coeffs == expected
        if not any(coeffs):
            assert not _binary_form_squarefree(coeffs, fld)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_pencil_cases())
    def test_pencil_matches_reference(self, case):
        # the restriction fiber_resultant takes: the line through the center
        # and the base point of (s:t), at every point of P^1, against the
        # four-variable substitution evaluated there
        fld, form, center, axis = case
        assert _line_frame(center)[0] == axis
        reference = _pencil_coefficients(form, center, fld)
        for st in _p1(fld):
            coeffs = _on_line([form], center.coords, _pencil_base_point(center, *st), fld)[0]
            assert coeffs == [c.eval(st) for c in reference]


class TestGaloisOrbit:
    def test_rational_point_fixed(self):
        pt = ProjectivePoint((1, 2, 0), F9)
        orbit = galois_orbit(pt, F9)
        assert orbit == [pt]

    def test_conjugate_pair(self):
        g = F9.from_coords([0, 1])
        pt = ProjectivePoint((1, g, 0), F9)
        orbit = galois_orbit(pt, F3)
        assert len(orbit) == 2
        conj = F9.frobenius(g, 1)
        assert ProjectivePoint((1, conj, 0), F9) in orbit

    def test_not_a_subfield(self):
        with pytest.raises(NoEmbedding):
            galois_orbit(ProjectivePoint((1, 0), F9), F5)

    def test_exhaustive_orbit_partition(self):
        # orbits partition P^2(F_9) and sizes divide [F_9 : F_3] = 2
        from ffgeom.avoid import projective_points

        seen = set()
        for pt in projective_points(F9, 2):
            if pt.coords in seen:
                continue
            orbit = galois_orbit(pt, F3)
            assert len(orbit) in (1, 2)
            rational = all(
                F9.frobenius(c, 1) == c for c in pt.coords
            )
            assert (len(orbit) == 1) == rational
            for p in orbit:
                assert p.coords not in seen
                seen.add(p.coords)
        assert len(seen) == 9 ** 2 + 9 + 1


@st.composite
def _pipeline_cases(draw):
    """(field, curve form, divisor form) with 2e < q and beta = e*deg G <= q,
    over prime and extension fields.  The brute-force enumeration over
    k2 = F_{q^J}, J <= e, scans ~q^(2J) points, so e stops where q^e passes
    4096: a quartic needs q >= 9, and over F_3^8 the enumeration alone
    takes seconds."""
    q = draw(st.sampled_from([4, 5, 7, 8, 9, 16, 25]))
    fld = field_for(q)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    e = rng.choice([e for e in range(1, 5) if 2 * e < q and q ** e <= 4096])
    mg = rng.randint(0, min(3, q // e))
    f = random_homogeneous_poly(rng, fld, 3, e, rng.randint(2, 8))
    return fld, f, random_homogeneous_poly(rng, fld, 3, mg)


class TestPipeline:
    def test_conic_example(self):
        c = curve("x0*x1 + 2*x2^2", F5)
        res = point_off_divisor(c, divisor("x2", F5))
        assert all(res.flags.values())
        assert res.ext_degree <= 2

    def test_field_too_small(self):
        # q = 3 <= 2e = 4
        c = curve("x0*x1 + 2*x2^2", F3)
        with pytest.raises(FieldTooSmall):
            point_off_divisor(c, divisor("x2", F3))

    @pytest.mark.parametrize("curve_field,divisor_field", [(F7, F5), (F7, F49), (F49, F7)],
                             ids=["F5-on-F7", "F49-on-F7", "F7-on-F49"])
    def test_divisor_over_another_field(self, curve_field, divisor_field):
        # another characteristic, an extension and a subfield are refused alike
        c = curve("x0*x1 + 2*x2^2", curve_field)
        with pytest.raises(FieldMismatch):
            point_off_divisor(c, divisor("x2", divisor_field))

    def test_verification_is_independent(self):
        c = curve("x0*x1 + 2*x2^2", F5)
        res = point_off_divisor(c, divisor("x0 + x1", F5))
        flags = verify_on_curve(res, c, divisor("x0 + x1", F5))
        assert all(flags.values())

    def test_negative_control_flags(self):
        c = curve("x0*x1 + 2*x2^2", F5)
        d = divisor("x2", F5)
        res = point_off_divisor(c, d)
        # swap in a point off the curve: on_curve flag must trip
        bad = ProjectivePoint(projection_center(c).coords, res.k2)
        res.point = bad
        res.orbit = [bad]
        flags = verify_on_curve(res, c, d)
        assert not flags["on_curve"]

    def test_point_appears_in_enumeration(self):
        rng = random.Random(77)
        for q in (7, 9, 11, 13):
            fld = field_for(q)
            done = 0
            while done < 10:
                coeffs = [rng.randrange(1, q) for _ in range(3)]
                text = "%d*x0^2 + %d*x1^2 + %d*x2^2" % tuple(coeffs)
                g_text = rng.choice(["x0", "x1 + x2", "x2", "x0 + x1 + x2"])
                try:
                    c = PlaneCurve(parse_polynomial(text, fld, 3))
                    d = CurveDivisor(parse_polynomial(g_text, fld, 3))
                    res = point_off_divisor(c, d)
                except (NotSquarefree, DivisorNotProper, FieldTooSmall):
                    continue
                done += 1
                assert all(res.flags.values())
                pts = enumerate_curve_points(c, res.k2)
                assert res.point in pts
                gk2 = d.poly.map_coefficients(res.k2)
                assert gk2.eval(res.point.coords) != 0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_pipeline_cases())
    def test_fiber_and_point_against_brute_force(self, case):
        # the fiber is the first point of P^1 where the symbolic Sylvester
        # determinant is nonzero, and the point is among the brute-force
        # points of the curve over k2, off the divisor, with a closed orbit
        fld, f, g = case
        try:
            c = PlaneCurve(f)
        except NotSquarefree:
            assume(False)
        d = CurveDivisor(g)
        expected = _symbolic_resultant(c, d, projection_center(c), fld)
        first = next((st for st in _p1(fld) if expected.eval(st)), None)
        if first is None:
            with pytest.raises(DivisorNotProper):
                point_off_divisor(c, d)
            return
        res = point_off_divisor(c, d)
        assert res.fiber_parameter.coords == first
        k2 = res.k2
        assert res.point in enumerate_curve_points(c, k2)
        assert d.poly.map_coefficients(k2).eval(res.point.coords) != 0
        orbit = {p.coords for p in res.orbit}
        assert res.point.coords in orbit
        for p in res.orbit:
            assert ProjectivePoint([k2.frobenius(x, fld.k) for x in p.coords], k2).coords in orbit

    def test_deterministic(self):
        c = curve("x0^3 + 2*x1^3 + 3*x2^3 + x0*x1*x2", F7)
        d = divisor("x0", F7)
        a = point_off_divisor(c, d)
        b = point_off_divisor(c, d)
        assert a.point == b.point and a.center == b.center
        assert a.orbit == b.orbit


class TestEnumeration:
    def test_conic_point_count(self):
        # smooth conic over F_q has exactly q + 1 points
        c = curve("x0*x1 + 2*x2^2", F5)
        pts = enumerate_curve_points(c, F5)
        assert len(pts) == len(set(pts)) == 6

    def test_line_count(self):
        c = curve("x0 + x1 + x2", F7)
        assert len(enumerate_curve_points(c, F7)) == 8

    def test_extension_field(self):
        c = curve("x0*x1 + 2*x2^2", F3)
        pts = enumerate_curve_points(c, F9)
        assert len(pts) == 10
        f9 = c.poly.map_coefficients(F9)
        assert all(f9.eval(p.coords) == 0 for p in pts)
