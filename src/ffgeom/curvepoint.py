"""Points on a plane curve avoiding a divisor, over a controlled extension.

Given X = {F = 0} in P^2 over F_q and a divisor cut by a form G, project X
from a point off X, push the divisor down to P^1 through fiberwise
resultants, pick a fiber avoiding the pushed-down divisor, and take a point
of X in that fiber; the point lives over an extension of degree at most
deg F, and its Frobenius orbit over the base is returned alongside.
"""

import importlib
from dataclasses import dataclass
from itertools import islice

from .avoid import (
    GUARANTEED,
    PROJECTIVE,
    Hypersurface,
    ProjectivePoint,
    avoid_projective,
    projective_points,
)
from .errors import (
    CenterOnCurve,
    DivisorNotProper,
    FieldTooSmall,
    InternalContradiction,
    NoEmbedding,
    NotSquarefree,
    ZeroPolynomial,
)
from .fields import embed
from .polynomials import (
    MultivariatePolynomial,
    find_root_in_tower,
    homogeneous_or_raise,
    interpolate,
    poly_gcd,
    sylvester_matrix,
    to_univariate,
)

# The perfbench tracer wraps curvepoint.det_poly and avoid.det_scalar by
# name.  det_poly is unused here since the fiber resultant is interpolated,
# but stays importable; the scalar determinants are looked up on the avoid
# module at call time (the package rebinds the name avoid to a function) so
# that the tracer counts them.
from .polynomials import det_poly  # noqa: F401

_avoid = importlib.import_module(".avoid", __package__)


@dataclass(frozen=True)
class PlaneCurve:
    """Squarefree homogeneous form in 3 variables; certified at construction
    by finding one canonical line whose restriction is squarefree."""

    poly: MultivariatePolynomial

    def __post_init__(self):
        f = self.poly
        if f.is_zero():
            raise ZeroPolynomial("curve needs a nonzero form")
        homogeneous_or_raise(f, "curve equation")
        if f.nvars != 3:
            raise ValueError("plane curve needs exactly 3 variables")
        if f.total_degree() < 1:
            raise ValueError("curve degree must be >= 1")
        if not _squarefree_certificate(f):
            raise NotSquarefree(
                "no canonical line restriction certifies the curve squarefree"
            )

    @property
    def degree(self):
        return self.poly.total_degree()


@dataclass(frozen=True)
class CurveDivisor:
    """Divisor on the curve cut out by a single form (constant = empty)."""

    poly: MultivariatePolynomial

    def __post_init__(self):
        g = self.poly
        if g.is_zero():
            raise ZeroPolynomial("divisor needs a nonzero form")
        homogeneous_or_raise(g, "divisor equation")
        if g.nvars != 3:
            raise ValueError("divisor form needs exactly 3 variables")

    @property
    def degree(self):
        return self.poly.total_degree()


@dataclass
class CurvePointResult:
    point: ProjectivePoint
    k1: object
    k2: object
    ext_degree: int
    center: ProjectivePoint
    fiber_parameter: ProjectivePoint
    orbit: list
    flags: dict


def _restrict_to_line(form, a, b, fld):
    """Binary form form(s*a + t*b) in variables (s, t)."""
    P = MultivariatePolynomial
    reps = []
    s = P.variable(0, 2, fld)
    t = P.variable(1, 2, fld)
    for l in range(3):
        reps.append(s.scale(a[l]) + t.scale(b[l]))
    return form.map_coefficients(fld).substitute(reps)


def _binary_form_squarefree(b, fld):
    if b.is_zero():
        return False
    one = MultivariatePolynomial.constant(1, 1, fld)
    for var in (0, 1):
        chart = to_univariate(b.eliminate(var, one))
        if chart.degree >= 1:
            g = poly_gcd(chart, chart.derivative())
            if g.degree > 0:
                return False
    return True


def _canonical_lines(fld, count):
    """Deterministic distinct lines in P^2: dual points in canonical order,
    each with a spanning pair of its zero locus."""
    out = []
    for dual in projective_points(fld, 2):
        ell = dual.coords
        i = next(j for j in range(3) if ell[j])
        pair = []
        for j in range(3):
            if j == i:
                continue
            pt = [0, 0, 0]
            pt[j] = 1
            pt[i] = fld.neg(ell[j])
            pair.append(tuple(pt))
        out.append((pair[0], pair[1]))
        if len(out) >= count:
            break
    return out


def _squarefree_certificate(f):
    fld = f.field
    e = f.total_degree()
    for a, b in _canonical_lines(fld, e + 1):
        restriction = _restrict_to_line(f, a, b, fld)
        if _binary_form_squarefree(restriction, fld):
            return True
    return False


def projection_center(curve, k1):
    """Point of P^2(k1) off the curve, canonical."""
    e = curve.degree
    if k1.q <= 2 * e:
        raise FieldTooSmall(f"need q > {2 * e}, got {k1.q}")
    surf = Hypersurface(curve.poly.map_coefficients(k1), PROJECTIVE, (2,))
    res = avoid_projective(surf, k1)
    if not (res.found and res.mode == GUARANTEED):
        raise InternalContradiction("guaranteed search found no center off the curve")
    return res.point


def _line_frame(center):
    """Axis of the coordinate line used to parameterize the pencil of lines
    through the center, plus the two free positions on it."""
    axis = next(i for i, c in enumerate(center.coords) if c)
    others = [j for j in range(3) if j != axis]
    return axis, others[0], others[1]


def _pencil_base_point(center, s, t):
    axis, j1, j2 = _line_frame(center)
    coords = [0, 0, 0]
    coords[j1] = s
    coords[j2] = t
    return tuple(coords)


def _v_coefficients(form, center, fld):
    """Coefficients (in F[s,t]) of v^0..v^deg of form(u*c + v*Q(s,t))."""
    P = MultivariatePolynomial
    deg = form.total_degree()
    axis, j1, j2 = _line_frame(center)
    # 4-variable ring (u, v, s, t)
    u = P.variable(0, 4, fld)
    v = P.variable(1, 4, fld)
    s = P.variable(2, 4, fld)
    t = P.variable(3, 4, fld)
    reps = []
    for l in range(3):
        q_l = s if l == j1 else (t if l == j2 else None)
        term = u.scale(center.coords[l])
        if q_l is not None:
            term = term + q_l * v
        reps.append(term)
    expanded = form.map_coefficients(fld).substitute(reps)
    coeffs = [dict() for _ in range(deg + 1)]
    for (eu, ev, es, et), c in expanded.terms.items():
        if eu + ev != deg:
            raise InternalContradiction("restriction to the pencil is not homogeneous")
        coeffs[ev][(es, et)] = c
    return [P(2, fld, d) for d in coeffs]


def fiber_resultant(curve, divisor, center):
    """Binary form in the pencil parameter (s:t) vanishing exactly at the
    lines through the center that meet the curve-divisor intersection.

    The form R(s,t) is the resultant in v of the restrictions of F and G to
    the line through the center and (s:t); it has degree beta = e*deg G.
    Its Sylvester matrix is evaluated at (1:0), which gives the coefficient
    of s^beta, and at (x:1) for beta elements x of the field; the scalar
    determinants fix R(x,1) - R(1,0)*x^beta, of degree < beta, by
    interpolation.  Evaluation commutes with the determinant, so the form is
    exact even where a leading coefficient vanishes.  When the field has a
    spare element, the form is checked against one more determinant.
    """
    fld = center.field
    f = curve.poly.map_coefficients(fld)
    g = divisor.poly.map_coefficients(fld)
    if f.eval(center.coords) == 0:
        raise CenterOnCurve("projection center lies on the curve")
    e = curve.degree
    mg = divisor.degree
    beta = e * mg
    P = MultivariatePolynomial
    if mg == 0:
        c = g.eval((0, 0, 0))
        return P.constant(fld.pow(c, e), 2, fld)
    if fld.q < beta:
        raise FieldTooSmall(
            f"interpolating the fiber resultant needs q >= {beta}, got {fld.q}"
        )
    fc = _v_coefficients(f, center, fld)
    gc = _v_coefficients(g, center, fld)

    def resultant_at(s, t):
        rows = sylvester_matrix(
            [c.eval((s, t)) for c in fc], [c.eval((s, t)) for c in gc], e, mg
        )
        return _avoid.det_scalar([[x or 0 for x in row] for row in rows], fld)

    top = resultant_at(1, 0)
    xs = list(islice(fld.enumerate_elements(), beta + 1))
    values = [resultant_at(x, 1) for x in xs]
    # R(x,1) - top*x^beta has degree < beta: interpolate it from beta values
    ys = [fld.sub(v, fld.mul(top, fld.pow(x, beta))) for x, v in zip(xs, values)]
    low = interpolate(xs[:beta], ys[:beta], fld).coeffs
    coeffs = low + [0] * (beta - len(low)) + [top]
    res = P(2, fld, {(i, beta - i): c for i, c in enumerate(coeffs)})
    if res.is_zero():
        raise DivisorNotProper(
            "every line through the center meets the divisor; the divisor "
            "form shares a component with the curve"
        )
    if len(xs) > beta and res.eval((xs[beta], 1)) != values[beta]:
        raise InternalContradiction(
            "fiber resultant disagrees with its Sylvester determinant"
        )
    return res


def galois_orbit(pt, k2, k1):
    """Frobenius orbit of a projective point over the subfield k1."""
    if k1.p != k2.p or k2.k % k1.k != 0:
        raise NoEmbedding(f"{k1!r} is not a subfield of {k2!r}")
    orbit = []
    seen = set()
    cur = pt
    while cur.coords not in seen:
        seen.add(cur.coords)
        orbit.append(cur)
        cur = ProjectivePoint(
            [k2.frobenius(c, k1.k) for c in cur.coords], k2
        )
    return sorted(orbit)


def point_off_divisor(curve, divisor, k1):
    """Full pipeline: center, fiber resultant, good fiber, root in a tower,
    Frobenius orbit, verification."""
    e = curve.degree
    beta = e * divisor.degree
    if k1.q <= max(2 * e, beta - 1):
        raise FieldTooSmall(
            f"need q > max(2*{e}, {beta}-1) = {max(2 * e, beta - 1)}, got {k1.q}"
        )
    center = projection_center(curve, k1)
    res_form = fiber_resultant(curve, divisor, center)
    if res_form.total_degree() == 0:
        param = ProjectivePoint((1, 0), k1)
    else:
        surf = Hypersurface(res_form, PROJECTIVE, (1,))
        found = avoid_projective(surf, k1)
        if not (found.found and found.mode == GUARANTEED):
            raise InternalContradiction("guaranteed search found no good fiber")
        param = found.point
    q_pt = _pencil_base_point(center, param.coords[0], param.coords[1])
    f1 = curve.poly.map_coefficients(k1)
    # restriction of the curve to the chosen line, in the fiber coordinate v
    P = MultivariatePolynomial
    v = P.variable(0, 1, k1)
    reps = [
        P.constant(center.coords[l], 1, k1) + v.scale(q_pt[l]) for l in range(3)
    ]
    phi = to_univariate(f1.substitute(reps))
    if phi.degree >= 1:
        root, k2, ext_degree = find_root_in_tower(phi, e)
        coords = [
            k2.add(embed(center.coords[l], k1, k2),
                   k2.mul(root, embed(q_pt[l], k1, k2)))
            for l in range(3)
        ]
        point = ProjectivePoint(coords, k2)
    else:
        # the line meets the curve only at its base point on the axis line
        if f1.eval(q_pt) != 0:
            raise InternalContradiction(
                "fiber restriction is constant but its base point is off the curve"
            )
        k2, ext_degree = k1, 1
        point = ProjectivePoint(q_pt, k1)
    orbit = galois_orbit(point, k2, k1)
    result = CurvePointResult(
        point=point,
        k1=k1,
        k2=k2,
        ext_degree=ext_degree,
        center=center,
        fiber_parameter=param,
        orbit=orbit,
        flags={},
    )
    result.flags = verify_on_curve(result, curve, divisor)
    if not all(result.flags.values()):
        raise InternalContradiction(f"verification failed: {result.flags}")
    return result


def verify_on_curve(result, curve, divisor):
    """Independent re-derivation of every claimed property."""
    k2 = result.k2
    f = curve.poly.map_coefficients(k2)
    g = divisor.poly.map_coefficients(k2)
    pt = result.point
    orbit_set = {p.coords for p in result.orbit}
    closed = all(
        ProjectivePoint([k2.frobenius(c, result.k1.k) for c in p.coords], k2).coords
        in orbit_set
        for p in result.orbit
    )
    return {
        "on_curve": f.eval(pt.coords) == 0,
        "off_divisor": g.eval(pt.coords) != 0,
        "degree_bound": result.ext_degree <= curve.degree,
        "orbit_contains_point": pt.coords in orbit_set,
        "orbit_closed": closed,
        "orbit_size_divides": result.ext_degree % len(result.orbit) == 0,
    }


def enumerate_curve_points(curve, fld):
    """All points of the curve over ``fld``, canonical order (brute force)."""
    import numpy as np

    from . import kernels

    f = curve.poly.map_coefficients(fld)
    P = MultivariatePolynomial
    out = []
    # chart (1 : y : z)
    chart = f.substitute(
        [P.constant(1, 2, fld), P.variable(0, 2, fld), P.variable(1, 2, fld)]
    )
    values = kernels.grid_eval(chart)
    for t in np.nonzero(values == 0)[0]:
        y, z = kernels.decode_point(int(t), fld.q, 2)
        out.append(ProjectivePoint((1, y, z), fld))
    # chart (0 : 1 : z)
    chart = f.substitute(
        [P.constant(0, 1, fld), P.constant(1, 1, fld), P.variable(0, 1, fld)]
    )
    values = kernels.grid_eval(chart)
    for t in np.nonzero(values == 0)[0]:
        out.append(ProjectivePoint((0, 1, int(t)), fld))
    if f.eval((0, 0, 1)) == 0:
        out.append(ProjectivePoint((0, 0, 1), fld))
    return out
