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

from . import kernels
from .avoid import (
    GUARANTEED,
    PROJECTIVE,
    Hypersurface,
    ProjectivePoint,
    avoid_projective,
    chart_rows,
    charts,
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
from .fields import embed, poly_mul
from .polynomials import (
    MultivariatePolynomial,
    UnivariatePolynomial,
    find_root_in_tower,
    homogeneous_or_raise,
    interpolate,
    poly_gcd,
    resultant,
    sylvester_matrix,
)

# The perfbench tracer wraps curvepoint.det_poly, curvepoint.to_univariate
# and avoid.det_scalar by name.  det_poly and to_univariate are unused here,
# but stay importable; the determinant that checks the fiber resultant is
# looked up on the avoid module at call time (the package rebinds the name
# avoid to a function) so that the tracer counts it.
from .polynomials import det_poly, to_univariate  # noqa: F401

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


def _on_line(form, a, b, fld, s_at=None):
    """Coefficients of v^0..v^e in form(a + v*b), e the form's degree.

    Coordinate j contributes the row C(e_j, i) a_j^(e_j-i) b_j^i of
    (a_j + v*b_j)^e_j, built once per exponent; a term adds the product of
    one entry from each of its three rows to the coefficient of v^(sum of
    the entry indices).  Without ``s_at`` each coefficient is a field
    element, and entry i is also the coefficient of x^(e-i)*y^i in the
    binary form form(x*a + y*b).

    With ``s_at = j`` the entry b_j also carries the pencil parameter s, and
    the coefficient c_i of v^i is a list of i + 1 coefficients in s, low
    degree first: the exponent of s is the index of the entry from row j.
    Nothing is lost at t = 1: c_i(s, t) is a binary form of degree i, so
    c_i(s, t) = t^i * c_i(s/t, 1), and the last entry is c_i(1, 0).
    """
    e = form.total_degree()
    add, mul = fld.add, fld.mul
    rows = []
    for aj, bj in zip(a, b):
        # row n: the coefficients of (aj + v*bj)^n; bj = 0 leaves one entry
        rows.append([[1]])
        for _ in range(e):
            r = rows[-1][-1]
            rows[-1].append(poly_mul([aj, bj], r, fld) if bj else [mul(aj, r[0])])
    pencil = s_at is not None
    # one-entry rows (b_j = 0) in the outer loop, the row carrying s in the
    # middle one
    order = sorted((j for j in range(3) if j != s_at), key=lambda j: bool(b[j]))
    first, mid, last = order[:1] + [s_at] + order[1:] if pencil else order
    out = [[0] * (i + 1 if pencil else 1) for i in range(e + 1)]
    for exps, c in form.map_coefficients(fld).terms.items():
        for i, x in enumerate(rows[first][exps[first]]):
            if x:
                cx = mul(c, x)
                for k, y in enumerate(rows[mid][exps[mid]], i):
                    if y:
                        cxy = mul(cx, y)
                        m = k - i if pencil else 0
                        for l, z in enumerate(rows[last][exps[last]], k):
                            if z:
                                row = out[l]
                                row[m] = add(row[m], mul(cxy, z))
    return out if pencil else [row[0] for row in out]


def _binary_form_squarefree(coeffs, fld):
    """Whether the binary form with the coefficients of :func:`_on_line` is
    nonzero and has no repeated root on either chart, B(1,t) or B(s,1)."""
    if not any(coeffs):
        return False
    for chart in (coeffs, coeffs[::-1]):
        u = UnivariatePolynomial(chart, fld)
        if u.degree >= 1 and poly_gcd(u, u.derivative()).degree > 0:
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
        if _binary_form_squarefree(_on_line(f, a, b, fld), fld):
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


def fiber_resultant(curve, divisor, center):
    """Binary form in the pencil parameter (s:t) vanishing exactly at the
    lines through the center that meet the curve-divisor intersection.

    The form R(s,t) is the resultant in v of the restrictions of F and G to
    the line through the center and (s:t); it has degree beta = e*deg G.
    Its coefficient of s^beta, R(1,0), is the resultant of the top
    coefficients c_i(1, 0) of the restrictions from :func:`_on_line`.  At
    (x:1) for beta elements x of the field, the coefficients in v are
    Horner evaluations, and one Euclidean :func:`resultant` each fixes
    R(x,1) - R(1,0)*x^beta, of degree < beta, by interpolation.
    Evaluation commutes with the resultant over the declared degrees, so
    the form is exact even where a leading coefficient vanishes.  When the
    field has a spare element, the form is checked there against an
    independent algorithm: the Bareiss determinant of the Sylvester matrix.
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
    # the pencil at t = 1: the line through the center and (s:1)
    base, j1 = _pencil_base_point(center, 1, 1), _line_frame(center)[1]
    fc, gc = (_on_line(h, center.coords, base, fld, s_at=j1) for h in (f, g))
    top = resultant([c[-1] for c in fc], [c[-1] for c in gc], e, mg, fld)
    fc, gc = ([UnivariatePolynomial(c, fld) for c in cs] for cs in (fc, gc))

    def values(x):
        # the coefficients in v at (x:1), by Horner's rule
        return [c.eval(x) for c in fc], [c.eval(x) for c in gc]

    xs = list(islice(fld.enumerate_elements(), beta + 1))
    # R(x,1) - top*x^beta has degree < beta: interpolate it from beta values
    ys = [
        fld.sub(resultant(*values(x), e, mg, fld), fld.mul(top, fld.pow(x, beta)))
        for x in xs[:beta]
    ]
    low = interpolate(xs[:beta], ys, fld).coeffs
    r1 = UnivariatePolynomial(low + [0] * (beta - len(low)) + [top], fld)  # R(s,1)
    if r1.is_zero():
        raise DivisorNotProper(
            "every line through the center meets the divisor; the divisor "
            "form shares a component with the curve"
        )
    if len(xs) > beta:
        x = xs[beta]
        rows = sylvester_matrix(*values(x), e, mg)
        if r1.eval(x) != _avoid.det_scalar([[a or 0 for a in r] for r in rows], fld):
            raise InternalContradiction(
                "fiber resultant disagrees with its Sylvester determinant"
            )
    return P(2, fld, {(i, beta - i): c for i, c in enumerate(r1.coeffs)})


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
    # a constant resultant (an empty divisor) is avoided at (1:0)
    surf = Hypersurface(fiber_resultant(curve, divisor, center), PROJECTIVE, (1,))
    found = avoid_projective(surf, k1)
    if not (found.found and found.mode == GUARANTEED):
        raise InternalContradiction("guaranteed search found no good fiber")
    param = found.point
    q_pt = _pencil_base_point(center, param.coords[0], param.coords[1])
    # restriction of the curve to the chosen line, in the fiber coordinate v
    phi = UnivariatePolynomial(_on_line(curve.poly, center.coords, q_pt, k1), k1)
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
        if curve.poly.map_coefficients(k1).eval(q_pt) != 0:
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
    """All points of the curve over ``fld``, canonical order (brute force):
    the zeros of the curve's form over the charts of P^2."""
    plane = Hypersurface(curve.poly.map_coefficients(fld), PROJECTIVE, (2,))
    return [
        ProjectivePoint(rows[0], fld)
        for chart, cell in charts(plane, fld)
        for found in kernels.hits(chart, zero=True)
        for rows in chart_rows(chart, cell, found).tolist()
    ]
