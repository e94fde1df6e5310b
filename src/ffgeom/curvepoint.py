"""Points on a plane curve avoiding a divisor, over a controlled extension.

Given X = {F = 0} in P^2 over F_q and a divisor cut by a form G, project X
from a point off X and push the divisor down to P^1: the fiberwise
resultant R of F and G.  Lines of the pencil are tried in canonical order,
R evaluated on each, until one avoids the pushed-down divisor; a point of
X in that fiber lives over an extension of degree at most deg F, and its
Frobenius orbit over the base is returned alongside.
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
    FieldMismatch,
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


def _on_line(forms, a, b, fld):
    """For each form over ``fld``, the coefficients of v^0..v^e in
    form(a + v*b), e the form's degree; entry i is also the coefficient of
    x^(e-i)*y^i in the binary form form(x*a + y*b).

    Coordinate j contributes the row C(n, i) a_j^(n-i) b_j^i of
    (a_j + v*b_j)^n, built once per exponent n for all the forms; a term
    adds the product of one entry from each of its three rows to the
    coefficient of v^(sum of the entry indices).
    """
    add, mul = fld.add, fld.mul
    rows = []
    for j, (aj, bj) in enumerate(zip(a, b)):
        # row n: the coefficients of (aj + v*bj)^n, up to the largest n a
        # form uses; bj = 0 leaves one entry, aj = 0 one nonzero entry
        rows.append([[1]])
        for _ in range(max(form.degree_in(j) for form in forms)):
            r = rows[-1][-1]
            if not bj:
                r = [mul(aj, r[0])]
            elif not aj:
                r = [0] * len(r) + [mul(bj, r[-1])]
            else:
                r = poly_mul([aj, bj], r, fld)
            rows[-1].append(r)
    # one-entry rows (b_j = 0) in the outer loop
    first, mid, last = sorted(range(3), key=lambda j: bool(b[j]))
    outs = []
    for form in forms:
        out = [0] * (form.total_degree() + 1)
        for exps, c in form.terms.items():
            for i, x in enumerate(rows[first][exps[first]]):
                if x:
                    cx = mul(c, x)
                    for k, y in enumerate(rows[mid][exps[mid]], i):
                        if y:
                            cxy = mul(cx, y)
                            for l, z in enumerate(rows[last][exps[last]], k):
                                if z:
                                    out[l] = add(out[l], mul(cxy, z))
        outs.append(out)
    return outs


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
        if _binary_form_squarefree(_on_line([f], a, b, fld)[0], fld):
            return True
    return False


def projection_center(curve):
    """Point of P^2 off the curve over the curve's field, canonical."""
    e, q = curve.degree, curve.poly.field.q
    if q <= 2 * e:
        raise FieldTooSmall(f"need q > {2 * e}, got {q}")
    res = avoid_projective(Hypersurface(curve.poly, PROJECTIVE, (2,)))
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


def fiber_resultant(curve, divisor, center, param):
    """The pushed-down divisor R at the pencil parameter ``param = (s, t)``.

    R is the binary form of degree beta = e*deg G in (s:t) that vanishes
    exactly at the lines through the center meeting the curve-divisor
    intersection: the resultant in v, at the declared degrees (e, deg G),
    of the restrictions of F and G to the line through the center and
    :func:`_pencil_base_point`.  The resultant commutes with evaluation at
    declared degrees, so its value at one line is the Euclidean
    :func:`resultant` of that line's restrictions, exact even where a
    leading coefficient vanishes.
    """
    fld = curve.poly.field
    if center.field != fld or divisor.poly.field != fld:
        raise FieldMismatch("center and divisor must lie over the curve's field")
    if curve.poly.eval(center.coords) == 0:
        raise CenterOnCurve("projection center lies on the curve")
    base = _pencil_base_point(center, *param)
    fc, gc = _on_line([curve.poly, divisor.poly], center.coords, base, fld)
    return resultant(fc, gc, curve.degree, divisor.degree, fld)


def galois_orbit(pt, k1):
    """Frobenius orbit of a projective point over a subfield k1 of its field."""
    k2 = pt.field
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


def point_off_divisor(curve, divisor):
    """Full pipeline: center, good fiber, root in a tower, Frobenius orbit,
    verification.  The divisor lies over the curve's field k1.

    The good fiber is the first point of P^1(k1), in canonical order, where
    :func:`fiber_resultant` is nonzero.  R has degree beta and q >= beta, so
    one of the first beta + 1 points is nonzero unless R is zero: the
    divisor shares a component with the curve.  The value is checked once,
    on the chosen line.
    """
    k1, e = curve.poly.field, curve.degree
    beta = e * divisor.degree
    if k1.q <= max(2 * e, beta - 1):
        raise FieldTooSmall(
            f"need q > max(2*{e}, {beta}-1) = {max(2 * e, beta - 1)}, got {k1.q}"
        )
    center = projection_center(curve)
    for param in islice(projective_points(k1, 1), beta + 1):
        value = fiber_resultant(curve, divisor, center, param.coords)
        if value:
            break
    else:
        raise DivisorNotProper(
            "every line through the center meets the divisor; the divisor "
            "form shares a component with the curve"
        )
    q_pt = _pencil_base_point(center, *param.coords)
    # restrictions of the curve and the divisor to the chosen line, in the
    # fiber coordinate v
    fc, gc = _on_line([curve.poly, divisor.poly], center.coords, q_pt, k1)
    phi = UnivariatePolynomial(fc, k1)
    # the root search refuses a root field past the table limit, so it runs
    # before the (e + deg G)^3 check: the value against an independent
    # algorithm, the Sylvester determinant by Gaussian elimination
    found = find_root_in_tower(phi, e) if phi.degree >= 1 else None
    rows = sylvester_matrix(fc, gc, e, divisor.degree)
    if value != _avoid.det_scalar(rows, k1):
        raise InternalContradiction(
            "fiber resultant disagrees with its Sylvester determinant"
        )
    if phi.degree >= 1:
        root, k2, ext_degree = found
        coords = [
            k2.add(embed(center.coords[l], k1, k2),
                   k2.mul(root, embed(q_pt[l], k1, k2)))
            for l in range(3)
        ]
        point = ProjectivePoint(coords, k2)
    else:
        # the line meets the curve only at its base point on the axis line
        if curve.poly.eval(q_pt) != 0:
            raise InternalContradiction(
                "fiber restriction is constant but its base point is off the curve"
            )
        k2, ext_degree = k1, 1
        point = ProjectivePoint(q_pt, k1)
    orbit = galois_orbit(point, k1)
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
