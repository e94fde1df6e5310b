"""Finding rational points off a hypersurface in affine, projective, and
Grassmannian ambient spaces over a finite field.

Each search runs in *guaranteed* mode when the field clears the degree
threshold that makes the inductive construction succeed (q > deg for affine,
q >= deg for projective, q > m*deg for the Grassmannian), and otherwise
downgrades to an exhaustive scan with an explicit mode flag, so small-field
boundary cases report NoPointExists instead of erroring.
"""

from dataclasses import dataclass, field as dc_field
from itertools import combinations, product
from math import comb

import numpy as np

from . import kernels
from .errors import (
    CellContained,
    InternalContradiction,
    NotHomogeneous,
    RankDeficient,
    SpaceTooLarge,
    ZeroPolynomial,
)
from .polynomials import MultivariatePolynomial, det_poly, det_scalar, rank_and_det

DEFAULT_ORACLE_LIMIT = 10 ** 7

AFFINE = "affine"
PROJECTIVE = "projective"
GRASSMANNIAN = "grassmannian"

FOUND = "found"
NO_POINT = "no_point_exists"

GUARANTEED = "guaranteed"
EXHAUSTIVE = "exhaustive-fallback"


@dataclass(frozen=True)
class Hypersurface:
    """Zero locus of a single polynomial in one of the three ambient kinds."""

    poly: MultivariatePolynomial
    kind: str
    # affine/projective: ambient dimension n; grassmannian: (m, n)
    params: tuple

    def __post_init__(self):
        if self.poly.is_zero():
            raise ZeroPolynomial("hypersurface needs a nonzero polynomial")
        if self.kind == AFFINE:
            (n,) = self.params
            if self.poly.nvars != n:
                raise ValueError("affine polynomial arity must equal n")
        elif self.kind == PROJECTIVE:
            (n,) = self.params
            if self.poly.nvars != n + 1:
                raise ValueError("projective polynomial needs n+1 variables")
            if not self.poly.is_homogeneous():
                raise NotHomogeneous("projective hypersurface must be homogeneous")
        elif self.kind == GRASSMANNIAN:
            m, n = self.params
            if not (1 <= m < n):
                raise ValueError("need 1 <= m < n")
            if self.poly.nvars != comb(n, m):
                raise ValueError(
                    f"section needs C({n},{m}) = {comb(n, m)} variables"
                )
            if not self.poly.is_homogeneous():
                raise NotHomogeneous("section must be homogeneous")
        else:
            raise ValueError(f"unknown ambient kind {self.kind!r}")

    @property
    def degree(self):
        return self.poly.total_degree()


class ProjectivePoint:
    """Homogeneous coordinates, normalized so the first nonzero entry is 1."""

    __slots__ = ("coords", "field")

    def __init__(self, coords, field):
        coords = tuple(coords)
        lead = next((i for i, c in enumerate(coords) if c), None)
        if lead is None:
            raise ValueError("projective point needs a nonzero coordinate")
        if coords[lead] != 1:
            inv = field.inv(coords[lead])
            coords = tuple(field.mul(inv, c) for c in coords)
        self.coords = coords
        self.field = field

    @property
    def dim(self):
        return len(self.coords) - 1

    def __eq__(self, other):
        return (
            isinstance(other, ProjectivePoint)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    def __lt__(self, other):
        return self.coords < other.coords

    def __repr__(self):
        inner = ":".join(self.field.element_str(c) for c in self.coords)
        return f"({inner})"


class GrassmannianPoint:
    """An m-plane in n-space: row-span matrix plus its minor vector."""

    __slots__ = ("matrix", "plucker", "field")

    def __init__(self, matrix, field):
        matrix = tuple(tuple(row) for row in matrix)
        self.matrix = matrix
        self.field = field
        self.plucker = plucker(matrix, field)

    @property
    def shape(self):
        return len(self.matrix), len(self.matrix[0])

    def __eq__(self, other):
        return (
            isinstance(other, GrassmannianPoint)
            and self.field == other.field
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"GrassmannianPoint({self.matrix})"


@dataclass
class AvoidanceResult:
    outcome: str  # FOUND or NO_POINT
    mode: str  # GUARANTEED or EXHAUSTIVE
    point: object = None  # tuple / ProjectivePoint / GrassmannianPoint
    trace: list = dc_field(default_factory=list)

    @property
    def found(self):
        return self.outcome == FOUND


def plucker(matrix, field):
    """m x m minors in lexicographic column-set order."""
    m = len(matrix)
    n = len(matrix[0])
    if not (1 <= m < n):
        raise ValueError("need 1 <= m < n")
    if rank_and_det(matrix, field)[0] < m:
        raise RankDeficient("matrix rows are linearly dependent")
    out = []
    for cols in combinations(range(n), m):
        sub = [[matrix[i][j] for j in cols] for i in range(m)]
        out.append(det_scalar(sub, field))
    return tuple(out)


def _verify_found(poly, value):
    # soundness check on every Found return
    if value == 0:
        raise InternalContradiction("returned point does not avoid the divisor")


# ---------------------------------------------------------------------------
# affine


def avoid_affine(d, fld):
    """Point of fld^n where the defining polynomial is nonzero.

    Guaranteed mode (q > total degree) follows the variable-by-variable
    induction: make the top coefficient of the highest occurring variable
    nonzero recursively, then scan at most t+1 candidate values.
    """
    if d.kind != AFFINE:
        raise ValueError("expected an affine hypersurface")
    poly = d.poly.map_coefficients(fld)
    (n,) = d.params
    if fld.q > poly.total_degree():
        point, trace = _affine_recurse(poly, fld)
        value = poly.eval(point)
        _verify_found(poly, value)
        return AvoidanceResult(FOUND, GUARANTEED, tuple(point), trace)
    return _affine_fallback(poly, fld, n)


def _affine_recurse(poly, fld):
    n = poly.nvars
    used = poly.variables_used()
    if not used:
        # nonzero constant: the all-zero point works
        return [0] * n, []
    var = max(used)
    phis = poly.decompose_top_variable(var)
    sub_point, sub_trace = _affine_recurse(phis[-1], fld)
    # univariate in the chosen variable
    coeffs = [phi.eval(sub_point) for phi in phis]
    choice = None
    for x in fld.enumerate_elements():
        acc = 0
        for c in reversed(coeffs):
            acc = fld.add(fld.mul(acc, x), c)
        if acc:
            choice = x
            break
    if choice is None:  # q > t guarantees a choice
        raise InternalContradiction("degree bound violated in the affine recursion")
    point = list(sub_point[:var]) + [choice] + list(sub_point[var:])
    trace = [(i if i < var else i + 1, v) for i, v in sub_trace]
    trace.append((var, choice))
    return point, trace


def _affine_fallback(poly, fld, n):
    values = kernels.grid_eval(poly)
    nz = np.nonzero(values)[0]
    if nz.size == 0:
        return AvoidanceResult(NO_POINT, EXHAUSTIVE)
    point = kernels.decode_point(int(nz[0]), fld.q, n)
    return AvoidanceResult(FOUND, EXHAUSTIVE, point)


# ---------------------------------------------------------------------------
# projective


def avoid_projective(d, fld):
    """Point of P^n(fld) off the hypersurface.

    Guaranteed mode (q >= degree) recurses through the coordinate pencil
    x0 = lambda*x1 (plus the member x1 = 0): at most deg members restrict to
    zero, the pencil has q+1, and each surviving member drops the dimension.
    """
    if d.kind != PROJECTIVE:
        raise ValueError("expected a projective hypersurface")
    poly = d.poly.map_coefficients(fld)
    (n,) = d.params
    if fld.q >= poly.total_degree():
        coords, trace = _projective_recurse(poly, fld)
        pt = ProjectivePoint(coords, fld)
        value = poly.eval(pt.coords)
        _verify_found(poly, value)
        return AvoidanceResult(FOUND, GUARANTEED, pt, trace)
    return _projective_fallback(poly, fld, n)


def _p1_points(fld):
    for y in fld.enumerate_elements():
        yield (1, y)
    yield (0, 1)


def _projective_recurse(poly, fld):
    n = poly.nvars - 1
    if n == 1:
        for coords in _p1_points(fld):
            if poly.eval(coords):
                return list(coords), [("point", coords)]
        raise InternalContradiction("degree bound violated in the base case")
    one_var = MultivariatePolynomial  # alias for brevity
    for lam in fld.enumerate_elements():
        # x0 := lam * x1, leaving variables x1..xn reindexed to 0..n-1
        rep = one_var.variable(0, poly.nvars - 1, fld).scale(lam)
        restricted = poly.eliminate(0, rep)
        if restricted.is_zero():
            continue
        sub_coords, sub_trace = _projective_recurse(restricted, fld)
        coords = [fld.mul(lam, sub_coords[0])] + sub_coords
        return coords, [("pencil", lam)] + sub_trace
    # member at infinity: x1 := 0
    rep = one_var.constant(0, poly.nvars - 1, fld)
    restricted = poly.eliminate(1, rep)
    if restricted.is_zero():
        raise InternalContradiction("degree bound violated in the pencil")
    sub_coords, sub_trace = _projective_recurse(restricted, fld)
    coords = [sub_coords[0], 0] + sub_coords[1:]
    return coords, [("pencil", "inf")] + sub_trace


def projective_points(fld, n):
    """All points of P^n(fld) in canonical order (leading 1 index ascending,
    trailing coordinates in grid order)."""
    for lead in range(n + 1):
        rest = n - lead
        for tail in product(fld.enumerate_elements(), repeat=rest):
            yield ProjectivePoint((0,) * lead + (1,) + tail, fld)


def _projective_fallback(poly, fld, n):
    q = fld.q
    for lead in range(n + 1):
        rest = n - lead
        # chart: zeros, then 1, then free coordinates
        reps = [
            MultivariatePolynomial.constant(0, max(rest, 1), fld)
            for _ in range(lead)
        ]
        reps.append(MultivariatePolynomial.constant(1, max(rest, 1), fld))
        for i in range(rest):
            reps.append(MultivariatePolynomial.variable(i, rest, fld))
        chart_poly = poly.substitute(reps)
        if rest == 0:
            value = chart_poly.eval([0] * chart_poly.nvars)
            if value:
                pt = ProjectivePoint((0,) * lead + (1,), fld)
                return AvoidanceResult(FOUND, EXHAUSTIVE, pt)
            continue
        values = kernels.grid_eval(chart_poly)
        nz = np.nonzero(values)[0]
        if nz.size:
            tail = kernels.decode_point(int(nz[0]), q, rest)
            pt = ProjectivePoint((0,) * lead + (1,) + tail, fld)
            return AvoidanceResult(FOUND, EXHAUSTIVE, pt)
    return AvoidanceResult(NO_POINT, EXHAUSTIVE)


# ---------------------------------------------------------------------------
# Grassmannian


def plucker_variable_names(m, n):
    """Mapping x<rank> -> column set, lexicographic order."""
    return [
        ("x%d" % i, cols) for i, cols in enumerate(combinations(range(n), m))
    ]


def _cell_minors(m, n, fld):
    """Minors of [I_m | A] as polynomials in the m*(n-m) cell coordinates."""
    nfree = m * (n - m)
    P = MultivariatePolynomial
    entries = []
    for i in range(m):
        row = []
        for j in range(n):
            if j < m:
                row.append(P.constant(1 if j == i else 0, nfree, fld))
            else:
                row.append(P.variable(i * (n - m) + (j - m), nfree, fld))
        entries.append(row)
    minors = []
    for cols in combinations(range(n), m):
        sub = [[entries[i][j] for j in cols] for i in range(m)]
        minors.append(det_poly(sub, nfree, fld))
    return minors


def grass_cell_pullback(d):
    """Restrict the section to the dense open cell [I_m | A]; the result is a
    polynomial in the m*(n-m) cell coordinates of degree <= m * deg."""
    if d.kind != GRASSMANNIAN:
        raise ValueError("expected a Grassmannian hypersurface")
    m, n = d.params
    fld = d.poly.field
    minors = _cell_minors(m, n, fld)
    pulled = d.poly.substitute(minors)
    if pulled.is_zero():
        raise CellContained("section vanishes identically on the dense cell")
    if pulled.total_degree() > m * d.degree:
        raise InternalContradiction("cell pullback exceeds degree m * deg")
    return pulled


def _cell_matrix(m, n, point, fld):
    rows = []
    for i in range(m):
        row = [1 if j == i else 0 for j in range(m)]
        row += [point[i * (n - m) + (j - m)] for j in range(m, n)]
        rows.append(tuple(row))
    return tuple(rows)


def avoid_grassmannian(d, fld):
    """Point of Grass(m,n)(fld) off the hypersurface.

    Guaranteed mode (q > m*deg) pulls the section back to the dense cell and
    runs the affine search there; the fallback enumerates the whole
    Grassmannian cell by cell so that small-field answers agree with the
    exhaustive oracle.
    """
    if d.kind != GRASSMANNIAN:
        raise ValueError("expected a Grassmannian hypersurface")
    m, n = d.params
    poly = d.poly.map_coefficients(fld)
    dd = Hypersurface(poly, GRASSMANNIAN, (m, n))
    if fld.q > m * dd.degree:
        pulled = grass_cell_pullback(dd)
        cell = Hypersurface(pulled, AFFINE, (m * (n - m),))
        inner = avoid_affine(cell, fld)
        if not (inner.found and inner.mode == GUARANTEED):
            raise InternalContradiction("guaranteed cell search did not find a point")
        matrix = _cell_matrix(m, n, inner.point, fld)
        gp = GrassmannianPoint(matrix, fld)
        _verify_found(poly, poly.eval(gp.plucker))
        return AvoidanceResult(FOUND, GUARANTEED, gp, inner.trace)
    for gp in grassmannian_points(fld, m, n):
        if poly.eval(gp.plucker):
            return AvoidanceResult(FOUND, EXHAUSTIVE, gp)
    return AvoidanceResult(NO_POINT, EXHAUSTIVE)


def grassmannian_points(fld, m, n):
    """All points of Grass(m,n)(fld), one reduced row-echelon representative
    each; cells in lexicographic pivot-column order, free entries in grid
    order."""
    for pivots in combinations(range(n), m):
        free_positions = []
        for i in range(m):
            for j in range(pivots[i] + 1, n):
                if j not in pivots:
                    free_positions.append((i, j))
        for values in product(fld.enumerate_elements(), repeat=len(free_positions)):
            matrix = [[0] * n for _ in range(m)]
            for i, pc in enumerate(pivots):
                matrix[i][pc] = 1
            for (i, j), v in zip(free_positions, values):
                matrix[i][j] = v
            yield GrassmannianPoint(matrix, fld)


# ---------------------------------------------------------------------------
# dispatch and oracle


def avoid(d, fld):
    if d.kind == AFFINE:
        return avoid_affine(d, fld)
    if d.kind == PROJECTIVE:
        return avoid_projective(d, fld)
    return avoid_grassmannian(d, fld)


def ambient_point_count(d, fld):
    q = fld.q
    if d.kind == AFFINE:
        (n,) = d.params
        return q ** n
    if d.kind == PROJECTIVE:
        (n,) = d.params
        return (q ** (n + 1) - 1) // (q - 1)
    m, n = d.params
    count = 0
    for pivots in combinations(range(n), m):
        free = sum(
            1
            for i in range(m)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        )
        count += q ** free
    return count


def exhaustive_oracle(d, fld, limit=DEFAULT_ORACLE_LIMIT):
    """Complete list of avoiding points, canonical order.  Brute force;
    independent of the algorithmic searches above."""
    total = ambient_point_count(d, fld)
    if total > limit:
        raise SpaceTooLarge(f"{total} ambient points exceeds limit {limit}")
    poly = d.poly.map_coefficients(fld) if d.poly.field != fld else d.poly
    out = []
    if d.kind == AFFINE:
        (n,) = d.params
        values = kernels.grid_eval(poly)
        for t in np.nonzero(values)[0]:
            out.append(kernels.decode_point(int(t), fld.q, n))
    elif d.kind == PROJECTIVE:
        (n,) = d.params
        for pt in projective_points(fld, n):
            if poly.eval(pt.coords):
                out.append(pt)
    else:
        m, n = d.params
        for gp in grassmannian_points(fld, m, n):
            if poly.eval(gp.plucker):
                out.append(gp)
    return out
