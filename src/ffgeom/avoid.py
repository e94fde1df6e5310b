"""Finding rational points off a hypersurface in affine, projective, and
Grassmannian ambient spaces over a finite field.

Each search runs in *guaranteed* mode when the field clears the degree
threshold that makes the inductive construction succeed (q > deg for affine,
q >= deg for projective, q > m*deg for the Grassmannian), and otherwise
downgrades to an exhaustive scan with an explicit mode flag, so small-field
boundary cases report NoPointExists instead of erroring.

The exhaustive paths (the fallbacks and the oracle) share one chart
enumerator, :func:`charts`, one blocked scan, :func:`kernels.hits`, and one
decoder of hits into points, :func:`chart_rows`.
"""

import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations
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
from .polynomials import MultivariatePolynomial, UnivariatePolynomial, minors

# The perfbench tracer wraps avoid.det_poly and avoid.det_scalar by name, and
# curvepoint looks det_scalar up here; neither is used in this module.
from .polynomials import det_poly, det_scalar  # noqa: F401

DEFAULT_ORACLE_LIMIT = 10 ** 7
# points an oracle listing may hold: they are kept as int64 arrays, about
# 8 bytes per coordinate, and rendered block by block
MAX_LISTED = 10 ** 5
# (n+1)^2 * terms a guaranteed search of P^n may cost: each of its n pencil
# levels maps every term, and a term holds up to n+1 exponents
MAX_PENCIL_WORK = 10 ** 7

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
    value: int = None  # the section at the point, checked nonzero

    @property
    def found(self):
        return self.outcome == FOUND


def plucker(matrix, field, at=None):
    """m x m minors in lexicographic column-set order: of ``matrix``, as a
    tuple; or, when ``at`` is an int64 array of grid indices of a chart from
    :func:`charts` and ``matrix`` is its :class:`Cell`, of the cell's
    echelon matrices at those indices, as an (N, C(n, m)) int64 array, one
    :func:`kernels.grid_eval` of the cell's minors."""
    if at is not None:
        return kernels.grid_eval(matrix.minors, at)
    m = len(matrix)
    n = len(matrix[0])
    if not (1 <= m < n):
        raise ValueError("need 1 <= m < n")
    ms = minors(matrix, field.add, field.sub, field.mul, field.neg)
    if not ms:
        raise RankDeficient("matrix rows are linearly dependent")
    return tuple(ms.get(cols, 0) for cols in combinations(range(n), m))


def _section_coords(point):
    """The coordinates a section is evaluated at: the Pluecker vector of a
    Grassmannian point, the coordinates of any other point."""
    if isinstance(point, GrassmannianPoint):
        return point.plucker
    if isinstance(point, ProjectivePoint):
        return point.coords
    return tuple(point)


def _verify_found(poly, point, mode, trace=()):
    """The Found result for ``point``, after the soundness check every Found
    return goes through: the section must not vanish there."""
    value = poly.eval(_section_coords(point))
    if value == 0:
        raise InternalContradiction("returned point does not avoid the divisor")
    return AvoidanceResult(FOUND, mode, point, list(trace), value)


# ---------------------------------------------------------------------------
# affine


def avoid_affine(d):
    """Point of k^n, k the field of the defining polynomial, where it is nonzero.

    Guaranteed mode (q > total degree) follows the variable-by-variable
    induction: make the top coefficient of the highest occurring variable
    nonzero recursively, then scan at most t+1 candidate values.
    """
    if d.kind != AFFINE:
        raise ValueError("expected an affine hypersurface")
    poly, fld = d.poly, d.poly.field
    if fld.q > poly.total_degree():
        point, trace = _affine_recurse(poly, fld)
        return _verify_found(poly, tuple(point), GUARANTEED, trace)
    return _fallback(d)


def _affine_recurse(poly, fld):
    """Point and trace of the guaranteed affine induction, in a loop, so the
    depth of the call stack does not grow with the number of variables:
    descend through the top coefficients of the highest occurring variables
    to a nonzero constant, then choose one value per level on the way back."""
    levels = []
    while used := poly.variables_used():
        var = max(used)
        phis = poly.decompose_top_variable(var)
        levels.append((var, phis))
        poly = phis[-1]
    # nonzero constant: the all-zero point works
    point, trace = [0] * poly.nvars, []
    for var, phis in reversed(levels):
        # univariate in the chosen variable
        restricted = UnivariatePolynomial([phi.eval(point) for phi in phis], fld)
        choice = next((x for x in fld.enumerate_elements() if restricted.eval(x)), None)
        if choice is None:  # q > t guarantees a choice
            raise InternalContradiction("degree bound violated in the affine recursion")
        point = point[:var] + [choice] + point[var:]
        trace.append((var, choice))
    return point, trace


# ---------------------------------------------------------------------------
# projective


def avoid_projective(d):
    """Point of P^n(k) off the hypersurface, k the field of its polynomial.

    Guaranteed mode (q >= degree) recurses through the coordinate pencil
    x0 = lambda*x1 (plus the member x1 = 0): at most deg members restrict to
    zero, the pencil has q+1, and each surviving member drops the dimension.
    """
    if d.kind != PROJECTIVE:
        raise ValueError("expected a projective hypersurface")
    poly, fld = d.poly, d.poly.field
    if fld.q >= poly.total_degree():
        if poly.nvars ** 2 * len(poly.terms) > MAX_PENCIL_WORK:
            raise SpaceTooLarge(f"pencil search cost exceeds limit {MAX_PENCIL_WORK}")
        coords, trace = _projective_search(poly, fld)
        return _verify_found(poly, ProjectivePoint(coords, fld), GUARANTEED, trace)
    return _fallback(d)


def _projective_search(poly, fld):
    """Coordinates and trace of the guaranteed projective search: one pencil
    member per level down to P^1, in a loop, so the depth of the call stack
    does not grow with the dimension."""
    members = []
    while poly.nvars > 2:
        poly, member = _pencil_member(poly, fld)
        members.append(member)
    base = next((pt.coords for pt in projective_points(fld, 1) if poly.eval(pt.coords)), None)
    if base is None:
        raise InternalContradiction("degree bound violated in the base case")
    # lifted back level by level, the coordinates grow at the front: collect
    # them reversed, so each level appends, and reverse once
    rev = list(reversed(base))
    for member in reversed(members):
        if member == "inf":
            rev[-1:] = [0, rev[-1]]
        else:
            rev.append(fld.mul(member, rev[-1]))
    return rev[::-1], [("pencil", member) for member in members] + [("point", base)]


def _pencil_member(poly, fld):
    """``(restricted, member)``: the section on the first member of the
    coordinate pencil x0 = lam*x1 (then x1 = 0, member "inf") where it is
    not identically zero, in the member's n-1 variables.

    A member is one pass over the exponent table: x0 := lam*x1 sends
    c*x0^a*x1^b*rest to c*lam^a*x1^(a+b)*rest, and x1 := 0 keeps the terms
    free of x1 with that coordinate dropped; the constructor merges the
    terms that meet and drops those that cancel."""
    P, n = MultivariatePolynomial, poly.nvars - 1
    for lam in fld.enumerate_elements():
        restricted = P(n, fld, (((e[0] + e[1],) + e[2:], fld.mul(c, fld.pow(lam, e[0])))
                                for e, c in poly.terms.items()))
        if not restricted.is_zero():
            return restricted, lam
    restricted = P(n, fld, ((e[:1] + e[2:], c) for e, c in poly.terms.items() if not e[1]))
    if restricted.is_zero():
        raise InternalContradiction("degree bound violated in the pencil")
    return restricted, "inf"


def projective_points(fld, n):
    """All points of P^n(fld) in canonical order (leading 1 index ascending,
    trailing coordinates in grid order), one at a time: the per-point
    reference for :func:`charts`.  The tails are decoded from grid indices
    because ``itertools.product`` would first copy all q elements."""
    q = fld.q
    for lead in range(n + 1):
        rest = n - lead
        for t in range(q ** rest):
            yield ProjectivePoint((0,) * lead + (1,) + kernels.decode_point(t, q, rest), fld)


# ---------------------------------------------------------------------------
# Grassmannian


def plucker_variable_names(m, n):
    """Mapping x<rank> -> column set, lexicographic order."""
    return [
        ("x%d" % i, cols) for i, cols in enumerate(combinations(range(n), m))
    ]


def _cells(m, n):
    """Schubert cells of Grass(m, n) in lexicographic pivot order, each as
    (pivot columns, free entries (row, column) in grid order)."""
    for pivots in combinations(range(n), m):
        free = tuple(
            (i, j)
            for i in range(m)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        )
        yield pivots, free


def _echelon(pivots, free, n, values, zero=0, one=1):
    """The cell's reduced row-echelon matrix with ``values`` in its free
    entries."""
    rows = [[zero] * n for _ in pivots]
    for i, j in enumerate(pivots):
        rows[i][j] = one
    for (i, j), v in zip(free, values):
        rows[i][j] = v
    return rows


@dataclass(frozen=True)
class Cell:
    """A Schubert cell of Grass(m, n) over ``field`` as a chart: its pivot
    columns and its free entries (row, column) in grid order."""

    n: int
    pivots: tuple
    free: tuple
    field: object

    @cached_property
    def minors(self):
        """The maximal minors of the cell's echelon matrix in lexicographic
        column-set order, as polynomials in the free entries, expanded from
        the symbolic matrix on first use."""
        k, fld = len(self.free), self.field
        P = MultivariatePolynomial
        variables = [P.variable(v, k, fld) for v in range(k)]
        zero = P.constant(0, k, fld)
        rows = _echelon(self.pivots, self.free, self.n, variables, zero, P.constant(1, k, fld))
        ms = minors(rows, operator.add, operator.sub, operator.mul, operator.neg)
        return tuple(ms.get(cols, zero) for cols in combinations(range(self.n), len(self.pivots)))

    def matrices(self, values):
        """The echelon matrices with the rows of the (N, k) int64 array
        ``values`` in the free entries: an (N, m, n) int64 array."""
        m = len(self.pivots)
        rows = np.zeros((len(values), m, self.n), dtype=np.int64)
        rows[:, range(m), self.pivots] = 1
        if self.free:
            i, j = zip(*self.free)
            rows[:, i, j] = values
        return rows


def _pullback(poly, cell):
    """The section ``poly`` on ``cell``, a polynomial in its free entries.

    With one row (every cell of P^n, and of Grass(1, n)) the minors are the
    row: 0 before the pivot i, 1 at it, the free entries after it.  So the
    pullback is one pass over the exponent table: the terms with a positive
    exponent in x_0..x_{i-1} drop out, x_i's exponent is dropped, and the
    rest are the exponents of the free entries.  More rows substitute the
    minors.
    """
    if len(cell.pivots) > 1:
        return poly.substitute(cell.minors)
    (i,) = cell.pivots
    return MultivariatePolynomial(len(cell.free), poly.field, (
        (e[i + 1:], c) for e, c in poly.terms.items() if not any(e[:i])))


def grass_cell_pullback(d):
    """Restrict the section to the dense open cell [I_m | A]; the result is a
    polynomial in the m*(n-m) cell coordinates of degree <= m * deg."""
    if d.kind != GRASSMANNIAN:
        raise ValueError("expected a Grassmannian hypersurface")
    m, n = d.params
    pivots, free = next(_cells(m, n))
    pulled = _pullback(d.poly, Cell(n, pivots, free, d.poly.field))
    if pulled.is_zero():
        raise CellContained("section vanishes identically on the dense cell")
    if pulled.total_degree() > m * d.degree:
        raise InternalContradiction("cell pullback exceeds degree m * deg")
    return pulled


def avoid_grassmannian(d):
    """Point of Grass(m,n)(k) off the hypersurface, k the field of its polynomial.

    Guaranteed mode (q > m*deg) pulls the section back to the dense cell and
    runs the affine search there; the fallback enumerates the whole
    Grassmannian cell by cell so that small-field answers agree with the
    exhaustive oracle.
    """
    if d.kind != GRASSMANNIAN:
        raise ValueError("expected a Grassmannian hypersurface")
    m, n = d.params
    if d.poly.field.q > m * d.degree:
        inner = avoid_affine(Hypersurface(grass_cell_pullback(d), AFFINE, (m * (n - m),)))
        if not (inner.found and inner.mode == GUARANTEED):
            raise InternalContradiction("guaranteed cell search did not find a point")
        pivots, free = next(_cells(m, n))
        gp = GrassmannianPoint(_echelon(pivots, free, n, inner.point), d.poly.field)
        return _verify_found(d.poly, gp, GUARANTEED, inner.trace)
    return _fallback(d)


# ---------------------------------------------------------------------------
# dispatch and oracle


def avoid(d):
    if d.kind == AFFINE:
        return avoid_affine(d)
    if d.kind == PROJECTIVE:
        return avoid_projective(d)
    return avoid_grassmannian(d)


def _grass_shape(d):
    """(m, n) with the ambient space of ``d`` as Grass(m, n): P^n is
    Grass(1, n+1)."""
    if d.kind == PROJECTIVE:
        return 1, d.params[0] + 1
    return d.params


def ambient_point_count(d):
    q = d.poly.field.q
    if d.kind == AFFINE:
        return q ** d.params[0]
    return sum(q ** len(free) for _, free in _cells(*_grass_shape(d)))


def charts(d):
    """Charts covering the ambient space of ``d`` over the field of its
    polynomial, as pairs (section on the chart, :class:`Cell` of the chart,
    or None on affine space).

    Affine space is one chart.  Each Schubert cell of Grass(m, n), with P^n
    as Grass(1, n+1), gives the section pulled back to the cell by
    :func:`_pullback`.  Cells come in lexicographic pivot order with free
    entries in grid order (the order of :func:`projective_points`, and for
    Grass(m, n) the canonical order of reduced row-echelon matrices), so
    scanning the charts in turn lists the points in canonical order.
    """
    if d.kind == AFFINE:
        yield d.poly, None
        return
    m, n = _grass_shape(d)
    for pivots, free in _cells(m, n):
        cell = Cell(n, pivots, free, d.poly.field)
        yield _pullback(d.poly, cell), cell


def chart_rows(chart, cell, found):
    """The points at the grid indices ``found`` of a chart from
    :func:`charts`, decoded at once into an int64 array: coordinates
    (N, n) on affine space, where ``cell`` is None, and echelon matrices
    (N, m, n) on a Schubert cell; on P^n, Grass(1, n+1), the single row of
    a matrix is the point."""
    coords = kernels.decode(found, chart.field.q, chart.nvars)
    return coords if cell is None else cell.matrices(coords)


def _point(kind, row, fld):
    """The point object of one row of :func:`chart_rows`, as lists."""
    if kind == AFFINE:
        return tuple(row)
    if kind == PROJECTIVE:
        return ProjectivePoint(row[0], fld)
    return GrassmannianPoint(row, fld)


def _check_budget(d, limit):
    # the count itself can pass the digits that str() converts
    if ambient_point_count(d) > limit:
        raise SpaceTooLarge(f"ambient point count exceeds limit {limit}")


def _fallback(d):
    """First avoiding point in canonical order, or NoPointExists; bounded by
    the oracle's default budget."""
    _check_budget(d, DEFAULT_ORACLE_LIMIT)
    for chart, cell in charts(d):
        found = next(kernels.hits(chart), None)
        if found is not None:
            row = chart_rows(chart, cell, found[:1])[0].tolist()
            return _verify_found(d.poly, _point(d.kind, row, d.poly.field), EXHAUSTIVE)
    return AvoidanceResult(NO_POINT, EXHAUSTIVE)


def exhaustive_oracle(d, limit=DEFAULT_ORACLE_LIMIT, max_listed=None):
    """``(count, blocks)``: the number of avoiding points, and the first
    ``max_listed`` of them (all of them when None) in canonical order as
    int64 arrays, one block per :func:`kernels.hits` block that lists any.
    A block is ``(coordinates,)``, of shape (N, n), on affine space and
    P^n, and ``(matrices, pluckers)``, of shapes (N, m, n) and
    (N, C(n, m)), on a Grassmannian.  Brute force over every chart, independent of the
    guaranteed searches above; hits are counted block by block, and only
    listed points are decoded.  ``limit`` may only lower the default
    budget: a larger one raises SpaceTooLarge before any count."""
    if limit > DEFAULT_ORACLE_LIMIT:
        raise SpaceTooLarge(f"oracle limit is more than {DEFAULT_ORACLE_LIMIT} points")
    _check_budget(d, limit)
    count, listed, blocks = 0, 0, []
    for chart, cell in charts(d):
        for found in kernels.hits(chart):
            count += len(found)
            if max_listed is not None:
                found = found[:max_listed - listed]
            if not len(found):
                continue
            listed += len(found)
            rows = chart_rows(chart, cell, found)
            if d.kind == GRASSMANNIAN:
                blocks.append((rows, plucker(cell, d.poly.field, found)))
            else:
                blocks.append((rows if cell is None else rows[:, 0],))
    return count, blocks
