import random
from itertools import combinations, combinations_with_replacement, islice, product

import numpy as np
import pytest
from hypothesis import strategies as st

from ffgeom import kernels
from ffgeom.avoid import (
    AFFINE,
    PROJECTIVE,
    GrassmannianPoint,
    Hypersurface,
    ProjectivePoint,
    chart_rows,
    charts,
    exhaustive_oracle,
    projective_points,
)
from ffgeom.fields import make_field, poly_divmod
from ffgeom.polynomials import MultivariatePolynomial

PRIME_POWERS_64 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    37, 41, 43, 47, 49, 53, 59, 61, 64,
]


def field_for(q):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return make_field(p, k)
    raise ValueError(q)


def first_irreducible_reference(p, k):
    """The first irreducible monic degree-k polynomial over F_p, constant
    digit fastest, by trial division of one candidate at a time by every
    monic divisor of degree 1..k/2: the scalar scan that the batched
    modulus search must match."""
    fp = make_field(p)

    def digits(m, n):
        return [m // p ** i % p for i in range(n)]

    divisors = [digits(m, d) + [1] for d in range(1, k // 2 + 1) for m in range(p ** d)]
    for m in range(p ** k):
        coeffs = digits(m, k) + [1]
        if all(any(poly_divmod(coeffs, den, fp)[1]) for den in divisors):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial")


def random_poly(rng, fld, nvars, max_deg, nterms=None):
    """Random nonzero sparse polynomial of total degree <= max_deg."""
    while True:
        terms = {}
        for _ in range(nterms or rng.randint(1, 5)):
            deg = rng.randint(0, max_deg)
            exps = [0] * nvars
            for _ in range(deg):
                exps[rng.randrange(nvars)] += 1
            c = rng.randrange(1, fld.q)
            terms[tuple(exps)] = c
        poly = MultivariatePolynomial(nvars, fld, terms)
        if not poly.is_zero():
            return poly


def random_homogeneous_poly(rng, fld, nvars, deg, nterms=None):
    """Random nonzero homogeneous polynomial of degree exactly deg."""
    monomials = list(combinations_with_replacement(range(nvars), deg))
    while True:
        terms = {}
        for _ in range(nterms or rng.randint(1, 5)):
            combo = rng.choice(monomials)
            exps = [0] * nvars
            for i in combo:
                exps[i] += 1
            terms[tuple(exps)] = rng.randrange(1, fld.q)
        poly = MultivariatePolynomial(nvars, fld, terms)
        if not poly.is_zero():
            return poly


@st.composite
def grid_polys(draw, fields=(2, 3, 4, 5, 7, 8, 9), max_nvars=3):
    """A polynomial over F_q in at most ``max_nvars`` variables with
    exponents up to 3q and some past 2^63.  Besides free terms it may hold
    pairs c*x^a - c*x^b that cancel on the grid: a and b differ in one
    exponent, by a multiple of q - 1, and that exponent is nonzero.  So it
    may vanish on the whole grid, or be the zero polynomial."""
    q = draw(st.sampled_from(fields))
    fld = field_for(q)
    nvars = draw(st.integers(1, max_nvars))
    exps = st.lists(st.integers(0, 3 * q), min_size=nvars, max_size=nvars)
    coeff = st.integers(1, q - 1)
    var = st.integers(0, nvars - 1)
    huge = st.integers(2 ** 63, 2 ** 65)
    terms = draw(st.lists(st.tuples(exps, coeff), max_size=4))
    if terms and draw(st.booleans()):
        terms[0][0][draw(var)] = draw(huge)
    for _ in range(draw(st.integers(0, 2))):
        low, c, i = draw(exps), draw(coeff), draw(var)
        low[i] = max(low[i], 1)
        high = list(low)
        high[i] += (q - 1) * draw(st.one_of(st.integers(1, 3), huge))
        terms += [(low, c), (high, fld.neg(c))]
    return MultivariatePolynomial(nvars, fld, terms)


def grassmannian_points(fld, m, n):
    """All points of Grass(m,n)(fld), one reduced row-echelon representative
    each; cells in lexicographic pivot-column order, free entries in grid
    order.  Built one at a time: the per-point reference for the charts."""
    for pivots in combinations(range(n), m):
        free_positions = [
            (i, j) for i in range(m) for j in range(pivots[i] + 1, n) if j not in pivots
        ]
        for values in product(fld.enumerate_elements(), repeat=len(free_positions)):
            matrix = [[0] * n for _ in range(m)]
            for i, pc in enumerate(pivots):
                matrix[i][pc] = 1
            for (i, j), v in zip(free_positions, values):
                matrix[i][j] = v
            yield GrassmannianPoint(matrix, fld)


def per_point_oracle(d, fld):
    """The oracle's listing built one point at a time from the reference
    enumerations, independent of the charts and the kernel."""
    poly = d.poly.map_coefficients(fld)
    if d.kind == AFFINE:
        (n,) = d.params
        grid = product(fld.enumerate_elements(), repeat=n)
        return [pt for pt in grid if poly.eval(pt)]
    if d.kind == PROJECTIVE:
        (n,) = d.params
        return [pt for pt in projective_points(fld, n) if poly.eval(pt.coords)]
    m, n = d.params
    return [gp for gp in grassmannian_points(fld, m, n) if poly.eval(gp.plucker)]


def listed_points(kind, blocks, fld):
    """The points of an oracle listing's int64 blocks as the objects the
    per-point references build.  A projective row must already be
    normalized, and a Pluecker vector must be ``plucker`` of its matrix."""
    points = []
    for block in blocks:
        assert all(array.dtype == np.int64 for array in block)
        rows = [array.tolist() for array in block]
        if kind == AFFINE:
            points += [tuple(row) for row in rows[0]]
        elif kind == PROJECTIVE:
            for row in rows[0]:
                pt = ProjectivePoint(row, fld)
                assert pt.coords == tuple(row)
                points.append(pt)
        else:
            for matrix, vector in zip(*rows):
                gp = GrassmannianPoint(matrix, fld)
                assert gp.plucker == tuple(vector)
                points.append(gp)
    return points


def oracle_points(d, fld, **kwargs):
    """``exhaustive_oracle`` with its listing as point objects."""
    count, blocks = exhaustive_oracle(d, **kwargs)
    return count, listed_points(d.kind, blocks, fld)


def grid_eval_python(poly, stop):
    """``poly`` at grid indices 0 .. stop - 1 (canonical order), one
    :meth:`MultivariatePolynomial.eval` per point: the per-point reference
    for :func:`kernels.grid_eval`."""
    q, n = poly.field.q, poly.nvars
    return np.array([poly.eval(kernels.decode_point(t, q, n)) for t in range(stop)],
                    dtype=np.int64)


def grid_zeros(poly):
    """Grid indices (canonical order) where ``poly`` vanishes, as one
    ascending int64 array: the complement of :func:`kernels.hits`, filled in
    between its hits block by block."""
    zeros, start = [], 0
    for found in kernels.hits(poly):
        stop = int(found[-1]) + 1
        zeros.append(np.setdiff1d(np.arange(start, stop, dtype=np.int64), found,
                                  assume_unique=True))
        start = stop
    zeros.append(np.arange(start, poly.field.q ** poly.nvars, dtype=np.int64))
    return np.concatenate(zeros)


def enumerate_curve_points(curve, fld):
    """All points of the curve over ``fld``, canonical order (brute force):
    the zeros of the curve's form on each chart of P^2."""
    plane = Hypersurface(curve.poly.map_coefficients(fld), PROJECTIVE, (2,))
    return [
        ProjectivePoint(rows[0], fld)
        for chart, cell in charts(plane)
        for rows in chart_rows(chart, cell, grid_zeros(chart)).tolist()
    ]


def first_members_vanish(fld, nvars, count=None):
    """The product of x0 - lam*x1 over the first ``count`` elements lam of
    F_q (all of them when None): zero on those members x0 = lam*x1 of the
    pencil, nonzero on the others and on x1 = 0."""
    P = MultivariatePolynomial
    x0, x1 = P.variable(0, nvars, fld), P.variable(1, nvars, fld)
    poly = P.constant(1, nvars, fld)
    for lam in islice(fld.enumerate_elements(), count):
        poly = poly * (x0 - P.constant(lam, nvars, fld) * x1)
    return poly


def pencil_member_reference(poly, fld):
    """``(restricted, member)`` through the general substitution: x0 := lam*y0
    for lam in element order, then x1 := 0, the other variables becoming
    y0, y1, ... in order; None when every member vanishes."""
    P, n = MultivariatePolynomial, poly.nvars - 1
    y = [P.variable(i, n, fld) for i in range(n)]
    for lam in fld.enumerate_elements():
        restricted = poly.substitute([P.constant(lam, n, fld) * y[0]] + y)
        if not restricted.is_zero():
            return restricted, lam
    restricted = poly.substitute([y[0], P.constant(0, n, fld)] + y[1:])
    return None if restricted.is_zero() else (restricted, "inf")


@pytest.fixture
def rng():
    return random.Random(20240817)
