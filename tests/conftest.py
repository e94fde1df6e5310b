import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import strategies as st

from ffgeom.fields import make_field
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


@pytest.fixture
def rng():
    return random.Random(20240817)
