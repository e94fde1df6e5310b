import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ffgeom.errors import BothZero, ParseError, ZeroPolynomial
from ffgeom.fields import make_field
from ffgeom.polynomials import (
    MultivariatePolynomial,
    UnivariatePolynomial,
    det_scalar,
    find_root_in_tower,
    interpolate,
    parse_polynomial,
    poly_gcd,
    rank_and_det,
    sylvester_resultant,
    to_univariate,
)

from conftest import field_for, random_poly

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


class TestParser:
    def test_simple(self):
        p = parse_polynomial("2*x0^3*x1 + x2 + 1", F5)
        assert p.nvars == 3
        assert p.terms == {(3, 1, 0): 2, (0, 0, 1): 1, (0, 0, 0): 1}

    def test_bracket_coefficients(self):
        p = parse_polynomial("[0,1]*x0 + [1,1]", F4)
        assert p.terms == {(1,): 2, (0,): 3}

    def test_products_and_parentheses(self):
        p = parse_polynomial("x0*x1*(x0+x1)", F4)
        q = parse_polynomial("x0^2*x1 + x0*x1^2", F4)
        assert p == q

    def test_minus(self):
        p = parse_polynomial("x0 - 2", F5)
        assert p.terms == {(1,): 1, (0,): 3}

    def test_whitespace_insignificant(self):
        assert parse_polynomial(" x0 + 1 ", F3) == parse_polynomial("x0+1", F3)

    def test_roundtrip_through_format(self, rng):
        for q in (3, 4, 5, 9):
            fld = field_for(q)
            for _ in range(50):
                p = random_poly(rng, fld, 3, 4)
                assert parse_polynomial(p.format(), fld, 3) == p

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_polynomial("x0 + + *", F3)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_polynomial("x0 )", F3)


class TestEval:
    def test_example_f4(self):
        p = parse_polynomial("x0^2*x1 + x0*x1^2", F4)
        g = F4.from_coords([0, 1])
        assert p.eval([1, g]) == 1

    def test_zero_point_gives_constant_term(self):
        p = parse_polynomial("x0^2 + 3*x1 + 2", F5)
        assert p.eval([0, 0]) == 2

    def test_zero_polynomial(self):
        z = MultivariatePolynomial(2, F5)
        assert z.eval([3, 4]) == 0


class TestDecompose:
    def test_example(self):
        p = parse_polynomial("x0^2*x1 + x0*x1^2", F4)
        phis = p.decompose_top_variable(1)
        assert [phi.format() for phi in phis] == ["0", "x0^2", "x0"]

    def test_constant(self):
        p = MultivariatePolynomial.constant(2, 2, F3)
        assert len(p.decompose_top_variable(0)) == 1

    def test_single_monomial(self):
        p = parse_polynomial("x1^3", F3, 2)
        phis = p.decompose_top_variable(1)
        assert [phi.format() for phi in phis] == ["0", "0", "0", "1"]

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            MultivariatePolynomial(2, F3).decompose_top_variable(0)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_reassembly_identity(self, q):
        rng = random.Random(100 + q)
        fld = field_for(q)
        for _ in range(500):
            nvars = rng.randint(1, 4)
            p = random_poly(rng, fld, nvars, 5)
            var = rng.randrange(nvars)
            phis = p.decompose_top_variable(var)
            x = MultivariatePolynomial.variable(var, nvars, fld)
            acc = MultivariatePolynomial(nvars, fld)
            for i, phi in enumerate(phis):
                lifted = MultivariatePolynomial(
                    nvars,
                    fld,
                    {e[:var] + (0,) + e[var:]: c for e, c in phi.terms.items()},
                )
                acc = acc + lifted * x ** i
            assert acc == p
            assert not phis[-1].is_zero()


class TestResultant:
    def test_example_f3(self):
        f = UnivariatePolynomial([1, 0, 1], F3)  # x^2 + 1
        g = UnivariatePolynomial([2, 1], F3)  # x - 1
        assert sylvester_resultant(f, g) == 2

    def test_common_root(self):
        # both divisible by (x - 1)
        f = UnivariatePolynomial([4, 0, 1], F5)  # x^2 - 1
        g = UnivariatePolynomial([4, 1], F5)  # x - 1
        assert sylvester_resultant(f, g) == 0

    def test_unit_constant(self):
        f = UnivariatePolynomial([2, 3, 1], F5)
        one = UnivariatePolynomial([1], F5)
        assert sylvester_resultant(f, one) == 1

    def test_both_zero(self):
        z = UnivariatePolynomial([], F3)
        with pytest.raises(BothZero):
            sylvester_resultant(z, z)

    def test_against_gcd_oracle(self):
        rng = random.Random(4242)
        fields = [field_for(q) for q in (2, 3, 4, 5, 7, 8, 9)]
        for _ in range(500):
            fld = rng.choice(fields)
            def rand_poly():
                deg = rng.randint(1, 6)
                coeffs = [rng.randrange(fld.q) for _ in range(deg)]
                coeffs.append(rng.randrange(1, fld.q))
                return UnivariatePolynomial(coeffs, fld)
            f, g = rand_poly(), rand_poly()
            res = sylvester_resultant(f, g)
            gcd = poly_gcd(f, g)
            assert (res == 0) == (gcd.degree > 0)

    def test_degree_seven_pairs_against_gcd_oracle(self):
        # 14 x 14 Sylvester matrices; half the pairs share a factor
        rng = random.Random(77)
        for q in (2, 7, 9, 11):
            fld = field_for(q)
            for shared in (False, True):
                for _ in range(3):
                    if shared:
                        h = _random_univariate(rng, fld, rng.randint(1, 3))
                        f = _times(h, _random_univariate(rng, fld, 7 - h.degree))
                        g = _times(h, _random_univariate(rng, fld, 7 - h.degree))
                    else:
                        f = _random_univariate(rng, fld, 7)
                        g = _random_univariate(rng, fld, 7)
                    assert f.degree == g.degree == 7
                    res = sylvester_resultant(f, g)
                    assert (res == 0) == (poly_gcd(f, g).degree > 0)
                    if shared:
                        assert res == 0


def _random_univariate(rng, fld, deg):
    coeffs = [rng.randrange(fld.q) for _ in range(deg)]
    return UnivariatePolynomial(coeffs + [rng.randrange(1, fld.q)], fld)


def _times(f, g):
    fld = f.field
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = fld.add(out[i + j], fld.mul(a, b))
    return UnivariatePolynomial(out, fld)


def _cofactor_det(mat, fld):
    """Reference determinant: expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    acc = 0
    for j, a in enumerate(mat[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            term = fld.mul(a, _cofactor_det(minor, fld))
            acc = fld.add(acc, term) if j % 2 == 0 else fld.sub(acc, term)
    return acc


def _cofactor_rank(mat, fld):
    """Reference rank: the size of the largest nonzero minor."""
    nrows, ncols = len(mat), len(mat[0])
    for r in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), r):
            for cs in combinations(range(ncols), r):
                if _cofactor_det([[mat[i][j] for j in cs] for i in rs], fld):
                    return r
    return 0


ELIMINATION_FIELDS = [make_field(2), make_field(2, 2), make_field(7), make_field(3, 2)]


@st.composite
def _matrices(draw, square):
    """(field, matrix) with at most 6 rows and columns; about half the time
    one row is overwritten with a combination of the others, which makes a
    square matrix singular."""
    fld = draw(st.sampled_from(ELIMINATION_FIELDS))
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    element = st.integers(0, fld.q - 1)
    row = st.lists(element, min_size=ncols, max_size=ncols)
    rows = [draw(row) for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        target = draw(st.integers(0, nrows - 1))
        combo = [0] * ncols
        for i, row in enumerate(rows):
            if i != target:
                c = draw(element)
                combo = [fld.add(x, fld.mul(c, y)) for x, y in zip(combo, row)]
        rows[target] = combo
    return fld, rows


class TestElimination:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_matrices(square=True))
    def test_det_matches_cofactor_expansion(self, case):
        fld, mat = case
        assert det_scalar(mat, fld) == _cofactor_det(mat, fld)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_matrices(square=False))
    def test_rank_matches_largest_nonzero_minor(self, case):
        fld, mat = case
        assert rank_and_det(mat, fld)[0] == _cofactor_rank(mat, fld)

    def test_singular_and_swapped(self):
        F7 = make_field(7)
        assert rank_and_det([[1, 2], [2, 4]], F7) == (1, 0)
        # a zero leading entry forces one row swap, which flips the sign
        assert rank_and_det([[0, 1], [1, 0]], F7) == (2, F7.neg(1))
        assert rank_and_det([[0, 0, 3], [0, 0, 1]], F7) == (1, 0)
        assert rank_and_det([[0, 0], [0, 0]], F7) == (0, 0)

    def test_input_unchanged(self):
        mat = [[0, 1, 2], [3, 4, 5], [6, 0, 1]]
        before = [list(r) for r in mat]
        det_scalar(mat, make_field(7))
        assert mat == before


class TestInterpolate:
    def test_recovers_polynomial(self):
        rng = random.Random(5)
        for q in (2, 4, 7, 9, 11):
            fld = field_for(q)
            for _ in range(20):
                npts = rng.randint(1, q)
                f = UnivariatePolynomial(
                    [rng.randrange(q) for _ in range(npts)], fld
                )
                xs = rng.sample(range(q), npts)
                g = interpolate(xs, [f.eval(x) for x in xs], fld)
                assert g == f

    def test_distinct_abscissae_required(self):
        with pytest.raises(ValueError):
            interpolate([1, 1], [0, 2], F5)


class TestRootTower:
    def test_needs_quadratic_extension(self):
        f = UnivariatePolynomial([1, 0, 1], F3)  # x^2 + 1
        root, ext, j = find_root_in_tower(f, 2)
        assert j == 2 and ext.q == 9
        assert f.map_coefficients(ext).eval(root) == 0

    def test_linear(self):
        f = UnivariatePolynomial([F5.neg(1), 1], F5)
        root, ext, j = find_root_in_tower(f, 3)
        assert (root, j) == (1, 1) and ext is F5

    def test_root_already_present(self):
        # x^2 + x + 1 over F_4 has the generator as a root
        f = UnivariatePolynomial([1, 1, 1], F4)
        root, ext, j = find_root_in_tower(f, 2)
        assert j == 1 and root == F4.from_coords([0, 1])

    def test_no_root_within_bound(self):
        f = UnivariatePolynomial([1, 0, 1], F3)
        assert find_root_in_tower(f, 1) is None

    def test_minimality_reverified(self):
        rng = random.Random(7)
        for _ in range(50):
            fld = field_for(rng.choice([2, 3, 5]))
            deg = rng.randint(2, 4)
            coeffs = [rng.randrange(fld.q) for _ in range(deg)] + [1]
            f = UnivariatePolynomial(coeffs, fld)
            out = find_root_in_tower(f, 4)
            if out is None:
                continue
            _, _, j = out
            for i in range(1, j):
                smaller = make_field(fld.p, fld.k * i)
                fe = f.map_coefficients(smaller)
                assert all(fe.eval(x) != 0 for x in smaller.enumerate_elements())


class TestSubstitution:
    def test_eliminate_shifts_indices(self):
        p = parse_polynomial("x0*x1 + x2^2", F3)
        lam = MultivariatePolynomial.variable(0, 2, F3)  # x0 := x1 (new x0)
        q = p.eliminate(0, lam)
        assert q == parse_polynomial("x0^2 + x1^2", F3, 2)

    def test_to_univariate(self):
        p = parse_polynomial("x0^2 + 2", F3)
        u = to_univariate(p)
        assert u.coeffs == [2, 0, 1]
