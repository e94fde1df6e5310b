import random
import time
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffgeom import kernels, polynomials
from ffgeom.avoid import _pencil_member
from ffgeom.errors import (
    BothZero,
    InternalContradiction,
    ParseError,
    SpaceTooLarge,
    ZeroPolynomial,
)
from ffgeom.fields import FiniteField, make_field
from ffgeom.polynomials import (
    MAX_NESTING,
    MAX_TERMS,
    MAX_VARS,
    MultivariatePolynomial,
    UnivariatePolynomial,
    _power_mod,
    _power_terms,
    det_poly,
    det_scalar,
    find_root_in_tower,
    minors,
    parse_polynomial,
    poly_gcd,
    rank_and_det,
    resultant,
    sylvester_matrix,
    sylvester_resultant,
    to_univariate,
)

from conftest import (
    PRIME_POWERS_64,
    field_for,
    first_members_vanish,
    grid_polys,
    pencil_member_reference,
    random_poly,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


_TREE_VARS = 3
# total degree a drawn power or product may reach, so that every expansion
# stays a few hundred terms at most
_TREE_DEGREE = 8


@st.composite
def _expressions(draw, depth=4):
    """(text, polynomial) for an expression tree of at most ``depth`` levels
    over F_5, F_7, F_4 or F_9, the polynomial computed with the ring
    operations.  A node is (text, polynomial, is_atom, is_sum): an atom
    needs no parentheses as the base of a power, and a sum needs them as a
    factor or on the right of a sum.  A '-' that leads a sum or follows an
    operator may negate the term or the integer after it; both readings
    give the same polynomial."""
    fld = field_for(draw(st.sampled_from((5, 7, 4, 9))))

    def const(c):
        return MultivariatePolynomial.constant(c, _TREE_VARS, fld)

    def degree(node):
        return max(node[1].total_degree(), 0)

    def leaf():
        kind = draw(st.integers(0, 2))
        if kind == 0:
            n = draw(st.integers(-12, 12))
            return str(n), const(n % fld.p), n >= 0, False
        if kind == 1:
            i = draw(st.integers(0, _TREE_VARS - 1))
            return f"x{i}", MultivariatePolynomial.variable(i, _TREE_VARS, fld), True, False
        cs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=fld.k))
        text = "[" + ",".join(map(str, cs)) + "]"
        return text, const(fld.from_coords([c % fld.p for c in cs])), True, False

    def factor(node):
        return f"({node[0]})" if node[3] else node[0]

    def tree(depth):
        kind = draw(st.integers(0, 4)) if depth else 0
        if kind == 0:
            return leaf()
        a = tree(depth - 1)
        if kind == 1:
            return f"({a[0]})", a[1], True, False
        if kind == 2:
            e = draw(st.integers(0, min(3, _TREE_DEGREE // max(degree(a), 1))))
            base = a[0] if a[2] else f"({a[0]})"
            return f"{base}^{e}", a[1] ** e, False, False
        b = tree(depth - 1)
        if kind == 3 and degree(a) + degree(b) <= _TREE_DEGREE:
            return f"{factor(a)}*{factor(b)}", a[1] * b[1], False, False
        if draw(st.booleans()):
            return f"{a[0]} - {factor(b)}", a[1] - b[1], False, True
        return f"{a[0]} + {factor(b)}", a[1] + b[1], False, True

    text, poly, _, _ = tree(depth)
    return text, poly


# an integer past the 4300 digits int() converts by default
_NINES = "9" * 5000

_FUZZ_TOKENS = [*"x0123456789+-*^()[],", " ", "\t", "²", "٣", "x1", "x2",
                "99999999999999999999"]


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

    def test_nesting_at_limit_parses(self):
        n = MAX_NESTING
        assert parse_polynomial("(" * n + "x0+1" + ")" * n, F3) == parse_polynomial("x0+1", F3)
        # sibling groups do not add up: only the depth counts
        assert parse_polynomial("(x0)*" * (2 * n) + "1", F3) == parse_polynomial("x0^200", F3)

    def test_nesting_past_limit_raises(self):
        n = MAX_NESTING + 1
        with pytest.raises(ParseError) as info:
            parse_polynomial("(" * n + "x0" + ")" * n, F3)
        assert info.value.position == MAX_NESTING

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid_polys())
    def test_format_round_trips(self, poly):
        assert parse_polynomial(poly.format(), poly.field, poly.nvars) == poly

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_expressions())
    def test_matches_ring_operations(self, case):
        text, expected = case
        assert parse_polynomial(text, expected.field, expected.nvars) == expected

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=14), st.sampled_from([5, 4, 9]))
    def test_fuzzed_text_parses_or_raises_parse_error(self, tokens, q):
        # '²' is a digit to str.isdigit but not to int(); '٣' is a decimal 3
        text = "".join(tokens)
        try:
            parse_polynomial(text, field_for(q))
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)
        except SpaceTooLarge:
            pass


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


class TestPower:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([2, 3, 4, 7, 9]), st.integers(1, 3), st.integers(0, 7),
           st.integers(0, 2 ** 32))
    def test_power_is_repeated_product(self, q, nvars, e, seed):
        fld = field_for(q)
        poly = random_poly(random.Random(seed), fld, nvars, 3, nterms=3)
        expected = MultivariatePolynomial.constant(1, nvars, fld)
        for _ in range(e):
            expected = expected * poly
        assert poly ** e == expected


def _grid_values(poly):
    q, n = poly.field.q, poly.nvars
    return [poly.eval(kernels.decode_point(t, q, n)) for t in range(q ** n)]


class TestReduced:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid_polys())
    def test_same_values_and_exponents_below_q(self, poly):
        red = poly.reduced()
        assert (red.nvars, red.field) == (poly.nvars, poly.field)
        assert all(e < poly.field.q for exps in red.terms for e in exps)
        assert _grid_values(red) == _grid_values(poly)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid_polys())
    def test_zero_exactly_when_zero_on_the_grid(self, poly):
        assert poly.reduced().is_zero() == (not any(_grid_values(poly)))

    @pytest.mark.parametrize("q,e,expected", [
        (2, 2, 1), (3, 3, 1), (3, 2, 2), (4, 4, 1), (4, 3, 3), (5, 4, 4), (5, 5, 1),
        (7, 0, 0), (7, 13, 1), (9, 8, 8), (9, 17, 1), (7, 3074457345618258603, 3),
    ])
    def test_exponent_map(self, q, e, expected):
        # x^(q-1) is 0 at 0 and 1 elsewhere, so it must not become x^0
        poly = MultivariatePolynomial(1, field_for(q), {(e,): 1})
        assert list(poly.reduced().terms) == [(expected,)]

    def test_cancelling_terms_drop(self):
        poly = parse_polynomial("x1*(x0^3 - x0) + x2^5 - x2^3", F3)
        assert poly.reduced().is_zero()
        assert parse_polynomial("x0^2 + x0 + 1", F2).reduced() == parse_polynomial("1", F2, 1)


class TestVariableBudget:
    def test_at_limit_parses(self):
        assert parse_polynomial(f"x{MAX_VARS - 1}", F2).nvars == MAX_VARS
        assert parse_polynomial("x0", F2, MAX_VARS).nvars == MAX_VARS

    @pytest.mark.parametrize("text,nvars", [(f"x{MAX_VARS}", None), ("x0", MAX_VARS + 1)])
    def test_past_limit_raises(self, text, nvars):
        with pytest.raises(SpaceTooLarge, match=f"exceeds limit {MAX_VARS}"):
            parse_polynomial(text, F2, nvars)


class TestTermBudget:
    @pytest.mark.parametrize("t", range(8))
    @pytest.mark.parametrize("e", [0, 1, 2, 5, 40, 10 ** 20])
    def test_power_bound_is_monomial_count(self, t, e):
        bound = _power_terms(t, e)
        exact = comb(t + e - 1, t - 1) if t else 1
        assert bound == exact if exact <= MAX_TERMS else bound > MAX_TERMS

    @pytest.mark.parametrize("text", [
        "x0^99999999999999999999", "(3*x0*x1^2)^99999999999999999999",
        "(x0 - x0)^99999999999999999999", "(x0 + x1 + x2)^0",
    ])
    def test_single_term_powers_parse(self, text):
        poly = parse_polynomial(text, F5)
        assert len(poly.terms) <= 1

    def test_power_at_limit(self, monkeypatch):
        # a 3-term base squared has at most C(4, 2) = 6 terms
        monkeypatch.setattr(polynomials, "MAX_TERMS", 6)
        assert len(parse_polynomial("(x0 + x1 + x2)^2", F5).terms) == 6
        with pytest.raises(SpaceTooLarge, match="power expands to more than 6 terms"):
            parse_polynomial("(x0 + x1 + x2)^3", F5)

    def test_product_at_limit(self, monkeypatch):
        monkeypatch.setattr(polynomials, "MAX_TERMS", 6)
        assert len(parse_polynomial("(x0 + x1)*(x2 + x3 + x4)", F5).terms) == 6
        with pytest.raises(SpaceTooLarge, match="product expands to more than 6 terms"):
            parse_polynomial("(x0 + x1)*(x2 + x3 + x4)*(1 + x5)", F5)

    def test_product_counts_each_operands_terms(self, monkeypatch):
        # a monomial operand counts one term, a zero one none, and a term's
        # first factor is not a product
        monkeypatch.setattr(polynomials, "MAX_TERMS", 6)
        seven = "(" + "+".join(f"x{i}" for i in range(1, 8)) + ")"
        assert len(parse_polynomial(seven, F5).terms) == 7
        for text in (f"x0*{seven}", f"{seven}*x0"):
            with pytest.raises(SpaceTooLarge, match="product expands to more than 6 terms"):
                parse_polynomial(text, F5)
        for text in ("0*(x0+x1+x2)*(x3+x4+x5)", "(x0+x1+x2)*0*(x3+x4+x5)"):
            assert parse_polynomial(text, F5).is_zero()

    def test_huge_power_of_sum_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(SpaceTooLarge):
            parse_polynomial("(x0+x1)^100000000000000000000", F5)
        assert time.perf_counter() - start < 0.1

    def test_long_sum_parses_fast(self):
        # summed into one dict, not copied at every sign: x0 + ... + x1599
        # took 20 s when each '+' built a new polynomial
        text = "+".join(f"x{i}" for i in range(1600)) + "-x7+x7+3-3"
        start = time.perf_counter()
        poly = parse_polynomial(text, F5)
        assert time.perf_counter() - start < 1.0
        assert poly == MultivariatePolynomial(
            1600, F5, {tuple(int(i == j) for i in range(1600)): 1 for j in range(1600)})

    def test_sum_at_entry_limit(self, monkeypatch):
        monkeypatch.setattr(polynomials, "MAX_TERM_ENTRIES", 12)
        assert len(parse_polynomial("x0 + x1 + x2", F5, 4).terms) == 3
        # terms that cancel hold no entries
        assert len(parse_polynomial("x0 + x1 - x1 + x1 + x2", F5, 4).terms) == 3
        with pytest.raises(SpaceTooLarge, match="sum of 4 terms in 4 variables exceeds limit 12"):
            parse_polynomial("x0 + x1 + x2 + 1", F5, 4)

    def test_expansion_at_entry_limit(self, monkeypatch):
        # the term bound of a power or a product, times the variables
        monkeypatch.setattr(polynomials, "MAX_TERM_ENTRIES", 12)
        assert len(parse_polynomial("(x0 + x1)*(x1 + x2)", F5).terms) == 4
        assert len(parse_polynomial("(x0 + x1)^3", F5, 3).terms) == 4
        with pytest.raises(SpaceTooLarge, match="product of 6 terms in 3 variables"):
            parse_polynomial("(x0 + x1)*(x0 + x1 + x2)", F5)
        with pytest.raises(SpaceTooLarge, match="power of 5 terms in 3 variables"):
            parse_polynomial("(x0 + x1)^4", F5, 3)

    def test_linear_form_in_max_vars_fails_fast(self):
        # 10^4 terms of 10^4 exponents each: refused after 10^3 terms
        text = "+".join(f"x{i}" for i in range(MAX_VARS))
        start = time.perf_counter()
        with pytest.raises(SpaceTooLarge, match="exceeds limit"):
            parse_polynomial(text, F5)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text,position,q,nvars", [
        pytest.param(text, position, q, nvars,
                     id=f"{text}-{position}".replace(_NINES, "<5000 nines>"))
        for text, position, q, nvars in [
            ("(x0+x1)^", 8, 5, None), ("(x0+x1)^-1", 10, 5, None),
            ("(x0+x1)^2*", 10, 5, None), ("(x0+x1)^2 )", 10, 5, None), ("x0+", 3, 5, None),
            ("-", 1, 5, None), ("x0 - * x1", 5, 5, None), ("x0 + - x1", 6, 5, None),
            ("[1,2", 4, 9, None), ("3^-1", 4, 5, None), ("x0*[1,2,3]", 10, 9, None),
            ("x0 - (x1)^", 10, 5, None), ("x7", 2, 5, 3), ("x²", 1, 5, None),
            ("x0 + \t", 6, 5, None),
            # integers of more digits than int() converts, at their first digit
            ("x0^" + _NINES, 3, 5, None), ("x0*-" + _NINES, 4, 5, None),
            ("x" + _NINES, 1, 5, 2), ("[1," + _NINES + "]", 3, 9, None),
            (_NINES + "9", 0, 5, None),
        ]
    ])
    def test_parse_error_positions(self, text, position, q, nvars):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, field_for(q), nvars)
        assert info.value.position == position


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


RESULTANT_FIELDS = [make_field(2), make_field(7), make_field(101), make_field(7919),
                    make_field(2, 4), make_field(3, 3), make_field(5, 2)]


@st.composite
def _declared_pairs(draw):
    """(field, fc, gc, m, n): coefficient lists at declared degrees m, n in
    0..7; about half the time a list has its top coefficients zeroed, some
    or all of them."""
    fld = draw(st.sampled_from(RESULTANT_FIELDS))
    element = st.integers(0, fld.q - 1)
    pairs = []
    for _ in range(2):
        deg = draw(st.integers(0, 7))
        coeffs = draw(st.lists(element, min_size=deg + 1, max_size=deg + 1))
        if draw(st.booleans()):
            top = draw(st.integers(1, deg + 1))
            coeffs[deg + 1 - top:] = [0] * top
        pairs.append((coeffs, deg))
    (fc, m), (gc, n) = pairs
    return fld, fc, gc, m, n


class TestEuclideanResultant:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_declared_pairs())
    @example((make_field(7), [3], [2, 5, 1], 0, 2))  # 3^2
    @example((make_field(7), [4, 0, 1], [5], 2, 0))  # 5^2
    @example((make_field(7), [3], [5], 0, 0))  # the empty determinant
    @example((make_field(2, 4), [0, 0, 0], [1, 1], 2, 1))  # f vanishes
    # g's top entry vanishes: once n is lowered, the list g still holds it,
    # and f mod g must divide by g up to its declared degree only
    @example((make_field(7), [1, 1, 1], [1, 1, 0], 2, 2))
    @example((make_field(2, 4), [3, 5, 7], [2, 9, 0], 2, 2))
    def test_matches_bareiss_on_sylvester_matrix(self, case):
        """The Euclidean resultant against the determinant of the Sylvester
        matrix, which :func:`rank_and_det` takes by Gaussian elimination
        (the id is kept from the fraction-free elimination it replaced)."""
        fld, fc, gc, m, n = case
        rows = sylvester_matrix(fc, gc, m, n)
        det = det_scalar(rows, fld)
        assert resultant(fc, gc, m, n, fld) == det

    def test_inputs_unchanged(self):
        fc, gc = [1, 2, 3], [4, 0, 5, 6]
        resultant(fc, gc, 2, 3, make_field(7))
        assert (fc, gc) == ([1, 2, 3], [4, 0, 5, 6])


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
def _matrices(draw, square, max_rows=6):
    """(field, matrix) with at most ``max_rows`` rows and 6 columns; about
    half the time one row is overwritten with a combination of the others,
    which makes a square matrix singular."""
    fld = draw(st.sampled_from(ELIMINATION_FIELDS))
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, 6))
    element = st.integers(0, fld.q - 1)
    row = st.lists(element, min_size=ncols, max_size=ncols)
    rows = [draw(row) for _ in range(nrows)]
    if draw(st.booleans()):  # with one row, the combination is a zero row
        target = draw(st.integers(0, nrows - 1))
        combo = [0] * ncols
        for i, row in enumerate(rows):
            if i != target:
                c = draw(element)
                combo = [fld.add(x, fld.mul(c, y)) for x, y in zip(combo, row)]
        rows[target] = combo
    return fld, rows


class _CountingField:
    """F_7 through the operations :func:`rank_and_det` may use, with its
    products counted."""

    def __init__(self):
        self.fld, self.products = make_field(7), 0

    def mul(self, a, b):
        self.products += 1
        return self.fld.mul(a, b)

    def sub(self, a, b):
        return self.fld.sub(a, b)

    def neg(self, a):
        return self.fld.neg(a)

    def inv(self, a):
        return self.fld.inv(a)


# a pivot row with zero entries, whose tail skips them
_ZERO_IN_PIVOT_ROW = (make_field(7), [[2, 0, 0, 3], [1, 4, 0, 5], [6, 2, 1, 0], [3, 3, 3, 1]])
# a zero below the first pivot: a row the first step leaves alone
_ZERO_BELOW_PIVOT = (make_field(7), [[1, 2, 3], [0, 4, 5], [6, 0, 1]])


class TestElimination:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_matrices(square=True))
    @example(_ZERO_IN_PIVOT_ROW)
    @example(_ZERO_BELOW_PIVOT)
    def test_det_matches_cofactor_expansion(self, case):
        fld, mat = case
        assert det_scalar(mat, fld) == _cofactor_det(mat, fld)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_matrices(square=False))
    @example(_ZERO_IN_PIVOT_ROW)
    @example(_ZERO_BELOW_PIVOT)
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

    def test_dense_matrix_takes_a_third_of_n_cubed_products(self):
        # Gaussian elimination: n^3/3 + O(n^2) products, where a fraction-free
        # step costs three per entry
        n, fld = 12, _CountingField()
        rng = random.Random(14)  # a matrix of full rank
        mat = [[rng.randrange(1, 7) for _ in range(n)] for _ in range(n)]
        rank, det = rank_and_det(mat, fld)
        assert rank == n and det == _field_minors(mat, fld.fld)[tuple(range(n))]
        assert fld.products <= n ** 3 // 3 + n ** 2

    def test_input_unchanged(self):
        mat = [[0, 1, 2], [3, 4, 5], [6, 0, 1]]
        before = [list(r) for r in mat]
        det_scalar(mat, make_field(7))
        assert mat == before


def _field_minors(mat, fld):
    return minors(mat, fld.add, fld.sub, fld.mul, fld.neg)


class TestMinors:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_matrices(square=False, max_rows=4))
    def test_match_det_scalar_on_every_column_set(self, case):
        fld, mat = case
        m, n = len(mat), len(mat[0])
        expected = {}
        for cols in combinations(range(n), m):
            d = det_scalar([[row[j] for j in cols] for row in mat], fld)
            if d:
                expected[cols] = d
        assert _field_minors(mat, fld) == expected

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_matrices(square=False, max_rows=4))
    def test_empty_exactly_when_rank_deficient(self, case):
        fld, mat = case
        assert (not _field_minors(mat, fld)) == (rank_and_det(mat, fld)[0] < len(mat))

    def test_det_poly_commutes_with_evaluation(self, rng):
        for fld in ELIMINATION_FIELDS:
            zero = MultivariatePolynomial(2, fld)
            for size in range(1, 6):
                for _ in range(4):
                    mat = [
                        [random_poly(rng, fld, 2, 2) if rng.random() < 0.8 else zero
                         for _ in range(size)]
                        for _ in range(size)
                    ]
                    det = det_poly(mat, 2, fld)
                    for _ in range(6):
                        x = (rng.randrange(fld.q), rng.randrange(fld.q))
                        at = [[e.eval(x) for e in row] for row in mat]
                        assert det.eval(x) == det_scalar(at, fld)


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


def _scan_tower(f, max_degree):
    """Reference root search: Horner's rule at every element, in order."""
    for j in range(1, max_degree + 1):
        ext = make_field(f.field.p, f.field.k * j)
        fe = f.map_coefficients(ext)
        for x in ext.enumerate_elements():
            if fe.eval(x) == 0:
                return x, ext, j
    return None


def _product(*factors):
    """The product of univariate polynomials over one field, by convolution."""
    fld, out = factors[0].field, [1]
    for g in factors:
        acc = [0] * (len(out) + len(g.coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g.coeffs):
                acc[i + j] = fld.add(acc[i + j], fld.mul(a, b))
        out = acc
    return UnivariatePolynomial(out, fld)


@st.composite
def _dense_cases(draw, min_degree=0):
    """(f, g, r): polynomials over one field F_q, q <= 64 (prime, 2^k or odd
    p^k).  g has degree min_degree..6 and a leading coefficient other than
    1 whenever q > 2, and deg r < deg g."""
    fld = field_for(draw(st.sampled_from(PRIME_POWERS_64)))
    element = st.integers(0, fld.q - 1)

    def coeffs(n):
        return draw(st.lists(element, min_size=n, max_size=n))

    f = UnivariatePolynomial(coeffs(draw(st.integers(0, 8))), fld)
    deg = draw(st.integers(min_degree, 6))
    lead = draw(st.integers(2, fld.q - 1)) if fld.q > 2 else 1
    return f, UnivariatePolynomial(coeffs(deg) + [lead], fld), UnivariatePolynomial(coeffs(deg), fld)


class TestDenseArithmetic:
    """The one product and the one quotient with remainder, over prime
    fields and both kinds of extension field."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_dense_cases())
    def test_product_matches_convolution(self, case):
        f, g, _ = case
        assert f * g == _product(f, g)
        assert g * f == _product(f, g)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_dense_cases())
    def test_divmod_recovers_quotient_and_remainder(self, case):
        f, g, r = case
        assert (f * g + r).divmod(g) == (f, r)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_dense_cases(min_degree=1), st.integers(0, 40))
    def test_power_mod_is_repeated_product(self, case, e):
        a, m, _ = case
        expected = UnivariatePolynomial([1], m.field)
        for _ in range(e):
            expected = _product(expected, a).divmod(m)[1]
        assert _power_mod(a, e, m) == expected


@st.composite
def _tower_cases(draw):
    """(f, max_degree): f over one of F_2, F_4, F_7, F_8, F_9, F_11, F_13,
    F_16 or F_25, of degree <= 6, a product of one to three factors of
    degree <= 3 with the first possibly repeated; max_degree <= 3."""
    fld = field_for(draw(st.sampled_from([2, 4, 7, 8, 9, 11, 13, 16, 25])))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 3))
        coeffs = draw(st.lists(st.integers(0, fld.q - 1), min_size=deg, max_size=deg))
        factors.append(UnivariatePolynomial(coeffs + [draw(st.integers(1, fld.q - 1))], fld))
    if draw(st.booleans()):
        factors.append(factors[0])
    while sum(g.degree for g in factors) > 6:
        factors.pop()
    return _product(*factors), draw(st.integers(1, 3))


def _irreducible(p, k):
    """The modulus of F_{p^k}: irreducible of degree k over F_p, so it has no
    root in F_{p^j} for j < k.  Found without building F_{p^k}, which may be
    past the size limit."""
    return UnivariatePolynomial(FiniteField._find_modulus(p, k), make_field(p))


F7, F11, F13 = make_field(7), make_field(11), make_field(13)


class TestRootSearchKernel:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_tower_cases())
    @example((_irreducible(7, 4), 3))
    @example((_irreducible(11, 5), 3))
    @example((_irreducible(13, 4), 3))
    # two distinct quadratics of norms 1 and 2: two norm classes of F_121
    @example((_product(UnivariatePolynomial([1, 0, 1], F11),
                       UnivariatePolynomial([2, 2, 1], F11)), 2))
    # x times a cubic without roots in F_7: the root 0
    @example((_product(UnivariatePolynomial([0, 1], F7), _irreducible(7, 3)), 3))
    # (x - 3)^2 times a quadratic without roots in F_13
    @example((_product(UnivariatePolynomial([10, 1], F13), UnivariatePolynomial([10, 1], F13),
                       _irreducible(13, 2)), 2))
    def test_matches_scalar_scan(self, case):
        f, max_degree = case
        assert find_root_in_tower(f, max_degree) == _scan_tower(f, max_degree)

    def test_non_root_from_kernel_is_caught(self, monkeypatch):
        # the evaluation at the norm class reports a zero at every candidate
        monkeypatch.setattr(kernels, "grid_eval",
                            lambda polys, idx: np.zeros((len(idx), len(polys)), dtype=np.int64))
        f = UnivariatePolynomial([1, 0, 1], F3)  # x^2 + 1, nonzero at 1, the first candidate
        with pytest.raises(InternalContradiction):
            find_root_in_tower(f, 2)

    @pytest.mark.parametrize("p,k", [(3, 14), (7, 8)])
    def test_no_root_within_bound_builds_no_field(self, p, k, monkeypatch):
        built = []
        monkeypatch.setattr(polynomials, "make_field", lambda *args: built.append(args))
        assert find_root_in_tower(_irreducible(p, k), k - 1) is None
        assert built == []

    def test_root_builds_only_its_field(self, monkeypatch):
        built = []

        def spy(*args):
            built.append(args)
            return make_field(*args)

        monkeypatch.setattr(polynomials, "make_field", spy)
        _, ext, j = find_root_in_tower(_irreducible(13, 4), 4)
        assert (ext.q, j) == (13 ** 4, 4) and built == [(13, 4)]


class TestSubstitution:
    @pytest.mark.parametrize("q", [2, 4, 5, 9])
    def test_eliminate_matches_substitute(self, rng, q):
        # x0 eliminated through the pencil x0 = lam*x1 by exponent arithmetic,
        # against the general substitution; the factor makes the first
        # members vanish, so that later ones and the one at infinity run
        fld = field_for(q)
        for _ in range(25):
            n = rng.randint(2, 5)
            poly = random_poly(rng, fld, n, 5)
            if poly.is_zero():
                continue
            poly = poly * first_members_vanish(fld, n, rng.randint(0, q))
            expected = pencil_member_reference(poly, fld)
            if expected is None:
                with pytest.raises(InternalContradiction):
                    _pencil_member(poly, fld)
            else:
                assert _pencil_member(poly, fld) == expected

    def test_to_univariate(self):
        p = parse_polynomial("x0^2 + 2", F3)
        u = to_univariate(p)
        assert u.coeffs == [2, 0, 1]
