"""Sparse multivariate and dense univariate polynomials over finite fields.

Coefficients are integer-encoded field elements (see :mod:`ffgeom.fields`).
The text format accepted by :func:`parse_polynomial`:

    terms joined by '+' or '-'; a term is a product of factors joined by '*';
    a factor is an integer coefficient, a bracketed coordinate list
    '[c0,c1,...]' over the power basis, a variable 'x<i>', or a parenthesized
    subexpression, any of them with an exponent '^<e>' ('3^2', '[0,1]^2',
    '(x0+x1)^3').  A term's constants and variable powers form one monomial.
    Whitespace is insignificant.
"""

import operator
import random
import re
from bisect import bisect_left
from itertools import chain, zip_longest

import numpy as np

from . import kernels
from .errors import (
    ArityMismatch,
    BothZero,
    FieldMismatch,
    InternalContradiction,
    NotHomogeneous,
    ParseError,
    SpaceTooLarge,
    ZeroPolynomial,
)
from .fields import embed, make_field, poly_divmod, poly_mul, power


class MultivariatePolynomial:
    """Sparse map from exponent vectors to nonzero coefficients."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars, field, terms=None):
        self.nvars = nvars
        self.field = field
        self.terms = {}
        if terms:
            self._merge(terms.items() if isinstance(terms, dict) else terms)

    def _merge(self, pairs):
        """Add (exponents, coefficient) pairs in place, dropping zero sums."""
        terms, nvars = self.terms, self.nvars
        for exps, c in pairs:
            if c:
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ArityMismatch("exponent vector length mismatch")
                cur = terms.get(exps)
                if cur is None:
                    terms[exps] = c
                else:
                    s = self.field.add(cur, c)
                    if s:
                        terms[exps] = s
                    else:
                        del terms[exps]

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, c, nvars, field):
        return cls(nvars, field, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, i, nvars, field):
        return cls(nvars, field, {(0,) * i + (1,) + (0,) * (nvars - i - 1): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def degree_in(self, var):
        return max((e[var] for e in self.terms), default=0)

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    def __eq__(self, other):
        return (
            isinstance(other, MultivariatePolynomial)
            and self.nvars == other.nvars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.field, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"MultivariatePolynomial({self.format()!r})"

    # -- ring operations -----------------------------------------------------

    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise ArityMismatch("mixed arities")
        if self.field != other.field:
            raise FieldMismatch("mixed coefficient fields")

    def __add__(self, other):
        self._check_compatible(other)
        return MultivariatePolynomial(
            self.nvars, self.field, chain(self.terms.items(), other.terms.items())
        )

    def __neg__(self):
        fld = self.field
        return MultivariatePolynomial(
            self.nvars, fld, {e: fld.neg(c) for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        self._check_compatible(other)
        neg = self.field.neg
        negated = ((e, neg(c)) for e, c in other.terms.items())
        return MultivariatePolynomial(
            self.nvars, self.field, chain(self.terms.items(), negated))

    def __mul__(self, other):
        self._check_compatible(other)
        add, mul = operator.add, self.field.mul
        products = (
            (tuple(map(add, e1, e2)), mul(c1, c2))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return MultivariatePolynomial(self.nvars, self.field, products)

    def __pow__(self, e):
        return power(self, e, operator.mul,
                     MultivariatePolynomial.constant(1, self.nvars, self.field))

    # -- evaluation and substitution -------------------------------------

    def eval(self, point):
        if len(point) != self.nvars:
            raise ArityMismatch(
                f"expected {self.nvars} coordinates, got {len(point)}"
            )
        fld = self.field
        acc = 0
        for exps, c in self.terms.items():
            val = c
            for x, e in zip(point, exps):
                if e:
                    val = fld.mul(val, fld.pow(x, e))
                    if val == 0:
                        break
            acc = fld.add(acc, val)
        return acc

    def reduced(self):
        """The polynomial with the same value at every point of F_q^n and
        every exponent below q.

        Every x in F_q has x^q = x, so an exponent e >= 1 becomes
        ((e - 1) mod (q - 1)) + 1, and the constructor merges the terms that
        meet and drops those that cancel.  The result is zero exactly when
        the polynomial vanishes on all of F_q^n.
        """
        m = self.field.q - 1
        return MultivariatePolynomial(
            self.nvars,
            self.field,
            (
                (tuple((e - 1) % m + 1 if e else 0 for e in exps), c)
                for exps, c in self.terms.items()
            ),
        )

    def map_coefficients(self, target_field):
        """Embed all coefficients into an extension field."""
        if target_field == self.field:
            return self
        sub, sup = self.field, target_field
        return MultivariatePolynomial(
            self.nvars,
            sup,
            {e: embed(c, sub, sup) for e, c in self.terms.items()},
        )

    def substitute(self, replacements):
        """Compose with polynomials: variable i becomes replacements[i].

        All replacements must live in one common ring, which becomes the
        ring of the result.  Each term is expanded once, as a product of
        term maps: its coefficient times a power of each replacement it
        uses, the powers cached for the call, and the products are merged
        into the result once.  A power is taken one base-p digit of its
        exponent at a time (:func:`_digit_power`).  Before any expansion the
        terms are bounded: a power of a t-term replacement has at most
        prod_j C(d_j + t - 1, t - 1) terms over the digits d_j of its
        exponent (:func:`_lucas_terms`), and a term's product at most the
        product of its powers'.  Past ``MAX_TERMS`` summed over the terms,
        SpaceTooLarge is raised.
        """
        if len(replacements) != self.nvars:
            raise ArityMismatch("one replacement per variable required")
        if not replacements:
            raise ArityMismatch("zero-variable substitution unsupported")
        target_nvars, fld = replacements[0].nvars, replacements[0].field
        if any(r.nvars != target_nvars for r in replacements):
            raise ArityMismatch("replacements in mixed arities")
        sizes = [len(r.terms) for r in replacements]
        expansions, bound = [], 0
        for exps, c in self.terms.items():
            factors = [(i, e) for i, e in enumerate(exps) if e]
            count = 1
            for i, e in factors:
                count *= _lucas_terms(sizes[i], e, fld.p)
                if not count or count > MAX_TERMS:
                    break
            bound += count
            if bound > MAX_TERMS:
                raise SpaceTooLarge(f"substitution expands to more than {MAX_TERMS} terms")
            expansions.append((c, factors))
        powers, out = {}, MultivariatePolynomial(target_nvars, fld)
        for c, factors in expansions:
            acc = MultivariatePolynomial.constant(c, target_nvars, fld)
            for i, e in factors:
                if (i, e) not in powers:
                    powers[i, e] = _digit_power(replacements[i], e)
                acc = acc * powers[i, e]
            out._merge(acc.terms.items())
        return out

    def decompose_top_variable(self, var):
        """Coefficients (phi_0, ..., phi_t) of powers of ``var``, each in
        nvars-1 variables; phi_t nonzero; reassembly reproduces self."""
        if self.is_zero():
            raise ZeroPolynomial("cannot decompose the zero polynomial")
        t = self.degree_in(var)
        buckets = [{} for _ in range(t + 1)]
        for exps, c in self.terms.items():
            e = exps[var]
            rest = exps[:var] + exps[var + 1:]
            buckets[e][rest] = c
        return [
            MultivariatePolynomial(self.nvars - 1, self.field, b) for b in buckets
        ]

    def format(self):
        """Render in the package text format (inverse of the parser)."""
        fld = self.field
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            coords = fld.coords(c)
            if fld.k == 1:
                cs = str(c)
            elif sum(1 for x in coords if x) == 1 and coords[0]:
                cs = str(coords[0])
            else:
                cs = "[" + ",".join(str(x) for x in coords) + "]"
            vars_part = [
                f"x{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            ]
            if not vars_part or cs != "1":
                factors.append(cs)
            factors.extend(vars_part)
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"


def _lucas_terms(t, e, p):
    """prod_j C(d_j + t - 1, t - 1) over the base-p digits d_j of e >= 1:
    the terms :func:`_digit_power` may give a t-term polynomial to the
    power e, one :func:`_power_terms` per digit; the count stops once it
    passes ``MAX_TERMS``."""
    if not t:
        return 0
    count = 1
    while e and count <= MAX_TERMS:
        e, d = divmod(e, p)
        if d:
            count *= _power_terms(t, d)
    return count


def _digit_power(poly, e):
    """``poly`` to the power e >= 1 over a field of characteristic p, one
    base-p digit of e at a time.  By Frobenius, (sum a_i)^e is the product
    over the digits d_j of e of (sum a_i^(p^j))^(d_j), and
    a_i^(p^j) = c^(p^j) x^(p^j m) for a_i = c x^m.  Each factor is
    :func:`_multinomial_power`, which makes each of its terms once."""
    if e == 1 or not poly.terms:
        return poly
    fld, p = poly.field, poly.field.p
    pairs = list(poly.terms.items())
    out, scale = None, 1
    while e:
        e, d = divmod(e, p)
        if d:
            factor = _multinomial_power(
                poly.nvars, fld, [(tuple(x * scale for x in m), c) for m, c in pairs], d)
            out = factor if out is None else out * factor
        if e:
            scale *= p
            if fld.k > 1:  # Frobenius on the coefficients; the identity on F_p
                pairs = [(m, fld.pow(c, p)) for m, c in pairs]
    return out


def _multinomial_power(nvars, fld, pairs, d):
    """(sum of c x^m over the (m, c) ``pairs``)^d, 1 <= d < p: one term
    per split of d into exponents alpha, with the coefficient
    d!/prod alpha_i! prod c_i^(alpha_i), which is nonzero mod p, merged
    where the terms meet."""
    p, mul = fld.p, fld.mul
    if d == 1:
        return MultivariatePolynomial(nvars, fld, pairs)
    fact = 1
    for a in range(2, d + 1):
        fact = fact * a % p
    inv = [1] * (d + 1)  # 1/a! mod p, from 1/d! down
    inv[d] = pow(fact, -1, p)
    for a in range(d, 1, -1):
        inv[a - 1] = inv[a] * a % p
    # states (exponents, coefficient, rest of d) after each term in turn
    states = [((0,) * nvars, fact, d)]
    for i, (m, c) in enumerate(pairs):
        last = i == len(pairs) - 1
        steps, w, cp = [], [], 1
        for a in range(d + 1):
            steps.append(tuple(x * a for x in m))
            w.append(mul(cp, inv[a]))
            cp = mul(cp, c)
        states = [(tuple(map(operator.add, e, steps[a])), mul(coef, w[a]), rest - a)
                  for e, coef, rest in states
                  for a in ((rest,) if last else range(rest + 1))]
    return MultivariatePolynomial(nvars, fld, ((e, coef) for e, coef, _ in states))


class UnivariatePolynomial:
    """Dense coefficient list, low degree first, trailing zeros stripped."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs
        self.field = field

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, UnivariatePolynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"UnivariatePolynomial({self.coeffs}, {self.field!r})"

    def eval(self, x):
        add, mul = self.field.add, self.field.mul
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc

    def __add__(self, other):
        add = self.field.add
        return UnivariatePolynomial(
            [add(a, b) for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)],
            self.field)

    def __sub__(self, other):
        sub = self.field.sub
        return UnivariatePolynomial(
            [sub(a, b) for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)],
            self.field)

    def derivative(self):
        fld = self.field
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            out.append(fld.mul(i % fld.p, c))
        return UnivariatePolynomial(out, fld)

    def map_coefficients(self, target_field):
        if target_field == self.field:
            return self
        return UnivariatePolynomial(
            [embed(c, self.field, target_field) for c in self.coeffs], target_field
        )

    def monic(self):
        if self.is_zero():
            return self
        return UnivariatePolynomial([self.field.inv(self.coeffs[-1])], self.field) * self

    def __mul__(self, other):
        return UnivariatePolynomial(poly_mul(self.coeffs, other.coeffs, self.field), self.field)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = poly_divmod(self.coeffs, other.coeffs, self.field)
        return UnivariatePolynomial(quo, self.field), UnivariatePolynomial(rem, self.field)


def poly_gcd(f, g):
    """Monic Euclidean gcd, by the remainders of :func:`fields.poly_divmod`."""
    while not g.is_zero():
        f, g = g, f.divmod(g)[1]
    return f.monic()


def minors(rows, add, sub, mul, neg):
    """Every nonzero maximal minor of a matrix with at least one row, as
    {ascending column tuple: value}.  Entries come from any commutative
    ring given by its operations, in which zero is the one falsy element:
    field elements with the field's operations, polynomials with the
    :mod:`operator` ones.

    The minors are the coordinates of the exterior product
    r_0 ^ ... ^ r_{m-1} of the rows, expanded one row at a time: wedging
    e_S (S ascending, |S| = s) with e_c puts c at position i of S with the
    sign (-1)^(s-i) of the s - i transpositions that move it there.  The
    result is empty exactly when the rows are linearly dependent.
    """
    wedge = {(c,): a for c, a in enumerate(rows[0]) if a}
    for row in rows[1:]:
        entries = [(c, a) for c, a in enumerate(row) if a]
        nxt = {}
        for cols, v in wedge.items():
            s = len(cols)
            for c, a in entries:
                i = bisect_left(cols, c)
                if i < s and cols[i] == c:
                    continue
                key = cols[:i] + (c,) + cols[i:]
                term = mul(v, a)
                odd = (s - i) & 1
                cur = nxt.get(key)
                if cur is None:
                    nxt[key] = neg(term) if odd else term
                else:
                    nxt[key] = sub(cur, term) if odd else add(cur, term)
        wedge = {cols: v for cols, v in nxt.items() if v}
    return wedge


def rank_and_det(matrix, field):
    """Rank of a matrix of field elements and, when it is square, its
    determinant (0 for a non-square matrix).

    Gaussian elimination: each pivot is inverted once, and every later row
    with a nonzero entry a in the pivot column subtracts a / pivot times
    the pivot row's nonzero tail.  The determinant is the product of the
    pivots, negated once per row swap.  A column without a pivot is
    skipped, which leaves the rank exact and the determinant 0.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rows = [list(r) for r in matrix]
    mul, sub = field.mul, field.sub
    rank = 0
    sign = 1
    det = 1
    for col in range(ncols):
        for i in range(rank, nrows):
            if rows[i][col]:
                break
        else:
            continue  # no pivot in this column
        if i != rank:
            rows[rank], rows[i] = rows[i], rows[rank]
            sign = -sign
        prow = rows[rank]
        det = mul(det, prow[col])
        rank += 1
        if rank == nrows:
            break
        inv = field.inv(prow[col])
        tail = [(j, b) for j, b in enumerate(prow[col + 1:], col + 1) if b]
        for row in rows[rank:]:
            if row[col]:
                f = mul(row[col], inv)
                for j, b in tail:
                    row[j] = sub(row[j], mul(f, b))
    if rank < nrows or nrows != ncols:
        return rank, 0
    return rank, (det if sign > 0 else field.neg(det))


def det_scalar(matrix, field):
    """Determinant of a square matrix of field elements."""
    return rank_and_det(matrix, field)[1]


def det_poly(matrix, nvars, field):
    """Determinant of a square matrix of MultivariatePolynomial entries: its
    one maximal minor.  The expansion costs about n * 2^n products, so only
    small symbolic matrices use it."""
    full = tuple(range(len(matrix)))
    ms = minors(matrix, operator.add, operator.sub, operator.mul, operator.neg)
    return ms.get(full, MultivariatePolynomial(nvars, field))


def sylvester_matrix(fc, gc, m, n):
    """(m+n) x (m+n) Sylvester matrix from coefficient lists (low degree
    first, padded to declared degrees m = deg f, n = deg g); f-rows first.
    Entries are whatever the coefficient lists contain, and 0 elsewhere,
    which :func:`rank_and_det` and :func:`minors` (over any ring) read as
    zero."""
    size = m + n
    frow = list(reversed(fc))  # high degree first
    grow = list(reversed(gc))
    rows = []
    for i in range(n):
        rows.append([0] * i + frow + [0] * (size - i - len(frow)))
    for i in range(m):
        rows.append([0] * i + grow + [0] * (size - i - len(grow)))
    return rows


def resultant(fc, gc, m, n, field):
    """Resultant of two polynomials over ``field`` at declared degrees
    ``m`` and ``n``, from coefficient lists (low degree first, at most
    m + 1 and n + 1 entries): the determinant of their Sylvester matrix,
    leading coefficients allowed to vanish.

    The Euclidean algorithm, O(mn) field operations.  Expanding the
    determinant along its first column, a vanishing f_m multiplies by
    (-1)^n * g_n and lowers m, and a vanishing g_n multiplies by f_m and
    lowers n.  Otherwise, with m >= n (a swap costs (-1)^(mn)), the pair
    becomes (g, f mod g) at declared degree n - 1, with the factor
    (-1)^(mn) * g_n^(m-n+1).  A constant f gives f_0^n, a constant g g_0^m.
    """
    mul, neg = field.mul, field.neg
    f = list(fc) + [0] * (m + 1 - len(fc))
    g = list(gc) + [0] * (n + 1 - len(gc))
    acc = 1
    while True:
        if m == 0:
            return mul(acc, field.pow(f[0], n))
        if n == 0:
            return mul(acc, field.pow(g[0], m))
        if not f[m]:
            acc = mul(acc, g[n] if n % 2 == 0 else neg(g[n]))
            m -= 1
        elif not g[n]:
            acc = mul(acc, f[m])
            n -= 1
        else:
            # Res(f, g) = (-1)^(mn) Res(g, f): a swap's sign cancels the
            # sign of the step below
            if m < n:
                f, g, m, n = g, f, n, m
            elif m * n % 2:
                acc = neg(acc)
            # the lists may run past the declared degrees in zeros
            rem = poly_divmod(f[:m + 1], g[:n + 1], field)[1]
            acc = mul(acc, field.pow(g[n], m - n + 1))
            f, g, m, n = g, rem, n, n - 1


def sylvester_resultant(f, g):
    """Resultant of two univariate polynomials over the same field."""
    if f.field != g.field:
        raise FieldMismatch("resultant requires a common field")
    if f.is_zero() and g.is_zero():
        raise BothZero("resultant of two zero polynomials")
    if f.is_zero() or g.is_zero():
        return 0
    return resultant(f.coeffs, g.coeffs, f.degree, g.degree, f.field)


def find_root_in_tower(f, max_degree):
    """The first root of ``f`` in the tower F_{q^j}, j = 1..max_degree, over
    its field F_q: (root, extension_field, j) for the least such j and the
    smallest encoding of a root in F_{q^j}, or None when no root exists
    within the bound.

    j is found by distinct-degree factorization over F_q: the first j with
    d = gcd(f, x^(q^j) - x) nonconstant, with x^(q^j) mod f the q-th power
    of x^(q^(j-1)).  Every irreducible factor of f has degree at most deg f,
    so no j past it is tried, and no field is built before j is known.  The
    root is :func:`_smallest_root` of d in F_{q^j}, re-checked by Horner's
    rule.
    """
    if f.is_zero() or f.degree < 1:
        raise ZeroPolynomial("root search needs a nonconstant polynomial")
    base = f.field
    monic = f.monic()
    x = UnivariatePolynomial([0, 1], base)
    xq = x
    for j in range(1, min(max_degree, f.degree) + 1):
        xq = _power_mod(xq, base.q, monic)
        d = poly_gcd(monic, xq - x)
        if d.degree >= 1:
            break
    else:
        return None
    ext = make_field(base.p, base.k * j)
    root = _smallest_root(d, j, ext)
    if f.map_coefficients(ext).eval(root) != 0:
        raise InternalContradiction(f"root search returned a non-root {root}")
    return root, ext, j


def _power_mod(a, e, f):
    """a^e mod ``f`` of degree >= 1, for an integer e >= 0: :func:`fields.power`
    over the product of coefficient lists, then the remainder by ``f``."""
    fld = f.field

    def mulmod(u, v):
        return poly_divmod(poly_mul(u, v, fld), f.coeffs, fld)[1]

    return UnivariatePolynomial(power(a.divmod(f)[1].coeffs, e, mulmod, [1]), fld)


def _equal_degree_factors(d, degree):
    """The monic irreducible factors of ``d``, a monic product of distinct
    irreducibles of one degree over F_q, by Cantor-Zassenhaus splitting.

    Each splitting polynomial a, nonconstant of degree below deg d, splits
    every factor g of degree above ``degree`` by gcd(g, t), with
    t = a^((q^degree - 1)/2) - 1 mod g for odd q, and the trace
    a + a^2 + ... + a^(2^(k*degree - 1)) mod g for q = 2^k.  The a are drawn
    from a fixed-seed generator, of degree below 2 * ``degree``: for two
    factors g1, g2 such an a mod g1 * g2 is uniform (Chinese remainders), so
    it tells them apart with probability about 1/2, and a short a keeps the
    first products of the power short.  64 * deg d tries fail only on a
    vanishingly unlikely draw, which raises.  (In encoding order a + c
    follows a, and for q = 2^k its trace differs from a's by the constant
    Tr(c), so it splits as a does: each useful a cost q tries.)  The factors
    are d's and do not depend on the draws.
    """
    if d.degree == degree:  # one factor: nothing to split or draw
        return [d]
    fld, q = d.field, d.field.q
    one = UnivariatePolynomial([1], fld)
    rng = random.Random(0)
    done, todo = [], [d]
    tries = 0
    while True:
        done += [g for g in todo if g.degree == degree]
        todo = [g for g in todo if g.degree > degree]
        if not todo:
            return done
        if tries == 64 * d.degree:
            raise InternalContradiction(f"no splitting polynomial splits {d!r}")
        tries += 1
        a = UnivariatePolynomial([rng.randrange(q) for _ in range(min(d.degree, 2 * degree))], fld)
        if a.degree < 1:
            continue
        split = []
        for g in todo:
            if fld.p == 2:
                t = term = a.divmod(g)[1]
                for _ in range(fld.k * degree - 1):
                    term = _power_mod(term, 2, g)
                    t = t + term
            else:
                t = _power_mod(a, (q ** degree - 1) // 2, g) - one
            h = poly_gcd(g, t)
            split += [h, g.divmod(h)[0]] if 0 < h.degree < g.degree else [g]
        todo = split


def _smallest_root(d, degree, target):
    """Smallest encoding in ``target`` of a root of ``d``, a monic product of
    distinct irreducibles of one degree J over F_q whose F_{q^J} lies in
    ``target``.

    A root r of an irreducible factor phi has norm r^M = (-1)^J phi(0) to
    F_q, M = (q^J - 1)/(q - 1).  With g the generator of ``target``, F_q* is
    the powers of g^b, b = (|target| - 1)/(q - 1), and F_{q^J}* those of g^a,
    a = (|target| - 1)/(q^J - 1).  So if the norm is g^(b*v), the roots of
    phi are among the M elements g^(a*(v + (q - 1)*t)), t < M.  Classes of
    distinct norms are disjoint.  d is evaluated at the sorted union of its
    factors' classes in one :func:`kernels.grid_eval` call; a d with d(0) = 0
    has the root 0.
    """
    if not d.coeffs[0]:
        return 0
    base, q = d.field, d.field.q
    logt, expt = target.tables
    a, b = (target.q - 1) // (q ** degree - 1), (target.q - 1) // (q - 1)
    norms = {phi.coeffs[0] if degree % 2 == 0 else base.neg(phi.coeffs[0])
             for phi in _equal_degree_factors(d, degree)}
    steps = (q - 1) * np.arange((q ** degree - 1) // (q - 1), dtype=np.int64)
    classes = [expt[a * (int(logt[embed(norm, base, target)]) // b + steps)] for norm in norms]
    idx = np.sort(np.concatenate(classes))
    de = d.map_coefficients(target)
    poly = MultivariatePolynomial(1, target, {(i,): c for i, c in enumerate(de.coeffs)})
    zeros = idx[kernels.grid_eval([poly], idx)[:, 0] == 0]
    if not len(zeros):
        raise InternalContradiction(f"no root of {d!r} in its norm classes")
    return int(zeros[0])


# ---------------------------------------------------------------------------
# text format

# parentheses the parser may nest: it descends two calls per level, so this
# keeps a parse well inside Python's default recursion limit
MAX_NESTING = 100

# variables a parsed polynomial may have: each term holds one exponent per
# variable, and a point of its ambient space one coordinate per variable
MAX_VARS = 10 ** 4

# terms a power or a product in the text may expand to, bounded from its
# operands before it is expanded
MAX_TERMS = 10 ** 5

# exponents the terms of a sum, a power or a product may hold: each term is
# one nvars-tuple, so this bounds the parser's memory at any variable count
MAX_TERM_ENTRIES = 10 ** 7


def _power_terms(t, e):
    """C(t+e-1, t-1), the monomials of degree e in t symbols, which bounds
    the terms of a t-term polynomial to the power e; the count stops once
    it passes ``MAX_TERMS``.  Step i makes it C(e+i, i)."""
    bound = 1
    for i in range(1, t):
        bound = bound * (e + i) // i
        if bound > MAX_TERMS:
            break
    return bound


def _term_count(coef, poly):
    """The terms of ``coef * poly``; ``poly`` None stands for 1."""
    return 0 if not coef else 1 if poly is None else len(poly.terms)


class _Parser:
    """Recursive descent over (whitespace, token) pairs, where a token is a
    run of decimal digits or one other character, and a last pair
    ``(trailing whitespace, "")`` marks the end of the text."""

    def __init__(self, text, nvars, field):
        self.toks = re.findall(r"(\s*)(\d+|\S)", text) + [(text[len(text.rstrip()):], "")]
        self.i = 0
        self.nvars = nvars
        self.field = field

    def error(self, msg, at_next=True):
        """Raise ParseError at the next token, or with ``at_next`` false
        just after the last token taken."""
        pos = sum(len(ws) + len(tok) for ws, tok in self.toks[:self.i])
        raise ParseError(msg, pos + len(self.toks[self.i][0]) if at_next else pos)

    def peek(self):
        return self.toks[self.i][1]

    def take(self, tok):
        if self.toks[self.i][1] == tok:
            self.i += 1
            return True
        return False

    def parse_int(self):
        sign = self.take("-")
        ws, tok = self.toks[self.i]
        if not tok.isdecimal() or sign and ws:
            self.error("expected an integer", at_next=not sign)
        try:
            value = int(tok)
        except ValueError:  # more digits than int() converts
            self.error(f"integer of {len(tok)} digits is too long")
        self.i += 1
        return -value if sign else value

    def check_entries(self, terms, what):
        if terms * self.nvars > MAX_TERM_ENTRIES:
            raise SpaceTooLarge(
                f"{what} of {terms} terms in {self.nvars} variables exceeds limit "
                f"{MAX_TERM_ENTRIES} exponents")

    def parse_expr(self):
        # the terms are merged into one polynomial in place: adding
        # polynomials would copy the running sum at every sign, quadratic in
        # its length
        neg = self.field.neg
        negate = self.take("-")
        if not negate:
            self.take("+")
        acc = MultivariatePolynomial(self.nvars, self.field)
        while True:
            pairs = self.parse_term()
            acc._merge(((e, neg(c)) for e, c in pairs) if negate else pairs)
            self.check_entries(len(acc.terms), "sum")
            ch = self.peek()
            if ch not in ("+", "-"):
                return acc
            self.i += 1
            negate = ch == "-"

    def check_expansion(self, bound, what):
        if bound > MAX_TERMS:
            raise SpaceTooLarge(f"{what} expands to more than {MAX_TERMS} terms")
        self.check_entries(bound, what)

    def parse_term(self):
        """A product of factors, as its (exponents, coefficient) pairs.
        Constants, coordinate lists and variable powers multiply into one
        monomial ``coef * x^exps``, parenthesized factors into ``poly``;
        each budget counts an operand's actual terms."""
        fld, nvars = self.field, self.nvars
        coef, exps, poly = 1, [0] * nvars, None
        first = True
        while first or self.take("*"):
            ch = self.peek()
            c, var, base = 1, None, None
            if ch == "(":
                self.i += 1
                base = self.parse_expr()
                if not self.take(")"):
                    self.error("expected ')'")
            elif ch == "[":
                self.i += 1
                coords = [self.parse_int()]
                while self.take(","):
                    coords.append(self.parse_int())
                if not self.take("]"):
                    self.error("expected ']'")
                if len(coords) > fld.k:
                    self.error(f"coordinate list longer than field degree {fld.k}",
                               at_next=False)
                c = fld.from_coords([x % fld.p for x in coords])
            elif ch == "x":
                self.i += 1
                var = self.parse_int()
                if var < 0 or var >= nvars:
                    self.error(f"variable x{var} out of range (nvars={nvars})",
                               at_next=False)
            elif ch.isdecimal() or ch == "-":
                c = self.parse_int() % fld.p
            else:
                self.error("expected a factor")
            e = 1
            if self.take("^"):
                e = self.parse_int()
                if e < 0:
                    self.error("negative exponent", at_next=False)
                self.check_expansion(_power_terms(_term_count(c, base), e), "power")
                if base is not None:
                    base = base ** e
                elif var is None:
                    c = fld.pow(c, e)
            if not first:
                self.check_expansion(
                    _term_count(coef, poly) * _term_count(c, base), "product")
            first = False
            if var is not None:
                exps[var] += e
            coef = fld.mul(coef, c)
            if base is not None and coef:
                poly = base if poly is None else poly * base
        if not coef:
            return []
        if poly is None:
            return [(tuple(exps), coef)]
        return [(tuple(map(operator.add, pe, exps)), fld.mul(coef, pc))
                for pe, pc in poly.terms.items()]


def count_variables(text):
    """Highest variable index mentioned, plus one."""
    try:
        indices = [int(m) for m in re.findall(r"x(\d+)", text)]
    except ValueError:  # an index of more digits than int() converts
        raise SpaceTooLarge(f"variable count exceeds limit {MAX_VARS}") from None
    return (max(indices) + 1) if indices else 0


def _check_nesting(text):
    """Raise ParseError where the parentheses of ``text`` first nest deeper
    than ``MAX_NESTING``."""
    depth = 0
    for m in re.finditer(r"[()]", text):
        depth += 1 if m.group() == "(" else -1
        if depth > MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", m.start())


def parse_polynomial(text, field, nvars=None):
    """Parse the package text format into a MultivariatePolynomial."""
    _check_nesting(text)
    if nvars is None:
        nvars = max(count_variables(text), 1)
    if nvars > MAX_VARS:
        raise SpaceTooLarge(f"variable count exceeds limit {MAX_VARS}")
    parser = _Parser(text, nvars, field)
    poly = parser.parse_expr()
    if parser.peek():
        parser.error("trailing input")
    return poly


def to_univariate(poly):
    """Convert a one-variable MultivariatePolynomial to dense form."""
    if poly.nvars != 1:
        raise ArityMismatch("expected a single-variable polynomial")
    coeffs = [0] * (poly.total_degree() + 1)
    for (e,), c in poly.terms.items():
        coeffs[e] = c
    return UnivariatePolynomial(coeffs, poly.field)


def homogeneous_or_raise(poly, what="polynomial"):
    if not poly.is_homogeneous():
        raise NotHomogeneous(f"{what} must be homogeneous")
    return poly
