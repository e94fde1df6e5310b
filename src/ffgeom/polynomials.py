"""Sparse multivariate and dense univariate polynomials over finite fields.

Coefficients are integer-encoded field elements (see :mod:`ffgeom.fields`).
The text format accepted by :func:`parse_polynomial`:

    terms joined by '+' or '-'; a term is a product of factors joined by '*';
    a factor is an integer coefficient, a bracketed coordinate list
    '[c0,c1,...]' over the power basis, a variable power 'x<i>^<e>', or a
    parenthesized subexpression.  Whitespace is insignificant.
"""

from .errors import (
    ArityMismatch,
    BothZero,
    FieldMismatch,
    NotHomogeneous,
    ParseError,
    ZeroPolynomial,
)
from .fields import embed, make_field


class MultivariatePolynomial:
    """Sparse map from exponent vectors to nonzero coefficients."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars, field, terms=None):
        self.nvars = nvars
        self.field = field
        self.terms = {}
        if terms:
            for exps, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    exps = tuple(exps)
                    if len(exps) != nvars:
                        raise ArityMismatch("exponent vector length mismatch")
                    cur = self.terms.get(exps)
                    if cur is None:
                        self.terms[exps] = c
                    else:
                        s = field.add(cur, c)
                        if s:
                            self.terms[exps] = s
                        else:
                            del self.terms[exps]

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, c, nvars, field):
        return cls(nvars, field, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, i, nvars, field):
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, field, {exps: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

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
        out = dict(self.terms)
        fld = self.field
        for e, c in other.terms.items():
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                s = fld.add(cur, c)
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultivariatePolynomial(self.nvars, fld, out)

    def __neg__(self):
        fld = self.field
        return MultivariatePolynomial(
            self.nvars, fld, {e: fld.neg(c) for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        fld = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = fld.mul(c1, c2)
                cur = out.get(e)
                if cur is None:
                    out[e] = c
                else:
                    s = fld.add(cur, c)
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return MultivariatePolynomial(self.nvars, fld, out)

    def scale(self, c):
        fld = self.field
        if c == 0:
            return MultivariatePolynomial(self.nvars, fld)
        return MultivariatePolynomial(
            self.nvars, fld, {e: fld.mul(c, v) for e, v in self.terms.items()}
        )

    def __pow__(self, e):
        out = MultivariatePolynomial.constant(1, self.nvars, self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            if e > 1:
                base = base * base
            e >>= 1
        return out

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
        ring of the result.
        """
        if len(replacements) != self.nvars:
            raise ArityMismatch("one replacement per variable required")
        if not replacements:
            raise ArityMismatch("zero-variable substitution unsupported")
        target_nvars = replacements[0].nvars
        fld = replacements[0].field
        out = MultivariatePolynomial(target_nvars, fld)
        powers = [{} for _ in range(self.nvars)]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = replacements[i] ** e
            return cache[e]

        for exps, c in self.terms.items():
            term = MultivariatePolynomial.constant(c, target_nvars, fld)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    def eliminate(self, var, replacement):
        """Substitute a polynomial in the *remaining* variables for ``var``
        and drop that variable, reindexing the ones above it down by one.

        ``replacement`` must be a polynomial in nvars-1 variables.
        """
        n = self.nvars
        reps = []
        for i in range(n):
            if i == var:
                reps.append(replacement)
            else:
                j = i if i < var else i - 1
                reps.append(
                    MultivariatePolynomial.variable(j, n - 1, self.field)
                )
        return self.substitute(reps)

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
        fld = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = fld.add(fld.mul(acc, x), c)
        return acc

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
        inv = self.field.inv(self.coeffs[-1])
        return UnivariatePolynomial(
            [self.field.mul(inv, c) for c in self.coeffs], self.field
        )

    def divmod(self, other):
        fld = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = other.degree
        lead_inv = fld.inv(other.coeffs[-1])
        quo = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                f = fld.mul(c, lead_inv)
                quo[i - dd] = f
                for j in range(dd + 1):
                    rem[i - dd + j] = fld.sub(rem[i - dd + j], fld.mul(f, other.coeffs[j]))
        return (
            UnivariatePolynomial(quo, fld),
            UnivariatePolynomial(rem[:dd] if dd else [], fld),
        )


def poly_gcd(f, g):
    """Monic Euclidean gcd; independent oracle for the resultant."""
    while not g.is_zero():
        f, g = g, f.divmod(g)[1]
    return f.monic()


def _det_generic(matrix, zero, add, sub, mul, is_zero):
    """Cofactor-expansion determinant; entries from any commutative ring."""
    n = len(matrix)
    if n == 0:
        return None
    if n == 1:
        return matrix[0][0]

    def rec(rows, cols):
        if len(cols) == 1:
            return matrix[rows[0]][cols[0]]
        r = rows[0]
        acc = zero
        sign = 1
        for idx, c in enumerate(cols):
            a = matrix[r][c]
            if not is_zero(a):
                minor = rec(rows[1:], cols[:idx] + cols[idx + 1:])
                term = mul(a, minor)
                acc = add(acc, term) if sign > 0 else sub(acc, term)
            sign = -sign
        return acc

    return rec(tuple(range(n)), tuple(range(n)))


def rank_and_det(matrix, field):
    """Rank of a matrix of field elements and, when it is square, its
    determinant (0 for a non-square matrix).

    Fraction-free (Bareiss) elimination: step k replaces each entry below
    and right of the pivot p_k by (p_k*a - b*c) / p_{k-1}, which stays a
    minor of the input, so the last pivot of a square matrix of full rank
    is its determinant up to the sign of the row swaps.  The division is
    one inversion per step after the first, and none when p_{k-1} = 1.  A
    column without a pivot is skipped, which leaves the rank exact and the
    determinant 0.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rows = [list(r) for r in matrix]
    mul, sub = field.mul, field.sub
    rank = 0
    sign = 1
    prev = p = 1
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
        p = prow[col]
        rank += 1
        if rank == nrows:
            break
        inv_prev = 1 if prev == 1 else field.inv(prev)
        for i in range(rank, nrows):
            row = rows[i]
            a = row[col]
            for j in range(col + 1, ncols):
                v = mul(p, row[j])
                if a:
                    v = sub(v, mul(a, prow[j]))
                row[j] = v if inv_prev == 1 else mul(v, inv_prev)
        prev = p
    if rank < nrows or nrows != ncols:
        return rank, 0
    return rank, (p if sign > 0 else field.neg(p))


def det_scalar(matrix, field):
    """Determinant of a square matrix of field elements."""
    return rank_and_det(matrix, field)[1]


def interpolate(xs, ys, field):
    """The polynomial of degree < len(xs) through the points (x_i, y_i).

    Newton's incremental form: with N the interpolant of the first k points
    and B = prod_{j<k} (x - x_j), the next one is
    N + (y_k - N(x_k)) / B(x_k) * B.  One inversion per point.
    """
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation needs distinct abscissae")
    if len(ys) != len(xs):
        raise ValueError("one ordinate per abscissa required")
    add, sub, mul = field.add, field.sub, field.mul
    interp = UnivariatePolynomial([], field)
    basis = UnivariatePolynomial([1], field)
    for x, y in zip(xs, ys):
        scale = mul(sub(y, interp.eval(x)), field.inv(basis.eval(x)))
        if scale:
            low = interp.coeffs + [0] * (len(basis.coeffs) - len(interp.coeffs))
            interp = UnivariatePolynomial(
                [add(c, mul(scale, b)) for c, b in zip(low, basis.coeffs)], field
            )
        # basis *= (t - x)
        b = basis.coeffs
        basis = UnivariatePolynomial(
            [sub(s, mul(x, c)) for s, c in zip([0] + b, b + [0])], field
        )
    return interp


def det_poly(matrix, nvars, field):
    """Determinant of a matrix of MultivariatePolynomial entries, by
    cofactors; only the small symbolic minors of the Grassmannian cell use
    it."""
    zero = MultivariatePolynomial(nvars, field)
    d = _det_generic(
        matrix,
        zero,
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a: a.is_zero(),
    )
    return zero if d is None else d


def sylvester_matrix(fc, gc, m, n):
    """(m+n) x (m+n) Sylvester matrix from coefficient lists (low degree
    first, padded to declared degrees m = deg f, n = deg g); f-rows first.
    Entries are whatever the coefficient lists contain."""
    size = m + n
    frow = list(reversed(fc))  # high degree first
    grow = list(reversed(gc))
    rows = []
    for i in range(n):
        rows.append([None] * i + frow + [None] * (size - i - len(frow)))
    for i in range(m):
        rows.append([None] * i + grow + [None] * (size - i - len(grow)))
    return rows


def sylvester_resultant(f, g):
    """Resultant of two univariate polynomials over the same field."""
    if f.field != g.field:
        raise FieldMismatch("resultant requires a common field")
    if f.is_zero() and g.is_zero():
        raise BothZero("resultant of two zero polynomials")
    if f.is_zero() or g.is_zero():
        return 0
    fld = f.field
    m, n = f.degree, g.degree
    if m + n == 0:
        return 1  # two nonzero constants
    rows = sylvester_matrix(f.coeffs, g.coeffs, m, n)
    mat = [[0 if e is None else e for e in row] for row in rows]
    return det_scalar(mat, fld)


def find_root_in_tower(f, max_degree, size_limit=None):
    """Scan F_{q^j} for j = 1..max_degree for the first root of ``f``.

    Returns (root, extension_field, j) or None when no root exists within
    the bound.
    """
    if f.is_zero() or f.degree < 1:
        raise ZeroPolynomial("root search needs a nonconstant polynomial")
    base = f.field
    for j in range(1, max_degree + 1):
        kwargs = {"size_limit": size_limit} if size_limit else {}
        ext = make_field(base.p, base.k * j, **kwargs)
        fe = f.map_coefficients(ext)
        for x in ext.enumerate_elements():
            if fe.eval(x) == 0:
                return x, ext, j
    return None


# ---------------------------------------------------------------------------
# text format


class _Parser:
    def __init__(self, text, nvars, field):
        self.text = text
        self.pos = 0
        self.nvars = nvars
        self.field = field

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse_int(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def parse_expr(self):
        if self.take("-"):
            acc = -self.parse_term()
        else:
            self.take("+")
            acc = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self.parse_term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self.parse_term()
            else:
                return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self):
        base = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            e = self.parse_int()
            if e < 0:
                self.error("negative exponent")
            base = base ** e
        return base

    def parse_base(self):
        ch = self.peek()
        fld = self.field
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            if not self.take(")"):
                self.error("expected ')'")
            return inner
        if ch == "[":
            self.pos += 1
            coords = [self.parse_int()]
            while self.take(","):
                coords.append(self.parse_int())
            if not self.take("]"):
                self.error("expected ']'")
            if len(coords) > fld.k:
                self.error(f"coordinate list longer than field degree {fld.k}")
            c = fld.from_coords([x % fld.p for x in coords])
            return MultivariatePolynomial.constant(c, self.nvars, fld)
        if ch == "x":
            self.pos += 1
            i = self.parse_int()
            if i < 0 or i >= self.nvars:
                self.error(f"variable x{i} out of range (nvars={self.nvars})")
            return MultivariatePolynomial.variable(i, self.nvars, fld)
        if ch.isdigit() or ch == "-":
            v = self.parse_int()
            return MultivariatePolynomial.constant(v % fld.p, self.nvars, fld)
        self.error("expected a factor")


def count_variables(text):
    """Highest variable index mentioned, plus one."""
    import re

    indices = [int(m) for m in re.findall(r"x(\d+)", text)]
    return (max(indices) + 1) if indices else 0


def parse_polynomial(text, field, nvars=None):
    """Parse the package text format into a MultivariatePolynomial."""
    if nvars is None:
        nvars = max(count_variables(text), 1)
    parser = _Parser(text, nvars, field)
    poly = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
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
