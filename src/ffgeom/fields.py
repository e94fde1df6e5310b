"""Finite fields F_{p^k} with deterministic moduli and integer-encoded elements.

An element of F_{p^k} is encoded as an integer in [0, p^k): the mixed-radix
encoding of its coordinate vector (c_0, ..., c_{k-1}) over F_p with respect to
the power basis 1, g, ..., g^{k-1} of the generator g, constant coordinate in
the lowest digit.  The all-zero vector encodes to 0 and the unit to 1, so
``range(q)`` enumerates the field in canonical order.

Every field up to the size limit has one pair of discrete-log tables
(:attr:`FiniteField.tables`), built on first use.  The grid kernel's terms
multiply through them in every field, and scalar arithmetic in extension
fields; prime fields multiply scalars mod p.  A field's construction runs
on matrices over F_p: the modulus search tests batches of candidates with
one remainder product per block of divisors, the generator search powers
each candidate's multiplication matrix, and the tables double on an array
of coordinates with the square of the last step's matrix.  The same
multiplication matrices, of whole arrays of elements, carry the kernel's
block products over F_p.

Coefficient lists (low degree first) have one product, :func:`poly_mul`,
and one quotient with remainder, :func:`poly_divmod`; over F_p each takes a
branch of plain integer operations mod p in place of the field's methods.
"""

import operator
from functools import lru_cache, cached_property

import numpy as np

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InternalContradiction,
    InvalidBaseDegree,
    NoEmbedding,
    NotPrime,
    ParseError,
    SizeLimitExceeded,
)

DEFAULT_SIZE_LIMIT = 2 ** 20

# table entries written per vectorised step of the doubling build: scratch
# beyond the tables is (q - 1) * k bytes of coordinates plus one run of
# O(rows * k) int64s, at any field size
_TABLE_ROWS = 2 ** 16

# remainder coefficients per block of divisors in the modulus search (d for
# each of degree d): for a field of at most 2^20 elements the p^d divisors
# of each degree d <= k/2 fit in one block
_MODULUS_COLUMNS = 2 ** 10 * 10


def _prime_factors(n):
    """Distinct prime factors of n in ascending order, by trial division
    (none for n < 2): of q - 1, and of a plain prime-power field size."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _base_p(m, p, k):
    """The k lowest base-p digits of m, lowest first."""
    out = []
    for _ in range(k):
        out.append(m % p)
        m //= p
    return out


def _is_prime(n):
    """Miller-Rabin with the first 13 primes as bases, which is exact for
    n < 3317044064679887385961981; False for every larger n."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or n >= 3317044064679887385961981:
        return False
    if n in bases:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def digits(a, p, k):
    """Coordinates over F_p of the encodings in the int64 array ``a`` (each
    below p^k), constant coordinate first, on a new first axis: one
    contiguous array per coordinate."""
    a = np.asarray(a, dtype=np.int64)
    out = np.empty((k,) + a.shape, dtype=np.int64)
    for i in range(k - 1):
        quo = a // p
        np.subtract(a, quo * p, out=out[i, ...])
        a = quo
    out[-1] = a
    return out


def _remainder_table(p, k, d, divisors):
    """int64 array (k + 1) x d x len(divisors) whose entry [i, j, c] is
    coefficient j of x^i mod the monic degree-d polynomial with low
    coefficients the base-p digits of ``divisors[c]``.  Below d a row is x^i
    itself; each later row is the last one times x, reduced."""
    low = divisors // p ** np.arange(d, dtype=np.int64)[:, None] % p
    out = np.zeros((k + 1, d, len(divisors)), dtype=np.int64)
    for i in range(d):
        out[i, i] = 1
    for i in range(d, k + 1):
        out[i, 1:] = out[i - 1, :-1]
        out[i] -= out[i - 1, -1] * low
        out[i] %= p
    return out


def _double(exp, mat, p):
    """Fill ``exp`` from ``exp[0]`` = 1 with the powers of g by doubling:
    g^0 .. g^(m-1) times g^m give g^m .. g^(2m-1).  ``mat`` is the k x k
    int64 matrix over F_p of a -> a * g^m on coordinate rows, squared after
    each step.  Each step reads and writes runs of at most ``_TABLE_ROWS``
    entries: of coordinate rows when ``exp`` is two-dimensional, else of
    encodings, XOR of the images of the set bits in characteristic 2 and
    times g^m mod p in a prime field."""
    pw = p ** np.arange(len(mat), dtype=np.int64)
    m, total = 1, len(exp)
    while m < total:
        n = min(m, total - m)
        for start in range(0, n, _TABLE_ROWS):
            run = exp[start:min(start + _TABLE_ROWS, n)]
            out = exp[m + start:m + start + len(run)]  # no scratch outlives the run
            if exp.ndim == 2:
                out[:] = run @ mat % p
            elif p == 2:
                out[:] = 0
                for i, c in enumerate((mat @ pw).tolist()):
                    out ^= -((run >> i) & 1) & c
            else:
                out[:] = run * mat[0, 0] % p
        m += n
        mat = mat @ mat % p


def poly_mul(u, v, fld):
    """Product of two coefficient lists over ``fld``, low degree first, with
    len(u) + len(v) - 1 entries; the loop over ``u`` is the outer one."""
    out = [0] * (len(u) + len(v) - 1)
    if fld.k == 1:
        p = fld.p
        for i, c in enumerate(u):
            if c:
                for j, b in enumerate(v, i):
                    out[j] = (out[j] + c * b) % p
        return out
    add, mul = fld.add, fld.mul
    for i, c in enumerate(u):
        if c:
            for j, b in enumerate(v, i):
                out[j] = add(out[j], mul(c, b))
    return out


def poly_divmod(num, den, fld):
    """Quotient and remainder of ``num`` by ``den``, whose last entry is
    nonzero, over ``fld``.  The remainder keeps its zeros: it has
    min(len(num), len(den) - 1) entries.  Step i cancels entry i and then
    reads only below it."""
    dd = len(den) - 1
    low = den[:dd]
    rem = list(num)
    quo = [0] * (len(rem) - dd)
    if fld.k == 1:
        p, lead = fld.p, den[-1]
        inv = 1 if lead == 1 else pow(lead, -1, p)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                c = quo[i - dd] = c * inv % p
                for j, b in enumerate(low, i - dd):
                    rem[j] = (rem[j] - c * b) % p
        return quo, rem[:dd]
    sub, mul = fld.sub, fld.mul
    inv = fld.inv(den[-1])
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            c = quo[i - dd] = mul(c, inv)
            for j, b in enumerate(low, i - dd):
                rem[j] = sub(rem[j], mul(c, b))
    return quo, rem[:dd]


def power(x, e, mul, one=1):
    """x^e for an integer e >= 0 by square-and-multiply: ``mul`` is the
    product and ``one`` its identity.  The last squaring, whose square no
    step reads, is skipped."""
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


class FiniteField:
    """Descriptor and arithmetic for F_{p^k}.

    Use :func:`make_field`; direct construction skips the instance cache.
    """

    def __init__(self, p, k, size_limit=DEFAULT_SIZE_LIMIT):
        if p > size_limit:  # checked before the primality test of p
            raise SizeLimitExceeded(f"p = {p} exceeds limit {size_limit}")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise SizeLimitExceeded("degree must be >= 1")
        # p^k >= 2^k, so a huge k is rejected before p^k is computed
        if k >= size_limit.bit_length() or p ** k > size_limit:
            raise SizeLimitExceeded(f"p^k = {p}^{k} exceeds limit {size_limit}")
        # construction multiplies int64 matrices over F_p: each entry of a
        # product is a sum of at most k + 1 products below p^2
        if (k + 1) * (p - 1) ** 2 >= 2 ** 63:
            raise SizeLimitExceeded(f"p = {p} is too large for int64 arithmetic")
        q = p ** k
        self.p = p
        self.k = k
        self.q = q
        self.modulus = None if k == 1 else self._find_modulus(p, k)

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _find_modulus(p, k):
        """First irreducible monic degree-k polynomial, constant digit
        fastest: no monic divisor of degree 1..k/2 leaves remainder zero.

        Candidates are tested in batches that grow from 32, so an early hit
        costs one small product.  The divisors go in blocks of one degree d
        and at most ``_MODULUS_COLUMNS`` remainder coefficients: a batch's
        coefficient rows times a block's :func:`_remainder_table`, mod p,
        give every remainder at once, and a candidate with an all-zero
        remainder drops out before the next block."""
        blocks = []
        for d in range(1, k // 2 + 1):
            step = _MODULUS_COLUMNS // d
            blocks += [_remainder_table(p, k, d, np.arange(lo, min(lo + step, p ** d),
                                                            dtype=np.int64))
                       for lo in range(0, p ** d, step)]
        pw = p ** np.arange(k, dtype=np.int64)
        start, size = 0, 32
        while start < p ** k:
            m = np.arange(start, min(start + size, p ** k), dtype=np.int64)
            rows = np.ones((len(m), k + 1), dtype=np.int64)
            rows[:, :k] = m[:, None] // pw % p
            for table in blocks:
                rem = (rows @ table.reshape(k + 1, -1) % p).reshape(len(rows), *table.shape[1:])
                rows = rows[rem.any(axis=1).all(axis=1)]
            if len(rows):
                return tuple(rows[0].tolist())
            start, size = start + size, 2 * size
        raise InternalContradiction(f"no irreducible polynomial of degree {k} over F_{p}")

    # -- identity ---------------------------------------------------------

    def __repr__(self):
        return f"FiniteField({self.p}^{self.k})"

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    # -- element encoding -------------------------------------------------

    def coords(self, a):
        """Coordinate vector of length k over F_p, constant coordinate first."""
        return _base_p(a, self.p, self.k)

    def from_coords(self, coords):
        if len(coords) > self.k:
            raise FieldMismatch(f"coordinate vector too long for {self!r}")
        p, a = self.p, 0
        for c in reversed(coords):
            a = a * p + c % p
        return a

    def enumerate_elements(self):
        return range(self.q)

    def element_str(self, a):
        if self.k == 1:
            return str(a)
        parts = []
        for i, c in enumerate(self.coords(a)):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "g" if i == 1 else f"g^{i}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(parts) if parts else "0"

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        """a + b for ints or int64 arrays of encodings (never changed in place):
        mod p in prime fields, XOR in characteristic 2, else digit by digit."""
        p = self.p
        if self.k == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        return self._digitwise(operator.add, a, b)

    def neg(self, a):
        """Negation by the same rules as :meth:`add`."""
        return self.sub(0, a)

    def sub(self, a, b):
        """Difference by the same rules as :meth:`add`."""
        if self.k == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self._digitwise(operator.sub, a, b)

    def _digitwise(self, op, a, b):
        """``op`` on each pair of base-p digits of a and b, mod p."""
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out = out + op(a, b) % p * mult
            a = a // p
            b = b // p
            mult *= p
        return out

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        log, exp = self._dlog
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.k == 1:
            return pow(a, -1, self.p)
        log, exp = self._dlog
        return exp[-log[a] % (self.q - 1)]

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        return power(a, e, self.mul)

    def frobenius(self, a, base_degree=1):
        """a ^ (p^base_degree); base_degree must divide k."""
        if base_degree < 1 or self.k % base_degree != 0:
            raise InvalidBaseDegree(
                f"base degree {base_degree} does not divide {self.k}"
            )
        return self.pow(a, self.p ** base_degree)

    # -- discrete-log tables -----------------------------------------------

    @cached_property
    def tables(self):
        """Discrete-log tables ``(log, exp)`` as int64 arrays, 16 bytes per
        element.

        ``exp[i]`` encodes g^i for the generator g and ``log`` inverts
        ``exp`` (``log[0]`` is 0 and meaningless).  :func:`_double` fills
        ``exp`` in about log2(q) vectorised steps and no scalar product.  In
        a prime field and in characteristic 2 it doubles the encodings
        themselves; otherwise it doubles a (q-1) x k array of coordinates,
        one byte each for p < 256 and two above, which is encoded once at
        the end.
        """
        p, k, q = self.p, self.k, self.q
        mat = self._mul_matrix(self.generator())
        if k == 1 or p == 2:
            exp = np.empty(q - 1, dtype=np.int64)
            exp[0] = 1
            _double(exp, mat, p)
        else:
            coords = np.zeros((q - 1, k), dtype=np.uint8 if p < 256 else np.uint16)
            coords[0, 0] = 1
            _double(coords, mat, p)
            exp = np.zeros(q - 1, dtype=np.int64)
            for i in reversed(range(k)):  # Horner over the digits, in place
                exp *= p
                exp += coords[:, i]
            del coords  # before log is allocated
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        return log, exp

    def _mul_matrix(self, a):
        """k x k int64 matrix over F_p of b -> a * b on coordinate rows: row
        i holds the coordinates of a * x^i, each row the last one times x
        reduced by the modulus."""
        p = self.p
        row = self.coords(a)
        rows = [row]
        for _ in range(self.k - 1):
            top = row[-1]
            row = [(c - top * f) % p for c, f in zip([0] + row[:-1], self.modulus)]
            rows.append(row)
        return np.array(rows, dtype=np.int64)

    def _mul_matrices(self, a):
        """:meth:`_mul_matrix` of every entry of the int64 array ``a``, of
        shape a.shape + (k, k): the lift of F_q into k x k blocks over F_p.
        a -> M_a is F_p-linear, so M_a is the coordinates of a times the
        matrices of the basis 1, x, ..., x^(k-1)."""
        p, k = self.p, self.k
        out = np.zeros(np.shape(a) + (k, k), dtype=np.int64)
        for i, coord in enumerate(digits(a, p, k)):
            out += coord[..., None, None] * self._mul_matrix(p ** i)
        out %= p
        return out

    @cached_property
    def _dlog(self):
        """:attr:`tables` as memoryviews, whose items are Python ints, for
        scalar lookups without a second copy of the tables."""
        return tuple(memoryview(t) for t in self.tables)

    def generator(self):
        """First element (enumeration order) generating the multiplicative group.

        In an extension field the candidates start at p: the elements below
        it form F_p, whose orders divide p - 1 < q - 1.  A candidate is a
        generator when a^((q-1)/r) != 1 for every prime r | q - 1.  The
        search runs once per field, without tables; :attr:`tables` starts
        from the same element."""
        return self._generator

    @cached_property
    def _generator(self):
        """Each candidate a is tested by powers of its multiplication matrix
        M_a over F_p (1 x 1 in a prime field): a -> M_a is an injective ring
        homomorphism, so a^e = 1 exactly when M_a^e is the identity."""
        p, k, n = self.p, self.k, self.q - 1
        if n == 1:
            return 1
        factors = _prime_factors(n)
        one = np.eye(k, dtype=np.int64)
        for cand in range(2 if k == 1 else p, self.q):
            mat = self._mul_matrix(cand)
            if not any(np.array_equal(power(mat, n // f, lambda a, b: a @ b % p, one), one)
                       for f in factors):
                return cand
        raise InternalContradiction(f"no generator of the multiplicative group of {self!r}")


@lru_cache(maxsize=None)
def _make_field_cached(p, k):
    # the benchmark's field cache swaps in a FiniteField that takes size_limit
    return FiniteField(p, k, size_limit=DEFAULT_SIZE_LIMIT)


def make_field(p, k=1):
    """Canonical descriptor for F_{p^k}; repeated calls return the same object."""
    return _make_field_cached(p, k)


def parse_field_spec(spec):
    """Parse 'p^k' or a plain prime-power cardinality into a field.  Each
    part is a run of decimal digits, as in a polynomial."""
    parts = [part.strip() for part in str(spec).split("^", 1)]
    if not all(part.isdecimal() for part in parts):
        raise ParseError(f"field {spec!r} is not p^k or q in decimal digits")
    try:
        nums = [int(part) for part in parts]
    except ValueError:
        # more digits than int() converts: far past any size limit
        raise SizeLimitExceeded(f"p^k with a {max(map(len, parts))}-digit number "
                                f"exceeds limit {DEFAULT_SIZE_LIMIT}") from None
    if len(nums) == 2:
        return make_field(*nums)
    q = nums[0]
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    if q > DEFAULT_SIZE_LIMIT:
        raise SizeLimitExceeded(f"p^k = {q} exceeds limit {DEFAULT_SIZE_LIMIT}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p, k = factors[0], 1
    while p ** k < q:
        k += 1
    return make_field(p, k)


@lru_cache(maxsize=None)
def _embedding_powers(sub, sup):
    if sub.p != sup.p or sup.k % sub.k != 0:
        raise NoEmbedding(f"no embedding {sub!r} -> {sup!r}")
    if sub == sup:
        return None
    if sub.k == 1:
        return None
    # image of sub's generator: the smallest root of sub's modulus, an
    # irreducible of degree sub.k over F_p, in sup (imported here:
    # polynomials imports this module)
    from .polynomials import UnivariatePolynomial, _smallest_root

    img = _smallest_root(UnivariatePolynomial(sub.modulus, make_field(sub.p)), sub.k, sup)
    powers = [1]
    for _ in range(sub.k - 1):
        powers.append(sup.mul(powers[-1], img))
    return tuple(powers)


def embed(a, sub, sup):
    """Image of ``a`` under the canonical embedding of ``sub`` into ``sup``."""
    powers = _embedding_powers(sub, sup)
    if powers is None:
        # identity or prime-subfield case: coordinates carry over directly
        return a
    out = 0
    for c, gp in zip(sub.coords(a), powers):
        if c:
            out = sup.add(out, sup.mul(c, gp))
    return out
