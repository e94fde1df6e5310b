"""Finite fields F_{p^k} with deterministic moduli and integer-encoded elements.

An element of F_{p^k} is encoded as an integer in [0, p^k): the mixed-radix
encoding of its coordinate vector (c_0, ..., c_{k-1}) over F_p with respect to
the power basis 1, g, ..., g^{k-1} of the generator g, constant coordinate in
the lowest digit.  The all-zero vector encodes to 0 and the unit to 1, so
``range(q)`` enumerates the field in canonical order.
"""

from functools import lru_cache, cached_property

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidBaseDegree,
    NoEmbedding,
    NotPrime,
    SizeLimitExceeded,
)

DEFAULT_SIZE_LIMIT = 2 ** 20

# Discrete-log tables are only built for fields this small; larger fields fall
# back to direct polynomial arithmetic.
_DLOG_LIMIT = 2 ** 16


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FiniteField:
    """Descriptor and arithmetic for F_{p^k}.

    Use :func:`make_field`; direct construction skips the instance cache.
    """

    def __init__(self, p, k, size_limit=DEFAULT_SIZE_LIMIT):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise SizeLimitExceeded("degree must be >= 1")
        q = p ** k
        if q > size_limit:
            raise SizeLimitExceeded(f"p^k = {q} exceeds limit {size_limit}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = None if k == 1 else self._find_modulus(p, k)
        if self.modulus is not None:
            # reduction of g^j for j = k .. 2k-2, as digit vectors
            self._red = self._reduction_rows()

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _poly_is_irreducible(coeffs, p):
        """Trial division of a monic polynomial (dense, low-to-high) over F_p."""
        k = len(coeffs) - 1
        if k == 1:
            return True

        def divides(div):
            # synthetic long division, returns True when remainder is zero
            rem = list(coeffs)
            dd = len(div) - 1
            for i in range(len(rem) - 1, dd - 1, -1):
                c = rem[i]
                if c:
                    for j in range(dd + 1):
                        rem[i - dd + j] = (rem[i - dd + j] - c * div[j]) % p
            return all(c == 0 for c in rem[:dd])

        for deg in range(1, k // 2 + 1):
            for m in range(p ** deg):
                div = []
                mm = m
                for _ in range(deg):
                    div.append(mm % p)
                    mm //= p
                div.append(1)
                if divides(div):
                    return False
        return True

    @classmethod
    def _find_modulus(cls, p, k):
        """First irreducible monic degree-k polynomial, constant digit fastest."""
        for m in range(p ** k):
            coeffs = []
            mm = m
            for _ in range(k):
                coeffs.append(mm % p)
                mm //= p
            coeffs.append(1)
            if cls._poly_is_irreducible(coeffs, p):
                return tuple(coeffs)
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def _reduction_rows(self):
        p, k = self.p, self.k
        rows = []
        # g^k = -(modulus minus leading term)
        cur = [(-c) % p for c in self.modulus[:k]]
        rows.append(tuple(cur))
        for _ in range(k - 2):
            nxt = [0] * k
            carry = cur[k - 1]
            for i in range(k - 1):
                nxt[i + 1] = cur[i]
            if carry:
                for i in range(k):
                    nxt[i] = (nxt[i] + carry * rows[0][i]) % p
            rows.append(tuple(nxt))
            cur = nxt
        return rows

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
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def from_coords(self, coords):
        if len(coords) > self.k:
            raise FieldMismatch(f"coordinate vector too long for {self!r}")
        a = 0
        for c in reversed(coords):
            a = a * self.p + c % self.p
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
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def _mul_slow(self, a, b):
        p, k = self.p, self.k
        da, db = self.coords(a), self.coords(b)
        prod = [0] * (2 * k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce degrees >= k
        digits = prod[:k]
        for j in range(k, 2 * k - 1):
            c = prod[j]
            if c:
                row = self._red[j - k]
                for i in range(k):
                    digits[i] = (digits[i] + c * row[i]) % p
        return self.from_coords(digits)

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        tabs = self._dlog
        if tabs is not None:
            log, exp = tabs
            return exp[(log[a] + log[b]) % (self.q - 1)]
        return self._mul_slow(a, b)

    def inv(self, a):
        """Multiplicative inverse: a table lookup when the discrete-log tables
        exist, else an extended gcd with the modulus."""
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.k == 1:
            return pow(a, -1, self.p)
        tabs = self._dlog
        if tabs is not None:
            log, exp = tabs
            return exp[-log[a] % (self.q - 1)]
        # extended Euclid in F_p[t] between the element and the modulus
        p = self.p

        def pdeg(c):
            for i in range(len(c) - 1, -1, -1):
                if c[i]:
                    return i
            return -1

        def pdivmod(num, den):
            num = list(num)
            dd = pdeg(den)
            lead_inv = pow(den[dd], -1, p)
            quo = [0] * (max(len(num) - dd, 1))
            for i in range(pdeg(num), dd - 1, -1):
                c = num[i]
                if c:
                    f = (c * lead_inv) % p
                    quo[i - dd] = f
                    for j in range(dd + 1):
                        num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
            return quo, num

        r0, r1 = list(self.modulus), self.coords(a)
        s0, s1 = [0], [1]
        while pdeg(r1) > 0:
            quo, rem = pdivmod(r0, r1)
            r0, r1 = r1, rem
            # s0 - quo*s1
            ns = list(s0) + [0] * max(0, len(quo) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(quo):
                if qc:
                    for j, sc in enumerate(s1):
                        if sc:
                            idx = i + j
                            if idx >= len(ns):
                                ns.extend([0] * (idx + 1 - len(ns)))
                            ns[idx] = (ns[idx] - qc * sc) % p
            s0, s1 = s1, ns
        c = r1[0]  # nonzero constant since modulus is irreducible
        cinv = pow(c, -1, p)
        digits = [(cinv * (s1[i] if i < len(s1) else 0)) % p for i in range(self.k)]
        return self.from_coords(digits)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a, base_degree=1):
        """a ^ (p^base_degree); base_degree must divide k."""
        if base_degree < 1 or self.k % base_degree != 0:
            raise InvalidBaseDegree(
                f"base degree {base_degree} does not divide {self.k}"
            )
        return self.pow(a, self.p ** base_degree)

    # -- discrete-log tables -----------------------------------------------

    @cached_property
    def _dlog(self):
        if self.k == 1 or self.q > _DLOG_LIMIT:
            return None
        gen = self.generator()
        exp = [0] * (self.q - 1)
        log = [0] * self.q
        cur = 1
        for i in range(self.q - 1):
            exp[i] = cur
            log[cur] = i
            cur = self._mul_slow(cur, gen)
        return log, exp

    def generator(self):
        """First element (enumeration order) generating the multiplicative group."""
        n = self.q - 1
        if n == 1:
            return 1
        factors = _prime_factors(n)
        for cand in range(2, self.q):
            if all(self._pow_slow(cand, n // f) != 1 for f in factors):
                return cand
        raise RuntimeError("no generator found")  # unreachable

    def _pow_slow(self, a, e):
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_slow(result, base) if self.k > 1 else (result * base) % self.p
            base = self._mul_slow(base, base) if self.k > 1 else (base * base) % self.p
            e >>= 1
        return result


@lru_cache(maxsize=None)
def _make_field_cached(p, k, size_limit):
    return FiniteField(p, k, size_limit=size_limit)


def make_field(p, k=1, size_limit=DEFAULT_SIZE_LIMIT):
    """Canonical descriptor for F_{p^k}; repeated calls return the same object."""
    return _make_field_cached(p, k, size_limit)


def parse_field_spec(spec, size_limit=DEFAULT_SIZE_LIMIT):
    """Parse 'p^k' or a plain prime-power cardinality into a field."""
    spec = str(spec).strip()
    if "^" in spec:
        ps, ks = spec.split("^", 1)
        return make_field(int(ps), int(ks), size_limit=size_limit)
    q = int(spec)
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            qq = q
            while qq % p == 0:
                qq //= p
                k += 1
            if qq != 1:
                raise NotPrime(f"{q} is not a prime power")
            return make_field(p, k, size_limit=size_limit)
    raise NotPrime(f"{q} is not a prime power")


@lru_cache(maxsize=None)
def _embedding_powers(sub, sup):
    if sub.p != sup.p or sup.k % sub.k != 0:
        raise NoEmbedding(f"no embedding {sub!r} -> {sup!r}")
    if sub == sup:
        return None
    if sub.k == 1:
        return None
    # image of sub's generator: first root of sub's modulus in sup
    img = None
    for x in sup.enumerate_elements():
        acc = 0
        xp = 1
        for c in sub.modulus:
            if c:
                acc = sup.add(acc, sup.mul(c, xp))
            xp = sup.mul(xp, x)
        if acc == 0:
            img = x
            break
    if img is None:
        raise NoEmbedding("modulus has no root in the larger field")  # unreachable
    powers = [1]
    for _ in range(sub.k - 1):
        powers.append(sup.mul(powers[-1], img))
    return tuple(powers)


def embed(a, sub, sup):
    """Image of ``a`` under the canonical embedding of ``sub`` into ``sup``."""
    powers = _embedding_powers(sub, sup)
    if powers is None:
        # identity or prime-subfield case: digits carry over directly
        return a
    out = 0
    for c, gp in zip(sub.coords(a), powers):
        if c:
            out = sup.add(out, sup.mul(c, gp))
    return out
