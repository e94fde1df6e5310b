import io
import random
import tracemalloc
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffgeom.errors import (
    DivisionByZero,
    InternalContradiction,
    InvalidBaseDegree,
    NoEmbedding,
    NotPrime,
    SizeLimitExceeded,
)
from ffgeom import cli, fields, kernels
from ffgeom.fields import (
    DEFAULT_SIZE_LIMIT,
    FiniteField,
    _embedding_powers,
    _is_prime,
    _prime_factors,
    embed,
    make_field,
    power,
)

from conftest import PRIME_POWERS_64, field_for, first_irreducible_reference


def op_tables(fld):
    q = fld.q
    add = np.array([[fld.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[fld.mul(a, b) for b in range(q)] for a in range(q)])
    return add, mul


class TestConstruction:
    def test_prime_field_has_no_modulus(self):
        assert make_field(2, 1).modulus is None

    def test_f4_modulus(self):
        # only irreducible monic quadratic over F_2
        assert make_field(2, 2).modulus == (1, 1, 1)

    def test_f9_modulus(self):
        # lexicographic scan hits t^2 (reducible) then t^2 + 1
        assert make_field(3, 2).modulus == (1, 0, 1)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make_field(6, 1)

    # a Carmichael number and strong pseudoprimes to the bases 2; 2, 3;
    # 2, 3, 5; and 2, 3, 5, 7
    @pytest.mark.parametrize("p", [561, 2047, 1373653, 25326001])
    def test_pseudoprime_not_prime(self, p):
        with pytest.raises(NotPrime):
            FiniteField(p, 1, size_limit=p)

    def test_largest_prime_below_limit(self):
        assert make_field(1048573).q == 1048573

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            make_field(2, 21)

    def test_int64_matrix_limit(self):
        # above a raised size limit: 2^32 + 15 is prime, and its squares
        # overflow the int64 matrix products of the generator search
        with pytest.raises(SizeLimitExceeded):
            FiniteField(2 ** 32 + 15, 1, size_limit=2 ** 33)

    def test_deterministic(self):
        a = make_field(5, 3)
        b = make_field(5, 3)
        assert a is b and a.modulus == b.modulus

    def test_modulus_matches_scalar_scan(self):
        # the batches hold candidates 0-31, 32-95 and 96-223: the first
        # irreducible is candidate 33 for 2^14 and 29^3, 64 for 3^9, 102 for
        # 101^3, and for 31^4 exactly 32, the first of the second batch.
        # 3^14, past the size limit, splits its 3^7 divisors of degree 7
        # into two blocks
        cases = [(p, k) for p in range(2, 200) if _is_prime(p)
                 for k in range(2, 17) if p ** k <= 2 ** 16]
        for p, k in cases + [(23, 3), (13, 4), (1021, 2), (101, 3), (31, 4), (3, 14)]:
            assert FiniteField._find_modulus(p, k) == first_irreducible_reference(p, k), (p, k)

    def test_modulus_with_small_divisor_blocks(self, monkeypatch):
        # blocks of at most 6 remainder coefficients: 1 to 6 divisors each,
        # so most divisors sit next to a block boundary
        monkeypatch.setattr(fields, "_MODULUS_COLUMNS", 6)
        for p, k in [(2, 8), (2, 12), (3, 6), (3, 8), (5, 4), (7, 4), (13, 3), (31, 3)]:
            assert FiniteField._find_modulus(p, k) == first_irreducible_reference(p, k), (p, k)

    @pytest.mark.parametrize("q", PRIME_POWERS_64)
    def test_modulus_irreducible_no_roots(self, q):
        fld = field_for(q)
        if fld.k == 1:
            return
        base = make_field(fld.p)
        for x in base.enumerate_elements():
            acc = 0
            for c in reversed(fld.modulus):
                acc = base.add(base.mul(acc, x), c)
            assert acc != 0


def _no_generator(monkeypatch):
    # with 1 as the only factor of q - 1 every candidate fails the test
    # a^((q-1)/r) != 1
    monkeypatch.setattr(fields, "_prime_factors", lambda n: [1])


def _no_modulus(monkeypatch):
    # every candidate leaves remainder zero, so none is irreducible
    monkeypatch.setattr(fields, "_remainder_table", lambda p, k, d, divisors: np.zeros(
        (k + 1, d, len(divisors)), dtype=np.int64))


class TestSearchesNeverEmpty:
    """A field always has an irreducible modulus and a generator, so a
    search that finds none is a soundness failure, also under python -O."""

    @pytest.mark.parametrize("patch", [_no_generator, _no_modulus],
                             ids=["generator", "modulus"])
    def test_raises_internal_contradiction(self, monkeypatch, patch):
        patch(monkeypatch)
        with pytest.raises(InternalContradiction):
            FiniteField(3, 2).generator()

    def test_cli_exits_internal(self, monkeypatch):
        _no_generator(monkeypatch)
        monkeypatch.setattr(fields, "make_field", lambda p, k=1: FiniteField(p, k))
        err = io.StringIO()
        assert cli.run(["field", "info", "--field", "3^2"], io.StringIO(), err) == cli.EXIT_INTERNAL
        assert err.getvalue().startswith("internal error: no generator")


class TestPrimality:
    def test_matches_trial_division_below_two_to_the_sixteen(self):
        for n in range(2 ** 16):
            assert _is_prime(n) == (_prime_factors(n) == [n]), n

    @pytest.mark.parametrize("n", [561, 2047, 1373653, 25326001, 3215031751, 1048573])
    def test_pseudoprimes_and_a_prime(self, n):
        assert _is_prime(n) == (_prime_factors(n) == [n])


class TestArithmetic:
    def test_f4_generator_square(self):
        f4 = make_field(2, 2)
        g = f4.from_coords([0, 1])
        assert f4.mul(g, g) == f4.from_coords([1, 1])

    def test_inv_f5(self):
        assert make_field(5).inv(2) == 3

    def test_inv_zero_raises(self):
        with pytest.raises(DivisionByZero):
            make_field(7).inv(0)

    @pytest.mark.parametrize("q", PRIME_POWERS_64)
    def test_field_axioms_exhaustive(self, q):
        fld = field_for(q)
        add, mul = op_tables(fld)
        idx = np.arange(q)
        # commutativity
        assert np.array_equal(add, add.T)
        assert np.array_equal(mul, mul.T)
        # identities
        assert np.array_equal(add[0], idx)
        assert np.array_equal(mul[1], idx)
        # associativity (full q^3)
        assert np.array_equal(add[add], add[idx[:, None, None], add[None, :, :]])
        assert np.array_equal(mul[mul], mul[idx[:, None, None], mul[None, :, :]])
        # distributivity (full q^3)
        assert np.array_equal(mul[idx[:, None, None], add[None, :, :]],
                              add[mul[:, :, None], mul[:, None, :]])
        # additive and multiplicative inverses
        for a in range(q):
            assert fld.add(a, fld.neg(a)) == 0
            if a:
                assert fld.mul(a, fld.inv(a)) == 1

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64])
    def test_table_mul_matches_slow_mul(self, q):
        fld = field_for(q)
        for a in range(q):
            for b in range(q):
                assert fld.mul(a, b) == _ref_mul(fld, a, b)

    @pytest.mark.parametrize("p,k", [(2, 2), (2, 5), (3, 3), (5, 2), (7, 2), (2, 10), (3, 7),
                                     (5, 4), (13, 3), (2, 16), (31, 4)])
    def test_slow_mul_matches_schoolbook_reference(self, p, k):
        # the multiplication matrix builds the generator and the tables, so
        # it is checked against a product that shares no code with it
        fld = make_field(p, k)
        rng = random.Random(fld.q)
        pairs = [(a, b) for a in range(fld.q) for b in range(fld.q)] if fld.q <= 64 else \
            [(rng.randrange(fld.q), rng.randrange(fld.q)) for _ in range(300)]
        for a, b in pairs:
            prod = np.array(fld.coords(b)) @ fld._mul_matrix(a) % p
            assert fld.from_coords(prod.tolist()) == _ref_mul(fld, a, b), (a, b)

    @pytest.mark.parametrize("q", [2, 7, 9, 16, 25, 3 ** 7])
    def test_matrices_of_an_array_are_the_scalar_ones(self, q):
        # the lift of a whole array, and the coordinates it starts from,
        # entry by entry
        fld = field_for(q)
        rng = random.Random(q)
        a = np.array([[rng.randrange(q) for _ in range(5)] for _ in range(3)], dtype=np.int64)
        lifted = fld._mul_matrices(a)
        assert lifted.shape == (3, 5, fld.k, fld.k)
        coords = fields.digits(a, fld.p, fld.k)
        for i, j in np.ndindex(a.shape):
            assert np.array_equal(lifted[i, j], fld._mul_matrix(int(a[i, j])))
            assert coords[:, i, j].tolist() == fld.coords(int(a[i, j]))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(PRIME_POWERS_64), st.integers(0, 63), st.integers(0, 3 * 64))
    @example(q=64, a=0, e=0)
    @example(q=64, a=0, e=3 * 64)
    @example(q=9, a=5, e=0)
    def test_power_is_repeated_product(self, q, a, e):
        fld = field_for(q)
        a, e = a % q, e % (3 * q + 1)
        expected = 1
        for _ in range(e):
            expected = fld.mul(expected, a)
        assert power(a, e, fld.mul) == expected
        assert fld.pow(a, e) == expected
        if fld.k > 1:
            assert power(a, e, lambda x, y: _ref_mul(fld, x, y)) == expected
        if a:
            inverse = 1
            for _ in range(e):
                inverse = fld.mul(inverse, fld.inv(a))
            assert fld.pow(a, -e) == inverse

def _primes_up_to(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return np.flatnonzero(sieve).tolist()


_PRIMES = _primes_up_to(DEFAULT_SIZE_LIMIT)
# primes p with p^k <= 2^20, by degree k
_PRIMES_BY_DEGREE = {
    k: tuple(takewhile(lambda p, k=k: p ** k <= DEFAULT_SIZE_LIMIT, _PRIMES))
    for k in range(1, DEFAULT_SIZE_LIMIT.bit_length())
}


@st.composite
def _field_operands(draw):
    """A field F_{p^k} with q <= 2^20, two elements and two lists of elements."""
    k = draw(st.integers(1, max(_PRIMES_BY_DEGREE)))
    fld = make_field(draw(st.sampled_from(_PRIMES_BY_DEGREE[k])), k)
    element = st.integers(0, fld.q - 1)
    vector = st.lists(element, min_size=1, max_size=8)
    xs = draw(vector)
    ys = draw(st.lists(element, min_size=len(xs), max_size=len(xs)))
    return fld, draw(element), draw(element), xs, ys


def _ref_add(fld, a, b):
    """Sum computed coordinate by coordinate over F_p."""
    return fld.from_coords([x + y for x, y in zip(fld.coords(a), fld.coords(b))])


def _ref_neg(fld, a):
    return fld.from_coords([-x for x in fld.coords(a)])


def _ref_mul(fld, a, b):
    """Schoolbook product of the coordinate vectors, reduced by rewriting
    t^k as -(m_0 + m_1 t + ... + m_{k-1} t^{k-1}) from the top degree down,
    with m the monic modulus; in a prime field, a * b mod p."""
    if fld.k == 1:
        return a * b % fld.p
    p, k, m = fld.p, fld.k, fld.modulus
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(fld.coords(a)):
        for j, y in enumerate(fld.coords(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        c, prod[top] = prod[top], 0
        for i in range(k):
            prod[top - k + i] = (prod[top - k + i] - c * m[i]) % p
    return fld.from_coords(prod[:k])


class TestAdditionRule:
    """``add``/``sub``/``neg`` against a coordinate-wise reference, on ints
    and on int64 arrays of encodings, both of which they accept."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_field_operands())
    @example((make_field(3, 2), 5, 7, [8, 4], [1, 8]))
    @example((make_field(2, 3), 5, 6, [7, 1], [3, 1]))
    @example((make_field(1048573), 1048572, 3, [1048572], [2]))
    def test_scalar_and_array_match_reference(self, case):
        fld, a, b, xs, ys = case
        assert fld.add(a, b) == _ref_add(fld, a, b)
        assert fld.neg(a) == _ref_neg(fld, a)
        assert fld.sub(a, b) == _ref_add(fld, a, _ref_neg(fld, b))
        xa = np.array(xs, dtype=np.int64)
        ya = np.array(ys, dtype=np.int64)
        results = {
            "add": (fld.add(xa, ya), [_ref_add(fld, x, y) for x, y in zip(xs, ys)]),
            "sub": (fld.sub(xa, ya),
                    [_ref_add(fld, x, _ref_neg(fld, y)) for x, y in zip(xs, ys)]),
            "neg": (fld.neg(xa), [_ref_neg(fld, x) for x in xs]),
            "add scalar": (fld.add(xa, b), [_ref_add(fld, x, b) for x in xs]),
        }
        for name, (got, expected) in results.items():
            assert isinstance(got, np.ndarray), name
            assert got.tolist() == expected, name
        # the operands are left as they were
        assert xa.tolist() == xs and ya.tolist() == ys


def sequential_dlog(fld):
    """Reference discrete-log tables: g^0, g^1, ... one _ref_mul at a time."""
    g = fld.generator()
    exp = [0] * (fld.q - 1)
    log = [0] * fld.q
    cur = 1
    for i in range(fld.q - 1):
        exp[i] = cur
        log[cur] = i
        cur = _ref_mul(fld, cur, g)
    return log, exp


def prime_powers_up_to(bound):
    for p in range(2, bound + 1):
        if _prime_factors(p) == [p]:
            k = 1
            while p ** k <= bound:
                yield p, k
                k += 1


class TestDiscreteLogTables:
    def test_match_sequential_reference(self):
        for p, k in prime_powers_up_to(4096):
            fld = FiniteField(p, k)  # uncached: the tables are freed after the check
            log, exp = sequential_dlog(fld)
            assert tuple(map(list, fld._dlog)) == (log, exp), (p, k)
            logt, expt = kernels.field_tables(fld)
            assert logt.tolist() == log and expt.tolist() == exp, (p, k)

    # past the p <= 64 that the sequential reference reaches for k >= 2:
    # 1021^2 doubles two-byte coordinates (p >= 256), 101^3 one-byte ones
    @pytest.mark.parametrize("p,k", [(2, 16), (3, 10), (2, 17), (2, 20), (3, 12), (31, 4),
                                     (1048573, 1), (1021, 2), (101, 3)])
    def test_largest_tables(self, p, k):
        fld = FiniteField(p, k)
        q, g = fld.q, fld.generator()
        logt, expt = fld.tables
        assert np.array_equal(logt[expt], np.arange(q - 1))
        assert _ref_mul(fld, int(expt[q - 2]), g) == 1  # g^(q-1) = 1
        for i in random.Random(q).sample(range(q - 2), 200):
            assert expt[i + 1] == _ref_mul(fld, int(expt[i]), g)

    @pytest.mark.parametrize("p,k", [(2, 17), (3, 11)])
    def test_inverse_above_two_to_the_sixteen(self, p, k):
        fld = FiniteField(p, k)
        assert fld.tables is not None
        for a in random.Random(fld.q).sample(range(1, fld.q), 200):
            b = fld.inv(a)
            assert fld.mul(b, a) == 1 and _ref_mul(fld, b, a) == 1

    def test_build_peak_memory(self):
        # the doubling holds 6.1 MB of one-byte coordinates and one run's
        # 12 MB of int64 scratch (18.1 MB); the 8.1 MB tables come after
        fld = FiniteField(3, 12)
        fld.generator()
        tracemalloc.start()
        try:
            fld.tables
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    @pytest.mark.parametrize("p,k", [(23, 3), (2, 16), (3, 10), (1021, 2)])
    def test_build_without_scalar_products(self, p, k, monkeypatch):
        # the modulus search, the generator search and the table doubling
        # all multiply matrices over F_p, never coefficient lists
        calls = []
        for name in ("poly_mul", "poly_divmod"):
            monkeypatch.setattr(fields, name, lambda *args, name=name, f=getattr(fields, name):
                                calls.append(name) or f(*args))
        fld = FiniteField(p, k)
        fld.generator()
        fld.tables
        assert calls == []

    def test_generator_is_first_element_of_full_order(self):
        # the order of each element by repeated multiplication
        for p, k in prime_powers_up_to(2 ** 10):
            fld = FiniteField(p, k)
            for cand in range(1, fld.q):
                x, order = cand, 1
                while x != 1:
                    x, order = _ref_mul(fld, x, cand), order + 1
                if order == fld.q - 1:
                    break
            assert fld.generator() == cand, (p, k)

    @pytest.mark.parametrize("p,k", [(3, 10), (2, 16)])
    def test_generator_searched_once(self, p, k, monkeypatch):
        # field info asks for the generator on every request; the tables
        # start from the same element and do not search again
        calls = []
        monkeypatch.setattr(fields, "power",
                            lambda x, e, mul, one=1: calls.append(x) or power(x, e, mul, one))
        fld = FiniteField(p, k)
        g = fld.generator()
        searched = len(calls)
        assert searched > 0
        assert fld.generator() == g and len(calls) == searched
        assert fld.tables[1][1] == g and len(calls) == searched

    # the last eight lie past the 2^10 that
    # test_generator_is_first_element_of_full_order checks element by element
    @pytest.mark.parametrize("p,k,gen", [(2, 1, 1), (2, 2, 2), (3, 1, 2), (3, 2, 4), (5, 1, 2),
                                         (7, 7, 14), (37, 3, 75), (13, 4, 17), (3, 10, 34),
                                         (2, 16, 3), (1021, 2, 1035), (65521, 1, 17),
                                         (1048573, 1, 2)])
    def test_golden_generators_unchanged(self, p, k, gen):
        fld = make_field(p, k)
        assert fld.generator() == gen
        assert fld._dlog[1][1 % (fld.q - 1)] == gen  # exp[i] = g^i


class TestEnumeration:
    def test_prime_field_order(self):
        assert list(make_field(3).enumerate_elements()) == [0, 1, 2]

    def test_f4_order(self):
        f4 = make_field(2, 2)
        coords = [f4.coords(a) for a in f4.enumerate_elements()]
        assert coords == [[0, 0], [1, 0], [0, 1], [1, 1]]

    def test_f9_count(self):
        assert len(list(make_field(3, 2).enumerate_elements())) == 9


class TestFrobenius:
    def test_f4_generator(self):
        f4 = make_field(2, 2)
        g = f4.from_coords([0, 1])
        assert f4.frobenius(g) == f4.from_coords([1, 1])

    def test_orbit_of_generator_has_size_two(self):
        f4 = make_field(2, 2)
        g = f4.from_coords([0, 1])
        orbit = {g, f4.frobenius(g)}
        assert len(orbit) == 2
        assert f4.frobenius(f4.frobenius(g)) == g

    def test_invalid_base_degree(self):
        with pytest.raises(InvalidBaseDegree):
            make_field(2, 4).frobenius(3, 3)

    @pytest.mark.parametrize("q", PRIME_POWERS_64)
    def test_automorphism_and_fixed_field(self, q):
        fld = field_for(q)
        for d in range(1, fld.k + 1):
            if fld.k % d:
                continue
            frob = np.array([fld.frobenius(a, d) for a in range(q)])
            add, mul = op_tables(fld)
            assert np.array_equal(frob[add], add[frob[:, None], frob[None, :]])
            assert np.array_equal(frob[mul], mul[frob[:, None], frob[None, :]])
            # fixed points form exactly the subfield of p^d elements
            assert int((frob == np.arange(q)).sum()) == fld.p ** d
            # iterating k/d times is the identity
            cur = np.arange(q)
            for _ in range(fld.k // d):
                cur = frob[cur]
            assert np.array_equal(cur, np.arange(q))


class TestEmbedding:
    def test_prime_subfield(self):
        assert embed(1, make_field(2), make_field(2, 2)) == 1

    def test_identity_embedding(self):
        f4 = make_field(2, 2)
        g = f4.from_coords([0, 1])
        assert embed(g, f4, f4) == g

    def test_homomorphism_f4_to_f16(self):
        f4, f16 = make_field(2, 2), make_field(2, 4)
        img = {a: embed(a, f4, f16) for a in range(4)}
        for a in range(4):
            for b in range(4):
                assert img[f4.add(a, b)] == f16.add(img[a], img[b])
                assert img[f4.mul(a, b)] == f16.mul(img[a], img[b])
        assert len(set(img.values())) == 4

    def test_no_embedding(self):
        with pytest.raises(NoEmbedding):
            embed(1, make_field(2, 2), make_field(2, 3))

    @pytest.mark.parametrize("p,k,n", [(2, 2, 4), (2, 3, 6), (3, 2, 4), (2, 2, 6), (3, 2, 6),
                                       (5, 2, 4)])
    def test_image_matches_scalar_scan(self, p, k, n):
        sub, sup = make_field(p, k), make_field(p, n)

        def modulus_at(x):
            acc, xp = 0, 1
            for c in sub.modulus:
                acc = sup.add(acc, sup.mul(c, xp))
                xp = sup.mul(xp, x)
            return acc

        img = next(x for x in sup.enumerate_elements() if modulus_at(x) == 0)
        powers = _embedding_powers(sub, sup)
        assert powers[1] == img
        assert powers == tuple(sup.pow(img, i) for i in range(k))

    def test_tower_compatibility(self):
        f3, f9, f81 = make_field(3), make_field(3, 2), make_field(3, 4)
        for a in range(3):
            assert embed(embed(a, f3, f9), f9, f81) == embed(a, f3, f81)
