import contextlib
import functools
import itertools
import random
import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffgeom import fields, kernels
from ffgeom.avoid import AFFINE, GRASSMANNIAN, PROJECTIVE, Hypersurface, charts
from ffgeom.errors import InternalContradiction
from ffgeom.fields import FiniteField, make_field
from ffgeom.polynomials import (
    MultivariatePolynomial,
    UnivariatePolynomial,
    find_root_in_tower,
    parse_polynomial,
)

from cli_cases import many_groups_terms
from conftest import field_for, grid_eval_python, grid_polys, grid_zeros, random_poly


class TestDecode:
    def test_last_variable_fastest(self):
        # canonical order over F_3^2: (0,0),(0,1),(0,2),(1,0),...
        pts = [kernels.decode_point(t, 3, 2) for t in range(9)]
        assert pts[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
        assert pts[-1] == (2, 2)

    def test_roundtrip(self):
        q, n = 5, 3
        for t in range(q ** n):
            pt = kernels.decode_point(t, q, n)
            enc = 0
            for x in pt:
                enc = enc * q + x
            assert enc == t


    @pytest.mark.parametrize("q,n", [(2, 5), (3, 3), (4, 2), (7, 1), (5, 0), (8, 3), (16, 2),
                                     (2, 0), (32, 2), (2 ** 10, 1)])
    def test_array_decode_matches_decode_point(self, q, n):
        idx = np.array([0, q ** n - 1] + list(range(q ** n))[::-1], dtype=np.int64)
        coords = kernels.decode(idx, q, n)
        assert coords.shape == (len(idx), n) and coords.dtype == np.int64
        assert [tuple(row) for row in coords.tolist()] == [
            kernels.decode_point(t, q, n) for t in idx.tolist()]
        # a subset of the variables, as grid_eval decodes only those it reads
        cols = list(range(0, n, 2))
        assert np.array_equal(kernels.decode(idx, q, n, cols), coords[:, cols])


def _grid_values(poly):
    """``poly`` at every grid point, in canonical order."""
    idx = np.arange(poly.field.q ** poly.nvars, dtype=np.int64)
    return kernels.grid_eval([poly], idx)[:, 0]


class TestGridEval:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_matches_pointwise_eval(self, q):
        rng = random.Random(300 + q)
        fld = field_for(q)
        for _ in range(20):
            nvars = rng.randint(1, 3)
            poly = random_poly(rng, fld, nvars, 4)
            reference = grid_eval_python(poly, q ** nvars)
            assert np.array_equal(_grid_values(poly), reference)

    def test_zero_polynomial(self):
        z = MultivariatePolynomial(2, make_field(3))
        assert np.array_equal(_grid_values(z), np.zeros(9, dtype=np.int64))

    def test_constant_polynomial(self):
        p = MultivariatePolynomial.constant(2, 2, make_field(5))
        assert np.array_equal(_grid_values(p), np.full(25, 2, dtype=np.int64))

    def test_example_f4(self):
        f4 = make_field(2, 2)
        poly = parse_polynomial("x0*x1 + 1", f4)
        values = _grid_values(poly)
        # value at (g, g) where g = index 2: g^2 + 1 = (1+g) + 1 = g
        assert values[2 * 4 + 2] == 2
        assert values[0] == 1

    def test_nullary(self):
        p = MultivariatePolynomial.constant(4, 0, make_field(5))
        assert np.array_equal(_grid_values(p), np.array([4]))

    @pytest.mark.parametrize("q", [3, 7, 9, 1021])
    def test_exponents_past_float_precision(self, q):
        # x^q = x on F_q brings every exponent below q before its log is
        # summed in float64, where 2^60 * log x would lose its low bits
        fld = field_for(q)
        poly = MultivariatePolynomial(2, fld, {(2 ** 60, 1): 1, (3, 2 ** 65 + 3): 2, (0, 0): 1})
        idx = np.arange(min(q ** 2, 4096), dtype=np.int64)
        assert np.array_equal(kernels.grid_eval([poly], idx)[:, 0],
                              grid_eval_python(poly, len(idx)))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_index_array_matches_range_form(self, q):
        # a list with a zero polynomial and different term counts, at empty,
        # unsorted and repeated indices: column j is the per-point reference
        # over the whole range of the grid, polys[j] at each index
        rng = random.Random(320 + q)
        fld = field_for(q)
        for _ in range(20):
            nvars = rng.randint(1, 3)
            total = q ** nvars
            polys = [random_poly(rng, fld, nvars, 4, nterms=rng.randint(1, 6)).reduced()
                     for _ in range(rng.randint(1, 4))]
            polys.insert(rng.randint(0, len(polys)), MultivariatePolynomial(nvars, fld))
            cases = [
                np.array([], dtype=np.int64),
                np.array([rng.randrange(total) for _ in range(30)], dtype=np.int64),  # unsorted
                np.array([total - 1] * 5 + [0, rng.randrange(total), total - 1], dtype=np.int64),
            ]
            for idx in cases:
                values = kernels.grid_eval(polys, idx)
                assert values.shape == (len(idx), len(polys)) and values.dtype == np.int64
                for j, poly in enumerate(polys):
                    assert np.array_equal(values[:, j],
                                          grid_eval_python(poly, total)[idx])


class TestTables:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
    def test_tables_consistent_with_field_mul(self, q):
        fld = field_for(q)
        logt, expt = kernels.field_tables(fld)
        for a in range(1, q):
            for b in range(1, q):
                prod = expt[(logt[a] + logt[b]) % (q - 1)]
                assert prod == fld.mul(a, b)

    def test_new_field_object_builds_its_own_tables(self, monkeypatch):
        # a private cache, so the shared field objects outlive the clear
        cached = functools.lru_cache(maxsize=None)(fields._make_field_cached.__wrapped__)
        monkeypatch.setattr(fields, "_make_field_cached", cached)
        first = make_field(5, 2)
        tables = kernels.field_tables(first)
        assert kernels.field_tables(first) is tables
        cached.cache_clear()
        second = make_field(5, 2)
        assert second is not first and "tables" not in vars(second)
        rebuilt = kernels.field_tables(second)
        assert rebuilt is not tables
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt, tables))


def _first_zero(poly):
    """Index of the first grid point where ``poly`` vanishes, or None: the
    first index the nonzero scan does not list."""
    zeros = grid_zeros(poly)
    return int(zeros[0]) if len(zeros) else None


class TestFirstZero:
    def test_matches_pointwise_scan(self):
        rng = random.Random(17)
        for q in (2, 4, 7, 9):
            fld = field_for(q)
            for _ in range(20):
                poly = random_poly(rng, fld, rng.randint(1, 2), 3)
                values = [poly.eval(kernels.decode_point(t, q, poly.nvars))
                          for t in range(q ** poly.nvars)]
                expected = values.index(0) if 0 in values else None
                assert _first_zero(poly) == expected

    def test_scalar_scan_above_table_limit(self):
        fld = make_field(2, 17)
        poly = parse_polynomial("x0 + [1,0,1]", fld)  # root 1 + g^2, encoded 5
        assert _first_zero(poly) == 5

    def test_rootless_above_two_to_the_sixteen(self):
        # x^2 + x + 1 has its roots in F_4, which F_2^17 does not contain
        fld = FiniteField(2, 17)  # uncached: the timing includes the table build
        poly = parse_polynomial("x0^2 + x0 + 1", fld)
        start = time.perf_counter()
        assert _first_zero(poly) is None
        assert time.perf_counter() - start < 2.0
        f = UnivariatePolynomial([1, 1, 1], fld)
        start = time.perf_counter()
        assert find_root_in_tower(f, 1) is None
        assert time.perf_counter() - start < 2.0


# over F_2 in 17 variables, x_{16-m} first leaves 0 at 2^m, and the product of
# the m lowest variables first hits 1 just before it; 2^m is a chunk edge for
# every m at least the chunk's b bits, checked here at m = b and m = 16
_CHUNK_BITS = kernels._CHUNK.bit_length() - 1
_LOW_PRODUCT = "*".join(f"x{i}" for i in range(17 - _CHUNK_BITS, 17))
_PRODUCT_16 = "*".join(f"x{i}" for i in range(1, 17))


class TestHits:
    @pytest.mark.parametrize("q,n", [(2, 17), (3, 11)])
    def test_matches_whole_grid(self, q, n):
        # a block is _CHUNK // q^s outer points times the q^s inner
        # ones: _CHUNK points when q is a power of two, 22 * 3^6 when q = 3
        # (s = 6 under the 2^10-point inner bound); grids of 8 and 11.05
        # blocks, so block edges fall inside them and the last one is partial
        block = {2: kernels._CHUNK, 3: 22 * 3 ** 6}[q]
        rng = random.Random(40 + q)
        fld = field_for(q)
        for _ in range(3):
            poly = random_poly(rng, fld, n, 3)
            assert kernels._split(poly.reduced())[0] == {2: 10, 3: 6}[q]
            values = _grid_values(poly)
            arrays = list(kernels.hits(poly))
            assert all(a.dtype == np.int64 and len(a) for a in arrays)
            # one array per block that has a hit
            blocks = {int(t) // block for t in np.flatnonzero(values)}
            assert [int(a[0]) // block for a in arrays] == sorted(blocks)
            assert all(a[-1] // block == a[0] // block for a in arrays)
            joined = np.concatenate(arrays) if arrays else np.zeros(0, np.int64)
            assert joined.tolist() == np.flatnonzero(values).tolist()
            assert grid_zeros(poly).tolist() == np.flatnonzero(values == 0).tolist()

    @pytest.mark.parametrize("text,zero,first", [
        ("x0", False, 2 ** 16),
        ("x0 + 1", True, 2 ** 16),
        (_PRODUCT_16, False, 2 ** 16 - 1),
        (_PRODUCT_16 + " + 1", True, 2 ** 16 - 1),
        (f"x{16 - _CHUNK_BITS}", False, kernels._CHUNK),
        (f"x{16 - _CHUNK_BITS} + 1", True, kernels._CHUNK),
        (_LOW_PRODUCT, False, kernels._CHUNK - 1),
        (_LOW_PRODUCT + " + 1", True, kernels._CHUNK - 1),
    ])
    def test_first_hit_at_chunk_edge(self, text, zero, first):
        # with ``zero`` the polynomial is nonzero up to ``first`` and the
        # scan's hits must stop there: ``first`` is its first zero
        poly = parse_polynomial(text, make_field(2), 17)
        if zero:
            assert _first_zero(poly) == first
        else:
            assert next(kernels.hits(poly))[0] == first
        values = _grid_values(poly)
        assert np.flatnonzero(values == 0 if zero else values)[0] == first

    def test_point_scan_above_table_limit(self):
        fld = make_field(2, 17)
        poly = parse_polynomial("x0 + [1,0,1]", fld)  # zero only at 5
        assert next(kernels.hits(poly))[:6].tolist() == [0, 1, 2, 3, 4, 6]


def _joined_hits(poly):
    arrays = list(kernels.hits(poly))
    return np.concatenate(arrays).tolist() if arrays else []


def _scalar_hits(poly):
    """Per-point reference: the grid indices where ``poly`` itself, not its
    reduction, is nonzero."""
    q, n = poly.field.q, poly.nvars
    return [t for t in range(q ** n) if poly.eval(kernels.decode_point(t, q, n))]


class TestReducedScan:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(grid_polys())
    def test_hits_match_unreduced_scalar_reference(self, poly):
        assert _joined_hits(poly) == _scalar_hits(poly)

    @pytest.mark.parametrize("q,text,kind,params,zero_charts", [
        # vanishes on all of P^1(F_q): every chart reduces to zero
        (3, "x0^3*x1 - x0*x1^3", PROJECTIVE, (1,), 2),
        # on P^2(F_4) the chart x0 = 1 holds 1, x1 = 1 reduces to zero
        (4, "x1^4*x2 - x1*x2^4 + x0^5", PROJECTIVE, (2,), 2),
        (5, "x0^6*x2 - x0*x2^6 + x1^7", PROJECTIVE, (2,), 1),
        # Pluecker coordinates are in F_q, so p01^q*p23 - p01*p23^q is zero on
        # every F_q-point of Grass(2, 4)
        (2, "x0^2*x5 - x0*x5^2", GRASSMANNIAN, (2, 4), 6),
        (3, "x0^3*x5 - x0*x5^3 + x2^4", GRASSMANNIAN, (2, 4), 3),
    ])
    def test_no_point_charts(self, q, text, kind, params, zero_charts):
        fld = field_for(q)
        nvars = params[0] + 1 if kind == PROJECTIVE else 6
        d = Hypersurface(parse_polynomial(text, fld, nvars), kind, params)
        reduced_to_zero = 0
        for chart, _ in charts(d):
            reduced_to_zero += chart.reduced().is_zero()
            assert _joined_hits(chart) == _scalar_hits(chart)
        assert reduced_to_zero == zero_charts

    def test_zero_chart_costs_no_evaluation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "grid_eval", lambda *a: calls.append(a))
        poly = parse_polynomial("x0^2 - x0", make_field(2), 20)
        assert list(kernels.hits(poly)) == [] and calls == []


@st.composite
def split_scans(draw):
    """``(poly, chunk, cap)``: a polynomial over F_q on a grid of at most
    512 points, with exponents up to 2q (so some reduce) and half of them
    0 (so inner monomials repeat across outer ones), and the ``_CHUNK`` and
    ``_MAX_CACHED`` to scan it with.  A chunk of 1, 3 or 8 makes s = 0 for
    most q; q^2 makes 0 < s < n once n > 2; the real one makes s = n on
    most of these grids; a cap of q^2 moves variables outward."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 16)))
    fld = field_for(q)
    max_nvars = max(n for n in range(1, 11) if q ** n <= 512)
    nvars = draw(st.sampled_from(range(max_nvars, 0, -1)))
    exps = st.lists(st.one_of(st.just(0), st.integers(1, 2 * q)),
                    min_size=nvars, max_size=nvars)
    terms = draw(st.lists(st.tuples(exps, st.integers(1, q - 1)), max_size=8))
    chunk = draw(st.sampled_from((q * q, 1, 3, 8, kernels._CHUNK)))
    cap = draw(st.sampled_from((kernels._MAX_CACHED, q * q)))
    return MultivariatePolynomial(nvars, fld, terms), chunk, cap


@contextlib.contextmanager
def _scanning(chunk=None, cap=None, inner=None):
    """:func:`kernels.hits` with another block size, cache cap or inner
    bound."""
    with mock.patch.object(kernels, "_CHUNK", chunk or kernels._CHUNK), \
            mock.patch.object(kernels, "_MAX_CACHED", cap or kernels._MAX_CACHED), \
            mock.patch.object(kernels, "_INNER", inner or kernels._INNER):
        yield


def _counting_grid_eval(monkeypatch):
    """Patch :func:`kernels.grid_eval` to record the number of points of
    each call; returns that list."""
    sizes = []
    grid_eval = kernels.grid_eval
    monkeypatch.setattr(kernels, "grid_eval",
                        lambda polys, idx: sizes.append(len(idx)) or grid_eval(polys, idx))
    return sizes


class TestSplitScan:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(split_scans())
    def test_hits_match_unreduced_scalar_reference(self, case):
        poly, chunk, cap = case
        with _scanning(chunk, cap):
            arrays = list(kernels.hits(poly))
            joined = np.concatenate(arrays) if arrays else np.zeros(0, np.int64)
            assert all(len(a) for a in arrays) and np.all(np.diff(joined) > 0)
            assert joined.tolist() == _scalar_hits(poly)
            # one array per block: a span's hits are cut at its blocks' edges
            width = poly.field.q ** kernels._split(poly.reduced())[0]
            block = kernels._CHUNK // width * width
            assert len({a[0] // block for a in arrays}) == len(arrays)
            assert all(a[0] // block == a[-1] // block for a in arrays)

    # base and the group monomials are over the last s variables, renamed
    # x0 .. x(s-1); None keeps the real _CHUNK or _MAX_CACHED
    @pytest.mark.parametrize("q,chunk,cap,nvars,text,s,base,monos", [
        # q > chunk: s = 0, one group, the constant monomial's
        (5, 3, None, 2, "x0*x1^6 + x1 + 2", 0, "0", [()]),
        # 0 < s < n: x2^2*x3 and x3^2 fold into base, x3 has the coefficient
        # x0 + 2*x1, and x0*x1 + 1 is the constant monomial's
        (3, 9, None, 4, "x0*x3 + 2*x1*x3 + x2^2*x3 + x3^2 + x0*x1 + 1", 2,
         "x0^2*x1 + x1^2", [(0, 0), (0, 1)]),
        # q^n <= chunk: s = n, the whole polynomial in base
        (2, None, None, 5, "x0*x4 + x1 + 1", 5, "x0*x4 + x1 + 1", []),
        # three groups and base make an M of 4 * 16 entries, past a cap of
        # 40, so x2 moves outward and becomes the constant monomial's
        # coefficient: four groups and base then make 5 * 8
        (2, 16, 40, 6, "x0*x5 + x1*x4 + x0*x1*x3 + x2", 3, "0",
         [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]),
    ])
    def test_split_cases(self, q, chunk, cap, nvars, text, s, base, monos):
        fld = field_for(q)
        poly = parse_polynomial(text, fld, nvars)
        with _scanning(chunk, cap):
            split = kernels._split(poly.reduced())
            assert split[:2] == (s, parse_polynomial(base, fld, s))
            assert sorted(mono for mono, _ in split[2]) == monos
            assert all(coef.total_degree() > 0 for _, coef in split[2])
            assert _joined_hits(poly) == _scalar_hits(poly)

    def test_group_zero_on_a_block(self):
        # blocks of one outer point (x0, x1) times the 9 points of (x2, x3):
        # x3's coefficient x0 + 2*x1 is 0 where x0 = x1, on three of the nine
        # blocks, where the scan skips its product
        poly = parse_polynomial("x0*x3 + 2*x1*x3 + x2^2*x3 + x3^2 + x0*x1 + 1", field_for(3))
        with _scanning(9):
            coef = dict(kernels._split(poly)[2])[(0, 1)]
            assert [o for o in range(9)
                    if not kernels.grid_eval([coef], np.array([o])).any()] == [0, 4, 8]
            assert _joined_hits(poly) == _scalar_hits(poly)

    def test_many_groups_cache_in_bounded_memory(self, monkeypatch):
        # 300 terms over F_2 in 20 variables, each an outer variable times a
        # distinct inner monomial.  Under the real inner bound (s = 10) M
        # fits the cap, so the bound is raised to _CHUNK, as large as the
        # one-variable floor makes an inner grid for q in (2^10, 2^14]: at
        # s = 14 M would take 301 * 2^14 float64s (~39 MB); the cap lowers s
        # until it fits.  A batch of coefficients holds at most the cap's
        # entries too, so the whole scan stays in bounded memory.
        poly = MultivariatePolynomial(20, make_field(2), {e: 1 for e in many_groups_terms()})
        assert len(poly.terms) == 300
        calls = _counting_grid_eval(monkeypatch)
        with _scanning(inner=kernels._CHUNK):
            tracemalloc.start()
            try:
                arrays = list(kernels.hits(poly))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            s = kernels._split(poly)[0]
        assert sum(map(len, arrays)) == 515744 and s < 14
        assert peak < 32 * 2 ** 20
        # one grid_eval for the inner grid, then one per batch of outer
        # points, which doubles from one block: log-many, whatever the
        # number of groups
        blocks = 2 ** 20 // (kernels._CHUNK // 2 ** s * 2 ** s)
        assert len(calls) <= blocks.bit_length() + 1


# the patched bounds of TestBlockProduct that some block product's sums reach
_REFUSED = {(2, "one group"), (3, "one group"), (9, "one group"), (25, "one group"),
            (25, "2^7")}


def _prime_powers(limit):
    """(p, k) for every prime power p^k <= ``limit``."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    for p in np.flatnonzero(sieve).tolist():
        q, k = p, 1
        while q <= limit:
            yield p, k
            q, k = q * p, k + 1


class TestBlockProduct:
    @pytest.mark.parametrize("bound", ["real", "one group", "2^7"])
    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25])
    def test_hits_match_scalar_reference(self, q, bound):
        # inner grids of one variable (two over F_2, so that a scan can have
        # more than two groups), so every scan steps A by its cached inner
        # grid: by M, or by logs over F_4, F_8 and F_16.  A bound of
        # k (p - 1)^2 + 1 in place of 2^53 is reached by every block product
        # with a group, and 2^7 by one of 8 or more rows over F_25: the step refuses
        # those scans, and every other scan matches the reference
        fld = field_for(q)
        exact = {"real": kernels._EXACT, "one group": fld.k * (fld.p - 1) ** 2 + 1,
                 "2^7": 2 ** 7}[bound]
        rng = random.Random(700 + q)
        nvars = 3 if q < 16 else 2
        most = refused = 0
        with _scanning(inner=max(q, 4)), mock.patch.object(kernels, "_EXACT", exact):
            for _ in range(10):
                poly = random_poly(rng, fld, nvars, 2 * q, nterms=6)
                s, base, groups = kernels._split(poly.reduced())
                assert s == (2 if q == 2 else 1)
                most = max(most, len(groups) + (not base.is_zero()))
                rows = (len(groups) + 1) * fld.k
                if not kernels._uses_logs(fld) and rows * (fld.p - 1) ** 2 >= exact:
                    refused += 1
                    with pytest.raises(InternalContradiction, match="inexact"):
                        _joined_hits(poly)
                else:
                    assert _joined_hits(poly) == _scalar_hits(poly)
        assert most >= 3  # several groups in a product
        assert (refused > 0) == ((q, bound) in _REFUSED)

    def test_cache_cap_keeps_every_block_product_exact(self):
        # every field up to the table limit whose scans can take the block
        # product with an inner variable: q <= _CHUNK, and not F_{2^k} with
        # k > 1.  The cap holds M to (groups + 1) * k^2 * q^s entries, so its
        # rows, times the (p - 1)^2 bound on a product, stay below _EXACT
        worst = 0
        for p, k in _prime_powers(2 ** 20):
            q = p ** k
            if q > kernels._CHUNK or kernels._uses_logs(SimpleNamespace(p=p, k=k)):
                continue
            worst = max(worst, kernels._MAX_CACHED // (k * k * q) * k * (p - 1) ** 2)
        assert worst == 17_171_481_600 < 2 ** 34 < kernels._EXACT  # at F_16381


class TestInnerBound:
    """The rule of :func:`kernels._split` for s, the inner variable count:
    q^s at most ``_INNER`` (and ``_CHUNK``), at least one variable while
    q <= ``_CHUNK`` and M, (groups + 1) * k^2 * q^s entries, fits
    ``_MAX_CACHED``, and the whole grid when it fits."""

    def test_early_first_hit_reads_few_points(self, monkeypatch):
        # over F_2 in 14 variables (a cli fallback's grid) the first hit
        # lies below 2^10: the scan evaluates the 2^10 inner points and the
        # first block's 16 outer ones, not the whole 2^14-point grid
        poly = parse_polynomial("x4*x5*x13 + x0*x12 + x6*x7*x11 + x1*x2*x3*x10 + x9*x8",
                                make_field(2), 14)
        first = _scalar_hits(poly)[0]
        assert 0 < first < 2 ** 10
        sizes = _counting_grid_eval(monkeypatch)
        assert next(kernels.hits(poly))[0] == first
        assert sum(sizes) <= 2 ** 11

    @pytest.mark.parametrize("q", [2, 3, 5, 31, 32, 1021, 2 ** 10, 1031, 2 ** 11, 3 ** 8,
                                   2 ** 14, 2 ** 15])
    def test_one_inner_variable_while_q_fits_a_chunk(self, q):
        # q^s is the largest power within 2^10, but a field past 2^10 keeps
        # one inner variable while q <= _CHUNK and what the scan caches of
        # its two groups (x2 and the constant monomial) and base fits the
        # cap: F_3^8 lifts each entry of M to 64, past it, while F_2^11 and
        # F_2^14 cache one log per entry.  Past _CHUNK none is left
        fld = field_for(q)
        poly = parse_polynomial("x0*x1*x2 + x2^2 + x1 + 1", fld, 3)
        s = kernels._split(poly.reduced())[0]
        expected = max(k for k in range(4) if q ** k <= kernels._INNER)
        lift = 1 if kernels._uses_logs(fld) else fld.k ** 2
        if q > kernels._INNER:
            expected = int(q <= kernels._CHUNK and 3 * lift * q <= kernels._MAX_CACHED)
        assert s == expected
        assert s == {3 ** 8: 0, 2 ** 14: 1, 2 ** 11: 1}.get(q, s)

    def test_only_the_cache_cap_drops_the_last_inner_variable(self):
        # over F_16381, 63 groups x0*x1^e and base make an M of 64 * 16381
        # entries, within the cap of 2^20, and a 64th group moves x1 outward
        # despite the floor.  F_2^14 takes the log-domain step, which counts
        # the same: (groups + 1) * 2^14 logs
        for q in (16381, 2 ** 14):
            fld = field_for(q)
            for groups, s in ((63, 1), (64, 0)):
                poly = MultivariatePolynomial(2, fld, {(1, e): 1 for e in range(1, groups + 1)})
                assert kernels._split(poly)[0] == s

    @pytest.mark.parametrize("q,n", [(2, 10), (3, 6), (31, 2), (1021, 1)])
    def test_grid_within_the_bound_is_one_grid_eval(self, monkeypatch, q, n):
        rng = random.Random(q + n)
        poly = random_poly(rng, field_for(q), n, 4, nterms=6)
        expected = np.flatnonzero(_grid_values(poly)).tolist()
        sizes = _counting_grid_eval(monkeypatch)
        assert _joined_hits(poly) == expected
        assert sizes == [q ** n]

    @pytest.mark.parametrize("chunk", [1, 3, 8, 64, 200])
    def test_inner_grid_within_a_patched_chunk(self, monkeypatch, chunk):
        # no grid_eval call of a scan sees more than _CHUNK points, even
        # where _CHUNK is below the inner bound
        rng = random.Random(chunk)
        sizes = _counting_grid_eval(monkeypatch)
        with _scanning(chunk):
            for q in (2, 3, 4, 7, 9, 16):
                nvars = max(n for n in range(1, 9) if q ** n <= 4096)
                poly = random_poly(rng, field_for(q), nvars, 5, nterms=6)
                expected = np.flatnonzero(_grid_values(poly)).tolist()
                sizes.clear()
                assert _joined_hits(poly) == expected
                assert q ** kernels._split(poly.reduced())[0] <= chunk
                assert max(sizes, default=0) <= chunk
