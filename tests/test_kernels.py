import functools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings

from ffgeom import fields, kernels
from ffgeom.avoid import AFFINE, GRASSMANNIAN, PROJECTIVE, Hypersurface, charts
from ffgeom.fields import FiniteField, make_field
from ffgeom.polynomials import (
    MultivariatePolynomial,
    UnivariatePolynomial,
    find_root_in_tower,
    parse_polynomial,
)

from conftest import field_for, grid_polys, random_poly


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


class TestGridEval:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_matches_pointwise_eval(self, q):
        rng = random.Random(300 + q)
        fld = field_for(q)
        for _ in range(20):
            nvars = rng.randint(1, 3)
            poly = random_poly(rng, fld, nvars, 4)
            reference = kernels._grid_eval_python(poly, q ** nvars)
            assert np.array_equal(kernels.grid_eval(poly), reference)

    def test_zero_polynomial(self):
        z = MultivariatePolynomial(2, make_field(3))
        assert np.array_equal(kernels.grid_eval(z), np.zeros(9, dtype=np.int64))

    def test_constant_polynomial(self):
        p = MultivariatePolynomial.constant(2, 2, make_field(5))
        assert np.array_equal(kernels.grid_eval(p), np.full(25, 2, dtype=np.int64))

    def test_example_f4(self):
        f4 = make_field(2, 2)
        poly = parse_polynomial("x0*x1 + 1", f4)
        values = kernels.grid_eval(poly)
        # value at (g, g) where g = index 2: g^2 + 1 = (1+g) + 1 = g
        assert values[2 * 4 + 2] == 2
        assert values[0] == 1

    def test_nullary(self):
        p = MultivariatePolynomial.constant(4, 0, make_field(5))
        assert np.array_equal(kernels.grid_eval(p), np.array([4]))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    def test_index_array_matches_range_form(self, q):
        rng = random.Random(320 + q)
        fld = field_for(q)
        for _ in range(20):
            nvars = rng.randint(1, 3)
            poly = random_poly(rng, fld, nvars, 4).reduced()
            total = q ** nvars
            start = rng.randrange(total)
            stop = rng.randint(start, total)
            whole = kernels.grid_eval(poly)
            cases = [
                np.arange(start, stop, dtype=np.int64),  # the range form's indices
                np.array([rng.randrange(total) for _ in range(30)], dtype=np.int64),  # unsorted
                np.array([start] * 5 + [total - 1, 0, start], dtype=np.int64),  # repeated
                np.array([], dtype=np.int64),
            ]
            assert np.array_equal(kernels.grid_eval(poly, cases[0]),
                                  kernels.grid_eval(poly, start, stop))
            for idx in cases:
                values = kernels.grid_eval(poly, idx)
                assert values.dtype == np.int64 and np.array_equal(values, whole[idx])


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
                assert kernels.first_zero(poly) == expected

    def test_scalar_scan_above_table_limit(self):
        fld = make_field(2, 17)
        poly = parse_polynomial("x0 + [1,0,1]", fld)  # root 1 + g^2, encoded 5
        assert kernels.first_zero(poly) == 5

    def test_rootless_above_two_to_the_sixteen(self):
        # x^2 + x + 1 has its roots in F_4, which F_2^17 does not contain
        fld = FiniteField(2, 17)  # uncached: the timing includes the table build
        poly = parse_polynomial("x0^2 + x0 + 1", fld)
        start = time.perf_counter()
        assert kernels.first_zero(poly) is None
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
        # grids of 8 and 10.8 chunks, so chunk edges fall inside them
        rng = random.Random(40 + q)
        fld = field_for(q)
        for _ in range(3):
            poly = random_poly(rng, fld, n, 3)
            values = kernels.grid_eval(poly)
            for zero, expected in ((False, values != 0), (True, values == 0)):
                arrays = list(kernels.hits(poly, zero=zero))
                assert all(a.dtype == np.int64 and len(a) for a in arrays)
                # one array per chunk that has a hit
                chunks = {int(t) // kernels._CHUNK for t in np.flatnonzero(expected)}
                assert [int(a[0]) // kernels._CHUNK for a in arrays] == sorted(chunks)
                assert all(a[-1] // kernels._CHUNK == a[0] // kernels._CHUNK for a in arrays)
                joined = np.concatenate(arrays) if arrays else np.zeros(0, np.int64)
                assert joined.tolist() == np.flatnonzero(expected).tolist()

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
        poly = parse_polynomial(text, make_field(2), 17)
        assert next(kernels.hits(poly, zero=zero))[0] == first
        values = kernels.grid_eval(poly)
        assert np.flatnonzero(values == 0 if zero else values)[0] == first

    def test_point_scan_above_table_limit(self):
        fld = make_field(2, 17)
        poly = parse_polynomial("x0 + [1,0,1]", fld)  # zero only at 5
        assert next(kernels.hits(poly))[:6].tolist() == [0, 1, 2, 3, 4, 6]


def _joined_hits(poly, zero):
    arrays = list(kernels.hits(poly, zero=zero))
    return np.concatenate(arrays).tolist() if arrays else []


def _scalar_hits(poly, zero):
    """Per-point reference: the grid indices where ``poly`` itself, not its
    reduction, is nonzero (or zero)."""
    q, n = poly.field.q, poly.nvars
    return [t for t in range(q ** n)
            if (poly.eval(kernels.decode_point(t, q, n)) == 0) == zero]


class TestReducedScan:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(grid_polys())
    def test_hits_match_unreduced_scalar_reference(self, poly):
        for zero in (False, True):
            assert _joined_hits(poly, zero) == _scalar_hits(poly, zero)

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
        for chart, _ in charts(d, fld):
            reduced_to_zero += chart.reduced().is_zero()
            for zero in (False, True):
                assert _joined_hits(chart, zero) == _scalar_hits(chart, zero)
        assert reduced_to_zero == zero_charts

    def test_zero_chart_costs_no_evaluation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "grid_eval", lambda *a: calls.append(a))
        poly = parse_polynomial("x0^2 - x0", make_field(2), 20)
        assert list(kernels.hits(poly)) == [] and calls == []
