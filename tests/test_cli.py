import io
import json
import math
import os
import random
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ffgeom import cli, kernels
from ffgeom.avoid import (
    AFFINE,
    GRASSMANNIAN,
    PROJECTIVE,
    Hypersurface,
    plucker,
    projective_points,
)
from ffgeom.cli import EXIT_NO_POINT, EXIT_OK, EXIT_PRECONDITION, run
from ffgeom.polynomials import MultivariatePolynomial

from conftest import (
    field_for,
    grassmannian_points,
    per_point_oracle,
    random_homogeneous_poly,
    random_poly,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN_CASES = [
    ("field_info_f9", ["field", "info", "--field", "3^2"], EXIT_OK),
    (
        "avoid_affine_f4",
        ["avoid", "affine", "--field", "4", "--poly", "x0*x1*(x0+x1)"],
        EXIT_OK,
    ),
    (
        "avoid_projective_f3",
        ["avoid", "projective", "--field", "3", "--poly", "x0*x1*x2"],
        EXIT_OK,
    ),
    (
        "avoid_affine_no_point_f2",
        ["avoid", "affine", "--field", "2", "--poly", "x0*x1*(x0+x1)", "--vars", "2"],
        EXIT_NO_POINT,
    ),
    (
        "avoid_grass_f3",
        ["avoid", "grass", "--field", "3", "--poly", "x0*x5", "--m", "2", "--n", "4"],
        EXIT_OK,
    ),
    (
        "oracle_projective_f3",
        ["oracle", "--kind", "projective", "--field", "3", "--poly", "x0*x1*x2"],
        EXIT_OK,
    ),
    (
        "oracle_affine_f4",
        ["oracle", "--kind", "affine", "--field", "4", "--poly", "x0*x1+x0+1"],
        EXIT_OK,
    ),
    (
        "oracle_grass_f3_truncated",
        [
            "oracle", "--kind", "grass", "--field", "3", "--poly", "x0*x5",
            "--m", "2", "--n", "4", "--max-listed", "3",
        ],
        EXIT_OK,
    ),
    (
        "oracle_projective_f5_unlisted",
        [
            "oracle", "--kind", "projective", "--field", "5", "--poly", "x0*x1",
            "--max-listed", "0",
        ],
        EXIT_OK,
    ),
    (
        "bound_m_spot",
        ["bound", "m", "--n", "1", "--alpha", "2", "--beta", "5"],
        EXIT_OK,
    ),
    (
        "bound_pipeline_spot",
        [
            "bound", "pipeline", "--g", "2", "--r", "2", "--d", "1",
            "--alpha", "2", "--beta", "5",
        ],
        EXIT_OK,
    ),
    (
        "curve_point_conic_f5",
        [
            "curve", "point", "--curve", "x0*x1 + 2*x2^2", "--avoid", "x2",
            "--field", "5",
        ],
        EXIT_OK,
    ),
    (
        "p1_verify_balanced",
        ["p1", "verify", "--type", "0,0", "--search-bound", "3", "--rank-bound", "2"],
        EXIT_OK,
    ),
    (
        "p1_verify_unbalanced",
        ["p1", "verify", "--type", "1,-1", "--search-bound", "3", "--rank-bound", "2"],
        EXIT_NO_POINT,
    ),
    (
        "p1_scan_small",
        ["p1", "scan", "--rank-max", "2", "--coeff-bound", "1"],
        EXIT_OK,
    ),
    # the benchmark's two scan slots and a balanced type in the default box
    (
        "p1_scan_r4_c2",
        ["p1", "scan", "--rank-max", "4", "--coeff-bound", "2"],
        EXIT_OK,
    ),
    (
        "p1_scan_r3_c3",
        ["p1", "scan", "--rank-max", "3", "--coeff-bound", "3"],
        EXIT_OK,
    ),
    (
        "p1_verify_balanced_rank3",
        ["p1", "verify", "--type=-3,-3,-3"],
        EXIT_OK,
    ),
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, argv, expected_code):
    code, stdout, _ = invoke(argv)
    assert code == expected_code
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
        assert stdout == fh.read()
    # the output is well-formed JSON echoing its inputs
    doc = json.loads(stdout)
    assert "subcommand" in doc and "inputs_echo" in doc


@pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_rerun_byte_identical(name, argv, expected_code):
    first = invoke(argv)
    second = invoke(argv)
    assert first == second


def golden(name):
    """(expected exit code, stdout, stderr) of a golden case."""
    argv, code = {n: (a, c) for n, a, c in GOLDEN_CASES}[name]
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
        return argv, (code, fh.read(), "")


def fresh_process(argv):
    """(exit code, stdout, stderr) of the CLI in a new interpreter."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "ffgeom.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _emitted(doc):
    buf = io.StringIO()
    cli._emit(doc, buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", [c[0] for c in GOLDEN_CASES])
def test_writer_matches_json_dump_on_goldens(name):
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
        text = fh.read()
    doc = json.loads(text)
    assert _emitted(doc) == json.dumps(doc, indent=2) + "\n" == text


def _reference_listing(kind, poly, shape):
    """(ambient point count, avoiding points) from the reference
    enumerations, one point at a time."""
    fld = poly.field
    if kind == "affine":
        d = Hypersurface(poly, AFFINE, shape)
        ambient = fld.q ** shape[0]
    elif kind == "projective":
        d = Hypersurface(poly, PROJECTIVE, shape)
        ambient = sum(1 for _ in projective_points(fld, shape[0]))
    else:
        d = Hypersurface(poly, GRASSMANNIAN, shape)
        ambient = sum(1 for _ in grassmannian_points(fld, *shape))
    return ambient, per_point_oracle(d, fld)


def _reference_stdout(kind, spec, poly, ambient, listing, max_listed):
    """(exit code, stdout) of the oracle, its document built from the
    reference listing with ``plucker`` and ``fld.coords`` and written by
    ``json.dumps``."""
    fld = poly.field
    points = []
    for pt in listing[:max_listed]:
        if kind == "affine":
            points.append({"kind": "affine", "coordinates": [fld.coords(c) for c in pt]})
        elif kind == "projective":
            points.append({"kind": "projective",
                           "coordinates": [fld.coords(c) for c in pt.coords]})
        else:
            points.append({
                "kind": "grassmannian",
                "matrix": [[fld.coords(c) for c in row] for row in pt.matrix],
                "plucker": [fld.coords(c) for c in plucker(pt.matrix, fld)],
            })
    doc = {
        "subcommand": "oracle",
        "inputs_echo": {"field": spec, "poly": poly.format(), "kind": kind},
        "ambient_points": ambient,
        "avoiding_count": len(listing),
        "points": points,
        "truncated": len(listing) > max_listed,
    }
    return (EXIT_OK if listing else EXIT_NO_POINT), json.dumps(doc, indent=2) + "\n"


def _oracle_argv(kind, spec, poly, shape, max_listed):
    size = {"affine": ["--vars"], "projective": ["--dim"], "grass": ["--m", "--n"]}[kind]
    argv = ["oracle", "--kind", kind, "--field", spec, "--poly", poly.format(),
            "--max-listed", str(max_listed)]
    for flag, value in zip(size, shape):
        argv += [flag, str(value)]
    return argv


def _chart(kind, point):
    """The chart a listed point lies on: the pivot columns of its matrix."""
    if kind == "affine":
        return ()
    rows = [point.coords] if kind == "projective" else point.matrix
    return tuple(next(j for j, c in enumerate(row) if c) for row in rows)


def _cuts(kind, listing):
    """--max-listed values 0, 1, count - 1 and count, and where a chart
    lists two or more points, one that stops after the first of them."""
    c = len(listing)
    cuts = {0, 1, max(c - 1, 0), c}
    charts = [_chart(kind, pt) for pt in listing]
    for i in range(c - 1):
        if charts[i] == charts[i + 1] and (i == 0 or charts[i - 1] != charts[i]):
            cuts.add(i + 1)
            break
    return sorted(cuts)


# (kind, shape) with at most ~1500 points over F_q, q <= 16
def _oracle_shapes(q):
    shapes = [("affine", (n,)) for n in (1, 2, 3) if q ** n <= 1500]
    shapes += [("projective", (n,)) for n in (1, 2, 3) if q ** n <= 1500]
    shapes += [("grass", (1, 3)), ("grass", (2, 3))]
    if q <= 5:
        shapes += [("grass", (2, 4)), ("grass", (3, 4))]
    if q <= 3:
        shapes.append(("grass", (2, 5)))
    return shapes


@st.composite
def _oracle_cases(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16]))
    kind, shape = draw(st.sampled_from(_oracle_shapes(q)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    fld = field_for(q)
    if kind == "affine":
        poly = random_poly(rng, fld, shape[0], 2 * q)
    else:
        nvars = shape[0] + 1 if kind == "projective" else math.comb(shape[1], shape[0])
        poly = random_homogeneous_poly(rng, fld, nvars, rng.randint(1, q + 1))
    spec = draw(st.sampled_from([str(q), f"{fld.p}^{fld.k}"]))
    chunk = draw(st.sampled_from([kernels._CHUNK, 1, 3, 8]))
    return kind, spec, poly, shape, chunk


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_oracle_cases())
def test_oracle_listing_matches_json_dump_of_reference(case):
    # fields with k > 1 render each element as a list at two depths (matrix
    # and Pluecker entries); small chunks put block edges inside charts
    kind, spec, poly, shape, chunk = case
    ambient, listing = _reference_listing(kind, poly, shape)
    with mock.patch.object(kernels, "_CHUNK", chunk):
        for max_listed in _cuts(kind, listing):
            code, stdout, _ = invoke(_oracle_argv(kind, spec, poly, shape, max_listed))
            assert (code, stdout) == _reference_stdout(kind, spec, poly, ambient, listing,
                                                       max_listed)


def test_oracle_listing_across_chunk_and_chart_edges():
    # on P^15(F_2), x2*...*x15 is nonzero where x2 = ... = x15 = 1: on the
    # chart x0 = 1 at 2^14 - 1 and 2^15 - 1, the last index of each of its
    # two chunks, then once on each of the charts x1 = 1 and x2 = 1
    fld = field_for(2)
    poly = MultivariatePolynomial(16, fld, {(0, 0) + (1,) * 14: 1})
    ambient, listing = _reference_listing("projective", poly, (15,))
    assert [_chart("projective", pt) for pt in listing] == [(0,), (0,), (1,), (2,)]
    for max_listed in (1, 2, 3, 4):
        code, stdout, _ = invoke(_oracle_argv("projective", "2", poly, (15,), max_listed))
        assert (code, stdout) == _reference_stdout("projective", "2", poly, ambient, listing,
                                                   max_listed)


def test_parser_reused_across_requests():
    cli._parser.cache_clear()
    bad = ["avoid", "affine", "--field", "4", "--nope"]
    assert invoke(bad) == fresh_process(bad)
    for name in ("avoid_affine_f4", "curve_point_conic_f5"):
        argv, expected = golden(name)
        assert invoke(argv) == expected
    assert cli._parser.cache_info().misses == 1


class TestExitCodes:
    def test_parse_error_is_precondition(self):
        code, _, err = invoke(["avoid", "affine", "--field", "3", "--poly", "x0 +"])
        assert code == EXIT_PRECONDITION
        assert "error" in err

    def test_bad_field_spec(self):
        code, _, err = invoke(["field", "info", "--field", "6"])
        assert code == EXIT_PRECONDITION

    def test_unknown_flag(self):
        code, _, err = invoke(["field", "info", "--nope"])
        assert code == EXIT_PRECONDITION

    # a Carmichael number and a strong pseudoprime to base 2: the
    # characteristic goes through the same Miller-Rabin test as --p
    @pytest.mark.parametrize("spec", ["561^1", "2047^1"])
    def test_pseudoprime_characteristic_refused(self, spec):
        code, _, err = invoke(["field", "info", "--field", spec])
        assert code == EXIT_PRECONDITION and "not prime" in err

    @pytest.mark.parametrize("spec", [
        "1000000000039", "4294967296", "1000000000000000000000000000057^1", "3^100000000",
        # more digits than int() converts
        pytest.param("9" * 5000, id="5000-nines"),
        pytest.param("2^" + "9" * 5000, id="2^5000-nines"),
    ])
    def test_huge_field_fails_fast(self, spec):
        start = time.perf_counter()
        code, _, err = invoke(["field", "info", "--field", spec])
        assert code == EXIT_PRECONDITION and "exceeds limit" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("e,field,expected,seconds", [
        (40, "1601", EXIT_OK, 1.0),
        (60, "3613", EXIT_PRECONDITION, 1.0),
        (200, "40009", EXIT_PRECONDITION, 0.2),
    ], ids=["40-answers", "60-root-field-past-limit", "200-refused-before-the-check"])
    def test_high_degree_curve_fails_fast(self, e, field, expected, seconds):
        # beta = e^2 = 1600 and 3600: the fiber resultant is evaluated on one
        # line of the pencil, not built as a form from beta values.  At
        # e = 200 the root search refuses F_40009^2 before the 400 x 400
        # Sylvester determinant checks the fiber value
        start = time.perf_counter()
        code, out, err = invoke(["curve", "point", "--field", field,
                                 "--curve", f"x0^{e} + x1^{e} + x2^{e}",
                                 "--avoid", f"x0^{e} + 2*x1^{e} + 3*x2^{e}"])
        assert code == expected
        if expected == EXIT_OK:
            assert all(json.loads(out)["verified"].values())
        else:
            assert out == "" and "exceeds limit" in err
        assert time.perf_counter() - start < seconds

    @pytest.mark.parametrize("argv", [
        ["avoid", "affine", "--field", "2", "--vars", "40", "--poly", "x0*x1"],
        ["avoid", "projective", "--field", "2", "--dim", "40", "--poly", "x0*x1*x2"],
        ["avoid", "grass", "--field", "2", "--m", "2", "--n", "20", "--poly", "x0"],
    ], ids=["affine", "projective", "grass"])
    def test_oversized_fallback_fails_fast(self, argv):
        # q <= degree sends each to the exhaustive fallback, over ~10^11+ points
        start = time.perf_counter()
        code, _, err = invoke(argv)
        assert code == EXIT_PRECONDITION and "exceeds limit" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv,flag", [
        (["oracle", "--kind", "affine", "--field", "2", "--poly", "1", "--vars", "0"], "--vars"),
        (["avoid", "projective", "--field", "2", "--poly", "1", "--dim", "0"], "--dim"),
        (["avoid", "affine", "--field", "2", "--poly", "1", "--vars", "-1"], "--vars"),
        (["avoid", "grass", "--field", "2", "--poly", "1", "--m", "-1", "--n", "4"], "--m"),
        (["oracle", "--kind", "grass", "--field", "2", "--poly", "1", "--m", "2",
          "--n", "-1"], "--n"),
        (["oracle", "--kind", "affine", "--field", "2", "--poly", "1", "--limit", "0"], "--limit"),
        (["oracle", "--kind", "affine", "--field", "2", "--poly", "1", "--limit", "-1"],
         "--limit"),
    ], ids=["vars-0", "dim-0", "vars-negative", "grass-m-negative", "grass-n-negative",
            "limit-0", "limit-negative"])
    def test_size_flag_below_one(self, argv, flag):
        code, out, err = invoke(argv)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert flag in err

    @pytest.mark.parametrize("argv", [
        ["bound", "pipeline", "--g", "2", "--r", "2", "--d", "1",
         "--alpha", "10000", "--beta", "5"],
        ["p1", "scan", "--rank-max", "5", "--coeff-bound", "3"],
        ["p1", "verify", "--type=0,1", "--search-bound", "20", "--rank-bound", "4"],
        ["p1", "scan", "--rank-max", "1000000000", "--coeff-bound", "1000000000"],
        # 1 + 2 + ... + 1414 line bundles, one past the budget
        ["p1", "verify", "--type=0", "--search-bound", "0", "--rank-bound", "1414"],
        # an empty box still takes one step per type E
        ["p1", "scan", "--rank-max", "4", "--coeff-bound", "1000", "--rank-bound", "0"],
        # more variables than polynomials.MAX_VARS, from the text or a flag
        ["avoid", "affine", "--field", "7", "--poly", "x999999"],
        ["avoid", "affine", "--field", "7", "--poly", "x0", "--vars", "1000000"],
        ["avoid", "affine", "--field", "7", "--poly", "x" + "9" * 5000],
        ["avoid", "grass", "--field", "7", "--poly", "x0", "--m", "2", "--n", "300"],
        ["avoid", "grass", "--field", "7", "--poly", "x0", "--m", str(10 ** 8),
         "--n", str(2 * 10 ** 8)],
        # more listed points than avoid.MAX_LISTED
        ["oracle", "--kind", "affine", "--field", "2", "--poly", "x0+1", "--vars", "18",
         "--max-listed", "100001"],
        # an oracle --limit above avoid.DEFAULT_ORACLE_LIMIT, over 2^60 points
        ["oracle", "--kind", "affine", "--field", "2^20", "--poly", "x0+1", "--vars", "3",
         "--limit", "100000000000000000000", "--max-listed", "0"],
        # expansions past polynomials.MAX_TERMS: a power of a sum, and a
        # product of two 400-term sums
        ["avoid", "affine", "--field", "7", "--poly", "(x0+x1)^100000000000000000000"],
        ["avoid", "affine", "--field", "7", "--poly",
         "(" + "+".join(f"x0^{i}" for i in range(400)) + ")*("
         + "+".join(f"x1^{i}" for i in range(400)) + ")"],
        # a pencil search past avoid.MAX_PENCIL_WORK
        ["avoid", "projective", "--field", "7", "--poly", "x0", "--dim", "9999"],
        # a sum past polynomials.MAX_TERM_ENTRIES: 10^4 terms of 10^4 exponents
        ["avoid", "affine", "--field", "7", "--poly", "+".join(f"x{i}" for i in range(10 ** 4))],
    ], ids=["pipeline-M", "p1-scan", "p1-verify", "p1-scan-huge", "p1-verify-rank-1414",
            "p1-scan-empty-box", "vars-from-index", "vars-flag", "vars-index-5000-digits",
            "grass-plucker-count",
            "grass-huge-n", "max-listed", "oracle-limit-raised", "power-of-sum", "product-of-sums",
            "projective-dim-9999", "linear-form-10000-vars"])
    def test_over_budget_fails_fast(self, argv):
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert "exceeds limit" in err or "more than" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        ["avoid", "affine", "--field", "7", "--vars", "6000", "--poly", "x0^7"],
        ["oracle", "--kind", "affine", "--field", "7", "--vars", "6000", "--poly", "x0"],
    ], ids=["avoid", "oracle"])
    def test_budget_message_past_str_digit_limit(self, argv):
        # 7^6000 has 5071 digits, more than str() converts by default
        code, out, err = invoke(argv)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert "ambient point count exceeds limit 10000000" in err

    @pytest.mark.parametrize("parts", [1001, 3001])
    def test_partner_budget_counts_parts(self, parts):
        # the default box sums 1001 line bundles, so at most 999 parts fit the budget
        argv = ["p1", "verify", "--type=" + ",".join(["1"] + ["0"] * (parts - 1))]
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert "more than" in err
        assert time.perf_counter() - start < 0.1

    def test_deep_nesting_fails_fast(self):
        depth = 10000
        start = time.perf_counter()
        code, out, err = invoke(["avoid", "affine", "--field", "5",
                                 "--poly", "(" * depth + "x0" + ")" * depth])
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert "nested deeper than" in err
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("coeff_args", [
        ["--rank-max", "0", "--coeff-bound", "0"],
        ["--rank-max", "4", "--coeff-bound", "-1"],
    ], ids=["rank-max-0", "coeff-bound-negative"])
    def test_scan_without_types_returns_fast(self, coeff_args):
        # no type E to check, so the large box is never built
        start = time.perf_counter()
        code, out, _ = invoke(["p1", "scan", *coeff_args,
                               "--search-bound", "6", "--rank-bound", "40"])
        assert code == EXIT_OK and json.loads(out)["total_types"] == 0
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("rank_bound", ["0", "-1"])
    def test_scan_with_empty_box_is_refused(self, rank_bound):
        # the box cannot hold a type's rank-1 partner, so the scan is a
        # precondition error, not a failed criterion (exit 1)
        code, out, err = invoke(["p1", "scan", "--rank-max", "1", "--coeff-bound", "1",
                                 "--rank-bound", rank_bound])
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert "rank_bound" in err

    def test_huge_part_with_empty_box_has_no_partner(self):
        code, out, _ = invoke(["p1", "verify", "--type=" + str(10 ** 20),
                               "--search-bound", str(10 ** 21), "--rank-bound", "0"])
        assert code == EXIT_NO_POINT and json.loads(out)["partner"] is None

    def test_largest_rank_bound_in_budget_returns_fast(self):
        # 1 + 2 + ... + 1413 line bundles fit the budget; no zero type is a partner
        start = time.perf_counter()
        code, out, _ = invoke(["p1", "verify", "--type=0", "--search-bound", "0",
                               "--rank-bound", "1413"])
        assert code == EXIT_NO_POINT and json.loads(out)["partner"] is None
        assert time.perf_counter() - start < 1.0

    def test_missing_subcommand(self):
        code, _, _ = invoke([])
        assert code == EXIT_PRECONDITION

    def test_curve_field_too_small(self):
        code, _, err = invoke(
            ["curve", "point", "--curve", "x0*x1 + 2*x2^2", "--avoid", "x2",
             "--field", "3"]
        )
        assert code == EXIT_PRECONDITION

    def test_not_squarefree(self):
        code, _, err = invoke(
            ["curve", "point", "--curve", "x0^2", "--avoid", "x2", "--field", "5"]
        )
        assert code == EXIT_PRECONDITION

    def test_oracle_limit(self):
        code, _, err = invoke(
            ["oracle", "--kind", "affine", "--field", "5", "--poly", "x0 + 1",
             "--vars", "12", "--limit", "1000"]
        )
        assert code == EXIT_PRECONDITION

    def test_bound_char_p_refuses_composite(self):
        code, out, err = invoke(["bound", "m", "--n", "1", "--alpha", "1", "--beta", "1",
                                 "--mode", "char_p", "--p", "4"])
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert "needs a prime p" in err

    def test_oracle_grass_without_shape(self):
        code, out, err = invoke(["oracle", "--kind", "grass", "--field", "2", "--poly", "x0"])
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert "--m and --n" in err

    def test_oracle_negative_max_listed(self):
        code, out, err = invoke(
            ["oracle", "--kind", "affine", "--field", "2", "--poly", "x0",
             "--vars", "3", "--max-listed", "-1"]
        )
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert "--max-listed" in err


class TestHugeExponents:
    """Exponents whose product with a discrete log passes int64: the scans
    reduce them below q first.  Expected answers come from scalar pow."""

    def test_affine_fallback_f2(self):
        e = 99999999999999999999
        argv = ["avoid", "affine", "--field", "2", "--poly", f"x0^{e}+x1", "--vars", "2"]
        code, out, _ = invoke(argv)
        first = next((a, b) for a in range(2) for b in range(2) if (pow(a, e, 2) + b) % 2)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["mode"] == "exhaustive-fallback"
        assert doc["point"]["coordinates"] == [[a] for a in first]

    @pytest.mark.parametrize("command", [["oracle", "--kind", "affine"], ["avoid", "affine"]],
                             ids=["oracle", "avoid"])
    def test_identically_zero_f7(self, command):
        e = 3074457345618258603  # e * 3 wraps past 2^63
        avoiding = [x for x in range(7) if (pow(x, e, 7) + 6 * pow(x, 3, 7)) % 7]
        assert avoiding == []
        code, out, _ = invoke(command + ["--field", "7", "--poly", f"x0^{e}+6*x0^3", "--vars", "1"])
        assert code == EXIT_NO_POINT
        doc = json.loads(out)
        if command[0] == "oracle":
            assert (doc["avoiding_count"], doc["points"]) == (0, [])
        else:
            assert doc["verified"] == {"exhaustive_scan": True}

    def test_no_point_over_f2_20_is_fast(self):
        start = time.perf_counter()
        code, _, _ = invoke(["avoid", "affine", "--field", "2", "--poly", "x0^2 - x0",
                             "--vars", "20"])
        assert code == EXIT_NO_POINT
        assert time.perf_counter() - start < 0.05


class TestSchema:
    def test_avoid_schema(self):
        _, stdout, _ = invoke(
            ["avoid", "affine", "--field", "4", "--poly", "x0*x1*(x0+x1)"]
        )
        doc = json.loads(stdout)
        assert doc["mode"] == "guaranteed"
        assert doc["outcome"] == "found"
        assert doc["point"]["kind"] == "affine"
        assert doc["verified"]["nonzero"] is True
        assert [t["step"] for t in doc["trace"]] == ["x0", "x1"]

    def test_oracle_truncation(self):
        _, stdout, _ = invoke(
            ["oracle", "--kind", "affine", "--field", "5", "--poly", "1",
             "--vars", "3", "--max-listed", "10"]
        )
        doc = json.loads(stdout)
        assert doc["avoiding_count"] == 125
        assert len(doc["points"]) == 10
        assert doc["truncated"] is True

    def test_curve_schema(self):
        _, stdout, _ = invoke(
            ["curve", "point", "--curve", "x0*x1 + 2*x2^2", "--avoid", "x2",
             "--field", "5"]
        )
        doc = json.loads(stdout)
        assert doc["extension_degree"] <= 2
        assert set(doc["verified"]) == {
            "on_curve", "off_divisor", "degree_bound",
            "orbit_contains_point", "orbit_closed", "orbit_size_divides",
        }
        assert all(doc["verified"].values())
        assert len(doc["orbit"]) in (1, doc["extension_degree"])

    def test_pipeline_big_R_is_string(self):
        _, stdout, _ = invoke(
            ["bound", "pipeline", "--g", "2", "--r", "5", "--d", "3",
             "--alpha", "6", "--beta", "2"]
        )
        doc = json.loads(stdout)
        assert isinstance(doc["R"], str)
        assert int(doc["R"]) % doc["rank_f1"] == 0

    def test_pipeline_R_beyond_int_str_limit(self):
        # r = 1: n = rbar = 1; M = 200 * ceil(log2(max(2 * 200 + 1, 5))) = 1800,
        # and 1800! has 5080 digits, more than str() converts by default
        code, stdout, _ = invoke(
            ["bound", "pipeline", "--g", "1", "--r", "1", "--d", "1",
             "--alpha", "200", "--beta", "5"]
        )
        assert code == EXIT_OK
        doc = json.loads(stdout)
        R = 1 * 1 * math.factorial(1800)
        digits = doc["R"]
        assert doc["M"] == 1800 and digits.isdigit()
        value = 0
        for i in range(0, len(digits), 1000):  # int() refuses the whole string
            chunk = digits[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == R
        lead = R // 10 ** (len(digits) - 6)
        assert doc["R_scientific"] == f"{lead // 10 ** 5}.{lead % 10 ** 5:05d}e+{len(digits) - 1}"
