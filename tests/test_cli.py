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
from ffgeom.cli import EXIT_NO_POINT, EXIT_OK, run
from ffgeom.polynomials import MultivariatePolynomial

import cli_cases
from conftest import (
    field_for,
    grassmannian_points,
    per_point_oracle,
    random_homogeneous_poly,
    random_poly,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ROW_BY_ID = {row.id: row for row in cli_cases.ROWS}
GOLDEN_ROWS = [row for row in cli_cases.ROWS if row.golden]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_row(row_id):
    """Run a row of the table in-process; fail with its problems."""
    row = ROW_BY_ID[row_id]
    start = time.perf_counter()
    code, stdout, stderr = invoke(row.argv)
    elapsed = time.perf_counter() - start
    problems = cli_cases.check(row, code, stdout, stderr)
    if row.seconds is not None and elapsed >= row.seconds:
        problems.append(f"took {elapsed:.3f} s, bound {row.seconds} s")
    assert not problems, problems


@pytest.mark.parametrize("row_id", list(ROW_BY_ID))
def test_cli_case(row_id):
    run_row(row_id)


def test_row_ids_unique():
    ids = [row.id for row in cli_cases.ROWS]
    assert len(ids) == len(set(ids))


def test_every_golden_file_named_by_one_row():
    named = sorted(row.id + ".json" for row in GOLDEN_ROWS)
    assert named == sorted(os.listdir(cli_cases.GOLDEN_DIR))


def test_installed_runner_names_failing_rows(capsys, monkeypatch):
    # the runner of the console script, here over the module in a new
    # interpreter: a row with a wrong exit code fails it, by name
    monkeypatch.setenv("PYTHONPATH", SRC)
    command = (sys.executable, "-m", "ffgeom.cli")
    right = ROW_BY_ID["field_info_f16"]
    wrong = right._replace(id="field_info_f16_wrong_code", code=EXIT_NO_POINT)
    with pytest.raises(SystemExit) as exc:
        cli_cases.main([right, wrong], command)
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert "FAIL field_info_f16_wrong_code: exit 0, expected 2" in out
    assert "FAIL field_info_f16:" not in out and "1 of 2 CLI cases pass" in out


@pytest.mark.parametrize("row_id", [row.id for row in GOLDEN_ROWS])
def test_golden(row_id):
    run_row(row_id)


@pytest.mark.parametrize("row_id", [row.id for row in GOLDEN_ROWS])
def test_rerun_byte_identical(row_id):
    argv = ROW_BY_ID[row_id].argv
    assert invoke(argv) == invoke(argv)


def fresh_process(argv):
    """(exit code, stdout, stderr) of the CLI in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "ffgeom.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_closed_stdout_ends_without_traceback():
    # the reader takes 100 bytes of a 460 KB listing and closes the pipe:
    # the next write fails, and the CLI exits 141 with nothing on stderr
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = ["oracle", "--kind", "affine", "--field", "2", "--poly", "x0", "--vars", "12"]
    with subprocess.Popen([sys.executable, "-m", "ffgeom.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert "Traceback" not in stderr and stderr == ""
    assert code == cli.EXIT_BROKEN_PIPE == 141


def _emitted(doc):
    buf = io.StringIO()
    cli._emit(doc, buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", [row.id for row in GOLDEN_ROWS])
def test_writer_matches_json_dump_on_goldens(name):
    with open(os.path.join(cli_cases.GOLDEN_DIR, name + ".json")) as fh:
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
        run_row(name)
    assert cli._parser.cache_info().misses == 1


def rows(cases):
    """Parametrize a test id kept from before the table over its rows:
    ``cases`` maps each parameter id to a row id."""
    return pytest.mark.parametrize("row_id", list(cases.values()), ids=list(cases))


class TestExitCodes:
    """Test ids kept from before the table; each runs its rows."""

    def test_parse_error_is_precondition(self):
        run_row("avoid_poly_trailing_plus")

    def test_bad_field_spec(self):
        run_row("field_6_not_prime_power")

    def test_unknown_flag(self):
        run_row("field_info_unknown_flag")

    @rows({"561^1": "field_561_carmichael", "2047^1": "field_2047_pseudoprime"})
    def test_pseudoprime_characteristic_refused(self, row_id):
        run_row(row_id)

    @rows({"1000000000039": "field_huge_1000000000039", "4294967296": "field_huge_2_32",
           "1000000000000000000000000000057^1": "field_huge_prime_10_30",
           "3^100000000": "field_huge_3_100000000", "5000-nines": "field_huge_5000_nines",
           "2^5000-nines": "field_huge_2_to_5000_nines"})
    def test_huge_field_fails_fast(self, row_id):
        run_row(row_id)

    @rows({"40-answers": "curve_fermat_40_f1601",
           "60-root-field-past-limit": "curve_fermat_60_f3613",
           "200-refused-before-the-check": "curve_fermat_200_f40009"})
    def test_high_degree_curve_fails_fast(self, row_id):
        run_row(row_id)

    @rows({kind: f"avoid_{kind}_fallback_past_budget"
           for kind in ("affine", "projective", "grass")})
    def test_oversized_fallback_fails_fast(self, row_id):
        run_row(row_id)

    @rows({"vars-0": "oracle_vars_0", "dim-0": "avoid_projective_dim_0",
           "vars-negative": "avoid_affine_vars_negative",
           "grass-m-negative": "avoid_grass_m_negative",
           "grass-n-negative": "oracle_grass_n_negative", "limit-0": "oracle_limit_0",
           "limit-negative": "oracle_limit_negative"})
    def test_size_flag_below_one(self, row_id):
        run_row(row_id)

    @rows({"pipeline-M": "bound_pipeline_past_budget", "p1-scan": "p1_scan_past_budget",
           "p1-verify": "p1_verify_past_budget", "p1-scan-huge": "p1_scan_huge",
           "p1-verify-rank-1414": "p1_verify_rank_bound_1414",
           "p1-scan-empty-box": "p1_scan_empty_box_past_budget",
           "vars-from-index": "avoid_vars_from_index", "vars-flag": "avoid_vars_flag",
           "vars-index-5000-digits": "avoid_vars_index_5000_digits",
           "grass-plucker-count": "avoid_grass_plucker_count",
           "grass-huge-n": "avoid_grass_huge_n", "max-listed": "oracle_max_listed_past_budget",
           "oracle-limit-raised": "oracle_limit_past_budget",
           "power-of-sum": "avoid_power_of_sum", "product-of-sums": "avoid_product_of_sums",
           "projective-dim-9999": "avoid_pencil_dim_9999",
           "linear-form-10000-vars": "avoid_linear_form_10000_vars"})
    def test_over_budget_fails_fast(self, row_id):
        run_row(row_id)

    @rows({"avoid": "avoid_budget_message_past_str_digit_limit",
           "oracle": "oracle_budget_message_past_str_digit_limit"})
    def test_budget_message_past_str_digit_limit(self, row_id):
        run_row(row_id)

    @rows({"1001": "p1_verify_1001_parts", "3001": "p1_verify_3001_parts"})
    def test_partner_budget_counts_parts(self, row_id):
        run_row(row_id)

    def test_deep_nesting_fails_fast(self):
        run_row("avoid_poly_nested_10000_deep")

    @rows({"rank-max-0": "p1_scan_rank_max_0",
           "coeff-bound-negative": "p1_scan_coeff_bound_negative"})
    def test_scan_without_types_returns_fast(self, row_id):
        run_row(row_id)

    @rows({"0": "p1_scan_rank_bound_0", "-1": "p1_scan_rank_bound_negative"})
    def test_scan_with_empty_box_is_refused(self, row_id):
        run_row(row_id)

    def test_huge_part_with_empty_box_has_no_partner(self):
        run_row("p1_verify_huge_part_empty_box")

    def test_largest_rank_bound_in_budget_returns_fast(self):
        run_row("p1_verify_rank_bound_1413")

    def test_missing_subcommand(self):
        run_row("no_subcommand")

    def test_curve_field_too_small(self):
        run_row("curve_field_too_small")

    def test_not_squarefree(self):
        run_row("curve_not_squarefree")

    def test_oracle_limit(self):
        run_row("oracle_limit_below_space")

    def test_bound_char_p_refuses_composite(self):
        run_row("bound_char_p_composite")

    def test_oracle_grass_without_shape(self):
        run_row("oracle_grass_without_shape")

    def test_oracle_negative_max_listed(self):
        run_row("oracle_max_listed_negative")


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
        run_row("avoid_affine_no_point_f2_20")


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
