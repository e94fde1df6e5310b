"""Every pinned answer of the ``ffgeom`` command line, as one table of rows.

A row is an invocation with the exit code it must give.  It may also name
a golden file its stdout must equal byte for byte, a substring of its
stderr, a bound on its seconds in-process, and fields of its JSON document
with their values.  :func:`check` tests a row's own expectations and the
rules that hold for a whole subcommand.

``tests/test_cli.py::test_cli_case`` runs every row in-process through
``cli.run``.  Run as a script, this file runs every row through the
installed ``ffgeom`` console script, each with a 10 s timeout, and exits 1
naming each failing row::

    python3 tests/cli_cases.py
"""

import json
import os
import random
import shlex
import subprocess
import sys
from typing import NamedTuple

from ffgeom.cli import EXIT_NO_POINT, EXIT_OK, EXIT_PRECONDITION

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CONSOLE_SCRIPT = ("ffgeom",)
TIMEOUT_S = 10


class Row(NamedTuple):
    id: str
    argv: list
    code: int
    golden: bool = False  # stdout is golden/<id>.json
    stderr: str = ""  # a substring of stderr
    seconds: float | None = None  # bound on the in-process run
    fields: dict = {}  # dotted path into the document -> its value


def case(id, args, code, **kwargs):
    """A row whose argv is ``args`` split as a shell would split it."""
    return Row(id, shlex.split(args), code, **kwargs)


def golden_case(id, args, code=EXIT_OK, **kwargs):
    return case(id, args, code, golden=True, **kwargs)


NINES = "9" * 5000  # more digits than int() converts
SUM_0 = "+".join(f"x0^{i}" for i in range(400))
SUM_1 = "+".join(f"x1^{i}" for i in range(400))
LINEAR_FORM = "+".join(f"x{i}" for i in range(10 ** 4))
QUARTIC_F13 = (
    "1*x1^4 + 11*x1^2*x2^2 + 10*x2^4 + 5*x0*x1^3 + 8*x0*x1^2*x2 + 1*x0*x1*x2^2"
    " + 9*x0*x2^3 + 7*x0^2*x1^2 + 3*x0^2*x1*x2 + 3*x0^3*x1 + 11*x0^3*x2 + 7*x0^4"
)


def many_groups_terms():
    """The exponent tuples of a 300-term polynomial over F_2 in 20
    variables, each coefficient 1: an outer variable x0 .. x5 times a
    distinct monomial of the last 14, so a scan of it has about as many
    coefficient groups as terms."""
    rng = random.Random(5)
    inner = set()
    while len(inner) < 300:
        mono = tuple(int(rng.random() < 0.3) for _ in range(14))
        if any(mono):
            inner.add(mono)
    terms = []
    for mono in sorted(inner):
        o = rng.randrange(6)
        terms.append(tuple(int(i == o) for i in range(6)) + mono)
    return terms


MANY_GROUPS = " + ".join("*".join(f"x{i}" for i, e in enumerate(exps) if e)
                         for exps in many_groups_terms())


def fermat(e, q):
    return (f"curve point --field {q} --curve 'x0^{e} + x1^{e} + x2^{e}' "
            f"--avoid 'x0^{e} + 2*x1^{e} + 3*x2^{e}'")


ROWS = [
    # -- field info --
    golden_case("field_info_f9", "field info --field 3^2"),
    case("field_info_f16", "field info --field 2^4", EXIT_OK),
    # the generators the search has found since it first ran; it powers each
    # candidate's multiplication matrix over F_p by fields.power
    case("field_info_f3_12", "field info --field 3^12", EXIT_OK,
         fields={"generator": [2, 1, 1] + [0] * 9}),
    case("field_info_f2_20", "field info --field 2^20", EXIT_OK,
         fields={"generator": [0, 1] + [0] * 18}),
    case("field_info_f7_7", "field info --field 7^7", EXIT_OK,
         fields={"generator": [0, 2, 0, 0, 0, 0, 0]}),
    case("field_info_f37_3", "field info --field 37^3", EXIT_OK,
         fields={"generator": [1, 2, 0]}),
    # the batched modulus search at its widest rows: 1 021 linear divisors,
    # and for F_101^3 the first irreducible is candidate 102, in the third batch
    case("field_info_f1021_2", "field info --field 1021^2", EXIT_OK,
         fields={"generator": [14, 1]}),
    case("field_info_f101_3", "field info --field 101^3", EXIT_OK,
         fields={"generator": [3, 1, 0]}),
    # a characteristic goes through the same Miller-Rabin test as --p: the
    # prime 2^20 - 3 builds F_p, while the Carmichael number 561 and the
    # base-2 strong pseudoprime 2047 are refused
    case("field_info_prime_2_20_minus_3", "field info --field 1048573^1", EXIT_OK,
         fields={"field.cardinality": 1048573}),
    case("field_561_carmichael", "field info --field 561^1", EXIT_PRECONDITION,
         stderr="not prime"),
    case("field_2047_pseudoprime", "field info --field 2047^1", EXIT_PRECONDITION,
         stderr="not prime"),
    case("field_6_not_prime_power", "field info --field 6", EXIT_PRECONDITION,
         stderr="not a prime power"),
    # refused before any trial division or table
    *[case(f"field_huge_{name}", f"field info --field {spec}", EXIT_PRECONDITION,
           stderr="exceeds limit", seconds=1.0)
      for name, spec in [("1000000000039", "1000000000039"), ("2_32", "4294967296"),
                         ("prime_10_30", "1000000000000000000000000000057^1"),
                         ("3_100000000", "3^100000000"),
                         # past the digits int() converts: past the size limit
                         ("5000_nines", NINES), ("2_to_5000_nines", f"2^{NINES}")]],
    # each part of a field is a run of decimal digits, not int() syntax
    *[case(f"field_not_decimal_{name}", f"field info --field '{spec}'", EXIT_PRECONDITION,
           stderr="decimal digits")
      for name, spec in [("underscores", "1_0_2_1"), ("exponent_underscore", "2^1_0"),
                         ("exponent_plus", "5^+2"), ("plus", "+5")]],
    case("field_info_unknown_flag", "field info --nope", EXIT_PRECONDITION),

    # -- avoid --
    golden_case("avoid_affine_f4", "avoid affine --field 4 --poly 'x0*x1*(x0+x1)'"),
    golden_case("avoid_projective_f3", "avoid projective --field 3 --poly x0*x1*x2"),
    golden_case("avoid_affine_no_point_f2",
                "avoid affine --field 2 --poly 'x0*x1*(x0+x1)' --vars 2", EXIT_NO_POINT),
    golden_case("avoid_grass_f3", "avoid grass --field 3 --poly x0*x5 --m 2 --n 4"),
    # x0^2 - x0 vanishes on all of F_2^20, so the no-point answer must come
    # from the reduced polynomial, without a 2^20-point scan
    case("avoid_affine_no_point_f2_20", "avoid affine --field 2 --poly 'x0^2 - x0' --vars 20",
         EXIT_NO_POINT, seconds=0.05, fields={"verified.exhaustive_scan": True}),
    # a pencil search just inside its budget (3001^2 steps) finishes and
    # verifies: each of its 3000 levels maps the terms' exponent tuples
    case("avoid_pencil_dim_3000", "avoid projective --field 7 --poly x0 --dim 3000", EXIT_OK,
         fields={"verified.nonzero": True}),
    # q <= degree sends each to the exhaustive fallback, over ~10^11+ points
    *[case(f"avoid_{name}_fallback_past_budget", args, EXIT_PRECONDITION,
           stderr="exceeds limit", seconds=1.0)
      for name, args in [
          ("affine", "avoid affine --field 2 --vars 40 --poly x0*x1"),
          ("projective", "avoid projective --field 2 --dim 40 --poly x0*x1*x2"),
          ("grass", "avoid grass --field 2 --m 2 --n 20 --poly x0")]],
    case("avoid_projective_dim_0", "avoid projective --field 2 --poly 1 --dim 0",
         EXIT_PRECONDITION, stderr="--dim"),
    case("avoid_affine_vars_negative", "avoid affine --field 2 --poly 1 --vars -1",
         EXIT_PRECONDITION, stderr="--vars"),
    case("avoid_grass_m_negative", "avoid grass --field 2 --poly 1 --m -1 --n 4",
         EXIT_PRECONDITION, stderr="--m"),
    # refused before any work: more variables than polynomials.MAX_VARS, from
    # the text or a flag; a power of a sum past polynomials.MAX_TERMS and a
    # product of two 400-term sums; a pencil search past avoid.MAX_PENCIL_WORK;
    # a sum past polynomials.MAX_TERM_ENTRIES (10^4 terms of 10^4 exponents)
    *[case(f"avoid_{name}", f"avoid {args}", EXIT_PRECONDITION, stderr=stderr, seconds=1.0)
      for name, args, stderr in [
          ("vars_from_index", "affine --field 7 --poly x999999", "exceeds limit"),
          ("vars_flag", "affine --field 7 --poly x0 --vars 1000000", "exceeds limit"),
          ("vars_index_5000_digits", f"affine --field 7 --poly x{NINES}", "exceeds limit"),
          ("grass_plucker_count", "grass --field 7 --poly x0 --m 2 --n 300", "exceeds limit"),
          ("grass_huge_n", f"grass --field 7 --poly x0 --m {10 ** 8} --n {2 * 10 ** 8}",
           "exceeds limit"),
          ("power_of_sum", "affine --field 7 --poly '(x0+x1)^100000000000000000000'",
           "more than"),
          ("product_of_sums", f"affine --field 7 --poly '({SUM_0})*({SUM_1})'", "more than"),
          ("pencil_dim_9999", "projective --field 7 --poly x0 --dim 9999", "exceeds limit"),
          ("linear_form_10000_vars", f"affine --field 7 --poly {LINEAR_FORM}", "exceeds limit"),
      ]],
    # 7^6000 has 5071 digits, more than str() converts by default
    case("avoid_budget_message_past_str_digit_limit",
         "avoid affine --field 7 --vars 6000 --poly x0^7", EXIT_PRECONDITION,
         stderr="ambient point count exceeds limit 10000000"),
    case("avoid_poly_trailing_plus", "avoid affine --field 3 --poly 'x0 +'", EXIT_PRECONDITION),
    # a digit that is not decimal, and a 5 000-digit exponent, are refused
    # at their position in the text
    case("avoid_poly_superscript_digit", "avoid affine --field 5 --poly x²", EXIT_PRECONDITION,
         stderr="position"),
    case("avoid_poly_exponent_5000_digits", f"avoid affine --field 5 --poly x0^{NINES}",
         EXIT_PRECONDITION, stderr="position"),
    case("avoid_poly_nested_10000_deep",
         f"avoid affine --field 5 --poly '{'(' * 10000}x0{')' * 10000}'",
         EXIT_PRECONDITION, stderr="nested deeper than", seconds=0.1),

    # -- oracle --
    golden_case("oracle_projective_f3", "oracle --kind projective --field 3 --poly x0*x1*x2"),
    golden_case("oracle_affine_f4", "oracle --kind affine --field 4 --poly x0*x1+x0+1"),
    golden_case("oracle_grass_f3_truncated",
                "oracle --kind grass --field 3 --poly x0*x5 --m 2 --n 4 --max-listed 3"),
    golden_case("oracle_projective_f5_unlisted",
                "oracle --kind projective --field 5 --poly x0*x1 --max-listed 0"),
    # x^p - x vanishes exactly on F_p, so the counts go through the
    # discrete-log tables of the coordinate path: two-byte coordinates for
    # p = 1021, one-byte ones for p = 101
    case("oracle_frobenius_f1021_2",
         "oracle --kind affine --field 1021^2 --vars 1 --poly 'x0^1021 - x0' --max-listed 0",
         EXIT_OK, fields={"avoiding_count": 1021 ** 2 - 1021}),
    case("oracle_frobenius_f101_3",
         "oracle --kind affine --field 101^3 --vars 1 --poly 'x0^101 - x0' --max-listed 0",
         EXIT_OK, fields={"avoiding_count": 101 ** 3 - 101}),
    # the count crosses blocks with a coefficient group (x0*x19) and a
    # constant-monomial group (x5): x5 = 1 or x0*x19 = 1, but not both, on
    # 2^19 points.  The inner grid is the last 10 variables, so x19 is
    # inner, x0 and x5 are outer, and the scan has 64 blocks
    case("oracle_f2_20_blocks",
         "oracle --kind affine --field 2 --vars 20 --poly 'x0*x19 + x5' --max-listed 0",
         EXIT_OK, fields={"avoiding_count": 2 ** 19}),
    # 300 coefficient groups: one block product per 2^14 points, and a
    # log-many coefficient evaluations, where a pass per group took 1.4 s
    case("oracle_f2_20_300_terms",
         f"oracle --kind affine --field 2 --vars 20 --poly '{MANY_GROUPS}' --max-listed 0",
         EXIT_OK, seconds=1.0, fields={"avoiding_count": 515744}),
    # every flag is read under its full name only: --max is not --max-listed
    case("oracle_flag_abbreviation",
         "oracle --kind affine --field 2 --poly x0 --vars 2 --max 1",
         EXIT_PRECONDITION, stderr="unrecognized arguments: --max 1"),
    # an 85 MB document from the listing writer, which must parse and agree
    # with its own count
    case("oracle_grass_f7_listing",
         "oracle --kind grass --field 7 --poly x0^2+x5^2 --m 2 --n 5 --max-listed 100000",
         EXIT_OK),
    case("oracle_vars_0", "oracle --kind affine --field 2 --poly 1 --vars 0",
         EXIT_PRECONDITION, stderr="--vars"),
    case("oracle_grass_n_negative", "oracle --kind grass --field 2 --poly 1 --m 2 --n -1",
         EXIT_PRECONDITION, stderr="--n"),
    case("oracle_limit_0", "oracle --kind affine --field 2 --poly 1 --limit 0",
         EXIT_PRECONDITION, stderr="--limit"),
    case("oracle_limit_negative", "oracle --kind affine --field 2 --poly 1 --limit -1",
         EXIT_PRECONDITION, stderr="--limit"),
    # more listed points than avoid.MAX_LISTED
    case("oracle_max_listed_past_budget",
         "oracle --kind affine --field 2 --poly x0+1 --vars 18 --max-listed 100001",
         EXIT_PRECONDITION, stderr="exceeds limit", seconds=1.0),
    # a --limit above avoid.DEFAULT_ORACLE_LIMIT, over 2^60 points, is
    # refused before any work
    case("oracle_limit_past_budget",
         "oracle --kind affine --field 2^20 --poly x0+1 --vars 3 "
         "--limit 100000000000000000000 --max-listed 0",
         EXIT_PRECONDITION, stderr="more than", seconds=1.0),
    case("oracle_budget_message_past_str_digit_limit",
         "oracle --kind affine --field 7 --vars 6000 --poly x0", EXIT_PRECONDITION,
         stderr="ambient point count exceeds limit 10000000"),
    case("oracle_limit_below_space",
         "oracle --kind affine --field 5 --poly 'x0 + 1' --vars 12 --limit 1000",
         EXIT_PRECONDITION),
    case("oracle_grass_without_shape", "oracle --kind grass --field 2 --poly x0",
         EXIT_PRECONDITION, stderr="--m and --n"),
    case("oracle_max_listed_negative",
         "oracle --kind affine --field 2 --poly x0 --vars 3 --max-listed -1",
         EXIT_PRECONDITION, stderr="--max-listed"),
    # each kind reads only its own size flags and refuses another kind's
    case("oracle_affine_with_dim", "oracle --kind affine --field 2 --poly x0 --dim 3",
         EXIT_PRECONDITION, stderr="not --dim"),
    case("oracle_projective_with_vars_m_n",
         "oracle --kind projective --field 2 --poly x0 --vars 5 --m 1 --n 9",
         EXIT_PRECONDITION, stderr="not --vars, --m, --n"),
    case("oracle_grass_with_vars", "oracle --kind grass --field 2 --poly x0 --m 2 --n 4 --vars 6",
         EXIT_PRECONDITION, stderr="not --vars"),

    # -- curve point --
    golden_case("curve_point_conic_f5",
                "curve point --curve 'x0*x1 + 2*x2^2' --avoid x2 --field 5"),
    # roots in F_13^4, F_9^3 and F_16^2: the root search picks the extension
    # degree by distinct-degree factorization and evaluates one norm class
    # of it, with trace splitting and the F_16 -> F_256 embedding in the
    # last.  Each keeps the coordinates the whole-field scan found
    golden_case("curve_point_quartic_f13",
                f"curve point --field 13 --avoid '2*x2 + 2*x1' --curve '{QUARTIC_F13}'",
                fields={"extension_degree": 4,
                        "point.coordinates": [[1, 0, 0, 0], [2, 5, 3, 12], [0, 0, 0, 0]]}),
    golden_case("curve_point_cubic_f9",
                "curve point --field 9 --avoid x0 "
                "--curve '1*x0*x2^2 + 1*x0^3 + 2*x1^2*x2 + 1*x2^3 + 1*x0^3'",
                fields={"extension_degree": 3,
                        "point.coordinates": [[1, 0, 0, 0, 0, 0], [1, 1, 2, 1, 0, 0],
                                              [0, 2, 2, 2, 1, 2]]}),
    golden_case("curve_point_conic_f16",
                "curve point --field 16 --avoid x0 "
                "--curve '2*x1^2 + 3*x2^2 + 3*x0^2 + 1*x0*x2 + 1*x1*x2'",
                fields={"extension_degree": 2,
                        "point.coordinates": [[1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 1, 1, 0, 0, 0, 1],
                                              [0, 1, 1, 1, 0, 1, 0, 0]]}),
    # a cubic avoiding a quartic over F_16, beta = 12: the degree-4 binomial
    # rows, the fiber resultant on each line tried and its check on the
    # chosen line against the Sylvester determinant all run in
    # characteristic 2.  The point, in F_16^3, keeps the coordinates found
    # before the line restriction became one routine
    golden_case("curve_point_cubic_quartic_f16",
                "curve point --field 16 --avoid 'x0*x1*x2^2 + x1^4 + 2*x0^4 + x2^4' "
                "--curve 'x0^2*x1 + x1^2*x2 + x2^2*x0 + 5*x0*x1*x2'",
                fields={"extension_degree": 3,
                        "point.coordinates": [[1] + [0] * 11, [1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1],
                                              [0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1]]}),
    # Fermat pairs, beta = e^2: the fiber resultant is evaluated on one line
    # of the pencil at a time, not built as a form from beta values.  At
    # e = 60 the root field F_3613^2 is past the table limit; at e = 200
    # the root search refuses F_40009^2 before the 400 x 400 Sylvester check
    case("curve_fermat_40_f1601", fermat(40, 1601), EXIT_OK, seconds=1.0),
    case("curve_fermat_60_f3613", fermat(60, 3613), EXIT_PRECONDITION,
         stderr="exceeds limit", seconds=1.0),
    case("curve_fermat_200_f40009", fermat(200, 40009), EXIT_PRECONDITION,
         stderr="exceeds limit", seconds=0.2),
    # the Fermat cubic in characteristic 2: its fiber's roots are found by
    # Cantor-Zassenhaus splitting with trace polynomials, whose splitters
    # are drawn at random, since a + c splits as a does when q = 2^k
    *[case(f"curve_fermat_cubic_f2_{k}",
           f"curve point --field 2^{k} --curve 'x0^3 + x1^3 + x2^3' --avoid x1",
           EXIT_OK, seconds=1.0)
      for k in (10, 20)],
    case("curve_field_too_small", "curve point --curve 'x0*x1 + 2*x2^2' --avoid x2 --field 3",
         EXIT_PRECONDITION),
    case("curve_not_squarefree", "curve point --curve x0^2 --avoid x2 --field 5",
         EXIT_PRECONDITION),

    # -- bound --
    golden_case("bound_m_spot", "bound m --n 1 --alpha 2 --beta 5"),
    golden_case("bound_pipeline_spot", "bound pipeline --g 2 --r 2 --d 1 --alpha 2 --beta 5"),
    case("bound_char_p_composite", "bound m --n 1 --alpha 1 --beta 1 --mode char_p --p 4",
         EXIT_PRECONDITION, stderr="needs a prime p"),
    # --p is read only under --mode char_p
    *[case(f"bound_{name}", f"bound {args}", EXIT_PRECONDITION, stderr="only in char_p mode")
      for name, args in [
          ("m_p_general", "m --n 1 --alpha 1 --beta 1 --p 4"),
          ("m_p_infinite", "m --n 1 --alpha 1 --beta 1 --mode infinite --p 7"),
          ("pipeline_p_general", "pipeline --g 2 --r 2 --d 1 --alpha 2 --beta 5 --p 5")]],
    case("bound_pipeline_moduli_dim_0",
         "bound pipeline --g 2 --r 2 --d 1 --alpha 2 --beta 5 --moduli-dim 0",
         EXIT_PRECONDITION, stderr="moduli_dim"),
    # M > 10^4 is refused before M! is computed
    case("bound_pipeline_past_budget", "bound pipeline --g 2 --r 2 --d 1 --alpha 10000 --beta 5",
         EXIT_PRECONDITION, stderr="exceeds limit", seconds=1.0),

    # -- p1 --
    golden_case("p1_verify_balanced", "p1 verify --type 0,0 --search-bound 3 --rank-bound 2"),
    golden_case("p1_verify_unbalanced", "p1 verify --type 1,-1 --search-bound 3 --rank-bound 2",
                EXIT_NO_POINT),
    golden_case("p1_scan_small", "p1 scan --rank-max 2 --coeff-bound 1"),
    # the benchmark's two scan slots and a balanced type in the default box;
    # the first is also the deepest default scan inside the line-bundle budget
    golden_case("p1_scan_r4_c2", "p1 scan --rank-max 4 --coeff-bound 2",
                fields={"criterion_holds": True, "total_types": 125}),
    golden_case("p1_scan_r3_c3", "p1 scan --rank-max 3 --coeff-bound 3"),
    golden_case("p1_verify_balanced_rank3", "p1 verify --type=-3,-3,-3"),
    # the README's two p1 commands, in the default boxes
    case("p1_verify_default_box", "p1 verify --type 0,0", EXIT_OK,
         fields={"partner": [-1]}),
    case("p1_scan_r3_c2", "p1 scan --rank-max 3 --coeff-bound 2", EXIT_OK,
         fields={"criterion_holds": True, "total_types": 55}),
    # the widest scan inside the line-bundle budget: 999 types against a box of 1001
    case("p1_scan_widest", "p1 scan --rank-max 1 --coeff-bound 499", EXIT_OK,
         fields={"criterion_holds": True, "total_types": 999}),
    # past the line-bundle budget; 1 + 2 + ... + 1414 line bundles is one
    # past it, and an empty box still takes one step per type E
    *[case(f"p1_{name}", f"p1 {args}", EXIT_PRECONDITION, stderr="more than", seconds=1.0)
      for name, args in [
          ("scan_past_budget", "scan --rank-max 5 --coeff-bound 3"),
          ("verify_past_budget", "verify --type=0,1 --search-bound 20 --rank-bound 4"),
          ("scan_huge", "scan --rank-max 1000000000 --coeff-bound 1000000000"),
          ("verify_rank_bound_1414", "verify --type=0 --search-bound 0 --rank-bound 1414"),
          ("scan_empty_box_past_budget",
           "scan --rank-max 4 --coeff-bound 1000 --rank-bound 0")]],
    # the default box sums 1001 line bundles, so at most 999 parts fit the budget
    *[case(f"p1_verify_{parts}_parts",
           "p1 verify --type=" + ",".join(["1"] + ["0"] * (parts - 1)),
           EXIT_PRECONDITION, stderr="more than", seconds=0.1)
      for parts in (1001, 3001)],
    # the box of 4-rank types holds 148 994 types, but the partner of 0
    # is in its rank-1 block, after which the search stops
    case("p1_verify_partner_in_first_rank_block",
         "p1 verify --type=0 --search-bound 20 --rank-bound 4", EXIT_OK, seconds=0.05,
         fields={"partner": [-1]}),
    # 1 + 2 + ... + 1413 line bundles fit the budget; no zero type is a partner
    case("p1_verify_rank_bound_1413", "p1 verify --type=0 --search-bound 0 --rank-bound 1413",
         EXIT_NO_POINT, seconds=1.0, fields={"partner": None}),
    # no type E to check, so the large box is never built
    *[case(f"p1_scan_{name}", f"p1 scan {args} --search-bound 6 --rank-bound 40", EXIT_OK,
           seconds=1.0, fields={"total_types": 0})
      for name, args in [("rank_max_0", "--rank-max 0 --coeff-bound 0"),
                         ("coeff_bound_negative", "--rank-max 4 --coeff-bound -1")]],
    # the box cannot hold a type's rank-1 partner, so the scan is a
    # precondition error, not a failed criterion (exit 1)
    *[case(f"p1_scan_rank_bound_{name}",
           f"p1 scan --rank-max 1 --coeff-bound 1 --rank-bound {rb}",
           EXIT_PRECONDITION, stderr="rank_bound")
      for name, rb in [("0", "0"), ("negative", "-1")]],
    case("p1_verify_huge_part_empty_box",
         f"p1 verify --type={10 ** 20} --search-bound {10 ** 21} --rank-bound 0",
         EXIT_NO_POINT, fields={"partner": None}),
    case("p1_verify_empty_type", "p1 verify --type ,", EXIT_PRECONDITION,
         stderr="empty splitting type"),
    case("p1_verify_empty_type_entry", "p1 verify --type 1,,2", EXIT_PRECONDITION,
         stderr="bad splitting type"),

    case("no_subcommand", "", EXIT_PRECONDITION),
]


_MISSING = "<missing>"


def _max_listed(argv):
    """The --max-listed of an oracle invocation, read from its argv rather
    than from the parser under test."""
    if "--max-listed" not in argv:
        return 1000
    return int(argv[argv.index("--max-listed") + 1])


def check(row, code, stdout, stderr):
    """The ways in which a run of ``row`` that exited with ``code`` and
    wrote ``stdout`` and ``stderr`` is wrong, as messages: none when it is
    right."""
    problems = []
    if code != row.code:
        problems.append(f"exit {code}, expected {row.code}")
    if row.stderr not in stderr:
        problems.append(f"stderr lacks {row.stderr!r}: {stderr[:200]!r}")
    if code == EXIT_PRECONDITION:
        if stdout:
            problems.append("exit 3 with output on stdout")
        if not stderr.startswith("error: "):
            problems.append(f"exit 3 without 'error: ' on stderr: {stderr[:200]!r}")
        return problems
    if code in (EXIT_OK, EXIT_NO_POINT) and stderr:
        problems.append(f"exit {code} with output on stderr: {stderr[:200]!r}")
    if row.golden:
        with open(os.path.join(GOLDEN_DIR, row.id + ".json")) as fh:
            if stdout != fh.read():
                problems.append(f"stdout differs from golden/{row.id}.json")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + [f"stdout is not a JSON document: {stdout[:200]!r}"]
    try:
        return problems + _document_problems(row, doc)
    except (AttributeError, KeyError, TypeError) as exc:
        return problems + [f"malformed document: {exc!r}"]


def _document_problems(row, doc):
    problems = []
    if not ("subcommand" in doc and "inputs_echo" in doc):
        problems.append("no subcommand or inputs_echo")
    for path, expected in row.fields.items():
        value = doc
        for key in path.split("."):
            value = value[key] if isinstance(value, dict) and key in value else _MISSING
        if value != expected:
            problems.append(f"{path} is {value!r}, expected {expected!r}")
    if doc["subcommand"] == "oracle":
        count, listed, cap = doc["avoiding_count"], len(doc["points"]), _max_listed(row.argv)
        if listed != min(count, cap) or doc["truncated"] != (count > cap):
            problems.append(f"lists {listed} of {count} points with --max-listed {cap}, "
                            f"truncated {doc['truncated']}")
    if doc["subcommand"] == "curve point" and not all(
            flag is True for flag in doc["verified"].values()):
        problems.append(f"a verification flag is not true: {doc['verified']}")
    return problems


def run_installed(row, command=CONSOLE_SCRIPT):
    """The problems of ``row`` run through ``command`` in a new process."""
    try:
        proc = subprocess.run([*command, *row.argv], capture_output=True, timeout=TIMEOUT_S,
                              encoding="utf-8", errors="replace")
    except subprocess.TimeoutExpired:
        return [f"no answer within {TIMEOUT_S} s"]
    return check(row, proc.returncode, proc.stdout, proc.stderr)


def main(rows=ROWS, command=CONSOLE_SCRIPT):
    failing = 0
    for r in rows:
        problems = run_installed(r, command)
        for problem in problems:
            print(f"FAIL {r.id}: {problem}")
        failing += bool(problems)
    print(f"{len(rows) - failing} of {len(rows)} CLI cases pass")
    sys.exit(1 if failing else 0)


if __name__ == "__main__":
    main()
