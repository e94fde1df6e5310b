"""End-to-end acceptance checks, one per criterion, each printing a
pass/fail line so the suite doubles as a readable report:

1. guaranteed affine search across small fields and random polynomials
2. guaranteed projective and Grassmannian searches
3. searches agree with the exhaustive oracle, including no-point cases
4. bound formulas hit pinned spot values
5. plane-curve pipeline cross-checked against brute-force enumeration
6. genus-0 criterion scan finds zero counterexamples
7. CLI output is deterministic and byte-identical to the golden files
"""

import io
import os
import random
import time
from math import comb

import pytest

from ffgeom.avoid import (
    AFFINE,
    GRASSMANNIAN,
    GUARANTEED,
    PROJECTIVE,
    Hypersurface,
    avoid,
    avoid_affine,
    avoid_grassmannian,
    avoid_projective,
    exhaustive_oracle,
)
from ffgeom.bounds import (
    CHAR_P,
    INFINITE,
    BoundInputs,
    bound_M,
    popa_n,
    rank_pipeline,
)
from ffgeom.cli import run as cli_run
from ffgeom.curvepoint import (
    CurveDivisor,
    PlaneCurve,
    point_off_divisor,
)
from ffgeom.errors import (
    CellContained,
    DivisorNotProper,
    FieldTooSmall,
    NotSquarefree,
    ZeroPolynomial,
)
from ffgeom.p1lab import SplittingType, find_partner, verify_criterion
from ffgeom.polynomials import parse_polynomial

from conftest import (
    enumerate_curve_points,
    field_for,
    oracle_points,
    random_homogeneous_poly,
    random_poly,
)
from cli_cases import GOLDEN_DIR
from test_cli import GOLDEN_ROWS, invoke


def report(criterion, label, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[criterion {criterion}] {label}: {status}{suffix}")
    assert ok


def test_criterion_1_affine_guaranteed():
    start = time.monotonic()
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9):
        fld = field_for(q)
        rng = random.Random(1000 + q)
        max_deg = min(q - 1, 4)  # keeps q > deg, so guaranteed mode applies
        for _ in range(300):
            n = rng.randint(1, 3)
            poly = random_poly(rng, fld, n, max_deg)
            d = Hypersurface(poly, AFFINE, (n,))
            res = avoid_affine(d)
            ok &= res.found and res.mode == GUARANTEED
            ok &= poly.eval(list(res.point)) != 0
    elapsed = time.monotonic() - start
    report(1, "affine guaranteed search sweep", ok and elapsed < 60, elapsed)


def test_criterion_2_projective_and_grassmannian():
    start = time.monotonic()
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9):
        fld = field_for(q)
        rng = random.Random(2000 + q)
        for _ in range(150):
            n = rng.randint(1, 3)
            deg = rng.randint(1, q)  # q >= deg guarantees projective mode
            poly = random_homogeneous_poly(rng, fld, n + 1, deg)
            d = Hypersurface(poly, PROJECTIVE, (n,))
            res = avoid_projective(d)
            ok &= res.found and res.mode == GUARANTEED
            ok &= poly.eval(res.point.coords) != 0
    proj_elapsed = time.monotonic() - start
    report(2, "projective guaranteed search sweep", ok and proj_elapsed < 60,
           proj_elapsed)

    start = time.monotonic()
    ok = True
    m, n = 2, 4
    for q in (3, 5, 7):
        fld = field_for(q)
        rng = random.Random(2100 + q)
        max_deg = (q - 1) // m  # q > m*deg guarantees Grassmannian mode
        for _ in range(60):
            poly = random_homogeneous_poly(
                rng, fld, comb(n, m), rng.randint(1, max_deg)
            )
            d = Hypersurface(poly, GRASSMANNIAN, (m, n))
            try:
                res = avoid_grassmannian(d)
            except CellContained:
                continue
            ok &= res.found and res.mode == GUARANTEED
            ok &= poly.eval(res.point.plucker) != 0
    grass_elapsed = time.monotonic() - start
    report(2, "Grassmannian guaranteed search sweep", ok and grass_elapsed < 60,
           grass_elapsed)


def test_criterion_3_oracle_agreement():
    start = time.monotonic()
    ok = True
    # documented negatives: vanishing everywhere over F_2
    f2 = field_for(2)
    neg = parse_polynomial("x0*x1*(x0+x1)", f2, 2)
    d_aff = Hypersurface(neg, AFFINE, (2,))
    ok &= exhaustive_oracle(d_aff) == (0, [])
    ok &= not avoid(d_aff).found
    d_proj = Hypersurface(neg, PROJECTIVE, (1,))
    ok &= exhaustive_oracle(d_proj) == (0, [])
    ok &= not avoid(d_proj).found

    for q in (2, 3, 4, 5, 7):
        fld = field_for(q)
        rng = random.Random(3000 + q)
        for _ in range(40):
            kind = rng.choice([AFFINE, PROJECTIVE, GRASSMANNIAN])
            if kind == AFFINE:
                n = rng.randint(1, 3)
                if fld.q ** n > 10 ** 5:
                    continue
                d = Hypersurface(random_poly(rng, fld, n, 4), AFFINE, (n,))
            elif kind == PROJECTIVE:
                n = rng.randint(1, 2)
                poly = random_homogeneous_poly(rng, fld, n + 1, rng.randint(1, 4))
                d = Hypersurface(poly, PROJECTIVE, (n,))
            else:
                if q > 3:
                    continue  # keep the ambient below 10^5 points
                poly = random_homogeneous_poly(rng, fld, 6, rng.randint(1, 2))
                d = Hypersurface(poly, GRASSMANNIAN, (2, 4))
            res = avoid(d)
            _, oracle = oracle_points(d, fld, limit=10 ** 5)
            ok &= res.found == bool(oracle)
            if res.found:
                if d.kind == AFFINE:
                    ok &= tuple(res.point) in oracle
                else:
                    ok &= res.point in oracle
    elapsed = time.monotonic() - start
    report(3, "searches agree with exhaustive oracle", ok and elapsed < 120,
           elapsed)


def test_criterion_4_bound_spot_values():
    ok = bound_M(BoundInputs(1, 2, 5)) == 6
    ok &= bound_M(BoundInputs(2, 3, 1)) == 12
    ok &= bound_M(BoundInputs(1, 2, 5, INFINITE)) == 2
    ok &= bound_M(BoundInputs(1, 2, 5, CHAR_P, p=5)) == 2
    ok &= popa_n(2) == 2
    ok &= popa_n(5) == 7
    rep = rank_pipeline(g=2, r=2, d=1, moduli_alpha=2, moduli_beta=5)
    ok &= rep.R == 2880
    report(4, "bound formula spot values", ok)


def test_criterion_5_curve_pipeline():
    start = time.monotonic()
    rng = random.Random(5000)
    checked = 0
    ok = True
    while checked < 100:
        q = rng.choice([7, 9, 11, 13])
        fld = field_for(q)
        e = rng.randint(1, 3)
        monos_text = {
            1: "%d*x0 + %d*x1 + %d*x2",
            2: "%d*x0^2 + %d*x1^2 + %d*x2^2",
            3: "%d*x0^3 + %d*x1^3 + %d*x2^3",
        }[e]
        f_text = monos_text % tuple(rng.randrange(1, q) for _ in range(3))
        g_deg = rng.randint(0, 2)
        if g_deg == 0:
            g_text = str(rng.randrange(1, q))
        elif g_deg == 1:
            g_text = "%d*x0 + %d*x1 + %d*x2" % tuple(
                rng.randrange(q) for _ in range(3)
            )
        else:
            g_text = "%d*x0^2 + %d*x1^2 + %d*x2^2" % tuple(
                rng.randrange(q) for _ in range(3)
            )
        try:
            curve = PlaneCurve(parse_polynomial(f_text, fld, 3))
            div = CurveDivisor(parse_polynomial(g_text, fld, 3))
            res = point_off_divisor(curve, div)
        except (NotSquarefree, DivisorNotProper, FieldTooSmall, ZeroPolynomial):
            continue
        checked += 1
        ok &= all(res.flags.values())
        ok &= res.ext_degree <= curve.degree
        # independent cross-check by brute-force enumeration over k2
        pts = enumerate_curve_points(curve, res.k2)
        ok &= res.point in pts
        ok &= div.poly.map_coefficients(res.k2).eval(res.point.coords) != 0
    elapsed = time.monotonic() - start
    report(5, "plane-curve pipeline vs enumeration (100 instances)",
           ok and elapsed < 120, elapsed)


def test_criterion_6_genus0_criterion():
    start = time.monotonic()
    rep = verify_criterion(3, 2, 3, 3)
    ok = rep.ok and rep.total_types == 55
    ok &= find_partner(SplittingType([0, 0]), 3, 2) == SplittingType([-1])
    ok &= find_partner(SplittingType([1, -1]), 3, 2) is None
    elapsed = time.monotonic() - start
    report(6, "genus-0 semistability criterion scan", ok and elapsed < 10,
           elapsed)


def test_criterion_7_determinism():
    ok = True
    for row in GOLDEN_ROWS:
        code, stdout, _ = invoke(row.argv)
        with open(os.path.join(GOLDEN_DIR, row.id + ".json")) as fh:
            golden = fh.read()
        code2, stdout2, _ = invoke(row.argv)
        ok &= code == code2 == row.code
        ok &= stdout == stdout2 == golden
    report(7, "CLI reruns byte-identical to golden files", ok)
