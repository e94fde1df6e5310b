"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import io
import json
import random
from dataclasses import replace
from functools import partial
from itertools import islice

import pytest

import checks
import layers
import run
import workloads as W
from ffgeom import cli

# Tiny versions of the three workloads: every slot kind, small sizes.
TINY = {
    "cli": (
        partial(W.avoid_guaranteed, "affine", W.F7, 3, 2, 3),
        partial(W.avoid_guaranteed, "projective", W.F9, 2, 3, 3),
        partial(W.avoid_guaranteed, "grass", W.F7, (2, 4), 1, 3),
        partial(W.avoid_fallback, "affine", W.F2, 8, 3, 3, True),
        partial(W.avoid_fallback, "affine", W.F2, 6, 3, 2, False),
        partial(W.avoid_fallback, "projective", W.F2, 4, 4, 2, False),
        partial(W.avoid_fallback, "projective", W.F3, 3, 5, 2, True),
        partial(W.field_info, W.F9),
        W.bound_m,
        W.bound_pipeline,
        W.p1_verify,
        W.p1_verify,
        partial(W.p1_scan, 2, 1),
        partial(W.oracle, "projective", W.F3, 2, 2, 3),
        partial(W.curve_point, 7, 2, 1, 2),
    ),
    "curve": (
        partial(W.curve_point, 7, 1, 2, 1),
        partial(W.curve_point, 7, 2, 2, 2),
        partial(W.curve_point, 11, 3, 2, 3),
    ),
    "oracle": (
        partial(W.oracle, "affine", W.F3, 4, 3, 3),
        partial(W.oracle, "projective", W.F5, 2, 3, 3),
        partial(W.oracle, "grass", W.F3, (2, 4), 2, 3),
    ),
}


def _argvs(workload, seed, n):
    return [r.argv for r in islice(W.requests(workload, seed), n)]


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_generator_is_determined_by_the_seed(name):
    wl = W.WORKLOADS[name]
    n = 2 * len(wl.cycle)
    assert _argvs(wl, 7, n) == _argvs(wl, 7, n)
    assert _argvs(wl, 7, n) != _argvs(wl, 8, n)


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_base_fields_do_not_depend_on_the_seed(name):
    wl = W.WORKLOADS[name]
    for req in islice(W.requests(wl, 3), len(wl.cycle)):
        if "--field" in req.argv:
            assert req.argv[req.argv.index("--field") + 1] in W.base_fields(wl)


@pytest.mark.parametrize("p,e,j", [(7, 1, 1), (7, 2, 2), (11, 3, 3), (11, 4, 2), (13, 4, 4)])
def test_curve_generator_prescribes_the_extension_degree(p, e, j):
    req = W.curve_point(p, e, 2, j, random.Random(1))
    out = io.StringIO()
    assert cli.run(req.argv, out, io.StringIO()) == 0
    doc = json.loads(out.getvalue())
    assert doc["extension_degree"] == j
    assert checks.check(req, 0, doc) is None


def test_root_degree():
    assert W.root_degree([1, 1], 7) == 1  # 1 + v
    assert W.root_degree([1, 0, 1], 7) == 2  # -1 is not a square mod 7
    assert W.root_degree([1, 0, 2, 0, 1], 7) == 2  # (v^2 + 1)^2
    assert W.root_degree([3, 0, 0, 1], 7) == 3  # -3 is not a cube mod 7
    assert W.root_degree([1, 1, 0, 0, 1], 2) == 4  # v^4 + v + 1 is irreducible over F_2


def _respond(req):
    out = io.StringIO()
    rc = cli.run(req.argv, out, io.StringIO())
    return rc, json.loads(out.getvalue())


def test_checker_accepts_a_true_answer_and_rejects_a_flipped_coordinate():
    req = W.Request(["avoid", "affine", "--field", "7", "--poly", "x0 + 2*x1", "--vars", "2"],
                    "avoid-affine", 0)
    rc, doc = _respond(req)
    assert checks.check(req, rc, doc) is None
    coords = doc["point"]["coordinates"]
    coords[0][0] = (coords[0][0] + 1) % 7
    assert "differs" in checks.check(req, rc, doc)


def test_checker_rejects_a_wrong_exit_code():
    req = W.Request(["avoid", "affine", "--field", "7", "--poly", "x0 + 2*x1", "--vars", "2"],
                    "avoid-affine", 0)
    rc, doc = _respond(req)
    assert "exit code" in checks.check(req, 2, doc)


def test_checker_rejects_an_oracle_point_on_the_hypersurface():
    req = W.oracle("affine", W.F3, 3, 2, 3, random.Random(2))
    rc, doc = _respond(req)
    assert checks.check(req, rc, doc) is None
    doc["points"][0]["coordinates"] = [[0], [0], [0]]  # the polynomial has no constant term
    assert "lies on the hypersurface" in checks.check(req, rc, doc)


def test_checker_rejects_a_curve_point_off_the_curve():
    req = W.curve_point(7, 2, 2, 1, random.Random(3))
    rc, doc = _respond(req)
    assert checks.check(req, rc, doc) is None
    point = doc["point"]["coordinates"]
    point[2][0] = (point[2][0] + 1) % 7
    assert checks.check(req, rc, doc) is not None


def test_digest_covers_exit_code_and_stdout():
    base = checks.digest([(0, "a"), (2, "b")])
    assert base == checks.digest([(0, "a"), (2, "b")])
    assert base != checks.digest([(0, "a"), (3, "b")])
    assert base != checks.digest([(0, "a"), (2, "c")])


def test_self_times_of_a_span_nest():
    # name, start, end, parent, request (times in ns)
    spans = [
        ["cli.run", 0, 100, -1, 0],
        ["avoid.guaranteed", 10, 40, 0, 0],
        ["polynomials.det", 20, 30, 1, 0],
        ["polynomials.substitute", 50, 60, 0, 0],
        ["polynomials.det", 60, 65, 0, 0],
    ]
    assert [round(s * 1e9) for s in layers.self_times(spans)] == [55, 20, 10, 10, 5]
    m = layers.layer_metrics(spans, layers.Counter())
    assert round(m["cli.self_s"] * 1e9) == 55
    assert round(m["avoid.guaranteed_s"] * 1e9) == 20
    assert round(m["avoid.self_s"] * 1e9) == 20
    assert round(m["polynomials.det_s"] * 1e9) == 15
    assert round(m["polynomials.self_s"] * 1e9) == 25
    assert m["trace.spans"] == 5


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_tiny_smoke_run(name, tmp_path):
    wl = replace(W.WORKLOADS[name], cycle=TINY[name])
    loops, metrics = run.run_traced(wl, seed=1, out_dir=tmp_path)
    assert [f for loop in loops for f in loop.failures] == []
    assert run.digest_problems(name, 1, [loop.digest() for loop in loops]) == []
    values = {k: v["value"] for k, v in metrics.items()}
    assert set(values) == set(layers.METRICS)
    assert values["cli.self_s"] > 0 and values["trace.spans"] > 0
    working = {
        "cli": ["kernels.calls", "avoid.fallback_s", "avoid.guaranteed_s", "p1lab.candidates",
                "bounds.s", "polynomials.parse_s", "kernels.first_hit_ratio"],
        "curve": ["polynomials.det_calls", "polynomials.root_elements_scanned", "fields.builds",
                  "curvepoint.fiber_resultant_s", "curvepoint.certificate_s"],
        "oracle": ["avoid.oracle_s", "avoid.plucker_calls", "kernels.points"],
    }[name]
    assert all(values[k] > 0 for k in working), {k: values[k] for k in working}
    assert list(tmp_path.glob("spans-*.tsv.gz"))
