"""Output checks: every response's claim is re-derived from its input.

A check returns ``None`` when the response holds up and a one-line reason
when it does not.  Exit codes 2 and 3 are answers, not failures, but each
request states the exit code a correct program gives, so a wrong code is
caught here and a changed answer by the digest.
"""

import hashlib
import json
from math import comb, factorial

from ffgeom.fields import make_field, parse_field_spec
from ffgeom.polynomials import parse_polynomial

MAX_LISTED = 1000  # the oracle's default --max-listed


def _opt(argv, name):
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return None


def _avoid_point(doc_point, fld):
    if doc_point["kind"] == "grassmannian":
        coords = doc_point["plucker"]
    else:
        coords = doc_point["coordinates"]
    return [fld.from_coords(c) for c in coords]


def _nvars(argv, kind):
    if kind == "affine":
        return int(_opt(argv, "--vars"))
    if kind == "projective":
        return int(_opt(argv, "--dim")) + 1
    return comb(int(_opt(argv, "--n")), int(_opt(argv, "--m")))


def _check_avoid(req, doc):
    ambient = req.argv[1]
    fld = parse_field_spec(_opt(req.argv, "--field"))
    if doc["outcome"] != ("found" if req.expect == 0 else "no_point_exists"):
        return f"outcome {doc['outcome']}"
    fallback = req.kind.startswith("avoid-fallback")
    if doc["mode"] != ("exhaustive-fallback" if fallback else "guaranteed"):
        return f"mode {doc['mode']}"
    if req.expect != 0:
        return None
    poly = parse_polynomial(_opt(req.argv, "--poly"), fld, _nvars(req.argv, ambient))
    value = poly.eval(_avoid_point(doc["point"], fld))
    if value == 0:
        return "returned point lies on the hypersurface"
    if fld.from_coords(doc["verified"]["value_at_point"]) != value:
        return "reported value differs from the re-evaluated one"
    return None


def _check_oracle(req, doc, rc):
    kind = _opt(req.argv, "--kind")
    fld = parse_field_spec(_opt(req.argv, "--field"))
    total, count = doc["ambient_points"], doc["avoiding_count"]
    if total != req.info["ambient_points"]:
        return f"ambient_points {total}, expected {req.info['ambient_points']}"
    if not 0 <= count <= total:
        return f"avoiding_count {count} outside [0, {total}]"
    if (rc == 0) != (count > 0):
        return f"exit code {rc} with {count} avoiding points"
    if len(doc["points"]) != min(count, MAX_LISTED) or doc["truncated"] != (count > MAX_LISTED):
        return "listing length disagrees with avoiding_count"
    poly = parse_polynomial(_opt(req.argv, "--poly"), fld, _nvars(req.argv, kind))
    for pt in doc["points"]:
        if poly.eval(_avoid_point(pt, fld)) == 0:
            return f"listed point {pt} lies on the hypersurface"
    return None


def _check_curve(req, doc):
    k1 = parse_field_spec(_opt(req.argv, "--field"))
    k2_doc = doc["k2"]
    k2 = make_field(k2_doc["characteristic"], k2_doc["degree"])
    j = doc["extension_degree"]
    if j != req.info["j"] or j > req.info["e"] or k2.k != k1.k * j:
        return f"extension degree {j}, expected {req.info['j']} (deg F = {req.info['e']})"
    if not all(doc["verified"].values()):
        return f"verification flags {doc['verified']}"
    point = [k2.from_coords(c) for c in doc["point"]["coordinates"]]
    f = parse_polynomial(_opt(req.argv, "--curve"), k1, 3).map_coefficients(k2)
    g = parse_polynomial(_opt(req.argv, "--avoid"), k1, 3).map_coefficients(k2)
    if f.eval(point) != 0:
        return "point is not on the curve"
    if g.eval(point) == 0:
        return "point lies on the divisor"
    return None


def _ceil_log2(x):
    return (x - 1).bit_length()


def _check_bound(req, doc):
    if req.argv[1] == "m":
        n, alpha, beta = (req.info[k] for k in ("n", "alpha", "beta"))
        expected = alpha * _ceil_log2(max((n + 1) * alpha + 1, beta))
        return None if doc["M"] == expected else f"M = {doc['M']}, expected {expected}"
    if int(doc["R"]) != doc["rank_f1"] * factorial(doc["M"]):
        return "R differs from rank_f1 * M!"
    return None


def _cohomology_free(e, f):
    parts = [a + b for a in e for b in f]
    return all(d == -1 for d in parts)  # h0 = h1 = 0 exactly when every part is -1


def _check_p1(req, doc):
    if req.argv[1] == "verify":
        parts = req.info["parts"]
        if req.expect == 2:
            return None if doc["partner"] is None else "partner for an unstable type"
        partner = doc["partner"]
        if not partner or not _cohomology_free(parts, partner):
            return f"partner {partner} leaves cohomology"
        return None
    c = int(_opt(req.argv, "--coeff-bound"))
    r = int(_opt(req.argv, "--rank-max"))
    types = sum(comb(2 * c + rank, rank) for rank in range(1, r + 1))
    if doc["total_types"] != types or not doc["criterion_holds"] or doc["counterexamples"]:
        return "criterion scan disagrees"
    return None


def _check_field(req, doc):
    p, _, k = _opt(req.argv, "--field").partition("^")
    p, k = int(p), int(k or 1)
    fld = doc["field"]
    if (fld["characteristic"], fld["degree"], fld["cardinality"]) != (p, k, p ** k):
        return f"field {fld}"
    return None


def parse(out):
    """The response's JSON document, or None when stdout is not one."""
    try:
        return json.loads(out)
    except ValueError:
        return None


def check(req, rc, doc):
    """Reason the response (exit code ``rc``, parsed stdout ``doc``) is
    wrong, or None."""
    if rc != req.expect:
        return f"exit code {rc}, expected {req.expect}"
    if not isinstance(doc, dict):
        return "stdout is not one JSON document"
    cmd = req.argv[0]
    if cmd == "avoid":
        return _check_avoid(req, doc)
    if cmd == "oracle":
        return _check_oracle(req, doc, rc)
    if cmd == "curve":
        return _check_curve(req, doc)
    if cmd == "bound":
        return _check_bound(req, doc)
    if cmd == "p1":
        return _check_p1(req, doc)
    return _check_field(req, doc)


def digest(responses):
    """One hash over (exit code, stdout) of every response, in order."""
    h = hashlib.sha256()
    for rc, out in responses:
        data = out.encode()
        h.update(f"{rc} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()
