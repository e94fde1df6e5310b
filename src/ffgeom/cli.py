"""Command-line interface: every operation behind one executable, JSON out.

Exit codes: 0 found/success, 2 no point / no partner in the box,
3 precondition violation or parse error (diagnostic on stderr),
1 internal error, 141 (128 + SIGPIPE) stdout closed before the answer
was written.
"""

import argparse
import json
import os
import sys
from functools import lru_cache
from math import comb

import numpy as np

from . import bounds, curvepoint, p1lab
from .avoid import (
    AFFINE,
    DEFAULT_ORACLE_LIMIT,
    GRASSMANNIAN,
    MAX_LISTED,
    PROJECTIVE,
    GrassmannianPoint,
    Hypersurface,
    ProjectivePoint,
    ambient_point_count,
    avoid as run_avoid,
    exhaustive_oracle,
    plucker_variable_names,
)
from .errors import FFGeomError, InternalContradiction, ParseError, SpaceTooLarge
from .fields import parse_field_spec
from .polynomials import MAX_VARS, count_variables, parse_polynomial

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NO_POINT = 2
EXIT_PRECONDITION = 3
EXIT_BROKEN_PIPE = 141


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser that raises instead of exiting, and reads each flag only
    under its full name (subparsers inherit both as ``parser_class``)."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise _ArgumentError(message)


def _field_json(fld):
    return {
        "characteristic": fld.p,
        "degree": fld.k,
        "cardinality": fld.q,
        "modulus": list(fld.modulus) if fld.modulus else None,
    }


def _point_json(point, fld):
    """A point as JSON, each element as its coordinate vector."""
    if isinstance(point, ProjectivePoint):
        return {
            "kind": "projective",
            "coordinates": [fld.coords(c) for c in point.coords],
        }
    if isinstance(point, GrassmannianPoint):
        return {
            "kind": "grassmannian",
            "matrix": [[fld.coords(c) for c in row] for row in point.matrix],
            "plucker": [fld.coords(c) for c in point.plucker],
        }
    return {"kind": "affine", "coordinates": [fld.coords(c) for c in point]}


def _trace_json(trace, fld):
    out = []
    for step in trace or []:
        kind, value = step
        label = f"x{kind}" if isinstance(kind, int) else str(kind)
        if isinstance(value, int):
            out.append({"step": label, "value": fld.coords(value)})
        elif isinstance(value, tuple):
            out.append({"step": label, "value": [fld.coords(v) for v in value]})
        else:
            out.append({"step": label, "value": str(value)})
    return out


def _emit(doc, stream):
    """Write ``doc`` and a newline as ``json.dump(doc, stream, indent=2)``
    would."""
    stream.write(json.dumps(doc, indent=2) + "\n")


# a string that stands in for a value in a document's JSON text
_SLOT = "\0"


def _write_points(kind, names, blocks, fld, write):
    """Write the text of an oracle listing, the value of its document's
    "points", as ``json.dumps(indent=2)`` would at nesting depth 1, from the
    blocks of :func:`exhaustive_oracle`, one point at a time.

    Every listed point has the same shape, so its text is one template: the
    text of a point whose elements are slots, split at them.  An element's
    text depends only on the element and its depth, so it is built once
    per depth, and only for the elements the listing holds.
    """
    if not blocks:
        write("[]")
        return
    point = {"kind": kind}
    for name, array in zip(names, blocks[0]):
        slots = np.empty(array.shape[1:], dtype=object)
        slots.fill(_SLOT)  # np.full would strip the NUL
        point[name] = slots.tolist()
    text = json.dumps(point, indent=2).replace("\n", "\n    ")
    pieces = np.array(text.split(json.dumps(_SLOT)), dtype=object)
    seen = np.zeros(fld.q, dtype=bool)
    for block in blocks:
        for array in block:
            seen[array] = True
    held = np.flatnonzero(seen).tolist()
    texts = {}  # depth -> element texts, indexed by element
    for depth in {array.ndim + 2 for array in blocks[0]}:
        texts[depth] = np.empty(fld.q, dtype=object)
        texts[depth][held] = [
            json.dumps(fld.coords(a), indent=2).replace("\n", "\n" + "  " * depth)
            for a in held
        ]
    sep = "[\n    "
    for block in blocks:
        elements = np.concatenate(
            [texts[a.ndim + 2][a.reshape(len(a), -1)] for a in block], axis=1)
        parts = np.empty((len(elements), len(pieces) + elements.shape[1]), dtype=object)
        parts[:, 0::2] = pieces
        parts[:, 1::2] = elements
        # a write per point: no text longer than a point is built, which
        # peaks lower than a write per block
        for row in parts.tolist():
            write(sep + "".join(row))
            sep = ",\n    "
    write("\n  ]")


# each ambient's name on the command line -> its kind and the size flags
# it reads; ``oracle`` declares them all and refuses those of another kind
_AMBIENTS = {
    "affine": (AFFINE, ("--vars",)),
    "projective": (PROJECTIVE, ("--dim",)),
    "grass": (GRASSMANNIAN, ("--m", "--n")),
}


def _shared(flags, **kwargs):
    """A parent parser declaring each of ``flags`` with ``kwargs``."""
    parent = _Parser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, **kwargs)
    return parent


@lru_cache(maxsize=None)
def _parser():
    """The argument parser, built once per process: building it costs far
    more than a parse, and a parse leaves it unchanged."""
    top = _Parser(prog="ffgeom", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    field = _shared(("--field",), required=True)
    poly = _shared(("--poly",), required=True)
    # a Grassmannian without --m/--n is rejected by _hypersurface_from_args
    sizes = {name: _shared(flags, type=int, default=None)
             for name, (_, flags) in _AMBIENTS.items()}

    p = sub.add_parser("field", help="field inspection")
    p.set_defaults(handler=_cmd_field_info)
    fs = p.add_subparsers(dest="action", required=True)
    fs.add_parser("info", parents=[field])

    p = sub.add_parser("avoid", help="point off a hypersurface")
    p.set_defaults(handler=_cmd_avoid)
    av = p.add_subparsers(dest="ambient", required=True)
    for name, size in sizes.items():
        av.add_parser(name, parents=[field, poly, size])

    p = sub.add_parser("oracle", help="exhaustive listing of avoiding points",
                       parents=[field, poly, *sizes.values()])
    p.set_defaults(handler=_cmd_oracle)
    p.add_argument("--kind", choices=list(_AMBIENTS), required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_ORACLE_LIMIT)
    p.add_argument("--max-listed", type=int, default=1000)

    p = sub.add_parser("curve", help="plane-curve point search")
    p.set_defaults(handler=_cmd_curve_point)
    cs = p.add_subparsers(dest="action", required=True)
    cp = cs.add_parser("point", parents=[field])
    cp.add_argument("--curve", required=True)
    cp.add_argument("--avoid", required=True)

    degree = _shared(("--alpha", "--beta"), type=int, required=True)
    degree.add_argument("--mode", choices=[bounds.GENERAL, bounds.INFINITE, bounds.CHAR_P],
                        default=bounds.GENERAL)
    degree.add_argument("--p", type=int, default=None)
    p = sub.add_parser("bound", help="rank and extension-degree bounds")
    p.set_defaults(handler=_cmd_bound)
    bs = p.add_subparsers(dest="action", required=True)
    bm = bs.add_parser("m", parents=[degree])
    bm.add_argument("--n", type=int, required=True)
    bp = bs.add_parser("pipeline", parents=[degree])
    bp.add_argument("--g", type=int, required=True)
    bp.add_argument("--r", type=int, required=True)
    bp.add_argument("--d", type=int, required=True)
    bp.add_argument("--moduli-dim", type=int, default=1)

    p = sub.add_parser("p1", help="genus-0 semistability lab")
    p.set_defaults(handler=_cmd_p1)
    ps = p.add_subparsers(dest="action", required=True)
    pv = ps.add_parser("verify")
    pv.add_argument("--type", required=True)
    pv.add_argument("--search-bound", type=int, default=5)
    pv.add_argument("--rank-bound", type=int, default=3)
    pc = ps.add_parser("scan")
    pc.add_argument("--rank-max", type=int, required=True)
    pc.add_argument("--coeff-bound", type=int, required=True)
    pc.add_argument("--search-bound", type=int, default=None)
    pc.add_argument("--rank-bound", type=int, default=None)

    return top


def _positive(value, flag):
    """``value`` of an optional size flag, which must be >= 1 when given."""
    if value is not None and value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")
    return value


def _hypersurface_from_args(args, name):
    """The hypersurface of the ambient called ``name`` on the command line."""
    kind, own = _AMBIENTS[name]
    foreign = [flag for _, flags in _AMBIENTS.values() for flag in flags
               if flag not in own and getattr(args, flag[2:], None) is not None]
    if foreign:
        raise ValueError(f"{name} takes {' and '.join(own)}, not {', '.join(foreign)}")
    fld = parse_field_spec(args.field)
    if kind == AFFINE:
        nvars = _positive(args.vars, "--vars")
        if nvars is None:
            nvars = max(count_variables(args.poly), 1)
        poly = parse_polynomial(args.poly, fld, nvars)
        return Hypersurface(poly, AFFINE, (nvars,))
    if kind == PROJECTIVE:
        dim = _positive(args.dim, "--dim")
        nvars = dim + 1 if dim is not None else max(count_variables(args.poly), 2)
        poly = parse_polynomial(args.poly, fld, nvars)
        return Hypersurface(poly, PROJECTIVE, (nvars - 1,))
    m, n = args.m, args.n
    if m is None or n is None:
        raise ValueError("a Grassmannian needs --m and --n")
    if not 1 <= m < n:
        raise ValueError("--m and --n need 1 <= m < n")
    # C(n, m) >= n, so a larger n is past the parser's variable budget too;
    # refused here, since comb of a huge n is slow
    if n > MAX_VARS:
        raise SpaceTooLarge(f"variable count exceeds limit {MAX_VARS}")
    poly = parse_polynomial(args.poly, fld, comb(n, m))
    return Hypersurface(poly, GRASSMANNIAN, (m, n))


def _cmd_field_info(args, out):
    fld = parse_field_spec(args.field)
    doc = {
        "subcommand": "field info",
        "inputs_echo": {"field": args.field},
        "field": _field_json(fld),
        "generator": fld.coords(fld.generator()),
    }
    _emit(doc, out)
    return EXIT_OK


def _cmd_avoid(args, out):
    surf = _hypersurface_from_args(args, args.ambient)
    fld = surf.poly.field
    result = run_avoid(surf)
    doc = {
        "subcommand": f"avoid {args.ambient}",
        "inputs_echo": {
            "field": args.field,
            "poly": args.poly,
            "ambient": args.ambient,
            "degree": surf.degree,
        },
        "mode": result.mode,
        "outcome": result.outcome,
    }
    if surf.kind == GRASSMANNIAN:
        doc["inputs_echo"]["m"] = args.m
        doc["inputs_echo"]["n"] = args.n
        doc["plucker_variables"] = {
            name: list(cols) for name, cols in plucker_variable_names(args.m, args.n)
        }
    if result.found:
        doc["point"] = _point_json(result.point, fld)
        doc["trace"] = _trace_json(result.trace, fld)
        doc["verified"] = {
            "value_at_point": fld.coords(result.value),
            "nonzero": result.value != 0,
        }
        _emit(doc, out)
        return EXIT_OK
    doc["verified"] = {"exhaustive_scan": True}
    _emit(doc, out)
    return EXIT_NO_POINT


def _cmd_oracle(args, out):
    if args.max_listed < 0:
        raise ValueError(f"--max-listed must be >= 0, got {args.max_listed}")
    if args.max_listed > MAX_LISTED:
        raise SpaceTooLarge(f"--max-listed exceeds limit {MAX_LISTED}")
    limit = _positive(args.limit, "--limit")
    surf = _hypersurface_from_args(args, args.kind)
    count, blocks = exhaustive_oracle(surf, limit=limit, max_listed=args.max_listed)
    doc = {
        "subcommand": "oracle",
        "inputs_echo": {"field": args.field, "poly": args.poly, "kind": args.kind},
        "ambient_points": ambient_point_count(surf),
        "avoiding_count": count,
        "points": _SLOT,
        "truncated": count > args.max_listed,
    }
    # only the boolean "truncated" follows the listing's slot
    head, _, tail = json.dumps(doc, indent=2).rpartition(json.dumps(_SLOT))
    out.write(head)
    if surf.kind == GRASSMANNIAN:
        _write_points("grassmannian", ("matrix", "plucker"), blocks, surf.poly.field, out.write)
    else:
        _write_points(surf.kind, ("coordinates",), blocks, surf.poly.field, out.write)
    out.write(tail + "\n")
    return EXIT_OK if count else EXIT_NO_POINT


def _cmd_curve_point(args, out):
    fld = parse_field_spec(args.field)
    fpoly = parse_polynomial(args.curve, fld, 3)
    gpoly = parse_polynomial(args.avoid, fld, 3)
    curve = curvepoint.PlaneCurve(fpoly)
    divisor = curvepoint.CurveDivisor(gpoly)
    result = curvepoint.point_off_divisor(curve, divisor)
    k2 = result.k2
    doc = {
        "subcommand": "curve point",
        "inputs_echo": {
            "curve": args.curve,
            "avoid": args.avoid,
            "field": args.field,
        },
        "mode": "guaranteed",
        "k1": _field_json(result.k1),
        "k2": _field_json(k2),
        "extension_degree": result.ext_degree,
        "point": _point_json(result.point, k2),
        "projection_center": _point_json(result.center, fld),
        "fiber_parameter": _point_json(result.fiber_parameter, fld),
        "orbit": [_point_json(p, k2) for p in result.orbit],
        "verified": result.flags,
    }
    _emit(doc, out)
    return EXIT_OK


def _cmd_bound(args, out):
    if args.action == "m":
        inp = bounds.BoundInputs(args.n, args.alpha, args.beta, args.mode, args.p)
        doc = {
            "subcommand": "bound m",
            "inputs_echo": {
                "n": args.n,
                "alpha": args.alpha,
                "beta": args.beta,
                "mode": args.mode,
                "p": args.p,
            },
            "M": bounds.bound_M(inp),
        }
        _emit(doc, out)
        return EXIT_OK
    report = bounds.rank_pipeline(
        args.g, args.r, args.d, args.alpha, args.beta,
        field_mode=args.mode, char=args.p, moduli_dim=args.moduli_dim,
    )
    doc = {
        "subcommand": "bound pipeline",
        "inputs_echo": {
            "g": args.g,
            "r": args.r,
            "d": args.d,
            "alpha": args.alpha,
            "beta": args.beta,
            "mode": args.mode,
            "p": args.p,
            "moduli_dim": args.moduli_dim,
        },
    }
    doc.update(report.as_json_dict())
    _emit(doc, out)
    return EXIT_OK


def _parse_type(text):
    entries = text.split(",")
    if all(x.strip() == "" for x in entries):
        raise ParseError("empty splitting type")
    try:
        parts = [int(x) for x in entries]
    except ValueError as exc:
        raise ParseError(f"bad splitting type {text!r}") from exc
    return p1lab.SplittingType(parts)


def _cmd_p1(args, out):
    if args.action == "verify":
        e = _parse_type(args.type)
        partner = p1lab.find_partner(e, args.search_bound, args.rank_bound)
        doc = {
            "subcommand": "p1 verify",
            "inputs_echo": {
                "type": args.type,
                "search_bound": args.search_bound,
                "rank_bound": args.rank_bound,
            },
            "splitting_type": list(e.parts),
            "slope": str(p1lab.slope(e)),
            "semistable": p1lab.is_semistable(e),
            "partner": list(partner.parts) if partner else None,
        }
        if partner:
            dims = p1lab.cohomology_dims(p1lab.tensor(e, partner))
            doc["verified"] = {"h0": dims.h0, "h1": dims.h1}
        _emit(doc, out)
        return EXIT_OK if partner else EXIT_NO_POINT
    sb = args.search_bound if args.search_bound is not None else args.coeff_bound + 1
    rb = args.rank_bound if args.rank_bound is not None else args.rank_max
    report = p1lab.verify_criterion(args.rank_max, args.coeff_bound, sb, rb)
    doc = {
        "subcommand": "p1 scan",
        "inputs_echo": {
            "rank_max": args.rank_max,
            "coeff_bound": args.coeff_bound,
            "search_bound": sb,
            "rank_bound": rb,
        },
        "total_types": report.total_types,
        "semistable_count": report.semistable_count,
        "partnered_count": report.partnered_count,
        "max_partner_rank": report.max_partner_rank,
        "counterexamples": [
            [list(e.parts), list(p.parts) if p else None]
            for e, p in report.counterexamples
        ],
        "criterion_holds": report.ok,
    }
    _emit(doc, out)
    return EXIT_OK if report.ok else EXIT_INTERNAL


def run(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = _parser().parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_PRECONDITION
    try:
        return args.handler(args, out)
    except InternalContradiction as exc:
        print(f"internal error: {exc}", file=err)
        return EXIT_INTERNAL
    except (FFGeomError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_PRECONDITION


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a reader that left shows here, inside the try
    except BrokenPipeError:
        # Python's recipe: stdout goes to devnull, so that the flush at exit
        # does not raise again, and the process ends without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
