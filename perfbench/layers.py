"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions at ffgeom's module
boundaries with timing wrappers (in every namespace that calls them), and
``Tracer.remove`` puts the originals back.  While a request is in flight
each wrapped call records a span (name, start, end, parent, request id) in
memory; ``layer_metrics`` turns the spans into self time and counts per
layer, and ``write_spans`` saves them when the run ends.

A layer's self time is the time of its spans minus the time of their child
spans, so a layer's figure excludes the layers it calls.
"""

import gzip
import importlib
import time
from collections import Counter
from functools import wraps

# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
METRICS = {
    "fields.build_s": ("s", "lower"),
    "fields.builds": ("count", "lower"),
    "kernels.grid_eval_s": ("s", "lower"),
    "kernels.calls": ("count", "lower"),
    "kernels.points": ("count", "lower"),
    "kernels.first_hit_ratio": ("fraction", "higher"),
    "polynomials.self_s": ("s", "lower"),
    "polynomials.det_s": ("s", "lower"),
    "polynomials.det_calls": ("count", "lower"),
    "polynomials.det_max_n": ("count", "lower"),
    "polynomials.root_search_s": ("s", "lower"),
    "polynomials.root_elements_scanned": ("count", "lower"),
    "polynomials.substitute_s": ("s", "lower"),
    "polynomials.parse_s": ("s", "lower"),
    "avoid.self_s": ("s", "lower"),
    "avoid.guaranteed_s": ("s", "lower"),
    "avoid.fallback_s": ("s", "lower"),
    "avoid.oracle_s": ("s", "lower"),
    "avoid.plucker_s": ("s", "lower"),
    "avoid.plucker_calls": ("count", "lower"),
    "curvepoint.self_s": ("s", "lower"),
    "curvepoint.certificate_s": ("s", "lower"),
    "curvepoint.center_s": ("s", "lower"),
    "curvepoint.fiber_resultant_s": ("s", "lower"),
    "curvepoint.orbit_s": ("s", "lower"),
    "curvepoint.verify_s": ("s", "lower"),
    "p1lab.scan_s": ("s", "lower"),
    "p1lab.candidates": ("count", "lower"),
    "bounds.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ops_per_s": ("1/s", "lower"),
}

# span name -> the self-time metric it adds to, besides its layer's total
_SELF_METRIC = {
    "fields.build": "fields.build_s",
    "kernels.grid_eval": "kernels.grid_eval_s",
    "polynomials.det": "polynomials.det_s",
    "polynomials.root_search": "polynomials.root_search_s",
    "polynomials.substitute": "polynomials.substitute_s",
    "polynomials.parse": "polynomials.parse_s",
    "avoid.guaranteed": "avoid.guaranteed_s",
    "avoid.fallback": "avoid.fallback_s",
    "avoid.oracle": "avoid.oracle_s",
    "avoid.plucker": "avoid.plucker_s",
    "curvepoint.certificate": "curvepoint.certificate_s",
    "curvepoint.center": "curvepoint.center_s",
    "curvepoint.fiber_resultant": "curvepoint.fiber_resultant_s",
    "curvepoint.orbit": "curvepoint.orbit_s",
    "curvepoint.verify": "curvepoint.verify_s",
    "p1lab.scan": "p1lab.scan_s",
    "p1lab.find_partner": "p1lab.scan_s",
    "bounds.bound_M": "bounds.s",
    "bounds.rank_pipeline": "bounds.s",
    "cli.run": "cli.self_s",
}
_LAYER_TOTAL = ("polynomials", "avoid", "curvepoint")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, request]
        self.counts = Counter()
        self.request = None  # spans are recorded only while this is set
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, impl=None, after=None, **kwargs):
        """Run ``fn`` inside a span.  ``impl(fn, *args)`` replaces the plain
        call when the boundary has to do more (force a lazy table);
        ``after(span, args, result)`` may rename the span or add counts."""
        if self.request is None:
            return fn(*args, **kwargs)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            result = impl(fn, *args, **kwargs) if impl else fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
        if after:
            after(span, args, result)
        return result

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, owner, attr, name, impl=None, after=None):
        fn = getattr(owner, attr)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, impl=impl, after=after, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def _count_yields(self, owner, attr, parent, metric):
        fn = getattr(owner, attr)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counting = self.request is not None and self._parent_name() == parent
            for item in fn(*args, **kwargs):
                if counting:
                    self.counts[metric] += 1
                yield item

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    # -- boundary hooks ----------------------------------------------------

    def _build_field(self, fn, *args, **kwargs):
        from ffgeom import fields

        misses = fields._make_field_cached.cache_info().misses
        fld = fn(*args, **kwargs)
        if fields._make_field_cached.cache_info().misses != misses:
            fld.mul(1, 1)  # builds the lazy discrete-log table, part of the build
            self.counts["fields.builds"] += 1
            self.spans[self._stack[-1]][0] = "fields.build"
        return fld

    def _after_search(self, span, args, result):
        span[0] = "avoid.guaranteed" if result.mode == "guaranteed" else "avoid.fallback"

    def _after_grid_eval(self, span, args, values):
        self.counts["kernels.calls"] += 1
        self.counts["kernels.points"] += len(values)
        if self._parent_name() == "avoid.search":  # renamed once the search returns
            hits = values.nonzero()[0]
            self.counts["first_hit.useful"] += int(hits[0]) + 1 if len(hits) else len(values)
            self.counts["first_hit.evaluated"] += len(values)

    def _after_det(self, span, args, result):
        self.counts["polynomials.det_calls"] += 1
        self.counts["polynomials.det_max_n"] = max(
            self.counts["polynomials.det_max_n"], len(args[0]))

    def _after_root_search(self, span, args, result):
        f, max_degree = args[0], args[1]
        q = f.field.q
        if result is None:
            scanned = sum(q ** i for i in range(1, max_degree + 1))
        else:
            root, _, j = result
            scanned = sum(q ** i for i in range(1, j)) + root + 1
        self.counts["polynomials.root_elements_scanned"] += scanned

    def _after_plucker(self, span, args, result):
        self.counts["avoid.plucker_calls"] += 1

    # -- installation --------------------------------------------------------

    def install(self):
        # the package re-exports a function named avoid, so import modules by name
        avoid, bounds, cli, curvepoint, fields, kernels, p1lab, polynomials = (
            importlib.import_module(f"ffgeom.{m}") for m in (
                "avoid", "bounds", "cli", "curvepoint", "fields", "kernels", "p1lab",
                "polynomials"))
        w = self._wrap
        w(fields, "make_field", "fields.lookup", impl=self._build_field)
        w(polynomials, "make_field", "fields.lookup", impl=self._build_field)
        w(kernels, "grid_eval", "kernels.grid_eval", after=self._after_grid_eval)
        w(polynomials.MultivariatePolynomial, "substitute", "polynomials.substitute")
        w(cli, "parse_polynomial", "polynomials.parse")
        w(cli, "run_avoid", "avoid.search", after=self._after_search)
        w(cli, "exhaustive_oracle", "avoid.oracle")
        w(avoid, "plucker", "avoid.plucker", after=self._after_plucker)
        w(avoid, "det_scalar", "polynomials.det", after=self._after_det)
        w(avoid, "det_poly", "polynomials.det", after=self._after_det)
        # what curvepoint imports from polynomials and avoid
        w(curvepoint, "det_poly", "polynomials.det", after=self._after_det)
        w(curvepoint, "find_root_in_tower", "polynomials.root_search",
          after=self._after_root_search)
        for name in ("poly_gcd", "to_univariate", "sylvester_matrix", "homogeneous_or_raise"):
            w(curvepoint, name, f"polynomials.{name}")
        w(curvepoint, "avoid_projective", "avoid.search", after=self._after_search)
        # curvepoint's own stages
        w(curvepoint, "_squarefree_certificate", "curvepoint.certificate")
        w(curvepoint, "projection_center", "curvepoint.center")
        w(curvepoint, "fiber_resultant", "curvepoint.fiber_resultant")
        w(curvepoint, "galois_orbit", "curvepoint.orbit")
        w(curvepoint, "verify_on_curve", "curvepoint.verify")
        w(curvepoint, "point_off_divisor", "curvepoint.pipeline")
        w(p1lab, "verify_criterion", "p1lab.scan")
        w(p1lab, "find_partner", "p1lab.find_partner")
        self._count_yields(p1lab, "splitting_types", "p1lab.find_partner", "p1lab.candidates")
        w(bounds, "bound_M", "bounds.bound_M")
        w(bounds, "rank_pipeline", "bounds.rank_pipeline")

    def remove(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def self_times(spans):
    """Self time in seconds of every span: its duration minus its children's."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start - c) / 1e9 for (_, start, end, _, _), c in zip(spans, child)]


def layer_metrics(spans, counts):
    """Per-layer metric values (every name in METRICS but the overhead)."""
    out = dict.fromkeys(METRICS, 0)
    for span, self_s in zip(spans, self_times(spans)):
        name = span[0]
        layer = name.split(".", 1)[0]
        if name in _SELF_METRIC:
            out[_SELF_METRIC[name]] += self_s
        if layer in _LAYER_TOTAL:
            out[f"{layer}.self_s"] += self_s
    for name, value in counts.items():
        if name in out:
            out[name] = value
    evaluated = counts["first_hit.evaluated"]
    out["kernels.first_hit_ratio"] = counts["first_hit.useful"] / evaluated if evaluated else 0
    out["trace.spans"] = len(spans)
    del out["trace.overhead_ops_per_s"]
    return out


def write_spans(spans, path):
    """Save spans as gzipped tab-separated lines: request, index, parent,
    name, start_ns, end_ns."""
    with gzip.open(path, "wt") as fh:
        fh.write("request\tindex\tparent\tname\tstart_ns\tend_ns\n")
        for i, (name, start, end, parent, request) in enumerate(spans):
            fh.write(f"{request}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")
