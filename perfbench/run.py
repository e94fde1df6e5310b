"""Closed-loop benchmark of ffgeom through its single entry point.

One caller in one process sends the generated requests of one workload to
``ffgeom.cli.run(argv, out, err)``, one at a time, and checks every
response.  Run from the repository root:

    python3 perfbench/run.py --workload cli --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see layers.py).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md.
"""

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (stdlib only; ffgeom is imported during set-up)

MIN_REQUESTS = 100  # so that at least ten latency samples lie beyond p90
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
SPEED_EVERY = 2  # requests between two samples of the machine speed
SPEED_REFERENCE_S = 0.0008  # Speed sample that times are scaled to
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Speed:
    """How fast the machine is running, from timings of fixed work that
    does not use ffgeom: an interpreter-bound loop (integer arithmetic and
    dict stores) and a memory-bound numpy pass, the two kinds of work the
    program does.  On a shared host it drifts from one minute to the next;
    reported times are divided by ``slowness()`` and rates multiplied, so
    figures read as measured at the reference speed."""

    def __init__(self):
        import numpy as np  # ffgeom has imported it already

        self.array = np.arange(1 << 15, dtype=np.int64)
        self.samples = []

    def sample(self):
        """Time the fixed work once: the geometric mean of its two parts."""
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(6000):
            acc = (acc * 31 + i) % 1000003
            table[i & 1023] = acc
        t1 = time.perf_counter()
        b = (self.array * 7 + 3) % 11
        int(b[b != 0].sum())
        t2 = time.perf_counter()
        self.samples.append(((t1 - t0) * (t2 - t1)) ** 0.5)

    def slowness(self):
        """Median sample over the reference one."""
        return statistics.median(self.samples) / SPEED_REFERENCE_S


def setup(workload, tracer=None):
    """Import ffgeom and build every base field the workload names, with
    its discrete-log and grid-kernel tables;
    a ``tracer`` records the builds as request "setup".
    Returns (seconds, cli module, base fields)."""
    start = time.perf_counter()
    import ffgeom
    from ffgeom import cli, fields, kernels

    if not Path(ffgeom.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ffgeom imported from {ffgeom.__file__}, not from {SRC}")
    base = []
    try:
        if tracer:
            tracer.install()
            tracer.request = "setup"
        for spec in workloads.base_fields(workload):
            fld = fields.parse_field_spec(spec)
            fld.mul(1, 1)  # builds the lazy discrete-log table
            if kernels.kernel_capable(fld):
                kernels.field_tables(fld)
            base.append(fld)
    finally:
        if tracer:
            tracer.request = None
            tracer.remove()
    return time.perf_counter() - start, cli, base


class FieldCaches:
    """Puts ffgeom's field caches back to their state after set-up before
    every request, so a request pays for the extension fields it builds, as
    a CLI process would, while base fields keep their tables."""

    def __init__(self, base):
        from ffgeom import fields

        self.fields = fields
        self.base = {(f.p, f.k): f for f in base}

    def restore(self):
        fm = self.fields
        if (fm._make_field_cached.cache_info().currsize == len(self.base)
                and not fm._embedding_powers.cache_info().currsize):
            return
        fm._make_field_cached.cache_clear()
        fm._embedding_powers.cache_clear()
        build = fm.FiniteField
        fm.FiniteField = lambda p, k, size_limit: self.base[(p, k)]
        try:
            for p, k in self.base:
                fm.make_field(p, k)
        finally:
            fm.FiniteField = build


def points_reported(doc):
    """Points a response decides: every ambient point an oracle scanned,
    the point an avoid search returns, the orbit a curve search returns."""
    if not isinstance(doc, dict):
        return 0
    if "ambient_points" in doc:
        return int(doc["ambient_points"])
    if "orbit" in doc:
        return len(doc["orbit"])
    return 1 if "point" in doc else 0


class Loop:
    """Closed loop over whole cycles of the workload's request stream."""

    def __init__(self, workload, seed, cli, caches, tracer=None):
        import checks

        self.checks = checks
        self.workload, self.seed, self.cli = workload, seed, cli
        self.caches, self.tracer = caches, tracer
        self.latencies = []
        self.speed = Speed()
        self.points = 0
        self.failures = []
        self.first_cycle = []  # (exit code, stdout) of the first cycle
        self.mix = Counter()
        self.sylvester = Counter()
        self.ext_degree = Counter()
        self.points_by_kind = Counter()

    def run(self, seconds=None, cycles=None):
        """Whole cycles until ``cycles`` are done, or until ``seconds`` have
        passed and at least MIN_REQUESTS were sent."""
        size = len(self.workload.cycle)
        stream = workloads.requests(self.workload, self.seed)
        start = time.perf_counter()
        i = 0
        while True:
            if i % size == 0:
                if cycles is not None and i == cycles * size:
                    break
                if cycles is None and i >= MIN_REQUESTS and time.perf_counter() - start >= seconds:
                    break
            self._one(i, next(stream))
            i += 1

    def _one(self, i, req):
        if i % SPEED_EVERY == 0:
            self.speed.sample()
        self.caches.restore()
        gc.collect()  # start from a clean heap, as a fresh CLI process does
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        if tracer:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            if tracer:
                rc = tracer.call("cli.run", self.cli.run, req.argv, out, err)
            else:
                rc = self.cli.run(req.argv, out, err)
        except Exception as exc:  # a request that raises out of run() is a failure
            rc = f"raised {exc!r}"
        finally:
            self.latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.request = None
        text = out.getvalue()
        doc = self.checks.parse(text)
        try:
            problem = self.checks.check(req, rc, doc)
        except Exception as exc:  # a response the check cannot read is wrong
            problem = f"check raised {exc!r}"
        if problem:
            self.failures.append(f"request {i} ({' '.join(req.argv)[:120]}): {problem}")
        if i < len(self.workload.cycle):
            self.first_cycle.append((rc, text))
        points = points_reported(doc)
        self.points += points
        self.mix[req.kind] += 1
        if req.kind == "curve":
            self.sylvester[req.info["sylvester"]] += 1
            self.ext_degree[doc.get("extension_degree") if isinstance(doc, dict) else None] += 1
        if req.kind.startswith("oracle"):
            self.points_by_kind[req.kind] += points

    @property
    def busy(self):
        return sum(self.latencies)

    def ops_per_s(self):
        return len(self.latencies) / self.busy

    def digest(self):
        return self.checks.digest(self.first_cycle)


def _shares(counter):
    total = sum(counter.values())
    return {str(k): round(v / total, 4) for k, v in sorted(counter.items(), key=str)}


def mix_report(loop):
    """Shares a later claim cites, per workload."""
    report = {"requests": _shares(loop.mix)}
    if loop.sylvester:
        report["sylvester_size"] = _shares(loop.sylvester)
        report["extension_degree"] = _shares(loop.ext_degree)
    if loop.points_by_kind:
        report["oracle_points"] = _shares(loop.points_by_kind)
    return report


def recorded_digest(name, seed):
    recorded = json.loads((HERE / "digests.json").read_text())
    return recorded[name] if seed == recorded["seed"] else None


def digest_problems(name, seed, digests):
    """Disagreements between the digests of this run and the recorded one."""
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"traced and untraced responses differ: {digests}")
    expected = recorded_digest(name, seed)
    if expected is not None and digests[0] != expected:
        problems.append(f"digest {digests[0]} differs from the recorded {expected}")
    return problems


def scaled_setup(workload):
    """Set-up time divided by the slowness measured right after it.
    Returns (scaled seconds, cli module, base fields)."""
    setup_s, cli, base = setup(workload)
    speed = Speed()
    for _ in range(20):
        speed.sample()
    return setup_s / speed.slowness(), cli, base


def child_setup_seconds(name):
    """Scaled set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


def run_untraced(workload, seed, seconds):
    setup_s, cli, base = scaled_setup(workload)
    samples = [setup_s] + [child_setup_seconds(workload.name) for _ in range(SETUP_SAMPLES - 1)]
    loop = Loop(workload, seed, cli, FieldCaches(base))
    loop.run(seconds=seconds)
    lat = sorted(loop.latencies)
    cuts = statistics.quantiles(lat, n=10, method="inclusive")
    slow = loop.speed.slowness()
    raw = {
        "ops_per_s": loop.ops_per_s(),
        "latency_p50_ms": cuts[4] * 1e3,
        "latency_p90_ms": cuts[8] * 1e3,
        "points_per_s": loop.points / loop.busy,
    }
    values = {
        "setup_s": statistics.median(samples),
        "ops_per_s": raw["ops_per_s"] * slow,
        "latency_p50_ms": raw["latency_p50_ms"] / slow,
        "latency_p90_ms": raw["latency_p90_ms"] / slow,
        "points_per_s": raw["points_per_s"] * slow,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {
        "setup_s": len(samples), "ops_per_s": len(lat), "latency_p50_ms": len(lat),
        "latency_p90_ms": len(lat), "points_per_s": len(lat), "peak_rss_mb": 1,
    }
    print(f"{workload.name:7s} slowness {slow:.4f} (median of {len(loop.speed.samples)} "
          f"speed samples over {SPEED_REFERENCE_S * 1e3:g} ms)")
    for name, unit in END_TO_END.items():
        unscaled = f"  unscaled {raw[name]:.4f}" if name in raw else ""
        print(f"{workload.name:7s} {name:16s} {values[name]:14.4f} {unit:5s} "
              f"n={counts[name]}{unscaled}")
    attempted, failed = len(lat), len(loop.failures)
    print(f"{workload.name:7s} {'fail_share':16s} {failed / attempted:14.4f} {'':5s} n={attempted}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return [loop], metrics


def run_traced(workload, seed, out_dir=HERE / "out"):
    """Traced set-up, then one untraced and one traced cycle of the same
    requests; the spans go to ``out_dir``."""
    import layers

    tracer = layers.Tracer()
    _, cli, base = setup(workload, tracer)
    caches = FieldCaches(base)
    plain = Loop(workload, seed, cli, caches)
    plain.run(cycles=1)
    try:
        tracer.install()
        traced = Loop(workload, seed, cli, caches, tracer)
        traced.run(cycles=1)
    finally:
        tracer.remove()
    values = layers.layer_metrics(tracer.spans, tracer.counts)
    values["trace.overhead_ops_per_s"] = plain.ops_per_s() - traced.ops_per_s()
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-{seed}.tsv.gz"
    layers.write_spans(tracer.spans, spans_path)
    for name, (unit, _) in layers.METRICS.items():
        print(f"{workload.name:7s} {name:36s} {values[name]:16.6f} {unit}")
    print(f"{workload.name:7s} spans written to {spans_path}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in layers.METRICS.items()}
    return [plain, traced], metrics


def run_all(args):
    """Each workload in a fresh interpreter; the last line merges them."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), file=sys.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload == "all":
        run_all(args)
        return
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        print(scaled_setup(workload)[0])
        return
    if args.trace:
        loops, metrics = run_traced(workload, args.seed)
    else:
        loops, metrics = run_untraced(workload, args.seed, args.seconds)
    digests = [loop.digest() for loop in loops]
    failures = [f for loop in loops for f in loop.failures]
    problems = failures + digest_problems(workload.name, args.seed, digests)
    print(f"{workload.name:7s} mix {json.dumps(mix_report(loops[-1]))}")
    print(f"{workload.name:7s} digest {digests[0]}")
    for problem in problems[:20]:
        print(f"{workload.name:7s} FAIL {problem}")
    print(json.dumps({"correct": not problems,
                      "attempted": sum(len(loop.latencies) for loop in loops),
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
