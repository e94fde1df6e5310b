"""Seeded request streams for the three benchmark workloads.

Every workload is a fixed cycle of request *slots*.  A slot fixes the
structure of a request (subcommand, field, ambient size, degree, number of
terms), which is what sets its cost; the seed only draws the exponents and
coefficients.  The stream repeats the cycle with fresh draws, so every run
sees the same mix in the same proportions whatever its seed, and the
benchmark's figures do not depend on the seed a run is given.

Generators use only the standard library: the program under test receives
nothing but the generated argv.
"""

import random
from dataclasses import dataclass, field
from functools import partial
from math import comb


@dataclass
class Request:
    argv: list
    kind: str  # mix class, reported in the mix shares
    expect: int  # exit code a correct program returns
    info: dict = field(default_factory=dict)  # facts the output check needs


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple  # slot functions rng -> Request


def field_spec(fld):
    p, k = fld
    return f"{p}^{k}" if k > 1 else str(p)


def _elt(rng, fld):
    p, k = fld
    digits = [rng.randrange(p) for _ in range(k)]
    if not any(digits):
        digits[rng.randrange(k)] = rng.randrange(1, p)
    return str(digits[0]) if k == 1 else "[" + ",".join(map(str, digits)) + "]"


def _exps(rng, nvars, deg, cap=None):
    """Random exponent vector of total degree ``deg``; each entry < ``cap``."""
    while True:
        exps = [0] * nvars
        for _ in range(deg):
            exps[rng.randrange(nvars)] += 1
        if cap is None or max(exps) < cap:
            return exps


def _mono(exps):
    parts = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e]
    return "*".join(parts)


def _poly(rng, fld, monos):
    """Text of a polynomial with a random nonzero coefficient on each
    distinct monomial; a repeated monomial is dropped, as its terms could
    cancel."""
    terms, seen = [], set()
    for exps in monos:
        m = _mono(exps)
        if m in seen:
            continue
        seen.add(m)
        c = _elt(rng, fld)
        terms.append(f"{c}*{m}" if m else c)
    return " + ".join(terms)


def _q(fld):
    return fld[0] ** fld[1]


def _nvars(ambient, size):
    if ambient == "affine":
        return size
    if ambient == "projective":
        return size + 1
    m, n = size
    return comb(n, m)


def _size_args(ambient, size):
    if ambient == "affine":
        return ["--vars", str(size)]
    if ambient == "projective":
        return ["--dim", str(size)]
    m, n = size
    return ["--m", str(m), "--n", str(n)]


def ambient_count(ambient, q, size):
    """Number of rational points of the ambient space, by closed formula."""
    if ambient == "affine":
        return q ** size
    if ambient == "projective":
        return (q ** (size + 1) - 1) // (q - 1)
    m, n = size  # Gaussian binomial [n choose m]_q
    num = den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _homogeneous_monos(rng, nvars, deg, nterms, lead_power):
    """``nterms`` monomials of degree ``deg``; with ``lead_power`` the first
    is a pure power x_i^deg, so the form is nonzero at a coordinate point."""
    monos = []
    if lead_power:
        exps = [0] * nvars
        exps[rng.randrange(nvars)] = deg
        monos.append(exps)
    while len(monos) < nterms:
        monos.append(_exps(rng, nvars, deg))
    return monos


# -- slots -----------------------------------------------------------------


def avoid_guaranteed(ambient, fld, size, deg, nterms, rng):
    """Guaranteed-mode avoid: the field clears the degree threshold."""
    nvars = _nvars(ambient, size)
    if ambient == "affine":
        monos = [_exps(rng, nvars, deg)]
        monos += [_exps(rng, nvars, rng.randint(0, deg)) for _ in range(nterms - 1)]
    else:
        # a pure power keeps a Grassmannian section off the Pluecker ideal
        monos = _homogeneous_monos(rng, nvars, deg, nterms, ambient == "grass")
    argv = ["avoid", ambient, "--field", field_spec(fld), "--poly", _poly(rng, fld, monos)]
    return Request(argv + _size_args(ambient, size), f"avoid-{ambient}", 0)


def avoid_fallback(ambient, fld, size, deg, nterms, point, rng):
    """Exhaustive-fallback avoid (q <= degree).  With ``point`` the
    polynomial is a nonzero function on the grid (affine: multilinear terms
    of degree ``deg``, so the kernel does the same work whatever the seed;
    projective: a pure power of x0), otherwise every term carries a factor
    that vanishes at every rational point."""
    q = _q(fld)
    nvars = _nvars(ambient, size)
    if point and ambient == "affine":
        monos = []
        for _ in range(nterms):
            exps = [0] * nvars
            for i in rng.sample(range(nvars), deg):
                exps[i] = 1
            monos.append(exps)
        poly = _poly(rng, fld, monos)
    elif point:
        monos = [[deg] + [0] * (nvars - 1)]
        monos += [_exps(rng, nvars, deg) for _ in range(nterms - 1)]
        poly = _poly(rng, fld, monos)
    else:
        terms = {}  # distinct factors only, so no two terms cancel
        for _ in range(nterms):
            a, b = rng.sample(range(nvars), 2)
            if ambient == "affine":
                vanishing, rest = f"(x{a}^{q} - x{a})", deg - q
            else:
                vanishing, rest = f"(x{a}^{q}*x{b} - x{a}*x{b}^{q})", deg - q - 1
            factor = "*".join(t for t in (_mono(_exps(rng, nvars, rest)), vanishing) if t)
            terms.setdefault(factor, f"{_elt(rng, fld)}*{factor}")
        poly = " + ".join(terms.values())
    argv = ["avoid", ambient, "--field", field_spec(fld), "--poly", poly]
    kind = "avoid-fallback" if point else "avoid-fallback-nopoint"
    return Request(argv + _size_args(ambient, size), kind, 0 if point else 2)


def oracle(ambient, fld, size, deg, nterms, rng, guard=0):
    """Full listing.  An affine or projective polynomial is linear in its
    last variable on the chart x0 = 1 (c*x_last, or c*x0^(deg-1)*x_last,
    plus terms free of x_last), so a share 1 - 1/q of that chart avoids it
    whatever the seed; an affine polynomial with ``guard`` = k is also
    multiplied by x0*...*x(k-1), which leaves (q-1)^(k+1) q^(n-k-1) avoiding
    points, so a large grid keeps a small listing.  A Grassmannian section
    starts with a pure power, so a coordinate point avoids it."""
    q = _q(fld)
    nvars = _nvars(ambient, size)
    if ambient == "grass":
        monos = _homogeneous_monos(rng, nvars, deg, nterms, True)
    elif ambient == "affine":
        free = nvars - 1 - guard
        monos = [[0] * (nvars - 1) + [1]]
        monos += [[0] * guard + _exps(rng, free, rng.randint(1, deg), cap=q) + [0]
                  for _ in range(nterms - 1)]
        for exps in monos:
            exps[:guard] = [1] * guard
    else:
        monos = [[deg - 1] + [0] * (nvars - 2) + [1]]
        monos += [_exps(rng, nvars - 1, deg) + [0] for _ in range(nterms - 1)]
    argv = ["oracle", "--kind", ambient, "--field", field_spec(fld),
            "--poly", _poly(rng, fld, monos)] + _size_args(ambient, size)
    return Request(argv, f"oracle-{ambient}", 0,
                   {"ambient_points": ambient_count(ambient, q, size)})


def _polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] = (out[i + k] + x * y) % p
    return out


def _divides(g, f, p):
    """Whether the monic ``g`` divides ``f`` (coefficients mod p, low first)."""
    r = list(f)
    d = len(g) - 1
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            for k in range(d + 1):
                r[i - d + k] = (r[i - d + k] - c * g[k]) % p
    return not any(r[:d])


def root_degree(f, p):
    """Degree of the smallest extension of F_p that holds a root of ``f``:
    the smallest degree of a monic factor (checked up to degree 2, which
    settles every polynomial of degree <= 5)."""
    deg = len(f) - 1
    for d in (1, 2):
        if 2 * d > deg:
            break
        for c in range(p ** d):
            if _divides([(c // p ** i) % p for i in range(d)] + [1], f, p):
                return d
    return deg


def _form_text(coefs):
    terms = []
    for exps, c in coefs.items():
        if c:
            m = _mono(exps)
            terms.append(f"{c}*{m}" if m else str(c))
    return " + ".join(terms)


def curve_point(p, e, mg, j, rng):
    """Dense random curve F of degree e and divisor form G of degree mg
    over the prime field F_p, with p > max(2e, e*mg - 1), built so that
    the request is valid and its extension degree is ``j``:

    - F(0, x1, x2) is a product of e distinct lines, so the first canonical
      line certifies F squarefree, and the search centre is (0:1:0);
    - G(x0, x1, 0) = g*x1^mg and G(0, r, 1) != 0 at every root r of
      F(0, x1, 1), so G shares no component with F and the fibre is the
      line x2 = 0;
    - F(v, 1, 0) is a polynomial whose smallest irreducible factor has
      degree j, so the root search ends in F_{p^j}.
    """
    roots = rng.sample(range(p), e)
    axis = [1]  # prod (x1 - r*x2), as the coefficients of x2^c x1^(e-c)
    for r in roots:
        axis = _polymul(axis, [1, -r % p], p)
    while True:
        phi = [1] + [rng.randrange(p) for _ in range(e - 1)] + [rng.randrange(1, p)]
        if root_degree(phi, p) == j:
            break
    f = {}
    for a in range(e + 1):
        for c in range(e + 1 - a):
            exps = (a, e - a - c, c)
            f[exps] = axis[c] if a == 0 else phi[a] if c == 0 else rng.randrange(p)
    g = {(0, 0, 0): rng.randrange(1, p)}
    while mg:
        g = {(a, mg - a - c, c): rng.randrange(p)
             for a in range(mg + 1) for c in range(1, mg + 1 - a)}
        g[(0, mg, 0)] = rng.randrange(1, p)
        if all(sum(v * pow(r, b, p) for (a, b, c), v in g.items() if a == 0) % p
               for r in roots):
            break
    argv = ["curve", "point", "--curve", _form_text(f), "--avoid", _form_text(g),
            "--field", str(p)]
    return Request(argv, "curve", 0, {"e": e, "j": j, "sylvester": e + mg if mg else 0})


def field_info(fld, rng):
    return Request(["field", "info", "--field", field_spec(fld)], "field", 0)


def bound_m(rng):
    n, alpha, beta = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 60)
    argv = ["bound", "m", "--n", str(n), "--alpha", str(alpha), "--beta", str(beta)]
    return Request(argv, "bound", 0, {"n": n, "alpha": alpha, "beta": beta})


def bound_pipeline(rng):
    vals = {"g": rng.randint(0, 5), "r": rng.randint(1, 6), "d": rng.randint(0, 12),
            "alpha": rng.randint(1, 4), "beta": rng.randint(1, 12)}
    argv = ["bound", "pipeline"]
    for k, v in vals.items():
        argv += [f"--{k}", str(v)]
    return Request(argv, "bound", 0)


def p1_verify(rng):
    """Half the types are semistable (one repeated part, whose partner
    O(-a-1) lies in the default box), half are not and have no partner."""
    rank = rng.randint(2, 4)
    if rng.random() < 0.5:
        parts = [rng.randint(-3, 3)] * rank
    else:
        parts = [rng.randint(-3, 3) for _ in range(rank - 1)]
        parts.append(parts[0] + rng.choice([-2, -1, 1, 2]))
    semistable = len(set(parts)) == 1
    argv = ["p1", "verify", "--type=" + ",".join(map(str, parts))]
    return Request(argv, "p1-verify", 0 if semistable else 2, {"parts": parts})


def p1_scan(rank_max, coeff_bound, rng):
    argv = ["p1", "scan", "--rank-max", str(rank_max), "--coeff-bound", str(coeff_bound)]
    return Request(argv, "p1-scan", 0)


# -- workloads ----------------------------------------------------------------

F2, F3, F4, F5, F7, F8, F9 = (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)
F11, F13, F16, F23, F25 = (11, 1), (13, 1), (2, 4), (23, 1), (5, 2)
F31, F243, F256, F1024 = (31, 1), (3, 5), (2, 8), (2, 10)
F2_16, F3_10 = (2, 16), (3, 10)

G, FB = avoid_guaranteed, avoid_fallback

_CLI_CYCLE = (
    # guaranteed avoid, the interactive bulk
    partial(G, "affine", F7, 4, 3, 4),
    partial(G, "projective", F2_16, 4, 3, 5),
    partial(G, "grass", F7, (2, 4), 2, 4),
    partial(field_info, F3_10),
    partial(G, "affine", F2_16, 6, 5, 6),
    partial(G, "projective", F7, 3, 4, 5),
    partial(G, "grass", F2_16, (2, 4), 3, 4),
    bound_m,
    partial(G, "affine", F3_10, 5, 4, 5),
    partial(G, "projective", F3_10, 3, 5, 4),
    partial(G, "grass", F3_10, (2, 5), 2, 5),
    p1_verify,
    partial(G, "affine", F13, 8, 6, 8),
    partial(G, "projective", F9, 2, 6, 6),
    partial(G, "grass", F13, (2, 4), 3, 5),
    bound_pipeline,
    partial(G, "affine", F256, 6, 4, 5),
    partial(G, "projective", F11, 5, 3, 6),
    partial(G, "grass", F11, (2, 5), 1, 4),
    partial(field_info, F2_16),
    partial(G, "affine", F243, 10, 3, 8),
    partial(G, "projective", F256, 3, 4, 5),
    partial(G, "affine", F31, 3, 7, 6),
    p1_verify,
    partial(G, "affine", F9, 5, 4, 6),
    partial(G, "projective", F13, 4, 2, 6),
    partial(G, "affine", F25, 4, 5, 5),
    bound_m,
    partial(G, "affine", F1024, 8, 3, 6),
    partial(G, "projective", F243, 2, 5, 6),
    partial(field_info, F7),
    bound_pipeline,
    # one small oracle and one small curve, so every subcommand is covered
    partial(oracle, "projective", F5, 3, 3, 4),
    partial(curve_point, 7, 2, 2, 1),
    p1_verify,
    # the heavy minority: exhaustive fallbacks and genus-0 scans
    partial(FB, "affine", F2, 14, 4, 5, True),
    partial(FB, "affine", F2, 16, 5, 6, True),
    partial(FB, "affine", F2, 18, 4, 5, True),
    partial(FB, "affine", F2, 18, 4, 5, True),
    partial(FB, "affine", F4, 10, 6, 6, True),
    partial(FB, "affine", F2, 20, 4, 3, False),
    partial(FB, "projective", F2, 9, 4, 4, False),
    partial(FB, "projective", F3, 6, 5, 4, True),
    partial(p1_scan, 4, 2),
    partial(p1_scan, 3, 3),
)

# An odd cycle puts the median inside one slot's samples, and the top
# tenth inside a group of slots that cost about the same, so neither
# percentile sits on the step between two slots of different cost.
_CURVE_CYCLE = tuple(partial(curve_point, *slot) for slot in (
    # (p, deg F, deg G, extension degree j)
    (7, 1, 1, 1), (7, 2, 2, 2), (7, 3, 1, 1), (11, 1, 5, 1), (11, 2, 4, 1),
    (11, 3, 3, 3), (11, 4, 1, 1), (13, 1, 7, 1), (13, 2, 6, 2), (17, 3, 5, 1),
    (11, 4, 2, 2), (7, 2, 0, 1), (7, 1, 3, 1), (19, 3, 6, 1), (17, 2, 7, 1),
    (23, 3, 7, 1), (13, 4, 3, 4), (23, 3, 7, 3), (23, 3, 7, 1), (11, 4, 2, 2),
    (23, 3, 7, 3), (11, 4, 2, 2), (23, 3, 7, 3),
))


_ORACLE_CYCLE = (
    # heavy: the per-point Pluecker path on Grass(2,5)/F_5 and the full 2^20 grid
    partial(oracle, "grass", F5, (2, 5), 2, 4),
    partial(oracle, "affine", F2, 20, 4, 4, guard=4),
    # medium: four alike, so that p90 falls among them
    partial(oracle, "grass", F7, (2, 4), 2, 4),
    partial(oracle, "affine", F2, 18, 4, 4, guard=2),
    partial(oracle, "grass", F7, (2, 4), 2, 4),
    partial(oracle, "projective", F23, 3, 3, 4),
    partial(oracle, "grass", F7, (2, 4), 2, 4),
    partial(oracle, "grass", F7, (2, 4), 2, 4),
    # light
    partial(oracle, "affine", F2, 12, 3, 4),
    partial(oracle, "projective", F7, 4, 3, 4),
    partial(oracle, "grass", F4, (2, 4), 2, 4),
    partial(oracle, "affine", F3, 8, 3, 4),
    partial(oracle, "projective", F13, 3, 3, 4),
    partial(oracle, "grass", F5, (2, 4), 2, 4),
    partial(oracle, "affine", F4, 7, 3, 4),
    partial(oracle, "projective", F5, 5, 3, 4),
    partial(oracle, "grass", F3, (2, 4), 2, 4),
    partial(oracle, "affine", F5, 6, 3, 4),
    partial(oracle, "projective", F9, 3, 3, 4),
    partial(oracle, "grass", F4, (2, 4), 3, 4),
    partial(oracle, "affine", F7, 5, 3, 4),
    partial(oracle, "projective", F4, 5, 3, 4),
    partial(oracle, "grass", F3, (2, 5), 1, 4),
    partial(oracle, "affine", F2, 14, 3, 4),
    partial(oracle, "projective", F11, 3, 3, 4),
    partial(oracle, "grass", F5, (2, 4), 1, 4),
    partial(oracle, "affine", F9, 5, 3, 4),
    partial(oracle, "projective", F3, 7, 3, 4),
    partial(oracle, "grass", F2, (2, 5), 2, 4),
    partial(oracle, "affine", F3, 9, 3, 4),
    partial(oracle, "projective", F8, 4, 3, 4),
    partial(oracle, "grass", F3, (2, 4), 1, 4),
    partial(oracle, "affine", F13, 4, 3, 4),
    partial(oracle, "projective", F16, 3, 3, 4),
    partial(oracle, "grass", F2, (2, 4), 2, 4),
    partial(oracle, "affine", F2, 16, 3, 4),
    partial(oracle, "projective", F2, 11, 3, 4),
    partial(oracle, "grass", F4, (2, 4), 1, 4),
    partial(oracle, "affine", F16, 4, 3, 4),
    partial(oracle, "projective", F5, 4, 3, 4),
    # very light
    partial(oracle, "affine", F3, 6, 3, 4),
    partial(oracle, "projective", F3, 4, 3, 4),
    partial(oracle, "grass", F2, (2, 4), 1, 4),
    partial(oracle, "affine", F7, 3, 3, 4),
    partial(oracle, "projective", F7, 2, 3, 4),
    partial(oracle, "affine", F2, 10, 3, 4),
    partial(oracle, "projective", F2, 7, 3, 4),
    partial(oracle, "affine", F5, 4, 3, 4),
    partial(oracle, "projective", F11, 2, 3, 4),
    partial(oracle, "affine", F4, 5, 3, 4),
    partial(oracle, "projective", F4, 3, 3, 4),
)


def base_fields(workload):
    """Field specs the workload's requests name, in first-use order; the
    cycle fixes them, so they do not depend on the seed."""
    specs = []
    for slot in workload.cycle:
        argv = slot(random.Random(0)).argv
        if "--field" in argv:
            spec = argv[argv.index("--field") + 1]
            if spec not in specs:
                specs.append(spec)
    return specs


WORKLOADS = {
    "cli": Workload("cli", _CLI_CYCLE),
    "curve": Workload("curve", _CURVE_CYCLE),
    "oracle": Workload("oracle", _ORACLE_CYCLE),
}


def requests(workload, seed):
    """Endless request stream of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        for slot in workload.cycle:
            yield slot(rng)
