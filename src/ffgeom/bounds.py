"""Exact integer bound formulas: the extension-degree bound M(n, alpha, beta)
with its infinite-field and fixed-characteristic variants, the minimal
threshold ceil((r^2+1)/4), and the rank pipeline R = n * rbar * M!.

Everything is arbitrary-precision integer arithmetic; ceiling logs are
computed by repeated multiplication, never floating point.
"""

from dataclasses import dataclass, asdict
from decimal import Decimal
from math import factorial, gcd, lcm

from .errors import InvalidRank, SizeLimitExceeded
from .fields import _is_prime

# largest M for which rank_pipeline computes M! and lcm(1..M) (~0.1 s);
# M = 24 000 takes ~0.5 s, and M grows linearly in alpha
MAX_M = 10 ** 4

GENERAL = "general"
INFINITE = "infinite"
CHAR_P = "char_p"


@dataclass(frozen=True)
class BoundInputs:
    n: int
    alpha: int
    beta: int
    mode: str = GENERAL
    p: int = None

    def __post_init__(self):
        if self.n < 1 or self.alpha < 1 or self.beta < 1:
            raise ValueError("n, alpha, beta must be positive")
        if self.mode not in (GENERAL, INFINITE, CHAR_P):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == CHAR_P and (self.p is None or not _is_prime(self.p)):
            raise ValueError("char_p mode needs a prime p below 3.3e24")
        if self.mode != CHAR_P and self.p is not None:
            raise ValueError(f"p is read only in char_p mode, not in {self.mode} mode")


def ceil_log(base, x):
    """Smallest e >= 0 with base**e >= x, by repeated multiplication."""
    if base < 2 or x < 1:
        raise ValueError("need base >= 2 and x >= 1")
    e = 0
    power = 1
    while power < x:
        power *= base
        e += 1
    return e


def bound_M(inp):
    """Degree bound alpha * ceil(log_base(max((n+1)*alpha + 1, beta)));
    base 2 in general, base p in fixed characteristic; just alpha over
    infinite fields."""
    if inp.mode == INFINITE:
        return inp.alpha
    base = 2 if inp.mode == GENERAL else inp.p
    target = max((inp.n + 1) * inp.alpha + 1, inp.beta)
    return inp.alpha * ceil_log(base, target)


def popa_n(r):
    """Smallest n with 4n >= r^2 + 1."""
    if r < 1:
        raise InvalidRank("rank must be >= 1")
    return (r * r + 1 + 3) // 4


def _digits(x):
    """Exact decimal string of an integer of any size: str() refuses more
    than sys.get_int_max_str_digits() digits, the decimal module does not."""
    return str(Decimal(x))


def _sci(s):
    """Scientific-notation string for the decimal digits ``s`` of an
    integer."""
    if len(s) <= 6:
        return s
    mantissa = s[0] + "." + s[1:6]
    return f"{mantissa}e+{len(s) - 1}"


@dataclass
class BoundReport:
    g: int
    r: int
    d: int
    h: int
    rbar: int
    dbar: int
    n_popa: int
    rank_f1: int
    M: int
    R: int
    # every finite-field extension is cyclic, so lcm(1..M) already covers all
    # possible Galois-closure degrees; reported alongside, not instead
    R_lcm_variant: int
    moduli_alpha: int
    moduli_beta: int
    field_mode: str
    source_rank: int
    source_degree: int
    target_rank: int
    target_degree: int

    def as_json_dict(self):
        out = asdict(self)
        out["R"] = _digits(self.R)
        out["R_scientific"] = _sci(out["R"])
        out["R_lcm_variant"] = _digits(self.R_lcm_variant)
        return out


def rank_pipeline(g, r, d, moduli_alpha, moduli_beta, field_mode=GENERAL,
                  char=None, moduli_dim=1):
    """End-to-end rank bound: gcd reduction, minimal threshold n, degree
    bound M from the supplied ambient data, and R = n * rbar * M!.

    The intersection numbers (moduli_alpha, moduli_beta) of the polarization
    on the target moduli space have no closed formula here, so the caller
    supplies them; moduli_dim is the ambient dimension fed to the degree
    bound (default 1).
    """
    if r < 1:
        raise InvalidRank("rank must be >= 1")
    if g < 0:
        raise ValueError("genus must be >= 0")
    if moduli_dim < 1:
        raise ValueError(f"moduli_dim must be >= 1, got {moduli_dim}")
    h = gcd(r, d)
    rbar = r // h
    dbar = d // h
    n = popa_n(r)
    rank_f1 = n * rbar
    M = bound_M(BoundInputs(moduli_dim, moduli_alpha, moduli_beta, field_mode, char))
    if M > MAX_M:
        raise SizeLimitExceeded(f"M = {M} exceeds limit {MAX_M}")
    R = rank_f1 * factorial(M)
    R_lcm = rank_f1 * lcm(*range(1, M + 1)) if M >= 1 else rank_f1
    return BoundReport(
        g=g,
        r=r,
        d=d,
        h=h,
        rbar=rbar,
        dbar=dbar,
        n_popa=n,
        rank_f1=rank_f1,
        M=M,
        R=R,
        R_lcm_variant=R_lcm,
        moduli_alpha=moduli_alpha,
        moduli_beta=moduli_beta,
        field_mode=field_mode,
        source_rank=n * rbar,
        source_degree=n * (rbar * (g - 1) - dbar),
        target_rank=n * r * rbar,
        target_degree=n * r * rbar * (g - 1),
    )
