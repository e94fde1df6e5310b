"""Grid-evaluation kernels for exhaustive scans over F_q^n.

The hot loop of the exhaustive oracles evaluates one sparse polynomial at
every point of F_q^n in canonical order (last variable varying fastest).
Multiplication goes through discrete-log tables, addition through digitwise
arithmetic mod p, so the same tables serve prime fields and towers.

Backend selection: the ``FFGEOM_NUMBA`` environment variable ("0" disables,
"1" requires, unset = use numba when importable).  Both backends produce
identical arrays.
"""

import os

import numpy as np

from .fields import _DLOG_LIMIT

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def backend():
    flag = os.environ.get("FFGEOM_NUMBA", "")
    if flag == "0":
        return "numpy"
    if flag == "1":
        if not _HAVE_NUMBA:
            raise RuntimeError("FFGEOM_NUMBA=1 but numba is not importable")
        return "numba"
    return "numba" if _HAVE_NUMBA else "numpy"


def kernel_capable(field):
    """Whether table-driven kernels can serve this field."""
    return field.q <= _DLOG_LIMIT


def _tables(field):
    q, p, k = field.q, field.p, field.k
    if k == 1:
        log, exp = field._dlog or _prime_dlog(field)
    else:
        log, exp = field._dlog
    logt = np.asarray(log, dtype=np.int64)
    expt = np.asarray(exp, dtype=np.int64)
    digits = np.zeros((q, k), dtype=np.int64)
    idx = np.arange(q)
    for i in range(k):
        digits[:, i] = idx % p
        idx //= p
    pvec = p ** np.arange(k, dtype=np.int64)
    return logt, expt, digits, pvec


def _prime_dlog(field):
    # prime fields skip the cached tables in FiniteField; build here
    gen = field.generator()
    q = field.q
    exp = [0] * (q - 1)
    log = [0] * q
    cur = 1
    for i in range(q - 1):
        exp[i] = cur
        log[cur] = i
        cur = (cur * gen) % field.p
    return log, exp


_table_cache = {}


def field_tables(field):
    key = (field.p, field.k)
    if key not in _table_cache:
        _table_cache[key] = _tables(field)
    return _table_cache[key]


def grid_eval(poly):
    """Values of ``poly`` at all q^nvars points, canonical order.

    Point t has coordinates x_i = (t // q^(nvars-1-i)) % q.  Returns an
    int64 array of encoded field elements.
    """
    field = poly.field
    n = poly.nvars
    q = field.q
    npoints = q ** n
    if n == 0 or not kernel_capable(field):
        return _grid_eval_python(poly, npoints)
    terms = poly.sorted_terms()
    if not terms:
        return np.zeros(npoints, dtype=np.int64)
    exps = np.asarray([e for e, _ in terms], dtype=np.int64)
    coeffs = np.asarray([c for _, c in terms], dtype=np.int64)
    logt, expt, digits, pvec = field_tables(field)
    qpow = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    if backend() == "numba":
        out = np.empty(npoints, dtype=np.int64)
        _grid_eval_numba(
            exps, coeffs, logt, expt, digits, pvec, qpow, field.p, q, out
        )
        return out
    return _grid_eval_numpy(exps, coeffs, logt, expt, digits, pvec, qpow, field.p, q, npoints)


def _grid_eval_python(poly, npoints):
    field = poly.field
    q = field.q
    n = poly.nvars
    out = np.zeros(npoints, dtype=np.int64)
    if n == 0:
        out[:] = poly.eval([])
        return out
    point = [0] * n
    for t in range(npoints):
        rem = t
        for i in range(n - 1, -1, -1):
            point[i] = rem % q
            rem //= q
        out[t] = poly.eval(point)
    return out


def _grid_eval_numpy(exps, coeffs, logt, expt, digits, pvec, qpow, p, q, npoints):
    qm1 = max(q - 1, 1)
    idx = np.arange(npoints, dtype=np.int64)
    k = pvec.shape[0]
    acc = np.zeros((npoints, k), dtype=np.int64)
    n = qpow.shape[0]
    coords = [(idx // qpow[i]) % q for i in range(n)]
    for j in range(coeffs.shape[0]):
        logval = np.full(npoints, logt[coeffs[j]], dtype=np.int64)
        alive = np.ones(npoints, dtype=bool)
        for i in range(n):
            e = exps[j, i]
            if e:
                x = coords[i]
                alive &= x != 0
                logval += e * logt[x]  # log[0] garbage masked by `alive`
        val = np.where(alive, expt[logval % qm1], 0)
        acc = (acc + digits[val]) % p
    return acc @ pvec


@njit(cache=True)
def _grid_eval_numba(exps, coeffs, logt, expt, digits, pvec, qpow, p, q, out):
    npoints = out.shape[0]
    nterms = coeffs.shape[0]
    n = qpow.shape[0]
    k = pvec.shape[0]
    qm1 = q - 1 if q > 1 else 1
    accd = np.zeros(k, dtype=np.int64)
    for t in range(npoints):
        for c in range(k):
            accd[c] = 0
        for j in range(nterms):
            lv = logt[coeffs[j]]
            alive = True
            for i in range(n):
                e = exps[j, i]
                if e:
                    x = (t // qpow[i]) % q
                    if x == 0:
                        alive = False
                        break
                    lv += e * logt[x]
            if alive:
                v = expt[lv % qm1]
                for c in range(k):
                    accd[c] = (accd[c] + digits[v, c]) % p
        enc = 0
        for c in range(k):
            enc += accd[c] * pvec[c]
        out[t] = enc


def decode_point(t, q, n):
    """Inverse of the canonical grid order used by grid_eval."""
    point = [0] * n
    for i in range(n - 1, -1, -1):
        point[i] = t % q
        t //= q
    return tuple(point)
