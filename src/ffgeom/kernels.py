"""Grid-evaluation kernels for exhaustive scans over F_q^n.

The hot loop of the exhaustive oracles evaluates one sparse polynomial at
every point of F_q^n in canonical order (last variable varying fastest).
Multiplication goes through the field's discrete-log tables, addition
through digitwise arithmetic mod p, so the same tables serve prime fields
and towers.  Fields above ``_DLOG_LIMIT`` have no tables and are evaluated
point by point.
"""

import numpy as np

from .fields import _DLOG_LIMIT


def kernel_capable(field):
    """Whether table-driven kernels can serve this field."""
    return field.q <= _DLOG_LIMIT


def field_tables(field):
    """The field's kernel tables ``(logt, expt, digits, pvec)``, built once
    per field object (see :attr:`FiniteField.tables`)."""
    return field.tables


def grid_eval(poly):
    """Values of ``poly`` at all q^nvars points, canonical order.

    Point t has coordinates x_i = (t // q^(nvars-1-i)) % q.  Returns an
    int64 array of encoded field elements.
    """
    field = poly.field
    n = poly.nvars
    p, q = field.p, field.q
    npoints = q ** n
    if n == 0 or not kernel_capable(field):
        return _grid_eval_python(poly, npoints)
    terms = poly.sorted_terms()
    if not terms:
        return np.zeros(npoints, dtype=np.int64)
    logt, expt, digits, pvec = field_tables(field)
    qm1 = max(q - 1, 1)
    idx = np.arange(npoints, dtype=np.int64)
    coords = [(idx // q ** (n - 1 - i)) % q for i in range(n)]
    acc = np.zeros((npoints, field.k), dtype=np.int64)
    for exps, c in terms:
        logval = np.full(npoints, logt[c], dtype=np.int64)
        alive = np.ones(npoints, dtype=bool)
        for x, e in zip(coords, exps):
            if e:
                alive &= x != 0
                logval += e * logt[x]  # log[0] garbage masked by `alive`
        val = np.where(alive, expt[logval % qm1], 0)
        acc = (acc + digits[val]) % p
    return acc @ pvec


def _grid_eval_python(poly, npoints):
    field = poly.field
    q = field.q
    n = poly.nvars
    out = np.zeros(npoints, dtype=np.int64)
    if n == 0:
        out[:] = poly.eval([])
        return out
    for t in range(npoints):
        out[t] = poly.eval(decode_point(t, q, n))
    return out


def first_zero(poly):
    """Index of the first grid point (canonical order) where ``poly``
    vanishes, or None.

    Table-capable fields take one vectorized :func:`grid_eval`; larger
    fields are scanned point by point, stopping at the first zero.
    """
    q, n = poly.field.q, poly.nvars
    if kernel_capable(poly.field):
        zeros = np.flatnonzero(grid_eval(poly) == 0)
        return int(zeros[0]) if zeros.size else None
    for t in range(q ** n):
        if poly.eval(decode_point(t, q, n)) == 0:
            return t
    return None


def decode_point(t, q, n):
    """Inverse of the canonical grid order used by grid_eval."""
    point = [0] * n
    for i in range(n - 1, -1, -1):
        point[i] = t % q
        t //= q
    return tuple(point)
