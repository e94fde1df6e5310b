"""Grid-evaluation kernels for exhaustive scans over F_q^n.

The hot loop of the exhaustive oracles evaluates one sparse polynomial at
every point of F_q^n in canonical order (last variable varying fastest).
Multiplication goes through the field's discrete-log tables and addition
through :meth:`FiniteField.add`, the rule scalar arithmetic uses, applied
to whole arrays.  Every field has tables, so one kernel serves every field
up to the size limit.  Scans go through :func:`hits`, which evaluates the
grid in chunks and stops when its caller does.
"""

import numpy as np

# grid points per grid_eval call in hits: O(chunk) memory.  A scan that stops
# at its first hit evaluates one chunk, and a working set of a few MB is
# reused by the allocator instead of faulted in again on every call.
_CHUNK = 2 ** 14


def kernel_capable(field):
    """Whether the kernel can serve this field: always, since every field
    builds tables."""
    return True


def field_tables(field):
    """The field's kernel tables ``(logt, expt)``, built once per field
    object (see :attr:`FiniteField.tables`)."""
    return field.tables


def grid_eval(poly, start=0, stop=None):
    """Values of ``poly`` at grid points ``start .. stop-1`` (default: all
    q^nvars points), canonical order, or at the grid indices of the int64
    array ``start``, in its order.

    Returns an int64 array of encoded field elements.  The caller passes
    reduced polynomials (see :meth:`MultivariatePolynomial.reduced`) or, as
    the Pluecker minors of a cell, multilinear ones: every exponent is below
    q, so ``e * log`` stays far inside int64.
    """
    field = poly.field
    q = field.q
    if isinstance(start, np.ndarray):
        idx = start
    else:
        idx = np.arange(start, q ** poly.nvars if stop is None else stop, dtype=np.int64)
    logt, expt = field_tables(field)
    coords = decode(idx, q, poly.nvars).T
    acc = np.zeros(len(idx), dtype=np.int64)
    for exps, c in poly.sorted_terms():
        logval = np.full(len(idx), logt[c], dtype=np.int64)
        alive = np.ones(len(idx), dtype=bool)
        for x, e in zip(coords, exps):
            if e:
                alive &= x != 0
                logval += e * logt[x]  # log[0] garbage masked by `alive`
        val = np.where(alive, expt[logval % (q - 1)], 0)
        acc = field.add(acc, val)
    return acc


def _grid_eval_python(poly, stop, start=0):
    q, n = poly.field.q, poly.nvars
    return np.array(
        [poly.eval(decode_point(t, q, n)) for t in range(start, stop)], dtype=np.int64
    )


def hits(poly, zero=False):
    """Grid indices (canonical order) where ``poly`` is nonzero, or where it
    vanishes when ``zero`` is set: one ascending int64 array of absolute
    indices per chunk that has any.

    The polynomial is reduced first, so one that vanishes on the whole grid
    has no nonzero point to scan for.  The grid is evaluated in chunks of at
    most ``_CHUNK`` points, so a caller that stops at the first array
    evaluates only the chunks up to its first hit, and a caller that counts
    never holds more than a chunk.
    """
    poly = poly.reduced()
    if poly.is_zero() and not zero:
        return
    total = poly.field.q ** poly.nvars
    for start in range(0, total, _CHUNK):
        values = grid_eval(poly, start, min(start + _CHUNK, total))
        found = np.flatnonzero(values == 0 if zero else values)
        if len(found):
            found += start
            yield found


def first_zero(poly):
    """Index of the first grid point (canonical order) where ``poly``
    vanishes, or None."""
    found = next(hits(poly, zero=True), None)
    return None if found is None else int(found[0])


def decode_point(t, q, n):
    """Inverse of the canonical grid order used by grid_eval."""
    point = [0] * n
    for i in range(n - 1, -1, -1):
        point[i] = t % q
        t //= q
    return tuple(point)


def decode(idx, q, n):
    """:func:`decode_point` at every index of the int64 array ``idx``: an
    (N, n) int64 array, row r the coordinates of point ``idx[r]``.  It is
    the transpose of a C-ordered (n, N) array, so each coordinate is one
    contiguous column."""
    place = np.arange(n - 1, -1, -1, dtype=np.int64)[:, None]
    if q & (q - 1):
        coords = idx // q ** place
        coords %= q  # in place: one (n, N) array at a time
    else:  # q = 2^b: a shift and a mask, several times faster than division
        coords = idx >> (q.bit_length() - 1) * place
        coords &= q - 1
    return coords.T
