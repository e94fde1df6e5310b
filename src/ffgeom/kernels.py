"""Grid-evaluation kernels for exhaustive scans over F_q^n.

Every evaluation on the grid F_q^n (canonical order, last variable varying
fastest) goes through :func:`grid_eval`, which evaluates a list of sparse
polynomials at an array of grid indices from one decode of the indices
(:func:`decode`): a point's coordinates are the base-q digits of its index,
last variable lowest, from :func:`fields.digits`.
With n = 1 an index is an element's encoding, which is how the root search
of :mod:`ffgeom.polynomials` evaluates a polynomial at its candidate roots.
All terms of all the polynomials are one exponent matrix: the terms' logs
at the points are one float64 product of the points' logs with it, and the
values one lookup in the field's discrete-log tables, and each
polynomial's value one sum over its terms, taken on coordinates over F_p.
Every field has tables, so one kernel serves every field up to the size
limit.

Scans go through :func:`hits`, which splits the grid into its last s
(*inner*) variables and the rest (*outer*), and writes the polynomial as
``base`` plus a sum of inner monomials times coefficients in the outer
variables, one *group* per monomial.  The inner grid's monomials are
evaluated once per scan, and the coefficients in batches of outer points
that double from one block.  A block's values then come from one of two
steps, chosen by p and k:

- the block product, for odd p and for F_2.  An element of F_q = F_{p^k}
  is its k coordinates over F_p, and multiplication by a fixed element is
  a k x k matrix over F_p, so a block's values are one product
  ``(A . M) mod p``.  M holds every group's monomial and ``base`` at the
  inner points, each entry lifted to its k x k block by
  :meth:`FiniteField._mul_matrices`; a row of A holds the coordinates of
  every group's coefficient (and a 1 for ``base``) at one outer point.
  The product is one float64 ``A @ M``, exact while its sums stay below
  2^53 (``_EXACT``): G rows of M give sums below G*(p-1)^2, which the
  cache cap of :func:`_split` keeps below 2^34.
- the log-domain step, for F_{2^k} with k > 1, where the lift would cost
  k^2 multiply-adds per group and point while a sum is one XOR: each
  group's term is one gather of g^(log a + log mono), and the terms are
  XORed.

What a scan caches of its inner grid is held to ``_MAX_CACHED`` entries by
lowering s.  A scan that stops at its first hit evaluates one block of
coefficients, and one that runs to the end makes log-many
:func:`grid_eval` calls.
"""

import numpy as np

from .errors import InternalContradiction
from .fields import _base_p, digits

# grid points per block of hits: O(_CHUNK) memory.  A scan that stops at its
# first hit evaluates one block, and a working set of a few MB is reused by
# the allocator instead of faulted in again on every block.
_CHUNK = 2 ** 14
# points of the inner grid that hits evaluates through grid_eval once per
# scan (the cost model is in _split's docstring)
_INNER = 2 ** 10
# entries a scan caches of its inner grid, (groups + 1) * k^2 * q^s float64s
# of M or (groups + 1) * q^s int64 logs, and of a batch of coefficient
# coordinates: 8 MB each.  With q^s <= _INNER, a prime field reaches it past
# 2^10 groups, an odd-p field of degree k past 2^10 / k^2
_MAX_CACHED = 64 * _CHUNK
# point-term pairs grid_eval holds at once: 1 MB per array of its slice
_TERM_ENTRIES = 2 ** 17
# float64 holds every integer below 2^53: the bound on a product's sums
_EXACT = 2 ** 53
# the log grid_eval gives a zero coordinate: a term with a zero factor sums
# to at least this, and every other term's log stays below n * q^2 < 2^53
_DEAD = 2.0 ** 60


def kernel_capable(field):
    """Whether the kernel can serve this field: always, since every field
    builds tables."""
    return True


def field_tables(field):
    """The field's kernel tables ``(logt, expt)``, built once per field
    object (see :attr:`FiniteField.tables`)."""
    return field.tables


def _floor_mod(x, m):
    """x mod m for a float64 array of integers below 2^53: exact, since
    x / m is correctly rounded and cannot round up to the next integer."""
    return x - m * np.floor(x / m)


def grid_eval(polys, idx):
    """Values of ``polys``, a non-empty sequence of polynomials over one field
    in one variable count, at the grid indices of the int64 array ``idx``,
    from one decode of ``idx``: an (N, len(polys)) int64 array of encoded
    field elements, column j the values of ``polys[j]`` in ``idx``'s order.

    Every exponent is brought below q first (x^q = x on F_q), so a term's
    log is a float64 sum below 2^53.  The points go in slices of at most
    ``_TERM_ENTRIES`` point-term pairs (over the k coordinates).
    """
    field, nvars = polys[0].field, polys[0].nvars
    p, k, q = field.p, field.k, field.q
    out = np.zeros((len(idx), len(polys)), dtype=np.int64)
    live = [j for j, poly in enumerate(polys) if poly.terms]
    if not live:
        return out
    cols = slice(None) if len(live) == len(polys) else live
    terms = [(exps, c) for j in live for exps, c in polys[j].terms.items()]
    logt, expt = field_tables(field)
    m = q - 1
    exps = np.array([[(e - 1) % m + 1 if e else 0 for e in exps] for exps, _ in terms],
                    dtype=np.float64).reshape(len(terms), nvars).T
    used = np.flatnonzero(exps.any(axis=1))  # only these variables are decoded
    exps = exps[used]
    logc = logt[[c for _, c in terms]].astype(np.float64)
    owner = np.repeat(np.arange(len(live)), [len(polys[j].terms) for j in live])
    member = (owner[:, None] == np.arange(len(live))).astype(np.float64)
    pw = p ** np.arange(k, dtype=np.float64)
    rows = max(1, _TERM_ENTRIES // (len(terms) * k))
    for start in range(0, len(idx), rows):
        coords = decode(idx[start:start + rows], q, nvars, used)
        total = np.where(coords == 0, _DEAD, logt[coords]) @ exps  # (N, terms)
        total += logc
        alive = total < _DEAD
        total *= alive
        values = expt[_floor_mod(total, m).astype(np.int64)]
        values *= alive
        if len(terms) == len(live):  # a term per polynomial: nothing to add
            sums = values
        else:
            sums = _floor_mod(digits(values, p, k).astype(np.float64) @ member, p)
            sums = (pw @ sums.reshape(k, -1)).reshape(-1, len(live))
        out[start:start + rows, cols] = sums
    return out


def _split(poly):
    """``(s, base, groups)``: the reduced ``poly`` as
    ``base + sum(coef * mono for mono, coef in groups)``, with ``base`` a
    polynomial in its last s variables, each ``mono`` an exponent tuple of
    those s variables and each ``coef`` a nonconstant polynomial in the
    other n - s, at most one group per monomial.

    s is the largest with q^s <= min(``_INNER``, ``_CHUNK``), and at least
    1 while q <= ``_CHUNK``, then lowered (down to 0) until what the scan
    caches of the inner grid fits ``_MAX_CACHED``: (groups + 1) * k^2 * q^s
    entries of M for the block product, (groups + 1) * q^s values for the
    log-domain step (see :func:`_uses_logs`).  Every group with a constant
    coefficient folds into ``base``.  With s >= 1 the cap bounds the block
    product's sums by ``_MAX_CACHED`` // (k^2 q) * k * (p-1)^2, at most
    17 171 481 600 < 2^34 (F_16381): far below ``_EXACT``.

    The cost model: :func:`hits` sends the q^s inner points through
    :func:`grid_eval` once per scan, and the outer points in batches, at a
    pass per point and term.  A block then costs, per point, the
    block product's (groups + 1) * k^2 multiply-adds in one BLAS call and a
    residue test of a few passes over its k sums, or in the log domain a
    gather and an XOR pass per group.  A scan that stops at its first hit
    thus pays for the whole inner grid however early the hit, so the inner
    grid stays small; but a block holds ``_CHUNK`` // q^s outer points,
    whose coefficients cost grid_eval's per-term work, so the inner grid
    must not shrink so far that they dominate.  A grid within the bound
    (s = n) and a scan with no inner variable (s = 0) are grid_eval block
    by block.
    """
    field, n = poly.field, poly.nvars
    bound = min(_INNER, _CHUNK)
    s = 0
    while s < n and (field.q ** (s + 1) <= bound or (s == 0 and field.q <= _CHUNK)):
        s += 1
    if s == n:  # no outer variables, so no coefficient and nothing cached
        return s, poly, []
    lift = 1 if _uses_logs(field) else field.k ** 2
    while True:
        coefs = {}
        for exps, c in poly.terms.items():
            coefs.setdefault(exps[n - s:], {})[exps[:n - s]] = c
        constant = (0,) * (n - s)
        base, groups = {}, []
        for mono, coef in coefs.items():
            if coef.keys() == {constant}:
                base[mono] = coef[constant]
            else:
                groups.append((mono, type(poly)(n - s, field, coef)))
        if s == 0 or (len(groups) + 1) * lift * field.q ** s <= _MAX_CACHED:
            return s, type(poly)(s, field, base), groups
        s -= 1


def _uses_logs(field):
    """Whether scans over ``field`` take the log-domain step: in
    characteristic 2 with k > 1, where a sum is one XOR pass and the block
    product's k x k lift would cost k^2 multiply-adds per group and point."""
    return field.p == 2 and field.k > 1


def _product_step(field, inner):
    """The block product's step: from ``inner``, the (q^s, groups + 1)
    values of every group's monomial and of ``base`` (last) on the inner
    grid, a function of a block's (B, groups) coefficients that returns
    its (B, q^s) mask of nonzero values, ``(A . M) mod p``, from one
    float64 product that :func:`_split`'s cap keeps exact."""
    p, k = field.p, field.k
    width, columns = inner.shape
    rows = columns * k
    if rows * (p - 1) ** 2 >= _EXACT:
        raise InternalContradiction(f"a block product of {rows} rows over F_{p} is inexact")
    # M[(group, i), (l, j)]: coordinate l of (group's value at inner point j) * x^i
    mat = field._mul_matrices(inner.T).transpose(0, 2, 3, 1).reshape(rows, k * width)
    mat = mat.astype(np.float64)

    def step(a):
        a = np.concatenate([a, np.ones((len(a), 1), dtype=np.int64)], axis=1)
        a = np.moveaxis(digits(a, p, k), 0, -1).reshape(len(a), rows).astype(np.float64)
        values = a @ mat / p  # an integer quotient exactly where the sum is 0 mod p
        return (np.floor(values) != values).reshape(len(a), k, width).any(axis=1)
    return step


def _log_step(field, inner):
    """The log-domain step of characteristic 2 (see :func:`_uses_logs`):
    like :func:`_product_step`, but it returns the block's values, each
    group's term one gather of g^(log a + log mono) and the terms added by
    XOR.  A factor's log is below q - 1, or 2(q - 1) for 0, and ``prod``
    holds g^i at every sum i < 2(q - 1) and 0 from there on, so the step
    needs neither a modulus nor a mask."""
    logt, expt = field_tables(field)
    zlog = 2 * (field.q - 1)
    prod = np.concatenate([expt, expt, np.zeros(zlog + 1, dtype=np.int64)])
    logs = np.where(inner[:, :-1] != 0, logt[inner[:, :-1]], zlog).T  # (groups, q^s)
    base = inner[:, -1]

    def step(a):
        values = np.broadcast_to(base, (len(a), len(base)))
        loga = np.where(a != 0, logt[a], zlog)
        for g in np.flatnonzero(a.any(axis=0)):
            term = prod[loga[:, g, None] + logs[g]]
            term ^= values
            values = term
        return values
    return step


def hits(poly):
    """Grid indices (canonical order) where ``poly`` is nonzero: one
    ascending int64 array of absolute indices per block that has any.

    The polynomial is reduced first, so one that vanishes on the whole grid
    has no nonzero point to scan for.  It is then :func:`_split` into its
    last s variables, whose q^s points (about ``_INNER``) make the inner
    grid, and the outer rest.  ``base`` and every inner monomial are one
    :func:`grid_eval` over the inner grid, cached by the scan's step
    (:func:`_product_step`, or :func:`_log_step` in characteristic 2 with
    k > 1).  A block is ``_CHUNK`` // q^s outer points times the inner
    grid.  The coefficients come from one grid_eval per batch of outer
    points: the first batch is one block, and each next one twice the
    last, up to ``_CHUNK`` outer points and ``_MAX_CACHED`` coordinates.
    So a caller that stops at the first array evaluates the inner grid and
    one batch per doubling up to its first hit, and a caller that counts
    holds one batch and one block.  A scan with no inner grid to cache
    (s = 0) or no outer variable (s = n) is grid_eval of ``poly``, block
    by block.
    """
    poly = poly.reduced()
    if poly.is_zero():
        return
    field, q, n = poly.field, poly.field.q, poly.nvars
    s, base, groups = _split(poly)
    if s in (0, n):
        total = q ** n
        for start in range(0, total, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
            found = np.flatnonzero(grid_eval([poly], idx))
            if len(found):
                yield found + start
        return
    width = q ** s
    monos = [type(poly)(s, field, {mono: 1}) for mono, _ in groups]
    inner = grid_eval(monos + [base], np.arange(width, dtype=np.int64))
    step = (_log_step if _uses_logs(field) else _product_step)(field, inner)
    coefs = [coef for _, coef in groups]
    outer = q ** (n - s)
    block = _CHUNK // width  # outer points per block; q^s <= _CHUNK: at least one
    most = max(block, min(_CHUNK, _MAX_CACHED // (len(groups) + 1) // field.k) // block * block)
    size, o0 = block, 0
    while o0 < outer:
        o1 = min(o0 + size, outer)
        batch = np.zeros((o1 - o0, 0), dtype=np.int64)  # a base alone: no coefficient
        if coefs:
            batch = grid_eval(coefs, np.arange(o0, o1, dtype=np.int64))
        for b0 in range(0, o1 - o0, block):
            found = np.flatnonzero(step(batch[b0:b0 + block]))
            if len(found):
                found += (o0 + b0) * width
                yield found
        o0, size = o1, min(2 * size, most)


def decode_point(t, q, n):
    """Inverse of the canonical grid order used by grid_eval: the n base-q
    digits of t, the last variable's the lowest."""
    return tuple(_base_p(t, q, n)[::-1])


def decode(idx, q, n, variables=None):
    """:func:`decode_point` at every index of the int64 array ``idx``: an
    (N, n) int64 array, row r the coordinates of point ``idx[r]``, or only
    the columns of ``variables`` (an ascending sequence) when given.
    Variable i is base-q digit n - 1 - i, and the array is the transpose of
    :func:`fields.digits`, so each coordinate is one contiguous column."""
    variables = np.arange(n) if variables is None else np.asarray(variables, dtype=np.int64)
    return digits(idx, q, n - 1 - variables).T
