"""Grid-evaluation kernels for exhaustive scans over F_q^n.

Every evaluation on the grid F_q^n (canonical order, last variable varying
fastest) goes through :func:`grid_eval`, which evaluates a list of sparse
polynomials at an array of grid indices from one decode of the indices.
With n = 1 an index is an element's encoding, which is how the root search
of :mod:`ffgeom.polynomials` evaluates a polynomial at its candidate roots.
Multiplication goes through the field's discrete-log tables and addition
through :meth:`FiniteField.add`, the rule scalar arithmetic uses, applied
to whole arrays.  Every field has tables, so one kernel serves every field
up to the size limit.

Scans go through :func:`hits`, which splits the grid into its last s
(*inner*) variables and the rest (*outer*), and writes the polynomial as a
sum of inner monomials with polynomial coefficients in the outer ones.
The inner grid is small, about ``_INNER`` points: its monomials are
evaluated in one call per scan, the coefficients in one call per block of
outer points, and a block's values are their products, taken as one
broadcast in the log domain.  The scan stops when its caller does.
"""

import numpy as np

# grid points per block of hits: O(_CHUNK) memory.  A scan that stops at its
# first hit evaluates one block, and a working set of a few MB is reused by
# the allocator instead of faulted in again on every block.
_CHUNK = 2 ** 14
# points of the inner grid that hits evaluates through grid_eval once per
# scan (the cost model is in _split's docstring)
_INNER = 2 ** 10
# inner-monomial values a scan caches: (groups with a nonconstant monomial)
# times the inner grid's q^s points, an int64 log each.  That is below q^2s,
# and _INNER^2 is this cap, so only the one inner variable of a field of
# more than _INNER elements can reach it
_MAX_CACHED = 64 * _CHUNK


def kernel_capable(field):
    """Whether the kernel can serve this field: always, since every field
    builds tables."""
    return True


def field_tables(field):
    """The field's kernel tables ``(logt, expt)``, built once per field
    object (see :attr:`FiniteField.tables`)."""
    return field.tables


def grid_eval(polys, idx):
    """Values of ``polys``, a non-empty sequence of polynomials over one field
    in one variable count, at the grid indices of the int64 array ``idx``,
    from one decode of ``idx``: an (N, len(polys)) int64 array of encoded
    field elements, column j the values of ``polys[j]`` in ``idx``'s order.

    The caller passes reduced polynomials (see
    :meth:`MultivariatePolynomial.reduced`) or, as the Pluecker minors of a
    cell, multilinear ones: every exponent is below q, so ``e * log`` stays
    far inside int64.
    """
    field, q = polys[0].field, polys[0].field.q
    logt, expt = field_tables(field)
    coords = decode(idx, q, polys[0].nvars).T
    out = np.zeros((len(polys), len(idx)), dtype=np.int64)  # returned transposed
    for row, poly in zip(out, polys):
        for exps, c in poly.terms.items():
            logval = np.full(len(idx), logt[c], dtype=np.int64)
            alive = np.ones(len(idx), dtype=bool)
            for x, e in zip(coords, exps):
                if e:
                    alive &= x != 0
                    logval += e * logt[x]  # log[0] garbage masked by `alive`
            row[:] = field.add(row, np.where(alive, expt[logval % (q - 1)], 0))
    return out.T


def _split(poly):
    """``(s, base, groups)``: the reduced ``poly`` as
    ``base + sum(coef * mono for mono, coef in groups)``, with ``base`` a
    polynomial in its last s variables, each ``mono`` an exponent tuple of
    those s variables and each ``coef`` a nonconstant polynomial in the
    other n - s, at most one group per monomial.

    s is the largest with q^s <= min(``_INNER``, ``_CHUNK``), and at least
    1 while q <= ``_CHUNK``, then lowered (down to 0) until the groups
    whose monomial is not constant hold at most ``_MAX_CACHED`` inner
    values, q^s each.  Every group with a constant coefficient folds into
    ``base``.

    The cost model: :func:`hits` sends the q^s inner points through
    :func:`grid_eval` once per scan and each block's outer points once per
    block, at a pass per term and variable, and everything else as block
    products, a few passes a point.  A scan that stops at its first hit
    thus pays grid_eval for the whole inner grid however early the hit, so
    the inner grid stays small; but a block holds ``_CHUNK`` // q^s outer
    points, so it must not shrink so far that they dominate.  A grid within
    the bound is one grid_eval (s = n)."""
    field, n = poly.field, poly.nvars
    bound = min(_INNER, _CHUNK)
    s = 0
    while s < n and (field.q ** (s + 1) <= bound or (s == 0 and field.q <= _CHUNK)):
        s += 1
    if s == n:  # no outer variables: every coefficient is a constant
        return s, poly, []
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
        cached = sum(1 for mono, _ in groups if any(mono))
        if s == 0 or cached * field.q ** s <= _MAX_CACHED:
            return s, type(poly)(s, field, base), groups
        s -= 1


def hits(poly):
    """Grid indices (canonical order) where ``poly`` is nonzero: one
    ascending int64 array of absolute indices per block that has any.

    The polynomial is reduced first, so one that vanishes on the whole grid
    has no nonzero point to scan for.  It is then :func:`_split` into its
    last s variables, whose q^s points (about ``_INNER``) make the inner
    grid, and the outer rest.  ``base`` and every inner monomial are one
    :func:`grid_eval` over the inner grid.  A block is
    ``_CHUNK`` // q^s outer points times the inner grid: its values
    are ``base`` plus each group's coefficient, all evaluated in one call at
    the block's outer points, times its monomial.  So a caller that stops
    at the first array evaluates the inner grid and the outer points of
    the blocks up to its first hit, and a caller that counts never holds
    more than a block.
    """
    poly = poly.reduced()
    if poly.is_zero():
        return
    field, q = poly.field, poly.field.q
    s, base, groups = _split(poly)
    width = q ** s
    monos = [mono for mono, _ in groups if any(mono)]
    if base or monos:  # else nothing to evaluate on the inner grid
        inner = grid_eval([base] + [type(poly)(s, field, {mono: 1}) for mono in monos],
                          np.arange(width, dtype=np.int64))
    base = inner[:, 0] if base else None
    # products in the log domain with neither a modulus nor a mask: a
    # factor's log is below q - 1, or 2(q - 1) for 0, and ``prod`` holds
    # g^i at every sum i < 2(q - 1) and 0 from there on.  Only a scan with
    # a nonconstant monomial builds it, and there q^s <= _CHUNK.
    zlog, logs = 2 * (q - 1), {}
    if monos:
        logt, expt = field_tables(field)
        prod = np.concatenate([expt, expt, np.zeros(zlog + 1, dtype=np.int64)])
        logs = {mono: np.where(v != 0, logt[v], zlog)
                for mono, v in zip(monos, inner[:, 1:].T)}
    coefs = [coef for _, coef in groups]
    outer = q ** (poly.nvars - s)
    step = _CHUNK // width  # q^s <= _CHUNK: at least one outer point
    for o0 in range(0, outer, step):
        o1 = min(o0 + step, outer)
        shape = (o1 - o0, width)
        values = None if base is None else np.broadcast_to(base, shape)
        block = grid_eval(coefs, np.arange(o0, o1, dtype=np.int64)).T if coefs else ()
        for (mono, _), a in zip(groups, block):
            if not a.any():
                continue
            if mono in logs:
                loga = np.where(a != 0, logt[a], zlog)
                term = prod[loga[:, None] + logs[mono]]
            else:  # the constant monomial: its coefficient adds as it is
                term = np.broadcast_to(a[:, None], shape)
            values = term if values is None else field.add(values, term)
        if values is None:  # a zero base and every coefficient 0 on the block
            continue
        found = np.flatnonzero(values)
        if len(found):
            found += o0 * width
            yield found


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
