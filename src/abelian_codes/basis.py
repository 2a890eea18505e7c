"""The basis routes of ``codes._route``: the coset walk (``walk`` and
``step``) and the two-vector bound (``bound``), with the RREF of C_o they
read.

``codes`` keeps the routes that need no basis (``span`` and ``dual``) and
imports this module where a route needs one: ``weight_distribution`` on a
coset walk, ``min_weight_or_bound`` on the bound.  So a ``classify`` job
whose codes are all enumerated never compiles it.  ``reference`` reads
``_basis`` for ``verify``'s rank check.
"""

from collections import Counter
from itertools import chain, repeat
from math import lcm

from .codes import _p_generators, _packing, _span_table
from .extension_field import lex_tuples
from .finite_field import _gf2_mask, _gf2_vector, factorize
from .group_algebra import row_reduce_raw


def _row_reduce_gf2(rows, rank=None):
    """Reduced row-echelon form of bitmask rows; `rank` as in
    row_reduce_raw."""
    basis = []
    pivots = []
    for r in rows:
        for pc, b in zip(pivots, basis):
            if (r >> pc) & 1:
                r ^= b
        if r == 0:
            continue
        pc = (r & -r).bit_length() - 1
        for k in range(len(basis)):
            if (basis[k] >> pc) & 1:
                basis[k] ^= r
        basis.append(r)
        pivots.append(pc)
        if len(basis) == rank:
            break
    if rank is not None and len(basis) < rank:
        raise AssertionError("rows span %d dimensions, expected %d" % (len(basis), rank))
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order]


def _reduce(rows, ctx, width, rank=None):
    """row_reduce_raw of raw rows of the given width; over GF(2) the rows
    are reduced as bitmasks."""
    if ctx.order != 2:
        return row_reduce_raw(rows, ctx, rank)
    return [_gf2_vector(m, width) for m in _row_reduce_gf2(map(_gf2_mask, rows), rank)]

def _basis(ctx, row, k, columns=None):
    """The RREF of the shifts of the length-o row, columns in the given
    order of Z_o (by default Z_o order); a given k is the rank, asserted.
    With the values of t in the order they first appear in G, it reads back
    through t as the RREF of all |G| translates of the idempotent.  Read
    by the walk tables, the two-vector bound and ``verify``'s rank check;
    enumeration needs no basis (``weight_distribution``)."""
    o = len(row)
    shifts = ([row[(t - s) % o] for t in columns or range(o)] for s in range(o))
    return _reduce(shifts, ctx, o, k)

def _coset_weights(ctx, row, k, tables):
    """Weight -> count over the irreducible cyclic code I spanned by the
    shifts of the idempotent row (length o, dimension k), from one word per
    coset of H = {a x^j e : a in GF(q)*, j < o}.

    I is the field F_q[x]/(m) of q^k elements, m the minimal polynomial of
    x on I; H, of order h = lcm(o, q - 1), keeps weights and acts freely
    on its units.  So the weights of g(x)^t * row, t < N = (q^k - 1)/h,
    each count h times once g(x) generates I*/H: for every prime r | N,
    g^(N/r) mod m is not a * x^j.  g is the first such monic polynomial, by
    degree and then by its coefficients in product order.  The first k
    coordinates of a cyclic code are an information set: m is read off
    them (x^k row = sum_j c_j x^j row), and they are the pivots of the
    RREF basis b_i of I.  A word w is then sum_i w_i b_i, so g(x) * w is
    two lookups, keyed on the packed low and high halves of those
    coordinates, into tables of the combinations of the g(x) * b_i, plus
    one add.  Without ``tables`` (the route ``step`` of ``_route``), each
    step multiplies by g(x) instead.
    """
    o, q, p, zero, one, mul, plus = len(row), ctx.order, ctx.p, ctx.zero, ctx.one, ctx.mul, ctx.add
    info = [[row[(t - j) % o] for j in range(k + 1)] for t in range(k)]
    c = [r[k] for r in row_reduce_raw(info, ctx)]

    def reduce(w):  # w(x) mod m(x), by x^k = sum_j c_j x^j
        for d in range(len(w) - 1, k - 1, -1):
            w[d - k:d] = [plus(a, mul(w[d], b)) for a, b in zip(w[d - k:d], c)]
        return w[:k]

    def times(u, v):
        w = [zero] * (2 * k - 1)
        for i, x in enumerate(u):
            w[i:i + k] = [plus(a, mul(x, b)) for a, b in zip(w[i:i + k], v)]
        return reduce(w)

    def power(u, e):
        r = [one] + [zero] * (k - 1)
        while e:
            r, u, e = times(r, u) if e & 1 else r, times(u, u), e >> 1
        return r

    def normal(v):  # the multiple of v whose first nonzero coefficient is 1
        s = ctx.inv(next(x for x in v if x != zero))
        return tuple(mul(s, x) for x in v)

    xj, h_polys = [one] + [zero] * (k - 1), set()  # H mod scalars: the x^j mod m
    for _ in range(o):
        h_polys.add(normal(xj))
        xj = reduce([zero] + xj)
    h = lcm(o, q - 1)
    steps = (q ** k - 1) // h
    for g in (list(cs) + [one] + [zero] * (k - 1 - d)
              for d in range(k) for cs in lex_tuples(ctx.elements, d)):
        if all(normal(power(g, steps // r)) not in h_polys for r in factorize(steps)):
            break

    def apply(w):  # g(x) * w
        out = [zero] * o
        for j, x in enumerate(g):
            out = [plus(a, mul(x, b)) for a, b in zip(out, w[o - j:] + w[:o - j])]
        return out

    pack, add, weights, width = _packing(ctx, o)
    hist = Counter()
    if not tables:
        w = row
        for _ in range(steps):
            hist.update(weights([pack(w)]))
            w = apply(w)
    else:
        half = (k + 1) // 2
        basis = _basis(ctx, row, k)
        keys = _p_generators(ctx, basis, pack)
        values = _p_generators(ctx, [apply(b) for b in basis], pack)
        low_mask = (1 << half * width) - 1
        high_mask = (1 << k * width) - 1 ^ low_mask

        def table(part, mask):
            return {w & mask: v for w, v in zip(_span_table(keys[part], add, p),
                                                _span_table(values[part], add, p))}

        low = table(slice(None, half * ctx.m), low_mask)
        high = table(slice(half * ctx.m, None), high_mask)
        word = pack(row)
        for start in range(0, steps, 4096):
            chunk = []
            for _ in range(min(4096, steps - start)):
                chunk.append(word)
                word = add(low[word & low_mask], high[word & high_mask])
            hist.update(weights(chunk))
    hist = Counter({w: h * c for w, c in hist.items()})
    hist[0] = 1
    return hist

def _two_vector_bound(ctx, rows):
    """The least weight over the spans of at most two of the rows.

    weight(s*v_i + t*v_j) = weight(v_i + (t/s)*v_j), so the words v_i and
    v_i + t*v_j (i < j, t != 0) cover every such span; the q - 1 multiples
    t*v_j are the nonzero GF(p)-combinations of ``_p_generators``.  The
    minimum streams: one pair's q - 1 sums are held at a time, never all."""
    pack, add, weights, width = _packing(ctx, len(rows[0]))
    multiples = [_span_table(_p_generators(ctx, [b], pack), add, ctx.p)[1:] for b in rows]
    vectors = [ws[0] for ws in multiples]  # 1 * b comes first
    pairs = (weights(map(add, repeat(v), ws))
             for i, v in enumerate(vectors) for ws in multiples[i + 1:])
    return min(chain(weights(vectors), chain.from_iterable(pairs)))
