"""Reference weight enumerator, kept only as a test oracle.

It walks the GF(q)-span of a code's dense rows directly (raw coefficient
tuples, such as ``dense_oracle.lifted_basis``): a Gray-code walk over
bitmasks for GF(2), and a plain recursion over every coefficient choice,
with field elements as indices into an addition table, for any other
field.  It is slow but shares nothing with the packed kernel in
``abelian_codes.codes.weight_distribution``.
"""


def oracle_histogram(ctx, rows):
    """Weight -> codeword count over the span of the independent rows."""
    dim = len(rows)
    if ctx.p == 2 and ctx.m == 1:
        masks = [sum(c << i for i, c in enumerate(b)) for b in rows]
        hist = {0: 1}
        cur = 0
        for i in range(1, 1 << dim):
            cur ^= masks[(i & -i).bit_length() - 1]
            w = cur.bit_count()
            hist[w] = hist.get(w, 0) + 1
        return dict(sorted(hist.items()))
    # field elements become indices into one addition table
    elems = list(ctx.elements())
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[ctx.add(a, b)] for b in elems] for a in elems]
    zero = index[ctx.zero]
    scaled = [
        [[index[ctx.mul(s, c)] for c in row] for s in elems]
        for row in rows
    ]
    hist = {}

    def rec(d, current):
        if d == dim:
            w = sum(1 for c in current if c != zero)
            hist[w] = hist.get(w, 0) + 1
            return
        for si in range(len(elems)):
            if si == 0:
                rec(d + 1, current)
            else:
                row = scaled[d][si]
                rec(d + 1, [add[a][b] for a, b in zip(current, row)])

    rec(0, [zero] * len(rows[0]) if rows else [])
    return dict(sorted(hist.items()))


def oracle_two_vector_bound(ctx, vectors):
    """Minimum weight over every s*v_i and s*v_i + t*v_j (i < j; s, t
    nonzero scalars) of the vectors, on dense coefficient tuples."""
    zero = ctx.zero
    nonzero_scalars = [s for s in ctx.elements() if s != zero]
    best = None
    for v in vectors:
        for s in nonzero_scalars:
            sv = tuple(ctx.mul(s, c) for c in v)
            w = sum(1 for c in sv if c != zero)
            if best is None or w < best:
                best = w
    for i in range(len(vectors)):
        vi = [tuple(ctx.mul(s, c) for c in vectors[i]) for s in nonzero_scalars]
        for j in range(i + 1, len(vectors)):
            vj = [tuple(ctx.mul(s, c) for c in vectors[j]) for s in nonzero_scalars]
            for a in vi:
                for b in vj:
                    w = sum(1 for x, y in zip(a, b) if ctx.add(x, y) != zero)
                    if w < best:
                        best = w
    return best
