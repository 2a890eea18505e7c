"""Reference weight enumerator, kept only as a test oracle.

It walks the GF(q)-span of a code's dense rows directly (raw coefficient
tuples, such as ``dense_oracle.lifted_basis``): a Gray-code walk over
bitmasks for GF(2), and a plain recursion over every coefficient choice,
with field elements as indices into an addition table, for any other
field.  It is slow but shares nothing with the packed kernel in
``abelian_codes.codes.weight_distribution``.  ``coset_generator_rules``
keeps the coset walk's first test of its generator, a table of the
subgroup H, beside the one power that replaced it.
"""

from math import lcm

from abelian_codes.finite_field import factorize


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


def coset_generator_rules(ctx, row, k):
    """(by_table, by_power): the two tests of whether a polynomial g
    (k coefficients, low degree first) generates I*/H in the coset walk of
    ``basis._coset_weights``.

    I = F_q[x]/(m) is the code spanned by the o shifts of the idempotent
    row, m the minimal polynomial of x on it, H = {a x^j} of order
    h = lcm(o, q - 1) and N = (q^k - 1)/h.  Both ask, for every prime
    r | N, that g^(N/r) lie outside H.  by_table looks g^(N/r), scaled to
    lead with 1, up in the set of the o residues x^j mod m scaled alike;
    by_power asks that g^(N h'/r), its h'-th power for h' = h/(q - 1), not
    be a constant.  m is solved from x^k row = sum_j c_j x^j row on all o
    coordinates."""
    o, q, zero, one, mul, add = len(row), ctx.order, ctx.zero, ctx.one, ctx.mul, ctx.add
    # the augmented system [x^0 row .. x^(k-1) row | x^k row], one equation a coordinate
    system = [[row[(t - j) % o] for j in range(k + 1)] for t in range(o)]
    for col in range(k):
        pivot = next(r for r in range(col, o) if system[r][col] != zero)
        system[col], system[pivot] = system[pivot], system[col]
        s = ctx.inv(system[col][col])
        system[col] = [mul(s, x) for x in system[col]]
        for r in range(o):
            if r != col and system[r][col] != zero:
                f = ctx.neg(system[r][col])
                system[r] = [add(x, mul(f, y)) for x, y in zip(system[r], system[col])]
    c = [system[j][k] for j in range(k)]

    def times(u, v):  # u * v mod m, by x^k = sum_j c_j x^j
        w = [zero] * (2 * k - 1)
        for i, a in enumerate(u):
            if a != zero:
                for j, b in enumerate(v, i):
                    w[j] = add(w[j], mul(a, b))
        for d in range(2 * k - 2, k - 1, -1):
            if w[d] != zero:
                for j, b in enumerate(c, d - k):
                    w[j] = add(w[j], mul(w[d], b))
        return w[:k]

    def power(u, e):  # e >= 1, by its binary digits from the top
        r = u
        for bit in bin(e)[3:]:
            r = times(r, r)
            if bit == "1":
                r = times(r, u)
        return r

    def normal(v):
        s = ctx.inv(next(x for x in v if x != zero))
        return tuple(mul(s, x) for x in v)

    x = [zero, one] + [zero] * (k - 2) if k > 1 else [c[0]]
    table, xj = set(), [one] + [zero] * (k - 1)
    for _ in range(o):
        table.add(normal(xj))
        xj = times(xj, x)
    n = (q ** k - 1) // lcm(o, q - 1)
    h_prime = lcm(o, q - 1) // (q - 1)
    primes = list(factorize(n))

    def by_table(g):
        return all(normal(power(g, n // r)) not in table for r in primes)

    def by_power(g):
        return all(power(g, n * h_prime // r)[1:] != [zero] * (k - 1) for r in primes)

    return by_table, by_power
