"""The group algebra F_qG and its primitive idempotents, obtained from
q-power orbits of characters, with the two layers that only the algebra
builds: subgroups of G (canonical form: the ascending tuple of element
indices) with the linear maps evaluated on all |G| indices, and the
splitting field GF(p^(m*s)) of the base GF(p^m) with its roots of unity.
They live here so that ``sweep``, which runs neither, compiles neither;
``abelian_group`` and ``finite_field`` forward ``Subgroup``,
``splitting_field`` and ``element_of_order`` for the benchmark's tracer.

An idempotent is held as a row indexed by character values, never as a
dense vector: the dense ``AlgebraElement`` with its convolution
arithmetic, the averaging idempotents, the co-cyclic idempotent family
and the automorphism action are in ``reference``.  Coefficients always
live in the base field; splitting-field arithmetic is confined to
primitive_idempotents and reduced back before anything is returned.
"""

import itertools
from math import gcd, lcm, prod

from .abelian_group import _check_char
from .errors import DegreeTooLarge, GroupTooLarge, NoRootsOfUnity
from .extension_field import lex_tuples
from .finite_field import _SPLITTING_DEGREE_BOUND, divisors, factorize, field_make, mul_order

# The benchmark's tracer (perfbench/tracer.py) wraps these functions of
# ``reference`` under this module's name, and the ``__mul__`` of
# ``AlgebraElement`` imported from here; delete them and ``__getattr__``
# once spans are recorded inside the program (ROADMAP item 1).
_TRACED_REFERENCE = frozenset({
    "AlgebraElement", "cocyclic_idempotent", "cocyclic_idempotent_family", "hat",
    "phi_subgroup",
})


def __getattr__(name):
    if name not in _TRACED_REFERENCE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import reference

    value = globals()[name] = getattr(reference, name)
    return value


def get_algebra(group, ctx):
    return GroupAlgebra(group, ctx)


class GroupAlgebra:
    """The pair (G, F_q) over which elements are coefficient vectors."""

    __slots__ = ("group", "ctx")

    def __init__(self, group, ctx):
        self.group = group
        self.ctx = ctx

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebra)
            and self.group == other.group
            and self.ctx == other.ctx
        )

    def __hash__(self):
        return hash((self.group.divisors, self.ctx))

    def __repr__(self):
        return "GroupAlgebra(%r, %r)" % (self.group, self.ctx)


class PrimitiveIdempotent:
    """A primitive idempotent held as its length-o row T_o, with its owning
    co-cyclic subgroup and the canonical representative of the character
    orbit that produced it: the coefficient at g is row[t(g)]
    (``_character_values``), o the order of the orbit's characters."""

    __slots__ = ("algebra", "orbit_rep", "phi_subgroup", "row")

    def __init__(self, algebra, orbit_rep, phi_subgroup, row):
        self.algebra = algebra
        self.orbit_rep = tuple(orbit_rep)
        self.phi_subgroup = phi_subgroup
        self.row = row

    def __repr__(self):
        return "PrimitiveIdempotent(orbit_rep=%r)" % (self.orbit_rep,)


# ---------------------------------------------------------------------------
# subgroups and linear maps
# ---------------------------------------------------------------------------

def _strides(group):
    """Index weight of each coordinate: index = sum of exps[i] * strides[i];
    built once per group."""
    if group._strides is None:
        group._strides = tuple(prod(group.divisors[i + 1:]) for i in range(group.rank))
    return group._strides


def _cycle(group, g):
    """Indices of 0, g, 2g, ..., (o-1)g for the element g of order o."""
    o = group.element_order(g)
    cols = [
        [k * x % d * s for k in range(o)]
        for x, d, s in zip(g, group.divisors, _strides(group)) if x
    ]
    return [sum(t) for t in zip(*cols)] if cols else [0]


def _orders(group):
    """Order of every element, in index order; built once per group."""
    if group._orders is None:
        vals = [1]
        for d in group.divisors:
            col = [d // gcd(x, d) for x in range(d)]
            vals = [lcm(v, c) for v in vals for c in col]
        group._orders = vals
    return group._orders


def _join(group, S, g):
    """Index set of the subgroup generated by the subgroup S (an index set)
    and the element g: S and its cosets S + k*g for 0 < k < m, m the least
    k with k*g in S.  Only those cosets are built, and only along the axes
    j where g_j != 0: there the index of h + k*g moves by
    ((h_j + k*g_j) mod d_j - h_j) * stride_j."""
    cyc = _cycle(group, g)
    m = next((k for k in range(1, len(cyc)) if cyc[k] in S), len(cyc))
    new = [h for _ in range(1, m) for h in S]
    for x, d, s in zip(g, group.divisors, _strides(group)):
        if x % d:
            digits = [h // s % d for h in S]
            step = [((y + k * x) % d - y) * s for k in range(1, m) for y in digits]
            new = [a + b for a, b in zip(new, step)]
    return set(S).union(new)


class Subgroup:
    """A subgroup of a fixed group; equality and ordering use the ascending
    tuple of element indices (the canonical form), which orders subgroups
    exactly as their sorted exponent tuples would.  It is built from its
    generators or trusted indices; ``reference.checked_subgroup`` builds one
    from a list of elements after checking that they form a subgroup."""

    __slots__ = ("group", "indices", "_set", "_generators")

    @classmethod
    def generated(cls, group, gens):
        span = {0}
        for g in gens:
            span = _join(group, span, getattr(g, "exps", g))
        return cls._from_indices(group, sorted(span))

    @classmethod
    def _from_indices(cls, group, indices, generators=None):
        """Trusted subgroup from its element indices in ascending order."""
        obj = object.__new__(cls)
        obj.group = group
        obj.indices = tuple(indices)
        obj._set = None
        obj._generators = generators
        return obj

    @classmethod
    def trivial(cls, group):
        return cls._from_indices(group, (0,))

    @classmethod
    def whole(cls, group):
        return cls._from_indices(group, range(group.order))

    @property
    def elements(self):
        """Exponent tuples of the members, in canonical order."""
        elems = self.group.elements
        return tuple([elems[i] for i in self.indices])

    @property
    def order(self):
        return len(self.indices)

    @property
    def index_set(self):
        """Frozenset of the member indices, built on the first query."""
        if self._set is None:
            self._set = frozenset(self.indices)
        return self._set

    @property
    def generators(self):
        """Deterministic small generating list: greedily peel the canonical
        first element of maximal order outside the current span.  H is
        generated by its elements of order exp(H), so while the span is not
        H some of them lie outside it, and every pick has that order; the
        span only grows, so one forward pass over the indices takes each
        index of order exp(H) not yet spanned, until the span is H."""
        if self._generators is None:
            group, n = self.group, len(self.indices)
            orders = _orders(group)
            top = max(map(orders.__getitem__, self.indices))
            span, gens = {0}, []
            for i in self.indices:
                if orders[i] == top and i not in span:
                    gens.append(group.elements[i])
                    if top == n:  # cyclic: i generates it
                        break
                    span = _join(group, span, gens[-1])
                    if len(span) == n:
                        break
            self._generators = tuple(gens)
        return self._generators

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash((self.group.divisors, self.indices))

    def __lt__(self, other):
        return self.indices < other.indices

    def __repr__(self):
        gens = ",".join(repr(list(g)) for g in self.generators)
        return "Subgroup<order %d, gens %s>" % (self.order, gens)


def _linear_values(group, coeffs, n):
    """sum_i coeffs[i] * x_i mod n for every element x, in index order."""
    vals = [0]
    for c, d in zip(coeffs, group.divisors):
        vals = [(v + c * x) % n for v in vals for x in range(d)]
    return vals


def _basis_exps(group, i):
    return tuple(1 if j == i else 0 for j in range(group.rank))


def _induced_map(group, images):
    """Index of the image of every element under the homomorphism
    e_i -> images[i], in index order.  Coordinate j of the image is a linear
    form mod d_j; scaling it by the stride keeps each column an index
    summand."""
    out = [0] * group.order
    for j, (d, s) in enumerate(zip(group.divisors, _strides(group))):
        col = _linear_values(group, [img[j] * s for img in images], d * s)
        out = [a + b for a, b in zip(out, col)]
    return out


def _induced_perm(group, images):
    """Index permutation of the homomorphism e_i -> images[i], or None when
    it is not a bijection."""
    perm = _induced_map(group, images)
    if len(set(perm)) != group.order:
        return None
    return tuple(perm)


# ---------------------------------------------------------------------------
# splitting fields and roots of unity
# ---------------------------------------------------------------------------

def _small_first(field):
    """The nonzero elements of the field by largest digit top, each one
    built directly (digits before the first top are below it): over a
    large p, lex order would first run through the p - 1 multiples of x,
    one coset of GF(p)*, on which a power map can be constant."""
    return (field.raw_from_coeffs(head + (top,) + tail)
            for top in range(1, field.p) for i in range(field.m)
            for head in lex_tuples(range(top).__iter__, i)
            for tail in lex_tuples(range(top + 1).__iter__, field.m - 1 - i))


def _modulus_root(ctx, big):
    """The lex-least root of ctx.modulus in big.

    The roots lie in the copy of GF(q)* inside big, q = ctx.order, so the
    powers of any one element of order q - 1 (``_any_of_order``) meet one
    of them; the others are its p-power conjugates.  The least of all m
    roots is returned, so the generator the walk starts from is never read.
    """
    g = _any_of_order(big, ctx.order - 1)
    z = g
    while True:
        acc = big.zero
        for c in reversed(ctx.modulus):
            acc = big.add(big.mul(acc, z), big.from_int(c))
        if acc == big.zero:
            break
        z = big.mul(z, g)
    roots = [z]
    for _ in range(ctx.m - 1):
        roots.append(big.pow(roots[-1], ctx.p))
    return min(roots, key=big.coeffs)


def splitting_field(ctx, n):
    """Smallest-degree extension of ctx containing primitive n-th roots of 1.

    Returns (field, embed, restrict).  The field is GF(p^(m*s)) from
    field_make, s = ord_n(q), and the base GF(p^m) embeds through beta, the
    lex-least root of ctx.modulus there: embed sends the ctx raw with
    coefficients c_i to sum_i c_i beta^i, which for m = 1 is the constant
    c_0.  restrict maps a big-field raw back to a ctx raw, raising
    ArithmeticError when the value does not lie in the embedded base copy.
    A degree m*s above _SPLITTING_DEGREE_BOUND raises DegreeTooLarge.
    """
    if n <= 1 or (ctx.order - 1) % n == 0:
        ident = lambda a: a
        return ctx, ident, ident
    p, m = ctx.p, ctx.m
    degree = m * mul_order(ctx.order, n)
    if degree > _SPLITTING_DEGREE_BOUND:
        raise DegreeTooLarge(
            "splitting field degree bounded", field=ctx.spec_string(), exponent=n,
            degree=degree, bound=_SPLITTING_DEGREE_BOUND)
    big = field_make(p, degree)
    beta = _modulus_root(ctx, big) if m > 1 else big.one
    powers = [big.one]  # beta^i, i < m
    for _ in range(m - 1):
        powers.append(big.mul(powers[-1], beta))

    def embed(a):
        acc = big.zero
        for ci, b in zip(ctx.coeffs(a), powers):
            if ci:
                acc = big.add(acc, big.mul(big.from_int(ci), b))
        return acc

    # every pivot of the RREF of [digits of beta^i | I] is a digit column, as
    # 1, beta, ..., beta^(m-1) are independent; a row pairs a value's digits,
    # 1 at the row's pivot and 0 at the others, with its beta-coordinates, so
    # a base value's are the sum of its pivot digits times those of the rows
    width = big.m
    rref = row_reduce_raw([list(big.coeffs(b)) + [int(i == k) for k in range(m)]
                           for i, b in enumerate(powers)], field_make(p))
    pivots = [next(j for j, x in enumerate(r) if x) for r in rref]

    def restrict(z):
        digits = big.coeffs(z)
        a = ctx.raw_from_coeffs([
            sum(digits[col] * r[width + k] for col, r in zip(pivots, rref))
            for k in range(m)])
        if embed(a) != z:
            raise ArithmeticError("value outside the base field")
        return a

    return big, embed, restrict


def _any_of_order(field, n):
    """One field element of multiplicative order exactly n: the first
    z^((|F| - 1)/n) of that order, z in ``_small_first`` order."""
    if n == 1:
        return field.one
    if (field.order - 1) % n != 0:
        raise NoRootsOfUnity(
            "field has no elements of the requested order",
            field_order=field.order, n=n,
        )
    cofactor = (field.order - 1) // n
    prime_divisors = sorted(factorize(n))
    for z in _small_first(field):
        w = field.pow(z, cofactor)
        if w != field.one and all(field.pow(w, n // ell) != field.one
                                  for ell in prime_divisors):
            return w


def _powers(w, n, field):
    """w^k for k = 0, 1, ..., n - 1, by a running product."""
    return itertools.accumulate(itertools.repeat(w, n - 1), field.mul, initial=field.one)


def element_of_order(field, n):
    """The lex-least field element of multiplicative order exactly n.

    Every element of order n is a power found^k, k prime to n, of any one
    of them; the walk over k streams, since n may be as large as |F| - 1.
    """
    powers = enumerate(_powers(_any_of_order(field, n), n, field))
    return min((w for k, w in powers if gcd(k, n) == 1), key=field.coeffs)


def _root_powers(field, n):
    """zeta^v for v < n, zeta = element_of_order(field, n), from one walk
    of the powers of an element found of order n: zeta = found^k0 for the
    k0 prime to n with the lex-least power, so zeta^v = found^(k0*v mod n)."""
    walk = list(_powers(_any_of_order(field, n), n, field))
    k0 = min((k for k in range(n) if gcd(k, n) == 1), key=lambda k: field.coeffs(walk[k]))
    return [walk[k0 * v % n] for v in range(n)]


# ---------------------------------------------------------------------------
# primitive idempotents via q-power character orbits
# ---------------------------------------------------------------------------

def _orbit_reps(group, q):
    """The lex-least member of each orbit of characters under k -> q*k, in
    order: indices are walked in order, so the first member met of an
    orbit is its least exponent tuple."""
    step = _induced_perm(group, [group.scale(q, _basis_exps(group, i))
                                 for i in range(group.rank)])
    seen = bytearray(group.order)
    reps = []
    for i in range(group.order):
        if not seen[i]:
            reps.append(group.elements[i])
            j = i
            while not seen[j]:
                seen[j] = 1
                j = step[j]
    return reps


def _character_values(group, rep):
    """(o, t): the order o of rep and, for every element g in index order,
    t(g) in Z_o with <rep, -g> = t(g) * (n/o) mod n, n = exp G.

    The coefficient at g of the primitive idempotent of rep's orbit
    depends only on t(g), and t is onto Z_o with every fibre a coset of
    the kernel annihilator(G, <rep>): the code of that idempotent is the
    length-o cyclic code C_o with each coordinate repeated |G|/o times."""
    o = group.element_order(rep)
    return o, _linear_values(group, [-x * o // d for x, d in zip(rep, group.divisors)], o)


def _owners(group, q):
    """(k, annihilator(G, <k>)) for each k of ``_orbit_reps``: the owner of
    k's code, one Subgroup per cyclic subgroup <k>, shared by every j*k with
    j a unit mod o, the order of k, so built and peeled (``generators``) once.

    The owner is the kernel {x : sum_j c_j x_j = 0 mod o}, c_j = k_j * o / d_j
    (t(g) = 0 in ``_character_values``).  Over each prefix of all coordinates
    but the last, in index order, of value v, the last coordinate solves
    -c_r x = v mod o on one coset of step o / gcd(c_r, o) in Z_(d_r), or
    nowhere: the indices come out ascending in |G|/d_r + |H| steps, not |G|."""
    owners = {}
    for k in _orbit_reps(group, q):
        if k not in owners:
            cyc = _cycle(group, k)  # the indices of j*k, j < o
            o = len(cyc)
            *c, last = [x * o // d for x, d in zip(k, group.divisors)] or [0]
            d, step = group.exponent, o // gcd(last, o)
            coset = {-last * x % o: range(x, d, step) for x in range(step)}
            owner = Subgroup._from_indices(group, [
                i * d + x for i, v in enumerate(_linear_values(group, c, o))
                for x in coset.get(v, ())])
            for j in range(o):
                if gcd(j, o) == 1:
                    owners[group.elements[cyc[j]]] = owner
        yield k, owners[k]


# primitive_idempotents refuses more than this many codes times |G|, the
# coefficients idempotents prints; as fresh processes over GF(2), 3^7 (2.4e6)
# classifies in 0.6 s and prints its idempotents in 1.9 s, 9,9,9,9 (7.4e6) in
# 0.6 s and 3.6 s, and 3^8 (2.2e7) is refused
_IDEMPOTENT_WORK_BOUND = 2 ** 23


def _code_count(group, q):
    """The number of q-orbits of characters: sum over o | exp G of N_o /
    ord_o(q), N_o the number of elements (so of characters) of order o."""
    exact = {}
    for o in sorted(divisors(group.exponent)):
        exact[o] = prod(gcd(o, d) for d in group.divisors) - sum(
            n for e, n in exact.items() if o % e == 0)
    return sum(n // mul_order(q, o) for o, n in exact.items())


def primitive_idempotents(group, ctx):
    """The complete orthogonal family of primitive idempotents of F_qG.

    Characters are partitioned into q-power orbits; each orbit sum is an
    idempotent with coefficients fixed by the q-Frobenius, hence living in
    the base field.  The coefficient at g of the orbit of rep, of order o,
    is T_o[t(g)] (``_character_values``) with
    T_o[t] = (1/|G|) * sum_{j < k} zeta^(t * (n/o) * q^j), k = ord_o(q),
    so one table per distinct character order serves every orbit, and
    each entry carries that table as its ``row``.  Output is sorted by
    canonical orbit representative and each entry carries its owning
    co-cyclic subgroup: the kernel of the orbit's character,
    annihilator(G, <rep>) = {g : t(g) = 0}, which every character of the
    orbit shares (q is a unit mod exp G, so <q*k> = <k>), one object per
    <rep> (``_owners``).  More than
    _IDEMPOTENT_WORK_BOUND codes times |G| raise GroupTooLarge, after the
    splitting field's own DegreeTooLarge check and before any product in it.
    """
    _check_char(group, ctx)
    alg = get_algebra(group, ctx)
    n = group.exponent
    big, _embed, restrict = splitting_field(ctx, n)
    codes = _code_count(group, ctx.order)
    if codes * group.order > _IDEMPOTENT_WORK_BOUND:
        raise GroupTooLarge("primitive idempotents bounded", codes=codes, order=group.order,
                            bound=_IDEMPOTENT_WORK_BOUND)
    powers = _root_powers(big, n)  # zeta^v, zeta = element_of_order(big, n)
    inv_order = ctx.inv(ctx.from_int(group.order))
    q = ctx.order
    tables = {}

    def table(o):
        k, row = mul_order(q, o), []
        for t in range(o):
            s, v = big.zero, t * (n // o)
            for _ in range(k):
                s = big.add(s, powers[v])
                v = v * q % n
            try:
                raw = restrict(s)
            except ArithmeticError as exc:
                raise AssertionError(
                    "character-orbit sum escaped the base field; "
                    "orbit partition is inconsistent"
                ) from exc
            row.append(ctx.mul(raw, inv_order))
        return tuple(row)

    out = []
    for rep, owner in _owners(group, q):
        o = group.element_order(rep)
        if o not in tables:
            tables[o] = table(o)
        out.append(PrimitiveIdempotent(alg, rep, owner, tables[o]))
    return out


# ---------------------------------------------------------------------------
# shared linear algebra over the coefficient field
# ---------------------------------------------------------------------------

def row_reduce_raw(rows, ctx, rank=None):
    """Reduced row-echelon form of an iterable of raw-coefficient vectors.

    Pivot columns are chosen left to right in group enumeration order, so
    the resulting basis is deterministic.  Zero rows are dropped.  With a
    known `rank`, rows are read only until the basis reaches it (the RREF
    of a row space is unique); running out first raises AssertionError.
    """
    basis = []
    pivots = []
    for row in rows:
        row = list(row)
        width = len(row)
        for pcol, pivot_row in zip(pivots, basis):
            c = row[pcol]
            if c != ctx.zero:
                # row -= c * pivot_row
                for i in range(width):
                    pv = pivot_row[i]
                    if pv != ctx.zero:
                        row[i] = ctx.sub(row[i], ctx.mul(c, pv))
        pcol = next((i for i, c in enumerate(row) if c != ctx.zero), None)
        if pcol is None:
            continue
        inv = ctx.inv(row[pcol])
        row = [ctx.mul(inv, c) for c in row]
        # back-substitute into existing basis rows
        for k in range(len(basis)):
            c = basis[k][pcol]
            if c != ctx.zero:
                basis[k] = [
                    ctx.sub(bv, ctx.mul(c, rv)) for bv, rv in zip(basis[k], row)
                ]
        basis.append(row)
        pivots.append(pcol)
        if len(basis) == rank:
            break
    if rank is not None and len(basis) < rank:
        raise AssertionError("rows span %d dimensions, expected %d" % (len(basis), rank))
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [tuple(basis[i]) for i in order]
