"""The group algebra F_qG: convolution arithmetic and the primitive
idempotents obtained from q-power orbits of characters.  The averaging
idempotents, the co-cyclic idempotent family and the automorphism action
are in ``reference``.

Coefficients always live in the base field; splitting-field arithmetic is
confined to primitive_idempotents and reduced back before anything is
returned.
"""

from math import gcd, prod

from .abelian_group import (
    GroupElement,
    Subgroup,
    _basis_exps,
    _induced_perm,
    _linear_values,
    _translation,
)
from .errors import CharDividesOrder, GroupMismatch, GroupTooLarge
from .finite_field import _root_powers, divisors, mul_order, splitting_field

# The benchmark's tracer (perfbench/tracer.py) wraps these functions of
# ``reference`` under this module's name; delete them and ``__getattr__``
# once spans are recorded inside the program (ROADMAP item 1).
_TRACED_REFERENCE = frozenset({
    "cocyclic_idempotent", "cocyclic_idempotent_family", "hat", "phi_subgroup",
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

    def zero(self):
        return AlgebraElement(self, (self.ctx.zero,) * self.group.order)

    def one(self):
        coeffs = [self.ctx.zero] * self.group.order
        coeffs[0] = self.ctx.one  # the identity has index 0
        return AlgebraElement(self, coeffs)

    def from_dict(self, assignment):
        """Build an element from {exps tuple or GroupElement: raw value}."""
        coeffs = [self.ctx.zero] * self.group.order
        for key, val in assignment.items():
            exps = key.exps if isinstance(key, GroupElement) else tuple(key)
            try:
                coeffs[self.group.index_of(exps)] = val
            except KeyError:
                raise GroupMismatch("not an element of the group", element=exps) from None
        return AlgebraElement(self, coeffs)

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


class AlgebraElement:
    """Dense coefficient vector over the canonical element enumeration."""

    __slots__ = ("algebra", "coeffs", "_support")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = tuple(coeffs)
        self._support = None

    @property
    def support(self):
        """Indices of nonzero coefficients."""
        if self._support is None:
            zero = self.algebra.ctx.zero
            self._support = tuple(i for i, c in enumerate(self.coeffs) if c != zero)
        return self._support

    def is_zero(self):
        return not self.support

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise GroupMismatch("elements of different group algebras")
        return other

    def __add__(self, other):
        other = self._check(other)
        add = self.algebra.ctx.add
        return AlgebraElement(
            self.algebra, [add(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        other = self._check(other)
        sub = self.algebra.ctx.sub
        return AlgebraElement(
            self.algebra, [sub(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        neg = self.algebra.ctx.neg
        return AlgebraElement(self.algebra, [neg(a) for a in self.coeffs])

    def __mul__(self, other):
        """Group convolution: (ab)_x = sum over y+z=x of a_y b_z."""
        other = self._check(other)
        alg = self.algebra
        ctx = alg.ctx
        group = alg.group
        res = [ctx.zero] * group.order
        elems = group.elements
        sc, oc = self.coeffs, other.coeffs
        for i in self.support:
            a = sc[i]
            row = _translation(group, elems[i])
            for j in other.support:
                k = row[j]
                res[k] = ctx.add(res[k], ctx.mul(a, oc[j]))
        return AlgebraElement(alg, res)

    def translated(self, g):
        """Left translation by a group element (a permutation of coefficients)."""
        exps = g.exps if isinstance(g, GroupElement) else tuple(g)
        alg = self.algebra
        group = alg.group
        res = [alg.ctx.zero] * group.order
        row = _translation(group, exps)
        for j in self.support:
            res[row[j]] = self.coeffs[j]
        return AlgebraElement(alg, res)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.algebra.group.divisors, self.algebra.ctx, self.coeffs))

    def __repr__(self):
        return "AlgebraElement(support=%d/%d)" % (len(self.support), len(self.coeffs))


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

    @property
    def element(self):
        """The dense AlgebraElement, built anew on each read."""
        row = self.row
        ts = _character_values(self.algebra.group, self.orbit_rep)[1]
        return AlgebraElement(self.algebra, [row[t] for t in ts])

    def __repr__(self):
        return "PrimitiveIdempotent(orbit_rep=%r)" % (self.orbit_rep,)


def _check_char(group, ctx):
    if gcd(ctx.order, group.order) != 1:
        raise CharDividesOrder(
            "field characteristic divides the group order",
            characteristic=ctx.p, group_order=group.order,
        )


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


# primitive_idempotents refuses more than this many codes times |G|: each
# code costs O(|G|), and over GF(2) 3^7 (2.4e6) takes 1.6 s, 3^8 (2.2e7) 18 s
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
    orbit shares (q is a unit mod exp G, so <q*k> = <k>).  More than
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
    for rep in _orbit_reps(group, q):
        o, ts = _character_values(group, rep)
        if o not in tables:
            tables[o] = table(o)
        owner = Subgroup._from_indices(group, [i for i, t in enumerate(ts) if not t])
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
