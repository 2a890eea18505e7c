"""The group algebra F_qG and its primitive idempotents, obtained from
q-power orbits of characters.  An idempotent is held as a row indexed by
character values, never as a dense vector: the dense ``AlgebraElement``
with its convolution arithmetic, the averaging idempotents, the co-cyclic
idempotent family and the automorphism action are in ``reference``.

Coefficients always live in the base field; splitting-field arithmetic is
confined to primitive_idempotents and reduced back before anything is
returned.
"""

from math import gcd, prod

from .abelian_group import Subgroup, _basis_exps, _check_char, _induced_perm, _linear_values
from .errors import GroupTooLarge
from .finite_field import _root_powers, divisors, mul_order, splitting_field

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
