"""The reference layer: the constructions of the paper computed as
stated, which the engine's fast routes are checked against.

The engine (``classify``, ``idempotents``, ``sweep``) decides
G-equivalence by the paper's criterion, the type of G/<k>, and never
builds a subgroup lattice, an automorphism or a co-cyclic idempotent.
This module holds those constructions: group elements as objects
(``GroupElement``), the Sylow decomposition, subgroups checked from
their elements, types and quotient types, the subgroup lattice by
Hermite normal forms, the index-p overgroups of a subgroup, the cyclic
and co-cyclic subgroups read off the engine's walk over cyclic
subgroups, the linear maps evaluated on all |G| indices, characters and
annihilator duality, the automorphism group with its orbits on
subgroups, the dense ``AlgebraElement`` with the convolution of F_qG,
the co-cyclic idempotent family (one product of hat differences per
subgroup, over the primes of its index) with ``phi_subgroup`` and the
automorphism action on F_qG, the search form of G-equivalence, and the
closed-form reference tables behind ``verify``.
Nothing in the engine imports it; the CLI loads it for ``subgroups`` and
``verify`` only, and the tests and demos use it as the definition side
of each check.
"""

import itertools
from functools import partial
from math import gcd

from .abelian_group import AbelianGroup, _check_char, _invariant_factors, group_make, owner_type
from .basis import _basis
from .codes import min_weight_or_bound, minimal_code
from .errors import (
    AlgebraMismatch,
    CharDividesOrder,
    DomainError,
    GroupMismatch,
    GroupTooLarge,
    HypothesisFails,
    NoRootsOfUnity,
    NotASubgroup,
    NotCocyclic,
    NotIdempotent,
    NoUniqueSubgroup,
)
from .finite_field import divisors, euler_phi, factorize, mul_order, sylow_exponents
from .group_algebra import (
    PrimitiveIdempotent, Subgroup, _character_values, _cyclic_subgroups, _join,
    _linear_values, _owner, _root_powers, _strides, get_algebra, primitive_idempotents,
)

# |Aut(G)| above this is refused before the closure starts: it builds one
# |G|-entry permutation per automorphism, about 3 s at 20,000 for |G| <= 64
_AUT_ORDER_BOUND = 20000
# |G| above these is refused by all_subgroups and by automorphisms
_SUBGROUPS_ORDER_BOUND = 4096
# all_subgroups refuses more than this many subgroups times |G|: each subgroup
# costs about O(|G|), its t joins and its quotient type's peel; the costliest
# admitted subgroups runs, 2,2,2,2,2,4 (675,328) and 2,2,4,4,4 (1,036,032),
# take 1.0-1.6 s and 0.8-1.3 s as fresh processes on a 2-vCPU VM
_SUBGROUPS_WORK_BOUND = 2 ** 20
_AUT_GROUP_ORDER_BOUND = 512


class GroupElement:
    """An element of a fixed AbelianGroup, as its exponent tuple reduced
    mod the divisors: ``GroupElement(G, G.zero)`` is the identity.  The
    engine builds none; ``Subgroup.generated`` takes one as its ``exps``."""

    __slots__ = ("group", "exps")

    def __init__(self, group, exps):
        exps = tuple(exps)
        if len(exps) != group.rank:
            raise GroupMismatch("not an element of the group", element=exps)
        self.group = group
        self.exps = tuple(x % d for x, d in zip(exps, group.divisors))

    def order(self):
        return self.group.element_order(self.exps)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.group.divisors, self.exps))

    def __repr__(self):
        return "GroupElement%r" % (self.exps,)


# ---------------------------------------------------------------------------
# Sylow decomposition
# ---------------------------------------------------------------------------

class SylowDecomposition:
    """G as the direct product of its Sylow components: per prime p, the
    abstract component has divisors equal to the p-parts of G's invariant
    factors."""

    __slots__ = ("group", "primes", "components")

    def __init__(self, group):
        self.group = group
        self.primes = sorted(factorize(group.order)) if group.order > 1 else []
        self.components = {}
        for p in self.primes:
            parts = [p ** e for e in sylow_exponents(group.divisors, p) if e]
            self.components[p] = AbelianGroup(tuple(parts))


def sylow_decompose(group):
    return SylowDecomposition(group)


# ---------------------------------------------------------------------------
# subgroups from elements, their parts and types
# ---------------------------------------------------------------------------

def _translation(group, g):
    """Index of g + x for every element x, in index order."""
    vals = [0]
    for x, d, s in zip(g, group.divisors, _strides(group)):
        col = [(x + k) % d * s for k in range(d)]
        vals = [v + c for v in vals for c in col]
    return vals


def checked_subgroup(group, elements):
    """The subgroup of group whose members are the given exponent tuples;
    NotASubgroup unless they hold the identity and are closed under
    inverses and addition."""
    try:
        members = frozenset(group.index_of(tuple(e)) for e in elements)
    except KeyError as exc:
        raise NotASubgroup("not an element of the group", element=exc.args[0]) from None
    indices = sorted(members)
    elems = group.elements
    if 0 not in members:
        raise NotASubgroup("missing identity")
    for i in indices:
        if group.index_of(group.neg(elems[i])) not in members:
            raise NotASubgroup("not closed under inverses", element=elems[i])
    for i in indices:
        t = _translation(group, elems[i])
        for j in indices:
            if t[j] not in members:
                raise NotASubgroup(
                    "not closed under addition", pair=(elems[i], elems[j]))
    return Subgroup._from_indices(group, indices)


def subgroup_type(H):
    """Invariant factors of the subgroup H itself (its isomorphism type):
    H is isomorphic to its character group, which is G / annihilator(G, H)."""
    return quotient_type(H.group, annihilator(H.group, H))


def quotient_type(group, H):
    """Invariant factors of G/H (empty tuple when H = G): G/H is Z^t modulo
    the rows of diag(d_1..d_t) and the generators of H, and steps of Euclid
    on rows and columns bring these to a diagonal of cyclic orders (Smith
    normal form; Cohen, A Course in Computational Algebraic Number Theory,
    2.4.4)."""
    if not isinstance(H, Subgroup) or H.group != group:
        raise NotASubgroup("H is not a subgroup of G")
    t = group.rank
    m = [[d * (i == j) for j in range(t)] for i, d in enumerate(group.divisors)]
    m += [list(h) for h in H.generators]
    for k in range(t):
        while any(r[k] for r in m[k + 1:]) or any(m[k][k + 1:]):
            for _ in "rows", "columns":  # the columns as rows of the transpose
                m[k:] = sorted(m[k:], key=lambda r: not r[k])  # a nonzero pivot
                for i in range(k + 1, len(m)):
                    while m[i][k]:  # a nonzero remainder becomes the (smaller) pivot
                        q = m[i][k] // m[k][k]
                        m[i] = [a - q * b for a, b in zip(m[i], m[k])]
                        if m[i][k]:
                            m[k], m[i] = m[i], m[k]
                m = [list(c) for c in zip(*m)]
    return _invariant_factors(abs(m[k][k]) for k in range(t))


# ---------------------------------------------------------------------------
# subgroup lattice
# ---------------------------------------------------------------------------

def _hermite_bases(group):
    """The Hermite normal form of every lattice L with diag(d)Z^t <= L <= Z^t,
    each once (Hart and Forcade, Phys. Rev. B 77, 224115, 2008; Cohen, 2.4):
    upper-triangular rows, row i = h_i e_i + sum_{j > i} a_ij e_j with
    h_i | d_i and 0 <= a_ij < h_j, built from the last row up.  L holds
    d_i e_i exactly when (d_i/h_i) times the tail (a_ij) lies in the span of
    the rows below, which reduction by them in order decides: each entry
    must be a multiple of that row's pivot."""
    bases = [()]
    for i in reversed(range(group.rank)):
        d, grown = group.divisors[i], []
        for below in bases:
            for h in divisors(d):
                for tail in itertools.product(*[range(r[j]) for j, r in enumerate(below, i + 1)]):
                    v = [0] * (i + 1) + [d // h * a for a in tail]
                    for j, r in enumerate(below, i + 1):
                        c, rem = divmod(v[j], r[j])
                        if rem:
                            break
                        v = [a - c * b for a, b in zip(v, r)]
                    else:
                        grown.append(((0,) * i + (h,) + tail,) + below)
        bases = grown
    return bases


def _gaussian_binomial(n, k, p):
    out = 1
    for i in range(k):
        out = out * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
    return out


def subgroup_count(group):
    """The number of subgroups of G from its invariant factors (Delsarte
    1948; Macdonald, Symmetric Functions and Hall Polynomials, ch. II): per
    prime p with the p-parts of type lam, the sum over mu within lam of the
    product over i of p^(mu'_(i+1) (lam'_i - mu'_i)) times the Gaussian
    binomial [lam'_i - mu'_(i+1), mu'_i - mu'_(i+1)]_p, ' the conjugate
    partition; the product of these over the primes."""
    out = 1
    for p in factorize(group.order):
        es = sylow_exponents(group.divisors, p)
        lam = [sum(e > i for e in es) for i in range(max(es))]  # lam'
        total = 0
        for mu in itertools.product(*[range(n + 1) for n in lam]):  # mu' <= lam'
            if any(a < b for a, b in zip(mu, mu[1:])):
                continue  # not a partition
            term = 1
            for n, m, nxt in zip(lam, mu, mu[1:] + (0,)):
                term *= p ** (nxt * (n - m)) * _gaussian_binomial(n - nxt, m - nxt, p)
            total += term
        out *= total
    return out


def all_subgroups(group):
    """Every subgroup once, in canonical order: H = L/diag(d)Z^t for exactly
    one lattice L between diag(d)Z^t and Z^t, built by t joins from the
    rows of L's Hermite basis (``_hermite_bases``; ``_join`` reduces them
    mod d).  More than _SUBGROUPS_ORDER_BOUND elements, or more than
    _SUBGROUPS_WORK_BOUND subgroups times |G|, raise GroupTooLarge before
    any subgroup is built."""
    if group.order > _SUBGROUPS_ORDER_BOUND:
        raise GroupTooLarge(
            "subgroup enumeration bounded", order=group.order, bound=_SUBGROUPS_ORDER_BOUND
        )
    count = subgroup_count(group)
    if count * group.order > _SUBGROUPS_WORK_BOUND:
        raise GroupTooLarge("subgroup enumeration bounded", subgroups=count,
                            order=group.order, bound=_SUBGROUPS_WORK_BOUND)
    return sorted(Subgroup.generated(group, basis) for basis in _hermite_bases(group))


def cyclic_subgroups(group):
    """Every cyclic subgroup once, in canonical order, each <g> with the
    least generator g that ``_cyclic_subgroups`` meets it at, which is what
    `generators` returns."""
    elems = group.elements
    return sorted(Subgroup._from_indices(group, sorted(cyc), tuple(elems[i] for i in cyc[1:2]))
                  for cyc, _ in _cyclic_subgroups(group))


def cocyclic_subgroups(group):
    """All H with G/H cyclic and nontrivial (G itself excluded).

    These are the owners annihilator(G, <g>) of the nontrivial cyclic
    subgroups <g> (``_owner``); the character duality makes this exactly
    the co-cyclic family, each member once.
    """
    elems = group.elements
    return sorted(_owner(group, elems[cyc[1]], len(cyc))
                  for cyc, _ in _cyclic_subgroups(group) if len(cyc) > 1)


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


def _index_p_cover_within(group, H, p):
    """Distinct overgroups L = <H, g> with [L:H] = p, over the g outside H
    with p*g in H (ascending indices).  The index of p*g for every g is one
    linear map.  For such g the least m with m*g in H is p, so ``_join``
    builds L from H and p - 1 cosets.  Every g in L outside H gives the
    same L, so the members of a cover found are not tried again."""
    times_p = _induced_map(
        group, [group.scale(p, _basis_exps(group, i)) for i in range(group.rank)])
    elems, members = group.elements, H.index_set
    covers = []
    tried = set(members)
    for i in range(group.order):
        if i in tried or times_p[i] not in members:
            continue
        L = _join(group, members, elems[i])
        tried.update(L)
        covers.append(Subgroup._from_indices(group, sorted(L)))
    return sorted(covers)


# ---------------------------------------------------------------------------
# characters and duality
# ---------------------------------------------------------------------------

def _pairing_weights(group):
    n = group.exponent
    return n, tuple(n // d for d in group.divisors)


class Character:
    """A homomorphism G -> F* realized by a fixed primitive exp(G)-th root
    of unity: chi(g) = root ** sum_i k_i * (n/d_i) * g_i."""

    __slots__ = ("group", "ctx", "exps", "_root_powers")

    def __init__(self, group, ctx, exps, root_powers):
        self.group = group
        self.ctx = ctx
        self.exps = tuple(exps)
        self._root_powers = root_powers

    def raw_value(self, exps):
        n, weights = _pairing_weights(self.group)
        if n == 1:
            return self.ctx.one
        e = sum(k * w * g for k, w, g in zip(self.exps, weights, exps)) % n
        return self._root_powers[e]

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group == other.group
            and self.ctx == other.ctx
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.group.divisors, self.ctx, self.exps))

    def __repr__(self):
        return "Character%r" % (self.exps,)


def characters(group, ctx):
    """The |G| characters of G over a field containing the needed roots of
    unity, indexed by exponent tuples (an isomorphism G -> G*)."""
    n = group.exponent
    if n > 1 and (ctx.order - 1) % n != 0:
        raise NoRootsOfUnity(
            "field has no primitive root of unity of order exp(G); extend the "
            "field to degree mul_order(q, exp(G))",
            exponent=n, field_order=ctx.order,
            needed_degree=mul_order(ctx.order, n),
        )
    powers = tuple(_root_powers(ctx, n))
    return [Character(group, ctx, exps, powers) for exps in group.elements]


def annihilator(group, H):
    """The subgroup of exponent tuples k with chi_k trivial on H, i.e. the
    image of H-perp under the fixed isomorphism G* ~ G."""
    if not isinstance(H, Subgroup) or H.group != group:
        raise NotASubgroup("H is not a subgroup of G")
    n, weights = _pairing_weights(group)
    if n == 1:
        return Subgroup.trivial(group)
    ann = range(group.order)
    for h in H.generators:
        vals = _linear_values(group, [w * x for w, x in zip(weights, h)], n)
        ann = [i for i in ann if not vals[i]]
    return Subgroup._from_indices(group, ann)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

class Automorphism:
    """An automorphism given by images of the canonical generators; stores
    the induced permutation of element indices."""

    __slots__ = ("group", "images", "perm")

    def __init__(self, group, images):
        images = tuple(tuple(x) for x in images)
        if len(images) != group.rank:
            raise ValueError("one image per canonical generator required")
        if any(len(img) != group.rank for img in images):
            raise ValueError("each image must be an element of the group")
        for img, d in zip(images, group.divisors):
            if group.element_order(img) and d % group.element_order(img):
                raise ValueError("generator order not preserved")
        perm = _induced_perm(group, images)
        if perm is None:
            raise ValueError("images do not induce a bijection")
        self.group = group
        self.images = images
        self.perm = perm

    @classmethod
    def _trusted(cls, group, images, perm):
        obj = object.__new__(cls)
        obj.group = group
        obj.images = images
        obj.perm = perm
        return obj

    @classmethod
    def identity(cls, group):
        images = tuple(
            tuple(1 if j == i else 0 for j in range(group.rank))
            for i in range(group.rank)
        )
        return cls._trusted(group, images, tuple(range(group.order)))

    def apply_subgroup(self, H):
        perm = self.perm
        return Subgroup._from_indices(self.group, sorted([perm[i] for i in H.indices]))

    def compose(self, other):
        """self after other."""
        if other.group != self.group:
            raise ValueError("automorphisms of different groups")
        sp = self.perm
        perm = tuple([sp[i] for i in other.perm])
        elems = self.group.elements
        # the canonical generator e_i has index strides[i]
        images = tuple(elems[perm[s]] for s in _strides(self.group))
        return Automorphism._trusted(self.group, images, perm)

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.group == other.group
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.group.divisors, self.perm))

    def __repr__(self):
        return "Automorphism%r" % (self.images,)


def _smallest_primitive_root(pe):
    target = euler_phi(pe)
    for r in range(2, pe):
        if gcd(r, pe) == 1 and mul_order(r, pe) == target:
            return r
    raise AssertionError("no primitive root found")  # unreachable for odd p^e


def _unit_group_generators(n):
    """Generators of U(Z_n), CRT-lifted from the prime-power components."""
    if n <= 2:
        return []
    gens = []
    fact = factorize(n)
    for p, e in sorted(fact.items()):
        pe = p ** e
        rest = n // pe
        local = []
        if p == 2:
            if e == 2:
                local = [3]
            elif e >= 3:
                local = [pe - 1, 5]
        else:
            local = [_smallest_primitive_root(pe)]
        for g in local:
            if rest == 1:
                gens.append(g % n)
            else:
                # x = g mod pe, x = 1 mod rest
                inv = pow(pe % rest, -1, rest) if rest > 1 else 0
                x = (g + pe * ((1 - g) * inv % rest)) % n
                gens.append(x)
    return gens


def aut_generators(group):
    """A generating set for Aut(G): diagonal unit maps on each canonical
    generator plus elementary transvections e_i -> e_i + c*e_j with the
    least valid multiplier c.  Closure of this set is cross-checked against
    exhaustive enumeration in the test suite."""
    rank = group.rank
    divisors = group.divisors
    gens = []
    seen = set()

    def push(images):
        psi = Automorphism(group, images)
        if psi.perm not in seen:
            seen.add(psi.perm)
            gens.append(psi)

    base = [_basis_exps(group, i) for i in range(rank)]
    for i, d in enumerate(divisors):
        for u in _unit_group_generators(d):
            images = list(base)
            images[i] = group.scale(u, base[i])
            push(tuple(images))
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            c = divisors[j] // gcd(divisors[i], divisors[j])
            images = list(base)
            images[i] = group.add(base[i], group.scale(c, base[j]))
            push(tuple(images))
    return gens


def aut_order(group):
    """|Aut(G)| from the invariant factors (Hillar and Rhea, 2007): per
    prime p with exponents e_1 <= ... <= e_n of the p-parts, with d_k / c_k
    the last / first position holding e_k, the product over k of
    (p^d_k - p^(k-1)) * p^(e_k (n - d_k)) * p^((e_k - 1)(n - c_k + 1))."""
    out = 1
    for p in factorize(group.order):
        es = [e for e in sylow_exponents(group.divisors, p) if e]
        n = len(es)
        for k, ek in enumerate(es, 1):
            d = max(i for i, e in enumerate(es, 1) if e == ek)
            c = min(i for i, e in enumerate(es, 1) if e == ek)
            out *= (p ** d - p ** (k - 1)) * p ** (ek * (n - d)) \
                * p ** ((ek - 1) * (n - c + 1))
    return out


def automorphisms(group):
    """Complete Aut(G), as the multiplicative closure of aut_generators.

    Deduplicated by induced permutation and sorted canonically.
    """
    if group.order > _AUT_GROUP_ORDER_BOUND:
        raise GroupTooLarge(
            "automorphism enumeration bounded", order=group.order, bound=_AUT_GROUP_ORDER_BOUND
        )
    count = aut_order(group)
    if count > _AUT_ORDER_BOUND:
        raise GroupTooLarge(
            "automorphism enumeration bounded", aut_order=count, bound=_AUT_ORDER_BOUND
        )
    gens = aut_generators(group)
    ident = Automorphism.identity(group)
    found = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for psi in frontier:
            for g in gens:
                comp = g.compose(psi)
                if comp.perm not in found:
                    found[comp.perm] = comp
                    nxt.append(comp)
        frontier = nxt
    return sorted(found.values(), key=lambda a: a.perm)


def subgroup_orbits(group, subgroups):
    """Partition a subgroup list by the Aut(G) action; each orbit is sorted
    and led by its lexicographically minimal member."""
    perms = [psi.perm for psi in aut_generators(group)]
    input_keys = {H.index_set: H for H in subgroups}
    remaining = set(input_keys)
    orbits = []
    for key in input_keys:
        if key not in remaining:
            continue
        closure = {key}
        frontier = [key]
        while frontier:
            nxt = []
            for K in frontier:
                for perm in perms:
                    L = frozenset([perm[i] for i in K])
                    if L not in closure:
                        closure.add(L)
                        nxt.append(L)
            frontier = nxt
        found = closure & remaining
        remaining -= found
        orbits.append(sorted(input_keys[k] for k in found))
    orbits.sort(key=lambda orbit: orbit[0].indices)
    return orbits


# ---------------------------------------------------------------------------
# the dense group algebra
# ---------------------------------------------------------------------------

class AlgebraElement:
    """An element of F_qG as a dense coefficient vector over the canonical
    element enumeration, with the convolution arithmetic of F_qG."""

    __slots__ = ("algebra", "coeffs", "_support")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = tuple(coeffs)
        self._support = None

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, (algebra.ctx.zero,) * algebra.group.order)

    @classmethod
    def one(cls, algebra):
        coeffs = [algebra.ctx.zero] * algebra.group.order
        coeffs[0] = algebra.ctx.one  # the identity has index 0
        return cls(algebra, coeffs)

    @classmethod
    def from_dict(cls, algebra, assignment):
        """The element with the given raw value at each key, an exponent
        tuple or a GroupElement, and zero elsewhere."""
        group = algebra.group
        coeffs = [algebra.ctx.zero] * group.order
        for key, val in assignment.items():
            exps = key.exps if isinstance(key, GroupElement) else tuple(key)
            try:
                coeffs[group.index_of(exps)] = val
            except KeyError:
                raise GroupMismatch("not an element of the group", element=exps) from None
        return cls(algebra, coeffs)

    @classmethod
    def from_idempotent(cls, ide):
        """The dense form of a PrimitiveIdempotent: row[t(g)] at each g."""
        row = ide.row
        ts = _character_values(ide.algebra.group, ide.orbit_rep)[1]
        return cls(ide.algebra, [row[t] for t in ts])

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
        if len(exps) != group.rank:
            raise GroupMismatch("not an element of the group", element=exps)
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


# ---------------------------------------------------------------------------
# idempotents from subgroups: the co-cyclic family
# ---------------------------------------------------------------------------

def hat(H, ctx):
    """The averaging idempotent |H|^-1 * (sum of H), supported exactly on H."""
    group = H.group
    if H.order % ctx.p == 0:
        raise CharDividesOrder(
            "field characteristic divides the subgroup order",
            characteristic=ctx.p, subgroup_order=H.order,
        )
    alg = get_algebra(group, ctx)
    inv = ctx.inv(ctx.from_int(H.order))
    coeffs = [ctx.zero] * group.order
    for i in H.indices:
        coeffs[i] = inv
    return AlgebraElement(alg, coeffs)


def cocyclic_idempotent(group, H, ctx):
    """The idempotent e_H attached to a member of the extended co-cyclic
    family: hat(G) for H = G, else the product over the primes p dividing
    [G:H] of hat(H) - hat(H_p), H_p the one overgroup of H of index p.
    As hat(A) * hat(B) = hat(A + B), this is the sum over the sets S of
    those primes of (-1)^|S| hat(H + sum of the H_p, p in S)."""
    _check_char(group, ctx)
    if not isinstance(H, Subgroup) or H.group != group:
        raise NotCocyclic("H is not a subgroup of G")
    if len(quotient_type(group, H)) > 1:
        raise NotCocyclic(
            "quotient G/H is not cyclic", subgroup=[list(g) for g in H.generators]
        )
    e = hat(H, ctx)
    index = group.order // H.order
    product = None
    for p in group.primes:
        if index % p == 0:
            covers = _index_p_cover_within(group, H, p)
            if len(covers) != 1:
                raise NotCocyclic("index-p overgroup of H not unique")
            factor = e - hat(covers[0], ctx)
            product = factor if product is None else product * factor
    return e if product is None else product


def cocyclic_idempotent_family(group, ctx):
    """All pairs (H, e_H) over the co-cyclic subgroups together with G
    itself; pairwise orthogonal and summing to 1."""
    _check_char(group, ctx)
    members = sorted(cocyclic_subgroups(group) + [Subgroup.whole(group)])
    return [(H, cocyclic_idempotent(group, H, ctx)) for H in members]


def phi_subgroup(e, family):
    """The unique family member whose idempotent acts as identity on e.

    Decided by direct multiplication against every family idempotent, so
    each call re-checks idempotency and uniqueness.  primitive_idempotents
    reads the owner off the character kernel instead; this slow route is
    kept as the independent check of that shortcut (the test oracle) and
    for callers who want to verify an owner directly.
    """
    if isinstance(e, PrimitiveIdempotent):
        e = AlgebraElement.from_idempotent(e)
    if e.is_zero() or e * e != e:
        raise NotIdempotent("phi_subgroup expects a nonzero idempotent")
    hits = []
    for H, eH in family:
        prod = e * eH
        if not prod.is_zero():
            hits.append((H, prod))
    if len(hits) != 1 or hits[0][1] != e:
        raise NoUniqueSubgroup(
            "idempotent meets %d family members; not primitive" % len(hits),
            hit_count=len(hits),
        )
    return hits[0][0]


# ---------------------------------------------------------------------------
# automorphism action and invariant elements
# ---------------------------------------------------------------------------

def apply_automorphism(psi, alpha):
    """Linear extension of a group automorphism: the coefficient of psi(g)
    in the result is the coefficient of g in alpha."""
    group = alpha.algebra.group
    if psi.group != group:
        raise GroupMismatch("automorphism of a different group")
    res = [alpha.algebra.ctx.zero] * group.order
    for i in alpha.support:
        res[psi.perm[i]] = alpha.coeffs[i]
    return AlgebraElement(alpha.algebra, res)


def idempotent_group(e):
    """Invariant factors of the group {g*e : g in G} under convolution,
    computed from the translation stabilizer of e."""
    if isinstance(e, PrimitiveIdempotent):
        e = AlgebraElement.from_idempotent(e)
    group = e.algebra.group
    stab = [i for i, g in enumerate(group.elements) if e.translated(g) == e]
    return quotient_type(group, Subgroup._from_indices(group, stab))


# ---------------------------------------------------------------------------
# G-equivalence by search
# ---------------------------------------------------------------------------

def equivalent(code1, code2, auts):
    """True iff some automorphism in auts carries one owning subgroup to
    the other: G-equivalence when auts = Aut(G).  By the paper's criterion
    that holds iff the owners are isomorphic (``owner_type``, which
    classify uses); this search is the independent check."""
    if code1.algebra != code2.algebra:
        raise AlgebraMismatch("codes from different algebras")
    auts = list(auts)
    if any(psi.group != code1.algebra.group for psi in auts):
        raise GroupMismatch("automorphism of a different group")
    H1 = code1.generator.phi_subgroup
    H2 = code2.generator.phi_subgroup
    if H1 is None or H2 is None:
        raise AlgebraMismatch("codes lack owning subgroups")
    if H1.order != H2.order:
        return False  # bijections preserve subgroup order
    return any(frozenset([psi.perm[i] for i in H1.indices]) == H2.index_set for psi in auts)


# ---------------------------------------------------------------------------
# reference tables for the two closed-form families
# ---------------------------------------------------------------------------

def _table_rows_rank2(group, ctx, p, n):
    """Expected minimal codes of F_2[C_{p^n} x C_p]: per level k = 1..n a
    product-type subgroup <a^{p^k}> x <b> and cyclic-type subgroups
    <a^{p^(k-1)} b^j>, all of dimension p^(k-1)(p-1) and minimum weight
    2 p^(n-k+1), plus the repetition code; 2n classes in total."""
    rows = []
    a = (0, 1)
    b = (1, 0)

    def prod_subgroup(k):
        return Subgroup.generated(group, [(0, pow(p, k) % (p ** n)), b])

    def cyc_subgroup(k, j):
        return Subgroup.generated(group, [(j, pow(p, k - 1))])

    whole = Subgroup.whole(group)
    rows.append({
        "label": "repetition",
        "subgroup": whole,
        "dimension": 1,
        "weight": p ** (n + 1),
    })
    for k in range(1, n + 1):
        dim = p ** (k - 1) * (p - 1)
        wt = 2 * p ** (n - k + 1)
        rows.append({
            "label": "level %d product" % k,
            "subgroup": prod_subgroup(k),
            "dimension": dim,
            "weight": wt,
        })
        j_range = range(0, p) if k == 1 else range(1, p)
        for j in j_range:
            rows.append({
                "label": "level %d cyclic j=%d" % (k, j),
                "subgroup": cyc_subgroup(k, j),
                "dimension": dim,
                "weight": wt,
            })
    expected_orbits = [{whole}]
    for k in range(1, n):
        expected_orbits.append({prod_subgroup(k)})
        j_range = range(0, p) if k == 1 else range(1, p)
        expected_orbits.append({cyc_subgroup(k, j) for j in j_range})
    last = {prod_subgroup(n)}
    last.update(cyc_subgroup(n, j) for j in range(1, p))
    expected_orbits.append(last)
    return rows, expected_orbits, 2 * n


def _table_rows_homocyclic(group, ctx, p, r, m):
    """Expected class representatives of F_q[C_{p^r}^m]: the repetition
    code and, for i = 1..r, hat(K) * (hat(h^{p^i}) - hat(h^{p^(i-1)})) with
    K the span of the first m-1 coordinates and h the last coordinate;
    dimension p^(i-1)(p-1) and minimum weight 2 p^(r(m-1)+(r-i));
    r+1 = tau(p^r) classes, and no expected orbit partition (None)."""
    rows = []
    whole = Subgroup.whole(group)
    rows.append({
        "label": "repetition",
        "subgroup": whole,
        "dimension": 1,
        "weight": p ** (r * m),
    })
    h = tuple(0 if i < m - 1 else 1 for i in range(m))
    k_gens = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m - 1)]
    K = Subgroup.generated(group, k_gens) if k_gens else Subgroup.trivial(group)
    for i in range(1, r + 1):
        hi = Subgroup.generated(group, [group.scale(p ** i, h)])
        hi_prev = Subgroup.generated(group, [group.scale(p ** (i - 1), h)])
        idem = hat(K, ctx) * (hat(hi, ctx) - hat(hi_prev, ctx))
        rows.append({
            "label": "level %d" % i,
            "idempotent": idem,
            "dimension": p ** (i - 1) * (p - 1),
            "weight": 2 * p ** (r * (m - 1) + (r - i)),
        })
    return rows, None, r + 1


def verify_tables(group, ctx):
    """Check the computed minimal codes against the closed-form reference
    tables for C_{p^n} x C_p over GF(2) and for homocyclic C_{p^r}^m.

    Each expected idempotent is rebuilt from its subgroup formula and must
    appear among the primitive idempotents; dimensions, minimum weights,
    and the class structure must match the symbolic values instantiated at
    the given parameters.  The field hypothesis (the multiplicative order
    of q modulo exp(G) equals phi(exp(G))) is checked first, not assumed.
    """
    divisors = group.divisors
    distinct = set(divisors)
    result = {
        "group": group.spec_string(),
        "field": ctx.spec_string(),
        "rows": [],
    }

    def push(label, check, expected, actual):
        result["rows"].append({
            "label": label,
            "check": check,
            "expected": expected,
            "actual": actual,
            "pass": expected == actual,
        })

    def primitive_root(q_name, m_name, modulus, **context):
        needed, actual = euler_phi(modulus), mul_order(ctx.order, modulus)
        result["hypothesis"] = {
            "statement": "mul_order(%s, %s) == phi(%s)" % (q_name, m_name, m_name),
            "mul_order": actual,
            "phi": needed,
        }
        if actual != needed:
            raise HypothesisFails(
                "%s is not a primitive root modulo %s" % (q_name, m_name),
                **context, modulus=modulus, order=actual, phi=needed,
            )

    if len(distinct) == 1 and len(factorize(divisors[0])) == 1:
        # homocyclic C_{p^r}^m with p^r a prime power
        (p, r), = factorize(divisors[0]).items()
        m = len(divisors)
        result["table"] = "homocyclic C_{p^r}^m (p=%d, r=%d, m=%d)" % (p, r, m)
        primitive_root("q", "p^r", p ** r, q=ctx.order)
        table_rows = partial(_table_rows_homocyclic, group, ctx, p, r, m)
    elif (
        len(divisors) == 2
        and len(factorize(divisors[1])) == 1
        and divisors[0] == list(factorize(divisors[1]))[0]
        and divisors[1] >= divisors[0] ** 2
    ):
        p = divisors[0]
        n = factorize(divisors[1])[p]
        result["table"] = "C_{p^n} x C_p over GF(2) (p=%d, n=%d)" % (p, n)
        if ctx.order != 2:
            raise HypothesisFails(
                "this reference table is asserted over GF(2) only", q=ctx.order
            )
        primitive_root("2", "p^n", p ** n)
        table_rows = partial(_table_rows_rank2, group, ctx, p, n)
    else:
        raise DomainError(
            "no built-in reference table covers this group",
            group=group.spec_string(),
        )

    # a refusal such as DegreeTooLarge comes before the |G|-length table rows
    prims = primitive_idempotents(group, ctx)
    rows, expected_orbits, expected_classes = table_rows()
    by_element = {AlgebraElement.from_idempotent(ide): ide for ide in prims}
    algebra = get_algebra(group, ctx)

    rank2 = result["table"].startswith("C_{p^n}")
    if rank2:
        # that table lists every code; the homocyclic one lists one
        # representative per class, so its row count is not the code count
        push("table", "code count", len(rows), len(prims))

    for row in rows:
        if "idempotent" in row:
            idem = row["idempotent"]
        else:
            idem = cocyclic_idempotent(group, row["subgroup"], ctx)
        ide = by_element.get(idem)
        push(row["label"], "idempotent is primitive", True, ide is not None)
        if ide is None:
            continue
        code = minimal_code(algebra, ide)
        # the rank of the computed row's shifts: code.dimension is ord_o(q)
        push(row["label"], "dimension", row["dimension"], len(_basis(ctx, code.row, None)))
        mw, exact = min_weight_or_bound(code)
        push(row["label"], "min weight (exact=%s)" % exact, row["weight"], mw)

    classes = {}
    for ide in prims:
        classes.setdefault(owner_type(group, ide.orbit_rep), set()).add(ide.phi_subgroup)
    push("classes", "class count", expected_classes, len(classes))
    if rank2:
        def describe(partition):
            out = []
            for orbit in partition:
                out.append([[list(g) for g in H.generators] for H in sorted(orbit)])
            return sorted(out)

        actual_partition = {frozenset(owners) for owners in classes.values()}
        expected_partition = {frozenset(o) for o in expected_orbits}
        push(
            "classes", "subgroup orbit partition",
            describe(expected_partition), describe(actual_partition),
        )
    result["all_pass"] = all(r["pass"] for r in result["rows"])
    return result


# ---------------------------------------------------------------------------
# homocyclic factorization witnesses
# ---------------------------------------------------------------------------

def homocyclic_factorization(group, ide, ctx):
    """For homocyclic G = C_n^m, express a primitive idempotent as
    hat(K) * e_h with K ~ C_n^(m-1), G = K x <h>, and e_h primitive in the
    cyclic subalgebra on <h>.  Returns (K, h, e_h embedded in F_qG)."""
    divisors = group.divisors
    if len(set(divisors)) > 1:
        raise DomainError("group is not homocyclic", group=group.spec_string())
    n = divisors[0] if divisors else 1
    m = len(divisors)
    e = AlgebraElement.from_idempotent(ide) if isinstance(ide, PrimitiveIdempotent) else ide
    algebra = get_algebra(group, ctx)
    cyclic = group_make([n] if n > 1 else [])
    cyclic_coeffs = [AlgebraElement.from_idempotent(f).coeffs
                     for f in primitive_idempotents(cyclic, ctx)]

    target_type = tuple([n] * (m - 1))
    candidates_K = [
        S for S in all_subgroups(group) if subgroup_type(S) == target_type
    ]
    order_n_elements = [g for g in group.elements if group.element_order(g) == n]
    for K in candidates_K:
        hatK = hat(K, ctx)
        for h in order_n_elements:
            if any(group.index_of(group.scale(k, h)) in K.index_set for k in range(1, n)):
                continue  # <h> meets K, not a complement
            for f in cyclic_coeffs:
                embedded = [ctx.zero] * group.order
                for k in range(n):
                    embedded[group.index_of(group.scale(k, h))] = f[
                        cyclic.index_of((k,)) if n > 1 else 0
                    ]
                e_h = AlgebraElement(algebra, embedded)
                if hatK * e_h == e:
                    return K, GroupElement(group, h), e_h
    return None
