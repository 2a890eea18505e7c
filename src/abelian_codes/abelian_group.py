"""Finite abelian groups in invariant-factor form.

Elements are exponent tuples; subgroups are canonical sorted element sets.
The module provides the subgroup lattice, co-cyclic subgroups, index-p
covers, character duality, and the automorphism group with its action on
subgroups.  Everything is deterministic: canonical order is lexicographic
on exponent tuples.

The element index of an exponent tuple is its mixed-radix position (last
coordinate fastest), so index order is the canonical order.  Cyclic
subgroups, annihilators, induced permutations and subgroup orbits are
computed on indices; a linear map is evaluated on all |G| indices by
accumulating one axis at a time.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from .errors import (
    BadDivisor,
    GroupTooLarge,
    HIsWholeGroup,
    NoRootsOfUnity,
    NotASubgroup,
    NotCocyclic,
)
from .finite_field import FieldScalar, element_of_order, euler_phi, factorize, mul_order

_ADD_TABLE_MAX_ORDER = 2048


class AbelianGroup:
    """Direct product of cyclic groups C_{d_1} x ... x C_{d_t} with
    d_1 | d_2 | ... | d_t.  Use group_make() to normalize arbitrary
    divisor lists into this form."""

    __slots__ = ("divisors", "order", "exponent", "rank", "zero",
                 "_elements", "_index", "_add_table")

    def __init__(self, divisors):
        divisors = tuple(divisors)
        for a, b in zip(divisors, divisors[1:]):
            if b % a:
                raise BadDivisor("divisors must form a divisibility chain", divisors=divisors)
        self.divisors = divisors
        self.order = prod(divisors) if divisors else 1
        self.exponent = divisors[-1] if divisors else 1
        self.rank = len(divisors)
        self.zero = (0,) * self.rank
        self._elements = None
        self._index = None
        self._add_table = None

    # -- element bookkeeping --------------------------------------------

    @property
    def elements(self):
        """All exponent tuples in canonical (lexicographic) order."""
        if self._elements is None:
            self._elements = tuple(itertools.product(*[range(d) for d in self.divisors]))
        return self._elements

    def index_of(self, exps):
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        return self._index[exps]

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.divisors))

    def neg(self, a):
        return tuple(-x % d for x, d in zip(a, self.divisors))

    def scale(self, k, a):
        return tuple(k * x % d for x, d in zip(a, self.divisors))

    def element_order(self, a):
        return lcm(*(d // gcd(x, d) for x, d in zip(a, self.divisors))) if self.rank else 1

    def add_table(self):
        """Index-level addition table; cached for small groups."""
        if self._add_table is None:
            if self.order > _ADD_TABLE_MAX_ORDER:
                return None
            elems = self.elements
            idx = {e: i for i, e in enumerate(elems)}
            self._add_table = tuple(
                tuple(idx[self.add(a, b)] for b in elems) for a in elems
            )
        return self._add_table

    def element(self, exps):
        return GroupElement(self, tuple(x % d for x, d in zip(exps, self.divisors)))

    @property
    def identity(self):
        return GroupElement(self, self.zero)

    def spec_string(self):
        return ",".join(str(d) for d in self.divisors) if self.divisors else "1"

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.divisors == other.divisors

    def __hash__(self):
        return hash(self.divisors)

    def __repr__(self):
        if not self.divisors:
            return "AbelianGroup(trivial)"
        return "AbelianGroup(%s)" % " x ".join("C%d" % d for d in self.divisors)


class GroupElement:
    """An element of a fixed AbelianGroup, as an exponent tuple."""

    __slots__ = ("group", "exps")

    def __init__(self, group, exps):
        self.group = group
        self.exps = tuple(exps)

    def _check(self, other):
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise ValueError("elements belong to different groups")
        return other

    def __add__(self, other):
        other = self._check(other)
        return GroupElement(self.group, self.group.add(self.exps, other.exps))

    def __neg__(self):
        return GroupElement(self.group, self.group.neg(self.exps))

    def __sub__(self, other):
        other = self._check(other)
        return self + (-other)

    def __rmul__(self, k):
        return GroupElement(self.group, self.group.scale(k, self.exps))

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


def group_make(divisors):
    """Normalize an arbitrary list of cyclic orders (each >= 2) into
    invariant-factor form; the empty list gives the trivial group."""
    per_prime = {}
    for d in divisors:
        if not isinstance(d, int) or d < 2:
            raise BadDivisor("divisors must be integers >= 2", divisor=d)
        for p, e in factorize(d).items():
            per_prime.setdefault(p, []).append(e)
    for exps in per_prime.values():
        exps.sort(reverse=True)
    t = max((len(v) for v in per_prime.values()), default=0)
    invariant = []
    for k in range(t):
        d = 1
        for p, exps in sorted(per_prime.items()):
            if k < len(exps):
                d *= p ** exps[k]
        invariant.append(d)
    invariant.reverse()
    return AbelianGroup(tuple(invariant))


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def _strides(group):
    """Index weight of each coordinate: index = sum of exps[i] * strides[i]."""
    out = []
    s = 1
    for d in reversed(group.divisors):
        out.append(s)
        s *= d
    out.reverse()
    return out


def _cycle(group, g):
    """Indices of 0, g, 2g, ..., (o-1)g for the element g of order o."""
    o = group.element_order(g)
    cols = [
        [k * x % d * s for k in range(o)]
        for x, d, s in zip(g, group.divisors, _strides(group)) if x
    ]
    return [sum(t) for t in zip(*cols)] if cols else [0]


def _cyclic_part(group, g):
    elems = group.elements
    return [elems[i] for i in _cycle(group, g)]


def _closure(group, gens):
    current = {group.zero}
    for g in gens:
        cyc = _cyclic_part(group, g)
        current = {group.add(a, c) for a in current for c in cyc}
    return current


class Subgroup:
    """A subgroup of a fixed group; equality and ordering use the sorted
    element tuple (the canonical form)."""

    __slots__ = ("group", "elements", "_set", "_generators", "_mask")

    def __init__(self, group, elements, _trusted=False):
        elems = sorted(set(elements))
        if not _trusted:
            es = set(elems)
            if group.zero not in es:
                raise NotASubgroup("missing identity")
            for a in elems:
                if group.neg(a) not in es:
                    raise NotASubgroup("not closed under inverses", element=a)
            for a in elems:
                for b in elems:
                    if group.add(a, b) not in es:
                        raise NotASubgroup("not closed under addition", pair=(a, b))
        self.group = group
        self.elements = tuple(elems)
        self._set = frozenset(elems)
        self._generators = None
        self._mask = None

    @classmethod
    def generated(cls, group, gens):
        exps = [g.exps if isinstance(g, GroupElement) else tuple(g) for g in gens]
        return cls(group, _closure(group, exps), _trusted=True)

    @classmethod
    def _from_indices(cls, group, indices, generators=None):
        """Trusted subgroup from its element indices in ascending order."""
        obj = object.__new__(cls)
        elems = group.elements
        obj.group = group
        obj.elements = tuple([elems[i] for i in indices])
        obj._set = frozenset(obj.elements)
        obj._generators = generators
        obj._mask = None
        return obj

    @classmethod
    def trivial(cls, group):
        return cls(group, [group.zero], _trusted=True)

    @classmethod
    def whole(cls, group):
        return cls(group, group.elements, _trusted=True)

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, item):
        exps = item.exps if isinstance(item, GroupElement) else tuple(item)
        return exps in self._set

    def contains_subgroup(self, other):
        return other._set <= self._set

    @property
    def mask(self):
        """Bitmask over canonical element indices; handy for subset tests."""
        if self._mask is None:
            g = self.group
            m = 0
            for e in self.elements:
                m |= 1 << g.index_of(e)
            self._mask = m
        return self._mask

    @property
    def generators(self):
        """Deterministic small generating list: greedily peel the canonical
        first element of maximal order outside the current span."""
        if self._generators is None:
            group = self.group
            span = {group.zero}
            gens = []
            while len(span) < len(self.elements):
                best = None
                best_order = 0
                for e in self.elements:
                    if e in span:
                        continue
                    o = group.element_order(e)
                    if o > best_order:
                        best, best_order = e, o
                gens.append(best)
                cyc = _cyclic_part(group, best)
                span = {group.add(a, c) for a in span for c in cyc}
            self._generators = tuple(gens)
        return self._generators

    def extended(self, g):
        """Subgroup generated by this one together with one extra element."""
        cyc = _cyclic_part(self.group, g)
        elems = {self.group.add(a, c) for a in self._set for c in cyc}
        return Subgroup(self.group, elems, _trusted=True)

    def sylow_part(self, p):
        """Elements of p-power order (the p-Sylow subgroup of this subgroup)."""
        group = self.group
        elems = [e for e in self.elements if _is_p_power(group.element_order(e), p)]
        return Subgroup(group, elems, _trusted=True)

    def invariant_factors(self):
        """Abstract isomorphism type of the subgroup itself."""
        return _peel_invariant_factors(self.group, self.elements, {self.group.zero})

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.group.divisors, self.elements))

    def __lt__(self, other):
        return self.elements < other.elements

    def __repr__(self):
        gens = ",".join(repr(list(g)) for g in self.generators)
        return "Subgroup<order %d, gens %s>" % (self.order, gens)


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def subgroup_product(a, b):
    """The join HK of two subgroups of the same group."""
    if a.group != b.group:
        raise NotASubgroup("subgroups of different groups")
    elems = {a.group.add(x, y) for x in a._set for y in b._set}
    return Subgroup(a.group, elems, _trusted=True)


# ---------------------------------------------------------------------------
# Sylow decomposition
# ---------------------------------------------------------------------------

class SylowDecomposition:
    """G as the direct product of its Sylow components, with lossless
    split/merge maps for elements and subgroups.

    Per prime p, the abstract component has divisors equal to the p-parts
    of G's invariant factors; coordinate i of G embeds the component
    coordinate via multiplication by d_i / p^{e_i}.
    """

    __slots__ = ("group", "primes", "components", "_coords", "_mults", "_invs")

    def __init__(self, group):
        self.group = group
        self.primes = sorted(factorize(group.order)) if group.order > 1 else []
        self.components = {}
        self._coords = {}
        self._mults = {}
        self._invs = {}
        for p in self.primes:
            coords = []
            comp_divs = []
            mults = []
            invs = []
            for i, d in enumerate(group.divisors):
                e = 0
                dd = d
                while dd % p == 0:
                    dd //= p
                    e += 1
                if e:
                    pe = p ** e
                    coords.append(i)
                    comp_divs.append(pe)
                    m = d // pe
                    mults.append(m)
                    invs.append(pow(m % pe, -1, pe))
            self.components[p] = AbelianGroup(tuple(comp_divs))
            self._coords[p] = coords
            self._mults[p] = mults
            self._invs[p] = invs

    def split_element(self, g):
        exps = g.exps if isinstance(g, GroupElement) else tuple(g)
        out = {}
        for p in self.primes:
            comp = self.components[p]
            part = tuple(
                exps[i] * u % d
                for i, u, d in zip(self._coords[p], self._invs[p], comp.divisors)
            )
            out[p] = comp.element(part)
        return out

    def merge_element(self, parts):
        exps = [0] * self.group.rank
        for p in self.primes:
            part = parts[p]
            part_exps = part.exps if isinstance(part, GroupElement) else tuple(part)
            for i, m, x in zip(self._coords[p], self._mults[p], part_exps):
                exps[i] = (exps[i] + x * m) % self.group.divisors[i]
        return self.group.element(exps)

    def split_subgroup(self, H):
        out = {}
        for p in self.primes:
            part = H.sylow_part(p)
            comp_elems = [self.split_element(e)[p].exps for e in part.elements]
            out[p] = Subgroup(self.components[p], comp_elems, _trusted=True)
        return out

    def merge_subgroup(self, parts):
        zero = self.group.zero
        current = {zero}
        for p in self.primes:
            embedded = []
            for e in parts[p].elements:
                full = self.merge_element({p: e} | {
                    pp: self.components[pp].identity for pp in self.primes if pp != p
                })
                embedded.append(full.exps)
            current = {self.group.add(a, b) for a in current for b in embedded}
        return Subgroup(self.group, current, _trusted=True)

    def embed_component(self, p):
        """The Sylow p-subgroup of G itself (as a Subgroup of G)."""
        comp = self.components[p]
        elems = []
        for e in comp.elements:
            exps = [0] * self.group.rank
            for i, m, x in zip(self._coords[p], self._mults[p], e):
                exps[i] = x * m % self.group.divisors[i]
            elems.append(tuple(exps))
        return Subgroup(self.group, elems, _trusted=True)


def sylow_decompose(group):
    return SylowDecomposition(group)


# ---------------------------------------------------------------------------
# subgroup lattice
# ---------------------------------------------------------------------------

def _p_group_subgroups(group):
    """All subgroups of a p-group (or the trivial group), breadth-first by
    index-p extensions <H, g> with p*g in H.

    Every subgroup is reachable this way: for H < K, any x in K outside H
    yields g = p^(t-1) * x with p*g in H.  Working with integer index sets
    keeps the inner loop cheap.
    """
    if group.order == 1:
        return [Subgroup.trivial(group)]
    p = min(factorize(group.order))
    elems = group.elements
    order = group.order
    zero_i = group.index_of(group.zero)
    pmul = [group.index_of(group.scale(p, e)) for e in elems]
    table = group.add_table()
    if table is not None:
        def row_for(gi):
            return table[gi]
    else:
        cache = {}

        def row_for(gi):
            row = cache.get(gi)
            if row is None:
                g = elems[gi]
                row = tuple(group.index_of(group.add(g, e)) for e in elems)
                cache[gi] = row
            return row

    trivial = frozenset([zero_i])
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for gi in range(order):
                if gi in H or pmul[gi] not in H:
                    continue
                row = row_for(gi)
                K = set(H)
                coset = H
                for _ in range(p - 1):
                    coset = {row[i] for i in coset}
                    K |= coset
                K = frozenset(K)
                if K not in seen:
                    seen.add(K)
                    nxt.append(K)
        frontier = nxt
    out = [
        Subgroup(group, [elems[i] for i in s], _trusted=True) for s in seen
    ]
    return sorted(out, key=lambda s: s.elements)


def all_subgroups(group, max_order=4096):
    """Complete duplicate-free subgroup list, computed per Sylow component
    and recombined (subgroups of abelian groups split over Sylow parts)."""
    if group.order > max_order:
        raise GroupTooLarge(
            "subgroup enumeration bounded", order=group.order, bound=max_order
        )
    dec = sylow_decompose(group)
    if len(dec.primes) <= 1:
        return _p_group_subgroups(group)
    per_prime = [
        [(p, S) for S in _p_group_subgroups(dec.components[p])] for p in dec.primes
    ]
    out = []
    for combo in itertools.product(*per_prime):
        parts = {p: S for p, S in combo}
        out.append(dec.merge_subgroup(parts))
    return sorted(out, key=lambda s: s.elements)


def _peel_invariant_factors(group, universe, start):
    """Invariant factors of U/S, where U (iterable of exps) is a subgroup of
    `group` and S <= U.  Repeatedly peels the canonical-first coset of
    maximal order."""
    universe = list(universe)
    S = set(start)
    out = []
    while len(S) < len(universe):
        best = None
        best_order = 0
        for g in universe:
            if g in S:
                continue
            k = 1
            x = g
            while x not in S:
                x = group.add(x, g)
                k += 1
            if k > best_order:
                best, best_order = g, k
        cyc = _cyclic_part(group, best)
        S = {group.add(a, c) for a in S for c in cyc}
        out.append(best_order)
    out.reverse()
    return tuple(out)


def quotient_type(group, H):
    """Invariant factors of G/H (empty tuple when H = G)."""
    if not isinstance(H, Subgroup) or H.group != group:
        raise NotASubgroup("H is not a subgroup of G")
    return _peel_invariant_factors(group, group.elements, H._set)


def _linear_values(group, coeffs, n):
    """sum_i coeffs[i] * x_i mod n for every element x, in index order."""
    vals = [0]
    for c, d in zip(coeffs, group.divisors):
        vals = [(v + c * x) % n for v in vals for x in range(d)]
    return vals


def cyclic_subgroups(group, nontrivial_only=False):
    """Every cyclic subgroup once, in canonical order.

    Elements are walked in index order; <g> is built only for an element
    not already marked as a generator of an earlier <h>, and then all its
    phi(o) generators are marked.  The unmarked g met first is the
    canonical least generator of <g>, which is what `generators` returns.
    """
    elems = group.elements
    marked = bytearray(group.order)
    out = []
    for i, g in enumerate(elems):
        if marked[i]:
            continue
        cyc = _cycle(group, g)
        o = len(cyc)
        for k in range(o):
            if gcd(k, o) == 1:
                marked[cyc[k]] = 1
        if o > 1 or not nontrivial_only:
            gens = (g,) if o > 1 else ()
            out.append(Subgroup._from_indices(group, sorted(cyc), gens))
    out.sort(key=lambda s: s.elements)
    return out


def cocyclic_subgroups(group):
    """All H with G/H cyclic and nontrivial (G itself excluded).

    Computed as annihilators of the nontrivial cyclic subgroups; the
    character duality makes this exactly the co-cyclic family.
    """
    out = {}
    for C in cyclic_subgroups(group, nontrivial_only=True):
        H = annihilator(group, C)
        out.setdefault(H.elements, H)
    return sorted(out.values(), key=lambda s: s.elements)


def _index_p_cover_within(group, container_set, H, p):
    """Distinct overgroups L of H inside the given container with [L:H] = p."""
    covers = {}
    for g in container_set:
        if g in H._set:
            continue
        if group.scale(p, g) in H._set:
            L = H.extended(g)
            covers.setdefault(L.elements, L)
    return sorted(covers.values(), key=lambda s: s.elements)


def sharp(group, H, max_order=4096):
    """For a co-cyclic subgroup H of a p-group G, the unique L with
    H < L <= G and [L:H] = p."""
    if not isinstance(H, Subgroup) or H.group != group:
        raise NotASubgroup("H is not a subgroup of G")
    primes = sorted(factorize(group.order))
    if len(primes) != 1:
        raise NotCocyclic("sharp is defined for p-groups", divisors=group.divisors)
    p = primes[0]
    if H.order == group.order:
        raise HIsWholeGroup("H must be a proper subgroup")
    covers = _index_p_cover_within(group, group.elements, H, p)
    if len(covers) != 1:
        raise NotCocyclic(
            "index-p cover is not unique", count=len(covers),
            subgroup=[list(g) for g in H.generators],
        )
    return covers[0]


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

    def value(self, g):
        exps = g.exps if isinstance(g, GroupElement) else tuple(g)
        return FieldScalar(self.ctx, self.raw_value(exps))

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
    root = element_of_order(ctx, n)
    powers = [ctx.one]
    for _ in range(n - 1):
        powers.append(ctx.mul(powers[-1], root))
    powers = tuple(powers)
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

    def apply_exps(self, exps):
        return self.group.elements[self.perm[self.group.index_of(tuple(exps))]]

    def apply_element(self, g):
        return GroupElement(self.group, self.apply_exps(g.exps))

    def apply_subgroup(self, H):
        elems = self.group.elements
        perm = self.perm
        idx = self.group.index_of
        return Subgroup(
            self.group, [elems[perm[idx(e)]] for e in H.elements], _trusted=True
        )

    def compose(self, other):
        """self after other."""
        if other.group != self.group:
            raise ValueError("automorphisms of different groups")
        sp, op = self.perm, other.perm
        perm = tuple(sp[op[i]] for i in range(len(sp)))
        elems = self.group.elements
        images = tuple(
            elems[perm[self.group.index_of(_basis_exps(self.group, i))]]
            for i in range(self.group.rank)
        )
        return Automorphism._trusted(self.group, images, perm)

    def power_exponent(self):
        """r with psi(g) = r*g for all g, or None if not a power map."""
        group = self.group
        if group.rank == 0:
            return 1
        # read r from the last (maximal-order) generator, then verify
        d_t = group.divisors[-1]
        img = self.images[-1]
        base = _basis_exps(group, group.rank - 1)
        r = None
        for cand in range(d_t):
            if group.scale(cand, base) == img:
                r = cand
                break
        if r is None:
            return None
        for i in range(group.rank):
            if group.scale(r, _basis_exps(group, i)) != self.images[i]:
                return None
        return r

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


def _basis_exps(group, i):
    return tuple(1 if j == i else 0 for j in range(group.rank))


def _induced_perm(group, images):
    """Index permutation of the homomorphism e_i -> images[i], or None when
    it is not a bijection.  Coordinate j of the image is a linear form mod
    d_j; scaling it by the stride keeps each column an index summand."""
    perm = [0] * group.order
    for j, (d, s) in enumerate(zip(group.divisors, _strides(group))):
        col = _linear_values(group, [img[j] * s for img in images], d * s)
        perm = [a + b for a, b in zip(perm, col)]
    if len(set(perm)) != group.order:
        return None
    return tuple(perm)


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


def automorphisms(group, max_order=512):
    """Complete Aut(G), as the multiplicative closure of aut_generators.

    Deduplicated by induced permutation and sorted canonically.
    """
    if group.order > max_order:
        raise GroupTooLarge(
            "automorphism enumeration bounded", order=group.order, bound=max_order
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


def brute_force_automorphisms(group):
    """Reference oracle: enumerate all generator-image tuples whose orders
    divide the corresponding invariant factors and keep the bijections."""
    rank = group.rank
    if rank == 0:
        return [Automorphism.identity(group)]
    candidates = []
    for d in group.divisors:
        candidates.append([g for g in group.elements if d % group.element_order(g) == 0])
    out = []
    for images in itertools.product(*candidates):
        perm = _induced_perm(group, images)
        if perm is not None:
            out.append(Automorphism._trusted(group, images, perm))
    return sorted(out, key=lambda a: a.perm)


def power_automorphisms(auts):
    """The subset of power maps g -> r*g; exactly the automorphisms fixing
    every subgroup setwise."""
    return [psi for psi in auts if psi.power_exponent() is not None]


def subgroup_orbits(group, subgroups):
    """Partition a subgroup list by the Aut(G) action; each orbit is sorted
    and led by its lexicographically minimal member."""
    perms = [psi.perm for psi in aut_generators(group)]
    index = group.index_of
    input_keys = {frozenset(map(index, H.elements)): H for H in subgroups}
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
        orbits.append(sorted((input_keys[k] for k in found), key=lambda s: s.elements))
    orbits.sort(key=lambda orbit: orbit[0].elements)
    return orbits


# ---------------------------------------------------------------------------
# enumeration of groups
# ---------------------------------------------------------------------------

def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def abelian_groups_of_order(n):
    """All isomorphism types of abelian groups of order n, canonically
    sorted by invariant factors."""
    if n == 1:
        return [group_make([])]
    fact = factorize(n)
    per_prime = []
    for p, e in sorted(fact.items()):
        per_prime.append([(p, part) for part in _partitions(e)])
    out = []
    for combo in itertools.product(*per_prime):
        divisors = []
        for p, part in combo:
            divisors.extend(p ** k for k in part)
        out.append(group_make(divisors))
    return sorted(out, key=lambda g: g.divisors)
