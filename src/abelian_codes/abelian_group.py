"""Finite abelian groups in invariant-factor form.

Elements are exponent tuples at the API.  The element index of an exponent
tuple is its mixed-radix position (last coordinate fastest), so index order
is lexicographic order on exponent tuples.  A subgroup's canonical form is
its ascending tuple of element indices; equality, hashing and ordering use
it, and its exponent tuples are a derived view.

The module provides the subgroup lattice, co-cyclic subgroups, index-p
covers, character duality, and the automorphism group with its action on
subgroups, all computed on indices.  A translation x -> g + x or a linear
map is evaluated on all |G| indices by accumulating one axis at a time;
the subgroup generated by a subgroup S and an element g is the union of
the cosets S, S + g, S + 2g, ...  Everything is deterministic.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from .errors import (
    BadDivisor,
    GroupTooLarge,
    NoRootsOfUnity,
    NotASubgroup,
)
from .finite_field import element_of_order, euler_phi, factorize, mul_order

# |Aut(G)| above this is refused before the closure starts: it builds one
# |G|-entry permutation per automorphism, about 3 s at 20,000 for |G| <= 64
_AUT_ORDER_BOUND = 20000
# |G| above these is refused by all_subgroups and by automorphisms
_SUBGROUPS_ORDER_BOUND = 4096
_AUT_GROUP_ORDER_BOUND = 512


class AbelianGroup:
    """Direct product of cyclic groups C_{d_1} x ... x C_{d_t} with
    d_1 | d_2 | ... | d_t.  Use group_make() to normalize arbitrary
    divisor lists into this form."""

    __slots__ = ("divisors", "order", "exponent", "rank", "zero",
                 "_elements", "_index", "_orders")

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
        self._orders = None

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


def _orders(group):
    """Order of every element, in index order; built once per group."""
    if group._orders is None:
        vals = [1]
        for d in group.divisors:
            col = [d // gcd(x, d) for x in range(d)]
            vals = [lcm(v, c) for v in vals for c in col]
        group._orders = vals
    return group._orders


def _translation(group, g):
    """Index of g + x for every element x, in index order."""
    vals = [0]
    for x, d, s in zip(g, group.divisors, _strides(group)):
        col = [(x + k) % d * s for k in range(d)]
        vals = [v + c for v in vals for c in col]
    return vals


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
    exactly as their sorted exponent tuples would."""

    __slots__ = ("group", "indices", "_set", "_generators", "_mask")

    def __init__(self, group, elements):
        try:
            members = frozenset(group.index_of(tuple(e)) for e in elements)
        except KeyError as exc:
            raise NotASubgroup("not an element of the group", element=exc.args[0]) from None
        indices = tuple(sorted(members))
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
        self.group = group
        self.indices = indices
        self._set = members
        self._generators = None
        self._mask = None

    @classmethod
    def generated(cls, group, gens):
        span = {0}
        for g in gens:
            span = _join(group, span, g.exps if isinstance(g, GroupElement) else tuple(g))
        return cls._from_indices(group, sorted(span))

    @classmethod
    def _from_indices(cls, group, indices, generators=None):
        """Trusted subgroup from its element indices in ascending order."""
        obj = object.__new__(cls)
        obj.group = group
        obj.indices = tuple(indices)
        obj._set = frozenset(obj.indices)
        obj._generators = generators
        obj._mask = None
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

    def __contains__(self, item):
        exps = item.exps if isinstance(item, GroupElement) else tuple(item)
        try:
            return self.group.index_of(exps) in self._set
        except KeyError:
            return False

    def contains_subgroup(self, other):
        return other._set <= self._set

    @property
    def mask(self):
        """Bitmask over canonical element indices; handy for subset tests."""
        if self._mask is None:
            m = 0
            for i in self.indices:
                m |= 1 << i
            self._mask = m
        return self._mask

    @property
    def generators(self):
        """Deterministic small generating list: greedily peel the canonical
        first element of maximal order outside the current span."""
        if self._generators is None:
            group = self.group
            elems = group.elements
            orders = _orders(group)
            span = {0}
            gens = []
            while len(span) < len(self.indices):
                # max keeps the first of the maximal orders
                best = elems[max((i for i in self.indices if i not in span),
                                 key=orders.__getitem__)]
                gens.append(best)
                span = _join(group, span, best)
            self._generators = tuple(gens)
        return self._generators

    def sylow_part(self, p):
        """Elements of p-power order (the p-Sylow subgroup of this subgroup)."""
        orders = _orders(self.group)
        return Subgroup._from_indices(
            self.group, [i for i in self.indices if _is_p_power(orders[i], p)])

    def invariant_factors(self):
        """Abstract isomorphism type of the subgroup itself."""
        return _peel_invariant_factors(self.group, self.indices, {0})

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


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------
# Sylow decomposition
# ---------------------------------------------------------------------------

class SylowDecomposition:
    """G as the direct product of its Sylow components, with the maps that
    merge component elements and subgroups into G.

    Per prime p, the abstract component has divisors equal to the p-parts
    of G's invariant factors; coordinate i of G embeds the component
    coordinate via multiplication by d_i / p^{e_i}.
    """

    __slots__ = ("group", "primes", "components", "_coords", "_mults")

    def __init__(self, group):
        self.group = group
        self.primes = sorted(factorize(group.order)) if group.order > 1 else []
        self.components = {}
        self._coords = {}
        self._mults = {}
        for p in self.primes:
            coords = [i for i, d in enumerate(group.divisors) if d % p == 0]
            parts = [p ** factorize(group.divisors[i])[p] for i in coords]
            mults = [group.divisors[i] // pe for i, pe in zip(coords, parts)]
            self.components[p] = AbelianGroup(tuple(parts))
            self._coords[p] = coords
            self._mults[p] = mults

    def merge_element(self, parts):
        exps = [0] * self.group.rank
        for p in self.primes:
            part = parts[p]
            part_exps = part.exps if isinstance(part, GroupElement) else tuple(part)
            for i, m, x in zip(self._coords[p], self._mults[p], part_exps):
                exps[i] = (exps[i] + x * m) % self.group.divisors[i]
        return self.group.element(exps)

    def merge_subgroup(self, parts):
        span = {0}
        for p in self.primes:
            others = {pp: self.components[pp].identity for pp in self.primes if pp != p}
            for g in parts[p].generators:
                span = _join(self.group, span, self.merge_element({p: g} | others).exps)
        return Subgroup._from_indices(self.group, sorted(span))

    def embed_component(self, p):
        """The Sylow p-subgroup of G itself (as a Subgroup of G)."""
        return Subgroup.whole(self.group).sylow_part(p)


def sylow_decompose(group):
    return SylowDecomposition(group)


# ---------------------------------------------------------------------------
# subgroup lattice
# ---------------------------------------------------------------------------

def _p_group_subgroups(group):
    """All subgroups of a p-group (or the trivial group), breadth-first by
    index-p covers <H, g> with p*g in H.

    Every subgroup is reachable this way: for H < K, any x in K outside H
    yields g = p^(t-1) * x with p*g in H.
    """
    if group.order == 1:
        return [Subgroup.trivial(group)]
    p = min(factorize(group.order))
    everything = range(group.order)
    frontier = [Subgroup.trivial(group)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for H in frontier:
            for K in _index_p_cover_within(group, everything, H, p):
                if K not in seen:
                    seen.add(K)
                    nxt.append(K)
        frontier = nxt
    return sorted(seen)


def all_subgroups(group):
    """Complete duplicate-free subgroup list, computed per Sylow component
    and recombined (subgroups of abelian groups split over Sylow parts)."""
    if group.order > _SUBGROUPS_ORDER_BOUND:
        raise GroupTooLarge(
            "subgroup enumeration bounded", order=group.order, bound=_SUBGROUPS_ORDER_BOUND
        )
    dec = sylow_decompose(group)
    if len(dec.primes) <= 1:
        return _p_group_subgroups(group)
    per_prime = [_p_group_subgroups(dec.components[p]) for p in dec.primes]
    return sorted(dec.merge_subgroup(dict(zip(dec.primes, combo)))
                  for combo in itertools.product(*per_prime))


def _peel_invariant_factors(group, universe, start):
    """Invariant factors of U/S, where U (ascending indices) is a subgroup
    of `group` and S <= U (an index set).  Repeatedly peels the
    canonical-first coset of maximal order.  The order of g mod S is the
    least k with k*g in S, a divisor of o(g)."""
    elems = group.elements
    orders = _orders(group)
    S = set(start)
    out = []
    while len(S) < len(universe):
        best = None
        best_order = 0
        for i in universe:
            o = orders[i]
            if i in S or o <= best_order:
                continue
            k = next(k for k in range(2, o + 1)
                     if o % k == 0 and group.index_of(group.scale(k, elems[i])) in S)
            if k > best_order:
                best, best_order = elems[i], k
        S = _join(group, S, best)
        out.append(best_order)
    out.reverse()
    return tuple(out)


def quotient_type(group, H):
    """Invariant factors of G/H (empty tuple when H = G)."""
    if not isinstance(H, Subgroup) or H.group != group:
        raise NotASubgroup("H is not a subgroup of G")
    return _peel_invariant_factors(group, range(group.order), H._set)


def owner_type(group, k):
    """Invariant factors of G/<k>: the type of annihilator(G, <k>), owner of
    the codes of character k, and by the paper's criterion their class key.
    G/<k> is Z^t modulo the rows of diag(d) and k; as each d_i divides the
    next, the gcd D_j of its j x j minors is that of d_1...d_j and of
    k_l d_1...d_(j-1) (l >= j) and k_l d_1...d_j / d_l (l < j), and
    s_j = D_j / D_(j-1)."""
    d = group.divisors
    out = []
    head = prev = 1  # d_1...d_(j-1) and D_(j-1)
    for j in range(group.rank):
        D = gcd(head * d[j], head * gcd(*k[j:]),
                *(x * head * d[j] // d[l] for l, x in enumerate(k[:j])))
        if D > prev:
            out.append(D // prev)
        head, prev = head * d[j], D
    return tuple(out)


def _linear_values(group, coeffs, n):
    """sum_i coeffs[i] * x_i mod n for every element x, in index order."""
    vals = [0]
    for c, d in zip(coeffs, group.divisors):
        vals = [(v + c * x) % n for v in vals for x in range(d)]
    return vals


def cyclic_subgroups(group):
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
        gens = (g,) if o > 1 else ()
        out.append(Subgroup._from_indices(group, sorted(cyc), gens))
    out.sort()
    return out


def cocyclic_subgroups(group):
    """All H with G/H cyclic and nontrivial (G itself excluded).

    Computed as annihilators of the nontrivial cyclic subgroups; the
    character duality makes this exactly the co-cyclic family.
    """
    out = {}
    for C in cyclic_subgroups(group):
        if C.order > 1:
            H = annihilator(group, C)
            out.setdefault(H.indices, H)
    return sorted(out.values())


def _index_p_cover_within(group, container, H, p):
    """Distinct overgroups L = <H, g> with [L:H] = p, over the g outside H
    with p*g in H in the container (ascending indices).  L is the union of
    the cosets H + k*g, k < p; coordinate j of H + c has the digits
    (h_j + c_j) mod d_j, a column built once per (j, c_j) and call.  Every
    g in L outside H gives the same L, so the members of a cover found are
    not tried again."""
    strides = _strides(group)
    digits = list(zip(*H.elements))
    columns = {}

    def coset(shift):
        out = [0] * H.order
        for j, c in enumerate(shift):
            if (j, c) not in columns:
                d, s = group.divisors[j], strides[j]
                columns[j, c] = [(h + c) % d * s for h in digits[j]]
            out = [a + b for a, b in zip(out, columns[j, c])]
        return out

    elems = group.elements
    covers = []
    tried = set(H._set)
    for i in container:
        if i in tried or group.scale(p, elems[i]) not in H:
            continue
        members = list(H.indices)
        for k in range(1, p):
            members.extend(coset(group.scale(k, elems[i])))
        L = Subgroup._from_indices(group, sorted(members))
        tried |= L._set
        covers.append(L)
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


def aut_order(group):
    """|Aut(G)| from the invariant factors (Hillar and Rhea, 2007): per
    prime p with exponents e_1 <= ... <= e_n of the p-parts, with d_k / c_k
    the last / first position holding e_k, the product over k of
    (p^d_k - p^(k-1)) * p^(e_k (n - d_k)) * p^((e_k - 1)(n - c_k + 1))."""
    out = 1
    for p in factorize(group.order):
        es = [e for e in (factorize(d).get(p, 0) for d in group.divisors) if e]
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
    input_keys = {H._set: H for H in subgroups}
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
