"""Finite abelian groups in invariant-factor form.

Elements are exponent tuples at the API.  The element index of an exponent
tuple is its mixed-radix position (last coordinate fastest), so index order
is lexicographic order on exponent tuples.  A subgroup's canonical form is
its ascending tuple of element indices; equality, hashing and ordering use
it, and its exponent tuples are a derived view.

The module provides what the engine needs of a group: subgroups by their
generators, the owner type G/<k> that classes the minimal codes, the
q-scaling permutation behind the character orbits, and the list of groups
of one order, all computed on indices.  The subgroup lattice, the type of
a quotient G/H, character duality and the automorphism group are in
``reference``.  A linear map is evaluated on all |G| indices by
accumulating one axis at a time; the subgroup generated by a subgroup S
and an element g is the union of the cosets S, S + g, S + 2g, ...
Everything is deterministic.

``tau_sweep``, the class count of each group's minimal codes, lives here
and not in ``codes``: it reads only the group's primes and divisors, so
``sweep`` loads neither ``codes`` nor ``group_algebra``.  ``codes`` still
forwards the name, for the benchmark's tracer.
"""

import itertools
from math import gcd, lcm, prod

from .errors import BadDivisor, CharDividesOrder
from .finite_field import factorize

# The benchmark's tracer (perfbench/tracer.py) wraps these functions of
# ``reference`` under this module's name; delete them and ``__getattr__``
# once spans are recorded inside the program (ROADMAP item 1).
_TRACED_REFERENCE = frozenset({
    "_index_p_cover_within", "all_subgroups", "annihilator", "aut_generators",
    "automorphisms", "cocyclic_subgroups", "cyclic_subgroups", "quotient_type",
    "subgroup_orbits",
})


def __getattr__(name):
    if name not in _TRACED_REFERENCE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import reference

    value = globals()[name] = getattr(reference, name)
    return value


class AbelianGroup:
    """Direct product of cyclic groups C_{d_1} x ... x C_{d_t} with
    d_1 | d_2 | ... | d_t.  Use group_make() to normalize arbitrary
    divisor lists into this form."""

    __slots__ = ("divisors", "order", "exponent", "rank", "zero",
                 "_elements", "_index", "_orders", "_primes")

    def __init__(self, divisors):
        divisors = tuple(divisors)
        if any(d < 1 for d in divisors):
            raise BadDivisor("divisors must be at least 1", divisors=divisors)
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
        self._primes = None

    @property
    def primes(self):
        """The primes dividing the order, ascending: factorized on the first
        read unless the group came with them (``abelian_groups_of_order``)."""
        if self._primes is None:
            self._primes = tuple(factorize(self.exponent))
        return self._primes

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
            span = _join(group, span, g.exps if isinstance(g, GroupElement) else tuple(g))
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


# ---------------------------------------------------------------------------
# quotients, owner types and linear maps
# ---------------------------------------------------------------------------

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
    sorted by invariant factors.  The k-th largest invariant factor is the
    product of the k-th largest prime power of each Sylow type.  Each group
    carries the primes of n, so n is the only number factorized."""
    factors = factorize(n)
    primes = tuple(factors)
    groups = []
    for combo in itertools.product(*map(_partitions, factors.values())):
        powers = [[p ** k for k in part] for p, part in zip(primes, combo)]
        G = AbelianGroup(tuple(map(prod, itertools.zip_longest(*powers, fillvalue=1)))[::-1])
        G._primes = primes
        groups.append(G)
    return sorted(groups, key=lambda G: G.divisors)


# ---------------------------------------------------------------------------
# class counts from the group type
# ---------------------------------------------------------------------------

def _check_char(group, ctx):
    if gcd(ctx.order, group.order) != 1:
        raise CharDividesOrder(
            "field characteristic divides the group order",
            characteristic=ctx.p, group_order=group.order,
        )


def tau_sweep(groups, ctx):
    """For each group: the equivalence-class count of its minimal codes
    against tau(exp G), plus the homocyclic flag.

    By the paper's criterion the classes are the isomorphism types of the
    owners G/<k>, and these split over the Sylow subgroups.  For a p-group
    of type lambda they are the cotypes of its cyclic subgroups: the mu with
    lambda/mu a horizontal strip (Pieri rule; Macdonald, ch. II), so there
    are prod_i (lambda_i - lambda_(i+1) + 1) of them.  With e_1 <= ... <= e_t
    the exponents of p in d_1 | ... | d_t that is prod_i (e_i - e_(i-1) + 1),
    e_0 = 0.  It equals tau(p^e_t) = e_t + 1 exactly when the nonzero e_i
    are equal: the count is tau(exp G) iff every Sylow subgroup is
    homocyclic.  No character, element or subgroup is built.
    """
    rows = []
    for group in groups:
        _check_char(group, ctx)
        count = tau = 1
        for p in group.primes:
            low = 0
            for d in group.divisors:
                e = 0
                while d % p == 0:
                    d, e = d // p, e + 1
                count, low = count * (e - low + 1), e
            tau *= low + 1  # low is now the exponent of p in exp G
        rows.append({
            "group": group.spec_string(),
            "class_count": count,
            "tau": tau,
            "homocyclic": len(set(group.divisors)) <= 1,
            "match": count == tau,
        })
    return rows
