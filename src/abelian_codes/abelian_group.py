"""Finite abelian groups in invariant-factor form.

Elements are exponent tuples at the API.  The element index of an exponent
tuple is its mixed-radix position (last coordinate fastest), so index order
is lexicographic order on exponent tuples.

The module holds what every command reads of a group and nothing it
builds from one: ``AbelianGroup`` with its element bookkeeping,
``group_make``, the owner type G/<k> that classes the minimal codes, the
list of groups of one order, and ``tau_sweep``, the class count of each
group's minimal codes from its type alone.  The last two read
``finite_field``'s ``group_types`` and ``sweep_row``, which the
``sweep`` command calls directly, so a sweep never loads this module.
The set-up ``field_make(p)`` plus ``group_make`` loads only this module,
``finite_field`` and ``errors``.  ``tau_sweep`` lives here and not in
``codes``; ``codes`` still forwards the name, for the benchmark's
tracer.  Subgroups (``Subgroup``) and the linear maps
evaluated on all |G| indices are in ``group_algebra``, which builds them;
this module forwards ``Subgroup`` for the tracer.  The subgroup lattice,
the type of a quotient G/H, character duality, the automorphism group and
``GroupElement`` are in ``reference``.  Everything is deterministic.
"""

import itertools
from math import gcd, lcm, prod

from .errors import BadDivisor, CharDividesOrder, GroupMismatch
from .finite_field import factorize, group_types, sweep_row, sylow_exponents

# The benchmark's tracer (perfbench/tracer.py) wraps these functions of
# ``reference``, and ``generated`` of ``group_algebra.Subgroup``, under this
# module's name; delete them and ``__getattr__`` once spans are recorded
# inside the program (ROADMAP item 1).
_TRACED_REFERENCE = frozenset({
    "_index_p_cover_within", "all_subgroups", "annihilator", "aut_generators",
    "automorphisms", "cocyclic_subgroups", "cyclic_subgroups", "quotient_type",
    "subgroup_orbits",
})


def __getattr__(name):
    if name == "Subgroup":
        from . import group_algebra as home
    elif name in _TRACED_REFERENCE:
        from . import reference as home
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(home, name)
    return value


class AbelianGroup:
    """Direct product of cyclic groups C_{d_1} x ... x C_{d_t} with
    d_1 | d_2 | ... | d_t.  Use group_make() to normalize arbitrary
    divisor lists into this form."""

    __slots__ = ("divisors", "order", "exponent", "rank", "zero",
                 "_elements", "_index", "_orders", "_primes", "_strides")

    def __init__(self, divisors):
        divisors = tuple(divisors)
        if any(d < 1 for d in divisors):
            raise BadDivisor("divisors must be at least 1", divisors=divisors)
        for a, b in zip(divisors, divisors[1:]):
            if b % a:
                raise BadDivisor("divisors must form a divisibility chain", divisors=divisors)
        self.divisors = divisors
        self.order = prod(divisors)
        self.exponent = divisors[-1] if divisors else 1
        self.rank = len(divisors)
        self.zero = (0,) * self.rank
        self._elements = None
        self._index = None
        self._orders = None
        self._primes = None
        self._strides = None

    @property
    def primes(self):
        """The primes dividing the order, ascending, factorized on the first
        read."""
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


def _invariant_factors(ds):
    """The divisibility chain of C_(d_1) x ... x C_(d_t), ones dropped:
    C_a x C_b is C_gcd x C_lcm, and once d_i has met every later d_j this
    way it divides each of them."""
    ds = list(ds)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            ds[i], ds[j] = gcd(ds[i], ds[j]), lcm(ds[i], ds[j])
    return tuple(d for d in ds if d > 1)


def group_make(divisors):
    """Normalize an arbitrary list of cyclic orders (each >= 2) into
    invariant-factor form; the empty list gives the trivial group."""
    for d in divisors:
        if not isinstance(d, int) or d < 2:
            raise BadDivisor("divisors must be integers >= 2", divisor=d)
    return AbelianGroup(_invariant_factors(divisors))


# ---------------------------------------------------------------------------
# owner types
# ---------------------------------------------------------------------------

def owner_type(group, k):
    """Invariant factors of G/<k>: the type of annihilator(G, <k>), owner of
    the codes of character k, and by the paper's criterion their class key.
    G/<k> is Z^t modulo the rows of diag(d) and k; as each d_i divides the
    next, the gcd D_j of its j x j minors is that of d_1...d_j and of
    k_l d_1...d_(j-1) (l >= j) and k_l d_1...d_j / d_l (l < j), and
    s_j = D_j / D_(j-1)."""
    if len(k) != group.rank:
        raise GroupMismatch("not an element of the group", element=k)
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


# ---------------------------------------------------------------------------
# enumeration of groups and their class counts
# ---------------------------------------------------------------------------

def abelian_groups_of_order(n):
    """All isomorphism types of abelian groups of order n, canonically
    sorted by invariant factors (``group_types``)."""
    return [AbelianGroup(divisors) for divisors, _ in group_types(n)]


def _check_char(group, ctx):
    if gcd(ctx.order, group.order) != 1:
        raise CharDividesOrder(
            "field characteristic divides the group order",
            characteristic=ctx.p, group_order=group.order,
        )


def tau_sweep(groups, ctx):
    """For each group: the equivalence-class count of its minimal codes
    against tau(exp G), plus the homocyclic flag, by the Sylow/Pieri
    product of ``sweep_row``.  No character, element or subgroup is
    built."""
    rows = []
    for group in groups:
        _check_char(group, ctx)
        sylow = (sylow_exponents(group.divisors, p) for p in group.primes)
        rows.append(dict(zip(("group", "class_count", "tau", "homocyclic", "match"),
                             sweep_row(group.divisors, sylow))))
    return rows
