"""Minimal abelian codes as minimal ideals of F_qG.

A minimal code is the ideal generated by one primitive idempotent.  This
module computes dimensions, exact weight distributions or bounds on the
minimum weight, and the grouping of codes into equivalence classes under
linear extensions of group automorphisms, decided by the paper's
criterion.  The routes that need a basis of C_o, the coset walk and the
two-vector bound, are in ``basis``, imported where ``_route`` picks one,
so a job whose codes are all enumerated never compiles them.  The search
form of that equivalence and the closed-form reference tables behind
``verify`` are in ``reference``.  The class count
from the group type alone, ``tau_sweep``, is in ``abelian_group``, and
``sweep`` reads it from ``finite_field.sweep_row`` without loading
this module; the name still resolves here through ``__getattr__``, for
the benchmark's tracer.
"""

from collections import Counter
from math import comb, lcm

from .abelian_group import owner_type
from .errors import DimensionTooLarge
from .finite_field import _gf2_mask, divisor_count
from .group_algebra import _character_values, get_algebra, primitive_idempotents

# The largest dimension ``_route`` enumerates.  The benchmark's tracer
# (perfbench/tracer.py) imports it under this name; rename or delete the
# name once bound hits are recorded inside the program (ROADMAP item 1).
DEFAULT_DIMENSION_CAP = 24


# The benchmark's tracer (perfbench/tracer.py) wraps ``tau_sweep`` of
# ``abelian_group`` under this module's name; delete ``__getattr__`` once
# spans are recorded inside the program (ROADMAP item 1).
def __getattr__(name):
    if name != "tau_sweep":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import abelian_group

    value = globals()[name] = abelian_group.tau_sweep
    return value


class MinimalCode:
    """The ideal F_qG * e for a primitive idempotent e of a character of
    order o, held at length o.

    The ideal is the cyclic code C_o with each coordinate repeated
    ``repeat`` = |G|/o times, so weights scale by ``repeat``.  ``row`` is
    the idempotent's length-o row in Z_o order, whose shifts span C_o, and
    ``dimension`` is ord_o(q); a basis is built only where one is read
    (``basis._basis``)."""

    __slots__ = ("algebra", "generator", "dimension", "repeat", "row")

    def __init__(self, algebra, generator, dimension, repeat, row):
        self.algebra = algebra
        self.generator = generator
        self.dimension = dimension
        self.repeat = repeat
        self.row = row

    def __repr__(self):
        return "MinimalCode(dim=%d, orbit_rep=%r)" % (
            self.dimension, self.generator.orbit_rep,
        )


class WeightDistribution:
    """Exact histogram weight -> codeword count over the whole code."""

    __slots__ = ("histogram", "dimension", "field_order")

    def __init__(self, histogram, dimension, field_order):
        self.histogram = dict(sorted(histogram.items()))
        self.dimension = dimension
        self.field_order = field_order

    @property
    def total(self):
        return sum(self.histogram.values())

    def min_nonzero(self):
        return min(w for w in self.histogram if w > 0)

    def as_pairs(self):
        return [[w, c] for w, c in self.histogram.items()]

    def __eq__(self, other):
        return (
            isinstance(other, WeightDistribution)
            and self.histogram == other.histogram
        )

    def __repr__(self):
        return "WeightDistribution(%r)" % (self.histogram,)


def minimal_code(algebra, e):
    """The minimal code of the primitive idempotent e, at length o.

    For the character of e, of order o, the coefficient at g depends only
    on t(g) in Z_o (``_character_values``), so the ideal is the cyclic
    code C_o spanned by the shifts of the idempotent's length-o row
    (``PrimitiveIdempotent.row``), with coordinate t standing for the
    |G|/o elements g with t(g) = t.  Its dimension is ord_o(q), read off
    ``e.dimension``; nothing is row-reduced here."""
    return MinimalCode(algebra, e, e.dimension, algebra.group.order // len(e.row), e.row)


_LOW_TABLE_MAX = 4096


def _packing(ctx, n):
    """How a vector of n raw coefficients is held in one int: m base-p
    digits per coordinate (``ctx.coeffs``), one slot per digit of 1 bit
    over GF(2) and otherwise of 2s bits, s = (p-1).bit_length(), so that
    a slot-wise sum up to 2p - 2 cannot carry into its neighbour.  Returns
    (pack, add, weights, width): pack maps a vector to its int (over GF(2)
    its bitmask, ``_gf2_mask``); add is the slot-wise sum mod p (xor over
    GF(2); otherwise adding 2^(s+1) - p to every slot sets bit s + 1
    exactly where the sum reached p); weights maps an iterable of packed
    ints to their numbers of coordinates with a nonzero digit, counted in
    C; width is the number of bits per coordinate."""
    p, m = ctx.p, ctx.m
    s = (p - 1).bit_length()
    slot = s if p == 2 else 2 * s
    width = m * slot
    zero, coeffs = ctx.zero, ctx.coeffs

    def pack(vector):
        out = 0
        for k, c in enumerate(vector):
            if c != zero:
                for d, digit in enumerate(coeffs(c), k * m):
                    out |= digit << (d * slot)
        return out

    ones = sum(1 << (slot * i) for i in range(n * m))
    pad = ones * ((1 << (s + 1)) - p)

    def add(a, b):
        t = a + b
        return t - ((t + pad) >> (s + 1) & ones) * p

    starts = sum(1 << (k * width) for k in range(n))  # lowest bit per coordinate
    if width == 1:
        def weights(xs):
            return map(int.bit_count, xs)
    else:
        # a coordinate is nonzero iff its low width-1 bits, plus all ones
        # there, carry into its top bit, or that top bit is already set
        rest = starts * ((1 << (width - 1)) - 1)
        tops = starts << (width - 1)

        def weights(xs):
            xs = list(xs)
            lifted = map(rest.__add__, map(rest.__and__, xs))
            return map(int.bit_count, map(tops.__and__, map(int.__or__, lifted, xs)))

    return _gf2_mask if width == 1 else pack, int.__xor__ if p == 2 else add, weights, width


def _p_generators(ctx, rows, pack):
    """The packed words a * b for each row b and each a of the GF(p)-basis
    1, x, .., x^(m-1) of GF(q): their GF(p)-span is the rows' GF(q)-span."""
    m = ctx.m
    if m == 1:
        return [pack(b) for b in rows]
    powers = [ctx.raw_from_coeffs([int(i == j) for i in range(m)]) for j in range(m)]
    return [pack([ctx.mul(a, c) for c in b]) for b in rows for a in powers]


def _span_table(gens, add, p):
    """Every GF(p)-combination of the packed generators, in a fixed order."""
    table = [0]
    for g in gens:
        multiple, grown = 0, list(table)
        for _ in range(p - 1):
            multiple = add(multiple, g)
            grown.extend(add(t, multiple) for t in table)
        table = grown
    return table


def _span_weights(ctx, row, n):
    """Weight -> count over the GF(q)-span of the first n shifts of the
    length-o row, which must be independent, by enumerating every codeword
    once.

    Every codeword is one GF(p)-combination of the m * n generators of
    ``_p_generators``, each packed into one int (``_packing``).  The span
    of the first generators is tabulated once (at most 4096 entries); the
    others are walked in modular p-ary Gray order on the high part h, where
    step k adds the generator numbered v_p(k).  As h runs over a
    GF(p)-space so does -h, so low - h meets every codeword once, and its
    weight is the number of coordinates of h ^ low with a nonzero slot,
    counted over the table in C.  Over GF(2) this is a Gray-code walk with
    popcounts.
    """
    o, p = len(row), ctx.p
    pack, add, weights, width = _packing(ctx, o)
    gens = _p_generators(ctx, ([row[(t - s) % o] for t in range(o)] for s in range(n)), pack)
    low = 0
    while low < len(gens) and p ** (low + 1) <= _LOW_TABLE_MAX:
        low += 1
    table = _span_table(gens[:low], add, p)

    hist = Counter(weights(table))
    h = 0
    high = gens[low:]
    for step in range(1, p ** len(high)):
        j = 0
        while step % p == 0:  # step k moves the digit v_p(k)
            step //= p
            j += 1
        h = add(h, high[j])
        hist.update(weights(map(h.__xor__, table)))
    return hist


def _macwilliams(dual_hist, n, q, dual_dim):
    """Weight -> count of a code of length n from the histogram of its
    dual of dimension dual_dim: A_w = q^-dual_dim * sum_i B_i K_w(i) with
    the Krawtchouk polynomial
    K_w(i) = sum_j (-1)^j (q-1)^(w-j) C(i, j) C(n-i, w-j)."""
    size = q ** dual_dim
    hist = {}
    for w in range(n + 1):
        total = sum(
            b * sum((-1) ** j * (q - 1) ** (w - j) * comb(i, j) * comb(n - i, w - j)
                    for j in range(max(0, w - n + i), min(w, i) + 1))
            for i, b in dual_hist.items())
        count, rest = divmod(total, size)
        assert not rest, "MacWilliams sum not divisible by the dual's size"
        if count:
            hist[w] = count
    return hist


_STEP_COST = 4  # one coset-walk step, in enumerated words
# one product by a coefficient of g(x) in a step without tables, against
# 0.7 us per enumerated GF(3) word: 0.4-1.8 us over GF(p) (GF(3), GF(5),
# p ~ 10^5..10^6), 2.2-7.6 us over GF(8) and GF(9)
_PRODUCT_COST = 2
_TABLE_BOUND = 2 ** 20  # coset-walk table words: about 190 bytes each
_ENUMERATION_BOUND = 2 ** 25  # words: about 20 s over GF(3)


def _route(ctx, o, k):
    """(route, work) for the minimum weight of C_o of dimension k, with the
    work in enumerated words.  This is the one place that decides whether a
    code is enumerated, bounded or refused.

    Enumerating C_o, or its dual when o - k < k (routes ``span`` and
    ``dual``), costs q^min(k, o - k) words; above _LOW_TABLE_MAX the coset
    walk is taken when it costs less.  Each of its N = (q^k - 1)/lcm(o,
    q - 1) steps is either two lookups in tables of T = q^ceil(k/2) +
    q^floor(k/2) words, _STEP_COST words a step once T words are built
    (``walk``), or about o * k products by g(x), _PRODUCT_COST words each
    over GF(p) and five times that over an extension (``step``).  The
    tables are built when they cost less than the products they save and
    hold at most _TABLE_BOUND words.  Above DEFAULT_DIMENSION_CAP, or past
    _ENUMERATION_BOUND, the route is the two-vector bound (``bound``), of
    work (q - 1) * k^2, and past _ENUMERATION_BOUND that one is ``refused``."""
    q = ctx.order
    if k <= DEFAULT_DIMENSION_CAP:
        words = q ** min(k, o - k)
        route, work = "dual" if o - k < k else "span", words
        if words > _LOW_TABLE_MAX:
            steps = (q ** k - 1) // lcm(o, q - 1)
            half = (k + 1) // 2
            table = q ** half + q ** (k - half)
            product = _PRODUCT_COST * o * k * (1 if ctx.m == 1 else 5) * steps
            walk = table <= _TABLE_BOUND and table < product
            coset = _STEP_COST * steps + (table if walk else product)
            if coset < words:
                route, work = "walk" if walk else "step", coset
        if work <= _ENUMERATION_BOUND:
            return route, work
    work = (q - 1) * k ** 2
    return "bound" if work <= _ENUMERATION_BOUND else "refused", work


def weight_distribution(code):
    """Exact weight histogram of a code that ``_route`` enumerates.

    The code is taken at its length o, as C_o (``MinimalCode.row``), and
    weights are then scaled by ``repeat``.  The route is fixed by q, o and
    k (``_route``): the routes ``walk`` and ``step`` walk one word per
    coset of shifts times scalars (``basis._coset_weights``); ``span`` and
    ``dual`` enumerate (``_span_weights``) the first k shifts of the
    idempotent e = (|G|/o) * row of C_o (p does not divide |G|), or the
    first o - k shifts of its dual's idempotent 1 - e(x^-1) (MacWilliams
    and Sloane, ch. 8), and a dual's histogram is carried back by the
    MacWilliams identity.  The first n shifts of the idempotent of a cyclic
    code of dimension n are independent: its annihilator is (1 - e), whose
    generator polynomial has degree n.  A code that ``_route`` bounds or
    refuses raises DimensionTooLarge, with the work of that route.
    """
    ctx, dim, o = code.algebra.ctx, code.dimension, len(code.row)
    route, work = _route(ctx, o, dim)
    if route in ("bound", "refused"):
        raise DimensionTooLarge("weight enumeration bounded", dimension=dim,
                                cap=DEFAULT_DIMENSION_CAP, work=work, bound=_ENUMERATION_BOUND)
    if route in ("walk", "step"):
        from .basis import _coset_weights

        hist = _coset_weights(ctx, code.row, dim, route == "walk")
    elif route == "dual":
        e = ctx.from_int(code.repeat)
        dual = [ctx.sub(ctx.zero if t else ctx.one, ctx.mul(e, code.row[-t % o]))
                for t in range(o)]
        hist = _macwilliams(_span_weights(ctx, dual, o - dim), o, ctx.order, o - dim)
    else:
        hist = _span_weights(ctx, code.row, dim)
    return WeightDistribution(
        {w * code.repeat: c for w, c in hist.items()}, dim, ctx.order)


def min_weight_or_bound(code):
    """(value, exact), by the route of ``_route``: the exact minimum of
    ``weight_distribution`` when the code is enumerated; on route ``bound``,
    ``basis._two_vector_bound`` on the RREF of C_o with columns in
    first-appearance order (``basis._basis``), scaled by ``repeat``, which can
    only overestimate the true minimum, flagged exact=False; on route
    ``refused``, DimensionTooLarge."""
    ctx, dim = code.algebra.ctx, code.dimension
    route = _route(ctx, len(code.row), dim)[0]
    if route == "refused":
        raise DimensionTooLarge("two-vector bound bounded", dimension=dim,
                                field_order=ctx.order, bound=_ENUMERATION_BOUND)
    if route != "bound":
        return weight_distribution(code).min_nonzero(), True
    from .basis import _basis, _two_vector_bound

    # columns by the first appearance of each t in G (``minimal_code``)
    columns = list(dict.fromkeys(_character_values(code.algebra.group,
                                                   code.generator.orbit_rep)[1]))
    return _two_vector_bound(ctx, _basis(ctx, code.row, dim, columns)) * code.repeat, False


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class CodeRecord:
    __slots__ = ("code", "dimension", "min_weight", "min_weight_exact", "distribution")

    def __init__(self, code, mw, exact, distribution):
        self.code = code
        self.dimension = code.dimension
        self.min_weight = mw
        self.min_weight_exact = exact
        self.distribution = distribution


class CodeClass:
    __slots__ = ("representative", "members", "size")

    def __init__(self, representative, members):
        self.representative = representative
        self.members = members
        self.size = len(members)


class ClassificationReport:
    """All minimal codes of F_qG with their equivalence-class grouping."""

    __slots__ = ("group", "ctx", "codes", "classes", "class_count", "tau",
                 "homocyclic", "matches_tau")

    def __init__(self, group, ctx, codes, classes):
        self.group = group
        self.ctx = ctx
        self.codes = codes
        self.classes = classes
        self.class_count = len(classes)
        self.tau = divisor_count(group.exponent)
        self.homocyclic = len(set(group.divisors)) <= 1
        self.matches_tau = self.class_count == self.tau

    def to_dict(self):
        def entry(rec, **head):  # head, then the record's metrics
            out = dict(head, dimension=rec.dimension, min_weight=rec.min_weight,
                       min_weight_exact=rec.min_weight_exact)
            if rec.distribution is not None:
                out["distribution"] = rec.distribution.as_pairs()
            return out

        def ref(rec):
            return list(rec.code.generator.orbit_rep)

        codes = [entry(r, idempotent_ref=ref(r), phi_subgroup=[
            list(g) for g in r.code.generator.phi_subgroup.generators]) for r in self.codes]
        classes = [entry(c.representative, representative=ref(c.representative),
                         members=[ref(m) for m in c.members], size=c.size)
                   for c in self.classes]
        return {
            "group": self.group.spec_string(),
            "field": self.ctx.spec_string(),
            "codes": codes,
            "classes": classes,
            "class_count": self.class_count,
            "tau": self.tau,
            "homocyclic": self.homocyclic,
            "thm56_match": self.matches_tau,
        }


def classify(group, ctx, with_distributions=False):
    """Compute every minimal code of F_qG, group them into G-equivalence
    classes, and compare the class count with tau(exp G).

    A code of character k is classed by ``owner_type(group, k)``, the type
    of G/<k>: by the paper's criterion two minimal codes are G-equivalent
    exactly when their owning co-cyclic subgroups are isomorphic.

    A code's weight distribution depends only on the order o of its
    character (it is C_o with every coordinate repeated |G|/o times), so
    it is computed once per distinct o that ``_route`` enumerates.  A class
    that ``_route`` bounds takes the two-vector bound of its first member,
    which depends on that member's basis, for every member: equivalent
    codes have one minimum weight, so a class prints one value."""
    algebra = get_algebra(group, ctx)
    codes = [minimal_code(algebra, ide) for ide in primitive_idempotents(group, ctx)]
    # in this order each class, and the list of classes, comes out sorted; the
    # codes of one cyclic subgroup share one owner Subgroup (``_owners``), so they
    # sit side by side, compare their keys' index tuples by identity, and take
    # its type once
    codes.sort(key=lambda c: (c.generator.phi_subgroup.indices, c.generator.orbit_rep))
    by_type, owner = {}, None
    for c in codes:
        if c.generator.phi_subgroup is not owner:
            owner = c.generator.phi_subgroup
            members = by_type.setdefault(owner_type(group, c.generator.orbit_rep), [])
        members.append(c)
    records = []
    classes = []
    by_order = {}
    for members in by_type.values():
        first, shared = members[0], None
        o = len(first.row)
        if _route(ctx, o, first.dimension)[0] not in ("bound", "refused"):
            if o not in by_order:
                by_order[o] = weight_distribution(first)
            dist = by_order[o]
            mw, exact = dist.min_nonzero(), True
            if with_distributions:
                shared = dist
        else:
            mw, exact = min_weight_or_bound(first)
        members = [CodeRecord(c, mw, exact, shared) for c in members]
        records.extend(members)
        classes.append(CodeClass(members[0], members))
    records.sort(key=lambda r: r.code.generator.orbit_rep)
    return ClassificationReport(group, ctx, records, classes)

