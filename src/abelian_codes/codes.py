"""Minimal abelian codes as minimal ideals of F_qG.

A minimal code is the ideal generated by one primitive idempotent.  This
module computes dimensions, exact weight distributions, and the grouping of
codes into equivalence classes under linear extensions of group
automorphisms, plus closed-form reference tables for two families where
the class structure is known exactly.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb

from .abelian_group import Subgroup, owner_type
from .errors import (
    AlgebraMismatch,
    DimensionTooLarge,
    DomainError,
    HypothesisFails,
)
from .finite_field import divisor_count, divisors, euler_phi, factorize, mul_order
from .group_algebra import (
    AlgebraElement,
    PrimitiveIdempotent,
    _character_values,
    _check_char,
    cocyclic_idempotent,
    get_algebra,
    hat,
    primitive_idempotents,
    row_reduce_raw,
)

DEFAULT_DIMENSION_CAP = 24


class MinimalCode:
    """The ideal F_qG * e for a primitive idempotent e, with a row-reduced
    basis in group enumeration order.

    ``short`` spans the same code at length |G|/repeat: each of its
    coordinates stands for ``repeat`` coordinates of the basis, so weights
    scale by ``repeat``.  For the idempotent of a character of order o it
    is the cyclic code C_o (length o, repeat |G|/o); otherwise it is the
    basis itself."""

    __slots__ = ("algebra", "generator", "basis", "dimension", "short", "repeat")

    def __init__(self, algebra, generator, basis, short=None, repeat=1):
        self.algebra = algebra
        self.generator = generator
        self.basis = basis
        self.dimension = len(basis)
        self.short = [b.coeffs for b in basis] if short is None else short
        self.repeat = repeat

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


def _row_reduce_gf2(rows, rank=None):
    """Reduced row-echelon form of bitmask rows; `rank` as in
    row_reduce_raw."""
    basis = []
    pivots = []
    for r in rows:
        for pc, b in zip(pivots, basis):
            if (r >> pc) & 1:
                r ^= b
        if r == 0:
            continue
        pc = (r & -r).bit_length() - 1
        for k in range(len(basis)):
            if (basis[k] >> pc) & 1:
                basis[k] ^= r
        basis.append(r)
        pivots.append(pc)
        if len(basis) == rank:
            break
    if rank is not None and len(basis) < rank:
        raise AssertionError("rows span %d dimensions, expected %d" % (len(basis), rank))
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order]


def _reduce(rows, ctx, width, rank=None):
    """row_reduce_raw of raw rows of the given width; over GF(2) the rows
    are reduced as bitmasks."""
    if ctx.order != 2:
        return row_reduce_raw(rows, ctx, rank)
    masks = (sum(c << i for i, c in enumerate(r)) for r in rows)
    return [tuple(m >> i & 1 for i in range(width))
            for m in _row_reduce_gf2(masks, rank)]


def minimal_code(algebra, e):
    """Row-reduced basis of the ideal generated by e.

    For a primitive idempotent of a character of order o the coefficient
    at g depends only on t(g) in Z_o (``_character_values``), so the ideal
    is the cyclic code C_o spanned by the shifts of that length-o row,
    lifted through t.  Its columns are put in the order in which each
    value of t first appears in G: then the lifted RREF is the RREF of all
    |G| translates, and the reduction stops at its known dimension
    mul_order(q, o).  A bare element is reduced over all |G| translates."""
    group, ctx = algebra.group, algebra.ctx
    if not isinstance(e, PrimitiveIdempotent):
        translates = (e.translated(g).coeffs for g in group.elements)
        basis = _reduce(translates, ctx, group.order)
        return MinimalCode(algebra, PrimitiveIdempotent(e, (), None),
                           [AlgebraElement(algebra, b) for b in basis])
    o, ts = _character_values(group, e.orbit_rep)
    first = {}
    for g, t in enumerate(ts):
        first.setdefault(t, g)
    columns = list(first)  # values of t by first appearance
    row = [e.element.coeffs[first[t]] for t in range(o)]
    shifts = ([row[(t - s) % o] for t in columns] for s in range(o))
    short = _reduce(shifts, ctx, o, mul_order(ctx.order, o))
    place = {t: j for j, t in enumerate(columns)}
    lift = [place[t] for t in ts]
    basis = [AlgebraElement(algebra, [b[j] for j in lift]) for b in short]
    return MinimalCode(algebra, e, basis, short, group.order // o)


_LOW_TABLE_MAX = 4096


def _packed_adder(p, s, slots):
    """Slot-wise sum mod p of two ints packed with s-bit digit slots.

    Over p = 2 that is xor.  Otherwise the even and the odd slots are added
    in separate lanes, where each digit has 2s bits of room, so a sum up to
    2p - 2 cannot carry into its neighbour; adding 2^(s+1) - p to every
    slot sets bit s + 1 exactly where the sum reached p.
    """
    if p == 2:
        return int.__xor__
    ones = sum(1 << (2 * s * i) for i in range((slots + 1) // 2))
    even = ones * ((1 << s) - 1)
    pad = ones * ((1 << (s + 1)) - p)

    def lane(a, b):
        t = (a & even) + (b & even)
        return t - ((t + pad) >> (s + 1) & ones) * p

    def add(a, b):
        return lane(a, b) | lane(a >> s, b >> s) << s

    return add


def _packing(ctx, n):
    """How a vector of n raw coefficients is held in one int: m base-p
    digits per coordinate (``ctx.coeffs``), one slot of (p-1).bit_length()
    bits per digit.  Returns (pack, add, weights): pack maps a vector to
    its int, add is the slot-wise sum mod p, and weights maps an iterable
    of packed ints to their numbers of coordinates with a nonzero digit,
    counted in C."""
    p, m = ctx.p, ctx.m
    s = (p - 1).bit_length()
    width = m * s  # bits per coordinate
    zero, coeffs = ctx.zero, ctx.coeffs

    def pack(vector):
        out = 0
        for k, c in enumerate(vector):
            if c != zero:
                for d, digit in enumerate(coeffs(c), k * m):
                    out |= digit << (d * s)
        return out

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

    return pack, _packed_adder(p, s, n * m), weights


def _span_weights(ctx, rows, n):
    """Weight -> count over the GF(q)-span of independent raw rows of
    length n, by enumerating every codeword once.

    The GF(q)-span of the rows {b_i} is the GF(p)-span of {x^j * b_i},
    j < m, so every codeword is one GF(p)-combination of m * dim
    generators, each packed into one int (``_packing``).  The span of the
    first generators is tabulated once (at most 4096 entries); the others
    are walked in modular p-ary Gray order on the negated high part nh,
    where step k adds the negation of the generator numbered v_p(k).  A
    coordinate of a codeword low - nh is zero exactly when its digits of
    low and nh agree, so the weight is the number of coordinates of
    nh ^ low with a nonzero slot, counted over the table in C.  Over GF(2)
    this is a Gray-code walk with popcounts.
    """
    p, m = ctx.p, ctx.m
    pack, add, weights = _packing(ctx, n)
    mul, neg = ctx.mul, ctx.neg
    powers = [ctx.raw_from_coeffs([int(i == j) for i in range(m)]) for j in range(m)]
    gens, negs = [], []
    for b in rows:
        for a in powers:
            v = [mul(a, c) for c in b]
            gens.append(pack(v))
            negs.append(pack(map(neg, v)))

    low = 0
    while low < len(gens) and p ** (low + 1) <= _LOW_TABLE_MAX:
        low += 1
    table = [0]
    for g in gens[:low]:
        multiple, grown = 0, list(table)
        for _ in range(p - 1):
            multiple = add(multiple, g)
            grown.extend(add(t, multiple) for t in table)
        table = grown

    hist = Counter(weights(table))
    nh = 0
    negs = negs[low:]
    for step in range(1, p ** len(negs)):
        j = 0
        while step % p == 0:  # step k moves the digit v_p(k)
            step //= p
            j += 1
        nh = add(nh, negs[j])
        hist.update(weights(map(nh.__xor__, table)))
    return hist


def _dual_rows(rows, ctx, n):
    """A basis of the dual of the span of the rows: one vector per free
    column f of their RREF, 1 at f and minus column f at the pivots."""
    rref = row_reduce_raw(rows, ctx)
    pivots = [next(i for i, c in enumerate(r) if c != ctx.zero) for r in rref]
    out = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [ctx.zero] * n
        v[f] = ctx.one
        for pc, r in zip(pivots, rref):
            v[pc] = ctx.neg(r[f])
        out.append(v)
    return out


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


def weight_distribution(code, cap=DEFAULT_DIMENSION_CAP):
    """Exact weight histogram of a code of dimension at most the cap.

    The code is taken at its short length n (``MinimalCode.short``), and
    whichever of it and its dual, of dimension n - dim, is smaller is
    enumerated (``_span_weights``); a dual's histogram is carried back by
    the MacWilliams identity.  Weights are then scaled by ``repeat``.
    """
    dim = code.dimension
    if dim > cap:
        raise DimensionTooLarge(
            "weight enumeration bounded", dimension=dim, cap=cap
        )
    ctx = code.algebra.ctx
    n = code.algebra.group.order // code.repeat
    if n - dim < dim:
        dual = _dual_rows(code.short, ctx, n)
        hist = _macwilliams(_span_weights(ctx, dual, n), n, ctx.order, len(dual))
    else:
        hist = _span_weights(ctx, code.short, n)
    return WeightDistribution(
        {w * code.repeat: c for w, c in hist.items()}, dim, ctx.order)


def min_weight(code, cap=DEFAULT_DIMENSION_CAP):
    """Smallest nonzero codeword weight, by exact enumeration."""
    return weight_distribution(code, cap).min_nonzero()


def min_weight_or_bound(code, cap=DEFAULT_DIMENSION_CAP):
    """(value, exact): exact minimum when the dimension is within the cap;
    otherwise the minimum over spans of at most two basis vectors, which
    can only overestimate the true minimum, flagged exact=False.

    weight(s*v_i + t*v_j) = weight(v_i + (t/s)*v_j), so the words v_i and
    v_i + t*v_j (i < j, t != 0) cover every such span.  They are taken on
    the short basis, whose weights scale by ``repeat``."""
    if code.dimension <= cap:
        return min_weight(code, cap), True
    ctx = code.algebra.ctx
    pack, add, weights = _packing(ctx, code.algebra.group.order // code.repeat)
    nonzero = [t for t in ctx.elements() if t != ctx.zero]
    vectors = [pack(b) for b in code.short]
    multiples = [[pack([ctx.mul(t, c) for c in b]) for t in nonzero]
                 for b in code.short]
    sums = [add(v, w) for i, v in enumerate(vectors)
            for ws in multiples[i + 1:] for w in ws]
    return min(weights(vectors + sums)) * code.repeat, False


def equivalent(code1, code2, auts):
    """True iff some automorphism in auts carries one owning subgroup to
    the other: G-equivalence when auts = Aut(G).  By the paper's criterion
    that holds iff the owners are isomorphic (``owner_type``, which
    classify uses); this search is the independent check."""
    if code1.algebra != code2.algebra:
        raise AlgebraMismatch("codes from different algebras")
    H1 = code1.generator.phi_subgroup
    H2 = code2.generator.phi_subgroup
    if H1 is None or H2 is None:
        raise AlgebraMismatch("codes lack owning subgroups")
    if H1.order != H2.order:
        return False  # bijections preserve subgroup order
    return any(frozenset([psi.perm[i] for i in H1.indices]) == H2._set for psi in auts)


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
                 "homocyclic", "matches_tau", "family_primitive")

    def __init__(self, group, ctx, codes, classes, family_primitive):
        self.group = group
        self.ctx = ctx
        self.codes = codes
        self.classes = classes
        self.class_count = len(classes)
        self.tau = divisor_count(group.exponent)
        self.homocyclic = len(set(group.divisors)) <= 1
        self.matches_tau = self.class_count == self.tau
        self.family_primitive = family_primitive

    def to_dict(self):
        def subgroup_gens(H):
            return [list(g) for g in H.generators]

        def code_entry(rec):
            entry = {
                "idempotent_ref": list(rec.code.generator.orbit_rep),
                "phi_subgroup": subgroup_gens(rec.code.generator.phi_subgroup),
                "dimension": rec.dimension,
                "min_weight": rec.min_weight,
                "min_weight_exact": rec.min_weight_exact,
            }
            if rec.distribution is not None:
                entry["distribution"] = rec.distribution.as_pairs()
            return entry

        classes = []
        for cls in self.classes:
            rep = cls.representative
            entry = {
                "representative": list(rep.code.generator.orbit_rep),
                "members": [list(m.code.generator.orbit_rep) for m in cls.members],
                "size": cls.size,
                "dimension": rep.dimension,
                "min_weight": rep.min_weight,
                "min_weight_exact": rep.min_weight_exact,
            }
            if rep.distribution is not None:
                entry["distribution"] = rep.distribution.as_pairs()
            classes.append(entry)
        return {
            "group": self.group.spec_string(),
            "field": self.ctx.spec_string(),
            "codes": [code_entry(r) for r in self.codes],
            "classes": classes,
            "class_count": self.class_count,
            "tau": self.tau,
            "homocyclic": self.homocyclic,
            "thm56_match": self.matches_tau,
        }


def classify(group, ctx, with_distributions=False, dimension_cap=DEFAULT_DIMENSION_CAP):
    """Compute every minimal code of F_qG, group them into G-equivalence
    classes, and compare the class count with tau(exp G).

    A code of character k is classed by ``owner_type(group, k)``, the type
    of G/<k>: by the paper's criterion two minimal codes are G-equivalent
    exactly when their owning co-cyclic subgroups are isomorphic.

    A code's weight distribution depends only on the order o of its
    character (it is C_o with every coordinate repeated |G|/o times), so
    it is computed once per distinct o within the cap and shared.  A code
    above the cap gets its own two-vector bound, which depends on its
    basis."""
    prims = primitive_idempotents(group, ctx)
    algebra = get_algebra(group, ctx)
    codes = [minimal_code(algebra, ide) for ide in prims]

    # the owner map is onto the extended co-cyclic family, so every family
    # idempotent is primitive exactly when no two primitives share an owner
    family_primitive = len(prims) == len({ide.phi_subgroup.indices for ide in prims})
    # in this order each class, and the list of classes, comes out sorted
    codes.sort(key=lambda c: (c.generator.phi_subgroup.indices, c.generator.orbit_rep))
    by_type = {}
    for c in codes:
        by_type.setdefault(owner_type(group, c.generator.orbit_rep), []).append(c)
    records = []
    classes = []
    by_order = {}
    for members in by_type.values():
        if members[0].dimension <= dimension_cap:
            o = group.element_order(members[0].generator.orbit_rep)
            if o not in by_order:
                by_order[o] = weight_distribution(members[0], dimension_cap)
            dist = by_order[o]
            mw = dist.min_nonzero()
            shared = dist if with_distributions else None
            members = [CodeRecord(c, mw, True, shared) for c in members]
        else:
            members = [
                CodeRecord(c, *min_weight_or_bound(c, dimension_cap), None)
                for c in members
            ]
        records.extend(members)
        classes.append(CodeClass(members[0], members))
    records.sort(key=lambda r: r.code.generator.orbit_rep)
    return ClassificationReport(group, ctx, records, classes, family_primitive)


def tau_sweep(groups, ctx):
    """For each group: the equivalence-class count of its minimal codes
    against tau(exp G), plus the homocyclic flag.

    By the paper's criterion the classes are the isomorphism types of the
    owners annihilator(G, <k>) (G itself for k = 0): the count of distinct
    ``owner_type(group, k)``.  Scaling each k_i by a unit is an automorphism,
    so the prod tau(d_i) tuples with each k_i dividing d_i reach every type.
    No element, subgroup, automorphism or idempotent is built.
    """
    rows = []
    for group in groups:
        _check_char(group, ctx)
        reps = itertools.product(*[[c % d for c in divisors(d)] for d in group.divisors])
        count = len({owner_type(group, k) for k in reps})
        tau = divisor_count(group.exponent)
        rows.append({
            "group": group.spec_string(),
            "class_count": count,
            "tau": tau,
            "homocyclic": len(set(group.divisors)) <= 1,
            "match": count == tau,
        })
    return rows


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
    r+1 = tau(p^r) classes."""
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
    return rows, r + 1


def verify_tables(group, ctx, dimension_cap=DEFAULT_DIMENSION_CAP):
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
        rows, expected_classes = _table_rows_homocyclic(group, ctx, p, r, m)
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
        rows, expected_orbits, expected_classes = _table_rows_rank2(group, ctx, p, n)
    else:
        raise DomainError(
            "no built-in reference table covers this group",
            group=group.spec_string(),
        )

    prims = primitive_idempotents(group, ctx)
    by_element = {ide.element: ide for ide in prims}
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
        push(row["label"], "dimension", row["dimension"], code.dimension)
        mw, exact = min_weight_or_bound(code, dimension_cap)
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
    from .abelian_group import all_subgroups, group_make

    divisors = group.divisors
    if len(set(divisors)) > 1:
        raise DomainError("group is not homocyclic", group=group.spec_string())
    n = divisors[0] if divisors else 1
    m = len(divisors)
    e = ide.element if isinstance(ide, PrimitiveIdempotent) else ide
    algebra = get_algebra(group, ctx)
    cyclic = group_make([n] if n > 1 else [])
    cyclic_prims = primitive_idempotents(cyclic, ctx)

    target_type = tuple([n] * (m - 1))
    candidates_K = [
        S for S in all_subgroups(group) if S.invariant_factors() == target_type
    ]
    order_n_elements = [g for g in group.elements if group.element_order(g) == n]
    for K in candidates_K:
        hatK = hat(K, ctx)
        for h in order_n_elements:
            if any(group.scale(k, h) in K for k in range(1, n)):
                continue  # <h> meets K, not a complement
            for f in cyclic_prims:
                embedded = [ctx.zero] * group.order
                for k in range(n):
                    embedded[group.index_of(group.scale(k, h))] = f.element.coeffs[
                        cyclic.index_of((k,)) if n > 1 else 0
                    ]
                e_h = AlgebraElement(algebra, embedded)
                if hatK * e_h == e:
                    return K, group.element(h), e_h
    return None
