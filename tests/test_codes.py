import json
import random
import tracemalloc
from functools import lru_cache
from itertools import islice, product
from math import comb, gcd

import pytest
import sweep_oracle
from dense_oracle import dense_basis, lifted_basis
from hypothesis import given, settings, strategies as st
from orbit_oracle import orbit_tau_sweep
from owner_type_oracle import owner_type_class_count
from weight_oracle import coset_generator_rules, oracle_histogram, oracle_two_vector_bound

from abelian_codes import (
    AlgebraElement,
    AlgebraMismatch,
    CharDividesOrder,
    DimensionTooLarge,
    GroupMismatch,
    HypothesisFails,
    Subgroup,
    abelian_groups_of_order,
    apply_automorphism,
    automorphisms,
    classify,
    equivalent,
    field_make,
    get_algebra,
    group_make,
    homocyclic_factorization,
    min_weight_or_bound,
    minimal_code,
    mul_order,
    owner_type,
    primitive_idempotents,
    sylow_decompose,
    tau_sweep,
    verify_tables,
    weight_distribution,
)
from abelian_codes.reference import aut_order, subgroup_type
import abelian_codes.basis as basis_module
import abelian_codes.codes as codes_module
from abelian_codes.basis import _basis, _coset_weights, _two_vector_bound
from abelian_codes.codes import _p_generators, _packing, _route, _span_table, _span_weights
from abelian_codes.errors import DomainError
from abelian_codes.group_algebra import row_reduce_raw

F2 = field_make(2)
dense = AlgebraElement.from_idempotent


def gen(G, *gens):
    return Subgroup.generated(G, list(gens))


def codes_by_subgroup(G, ctx):
    algebra = get_algebra(G, ctx)
    out = {}
    for ide in primitive_idempotents(G, ctx):
        out.setdefault(ide.phi_subgroup, []).append(minimal_code(algebra, ide))
    return out


@pytest.fixture(scope="module")
def c9xc3():
    G = group_make([9, 3])
    return G, codes_by_subgroup(G, F2)


# ---------------------------------------------------------------------------
# dimensions and weights
# ---------------------------------------------------------------------------

def test_minimal_code_dimensions(c9xc3):
    G, codes = c9xc3
    whole = Subgroup.whole(G)
    assert codes[whole][0].dimension == 1
    b_span = gen(G, (1, 0))
    assert codes[b_span][0].dimension == 6       # p^2 - p at p = 3
    a_span = gen(G, (0, 1))
    assert codes[a_span][0].dimension == 2       # p - 1


def test_weight_distribution_examples(c9xc3):
    G, codes = c9xc3
    dist_rep = weight_distribution(codes[Subgroup.whole(G)][0])
    assert dist_rep.histogram == {0: 1, 27: 1}
    code_a = codes[gen(G, (0, 1))][0]            # over <a>
    code_mixed = codes[gen(G, (0, 3), (1, 0))][0]  # over <a^3> x <b>
    d2 = weight_distribution(code_a)
    d3 = weight_distribution(code_mixed)
    assert d2.histogram == {0: 1, 18: 3}
    assert d2 == d3
    assert d2.total == 4


def test_min_weights(c9xc3):
    G, codes = c9xc3

    def min_weight(code):
        return weight_distribution(code).min_nonzero()

    assert min_weight(codes[gen(G, (1, 0))][0]) == 6       # 2p
    assert min_weight(codes[gen(G, (0, 1))][0]) == 18      # 2p^2
    assert min_weight(codes[gen(G, (0, 3), (1, 0))][0]) == 18
    assert min_weight(codes[Subgroup.whole(G)][0]) == 27   # p^3


def test_dim6_code_weights_are_multiples_of_p_without_weight_p(c9xc3):
    G, codes = c9xc3
    dist = weight_distribution(codes[gen(G, (1, 0))][0])
    assert all(w % 3 == 0 for w in dist.histogram)
    assert 3 not in dist.histogram
    assert min(w for w in dist.histogram if w) == 6


def test_even_weight_family_formula(c9xc3):
    # the dim-(p-1) codes have C(p, 2k) words of weight 2k p^2
    G, codes = c9xc3
    p = 3
    dist = weight_distribution(codes[gen(G, (0, 1))][0])
    expected = {0: 1}
    for k in range(1, (p - 1) // 2 + 1):
        expected[2 * k * p * p] = comb(p, 2 * k)
    assert dist.histogram == expected
    assert sum(comb(p, 2 * k) for k in range(1, (p - 1) // 2 + 1)) \
        == 2 ** (p - 1) - 1


def test_generic_field_distribution_against_direct_enumeration():
    import itertools
    G = group_make([4])
    F3 = field_make(3)
    algebra = get_algebra(G, F3)
    for ide in primitive_idempotents(G, F3):
        code = minimal_code(algebra, ide)
        dist = weight_distribution(code)
        # independent oracle: rebuild every codeword from scratch
        hist = {}
        rows = lifted_basis(code)
        for combo in itertools.product(range(3), repeat=code.dimension):
            word = [0] * G.order
            for c, row in zip(combo, rows):
                for i, v in enumerate(row):
                    word[i] = (word[i] + c * v) % 3
            w = sum(1 for v in word if v)
            hist[w] = hist.get(w, 0) + 1
        assert dist.histogram == dict(sorted(hist.items()))
        assert dist.histogram[0] == 1
        assert dist.total == 3 ** code.dimension
        assert max(dist.histogram) <= G.order


# (p, m) of GF(2), GF(3), GF(5), GF(7), GF(4), GF(8), GF(9)
WEIGHT_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


@lru_cache(maxsize=None)
def _minimal_codes_to_25(p, m):
    """Every minimal code of every abelian group of order <= 25 coprime to q."""
    ctx = field_make(p, m)
    out = []
    for n in range(1, 26):
        if gcd(n, ctx.order) != 1:
            continue
        for G in abelian_groups_of_order(n):
            algebra = get_algebra(G, ctx)
            out.extend(minimal_code(algebra, ide) for ide in primitive_idempotents(G, ctx))
    return tuple(out)


@pytest.mark.parametrize("p,m", WEIGHT_FIELDS)
def test_weight_distribution_matches_oracle(p, m):
    # p = 5, 7 pack digits in 3-bit slots; m > 1 packs m digits per coordinate
    # the distribution comes from C_o or, when o - k < k, from its dual
    q = p ** m
    checked = duals = 0
    for code in _minimal_codes_to_25(p, m):
        if q ** code.dimension > 2 ** 16:
            continue
        dist = weight_distribution(code)
        assert dist.histogram == oracle_histogram(code.algebra.ctx, lifted_basis(code)), (
            code.algebra.group.divisors, q, code.generator.orbit_rep)
        assert dist.total == q ** code.dimension
        checked += 1
        duals += 2 * code.dimension > code.algebra.group.order // code.repeat
    assert checked >= 40
    assert duals >= 10


def _cyclic_codes(ctx, o):
    """The minimal codes of F_q C_o whose characters have order o."""
    G = group_make([o])
    algebra = get_algebra(G, ctx)
    return [minimal_code(algebra, ide) for ide in primitive_idempotents(G, ctx)
            if G.element_order(ide.orbit_rep) == o]


@pytest.mark.parametrize("p,m", WEIGHT_FIELDS)
def test_coset_walk_matches_enumeration(p, m):
    # the walk with its tables is called directly, whichever route
    # weight_distribution takes
    ctx = field_make(p, m)
    q = ctx.order
    checked = 0
    for o in range(2, 41):
        if gcd(o, q) != 1 or q ** mul_order(q, o) > 2 ** 16:
            continue
        for code in _cyclic_codes(ctx, o):
            assert _coset_weights(ctx, code.row, code.dimension, True) \
                == _span_weights(ctx, code.row, code.dimension), (
                o, q, code.generator.orbit_rep)
            checked += 1
    assert checked >= 15


@pytest.mark.parametrize("o,p,m", [(11, 3, 2), (21, 5, 1), (31, 2, 3), (23, 3, 1), (13, 3, 1)])
def test_coset_walk_without_tables_matches_enumeration(o, p, m):
    # the step by g(x) that replaces the lookup tables over a large field
    ctx = field_make(p, m)
    for code in _cyclic_codes(ctx, o):
        assert _coset_weights(ctx, code.row, code.dimension, False) \
            == _span_weights(ctx, code.row, code.dimension), (
            o, ctx.order, code.generator.orbit_rep)


@pytest.mark.parametrize("p,m", WEIGHT_FIELDS)
def test_coset_generator_by_one_power_matches_the_table_of_h(monkeypatch, p, m):
    # the walk's generator g is the first candidate passing the one-power
    # test; the table of H up to scalars, the rule it replaced, must agree
    # on every candidate through g and at least the first 32.  The walk's
    # candidates are recorded as lex_tuples yields them
    ctx = field_make(p, m)
    q = ctx.order
    seen, lex_tuples = [], basis_module.lex_tuples

    def recording(elements, d):
        for cs in lex_tuples(elements, d):
            seen.append(cs)
            yield cs

    monkeypatch.setattr(basis_module, "lex_tuples", recording)
    checked = 0
    for o in range(2, 41):
        if gcd(o, q) != 1 or q ** mul_order(q, o) > 2 ** 16:
            continue
        for code in _cyclic_codes(ctx, o):
            k = code.dimension
            seen.clear()
            _coset_weights(ctx, code.row, k, True)
            by_table, by_power = coset_generator_rules(ctx, code.row, k)
            candidates = (list(cs) + [ctx.one] + [ctx.zero] * (k - 1 - d)
                          for d in range(k) for cs in product(ctx.elements(), repeat=d))
            rules = [(by_table(g), by_power(g)) for g in islice(candidates, max(len(seen), 32))]
            assert all(a == b for a, b in rules), (o, q, code.generator.orbit_rep)
            assert rules.index((True, True)) == len(seen) - 1, (o, q, code.generator.orbit_rep)
            checked += 1
    assert checked >= 15


@pytest.mark.parametrize("o,p,m", [(17, 3, 2), (27, 7, 1)])
def test_coset_walk_beyond_enumeration(o, p, m):
    # 9^8 and 7^9 words: the total and the dual distribution must hold
    ctx = field_make(p, m)
    q = ctx.order
    code = _cyclic_codes(ctx, o)[0]
    k = code.dimension
    dist = weight_distribution(code)
    assert dist.total == q ** k
    transform = _macwilliams_transform(dist.histogram, o, q)
    dual = [c // q ** k for c in transform]
    assert [b * q ** k for b in dual] == transform
    assert dual[0] == 1 and min(dual) >= 0 and sum(dual) == q ** (o - k)


@pytest.mark.parametrize("o,p,m", [(23, 3, 2), (25, 3, 2), (23, 2, 3), (26, 7, 1)])
def test_codes_over_the_enumeration_bound_get_the_two_vector_bound(o, p, m):
    ctx = field_make(p, m)
    G = group_make([o])
    for rec in classify(G, ctx).codes:
        over = G.element_order(rec.code.generator.orbit_rep) == o
        route = _route(ctx, len(rec.code.row), rec.code.dimension)[0]
        assert rec.min_weight_exact is not over and (route == "bound") is over
        if over:
            with pytest.raises(DimensionTooLarge):
                weight_distribution(rec.code)
            assert rec.min_weight == oracle_two_vector_bound(ctx, lifted_basis(rec.code))


def test_two_vector_bound_reaches_every_pair_and_scalar():
    # over GF(3) the only word of weight 2 is v1 + 2*v2, a multiplier other
    # than 1; every basis vector has weight 3
    F3 = field_make(3)
    rows = [(1, 1, 1, 0, 0), (1, 1, 0, 1, 0), (0, 0, 1, 1, 1)]
    assert _two_vector_bound(F3, rows) == 2 == oracle_two_vector_bound(F3, rows)


def _traced(f):
    """f() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        value = f()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_vector_bound_holds_one_pair_of_rows_at_a_time():
    # 448 seeded words of length 24 over GF(2), spanning a code, give
    # C(448, 2) = 100,128 pair sums.  Listed, as they were before the
    # minimum streamed, the sums alone take a pointer each (800 KB) and an
    # int each (2.8 MB).  24 words of length 40 over GF(23) have 24 * 22
    # multiples, all held before each row's were built as it is paired; the
    # bound now holds one row's multiples and one pair's sums beside the rows
    for p, count, length in [(2, 448, 24), (23, 24, 40)]:
        rng = random.Random(7)
        ctx = field_make(p)
        rows = [[rng.randrange(p) for _ in range(length)] for _ in range(count)]
        if p == 2:
            assert comb(count, 2) >= 10 ** 5
            limit = comb(count, 2) * 8 // 4  # a quarter of the sums' pointers
        else:
            pack, add = _packing(ctx, length)[:2]

            def multiples(b):
                return _span_table(_p_generators(ctx, [b], pack), add, p)[1:]

            one_row = _traced(lambda: multiples(rows[0]))[1]
            every_row = _traced(lambda: list(map(multiples, rows)))[1]
            assert every_row >= 10 * one_row
            limit = every_row // 2  # half of every row's multiples
        bound, peak = _traced(lambda: _two_vector_bound(ctx, rows))
        assert peak < limit, (p, peak, limit)
        assert bound == oracle_two_vector_bound(ctx, rows), p


@pytest.mark.parametrize("p,m", WEIGHT_FIELDS)
def test_two_vector_bound_matches_dense_oracle(monkeypatch, p, m):
    # the route "bound" for every code sends it to the packed two-vector bound
    monkeypatch.setattr(codes_module, "_route", lambda ctx, o, k: ("bound", 0))
    for code in _minimal_codes_to_25(p, m):
        assert min_weight_or_bound(code) \
            == (oracle_two_vector_bound(code.algebra.ctx, lifted_basis(code)), False), (
            code.algebra.group.divisors, p ** m, code.generator.orbit_rep)


def _dual_ideal_generator(algebra, e):
    """1 - e*, where e* is e with every group element g moved to -g."""
    G, ctx = algebra.group, algebra.ctx
    coeffs = [ctx.zero] * G.order
    for g, c in zip(G.elements, e.coeffs):
        coeffs[G.index_of(G.neg(g))] = ctx.neg(c)
    identity = G.index_of(G.zero)
    coeffs[identity] = ctx.add(coeffs[identity], ctx.one)
    return AlgebraElement(algebra, coeffs)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _macwilliams_transform(hist, n, q):
    """Coefficients in y of sum_w A_w (1 + (q-1)y)^(n-w) (1 - y)^w, which
    is |C| times the weight enumerator of the dual code at x = 1."""
    total = [0] * (n + 1)
    for w, count in hist.items():
        term = [1]
        for _ in range(n - w):
            term = _poly_mul(term, [1, q - 1])
        for _ in range(w):
            term = _poly_mul(term, [1, -1])
        for i, c in enumerate(term):
            total[i] += count * c
    return total


@st.composite
def _group_and_field(draw):
    p, m = draw(st.sampled_from(WEIGHT_FIELDS))
    q = p ** m
    # the dual has dimension at most |G| - 1; keep its span within 2^16 words
    orders = [n for n in range(1, 16)
              if gcd(n, q) == 1 and q ** (n - 1) <= 2 ** 16]
    n = draw(st.sampled_from(orders))
    return draw(st.sampled_from(abelian_groups_of_order(n))), field_make(p, m)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_group_and_field(), pick=st.integers(min_value=0, max_value=255))
def test_macwilliams_identity_with_dual_ideal(case, pick):
    G, ctx = case
    algebra = get_algebra(G, ctx)
    prims = primitive_idempotents(G, ctx)
    code = minimal_code(algebra, prims[pick % len(prims)])
    dual = dense_basis(algebra, _dual_ideal_generator(algebra, dense(code.generator)))
    n, q = G.order, ctx.order
    assert code.dimension + len(dual) == n
    w_code = weight_distribution(code).histogram
    w_dual = oracle_histogram(ctx, dual)
    expected = _macwilliams_transform(w_code, n, q)
    assert [q ** code.dimension * w_dual.get(w, 0) for w in range(n + 1)] == expected


@pytest.mark.parametrize("p,m", WEIGHT_FIELDS)
def test_idempotent_shifts_span_the_code_and_its_dual(p, m):
    # weight_distribution enumerates the first k shifts of a code's row, or
    # the first o - k shifts of the dual idempotent 1 - e(x^-1) with
    # e = (|G|/o) * row: each set is independent, the row's shifts span no
    # more than k dimensions, and the two spans are orthogonal; each
    # (row, e) pair is checked once
    ctx = field_make(p, m)
    checked, seen = 0, set()
    for n in range(1, 41):
        if gcd(n, ctx.order) != 1:
            continue
        for G in abelian_groups_of_order(n):
            algebra = get_algebra(G, ctx)
            for ide in primitive_idempotents(G, ctx):
                code = minimal_code(algebra, ide)
                row, k, o = code.row, code.dimension, len(code.row)
                e = ctx.from_int(code.repeat)
                checked += 1
                if (tuple(row), e) in seen:
                    continue
                seen.add((tuple(row), e))
                dual = [ctx.sub(ctx.one if t == 0 else ctx.zero, ctx.mul(e, row[-t % o]))
                        for t in range(o)]
                shifts = [[row[(t - s) % o] for t in range(o)] for s in range(o)]
                dual_shifts = ([dual[(t - s) % o] for t in range(o)] for s in range(o - k))
                assert len(row_reduce_raw(shifts[:k], ctx)) == k, (G.divisors, ide.orbit_rep)
                assert len(_basis(ctx, row, None)) == k
                assert len(row_reduce_raw(dual_shifts, ctx)) == o - k
                # <x^a d, x^b row> = <d, x^(b-a) row>: d against every
                # shift of the row covers every pair of shifts
                for c in shifts:
                    acc = ctx.zero
                    for a, b in zip(dual, c):
                        acc = ctx.add(acc, ctx.mul(a, b))
                    assert acc == ctx.zero, (G.divisors, ide.orbit_rep)
    assert checked >= 100


@pytest.mark.parametrize("p,m", WEIGHT_FIELDS)
def test_early_stopped_basis_matches_full_reduction(p, m):
    # the basis reduced at length o, read back through t, and the RREF of
    # all |G| translates of the idempotent (over GF(2) as bitmasks) are the
    # RREF of those translates
    ctx = field_make(p, m)
    for n in range(1, 26):
        if gcd(n, ctx.order) != 1:
            continue
        for G in abelian_groups_of_order(n):
            algebra = get_algebra(G, ctx)
            for ide in primitive_idempotents(G, ctx):
                e = dense(ide)
                full = row_reduce_raw([e.translated(g).coeffs for g in G.elements], ctx)
                code = minimal_code(algebra, ide)
                assert lifted_basis(code) == full, (G.divisors, ctx, ide.orbit_rep)
                assert dense_basis(algebra, e) == full


@pytest.mark.parametrize("o,q", [(11, 7), (17, 3), (19, 3), (23, 5)])
def test_sum_zero_code_distribution_closed_form(capsys, o, q):
    # for o prime and q a primitive root mod o, the nontrivial minimal code
    # of F_q C_o is the sum-zero code, of dimension o - 1 (its dual is the
    # repetition code)
    from abelian_codes.cli import run

    assert run(["classify", "--group", str(o), "--field", str(q),
                "--with-distributions", "--format", "json"]) == 0
    codes = json.loads(capsys.readouterr().out)["codes"]
    expected = [[w, comb(o, w) * ((q - 1) ** w + (-1) ** w * (q - 1)) // q]
                for w in range(o + 1)]
    assert codes[1]["dimension"] == o - 1
    assert codes[1]["distribution"] == [pair for pair in expected if pair[1]]


@pytest.mark.parametrize("divisors,p,m,reductions", [
    ([15, 15], 2, 1, 0), ([13, 13], 3, 1, 0), ([11, 11], 2, 2, 0), ([81, 3], 2, 1, 1),
    ([23], 3, 1, 1),
])
def test_classify_reduces_once_per_walk_order_and_bounded_code(
        monkeypatch, divisors, p, m, reductions):
    # the routes span and dual enumerate idempotent shifts unreduced; the
    # coset walk reads one basis of C_o per distinct o (23 over GF(3)), and
    # a bounded class row-reduces only its first member, whose two-vector
    # bound every member prints (81,3 over GF(2): one bounded class of
    # three codes)
    calls = []
    reduce = basis_module._reduce
    monkeypatch.setattr(basis_module, "_reduce",
                        lambda *args: calls.append(args) or reduce(*args))
    G, ctx = group_make(divisors), field_make(p, m)
    report = classify(G, ctx)
    orders = {G.element_order(r.code.generator.orbit_rep)
              for r in report.codes if r.min_weight_exact}
    walks = [o for o in orders if _route(ctx, o, mul_order(ctx.order, o))[0] == "walk"]
    bounded = sum(not c.representative.min_weight_exact for c in report.classes)
    assert len(calls) == len(walks) + bounded == reductions


def test_every_member_of_a_bounded_class_prints_the_class_value(capsys):
    # the own two-vector bounds of the members [1], [2], [4] and [8] of one
    # k = 14 class over GF(5) differ (48, 49, 51, 48), but G-equivalent
    # codes have one minimum weight, so the class prints one value
    from abelian_codes.cli import run

    assert run(["classify", "--group", "87", "--field", "5", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    printed = {tuple(c["idempotent_ref"]): c["min_weight"] for c in report["codes"]}
    assert any(not c["min_weight_exact"] for c in report["classes"])
    for c in report["classes"]:
        assert {printed[tuple(m)] for m in c["members"]} == {c["min_weight"]}, c
    assert [printed[(k,)] for k in (1, 2, 4, 8)] == [48] * 4


@pytest.mark.parametrize("divisors,p", [([9, 3], 2), ([3, 29], 2), ([5, 5, 5], 3)])
def test_classify_builds_no_dense_element_and_no_member_set(monkeypatch, divisors, p):
    # classify reads each idempotent's length-o row and each owner's index
    # tuple: no |G|-length coefficient vector and no owner frozenset
    built = []
    init = AlgebraElement.__init__
    monkeypatch.setattr(AlgebraElement, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    report = classify(group_make(divisors), field_make(p), with_distributions=True)
    report.to_dict()
    assert not built
    assert all(r.code.generator.phi_subgroup._set is None for r in report.codes)


def test_early_stop_rejects_rank_above_span():
    ctx = field_make(3)
    rows = [(1, 0, 0), (2, 0, 0), (0, 1, 0)]
    assert row_reduce_raw(rows, ctx, 2) == [(1, 0, 0), (0, 1, 0)]
    with pytest.raises(AssertionError):
        row_reduce_raw(rows, ctx, 3)


def test_dimension_cap_raises():
    for o, q, k, least in (
        (29, 2, 28, 2),  # over the dimension cap: the even-weight code
        (38, 3, 18, 4),  # over the work bound: C_19 of minimum 2, each word doubled
    ):
        ctx = field_make(q)
        G = group_make([o])
        algebra = get_algebra(G, ctx)
        (code,) = [c for c in (minimal_code(algebra, e) for e in primitive_idempotents(G, ctx))
                   if len(c.row) == o]
        assert code.dimension == k
        with pytest.raises(DimensionTooLarge):
            weight_distribution(code)
        value, exact = min_weight_or_bound(code)
        assert exact is False
        assert value >= least  # restricted enumeration can only overestimate


def test_dimension_sum_is_group_order():
    for divisors, q in (([9, 3], 2), ([9], 7), ([15], 2), ([7], 2), ([3, 15], 2)):
        G = group_make(divisors)
        ctx = field_make(q)
        algebra = get_algebra(G, ctx)
        dims = [minimal_code(algebra, e).dimension
                for e in primitive_idempotents(G, ctx)]
        assert sum(dims) == G.order


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_equivalent_within_and_across_orbits(c9xc3):
    G, codes = c9xc3
    auts = automorphisms(G)
    b_code = codes[gen(G, (1, 0))][0]
    b_shift = codes[gen(G, (1, 3))][0]     # <a^3 b>
    assert equivalent(b_code, b_shift, auts)
    code_a = codes[gen(G, (0, 1))][0]
    code_mixed = codes[gen(G, (0, 3), (1, 0))][0]
    assert not equivalent(code_a, code_mixed, auts)
    assert equivalent(code_a, code_a, auts)


def test_equivalent_rejects_different_algebras(c9xc3):
    G, codes = c9xc3
    other = codes_by_subgroup(group_make([3, 3]), F2)
    some = next(iter(other.values()))[0]
    auts = automorphisms(G)
    with pytest.raises(AlgebraMismatch):
        equivalent(codes[Subgroup.whole(G)][0], some, auts)


def test_equivalent_rejects_automorphisms_of_another_group():
    # C_9 has as many elements as C_3 x C_3, so its permutations of
    # indices would run without error and give a wrong answer
    G = group_make([3, 3])
    algebra = get_algebra(G, F2)
    codes = [minimal_code(algebra, ide) for ide in primitive_idempotents(G, F2)]
    assert len(codes) == 5
    assert equivalent(codes[1], codes[2], automorphisms(G))
    with pytest.raises(GroupMismatch):
        equivalent(codes[1], codes[2], automorphisms(group_make([9])))


def test_equivalent_classes_share_metrics():
    # classify enumerates one member per class; each member's own basis,
    # walked by the oracle, must give that same full histogram
    cases = [([9, 3], 2, 1), ([27, 3], 2, 1), ([23], 3, 1), ([9, 3], 2, 3),
             ([9, 9], 2, 2)]
    for divisors, p, m in cases:
        G = group_make(divisors)
        report = classify(G, field_make(p, m), with_distributions=True)
        assert sum(cls.size for cls in report.classes) == len(report.codes)
        for cls in report.classes:
            hists = [oracle_histogram(rec.code.algebra.ctx, lifted_basis(rec.code))
                     for rec in cls.members]
            assert all(h == hists[0] for h in hists), (divisors, p, m)
            for rec in cls.members:
                assert rec.distribution.histogram == hists[0]
                assert rec.min_weight == min(w for w in hists[0] if w)
                assert rec.min_weight_exact
                assert rec.dimension == cls.representative.dimension


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_c9xc3():
    report = classify(group_make([9, 3]), F2)
    assert len(report.codes) == 8
    assert report.class_count == 4
    assert report.tau == 3
    assert not report.matches_tau
    assert not report.homocyclic
    profile = sorted((c.representative.dimension, c.representative.min_weight,
                      c.size) for c in report.classes)
    assert profile == [(1, 27, 1), (2, 18, 1), (2, 18, 3), (6, 6, 3)]


def test_classify_c3xc3():
    report = classify(group_make([3, 3]), F2)
    assert report.class_count == 2 == report.tau
    assert report.matches_tau and report.homocyclic
    assert sorted((c.representative.dimension, c.representative.min_weight)
                  for c in report.classes) == [(1, 9), (2, 6)]


def test_classify_trivial_group():
    report = classify(group_make([]), F2)
    assert report.class_count == 1 and len(report.codes) == 1
    assert report.codes[0].dimension == 1
    assert report.matches_tau


def test_classify_report_dict_schema():
    report = classify(group_make([9, 3]), F2, with_distributions=True)
    d = report.to_dict()
    assert list(d) == ["group", "field", "codes", "classes", "class_count",
                       "tau", "homocyclic", "thm56_match"]
    assert d["group"] == "3,9"
    assert d["field"] == "2"
    assert d["class_count"] == 4 and d["tau"] == 3 and d["thm56_match"] is False
    for entry in d["codes"]:
        assert list(entry)[:5] == ["idempotent_ref", "phi_subgroup", "dimension",
                                   "min_weight", "min_weight_exact"]
        assert "distribution" in entry
    for entry in d["classes"]:
        assert list(entry)[:3] == ["representative", "members", "size"]


def test_classify_when_primitives_share_an_owner():
    # over GF(7) the codes of C_9 outnumber their owners: 5 codes, 3 owners
    report = classify(group_make([9]), field_make(7))
    owners = {r.code.generator.phi_subgroup for r in report.codes}
    assert len(report.codes) == 5 and len(owners) == report.class_count == 3


# ---------------------------------------------------------------------------
# tau sweep
# ---------------------------------------------------------------------------

def test_tau_sweep_rows():
    rows = tau_sweep([group_make([15]), group_make([9, 3])], F2)
    assert rows[0] == {"group": "15", "class_count": 4, "tau": 4,
                       "homocyclic": True, "match": True}
    assert rows[1] == {"group": "3,9", "class_count": 4, "tau": 3,
                       "homocyclic": False, "match": False}


def test_tau_sweep_agrees_with_full_classification():
    for divisors in ([9, 3], [3, 3], [15], [27], [3, 15], [5, 5]):
        G = group_make(divisors)
        row = tau_sweep([G], F2)[0]
        report = classify(G, F2)
        assert row["class_count"] == report.class_count
        assert row["match"] == report.matches_tau


def test_tau_sweep_class_count_multiplies_over_sylow_components():
    groups = [G for n in range(1, 244, 2) for G in abelian_groups_of_order(n)]
    rows = tau_sweep(groups, F2)
    assert len(rows) == 158
    for G, row in zip(groups, rows):
        dec = sylow_decompose(G)
        parts = tau_sweep([dec.components[p] for p in dec.primes], F2)
        product = 1
        for part in parts:
            product *= part["class_count"]
        assert row["class_count"] == product, G.divisors


def test_tau_sweep_matches_orbit_count_oracle():
    odd = [G for n in range(1, 244, 2) for G in abelian_groups_of_order(n)]
    assert tau_sweep(odd, F2) == orbit_tau_sweep(odd, F2)
    F3 = field_make(3)
    coprime = [G for n in range(1, 244) if n % 3 for G in abelian_groups_of_order(n)]
    assert tau_sweep(coprime, F3) == orbit_tau_sweep(coprime, F3)


def test_tau_sweep_and_groups_of_order_match_the_group_path_oracle():
    # every order up to 2,000, the trivial group (row "1") included, over a
    # field of characteristic above them all: the same groups, each with
    # the primes of its order, and the same rows
    F2003 = field_make(2003)
    for n in range(1, 2001):
        groups = abelian_groups_of_order(n)
        want = sweep_oracle.abelian_groups_of_order(n)
        assert [(G.divisors, G.primes) for G in groups] \
            == [(G.divisors, G.primes) for G in want], n
        assert tau_sweep(groups, F2003) == sweep_oracle.tau_sweep(want, F2003), n
    assert tau_sweep(abelian_groups_of_order(1), F2) == [
        {"group": "1", "class_count": 1, "tau": 1, "homocyclic": True, "match": True}]


def test_tau_sweep_char_error_record_matches_classify():
    G = group_make([4, 2])
    with pytest.raises(CharDividesOrder) as swept:
        tau_sweep([group_make([3]), G], F2)
    with pytest.raises(CharDividesOrder) as classified:
        classify(G, F2)
    assert set(swept.value.record()["context"]) == {"characteristic", "group_order"}
    assert swept.value.record() == classified.value.record()


def test_tau_sweep_sylow_homocyclic_exception():
    # C_3 x C_15 = C_3^2 x C_5: not homocyclic, yet every Sylow component is
    # homocyclic, so each contributes tau(p^r) orbits and the counts multiply
    row = tau_sweep([group_make([3, 15])], F2)[0]
    assert row == {"group": "3,15", "class_count": 4, "tau": 4,
                   "homocyclic": False, "match": True}


def test_tau_sweep_closed_form_matches_owner_type_enumeration():
    # the Sylow-type product against the distinct owner_type over one
    # character per unit scaling, on every group of order <= 1000 that
    # each field admits
    groups = [G for n in range(1, 1001) for G in abelian_groups_of_order(n)]
    counts = {G: owner_type_class_count(G) for G in groups}
    for ctx in (F2, field_make(3), field_make(2, 2), field_make(5)):
        admitted = [G for G in groups if G.order % ctx.p]
        rows = tau_sweep(admitted, ctx)
        assert [r["class_count"] for r in rows] == [counts[G] for G in admitted], ctx.order
    assert len(groups) == 2091


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(types=st.dictionaries(st.sampled_from((2, 3, 5)),
                             st.lists(st.integers(min_value=1, max_value=4),
                                      min_size=1, max_size=4)))
def test_tau_criterion_is_sylow_homocyclic(types):
    # class_count = tau(exp G) exactly when every Sylow subgroup is
    # homocyclic: G is drawn as the prime powers p^e of its Sylow types
    G = group_make([p ** e for p, exps in types.items() for e in exps])
    row = tau_sweep([G], field_make(7))[0]
    assert row["match"] == all(len(set(exps)) == 1 for exps in types.values()), types


# ---------------------------------------------------------------------------
# classes against automorphism images
# ---------------------------------------------------------------------------

def test_classes_match_automorphism_images_over_extension_fields():
    # two minimal codes are equivalent iff some automorphism maps one
    # generating idempotent to the other; every automorphism is applied to
    # every idempotent, against the classes of owner_type, the key classify
    # groups by (no weights are enumerated)
    skipped = []
    for ctx, orders in ((field_make(3), [n for n in range(1, 46) if n % 3]),
                        (field_make(2, 2), range(1, 46, 2)),
                        (field_make(2, 3), range(1, 46, 2))):
        for G in (G for n in orders for G in abelian_groups_of_order(n)):
            if aut_order(G) > 2000:
                skipped.append((ctx.order, G.divisors))
                continue
            ides = primitive_idempotents(G, ctx)
            elements = [dense(ide) for ide in ides]
            where = {e: i for i, e in enumerate(elements)}
            auts = automorphisms(G)
            images = {frozenset(where[apply_automorphism(psi, e)] for psi in auts)
                      for e in elements}
            by_type = {}
            for i, ide in enumerate(ides):
                by_type.setdefault(owner_type(G, ide.orbit_rep), set()).add(i)
            classes = set(map(frozenset, by_type.values()))
            assert classes == images, (ctx.order, G.divisors)
            if (ctx.order, G.divisors) == (8, (3, 9)):
                assert len(elements) == 14 and max(map(len, classes)) == 9
    assert skipped == [(3, (2, 2, 2, 2)), (3, (2, 2, 2, 2, 2)), (3, (2, 2, 2, 4)),
                       (4, (3, 3, 3)), (8, (3, 3, 3))]


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

def test_verify_tables_rank2_p3():
    res = verify_tables(group_make([9, 3]), F2)
    assert res["all_pass"]
    assert res["hypothesis"]["mul_order"] == 6 == res["hypothesis"]["phi"]


def test_verify_tables_rank2_n3():
    res = verify_tables(group_make([27, 3]), F2)
    assert res["all_pass"]
    (count_row,) = [r for r in res["rows"]
                    if r["label"] == "classes" and r["check"] == "class count"]
    assert count_row["expected"] == 6


def test_verify_tables_homocyclic():
    assert verify_tables(group_make([3, 3]), F2)["all_pass"]
    assert verify_tables(group_make([9]), F2)["all_pass"]
    assert verify_tables(group_make([2, 2]), field_make(3))["all_pass"]


def test_verify_tables_hypothesis_failure():
    with pytest.raises(HypothesisFails):
        verify_tables(group_make([49, 7]), F2)  # ord(2 mod 49) = 21 != 42


def test_verify_tables_no_table_for_other_groups():
    with pytest.raises(DomainError):
        verify_tables(group_make([3, 15]), F2)


# ---------------------------------------------------------------------------
# homocyclic factorization
# ---------------------------------------------------------------------------

def test_factorization_cyclic_case():
    G = group_make([9])
    for ide in primitive_idempotents(G, F2):
        K, h, e_h = homocyclic_factorization(G, ide, F2)
        assert K.order == 1 and h.order() == 9


@pytest.mark.parametrize("divisors", [[3, 9], [2, 4, 4]])
def test_factorization_rejects_a_group_that_is_not_homocyclic(divisors):
    G, F5 = group_make(divisors), field_make(5)
    with pytest.raises(DomainError) as info:
        homocyclic_factorization(G, primitive_idempotents(G, F5)[0], F5)
    assert info.value.record() == {"error_code": "DomainError",
                                   "message": "group is not homocyclic",
                                   "context": {"group": G.spec_string()}}


def test_factorization_klein_over_gf3():
    G = group_make([2, 2])
    F3 = field_make(3)
    for ide in primitive_idempotents(G, F3):
        result = homocyclic_factorization(G, ide, F3)
        assert result is not None
        K, h, e_h = result
        assert subgroup_type(K) == (2,) and h.order() == 2


def test_factorization_composite_homocyclic():
    # C_6 x C_6 over GF(5): the composite-exponent variant
    G = group_make([6, 6])
    F5 = field_make(5)
    prims = primitive_idempotents(G, F5)
    for ide in prims[:3]:
        result = homocyclic_factorization(G, ide, F5)
        assert result is not None
        K, h, e_h = result
        assert subgroup_type(K) == (6,) and h.order() == 6
        e = dense(ide)
        assert e * e_h == e  # e lies in the ideal generated by e_h


def test_the_dimension_cap_alone_bounds_gf2():
    # under the cap k <= 24 a GF(2) code costs at most 2^min(k, o - k) <= 2^24
    # words, below the work bound 2^25, so every such o is exact
    orders = [o for o in range(3, 20000, 2) if mul_order(2, o) <= 24]
    assert len(orders) == 150
    for o in orders:
        assert _route(F2, o, mul_order(2, o))[0] in ("span", "dual", "walk", "step"), o
