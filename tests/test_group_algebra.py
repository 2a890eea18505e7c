import itertools
import sys
from math import gcd

import pytest
from dense_oracle import orbit_sum_idempotents
from hypothesis import given, settings, strategies as st
from owner_oracle import (
    _orbit_reps, classes_by_owner_sort, owner_by_character_values, peel_by_joins,
)

from abelian_codes import (
    AlgebraElement,
    CharDividesOrder,
    GroupMismatch,
    NoUniqueSubgroup,
    NotCocyclic,
    NotIdempotent,
    Subgroup,
    abelian_groups_of_order,
    all_subgroups,
    apply_automorphism,
    automorphisms,
    classify,
    cocyclic_idempotent,
    cocyclic_idempotent_family,
    cocyclic_subgroups,
    cyclic_subgroups,
    euler_phi,
    field_make,
    get_algebra,
    group_make,
    hat,
    idempotent_group,
    mul_order,
    owner_type,
    phi_subgroup,
    primitive_idempotents,
    quotient_type,
)
from abelian_codes.finite_field import divisors, factorize
from abelian_codes.group_algebra import (
    PrimitiveIdempotent,
    _character_values,
    _cyclic_subgroups,
    _join,
    _orders,
    _owners,
    row_reduce_raw,
)
import abelian_codes.cli_extra as cli_extra
import abelian_codes.codes as codes_module
import abelian_codes.finite_field as finite_field
import abelian_codes.group_algebra as group_algebra

F2 = field_make(2)
dense = AlgebraElement.from_idempotent


def gen(G, *gens):
    return Subgroup.generated(G, list(gens))


def family_sum(G, ctx):
    alg = get_algebra(G, ctx)
    total = AlgebraElement.zero(alg)
    for _, e in cocyclic_idempotent_family(G, ctx):
        total = total + e
    return total


# ---------------------------------------------------------------------------
# hat elements
# ---------------------------------------------------------------------------

def test_hat_of_trivial_subgroup_is_identity():
    G = group_make([9, 3])
    assert hat(Subgroup.trivial(G), F2) == AlgebraElement.one(get_algebra(G, F2))


def test_hat_coefficients_over_gf2():
    G = group_make([9, 3])
    H = gen(G, (1, 0))
    h = hat(H, F2)
    assert h.support == H.indices
    assert all(h.coeffs[i] == F2.one for i in H.indices)


def test_hat_char_divides_order():
    G = group_make([4, 2])
    with pytest.raises(CharDividesOrder):
        hat(Subgroup.whole(G), F2)


def test_hat_product_is_hat_of_join_exhaustive():
    G = group_make([9, 3])
    subs = all_subgroups(G)
    for H, K in itertools.product(subs, repeat=2):
        join = Subgroup.generated(G, H.generators + K.generators)
        assert hat(H, F2) * hat(K, F2) == hat(join, F2)


def test_hats_are_idempotent():
    G = group_make([15])
    F7 = field_make(7)
    for H in all_subgroups(G):
        e = hat(H, F7)
        assert e * e == e


# ---------------------------------------------------------------------------
# the co-cyclic idempotent family
# ---------------------------------------------------------------------------

def test_cocyclic_idempotent_whole_group():
    G = group_make([9, 3])
    assert cocyclic_idempotent(G, Subgroup.whole(G), F2) == hat(Subgroup.whole(G), F2)


def test_cocyclic_idempotent_formulas():
    G = group_make([9, 3])
    b = gen(G, (1, 0))
    cover = gen(G, (0, 3), (1, 0))  # <a^3> x <b>
    assert cocyclic_idempotent(G, b, F2) == hat(b, F2) - hat(cover, F2)
    a_span = gen(G, (0, 1))
    assert cocyclic_idempotent(G, a_span, F2) \
        == hat(a_span, F2) - hat(Subgroup.whole(G), F2)


def test_cocyclic_idempotent_rejects_noncyclic_quotient():
    G = group_make([9, 3])
    with pytest.raises(NotCocyclic):
        cocyclic_idempotent(G, gen(G, (0, 3)), F2)  # G/<a^3> = C_3 x C_3


def test_cocyclic_idempotent_char_error():
    with pytest.raises(CharDividesOrder):
        cocyclic_idempotent_family(group_make([4]), F2)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_cocyclic_idempotent_is_the_sum_of_the_primitives_it_owns(p, m):
    # the character route: e_H is the sum of the primitive idempotents whose
    # owner, the kernel of their character, is H; it builds no hat
    ctx = field_make(p, m)
    groups = [G for n in range(1, 49) if n % p for G in abelian_groups_of_order(n)]
    for G in groups:
        owned = {}
        for ide in primitive_idempotents(G, ctx):
            H = ide.phi_subgroup
            owned[H] = owned[H] + dense(ide) if H in owned else dense(ide)
        assert sorted(owned) == sorted(cocyclic_subgroups(G) + [Subgroup.whole(G)])
        for H, e in owned.items():
            assert cocyclic_idempotent(G, H, ctx) == e, (G.divisors, H.indices)


def test_family_c9_members():
    C9 = group_make([9])
    fam = dict(cocyclic_idempotent_family(C9, F2))
    whole = Subgroup.whole(C9)
    third = gen(C9, (3,))
    triv = Subgroup.trivial(C9)
    assert set(fam) == {whole, third, triv}
    assert fam[whole] == hat(whole, F2)
    assert fam[third] == hat(third, F2) - hat(whole, F2)
    alg = get_algebra(C9, F2)
    assert fam[triv] == AlgebraElement.one(alg) - hat(third, F2)


@pytest.mark.parametrize("divisors,q", [
    ([9], 2), ([9, 3], 2), ([], 2), ([15], 2), ([45, 3], 2), ([9], 7), ([12], 5),
])
def test_family_orthogonal_and_sums_to_one(divisors, q):
    G = group_make(divisors)
    ctx = field_make(q)
    fam = cocyclic_idempotent_family(G, ctx)
    alg = get_algebra(G, ctx)
    assert family_sum(G, ctx) == AlgebraElement.one(alg)
    for (H, e), (K, f) in itertools.combinations(fam, 2):
        assert (e * f).is_zero()
        assert e * e == e and f * f == f


def test_family_size_c9xc3():
    assert len(cocyclic_idempotent_family(group_make([9, 3]), F2)) == 8


def test_trivial_group_family():
    G = group_make([])
    fam = cocyclic_idempotent_family(G, F2)
    assert len(fam) == 1 and fam[0][1] == AlgebraElement.one(get_algebra(G, F2))


# ---------------------------------------------------------------------------
# primitive idempotents
# ---------------------------------------------------------------------------

def test_primitive_idempotents_f2_c7():
    prims = primitive_idempotents(group_make([7]), F2)
    assert len(prims) == 3  # 2-power orbits mod 7: {0}, {1,2,4}, {3,5,6}
    assert [p.orbit_rep for p in prims] == [(0,), (1,), (3,)]


def test_primitive_idempotents_match_family_when_criterion_holds():
    G = group_make([9, 3])
    prims = primitive_idempotents(G, F2)
    fam = cocyclic_idempotent_family(G, F2)
    assert {dense(p) for p in prims} == {e for _, e in fam}
    assert {p.phi_subgroup for p in prims} == {H for H, _ in fam}


def test_primitive_idempotents_f7_c9_split():
    G = group_make([9])
    F7 = field_make(7)
    prims = primitive_idempotents(G, F7)
    assert len(prims) == 5
    assert [p.orbit_rep for p in prims] == [(0,), (1,), (2,), (3,), (6,)]
    fam = cocyclic_idempotent_family(G, F7)
    assert len(fam) == 3
    # family members split into sums over their fibers
    alg = get_algebra(G, F7)
    for H, eH in fam:
        total = AlgebraElement.zero(alg)
        for p in prims:
            if p.phi_subgroup == H:
                total = total + dense(p)
        assert total == eH


@pytest.mark.parametrize("divisors,q", [
    ([9, 3], 2), ([9], 7), ([15], 2), ([12], 7),
    ([9, 3], 4), ([11], 4), ([9], 8), ([13], 9), ([7], 25),
])
def test_primitive_idempotents_are_complete_orthogonal(divisors, q):
    # checked by multiplication in F_qG alone, so the extension bases test
    # the splitting-field embedding without trusting it
    G = group_make(divisors)
    ((p, m),) = factorize(q).items()
    ctx = field_make(p, m)
    prims = primitive_idempotents(G, ctx)
    # one primitive idempotent per orbit of k -> q*k on the character group,
    # which is isomorphic to G
    orbits = {frozenset(G.scale(pow(q, j, G.exponent), g) for j in range(G.exponent))
              for g in G.elements}
    assert len(prims) == len(orbits)
    alg = get_algebra(G, ctx)
    total = AlgebraElement.zero(alg)
    for p in prims:
        assert dense(p) * dense(p) == dense(p)
        total = total + dense(p)
    assert total == AlgebraElement.one(alg)
    for p, r in itertools.combinations(prims, 2):
        assert (dense(p) * dense(r)).is_zero()


def test_primitivity_criterion_sweep():
    # family already primitive iff mul_order(q, p^n) == phi(p^n)
    for p in (3, 5, 7):
        for n in (1, 2):
            groups = [group_make([p ** n])]
            if p == 3 and n == 2:
                groups.append(group_make([9, 3]))
            for q in (2, 5, 7, 11):
                if q == p:
                    continue
                ctx = field_make(q)
                criterion = mul_order(q, p ** n) == euler_phi(p ** n)
                for G in groups:
                    prims = primitive_idempotents(G, ctx)
                    family_size = len(cocyclic_subgroups(G)) + 1
                    assert (len(prims) == family_size) == criterion, (p, n, q)


def test_idempotent_acts_on_hats_by_containment():
    # e * hat(K) = e iff K <= H_e, and 0 otherwise
    G = group_make([9, 3])
    prims = primitive_idempotents(G, F2)
    subs = all_subgroups(G)
    for p in prims:
        for K in subs:
            prod = dense(p) * hat(K, F2)
            if K.index_set <= p.phi_subgroup.index_set:
                assert prod == dense(p)
            else:
                assert prod.is_zero()


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_table_idempotents_match_dense_orbit_sums(p, m):
    # one coefficient table per character order against |orbit| root
    # powers summed at every (orbit, g) pair
    ctx = field_make(p, m)
    for n in range(1, 26):
        if gcd(n, ctx.order) != 1:
            continue
        for G in abelian_groups_of_order(n):
            got = [(e.orbit_rep, list(dense(e).coeffs))
                   for e in primitive_idempotents(G, ctx)]
            assert got == orbit_sum_idempotents(G, ctx), (G.divisors, ctx)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_idempotent_row_is_its_first_appearance_coefficients(p, m):
    # row[t] is the coefficient at the first g with t(g) = t, the row that
    # minimal_code read off the coefficients before the idempotent held it
    ctx = field_make(p, m)
    for n in range(1, 41):
        if gcd(n, ctx.order) != 1:
            continue
        for G in abelian_groups_of_order(n):
            for e in primitive_idempotents(G, ctx):
                o, ts = _character_values(G, e.orbit_rep)
                first = {}
                for g, t in enumerate(ts):
                    first.setdefault(t, g)
                assert list(e.row) == [dense(e).coeffs[first[t]] for t in range(o)], \
                    (G.divisors, ctx, e.orbit_rep)


def test_table_idempotents_match_dense_orbit_sums_on_9_9_9():
    G = group_make([9, 9, 9])
    got = [(e.orbit_rep, list(dense(e).coeffs)) for e in primitive_idempotents(G, F2)]
    assert got == orbit_sum_idempotents(G, F2)


def test_coefficients_live_in_base_field():
    G = group_make([9])
    F7 = field_make(7)
    for p in primitive_idempotents(G, F7):
        assert all(isinstance(c, int) and 0 <= c < 7 for c in dense(p).coeffs)


# ---------------------------------------------------------------------------
# phi map
# ---------------------------------------------------------------------------

def test_phi_subgroup_of_whole_group_hat():
    G = group_make([9, 3])
    fam = cocyclic_idempotent_family(G, F2)
    assert phi_subgroup(hat(Subgroup.whole(G), F2), fam) == Subgroup.whole(G)


def _field_free_idempotents(G, F):
    """primitive_idempotents without the splitting field: each orbit
    representative with its owner from ``_owners`` and a zero row."""
    alg = get_algebra(G, F)
    return [PrimitiveIdempotent(alg, k, H, mul_order(F.order, o), (F.zero,) * o)
            for k, H, o in _owners(G, F.order)]


def test_owners_match_the_per_code_oracle(monkeypatch):
    # every abelian group of order <= 128 (the trivial group and its o = 1
    # code included) over each of GF(2), GF(3), GF(4) and GF(5) it admits:
    # each owner's indices, generators and type equal the per-code path's
    # (owner_oracle), the codes of one cyclic subgroup <k> share one
    # Subgroup and the others do not, and classify groups and orders the
    # codes as the per-code sort did.  classify runs on field-free
    # idempotents, every class bounded and its minimum stubbed, so no
    # splitting field or weight is computed
    monkeypatch.setattr(codes_module, "primitive_idempotents", _field_free_idempotents)
    monkeypatch.setattr(codes_module, "_route", lambda ctx, o, k: ("bound", 0))
    monkeypatch.setattr(codes_module, "min_weight_or_bound", lambda code: (0, False))
    fields = [field_make(2), field_make(3), field_make(2, 2), field_make(5)]
    checked = 0
    for n in range(1, 129):
        for G in abelian_groups_of_order(n):
            cyclic, types = {}, {}  # (q, indices of <k>) -> owner, id(owner) -> type
            for F in fields:
                if n % F.p == 0:
                    continue
                report = classify(G, F)
                assert [r.code.generator.orbit_rep for r in report.codes] == _orbit_reps(G, F.order)
                for rec in report.codes:
                    k, H = rec.code.generator.orbit_rep, rec.code.generator.phi_subgroup
                    oracle = owner_by_character_values(G, k)
                    assert H.indices == oracle.indices, (G.divisors, F, k)
                    assert H.generators == peel_by_joins(oracle), (G.divisors, F, k)
                    assert types.setdefault(id(H), owner_type(G, k)) == owner_type(G, k)
                    span = Subgroup.generated(G, [k]).indices
                    assert cyclic.setdefault((F.order, span), H) is H, (G.divisors, F, k)
                    checked += 1
                assert len({id(H) for H in cyclic.values()}) == len(cyclic)
                assert [[m.code.generator.orbit_rep for m in c.members]
                        for c in report.classes] \
                    == classes_by_owner_sort(G, _orbit_reps(G, F.order)), (G.divisors, F)
    assert checked == 8790


def test_owner_work_runs_once_per_owner_and_character_values_once_per_code(monkeypatch):
    # _from_indices runs once per distinct owner, one per cyclic subgroup
    # <k>, whose peel joins once per generator unless the owner is cyclic;
    # classify reads the |G|-length list t(g) of _character_values only for
    # the columns of a bounded class, and idempotents once per code
    calls = {"_character_values": 0, "_from_indices": 0, "_join": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (group_algebra, codes_module):
        monkeypatch.setattr(module, "_character_values",
                            counted("_character_values", _character_values))
    monkeypatch.setattr(group_algebra, "_join", counted("_join", _join))
    monkeypatch.setattr(Subgroup, "_from_indices",
                        classmethod(counted("_from_indices", Subgroup._from_indices.__func__)))
    # 15,15 over GF(2): 59 codes, 35 owners, no class bounded; 81,3: 14
    # codes of 14 owners (2 is a primitive root mod 81), and the k = 54 code
    # of C_81 is bounded
    for divisors, codes, owners, bounded in [([15, 15], 59, 35, 0), ([81, 3], 14, 14, 1)]:
        G = group_make(divisors)
        calls.update(dict.fromkeys(calls, 0))
        report = classify(G, F2)
        built, read = calls["_from_indices"], calls["_character_values"]
        assert built == len({id(r.code.generator.phi_subgroup) for r in report.codes})
        assert built == len({Subgroup.generated(G, [k]).indices for k in _orbit_reps(G, 2)})
        assert (len(report.codes), built) == (codes, owners)
        assert sum(not c.representative.min_weight_exact for c in report.classes) == bounded
        assert read == bounded
        distinct = {id(r.code.generator.phi_subgroup): r.code.generator.phi_subgroup
                    for r in report.codes}.values()
        calls["_join"] = 0
        report.to_dict()  # peels every owner
        assert calls["_join"] == sum(len(H.generators) for H in distinct if len(H.generators) > 1)
        assert any(len(H.generators) == 1 for H in distinct)
        calls.update(dict.fromkeys(calls, 0))
        data = cli_extra.idempotents_dict({"group": G, "field": F2})
        assert len(list(data["idempotents"])) == len(report.codes)
        assert calls["_character_values"] == len(report.codes)


def test_cyclic_subgroup_walk_meets_each_cyclic_subgroup_once_at_its_least_generator():
    # every abelian group of order <= 128, the trivial group included: the
    # closures <g> of all g, grouped by span in the index order of their
    # least generator, are exactly the walk's subgroups in its order; each
    # yielded cyc is the cycle of that least generator and its units give
    # exactly the generators of <g>, ascending
    for n in range(1, 129):
        for G in abelian_groups_of_order(n):
            closures = {}  # indices of <g> -> the indices of its generators
            for i, g in enumerate(G.elements):
                closures.setdefault(Subgroup.generated(G, [g]).indices, []).append(i)
            walk = list(_cyclic_subgroups(G))
            assert [tuple(sorted(cyc)) for cyc, _ in walk] == list(closures), G.divisors
            for cyc, units in walk:
                gens = closures[tuple(sorted(cyc))]
                assert cyc[units[0]] == gens[0], G.divisors
                assert len(cyc) == 1 or cyc[1] == gens[0], G.divisors
                assert cyc == [G.index_of(G.scale(j, G.elements[gens[0]]))
                               for j in range(len(cyc))], G.divisors
                assert units == sorted(units)
                assert sorted(cyc[j] for j in units) == gens, G.divisors


def test_classify_computes_each_dimension_once_per_order(monkeypatch):
    # ord_o(q) is computed by primitive_idempotents once per divisor o of
    # exp G, read by both the code count and the tables, besides the
    # splitting field's once; minimal_code reads it off the idempotent
    calls = []

    def counted(q, n):
        calls.append(sys._getframe(1).f_globals["__name__"].rsplit(".", 1)[1])
        return mul_order(q, n)

    assert not hasattr(codes_module, "mul_order")
    for module in (finite_field, group_algebra):
        monkeypatch.setattr(module, "mul_order", counted)
    # 15,15 over GF(2): 59 codes of the 4 orders 1, 3, 5 and 15
    report = classify(group_make([15, 15]), F2)
    assert len(report.codes) == 59
    assert calls == ["group_algebra"] * (1 + 4)
    assert all(r.code.dimension == mul_order(2, len(r.code.row)) for r in report.codes)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_kernel_owner_matches_convolution_oracle(p, m):
    # primitive_idempotents reads the owner off the character kernel;
    # phi_subgroup finds it by convolving against the whole family
    ctx = field_make(p, m)
    for n in range(1, 26):
        if gcd(n, ctx.order) != 1:
            continue
        for G in abelian_groups_of_order(n):
            fam = cocyclic_idempotent_family(G, ctx)
            prims = primitive_idempotents(G, ctx)
            for ide in prims:
                assert ide.phi_subgroup == phi_subgroup(dense(ide), fam), (
                    G.divisors, ctx, ide.orbit_rep)
            # the owner map is onto the extended co-cyclic family
            owners = {ide.phi_subgroup for ide in prims}
            assert len(owners) == len(cocyclic_subgroups(G)) + 1, (
                G.divisors, ctx)


def test_phi_subgroup_example():
    G = group_make([9, 3])
    fam = cocyclic_idempotent_family(G, F2)
    a_span = gen(G, (0, 1))
    e2 = hat(a_span, F2) - hat(Subgroup.whole(G), F2)
    assert phi_subgroup(e2, fam) == a_span


def test_phi_subgroup_rejects_sum_of_two_members():
    G = group_make([9, 3])
    fam = cocyclic_idempotent_family(G, F2)
    two = fam[0][1] + fam[1][1]
    with pytest.raises(NoUniqueSubgroup):
        phi_subgroup(two, fam)


def test_phi_subgroup_rejects_non_idempotent():
    G = group_make([9, 3])
    fam = cocyclic_idempotent_family(G, F2)
    alg = get_algebra(G, F2)
    g = AlgebraElement.from_dict(alg, {(0, 1): 1})
    with pytest.raises(NotIdempotent):
        phi_subgroup(g, fam)


# ---------------------------------------------------------------------------
# automorphism action
# ---------------------------------------------------------------------------

def test_identity_automorphism_acts_trivially():
    G = group_make([9, 3])
    from abelian_codes import Automorphism
    e = cocyclic_idempotent_family(G, F2)[2][1]
    assert apply_automorphism(Automorphism.identity(G), e) == e


def test_automorphism_maps_family_members_to_family_members():
    G = group_make([9, 3])
    fam = cocyclic_idempotent_family(G, F2)
    for psi in automorphisms(G):
        for H, eH in fam:
            assert apply_automorphism(psi, eH) \
                == cocyclic_idempotent(G, psi.apply_subgroup(H), F2)


def test_automorphism_is_ring_homomorphism():
    G = group_make([9, 3])
    alg = get_algebra(G, F2)
    auts = automorphisms(G)
    # deterministic sample pairs
    pairs = [
        (AlgebraElement.from_dict(alg, {(0, 1): 1, (1, 0): 1}),
         AlgebraElement.from_dict(alg, {(2, 5): 1, (0, 0): 1})),
        (AlgebraElement.from_dict(alg, {(1, 4): 1}),
         AlgebraElement.from_dict(alg, {(2, 8): 1, (1, 1): 1})),
    ]
    for psi in auts[:10]:
        for x, y in pairs:
            assert apply_automorphism(psi, x * y) \
                == apply_automorphism(psi, x) * apply_automorphism(psi, y)
            assert apply_automorphism(psi, x + y) \
                == apply_automorphism(psi, x) + apply_automorphism(psi, y)


# ---------------------------------------------------------------------------
# generator sums
# ---------------------------------------------------------------------------

def _generator_sum(C, ctx):
    """The sum of the generators of the cyclic subgroup C."""
    G = C.group
    return AlgebraElement(get_algebra(G, ctx), [
        ctx.one if i in C.indices and G.element_order(g) == C.order else ctx.zero
        for i, g in enumerate(G.elements)])


def test_generator_sum_fixed_by_power_automorphisms():
    # the power maps g -> r*g are the automorphisms fixing every subgroup
    G = group_make([9, 3])
    subs = all_subgroups(G)
    laut = [psi for psi in automorphisms(G)
            if all(psi.apply_subgroup(H) == H for H in subs)]
    assert len(laut) == euler_phi(G.exponent)
    for exps in [(0, 1), (1, 0), (1, 1), (2, 3)]:
        gam = _generator_sum(gen(G, exps), F2)
        for psi in laut:
            assert apply_automorphism(psi, gam) == gam


def test_generator_sums_span_equals_family_span():
    # the invariant algebra has the gamma sums and the family as two bases
    for divisors, q in (([9, 3], 2), ([12], 5)):
        G = group_make(divisors)
        ctx = field_make(q)
        fam = cocyclic_idempotent_family(G, ctx)
        gammas = [_generator_sum(C, ctx).coeffs for C in cyclic_subgroups(G)]
        gamma_basis = row_reduce_raw(gammas, ctx)
        family_basis = row_reduce_raw([e.coeffs for _, e in fam], ctx)
        assert gamma_basis == family_basis
        assert len(gamma_basis) == len(cyclic_subgroups(G)) == len(fam)


# ---------------------------------------------------------------------------
# the group of translates
# ---------------------------------------------------------------------------

def test_idempotent_group_examples():
    G = group_make([9, 3])
    prims = primitive_idempotents(G, F2)
    for p in prims:
        ig = idempotent_group(p)
        assert ig == quotient_type(G, p.phi_subgroup)
        assert len(ig) <= 1  # cyclic
    whole = [p for p in prims if p.phi_subgroup == Subgroup.whole(G)][0]
    assert idempotent_group(whole) == ()
    a_span = [p for p in prims if p.phi_subgroup == gen(G, (0, 1))][0]
    assert idempotent_group(a_span) == (3,)
    b_span = [p for p in prims if p.phi_subgroup == gen(G, (1, 0))][0]
    assert idempotent_group(b_span) == (9,)


# ---------------------------------------------------------------------------
# convolution against tuple addition
# ---------------------------------------------------------------------------

GROUPS_TO_64 = [G for n in range(1, 65) for G in abelian_groups_of_order(n)]


def _convolution_by_adding(a, b):
    """(ab)_x = sum over y + z = x of a_y b_z, indexing each tuple sum."""
    G, ctx = a.algebra.group, a.algebra.ctx
    res = [ctx.zero] * G.order
    for y, ay in zip(G.elements, a.coeffs):
        for z, bz in zip(G.elements, b.coeffs):
            k = G.index_of(G.add(y, z))
            res[k] = ctx.add(res[k], ctx.mul(ay, bz))
    return tuple(res)


@st.composite
def _two_elements(draw):
    ctx = field_make(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
    G = draw(st.sampled_from(GROUPS_TO_64))
    scalars = list(ctx.elements())
    algebra = get_algebra(G, ctx)
    coeffs = st.lists(st.sampled_from(scalars), min_size=G.order, max_size=G.order)
    return AlgebraElement(algebra, draw(coeffs)), AlgebraElement(algebra, draw(coeffs))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pair=_two_elements())
def test_convolution_matches_tuple_addition(pair):
    a, b = pair
    assert (a * b).coeffs == _convolution_by_adding(a, b)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_from_dict_round_trips_raw_values(p, m):
    # the nonzero raws of GF(4) and GF(9) come back as given: from_int
    # read 2 = x over GF(4) as 0, and a GF(9) tuple raised TypeError
    F = field_make(p, m)
    G = group_make([7])
    picked = [raw for raw in F.elements() if raw != F.zero][:G.order]
    element = AlgebraElement.from_dict(get_algebra(G, F),
                                       {(i,): raw for i, raw in enumerate(picked)})
    assert element.coeffs == tuple(picked) + (F.zero,) * (G.order - len(picked))
    x = F.raw_from_coeffs((0, 1))
    assert AlgebraElement.from_dict(get_algebra(G, F), {(1,): x}).coeffs[1] == x


@pytest.mark.parametrize("key", [(4,), (0, 1), ()])
def test_from_dict_rejects_a_key_outside_the_group(key):
    alg = get_algebra(group_make([3]), field_make(2))
    with pytest.raises(GroupMismatch) as info:
        AlgebraElement.from_dict(alg, {(1,): 1, key: 1})
    assert info.value.record()["context"] == {"element": key}


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_code_count_closed_form_matches_the_idempotents(p, m):
    from abelian_codes.group_algebra import _code_count

    F = field_make(p, m)
    for n in range(1, 46):
        if n % p:
            for G in abelian_groups_of_order(n):
                dims = {o: mul_order(F.order, o) for o in divisors(G.exponent)}
                assert _code_count(G, dims) == len(primitive_idempotents(G, F)), G


def _peel_by_max_scan(H):
    """H's generators as the peel found them before the single pass: at
    each step, the first index of maximal order outside the span, by a scan
    of every index of H."""
    group, orders = H.group, _orders(H.group)
    span, gens = {0}, []
    while len(span) < H.order:
        best = group.elements[max((i for i in H.indices if i not in span),
                                  key=orders.__getitem__)]
        gens.append(best)
        span = _join(group, span, best)
    return tuple(gens)


def test_generators_match_the_max_scan_peel_on_every_subgroup():
    # a fresh Subgroup of the same indices, since all_subgroups hands the
    # cyclic ones over with their generators
    for n in range(1, 65):
        for G in abelian_groups_of_order(n):
            for H in all_subgroups(G):
                fresh = Subgroup._from_indices(G, H.indices)
                assert fresh.generators == _peel_by_max_scan(H), (G.divisors, H.indices)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_owner_generators_match_the_max_scan_peel(q):
    # each owner as primitive_idempotents builds it, the kernel of its
    # orbit's character, without the splitting field; every generator of an
    # owner has the owner's exponent as its order
    for n in range(1, 129):
        for G in abelian_groups_of_order(n) if n % q else ():
            orders = _orders(G)
            for rep in _orbit_reps(G, q):
                ts = _character_values(G, rep)[1]
                H = Subgroup._from_indices(G, [i for i, t in enumerate(ts) if not t])
                assert H.generators == _peel_by_max_scan(H), (G.divisors, rep)
                top = max(orders[i] for i in H.indices)
                assert {G.element_order(g) for g in H.generators} <= {top}
