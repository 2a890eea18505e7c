import itertools
import random
import time
from functools import lru_cache
from math import gcd, prod

import pytest

from abelian_codes import (
    AbelianGroup,
    Automorphism,
    BadDivisor,
    GroupElement,
    GroupMismatch,
    GroupTooLarge,
    NoRootsOfUnity,
    NotASubgroup,
    Subgroup,
    abelian_groups_of_order,
    all_subgroups,
    annihilator,
    aut_generators,
    automorphisms,
    characters,
    cocyclic_subgroups,
    cyclic_subgroups,
    euler_phi,
    field_make,
    group_make,
    owner_type,
    quotient_type,
    subgroup_orbits,
    sylow_decompose,
)
from abelian_codes.finite_field import factorize
from abelian_codes.reference import (
    _AUT_GROUP_ORDER_BOUND,
    _AUT_ORDER_BOUND,
    _SUBGROUPS_ORDER_BOUND,
    _SUBGROUPS_WORK_BOUND,
    _hermite_bases,
    _index_p_cover_within,
    _induced_perm,
    _translation,
    aut_order,
    checked_subgroup,
    subgroup_count,
    subgroup_type,
)


def gen(G, *gens):
    return Subgroup.generated(G, list(gens))


# ---------------------------------------------------------------------------
# construction and normalization
# ---------------------------------------------------------------------------

def test_group_make_normalizes_to_invariant_factors():
    G = group_make([9, 3])
    assert G.divisors == (3, 9)
    assert (G.order, G.exponent) == (27, 9)
    assert group_make([3, 9]).divisors == (3, 9)


def test_group_make_crt_merge():
    assert group_make([2, 3]).divisors == (6,)
    assert group_make([4, 3, 2, 9]).divisors == (6, 36)


def test_group_make_trivial_and_errors():
    G = group_make([])
    assert (G.order, G.exponent, G.divisors) == (1, 1, ())
    with pytest.raises(BadDivisor):
        group_make([1, 3])
    with pytest.raises(BadDivisor):
        group_make([0])


def _group_make_per_prime(divisors):
    """Invariant factors by factoring: the k-th largest factor is the
    product over the primes of each one's k-th largest prime power."""
    per_prime = {}
    for d in divisors:
        for p, e in factorize(d).items():
            per_prime.setdefault(p, []).append(e)
    t = max(map(len, per_prime.values()), default=0)
    return tuple(prod(p ** sorted(exps, reverse=True)[k] for p, exps in per_prime.items()
                      if k < len(exps)) for k in reversed(range(t)))


def test_group_make_matches_the_per_prime_normalization():
    rng = random.Random(29)
    for _ in range(20000):
        divisors = [rng.choice([rng.randint(2, 40), rng.randint(2, 10 ** 6)])
                    for _ in range(rng.randint(0, 6))]
        assert group_make(divisors).divisors == _group_make_per_prime(divisors), divisors


def test_group_make_factors_nothing(monkeypatch):
    # a divisor whose factorization is refused past the primality bound
    import abelian_codes.abelian_group as abelian_group
    import abelian_codes.finite_field as finite_field

    def refuse(n):
        raise AssertionError("factorize(%d)" % n)

    monkeypatch.setattr(abelian_group, "factorize", refuse)
    monkeypatch.setattr(finite_field, "factorize", refuse)
    n = 4951760154835678088235319297
    assert group_make([n]).divisors == (n,)
    assert group_make([3, n, 6]).divisors == (3, 2 * 3 * n)


@pytest.mark.parametrize("divisors", [(2, 0), (-3,), (0,), (0, 2)])
def test_abelian_group_rejects_divisors_below_one(divisors):
    # (2, 0) satisfies the divisibility chain but would have order 0,
    # (-3,) would have no elements, and (0, 2) would divide by zero
    with pytest.raises(BadDivisor) as info:
        AbelianGroup(divisors)
    assert info.value.context == {"divisors": divisors}


def test_element_arithmetic_and_order():
    G = group_make([9, 3])
    a, b = (0, 1), (1, 0)
    assert G.add(a, b) == (1, 1)
    assert G.neg(a) == (0, 8)
    assert G.scale(3, a) == (0, 3)
    assert GroupElement(G, a).order() == 9 and GroupElement(G, b).order() == 3
    assert GroupElement(G, G.add(a, b)).order() == 9
    assert GroupElement(G, G.zero).order() == 1
    assert GroupElement(G, (3, 10)).exps == (0, 1)  # reduced mod the divisors (3, 9)


@pytest.mark.parametrize("exps", [(1,), (1, 2, 3)])
def test_group_element_rejects_a_tuple_of_the_wrong_length(exps):
    # read truncated, (1, 2, 3) was the element (1, 2)
    with pytest.raises(GroupMismatch) as info:
        GroupElement(group_make([3, 9]), exps)
    assert info.value.record()["context"] == {"element": exps}


# ---------------------------------------------------------------------------
# Sylow decomposition
# ---------------------------------------------------------------------------

def test_sylow_components():
    assert {p: c.divisors for p, c in sylow_decompose(group_make([6])).components.items()} \
        == {2: (2,), 3: (3,)}
    assert {p: c.divisors for p, c in sylow_decompose(group_make([9, 3])).components.items()} \
        == {3: (3, 9)}
    dec = sylow_decompose(group_make([45, 3]))
    assert {p: c.divisors for p, c in dec.components.items()} == {3: (3, 9), 5: (5,)}


# ---------------------------------------------------------------------------
# subgroup lattice
# ---------------------------------------------------------------------------

def test_all_subgroups_counts():
    assert len(all_subgroups(group_make([3, 3]))) == 6
    assert len(all_subgroups(group_make([9]))) == 3
    subs = all_subgroups(group_make([9, 3]))
    assert len([H for H in subs if H.order == 9]) == 4
    assert len([H for H in subs if H.order == 3]) == 4
    # product lattice: 10 subgroups per 3-part, 2 per 5-part
    assert len(all_subgroups(group_make([45, 3]))) == 20


def test_all_subgroups_bound():
    with pytest.raises(GroupTooLarge) as exc:
        all_subgroups(group_make([4099]))
    assert exc.value.context == {"order": 4099, "bound": _SUBGROUPS_ORDER_BOUND}


def test_subgroup_count_matches_the_enumeration():
    # every abelian group of order <= 128 under the work bound: all but C_2^7
    admitted = 0
    for n in range(1, 129):
        for G in abelian_groups_of_order(n):
            count = subgroup_count(G)
            if count * G.order <= _SUBGROUPS_WORK_BOUND:
                assert len(all_subgroups(G)) == count, G.divisors
                admitted += 1
    assert admitted == 246


def test_hermite_bases_count_every_subgroup():
    # every abelian group of order <= 512 under the work bound: one Hermite
    # basis per subgroup (Delsarte's count), checked without building one
    admitted = 0
    for n in range(1, 513):
        for G in abelian_groups_of_order(n):
            count = subgroup_count(G)
            if count * G.order <= _SUBGROUPS_WORK_BOUND:
                assert len(_hermite_bases(G)) == count, G.divisors
                admitted += 1
    assert admitted == 1036


def test_subgroup_validation():
    G = group_make([9, 3])
    with pytest.raises(NotASubgroup):
        checked_subgroup(G, [(0, 0), (0, 1)])  # not closed
    with pytest.raises(NotASubgroup):
        checked_subgroup(G, [(0, 0), (0, 9)])  # not an element
    with pytest.raises(NotASubgroup):
        checked_subgroup(G, [(0, 3), (0, 6)])  # no identity
    with pytest.raises(NotASubgroup):
        checked_subgroup(G, [(0, 0), (1, 0), (2, 0), (0, 3), (1, 3), (2, 3)])  # no inverse
    H = checked_subgroup(G, [(0, 6), (0, 0), (0, 3)])
    assert H.order == 3 and H == gen(G, (0, 3))
    assert H.elements == ((0, 0), (0, 3), (0, 6))


def test_quotient_type_examples():
    G = group_make([9, 3])
    assert quotient_type(G, Subgroup.whole(G)) == ()
    assert quotient_type(G, gen(G, (1, 3))) == (9,)   # <a^3 b>
    assert quotient_type(G, gen(G, (0, 3))) == (3, 3)  # <a^3>
    assert quotient_type(G, Subgroup.trivial(G)) == (3, 9)


def test_subgroup_invariant_factors():
    G = group_make([9, 3])
    assert subgroup_type(gen(G, (0, 3), (1, 0))) == (3, 3)
    assert subgroup_type(gen(G, (1, 1))) == (9,)


def test_cocyclic_subgroups_examples():
    C9 = group_make([9])
    assert [H.order for H in cocyclic_subgroups(C9)] == [1, 3]

    G = group_make([9, 3])
    cc = cocyclic_subgroups(G)
    assert len(cc) == 7
    expected = {
        gen(G, (0, 1)), gen(G, (1, 1)), gen(G, (2, 1)),       # <ab^i>, order 9
        gen(G, (0, 3), (1, 0)),                                # <a^3> x <b>
        gen(G, (1, 0)), gen(G, (1, 3)), gen(G, (1, 6)),        # order 3
    }
    assert set(cc) == expected
    assert gen(G, (0, 3)) not in set(cc)  # <a^3>: non-cyclic quotient

    C33 = group_make([3, 3])
    assert [H.order for H in cocyclic_subgroups(C33)] == [3, 3, 3, 3]

    assert cocyclic_subgroups(group_make([])) == []


@pytest.mark.parametrize("divisors", [[9, 3], [3, 15], [12], [4, 2], [45, 3]])
def test_cocyclic_duality_route_matches_definition(divisors):
    G = group_make(divisors)
    via_duality = set(cocyclic_subgroups(G))
    via_definition = {
        H for H in all_subgroups(G)
        if H.order < G.order and len(quotient_type(G, H)) <= 1
    }
    assert via_duality == via_definition


# ---------------------------------------------------------------------------
# characters and duality
# ---------------------------------------------------------------------------

def test_characters_trivial_group():
    G = group_make([])
    chs = characters(G, field_make(2))
    assert len(chs) == 1 and chs[0].raw_value(G.zero) == 1


def test_characters_c3_over_gf4():
    G = group_make([3])
    F4 = field_make(2, 2)
    chs = characters(G, F4)
    assert len(chs) == 3
    nontrivial = [ch for ch in chs if ch.exps != (0,)]
    values = {ch.raw_value((1,)) for ch in nontrivial} | {F4.one}
    assert values == {raw for raw in F4.elements() if raw != F4.zero}


def test_characters_c9xc3_over_gf64():
    G = group_make([9, 3])
    F64 = field_make(2, 6)
    chs = characters(G, F64)
    assert len(chs) == 27
    # multiplicative on all pairs, and the full set separates elements
    for ch in chs[:5]:
        for x in G.elements:
            for y in G.elements:
                assert ch.raw_value(G.add(x, y)) \
                    == F64.mul(ch.raw_value(x), ch.raw_value(y))
    tables = {tuple(ch.raw_value(x) for x in G.elements) for ch in chs}
    assert len(tables) == 27


def test_characters_need_roots():
    with pytest.raises(NoRootsOfUnity):
        characters(group_make([9, 3]), field_make(2))


def test_annihilator_extremes():
    G = group_make([9, 3])
    assert annihilator(G, Subgroup.whole(G)) == Subgroup.trivial(G)
    assert annihilator(G, Subgroup.trivial(G)) == Subgroup.whole(G)


@pytest.mark.parametrize("divisors", [[9, 3], [8], [4, 2], [3, 3], [12, 2]])
def test_annihilator_duality_small(divisors):
    G = group_make(divisors)
    subs = all_subgroups(G)
    for H in subs:
        A = annihilator(G, H)
        assert annihilator(G, A) == H
        assert A.order * H.order == G.order
    for H, K in itertools.combinations(subs, 2):
        if K.index_set <= H.index_set:
            assert annihilator(G, H).index_set <= annihilator(G, K).index_set


def test_annihilator_of_cyclic_is_cocyclic_with_matching_quotient():
    G = group_make([9, 3])
    for C in cyclic_subgroups(G):
        if C.order == 1:
            continue
        A = annihilator(G, C)
        qt = quotient_type(G, A)
        assert len(qt) == 1 and qt[0] == C.order


def test_cocyclic_equals_annihilators_of_cyclic():
    # every abelian group of order <= 128: the owners of the cyclic-subgroup
    # walk are the annihilators of the nontrivial cyclic subgroups, each
    # once, in canonical order with the same generators
    for n in range(1, 129):
        for G in abelian_groups_of_order(n):
            anns = sorted(annihilator(G, C) for C in cyclic_subgroups(G) if C.order > 1)
            got = cocyclic_subgroups(G)
            assert [H.indices for H in got] == [H.indices for H in anns], G.divisors
            assert [H.generators for H in got] == [H.generators for H in anns], G.divisors


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_automorphism_counts_cyclic_and_klein():
    assert len(automorphisms(group_make([9]))) == 6
    assert len(automorphisms(group_make([2, 2]))) == 6


@pytest.mark.parametrize("divisors", [
    [9], [2, 2], [3, 3], [9, 3], [4, 2], [8, 2], [12], [2, 2, 2],
    [4, 4], [3, 15], [2, 6],
])
def test_generator_closure_matches_brute_force(divisors):
    # every tuple of generator images whose orders divide the invariant
    # factors, kept when it induces a bijection
    G = group_make(divisors)
    closure = {psi.perm for psi in automorphisms(G)}
    candidates = [[g for g in G.elements if d % G.element_order(g) == 0]
                  for d in G.divisors]
    perms = (_induced_perm(G, images) for images in itertools.product(*candidates))
    assert closure == {perm for perm in perms if perm is not None}


@pytest.mark.parametrize("images", [[(1, 0, 0), (0, 1, 0)], [(1,), (0, 1)]])
def test_automorphism_rejects_images_of_the_wrong_length(images):
    with pytest.raises(ValueError, match="element of the group"):
        Automorphism(group_make([3, 9]), images)


def test_automorphisms_bound():
    with pytest.raises(GroupTooLarge) as exc:
        automorphisms(group_make([1024]))
    assert exc.value.context == {"order": 1024, "bound": _AUT_GROUP_ORDER_BOUND}


def test_automorphisms_bound_on_aut_order():
    # both pass the |G| bound; closing 2,2,4,4 took 38 s, and 2^6 would not finish
    for divisors, count in [([2, 2, 4, 4], 147456), ([2] * 6, 20158709760)]:
        G = group_make(divisors)
        assert aut_order(G) == count
        start = time.perf_counter()
        with pytest.raises(GroupTooLarge) as exc:
            automorphisms(G)
        assert time.perf_counter() - start < 1
        assert exc.value.context == {"aut_order": count, "bound": _AUT_ORDER_BOUND}


def _power_maps(G):
    """Index permutation of g -> r*g for every unit r mod exp G."""
    n = G.exponent
    return {tuple(G.index_of(G.scale(r, g)) for g in G.elements)
            for r in range(1, n + 1) if gcd(r, n) == 1}


def test_power_automorphisms():
    # Aut(G) holds the phi(exp G) power maps; for cyclic G they are all of it
    for divisors, count in [([9], 6), ([9, 3], 6), ([2, 2], 1)]:
        G = group_make(divisors)
        auts = {psi.perm for psi in automorphisms(G)}
        power = _power_maps(G)
        assert len(power) == euler_phi(G.exponent) == count
        assert power <= auts
    assert len(automorphisms(group_make([9]))) == 6


def test_power_automorphisms_fix_every_subgroup_and_others_do_not():
    G = group_make([9, 3])
    subs = all_subgroups(G)
    auts = automorphisms(G)
    power = _power_maps(G)
    for psi in auts:
        fixes_all = all(psi.apply_subgroup(H) == H for H in subs)
        assert fixes_all == (psi.perm in power)


def test_power_map_existence_for_every_element_and_exponent():
    G = group_make([9, 3])
    power = _power_maps(G)
    power = [psi.perm for psi in automorphisms(G) if psi.perm in power]
    for i, exps in enumerate(G.elements):
        o = GroupElement(G, exps).order()
        for r in range(1, o + 1):
            if gcd(r, o) == 1:
                assert any(G.elements[perm[i]] == G.scale(r, exps) for perm in power)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_subgroup_orbits_c9xc3_partition():
    G = group_make([9, 3])
    family = cocyclic_subgroups(G) + [Subgroup.whole(G)]
    orbits = subgroup_orbits(G, family)
    as_sets = {frozenset(H.elements for H in orbit) for orbit in orbits}
    expected = {
        frozenset({Subgroup.whole(G).elements}),
        frozenset({gen(G, (0, 1)).elements, gen(G, (1, 1)).elements,
                   gen(G, (2, 1)).elements}),
        frozenset({gen(G, (0, 3), (1, 0)).elements}),
        frozenset({gen(G, (1, 0)).elements, gen(G, (1, 3)).elements,
                   gen(G, (1, 6)).elements}),
    }
    assert as_sets == expected


def test_subgroup_orbits_isomorphic_but_not_conjugate():
    G = group_make([9, 3])
    orbits = subgroup_orbits(G, [gen(G, (0, 3)), gen(G, (1, 0))])
    assert len(orbits) == 2


def test_subgroup_orbits_whole_group_fixed():
    G = group_make([4, 2])
    orbits = subgroup_orbits(G, [Subgroup.whole(G)])
    assert len(orbits) == 1 and orbits[0] == [Subgroup.whole(G)]


def test_subgroup_orbits_is_partition():
    G = group_make([4, 4])
    subs = all_subgroups(G)
    orbits = subgroup_orbits(G, subs)
    flat = [H for orbit in orbits for H in orbit]
    assert sorted(flat) == sorted(subs)
    assert len({H.elements for H in flat}) == len(flat)
    full = {psi.perm: psi for psi in automorphisms(G)}
    for orbit in orbits:
        members = {H.elements for H in orbit}
        for H in orbit:
            for psi in full.values():
                assert psi.apply_subgroup(H).elements in members


def test_orbits_with_generators_match_full_group_orbits():
    for divisors in ([9, 3], [8, 2], [3, 3], [12, 2]):
        G = group_make(divisors)
        subs = all_subgroups(G)
        orbits_fast = subgroup_orbits(G, subs)
        auts = automorphisms(G)
        seen = set()
        orbits_slow = []
        for H in sorted(subs, key=lambda s: s.elements):
            if H.elements in seen:
                continue
            orbit = {psi.apply_subgroup(H).elements for psi in auts}
            seen |= orbit
            orbits_slow.append(orbit)
        assert {frozenset(o) for o in orbits_slow} \
            == {frozenset(H.elements for H in o) for o in orbits_fast}


# ---------------------------------------------------------------------------
# homocyclic structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("divisors,p,r,m", [
    ([3, 3], 3, 1, 2), ([4, 4], 2, 2, 2), ([2, 2, 2], 2, 1, 3), ([9, 9], 3, 2, 2),
])
def test_homocyclic_cocyclic_contains_corank_one(divisors, p, r, m):
    G = group_make(divisors)
    subs = all_subgroups(G)
    target = tuple([p ** r] * (m - 1))
    for H in cocyclic_subgroups(G):
        assert any(
            K.index_set <= H.index_set and subgroup_type(K) == target
            for K in subs
        )


@pytest.mark.parametrize("divisors,p,r", [([9, 9], 3, 2), ([4, 4], 2, 2)])
def test_homocyclic_cyclic_extends_to_max_order(divisors, p, r):
    G = group_make(divisors)
    cyclics = cyclic_subgroups(G)
    full = [C for C in cyclics if C.order == p ** r]
    for C in cyclics:
        assert any(C.index_set <= D.index_set for D in full)


def test_abelian_groups_of_order():
    assert [g.divisors for g in abelian_groups_of_order(1)] == [()]
    assert [g.divisors for g in abelian_groups_of_order(27)] \
        == [(3, 3, 3), (3, 9), (27,)]
    assert len(abelian_groups_of_order(16)) == 5
    assert [g.divisors for g in abelian_groups_of_order(45)] == [(3, 15), (45,)]


@pytest.mark.parametrize("n", [12.0, 0, -12, "12", None])
def test_abelian_groups_of_order_rejects_an_order_that_is_not_a_positive_int(n):
    # 12.0 gave the groups (2, 6.0) and (12.0,), spec "2,6.0"; 0 and -12
    # raised a bare ValueError from factorize
    with pytest.raises(BadDivisor) as info:
        abelian_groups_of_order(n)
    assert info.value.context == {"order": n}


def test_abelian_groups_of_order_match_the_group_make_route():
    # the invariant factors are assembled from the Sylow partitions;
    # group_make reaches them by gcd and lcm of the prime powers
    def partitions(e):
        return [part for k in range(1, e + 1)
                for part in itertools.combinations_with_replacement(range(e, 0, -1), k)
                if sum(part) == e]

    for n in range(1, 2001):
        per_prime = [[[p ** k for k in part] for part in partitions(e)]
                     for p, e in factorize(n).items()]
        want = sorted(group_make([d for powers in combo for d in powers]).divisors
                      for combo in itertools.product(*per_prime))
        assert [G.divisors for G in abelian_groups_of_order(n)] == want, n


# ---------------------------------------------------------------------------
# index paths against the tuple routines they replaced
# ---------------------------------------------------------------------------

GROUPS_TO_64 = [G for n in range(1, 65) for G in abelian_groups_of_order(n)]


# The lattice, the tuple sums and the tuple cycles of each group are built
# once per session and shared by the oracle tests below.

@lru_cache(maxsize=None)
def _subgroups(G):
    return tuple(all_subgroups(G))


@lru_cache(maxsize=None)
def _sums(G):
    """G.add(a, b) for every pair of exponent tuples, as _sums(G)[a][b]."""
    return {a: {b: G.add(a, b) for b in G.elements} for a in G.elements}


@lru_cache(maxsize=None)
def _cyclic_by_adding(G, g):
    """Elements of <g> by repeated tuple addition."""
    out = {G.zero}
    x = g
    while x != G.zero:
        out.add(x)
        x = _sums(G)[x][g]
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _pairing_zeros(G, h):
    """Exponent tuples k with sum_i k_i (n/d_i) h_i = 0 mod n."""
    n = G.exponent
    weights = [n // d for d in G.divisors]
    return frozenset(
        k for k in G.elements
        if sum(ki * w * hi for ki, w, hi in zip(k, weights, h)) % n == 0)


def _annihilator_by_scan(G, H):
    """Exponent tuples k pairing to 0 with every generator of H."""
    zeros = [_pairing_zeros(G, h) for h in H.generators]
    return tuple(k for k in G.elements if all(k in z for z in zeros))


def _induced_perm_by_element(G, images):
    """Image of every element as sum_i e_i * images[i], one tuple at a time."""
    perm = []
    for e in G.elements:
        img = [0] * G.rank
        for coeff, gen_img in zip(e, images):
            for j in range(G.rank):
                img[j] = (img[j] + coeff * gen_img[j]) % G.divisors[j]
        perm.append(G.index_of(tuple(img)))
    return tuple(perm) if len(set(perm)) == G.order else None


def _orbit_keys(orbits):
    return {frozenset(H.elements for H in orbit) for orbit in orbits}


def test_cyclic_subgroups_match_closure_by_adding():
    for G in GROUPS_TO_64:
        found = cyclic_subgroups(G)
        keys = [C.elements for C in found]
        assert keys == sorted(set(keys)), G.divisors
        assert set(keys) == {_cyclic_by_adding(G, g) for g in G.elements}, G.divisors
        for C in found:
            assert C.generators == checked_subgroup(G, C.elements).generators


def test_annihilator_matches_tuple_scan():
    for G in GROUPS_TO_64:
        for H in _subgroups(G):
            assert annihilator(G, H).elements == _annihilator_by_scan(G, H), (
                G.divisors, H.generators)


def test_induced_perm_matches_per_element_formula():
    for G in GROUPS_TO_64:
        for psi in aut_generators(G):
            assert psi.perm == _induced_perm_by_element(G, psi.images)
        zero = [G.zero] * G.rank
        assert _induced_perm(G, zero) == _induced_perm_by_element(G, zero)


def test_cocyclic_orbits_match_full_automorphism_group():
    # |Aut| of the refused groups (2^4, 2^5, 2^6, 2^3 x 4, 2^3 x 6, 2^3 x 8,
    # 2^2 x 4^2, 4^3, 2^4 x 4) is 20,160 or more, above the enumeration bound
    checked = 0
    for G in GROUPS_TO_64:
        if aut_order(G) > _AUT_ORDER_BOUND:
            with pytest.raises(GroupTooLarge):
                automorphisms(G)
            continue
        auts = automorphisms(G)
        assert len(auts) == aut_order(G), G.divisors
        family = cocyclic_subgroups(G) + [Subgroup.whole(G)]
        slow = []
        left = {H.elements: H for H in family}
        while left:
            H = left[min(left)]
            orbit = {psi.apply_subgroup(H).elements for psi in auts}
            slow.append(frozenset(orbit))
            for key in orbit:
                left.pop(key, None)
        assert _orbit_keys(subgroup_orbits(G, family)) == set(slow), G.divisors
        checked += 1
    assert checked == len(GROUPS_TO_64) - 9


def test_owner_type_is_the_type_of_the_annihilator():
    for G in GROUPS_TO_64:
        for C in cyclic_subgroups(G):
            ann = subgroup_type(annihilator(G, C))
            assert quotient_type(G, C) == ann, (G.divisors, C.generators)
            for i in C.indices:
                k = G.elements[i]
                if G.element_order(k) == C.order:  # k generates C
                    assert owner_type(G, k) == ann, (G.divisors, k)


@pytest.mark.parametrize("exps", [(1,), (1, 2, 3)])
def test_generated_rejects_a_tuple_of_the_wrong_length(exps):
    with pytest.raises(GroupMismatch) as info:
        Subgroup.generated(group_make([3, 9]), [(0, 1), exps])
    assert info.value.record()["context"] == {"element": exps}


@pytest.mark.parametrize("k", [(1,), (1, 2, 3)])
def test_owner_type_rejects_a_tuple_of_the_wrong_length(k):
    with pytest.raises(GroupMismatch) as info:
        owner_type(group_make([3, 9]), k)
    assert info.value.record()["context"] == {"element": k}


def test_owner_type_is_the_quotient_type_of_each_element():
    # the closed form of G/<k> against the Smith form of diag(d) and k
    for n in range(1, 129):
        for G in abelian_groups_of_order(n):
            for k in G.elements:
                assert owner_type(G, k) == quotient_type(G, gen(G, k)), (G.divisors, k)


def test_owner_type_partition_equals_cocyclic_orbits():
    # the paper's criterion: two owners annihilator(G, <k>) lie in one
    # Aut(G)-orbit exactly when they are isomorphic
    groups = [G for n in range(1, 129) for G in abelian_groups_of_order(n)]
    assert len(groups) == 247
    for G in groups:
        by_type = {}
        for C in cyclic_subgroups(G):
            k = C.generators[0] if C.generators else G.zero
            by_type.setdefault(owner_type(G, k), set()).add(annihilator(G, C).elements)
        family = cocyclic_subgroups(G) + [Subgroup.whole(G)]
        assert {frozenset(v) for v in by_type.values()} \
            == _orbit_keys(subgroup_orbits(G, family)), G.divisors


# ---------------------------------------------------------------------------
# translations, joins, peels and the lattice against tuple addition
# ---------------------------------------------------------------------------

def _closure_by_adding(G, gens):
    """Elements of the span of gens, as sumsets of tuple cycles."""
    add = _sums(G)
    span = {G.zero}
    for g in gens:
        span = {add[a][c] for a in span for c in _cyclic_by_adding(G, g)}
    return tuple(sorted(span))


def _peel_by_adding(G, universe, start):
    """Invariant factors of U/S by repeated tuple addition: peel the first
    element of maximal order mod S, then close S with it."""
    add = _sums(G)
    universe = list(universe)
    S = set(start)
    out = []
    while len(S) < len(universe):
        best, best_order = None, 0
        for g in universe:
            if g in S:
                continue
            k, x = 1, g
            while x not in S:
                x = add[x][g]
                k += 1
            if k > best_order:
                best, best_order = g, k
        S = {add[a][c] for a in S for c in _cyclic_by_adding(G, best)}
        out.append(best_order)
    return tuple(reversed(out))


def _generators_by_adding(G, H):
    """The greedy generating list by tuple closure: the first member of
    maximal order outside the span, in canonical order."""
    span = {G.zero}
    gens = []
    while len(span) < H.order:
        gens.append(max((g for g in H.elements if g not in span), key=G.element_order))
        span = set(_closure_by_adding(G, gens))
    return tuple(gens)


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def _subgroups_by_add_table(G):
    """Sorted element tuples of every subgroup: breadth-first index-p
    extensions over a tuple-built addition table of each Sylow part, the
    elements of G of p-power order, then tuple sumsets of one subgroup of
    each part."""
    per_prime = []
    for p in sylow_decompose(G).primes:
        elems = [g for g in G.elements if _is_p_power(G.element_order(g), p)]
        index = {e: i for i, e in enumerate(elems)}
        table = [[index[G.add(a, b)] for b in elems] for a in elems]
        pmul = [index[G.scale(p, e)] for e in elems]
        seen = {frozenset([index[G.zero]])}
        frontier = list(seen)
        while frontier:
            nxt = []
            for H in frontier:
                for gi in range(len(elems)):
                    if gi in H or pmul[gi] not in H:
                        continue
                    K, coset = set(H), H
                    for _ in range(p - 1):
                        coset = {table[gi][i] for i in coset}
                        K |= coset
                    K = frozenset(K)
                    if K not in seen:
                        seen.add(K)
                        nxt.append(K)
            frontier = nxt
        per_prime.append([[elems[i] for i in S] for S in seen])
    out = []
    for combo in itertools.product(*per_prime):
        span = {G.zero}
        for part in combo:
            span = {G.add(a, b) for a in span for b in part}
        out.append(tuple(sorted(span)))
    return sorted(out)


def test_translation_matches_tuple_addition():
    for G in GROUPS_TO_64:
        for g in G.elements:
            assert _translation(G, g) == [G.index_of(_sums(G)[g][x]) for x in G.elements]


def test_all_subgroups_match_add_table_route():
    for G in GROUPS_TO_64:
        assert [H.elements for H in _subgroups(G)] == _subgroups_by_add_table(G), G.divisors


def test_index_p_covers_match_tuple_closure():
    # every subgroup H and prime p: the distinct spans of H and one g
    # outside H with p*g in H
    for G in GROUPS_TO_64:
        add = _sums(G)
        for p in sylow_decompose(G).primes:
            for H in _subgroups(G):
                members = set(H.elements)
                expected = sorted({
                    tuple(sorted({add[a][c] for a in H.elements
                                  for c in _cyclic_by_adding(G, g)}))
                    for g in G.elements
                    if g not in members and G.scale(p, g) in members})
                covers = _index_p_cover_within(G, H, p)
                assert [L.elements for L in covers] == expected, (G.divisors, H.indices, p)


def test_index_p_covers_look_up_no_element_and_scale_rank_times_per_call(monkeypatch):
    # p*g is read off one linear map per call: at most rank scale calls per
    # call, and no element is looked up by its exponent tuple
    calls = {"covers": 0, "index_of": 0, "scale": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    G = group_make([2, 4, 32])
    subs = all_subgroups(G)
    monkeypatch.setattr(AbelianGroup, "index_of", counted("index_of", AbelianGroup.index_of))
    monkeypatch.setattr(AbelianGroup, "scale", counted("scale", AbelianGroup.scale))
    covers = counted("covers", _index_p_cover_within)
    for H in subs:
        covers(G, H, 2)
    assert calls["covers"] == len(subs) == subgroup_count(G)
    assert calls["index_of"] == 0
    assert calls["scale"] <= G.rank * calls["covers"]


def test_joins_match_tuple_closure():
    for G in GROUPS_TO_64:
        add = _sums(G)
        probes = [(0,) * (G.rank - 1) + (1,), (1,) * G.rank] if G.rank else []
        subs = _subgroups(G)
        for H, K in zip(subs, subs[1:] + subs[:1]):
            assert Subgroup.generated(G, H.generators).elements \
                == _closure_by_adding(G, H.generators) == H.elements
            for g in probes:
                cyc = _cyclic_by_adding(G, g)
                assert Subgroup.generated(G, H.generators + (g,)).elements \
                    == tuple(sorted({add[a][c] for a in H.elements for c in cyc}))
            assert Subgroup.generated(G, H.generators + K.generators).elements \
                == tuple(sorted({add[a][b] for a in H.elements for b in K.elements}))


def test_generators_match_greedy_by_adding():
    for G in GROUPS_TO_64:
        for H in _subgroups(G):
            assert H.generators == _generators_by_adding(G, H), (G.divisors, H.indices)


def test_peels_match_tuple_addition():
    for G in GROUPS_TO_64:
        for H in _subgroups(G):
            assert quotient_type(G, H) == _peel_by_adding(G, G.elements, H.elements)
            assert subgroup_type(H) == _peel_by_adding(G, H.elements, [G.zero])
