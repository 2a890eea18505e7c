"""Acceptance gate: each test asserts one stated criterion verbatim, prints
a PASS/FAIL line, and enforces the declared time budget.

Criterion 6 is marked xfail(strict): the computation refutes the predicted
"class count matches tau(exp G) exactly for homocyclic groups" on three
groups whose Sylow components are homocyclic of different ranks; the test
body asserts the criterion as stated and prints the witnesses.
"""

import itertools
import time
from math import comb

import pytest

from abelian_codes import (
    AlgebraElement,
    Subgroup,
    abelian_groups_of_order,
    all_subgroups,
    annihilator,
    automorphisms,
    classify,
    cocyclic_idempotent_family,
    equivalent,
    field_make,
    get_algebra,
    group_make,
    homocyclic_factorization,
    idempotent_group,
    minimal_code,
    primitive_idempotents,
    quotient_type,
    tau_sweep,
    weight_distribution,
)
from abelian_codes.reference import subgroup_type

F2 = field_make(2)
dense = AlgebraElement.from_idempotent


def _mask(H):
    """The subgroup H as a bitmask over the element indices."""
    return sum(1 << i for i in H.indices)


def report(name, elapsed, budget):
    line = "criterion %s: PASS (%.2fs / budget %ss)" % (name, elapsed, budget)
    print(line)


def test_criterion_1_rank2_table_at_p3():
    t0 = time.perf_counter()
    rep = classify(group_make([9, 3]), F2)
    dims = sorted(r.dimension for r in rep.codes)
    weights = sorted(r.min_weight for r in rep.codes)
    elapsed = time.perf_counter() - t0
    assert len(rep.codes) == 8
    assert dims == sorted([1, 6, 6, 6, 2, 2, 2, 2])
    assert weights == sorted([27, 6, 6, 6, 18, 18, 18, 18])
    assert rep.class_count == 4
    assert elapsed < 1.0
    report("1 (C_9 x C_3 table, p=3)", elapsed, 1)


def test_criterion_2_equal_distributions_inequivalent():
    t0 = time.perf_counter()
    for p, expected in (
        (3, {0: 1, 18: 3}),
        (5, {0: 1, 50: comb(5, 2), 100: comb(5, 4)}),
    ):
        G = group_make([p * p, p])
        algebra = get_algebra(G, F2)
        a_span = Subgroup.generated(G, [(0, 1)])
        mixed = Subgroup.generated(G, [(0, p), (1, 0)])
        by_sub = {ide.phi_subgroup: ide for ide in primitive_idempotents(G, F2)}
        code2 = minimal_code(algebra, by_sub[a_span])
        code3 = minimal_code(algebra, by_sub[mixed])
        d2 = weight_distribution(code2)
        d3 = weight_distribution(code3)
        assert d2.histogram == expected
        assert d2 == d3
        auts = automorphisms(G)
        assert equivalent(code2, code3, auts) is False
        # expected distribution is C(p, 2k) words of weight 2k p^2
        for k in range(1, (p - 1) // 2 + 1):
            assert d2.histogram[2 * k * p * p] == comb(p, 2 * k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("2 (equal distributions, inequivalent codes; p=3,5)", elapsed, 10)


def test_criterion_3_rank2_table_at_p3_n3():
    t0 = time.perf_counter()
    rep = classify(group_make([27, 3]), F2, with_distributions=True)
    assert rep.class_count == 6
    profiles = sorted({(c.representative.dimension, c.representative.min_weight)
                       for c in rep.classes})
    assert profiles == [(1, 81), (2, 54), (6, 18), (18, 6)]
    big = [c for c in rep.classes if c.representative.dimension == 18]
    for cls in big:
        dist = cls.representative.distribution
        assert dist.total == 2 ** 18
        assert dist.min_nonzero() == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("3 (C_27 x C_3, 6 classes, dim-18 distribution exact)", elapsed, 60)


def test_criterion_4_family_vs_primitive_set():
    t0 = time.perf_counter()
    G = group_make([9, 3])
    fam = cocyclic_idempotent_family(G, F2)
    alg = get_algebra(G, F2)
    total = AlgebraElement.zero(alg)
    for (H, e), (K, f) in itertools.combinations(fam, 2):
        assert (e * f).is_zero()
    for _, e in fam:
        total = total + e
    assert total == AlgebraElement.one(alg)
    prims = primitive_idempotents(G, F2)
    assert {dense(p) for p in prims} == {e for _, e in fam}

    C9 = group_make([9])
    F7 = field_make(7)
    prims7 = primitive_idempotents(C9, F7)
    fam7 = cocyclic_idempotent_family(C9, F7)
    assert len(prims7) == 5 > 3 == len(fam7)
    elapsed = time.perf_counter() - t0
    report("4 (orthogonal family = primitive set; F_7[C_9] splits 5 > 3)",
           elapsed, "-")


def test_criterion_5_duality_suite_up_to_64():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 65):
        for G in abelian_groups_of_order(n):
            subs = all_subgroups(G)
            anns = {H.elements: annihilator(G, H) for H in subs}
            for H in subs:
                A = anns[H.elements]
                assert annihilator(G, A) == H
                assert A.order * H.order == G.order
            masks = [(_mask(H), _mask(anns[H.elements])) for H in subs]
            for (h1, a1), (h2, a2) in itertools.combinations(masks, 2):
                incl = (h1 | h2) == h2
                rev = (a2 | a1) == a1
                assert incl == rev
                # proper inclusions stay proper under the bijection
                if incl and h1 != h2:
                    assert a2 != a1
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("5 (duality suite, %d groups of order <= 64)" % checked, elapsed, 30)


@pytest.mark.xfail(
    strict=True,
    reason="refuted by computation: C_3 x C_15, C_3 x C_21 and C_5 x C_15 have "
           "class_count = tau(exp G) without being homocyclic (their Sylow "
           "components are homocyclic of different ranks, so each contributes "
           "exactly tau(p^r) orbits and the counts multiply); the correct "
           "characterization is 'every Sylow component homocyclic', which "
           "test_corrected_tau_characterization pins down",
)
def test_criterion_6_tau_sweep_match_iff_homocyclic():
    t0 = time.perf_counter()
    groups = []
    for n in range(1, 82):
        if n % 2 == 1:
            groups.extend(abelian_groups_of_order(n))
    rows = tau_sweep(groups, F2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    mismatches = [r for r in rows if r["match"] != r["homocyclic"]]
    if mismatches:
        print("criterion 6: the stated prediction fails; witnesses where "
              "match != homocyclic:")
        for r in mismatches:
            print("  %(group)s: class_count=%(class_count)d tau=%(tau)d "
                  "homocyclic=%(homocyclic)s match=%(match)s" % r)
    assert not mismatches, "class_count = tau(exp G) must hold iff homocyclic"
    report("6 (tau sweep over odd orders <= 81)", elapsed, 300)


def test_corrected_tau_characterization():
    # ground truth the sweep actually satisfies: the class count equals
    # tau(exp G) exactly when every Sylow component is homocyclic
    t0 = time.perf_counter()
    groups = []
    for n in range(1, 82):
        if n % 2 == 1:
            groups.extend(abelian_groups_of_order(n))
    rows = tau_sweep(groups, F2)
    from abelian_codes import sylow_decompose
    for G, row in zip(groups, rows):
        dec = sylow_decompose(G)
        sylow_homocyclic = all(
            len(set(comp.divisors)) <= 1 for comp in dec.components.values()
        )
        assert row["match"] == sylow_homocyclic, row
    elapsed = time.perf_counter() - t0
    print("corrected tau characterization holds on all %d groups (%.2fs)"
          % (len(groups), elapsed))


def test_criterion_7_oracle_equivalence_up_to_45():
    t0 = time.perf_counter()
    pairs = 0
    for n in range(1, 46, 2):
        for G in abelian_groups_of_order(n):
            prims = primitive_idempotents(G, F2)
            algebra = get_algebra(G, F2)
            codes = [minimal_code(algebra, p) for p in prims]
            auts = automorphisms(G)
            # exhaustive oracle: all automorphism images of each idempotent
            # (GF(2): an element is exactly its support set)
            supports = [frozenset(dense(c.generator).support) for c in codes]
            images = [
                {frozenset(psi.perm[i] for i in s) for psi in auts}
                for s in supports
            ]
            for (i, c1), (j, c2) in itertools.combinations(enumerate(codes), 2):
                assert equivalent(c1, c2, auts) == (supports[j] in images[i])
                pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report("7 (orbit decision == exhaustive automorphism search, %d pairs)"
           % pairs, elapsed, 300)


def test_criterion_8_translate_groups_and_factorization():
    t0 = time.perf_counter()
    for divisors in ([9, 3], [3, 3]):
        G = group_make(divisors)
        for ide in primitive_idempotents(G, F2):
            ig = idempotent_group(ide)
            assert ig == quotient_type(G, ide.phi_subgroup)
            assert len(ig) <= 1  # cyclic
    C33 = group_make([3, 3])
    for ide in primitive_idempotents(C33, F2):
        result = homocyclic_factorization(C33, ide, F2)
        assert result is not None
        K, h, e_h = result
        assert subgroup_type(K) == (3,)
        assert h.order() == 3
    elapsed = time.perf_counter() - t0
    report("8 (translate groups match quotients; hat(K)*e_h factorization)",
           elapsed, "-")
