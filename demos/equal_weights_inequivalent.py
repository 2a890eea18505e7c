#!/usr/bin/env python3
"""Two minimal codes with identical weight distributions that are NOT
equivalent under any group automorphism.

In F_2[C_{p^2} x C_p] the codes generated by hat(a) - hat(G) and by
hat(<a^p> x <b>) - hat(G) both have dimension p-1 and the same weight
histogram (C(p, 2k) words of weight 2k p^2), yet the supports consist of
elements of different orders, so no automorphism can map one to the other.
Equal weight distributions therefore do not imply equivalence.
"""

from abelian_codes import (
    AlgebraElement,
    Subgroup,
    automorphisms,
    classify,
    cocyclic_idempotent,
    equivalent,
    field_make,
    get_algebra,
    group_make,
    minimal_code,
    primitive_idempotents,
    weight_distribution,
)

for p in (3, 5):
    G = group_make([p * p, p])
    F2 = field_make(2)
    algebra = get_algebra(G, F2)

    a_span = Subgroup.generated(G, [(0, 1)])                 # <a>, order p^2
    mixed = Subgroup.generated(G, [(0, p), (1, 0)])          # <a^p> x <b>

    prims = {AlgebraElement.from_idempotent(ide): ide for ide in primitive_idempotents(G, F2)}
    e2 = prims[cocyclic_idempotent(G, a_span, F2)]
    e3 = prims[cocyclic_idempotent(G, mixed, F2)]

    code2 = minimal_code(algebra, e2)
    code3 = minimal_code(algebra, e3)
    dist2 = weight_distribution(code2)
    dist3 = weight_distribution(code3)
    auts = automorphisms(G)

    print("p = %d, group C_%d x C_%d over GF(2)" % (p, p * p, p))
    print("  code over <a>:          dim %d, distribution %s"
          % (code2.dimension, dist2.histogram))
    print("  code over <a^p> x <b>:  dim %d, distribution %s"
          % (code3.dimension, dist3.histogram))
    print("  distributions equal:    %s" % (dist2 == dist3))
    print("  codes equivalent:       %s" % equivalent(code2, code3, auts))
    print()

print("summary: the full classification still separates them:")
report = classify(group_make([9, 3]), field_make(2))
print("  C_9 x C_3: %d classes (tau(9) = %d)" % (report.class_count, report.tau))
