#!/usr/bin/env python3
"""The algebraic substrate: characters, annihilator duality, and how the
subgroup-indexed idempotent family relates to the primitive idempotents.

Over a field whose multiplicative order modulo exp(G) equals phi(exp(G)),
the family member attached to each co-cyclic subgroup is already
primitive; over other fields it splits into several primitive idempotents,
all owned by the same subgroup.
"""

from abelian_codes import (
    AlgebraElement,
    Subgroup,
    all_subgroups,
    annihilator,
    characters,
    cocyclic_idempotent_family,
    cocyclic_subgroups,
    euler_phi,
    field_make,
    group_make,
    mul_order,
    primitive_idempotents,
)

G = group_make([9, 3])
print("group C_9 x C_3; exponent", G.exponent)

F64 = field_make(2, 6)
chars = characters(G, F64)
print("characters over GF(64):", len(chars), "(a full dual copy of G)")

print("\nannihilator duality (|H| * |ann H| = |G|, order-reversing):")
for H in all_subgroups(G)[:5]:
    A = annihilator(G, H)
    print("  |H| = %-2d  |ann H| = %-2d  ann(ann H) == H: %s"
          % (H.order, A.order, annihilator(G, A) == H))

print("\nco-cyclic subgroups =", len(cocyclic_subgroups(G)),
      "(every annihilator of a nontrivial cyclic subgroup)")

F2 = field_make(2)
fam = cocyclic_idempotent_family(G, F2)
prims = {AlgebraElement.from_idempotent(p) for p in primitive_idempotents(G, F2)}
print("\nover GF(2): mul_order(2, 9) = %d = phi(9) = %d"
      % (mul_order(2, 9), euler_phi(9)))
print("family size %d; family members that are primitive: %d"
      % (len(fam), sum(1 for _, e in fam if e in prims)))

C9 = group_make([9])
F7 = field_make(7)
fam7 = cocyclic_idempotent_family(C9, F7)
prims7 = primitive_idempotents(C9, F7)
print("\nover GF(7) on C_9: mul_order(7, 9) = %d < phi(9) = %d"
      % (mul_order(7, 9), euler_phi(9)))
print("family size %d but %d primitive idempotents: the family splits"
      % (len(fam7), len(prims7)))
for H, eH in fam7:
    fiber = [p for p in prims7 if p.phi_subgroup == H]
    print("  subgroup of order %d carries %d primitive idempotent(s)"
          % (H.order, len(fiber)))
