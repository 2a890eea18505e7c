"""The per-code owner path and the orbit walk that ``group_algebra._owners``
replaced, kept only as test oracles.

``primitive_idempotents`` built each code's owner annihilator(G, <k>) on
its own: the |G|-length list t(g) of ``_character_values``, the indices
where t is 0, a fresh ``Subgroup`` from them, and that subgroup's own
peel of its generators, one ``_join`` per generator even when the owner
is cyclic.  ``classify`` then sorted the codes by (owner indices, orbit
representative) and keyed each code by ``owner_type`` on its own.  The
orbit representatives came from a walk of the |G|-entry permutation
k -> q*k.
"""

from abelian_codes import owner_type
from abelian_codes.group_algebra import Subgroup, _character_values, _join, _orders
from abelian_codes.reference import _basis_exps, _induced_perm


def _orbit_reps(group, q):
    """The lex-least member of each orbit of characters under k -> q*k, in
    order: indices are walked in order, so the first member met of an
    orbit is its least exponent tuple."""
    step = _induced_perm(group, [group.scale(q, _basis_exps(group, i))
                                 for i in range(group.rank)])
    seen = bytearray(group.order)
    reps = []
    for i in range(group.order):
        if not seen[i]:
            reps.append(group.elements[i])
            j = i
            while not seen[j]:
                seen[j] = 1
                j = step[j]
    return reps


def owner_by_character_values(group, k):
    """annihilator(G, <k>) from the kernel t(g) = 0 of k's character."""
    ts = _character_values(group, k)[1]
    return Subgroup._from_indices(group, [i for i, t in enumerate(ts) if not t])


def peel_by_joins(H):
    """H's generators by the single-pass peel: each index of H's exponent
    not yet spanned, joined to the span until the span is H."""
    group, orders = H.group, _orders(H.group)
    top = max(orders[i] for i in H.indices)
    span, gens = {0}, []
    for i in H.indices:
        if orders[i] == top and i not in span:
            gens.append(group.elements[i])
            span = _join(group, span, gens[-1])
            if len(span) == H.order:
                break
    return tuple(gens)


def classes_by_owner_sort(group, reps):
    """The orbit representatives of each class, in ``classify``'s order:
    sorted by (owner indices, representative), each keyed by its own
    ``owner_type``."""
    keyed = sorted((owner_by_character_values(group, k).indices, k) for k in reps)
    classes = {}
    for _, k in keyed:
        classes.setdefault(owner_type(group, k), []).append(k)
    return list(classes.values())
