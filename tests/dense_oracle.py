"""Dense |G|-length routines that the per-character-order paths replaced,
kept only as test oracles.

* ``orbit_sum_idempotents`` sums |orbit| root powers for every (orbit, g)
  pair, with the orbits found by ``group.scale`` on exponent tuples;
* ``element_of_order_by_pow`` raises each coprime power with ``field.pow``.
"""

from math import gcd

from abelian_codes.finite_field import element_of_order, factorize, splitting_field


def element_of_order_by_pow(field, n):
    """Lex-least element of order n, as min over field.pow(found, k)."""
    if n == 1:
        return field.one
    cofactor = (field.order - 1) // n
    found = None
    for z in field.elements():
        if z == field.zero:
            continue
        w = field.pow(z, cofactor)
        if w != field.one and all(
                field.pow(w, n // ell) != field.one for ell in factorize(n)):
            found = w
            break
    cands = [field.pow(found, k) for k in range(1, n) if gcd(k, n) == 1]
    return min(cands, key=field.lex_key)


def orbit_sum_idempotents(group, ctx):
    """[(rep, coefficient list)] of every primitive idempotent, sorted by
    rep: coefficient at g is (1/|G|) sum over k in the q-orbit of rep of
    zeta^<k, -g>, restricted to the base field."""
    n = group.exponent
    big, _embed, restrict = splitting_field(ctx, n)
    root = element_of_order(big, n)
    powers = [big.one]
    for _ in range(n - 1):
        powers.append(big.mul(powers[-1], root))
    weights = [n // d for d in group.divisors]
    inv_order = ctx.inv(ctx.from_int(group.order))
    orbits, seen = [], set()
    for k in group.elements:
        orbit = []
        while k not in seen:
            seen.add(k)
            orbit.append(k)
            k = group.scale(ctx.order, k)
        if orbit:
            orbits.append((min(orbit), orbit))
    out = []
    for rep, orbit in sorted(orbits):
        coeffs = []
        for g in group.elements:
            ng = group.neg(g)
            s = big.zero
            for k in orbit:
                s = big.add(s, powers[sum(a * w * b for a, w, b in zip(k, weights, ng)) % n])
            coeffs.append(ctx.mul(restrict(s), inv_order))
        out.append((rep, coeffs))
    return out
