"""Dense |G|-length routines that the per-character-order paths replaced,
kept only as test oracles.

* ``orbit_sum_idempotents`` sums |orbit| root powers for every (orbit, g)
  pair, with the orbits found by ``group.scale`` on exponent tuples;
* ``element_of_order_by_pow`` raises each coprime power with ``field.pow``;
* ``modulus_root_by_lex_walk`` finds a root of the base modulus on the
  powers of the lex-least element of order q - 1;
* ``lifted_basis`` reads the length-o basis of a minimal code that its
  two-vector bound reduces back at length |G|, and ``dense_basis``
  row-reduces all |G| translates of an element.
"""

from math import gcd

from abelian_codes.codes import _basis, _reduce
from abelian_codes.finite_field import factorize
from abelian_codes.group_algebra import _character_values, element_of_order, splitting_field


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
    return min(cands, key=field.coeffs)


def modulus_root_by_lex_walk(ctx, big):
    """The lex-least root of ctx.modulus in big: the first root among the
    powers of ``element_of_order(big, q - 1)``, then the least of its m
    p-power conjugates."""
    g = element_of_order(big, ctx.order - 1)
    z = g
    while True:
        acc = big.zero
        for c in reversed(ctx.modulus):
            acc = big.add(big.mul(acc, z), big.from_int(c))
        if acc == big.zero:
            break
        z = big.mul(z, g)
    roots = [z]
    for _ in range(ctx.m - 1):
        roots.append(big.pow(roots[-1], ctx.p))
    return min(roots, key=big.coeffs)


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


def lifted_basis(code):
    """The |G|-length rows of a minimal code: each row of the length-o basis
    that ``min_weight_or_bound`` reduces, with its columns ordered by the
    first appearance of each value of t (``_character_values``), read back
    through t."""
    ts = _character_values(code.algebra.group, code.generator.orbit_rep)[1]
    first = {}
    for t in ts:
        first.setdefault(t, len(first))
    basis = _basis(code.algebra.ctx, code.row, code.dimension, list(first))
    return [tuple(b[first[t]] for t in ts) for b in basis]


def dense_basis(algebra, e):
    """Row-reduced basis of the ideal generated by any element e, over all
    |G| translates of e."""
    group = algebra.group
    return _reduce((e.translated(g).coeffs for g in group.elements), algebra.ctx, group.order)
