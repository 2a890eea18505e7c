"""The tuple form of GF(p^m), kept only as the test oracle of
``odd_field.ExtField``, and Rabin's irreducibility test run in it.

Before the raws of odd GF(p^m) became packed ints, a raw was the tuple of
its m coefficients, low to high.  Every product packed both operands into
``bits``-bit slots of one int, multiplied once, folded the high half back
through xk[k], the packed x^(m+k) mod the modulus, and unpacked the m slots
with one ``%`` each; every sum was a generator with one ``%`` per digit.
The reduction holds for any monic modulus of degree m, irreducible or not,
and for p = 2 as well, so the same class is the ring GF(p)[x]/(f) of the
Rabin test below.
"""

from abelian_codes.errors import DegreeMismatch
from abelian_codes.finite_field import FieldCtx, factorize
from abelian_codes.odd_field import _pgcd


class TupleExtField(FieldCtx):
    """GF(p^m): raw scalars are coefficient tuples of length m."""

    __slots__ = ("p", "m", "order", "modulus", "zero", "one", "bits", "mask", "xk")

    def __init__(self, p, m, modulus):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = modulus = tuple(modulus)
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        # largest digit during mul: a raw product digit is at most
        # m(p-1)^2, and the reduction adds m-1 of those scaled by table
        # digits below p
        digit_bound = m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))
        self.bits = max(32, digit_bound.bit_length() + 1)
        self.mask = (1 << self.bits) - 1
        # xk[k] = packed(x^(m+k) mod modulus) for k = 0..m-2
        self.xk = []
        cur = [(-c) % p for c in modulus[:m]]  # x^m mod modulus
        for _ in range(max(m - 1, 1)):
            self.xk.append(self._pack(cur))
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for i in range(m):
                    cur[i] = (cur[i] - lead * modulus[i]) % p

    def from_int(self, k):
        return (k % self.p,) + (0,) * (self.m - 1)

    def raw_from_coeffs(self, coeffs):
        if len(coeffs) != self.m:
            raise DegreeMismatch("expected %d coefficients" % self.m, got=len(coeffs))
        return tuple(c % self.p for c in coeffs)

    def coeffs(self, a):
        return a

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def _pack(self, coeffs):
        out = 0
        bits = self.bits
        for i, c in enumerate(coeffs):
            if c:
                out |= c << (bits * i)
        return out

    def mul(self, a, b):
        m = self.m
        bits = self.bits
        mask = self.mask
        full = self._pack(a) * self._pack(b)
        acc = full & ((1 << (bits * m)) - 1)
        for k in range(m - 1):
            d = (full >> (bits * (m + k))) & mask
            if d:
                acc += d * self.xk[k]
        p = self.p
        return tuple((acc >> (bits * i) & mask) % p for i in range(m))


def rabin_at_milestones(f, p):
    """Rabin's test of the monic f over GF(p), with the gcd only at
    k = m/l, l a prime divisor of m: no sieve, and x^(p^k) computed in
    ``TupleExtField(p, m, f)`` for every p, GF(2) included.  The slow
    route, kept as the oracle of ``poly_is_irreducible``."""
    m = len(f) - 1
    ring = TupleExtField(p, m, f)
    milestones = {m // ell for ell in factorize(m)}
    x = cur = (0, 1) + (0,) * (m - 2)
    for k in range(1, m + 1):
        cur = ring.pow(cur, p)
        if k in milestones and len(_pgcd(ring.sub(cur, x), f, p)) > 1:
            return False
    return cur == x
