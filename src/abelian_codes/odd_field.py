"""GF(p^m) for odd p and m > 1: the field context ``ExtField``, whose raw
is one int with a base-p digit in each slot, and the gcd over GF(p) that
the modulus search runs on coefficient lists.

``extension_field`` holds what every characteristic shares (the modulus
search and ``lex_tuples``) and GF(2^m).  ``finite_field.field_make`` and
``extension_field.poly_is_irreducible`` import this module only where p is
odd, so a job over GF(2) or GF(2^m) never compiles it.
"""

from .errors import DegreeMismatch
from .extension_field import slot_adder
from .finite_field import FieldCtx


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p), coefficients low-to-high
# ---------------------------------------------------------------------------

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, f, p):
    """a mod f with f monic; lists low-to-high."""
    a = list(a)
    df = len(f) - 1
    _ptrim(a)
    while len(a) - 1 >= df:
        lead = a[-1]
        shift = len(a) - 1 - df
        for i in range(df + 1):
            a[shift + i] = (a[shift + i] - lead * f[i]) % p
        _ptrim(a)
    return a


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    _ptrim(a)
    _ptrim(b)
    while b:
        # make b monic before reduction
        inv_lead = pow(b[-1], p - 2, p)
        bm = [(c * inv_lead) % p for c in b]
        a, b = bm, _pmod(a, bm, p)
    return a


# ---------------------------------------------------------------------------
# the field context
# ---------------------------------------------------------------------------

class ExtField(FieldCtx):
    """GF(p^m) for odd p: a raw is one int, holding the coefficient of x^i
    in its slot i of ``bits`` bits.

    add, sub and neg are ``slot_adder``'s carry trick; sub and neg first
    add p to every slot.  mul is a Kronecker product: one product of the
    two ints, whose high half is folded back through xk[k], the raw of
    x^(m+k) mod the modulus, and then one pass takes every slot mod p.
    That holds for any monic modulus of degree m, irreducible or not."""

    __slots__ = ("p", "m", "order", "modulus", "bits", "mask", "xk", "add", "sub", "neg",
                 "_shifts", "_low")

    def __init__(self, p, m, modulus):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = modulus = tuple(modulus)
        # largest slot during mul: a product's slot is at most m(p-1)^2, and
        # the fold adds m-1 of those scaled by digits below p
        digit_bound = m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))
        self.bits = bits = max(32, digit_bound.bit_length() + 1)
        self.mask = (1 << bits) - 1
        self._shifts = range(0, bits * m, bits)
        self._low = (1 << bits * m) - 1
        ones = sum(1 << i for i in self._shifts)
        self.add = add = slot_adder(p, ones)
        lift = ones * p
        self.sub = lambda a, b: add(a, lift - b)
        self.neg = lambda a: add(lift - a, 0)
        # xk[k] = x^(m+k) mod modulus for k = 0..m-2
        self.xk = []
        cur = [-c % p for c in modulus[:m]]  # x^m mod modulus
        for _ in range(m - 1):
            self.xk.append(self.raw_from_coeffs(cur))
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                cur = [(c - lead * f) % p for c, f in zip(cur, modulus)]

    def raw_from_coeffs(self, coeffs):
        if len(coeffs) != self.m:
            raise DegreeMismatch("expected %d coefficients" % self.m, got=len(coeffs))
        p = self.p
        return sum(c % p << i for c, i in zip(coeffs, self._shifts))

    def coeffs(self, a):
        mask = self.mask
        return tuple(a >> i & mask for i in self._shifts)

    def mul(self, a, b):
        bits, mask, p = self.bits, self.mask, self.p
        full = a * b
        acc = full & self._low
        full >>= self._shifts.stop
        for x in self.xk:
            d = full & mask
            if d:
                acc += d * x
            full >>= bits
        out = 0
        for i in reversed(self._shifts):
            out = out << bits | (acc >> i & mask) % p
        return out
