"""GF(p^m) for odd p and m > 1: polynomial arithmetic over GF(p) and the
field context ``ExtField``.

``extension_field`` holds what every characteristic shares (the modulus
search and ``lex_tuples``) and GF(2^m).  ``finite_field.field_make`` and
``extension_field.poly_is_irreducible`` import this module only where p is
odd, so a job over GF(2) or GF(2^m) never compiles it.
"""

from .errors import DegreeMismatch
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
    """GF(p^m) for odd p: raw scalars are coefficient tuples of length m.

    mul is Kronecker-packed: it puts each operand's coefficients in
    ``bits``-bit slots of one int, multiplies once, and folds the high half
    back through xk[k], the packed x^(m+k) mod the modulus.  That holds for
    any monic modulus of degree m, irreducible or not."""

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
