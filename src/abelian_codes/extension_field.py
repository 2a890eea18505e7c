"""GF(p^m) for m > 1: polynomial arithmetic over GF(p), the lex-first
irreducible modulus of each degree and the two extension-field contexts.

The modulus of GF(p^m) is the lex-first monic irreducible of degree m,
found by one Rabin test for every p (``poly_is_irreducible``).
``finite_field.field_make`` imports this module only when m > 1, so a run
over a prime field never compiles it.
"""

from .errors import DegreeMismatch
from .finite_field import FieldCtx, _gf2_mask, _gf2_vector, factorize


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


def _bmod(a, f):
    df, n = f.bit_length(), a.bit_length()
    while n >= df:
        a ^= f << (n - df)
        n = a.bit_length()
    return a


def _bmulmod(a, b, f):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return _bmod(r, f)


def _bgcd(a, b):
    while b:
        a, b = b, _bmod(a, b)
    return a


def lex_tuples(elements, d):
    """The tuples of itertools.product(elements(), repeat=d), in its order,
    without listing elements() first: an odometer over d fresh iterators,
    so a scan that stops early never touches more than it yields.
    elements is a callable returning a new iterator of non-None values."""
    its = [elements() for _ in range(d)]
    word = [next(it) for it in its]
    while True:
        yield tuple(word)
        for i in reversed(range(d)):
            digit = next(its[i], None)
            if digit is not None:
                word[i] = digit
                break
            its[i] = elements()
            word[i] = next(its[i])
        else:
            return

# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

# the gcd of poly_is_irreducible's test also runs at every k up to this
_SIEVE_DEGREE = 8


def poly_is_irreducible(poly, p):
    """Exact irreducibility test for a monic polynomial over GF(p).

    Rabin's test: f of degree m >= 2 is irreducible iff x^(p^m) = x mod f
    and gcd(f, x^(p^k) - x) = 1 for every k = m/l, l a prime divisor of m.
    The gcd also runs at every k < m up to _SIEVE_DEGREE, a distinct-degree
    sieve (Gao and Panario 1997), so most reducible candidates leave after
    a few Frobenius steps.  Both are exact: for k < m, the gcd is 1 exactly
    when f has no factor of degree dividing k, which an irreducible f of
    degree m has not.

    Over GF(2), f is an int and squaring spreads the bits: the square of a
    polynomial over GF(2) has the coefficient of x^i at x^2i, which is its
    binary numeral read in base 4.  Over odd p, x^(p^k) is computed in
    ExtField(p, m, f), whose reduction holds for any monic f: the modulus
    need not be irreducible there.
    """
    m = len(poly) - 1
    if m == 1:
        return True
    checks = {m // ell for ell in factorize(m)}.union(range(1, _SIEVE_DEGREE + 1))
    if p == 2:
        f = _gf2_mask(poly)
        frobenius = lambda a: _bmod(int(format(a, "b"), 4), f)
        x = 2
        has_factor = lambda a: _bgcd(a ^ x, f) != 1
    else:
        ring = ExtField(p, m, poly)
        frobenius = lambda a: ring.pow(a, p)
        x = (0, 1) + (0,) * (m - 2)
        has_factor = lambda a: len(_pgcd(ring.sub(a, x), poly, p)) > 1
    cur = x
    for k in range(1, m):
        cur = frobenius(cur)
        if k in checks and has_factor(cur):
            return False
    return frobenius(cur) == x


def _first_irreducible(p, m):
    """Lexicographically first monic irreducible of degree m >= 2 over
    GF(p), coefficients compared low-to-high.

    Candidates with zero constant term are divisible by x, so the scan
    starts at constant term 1 (otherwise the c_0 = 0 prefix block alone has
    p^(m-1) members).
    """
    for c0 in range(1, p):
        for tail in lex_tuples(range(p).__iter__, m - 1):
            poly = [c0] + list(tail) + [1]
            if poly_is_irreducible(poly, p):
                return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# extension-field contexts
# ---------------------------------------------------------------------------

class BinaryExtField(FieldCtx):
    """GF(2^m): raw scalars are ints whose bit i is the x^i coefficient."""

    __slots__ = ("p", "m", "order", "modulus", "zero", "one", "_modint")

    def __init__(self, m, modulus):
        self.p = 2
        self.m = m
        self.order = 1 << m
        self.modulus = tuple(modulus)
        self.zero = 0
        self.one = 1
        self._modint = _gf2_mask(self.modulus)

    def from_int(self, k):
        return k % 2

    def raw_from_coeffs(self, coeffs):
        if len(coeffs) != self.m:
            raise DegreeMismatch("expected %d coefficients" % self.m, got=len(coeffs))
        return _gf2_mask([c % 2 for c in coeffs])

    def coeffs(self, a):
        return _gf2_vector(a, self.m)

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        return _bmulmod(a, b, self._modint)


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
