"""GF(p^m) for m > 1: the lex-first irreducible modulus of each degree,
GF(2^m), ``lex_tuples`` and the slot-wise sum mod p, ``slot_adder``.

The modulus of GF(p^m) is the lex-first monic irreducible of degree m,
found by one Rabin test for every p (``poly_is_irreducible``) and kept per
(p, m) once found.  ``finite_field.field_make`` imports this module only
when m > 1, so a run over a prime field never compiles it.  GF(2^m) is a
bitmask and odd GF(p^m) an int of base-p slots, ``odd_field.ExtField``,
which ``field_make`` and ``poly_is_irreducible`` import only when p is odd.
"""

from .errors import DegreeMismatch
from .finite_field import FieldCtx, _gf2_mask, _gf2_vector, factorize


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(2), polynomials as bitmasks
# ---------------------------------------------------------------------------

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


def slot_adder(p, ones):
    """The slot-wise sum mod p of ints with a digit below p in each slot
    whose lowest bit is set in ones, every slot at least s + 2 bits wide,
    s = (p-1).bit_length(): a slot sum t < 2p, plus 2^(s+1) - p, sets the
    slot's bit s + 1 exactly where t >= p, and there p is subtracted."""
    s1 = (p - 1).bit_length() + 1
    pad = ones * ((1 << s1) - p)

    def add(a, b):
        t = a + b
        return t - ((t + pad) >> s1 & ones) * p
    return add


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
    ``odd_field.ExtField(p, m, f)``, whose reduction holds for any monic
    f: the modulus need not be irreducible there; its digits feed the gcd.
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
        from .odd_field import ExtField, _pgcd

        ring = ExtField(p, m, poly)
        frobenius = lambda a: ring.pow(a, p)
        x = ring.raw_from_coeffs((0, 1) + (0,) * (m - 2))
        has_factor = lambda a: len(_pgcd(ring.coeffs(ring.sub(a, x)), poly, p)) > 1
    cur = x
    for k in range(1, m):
        cur = frobenius(cur)
        if k in checks and has_factor(cur):
            return False
    return frobenius(cur) == x


_MODULI = {}


def _first_irreducible(p, m):
    """Lexicographically first monic irreducible of degree m >= 2 over
    GF(p), coefficients compared low-to-high; each (p, m) is searched once
    per process (``_MODULI``).

    Candidates with zero constant term are divisible by x, so the scan
    starts at constant term 1 (otherwise the c_0 = 0 prefix block alone has
    p^(m-1) members).
    """
    if (p, m) in _MODULI:
        return _MODULI[p, m]
    for c0 in range(1, p):
        for tail in lex_tuples(range(p).__iter__, m - 1):
            poly = [c0] + list(tail) + [1]
            if poly_is_irreducible(poly, p):
                _MODULI[p, m] = tuple(poly)
                return _MODULI[p, m]
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# GF(2^m)
# ---------------------------------------------------------------------------

class BinaryExtField(FieldCtx):
    """GF(2^m): raw scalars are ints whose bit i is the x^i coefficient."""

    __slots__ = ("p", "m", "order", "modulus", "_modint")

    def __init__(self, m, modulus):
        self.p = 2
        self.m = m
        self.order = 1 << m
        self.modulus = tuple(modulus)
        self._modint = _gf2_mask(self.modulus)

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


