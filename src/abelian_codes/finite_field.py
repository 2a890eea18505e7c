"""Exact arithmetic in GF(p) and GF(p^m), plus small number-theory helpers.

Field contexts are immutable value objects.  Scalars are plain "raw"
values (an int for prime fields and binary extensions, a coefficient tuple
otherwise), and all arithmetic on them goes through the context's methods.
All arithmetic is exact.  A raw's ``coeffs`` tuple is its key wherever the
lex-least element is chosen.

Every field is GF(p^m) over its prime field, with the lex-first monic
irreducible of degree m as modulus, found by one Rabin test for every p
(``poly_is_irreducible``).  A splitting field over a base GF(p^m) is
GF(p^(m*s)) built the same way, with the base embedded through a root of
its modulus (``splitting_field``).
"""

import itertools
from math import gcd

from .errors import (
    DegreeMismatch,
    DegreeTooLarge,
    NonPrimeP,
    NoRootsOfUnity,
    NotCoprime,
)

# Fields above this degree over GF(p), splitting fields among them, are
# refused before the modulus search: field_make takes 0.45 s at GF(2^256)
# and 0.06 s at GF(2^504), the search alone 1.8 s at degree 800 and 3.6 s
# at 1024 over GF(2); odd p is slower, GF(3^128) 3.9 s
_SPLITTING_DEGREE_BOUND = 512


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

# Miller-Rabin to the prime bases 2..41 is exact below this bound, the least
# strong pseudoprime to all of them (Sorenson and Webster 2015; the bases
# 2..37 alone are fooled by 318665857834031151167461); above it is_prime
# refuses a number with no factor among them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n):
    """Exact primality below _MR_EXACT_BELOW.  A larger n with no factor
    among _MR_BASES raises DegreeTooLarge: no test here decides it in
    bounded time, and no field over such a characteristic is built."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise DegreeTooLarge("characteristic bounded", characteristic=n,
                             bound=_MR_EXACT_BELOW)
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# factorize trial-divides below this bound, then splits what is left by
# Pollard's rho, so no input costs a walk to its square root
_TRIAL_BOUND = 100


def _rho_factor(n):
    """A proper factor of the odd composite n, by Brent's variant of
    Pollard's rho on x -> x^2 + c, c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x, k = y, 0
            for _ in range(r):
                y = (y * y + c) % n
            while k < r and g == 1:
                ys, prod = y, 1
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g, k = gcd(prod, n), k + 128
            r *= 2
        if g == n:  # the batch overshot: step it again one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g < n:
            return g


def factorize(n):
    """Prime factorization of n >= 1 as {prime: exponent}, primes ascending.
    A cofactor without a small factor past is_prime's bound raises
    DegreeTooLarge, whose record names n."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out, number = {}, n
    d = 2
    while d * d <= n and d < _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    rest = [n] if n > 1 else []
    while rest:  # every prime factor left is at least d
        m = rest.pop()
        if m >= _MR_EXACT_BELOW:
            raise DegreeTooLarge("factorization bounded", number=number, bound=_MR_EXACT_BELOW)
        if d * d > m or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            rest += [f, m // f]
    return dict(sorted(out.items()))


def euler_phi(n):
    """Count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def divisors(n):
    """The positive divisors of n."""
    out = [1]
    for p, e in factorize(n).items():
        out = [x * p ** i for x in out for i in range(e + 1)]
    return out


def divisor_count(n):
    """tau(n): the number of positive divisors of n."""
    return len(divisors(n))


def mul_order(q, n):
    """Least t >= 1 with q^t = 1 mod n.  Requires gcd(q, n) = 1.

    The order divides phi(n): starting from t = phi(n), each prime r of t
    is divided out while q^(t/r) = 1 mod n still holds."""
    if n == 1:
        return 1
    if gcd(q, n) != 1:
        raise NotCoprime("q and n must be coprime", q=q, n=n)
    t = euler_phi(n)
    for r in factorize(t):
        while t % r == 0 and pow(q, t // r, n) == 1:
            t //= r
    return t


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


# int-packed polynomials over GF(2): bit i is the coefficient of x^i.  A
# coefficient vector and its bitmask convert in one step each way, through
# the binary numeral of the reversed coefficients

_TO_NUMERAL = bytes.maketrans(b"\0\1", b"01")
_FROM_NUMERAL = bytes.maketrans(b"01", b"\0\1")


def _gf2_mask(vector):
    """The bitmask of a sequence of 0/1 coefficients."""
    return int(bytes(vector[::-1]).translate(_TO_NUMERAL), 2)


def _gf2_vector(mask, width):
    """The width 0/1 coefficients of a bitmask, as a tuple."""
    return tuple(format(mask, "0%db" % width)[::-1].encode().translate(_FROM_NUMERAL))


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
    """Lexicographically first monic irreducible of degree m over GF(p),
    coefficients compared low-to-high.

    Candidates with zero constant term are divisible by x, so the scan
    starts at constant term 1 (otherwise the c_0 = 0 prefix block alone has
    p^(m-1) members).
    """
    if m == 1:
        return (0, 1)
    for c0 in range(1, p):
        for tail in lex_tuples(range(p).__iter__, m - 1):
            poly = [c0] + list(tail) + [1]
            if poly_is_irreducible(poly, p):
                return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """Shared surface of all field contexts.

    Concrete classes store scalars in a raw form and expose arithmetic on raws.
    """

    __slots__ = ()

    def spec_string(self):
        return str(self.p) if self.m == 1 else "%d^%d" % (self.p, self.m)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def pow(self, a, e):
        """Square-and-multiply over the context's own mul."""
        if e < 0:
            a, e = self.inv(a), -e
        mul = self.mul
        result = self.one
        while e:
            if e & 1:
                result = mul(result, a)
            a = mul(a, a)
            e >>= 1
        return result

    def elements(self):
        """Every raw, in lex order of its coefficient tuple."""
        return map(self.raw_from_coeffs, lex_tuples(range(self.p).__iter__, self.m))

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return "GF(%s)" % self.spec_string()


class PrimeField(FieldCtx):
    """GF(p): raw scalars are ints in [0, p)."""

    __slots__ = ("p", "m", "order", "modulus", "zero", "one")

    def __init__(self, p):
        self.p = p
        self.m = 1
        self.order = p
        self.modulus = (0, 1)
        self.zero = 0
        self.one = 1 % p

    def from_int(self, k):
        return k % self.p

    def raw_from_coeffs(self, coeffs):
        if len(coeffs) != 1:
            raise DegreeMismatch("expected 1 coefficient", got=len(coeffs))
        return coeffs[0] % self.p

    def coeffs(self, a):
        return (a,)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)


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


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def field_make(p, m=1):
    """Build GF(p^m).

    The modulus is the lexicographically first irreducible monic
    polynomial of degree m (coefficients read low-to-high), so equal
    inputs always produce identical contexts.  A degree m above
    _SPLITTING_DEGREE_BOUND raises DegreeTooLarge.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NonPrimeP("characteristic must be prime", p=p)
    if not isinstance(m, int) or m < 1:
        raise DegreeMismatch("extension degree must be a positive integer", m=m)
    if m > _SPLITTING_DEGREE_BOUND:
        raise DegreeTooLarge("field degree bounded", field="%d^%d" % (p, m),
                             degree=m, bound=_SPLITTING_DEGREE_BOUND)
    modulus = _first_irreducible(p, m)
    if m == 1:
        return PrimeField(p)
    if p == 2:
        return BinaryExtField(m, modulus)
    return ExtField(p, m, modulus)


def _small_first(field):
    """The nonzero elements of the field by largest digit top, each one
    built directly (digits before the first top are below it): over a
    large p, lex order would first run through the p - 1 multiples of x,
    one coset of GF(p)*, on which a power map can be constant."""
    return (field.raw_from_coeffs(head + (top,) + tail)
            for top in range(1, field.p) for i in range(field.m)
            for head in lex_tuples(range(top).__iter__, i)
            for tail in lex_tuples(range(top + 1).__iter__, field.m - 1 - i))


def _modulus_root(ctx, big):
    """The lex-least root of ctx.modulus in big.

    The roots lie in the copy of GF(q)* inside big, q = ctx.order, so the
    powers of any one element of order q - 1 (``_any_of_order``) meet one
    of them; the others are its p-power conjugates.  The least of all m
    roots is returned, so the generator the walk starts from is never read.
    """
    g = _any_of_order(big, ctx.order - 1)
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


def splitting_field(ctx, n):
    """Smallest-degree extension of ctx containing primitive n-th roots of 1.

    Returns (field, embed, restrict).  The field is GF(p^(m*s)) from
    field_make, s = ord_n(q), and the base GF(p^m) embeds through beta, the
    lex-least root of ctx.modulus there: embed sends the ctx raw with
    coefficients c_i to sum_i c_i beta^i, which for m = 1 is the constant
    c_0.  restrict maps a big-field raw back to a ctx raw, raising
    ArithmeticError when the value does not lie in the embedded base copy.
    A degree m*s above _SPLITTING_DEGREE_BOUND raises DegreeTooLarge.
    """
    if n <= 1 or (ctx.order - 1) % n == 0:
        ident = lambda a: a
        return ctx, ident, ident
    p, m = ctx.p, ctx.m
    degree = m * mul_order(ctx.order, n)
    if degree > _SPLITTING_DEGREE_BOUND:
        raise DegreeTooLarge(
            "splitting field degree bounded", field=ctx.spec_string(), exponent=n,
            degree=degree, bound=_SPLITTING_DEGREE_BOUND)
    big = field_make(p, degree)
    beta = _modulus_root(ctx, big) if m > 1 else big.one
    powers = [big.one]  # beta^i, i < m
    for _ in range(m - 1):
        powers.append(big.mul(powers[-1], beta))

    def embed(a):
        acc = big.zero
        for ci, b in zip(ctx.coeffs(a), powers):
            if ci:
                acc = big.add(acc, big.mul(big.from_int(ci), b))
        return acc

    # Gauss-Jordan on [digits of beta^i | I]: row i becomes (r_i, t_i), the
    # r_i in reduced echelon form with pivots in columns pivots[i]; a value
    # with digits d * r then has beta-coordinates d * t, and d is read off
    # its pivot digits
    width = big.m
    aug = [list(big.coeffs(b)) + [int(i == k) for k in range(m)]
           for i, b in enumerate(powers)]
    pivots = []
    for i in range(m):
        col = next(j for j in range(width) if aug[i][j])
        inv = pow(aug[i][col], p - 2, p)
        row = aug[i] = [x * inv % p for x in aug[i]]
        for k in range(m):
            f = aug[k][col]
            if k != i and f:
                aug[k] = [(x - f * y) % p for x, y in zip(aug[k], row)]
        pivots.append(col)

    def restrict(z):
        digits = big.coeffs(z)
        a = ctx.raw_from_coeffs([
            sum(digits[col] * r[width + k] for col, r in zip(pivots, aug))
            for k in range(m)])
        if embed(a) != z:
            raise ArithmeticError("value outside the base field")
        return a

    return big, embed, restrict


def _any_of_order(field, n):
    """One field element of multiplicative order exactly n: the first
    z^((|F| - 1)/n) of that order, z in ``_small_first`` order."""
    if n == 1:
        return field.one
    if (field.order - 1) % n != 0:
        raise NoRootsOfUnity(
            "field has no elements of the requested order",
            field_order=field.order, n=n,
        )
    cofactor = (field.order - 1) // n
    prime_divisors = sorted(factorize(n))
    for z in _small_first(field):
        w = field.pow(z, cofactor)
        if w != field.one and all(field.pow(w, n // ell) != field.one
                                  for ell in prime_divisors):
            return w


def _powers(w, n, field):
    """w^k for k = 0, 1, ..., n - 1, by a running product."""
    return itertools.accumulate(itertools.repeat(w, n - 1), field.mul, initial=field.one)


def element_of_order(field, n):
    """The lex-least field element of multiplicative order exactly n.

    Every element of order n is a power found^k, k prime to n, of any one
    of them; the walk over k streams, since n may be as large as |F| - 1.
    """
    powers = enumerate(_powers(_any_of_order(field, n), n, field))
    return min((w for k, w in powers if gcd(k, n) == 1), key=field.coeffs)


def _root_powers(field, n):
    """zeta^v for v < n, zeta = element_of_order(field, n), from one walk
    of the powers of an element found of order n: zeta = found^k0 for the
    k0 prime to n with the lex-least power, so zeta^v = found^(k0*v mod n)."""
    walk = list(_powers(_any_of_order(field, n), n, field))
    k0 = min((k for k in range(n) if gcd(k, n) == 1), key=lambda k: field.coeffs(walk[k]))
    return [walk[k0 * v % n] for v in range(n)]
