"""Exact arithmetic in GF(p), the field contexts, and small number-theory
helpers.

Field contexts are immutable value objects.  A scalar is a plain "raw"
int in every field: the residue in GF(p), the bitmask of the coefficients
in GF(2^m), and over odd GF(p^m) one coefficient per slot; zero is 0 and
one is 1.  All arithmetic on raws is exact and goes through the context's
methods.  A raw's ``coeffs`` tuple is its key wherever the lex-least
element is chosen.

Every field is GF(p^m) over its prime field, with the lex-first monic
irreducible of degree m as modulus.  This module holds what every command
runs: number theory, ``FieldCtx``, ``PrimeField`` and ``field_make`` with
all of its checks.  Its number theory includes the abelian group types of
an order, from the Sylow partitions of its factorization, and the class
count of their minimal codes (``group_types``, ``sweep_row``), which is
all that ``sweep`` computes.  The arithmetic of GF(p^m) for m > 1 is in
``extension_field``, which ``field_make`` imports only for such a field,
and that of odd p among them in ``odd_field``, imported only for odd p.
A splitting field over a base GF(p^m) is GF(p^(m*s)) built the same way,
with the base embedded through a root of its modulus; ``splitting_field``
and the roots of unity are in ``group_algebra``, the one engine module
that builds them, so ``sweep`` compiles neither.  This module still
forwards ``splitting_field`` and ``element_of_order``, for the benchmark's
tracer.
"""

import itertools
from functools import cache
from math import gcd

from .errors import BadDivisor, DegreeMismatch, DegreeTooLarge, NonPrimeP, NotCoprime

# Fields above this degree over GF(p), splitting fields among them, are
# refused before the modulus search: field_make takes 0.45 s at GF(2^256)
# and 0.06 s at GF(2^504), the search alone 1.8 s at degree 800 and 3.6 s
# at 1024 over GF(2); odd p is slower, GF(3^128) 3.9 s
_SPLITTING_DEGREE_BOUND = 512

# The benchmark's tracer (perfbench/tracer.py) wraps these functions of
# ``group_algebra`` under this module's name; delete them and ``__getattr__``
# once spans are recorded inside the program (ROADMAP item 1).
_TRACED_SPLITTING = frozenset({"element_of_order", "splitting_field"})


def __getattr__(name):
    if name not in _TRACED_SPLITTING:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import group_algebra

    value = globals()[name] = getattr(group_algebra, name)
    return value


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

# Miller-Rabin to the prime bases 2..41 is exact below this bound, the least
# strong pseudoprime to all of them (Sorenson and Webster 2015; the bases
# 2..37 alone are fooled by 318665857834031151167461); above it is_prime
# refuses a number with no factor among them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
# the bases 2, 3, 5 and 7 alone are exact below this bound, the least strong
# pseudoprime to all four (Jaeschke 1993)
_MR_FOUR_BASES_BELOW = 3215031751


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
    for a in _MR_BASES[:4] if n < _MR_FOUR_BASES_BELOW else _MR_BASES:
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
# abelian group types and the class counts of their minimal codes
# ---------------------------------------------------------------------------

@cache
def _partitions(n, least=1):
    """The partitions of n into parts >= least, each with its parts
    ascending, as a tuple: the cache hands every caller the same one."""
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(least, n + 1)
                 for rest in _partitions(n - first, first))


def group_types(n):
    """The isomorphism types of abelian groups of order n, ascending by
    their invariant factors, each as (d_1 | ... | d_t, sylow): sylow holds,
    for each prime p of n in ascending order, the exponents of p in the d_i
    (a partition of its exponent in n, parts ascending, zeros left out).
    The k-th largest invariant factor is the product of the k-th largest
    prime power of each Sylow type, so the parts of each p fill the last
    of the d_i.  An order that is not an int >= 1 raises BadDivisor."""
    if not isinstance(n, int) or n < 1:
        raise BadDivisor("group order must be an integer >= 1", order=n)
    factors = factorize(n)
    types = []
    for sylow in itertools.product(*map(_partitions, factors.values())):
        divisors = [1] * max(map(len, sylow), default=0)
        for p, es in zip(factors, sylow):
            for i, e in enumerate(es, len(divisors) - len(es)):
                divisors[i] *= p ** e
        types.append((tuple(divisors), sylow))
    return sorted(types)


def sylow_exponents(divisors, p):
    """The exponent of p in each of the divisors."""
    return [next(e for e in itertools.count() if d % p ** (e + 1)) for d in divisors]


def sweep_row(divisors, sylow):
    """(spec, class count, tau(exp G), homocyclic, count == tau) of the
    minimal codes of the abelian group G with invariant factors divisors
    and, in sylow, the exponents e_1 <= ... <= e_t of each prime p in them
    (one such sequence per p, with or without the zeros in front).

    By the paper's criterion the classes are the isomorphism types of the
    owners G/<k>, and these split over the Sylow subgroups.  For a p-group
    of type lambda they are the cotypes of its cyclic subgroups: the mu with
    lambda/mu a horizontal strip (Pieri rule; Macdonald, ch. II), so there
    are prod_i (e_i - e_(i-1) + 1) of them, e_0 = 0.  It equals
    tau(p^e_t) = e_t + 1 exactly when the nonzero e_i are equal: the count
    is tau(exp G) iff every Sylow subgroup is homocyclic."""
    count = tau = 1
    for es in sylow:
        low = 0
        for e in es:
            count *= e - low + 1
            low = e
        tau *= low + 1  # low is now the exponent of p in exp G
    return ",".join(map(str, divisors)) or "1", count, tau, len(set(divisors)) <= 1, count == tau


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


# ---------------------------------------------------------------------------
# field contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """Shared surface of all field contexts.

    Concrete classes store scalars as raw ints and expose arithmetic on raws.
    """

    __slots__ = ()
    zero, one = 0, 1

    def from_int(self, k):
        return k % self.p

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
        from .extension_field import lex_tuples

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

    __slots__ = ("p", "m", "order", "modulus")

    def __init__(self, p):
        self.p = p
        self.m = 1
        self.order = p
        self.modulus = (0, 1)

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


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def field_make(p, m=1):
    """Build GF(p^m).

    The modulus is the lexicographically first irreducible monic
    polynomial of degree m (coefficients read low-to-high), so equal
    inputs always produce identical contexts.  A degree m above
    _SPLITTING_DEGREE_BOUND raises DegreeTooLarge.  Each check runs before
    any import: m > 1 loads ``extension_field`` (the modulus search, kept
    per (p, m), and GF(2^m)), and odd p with m > 1 loads ``odd_field`` as
    well.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NonPrimeP("characteristic must be prime", p=p)
    if not isinstance(m, int) or m < 1:
        raise DegreeMismatch("extension degree must be a positive integer", m=m)
    if m > _SPLITTING_DEGREE_BOUND:
        raise DegreeTooLarge("field degree bounded", field="%d^%d" % (p, m),
                             degree=m, bound=_SPLITTING_DEGREE_BOUND)
    if m == 1:
        return PrimeField(p)
    from .extension_field import BinaryExtField, _first_irreducible

    modulus = _first_irreducible(p, m)
    if p == 2:
        return BinaryExtField(m, modulus)
    from .odd_field import ExtField

    return ExtField(p, m, modulus)
