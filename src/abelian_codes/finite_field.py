"""Exact arithmetic in GF(p) and GF(p^m), plus small number-theory helpers.

Field contexts are immutable value objects.  Scalars are stored in a compact
"raw" form (an int for prime fields and binary extensions, a coefficient
tuple otherwise); the FieldScalar wrapper provides operator syntax on top.
All arithmetic is exact.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import (
    DegreeMismatch,
    FieldMismatch,
    NonPrimeP,
    NoRootsOfUnity,
    NotCoprime,
    ReducibleModulus,
)


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return n > 1


def factorize(n):
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n):
    """Count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def divisor_count(n):
    """tau(n): the number of positive divisors of n."""
    count = 1
    for e in factorize(n).values():
        count *= e + 1
    return count


def mul_order(q, n):
    """Least t >= 1 with q^t = 1 mod n.  Requires gcd(q, n) = 1."""
    if n == 1:
        return 1
    if gcd(q, n) != 1:
        raise NotCoprime("q and n must be coprime", q=q, n=n)
    t = 1
    acc = q % n
    while acc != 1:
        acc = acc * q % n
        t += 1
    return t


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p), coefficients low-to-high
# ---------------------------------------------------------------------------

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _peval(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


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


# Kronecker-packed polynomials over GF(p): coefficients sit in fixed-width
# integer slots so polynomial products become single native big-int
# multiplications.  The slot width is chosen per ring so every intermediate
# digit stays exact.

class _KroneckerRing:
    """GF(p)[x] / (f) with packed multiplication; f monic of degree m >= 1.

    Elements pass through as coefficient tuples; only the inner product and
    reduction use the packed form.
    """

    __slots__ = ("p", "m", "bits", "mask", "xk")

    def __init__(self, p, modulus):
        self.p = p
        m = len(modulus) - 1
        self.m = m
        # largest digit during mul: a raw product digit is at most
        # m(p-1)^2, and the reduction adds m-1 of those scaled by table
        # digits below p
        digit_bound = m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))
        self.bits = max(32, digit_bound.bit_length() + 1)
        self.mask = (1 << self.bits) - 1
        # xk[k] = packed(x^(m+k) mod f) for k = 0..m-2
        self.xk = []
        cur = [(-c) % p for c in modulus[:m]]  # x^m mod f
        for _ in range(max(m - 1, 1)):
            self.xk.append(self._pack(cur))
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for i in range(m):
                    cur[i] = (cur[i] - lead * modulus[i]) % p

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

    def pow(self, a, e):
        result = (1,) + (0,) * (self.m - 1)
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


# int-packed polynomials over GF(2): bit i is the coefficient of x^i

def _bmod(a, f):
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
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


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def _rabin_irreducible_gf2(fint):
    m = fint.bit_length() - 1
    milestones = {m // ell for ell in factorize(m)}
    cur = 2  # the polynomial x
    for k in range(1, m + 1):
        cur = _bmulmod(cur, cur, fint)
        if k in milestones and k < m:
            if _bgcd(cur ^ 2, fint).bit_length() - 1 > 0:
                return False
    return cur == 2


def _rabin_irreducible(poly, p):
    m = len(poly) - 1
    ring = _KroneckerRing(p, poly)
    milestones = {m // ell for ell in factorize(m)}
    x = (0, 1) + (0,) * (m - 2)
    cur = x
    for k in range(1, m + 1):
        cur = ring.pow(cur, p)
        if k in milestones and k < m:
            diff = list(cur)
            diff[1] = (diff[1] - 1) % p
            g = _pgcd(diff, poly, p)
            if len(_ptrim(list(g))) - 1 > 0:
                return False
    return cur == x


def poly_is_irreducible(poly, p):
    """Exact irreducibility test for a monic polynomial over GF(p).

    Degrees <= 3 reduce to a root scan; higher degrees use iterated
    Frobenius powers and gcd milestones.
    """
    m = len(poly) - 1
    if m == 1:
        return True
    if poly[0] == 0:
        return False
    for r in range(p):
        if _peval(poly, r, p) == 0:
            return False
    if m <= 3:
        return True
    if p == 2:
        fint = 0
        for i, c in enumerate(poly):
            if c:
                fint |= 1 << i
        return _rabin_irreducible_gf2(fint)
    return _rabin_irreducible(poly, p)


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
        for tail in itertools.product(range(p), repeat=m - 1):
            poly = [c0] + list(tail) + [1]
            if poly_is_irreducible(poly, p):
                return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """Shared surface of all field contexts.

    Concrete classes store scalars in a raw form and expose arithmetic on
    raws; use .scalar()/FieldScalar for operator syntax.
    """

    __slots__ = ()

    def scalar(self, value):
        """Wrap an int (reduced mod p and embedded) as a FieldScalar."""
        return FieldScalar(self, self.from_int(value))

    def scalar_from_coeffs(self, coeffs):
        return FieldScalar(self, self.raw_from_coeffs(coeffs))

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

    def lex_key(self, a):
        return (a,)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def elements(self):
        return iter(range(self.p))


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
        modint = 0
        for i, c in enumerate(modulus):
            if c:
                modint |= 1 << i
        self._modint = modint

    def from_int(self, k):
        return k % 2

    def raw_from_coeffs(self, coeffs):
        if len(coeffs) != self.m:
            raise DegreeMismatch("expected %d coefficients" % self.m, got=len(coeffs))
        raw = 0
        for i, c in enumerate(coeffs):
            if c % 2:
                raw |= 1 << i
        return raw

    def coeffs(self, a):
        return tuple((a >> i) & 1 for i in range(self.m))

    def lex_key(self, a):
        return self.coeffs(a)

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        return _bmulmod(a, b, self._modint)

    def elements(self):
        for coeffs in itertools.product(range(2), repeat=self.m):
            yield self.raw_from_coeffs(coeffs)


class ExtField(FieldCtx):
    """GF(p^m) for odd p: raw scalars are coefficient tuples of length m."""

    __slots__ = ("p", "m", "order", "modulus", "zero", "one", "_ring")

    def __init__(self, p, m, modulus):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = tuple(modulus)
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self._ring = _KroneckerRing(p, self.modulus)

    def from_int(self, k):
        return (k % self.p,) + (0,) * (self.m - 1)

    def raw_from_coeffs(self, coeffs):
        if len(coeffs) != self.m:
            raise DegreeMismatch("expected %d coefficients" % self.m, got=len(coeffs))
        return tuple(c % self.p for c in coeffs)

    def coeffs(self, a):
        return a

    def lex_key(self, a):
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

    def mul(self, a, b):
        return self._ring.mul(a, b)

    def elements(self):
        return itertools.product(range(self.p), repeat=self.m)


class TowerField(FieldCtx):
    """Degree-s extension of an arbitrary base context.

    Raw scalars are length-s tuples of base raws.  Used internally when a
    splitting field is needed over a base that is itself an extension.
    """

    __slots__ = ("base", "p", "m", "s", "order", "modulus", "zero", "one")

    def __init__(self, base, s, modulus):
        self.base = base
        self.p = base.p
        self.s = s
        self.m = base.m * s
        self.order = base.order ** s
        self.modulus = tuple(modulus)  # s+1 base raws, monic
        self.zero = (base.zero,) * s
        self.one = (base.one,) + (base.zero,) * (s - 1)

    def from_int(self, k):
        return (self.base.from_int(k),) + (self.base.zero,) * (self.s - 1)

    def lex_key(self, a):
        return tuple(self.base.lex_key(c) for c in a)

    def add(self, a, b):
        badd = self.base.add
        return tuple(badd(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        bsub = self.base.sub
        return tuple(bsub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        bneg = self.base.neg
        return tuple(bneg(x) for x in a)

    def mul(self, a, b):
        base = self.base
        s = self.s
        prod = [base.zero] * (2 * s - 1)
        for i, ai in enumerate(a):
            if ai != base.zero:
                for j, bj in enumerate(b):
                    if bj != base.zero:
                        prod[i + j] = base.add(prod[i + j], base.mul(ai, bj))
        # reduce by the monic modulus
        for k in range(2 * s - 2, s - 1, -1):
            lead = prod[k]
            if lead == base.zero:
                continue
            for i in range(s + 1):
                prod[k - s + i] = base.sub(prod[k - s + i], base.mul(lead, self.modulus[i]))
        return tuple(prod[:s])

    def elements(self):
        base_elems = list(self.base.elements())
        return itertools.product(base_elems, repeat=self.s)

    def __eq__(self, other):
        return (
            isinstance(other, TowerField)
            and self.base == other.base
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.base, self.s, self.modulus))


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class FieldScalar:
    """A field element bound to its context; mixed-context arithmetic is an
    error, never a coercion."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx, raw):
        self.ctx = ctx
        self.raw = raw

    @property
    def coeffs(self):
        return self.ctx.coeffs(self.raw)

    def _check(self, other):
        if not isinstance(other, FieldScalar):
            raise TypeError("expected FieldScalar, got %r" % (other,))
        if other.ctx != self.ctx:
            raise FieldMismatch(
                "scalars from different field contexts",
                left=repr(self.ctx), right=repr(other.ctx),
            )
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldScalar(self.ctx, self.ctx.add(self.raw, other.raw))

    def __sub__(self, other):
        other = self._check(other)
        return FieldScalar(self.ctx, self.ctx.sub(self.raw, other.raw))

    def __neg__(self):
        return FieldScalar(self.ctx, self.ctx.neg(self.raw))

    def __mul__(self, other):
        other = self._check(other)
        return FieldScalar(self.ctx, self.ctx.mul(self.raw, other.raw))

    def __truediv__(self, other):
        other = self._check(other)
        return FieldScalar(self.ctx, self.ctx.mul(self.raw, self.ctx.inv(other.raw)))

    def __pow__(self, e):
        return FieldScalar(self.ctx, self.ctx.pow(self.raw, e))

    def inverse(self):
        return FieldScalar(self.ctx, self.ctx.inv(self.raw))

    def is_zero(self):
        return self.raw == self.ctx.zero

    def __eq__(self, other):
        return (
            isinstance(other, FieldScalar)
            and self.ctx == other.ctx
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.ctx, self.raw))

    def __repr__(self):
        return "FieldScalar(%r, %s)" % (self.ctx, list(self.coeffs))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def field_make(p, m=1, modulus=None):
    """Build GF(p^m).

    When the modulus is omitted, the lexicographically first irreducible
    monic polynomial of degree m (coefficients read low-to-high) is chosen,
    so equal inputs always produce identical contexts.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NonPrimeP("characteristic must be prime", p=p)
    if not isinstance(m, int) or m < 1:
        raise DegreeMismatch("extension degree must be a positive integer", m=m)
    if modulus is not None:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise DegreeMismatch(
                "modulus must be monic of degree m", m=m, length=len(modulus)
            )
        if not poly_is_irreducible(list(modulus), p):
            raise ReducibleModulus("modulus is reducible over GF(p)", p=p, modulus=modulus)
    else:
        modulus = _first_irreducible(p, m)
    if m == 1:
        return PrimeField(p)
    if p == 2:
        return BinaryExtField(m, modulus)
    return ExtField(p, m, modulus)


def _first_irreducible_over(base, s):
    """Lex-first monic irreducible of degree s over an arbitrary base field,
    found by scanning coefficient tuples and testing for irreducibility via
    gcd-free Frobenius milestones (same test as over prime fields, with base
    arithmetic)."""
    base_elems = list(base.elements())

    def is_irred(poly):
        # poly: list of s+1 base raws, monic
        if poly[0] == base.zero:
            return False
        for r in base_elems:
            acc = base.zero
            for c in reversed(poly):
                acc = base.add(base.mul(acc, r), c)
            if acc == base.zero:
                return False
        if s <= 3:
            return True
        # Rabin over the base field
        def pmod(a):
            a = list(a)
            while len(a) - 1 >= s and a:
                lead = a[-1]
                if lead == base.zero:
                    a.pop()
                    continue
                shift = len(a) - 1 - s
                for i in range(s + 1):
                    a[shift + i] = base.sub(a[shift + i], base.mul(lead, poly[i]))
                while a and a[-1] == base.zero:
                    a.pop()
            return a

        def pmul(a, b):
            res = [base.zero] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai != base.zero:
                    for j, bj in enumerate(b):
                        if bj != base.zero:
                            res[i + j] = base.add(res[i + j], base.mul(ai, bj))
            return pmod(res)

        def ppow(a, e):
            result = [base.one]
            acc = pmod(list(a))
            while e:
                if e & 1:
                    result = pmul(result, acc)
                acc = pmul(acc, acc)
                e >>= 1
            return result

        def pgcd(a, b):
            a, b = list(a), list(b)
            while b:
                inv_lead = base.inv(b[-1])
                bm = [base.mul(c, inv_lead) for c in b]
                r = list(a)
                while len(r) >= len(bm):
                    lead = r[-1]
                    if lead == base.zero:
                        r.pop()
                        continue
                    shift = len(r) - len(bm)
                    for i in range(len(bm)):
                        r[shift + i] = base.sub(r[shift + i], base.mul(lead, bm[i]))
                    while r and r[-1] == base.zero:
                        r.pop()
                a, b = bm, r
            return a

        q = base.order
        milestones = {s // ell for ell in factorize(s)}
        x = [base.zero, base.one]
        cur = list(x)
        for k in range(1, s + 1):
            cur = ppow(cur, q)
            if k in milestones and k < s:
                diff = list(cur) + [base.zero] * max(0, 2 - len(cur))
                diff[1] = base.sub(diff[1], base.one)
                while diff and diff[-1] == base.zero:
                    diff.pop()
                g = pgcd(diff, poly)
                while g and g[-1] == base.zero:
                    g.pop()
                if len(g) - 1 > 0:
                    return False
        while cur and cur[-1] == base.zero:
            cur.pop()
        return cur == x

    nonzero = [e for e in base_elems if e != base.zero]
    for c0 in nonzero:  # zero constant term means divisible by x
        for tail in itertools.product(base_elems, repeat=s - 1):
            poly = [c0] + list(tail) + [base.one]
            if is_irred(poly):
                return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def splitting_field(ctx, n):
    """Smallest-degree extension of ctx containing primitive n-th roots of 1.

    Returns (field, embed, restrict).  embed maps a ctx raw into the big
    field; restrict maps a big-field raw back to a ctx raw, raising
    ArithmeticError when the value does not lie in the embedded base copy.
    """
    if n <= 1 or (ctx.order - 1) % n == 0:
        ident = lambda a: a
        return ctx, ident, ident
    s = mul_order(ctx.order, n)
    if ctx.m == 1:
        big = field_make(ctx.p, s)
        if ctx.p == 2:
            def embed(a):
                return a

            def restrict(a):
                if a >> 1:
                    raise ArithmeticError("value outside the base field")
                return a
        else:
            zero_tail = (0,) * (s - 1)

            def embed(a):
                return (a,) + zero_tail

            def restrict(a):
                if any(a[1:]):
                    raise ArithmeticError("value outside the base field")
                return a[0]
        return big, embed, restrict

    modulus = _first_irreducible_over(ctx, s)
    big = TowerField(ctx, s, modulus)
    zero_tail = (ctx.zero,) * (s - 1)

    def embed(a):
        return (a,) + zero_tail

    def restrict(a):
        if any(c != ctx.zero for c in a[1:]):
            raise ArithmeticError("value outside the base field")
        return a[0]

    return big, embed, restrict


def element_of_order(field, n):
    """The lex-least field element of multiplicative order exactly n."""
    if n == 1:
        return field.one
    if (field.order - 1) % n != 0:
        raise NoRootsOfUnity(
            "field has no elements of the requested order",
            field_order=field.order, n=n,
        )
    cofactor = (field.order - 1) // n
    prime_divisors = sorted(factorize(n))
    found = None
    for z in field.elements():
        if z == field.zero:
            continue
        w = field.pow(z, cofactor)
        if w == field.one:
            continue
        if all(field.pow(w, n // ell) != field.one for ell in prime_divisors):
            found = w
            break
    # every element of order n is a coprime power of any one of them;
    # walk found^k by a running product
    best = None
    best_key = None
    cand = field.one
    for k in range(1, n):
        cand = field.mul(cand, found)
        if gcd(k, n) == 1:
            key = field.lex_key(cand)
            if best_key is None or key < best_key:
                best, best_key = cand, key
    return best
