import itertools
import random
import time
from math import gcd

import pytest
from dense_oracle import element_of_order_by_pow, modulus_root_by_lex_walk
from field_oracle import TupleExtField, rabin_at_milestones

from abelian_codes import (
    DegreeMismatch,
    DegreeTooLarge,
    NonPrimeP,
    NotCoprime,
    divisor_count,
    element_of_order,
    euler_phi,
    field_make,
    mul_order,
    splitting_field,
)
import abelian_codes.extension_field as extension_field
from abelian_codes.extension_field import _first_irreducible, lex_tuples, poly_is_irreducible
from abelian_codes.finite_field import _MR_EXACT_BELOW, _SPLITTING_DEGREE_BOUND, factorize, is_prime
from abelian_codes.group_algebra import _modulus_root, _root_powers
from abelian_codes.odd_field import ExtField


def test_prime_field_basics():
    F2 = field_make(2)
    assert (F2.p, F2.m, F2.order) == (2, 1, 2)
    assert F2.spec_string() == "2"


def test_extension_field_first_irreducible_modulus():
    F64 = field_make(2, 6)
    assert F64.order == 64
    # lexicographically first irreducible monic of degree 6 over GF(2),
    # coefficients low-to-high: 1 + x^5 + x^6
    assert F64.modulus == (1, 0, 0, 0, 0, 1, 1)
    assert poly_is_irreducible(list(F64.modulus), 2)


def test_a_second_field_make_runs_no_irreducibility_test(monkeypatch):
    # the modulus search runs once per (p, m) and process
    calls = []
    test = extension_field.poly_is_irreducible
    monkeypatch.setattr(extension_field, "_MODULI", {})
    monkeypatch.setattr(extension_field, "poly_is_irreducible",
                        lambda poly, p: calls.append((poly, p)) or test(poly, p))
    for p, m in [(2, 6), (3, 4), (5, 3)]:
        first = field_make(p, m)
        searched = len(calls)
        assert searched > 0
        assert field_make(p, m) == first and len(calls) == searched


def test_field_make_rejects_non_prime():
    with pytest.raises(NonPrimeP):
        field_make(4)
    with pytest.raises(NonPrimeP):
        field_make(1)


def test_field_make_is_deterministic():
    a = field_make(3, 4)
    b = field_make(3, 4)
    assert a == b and a.modulus == b.modulus


def test_field_make_rejects_a_degree_below_one():
    for m in (0, -2, 2.0):
        with pytest.raises(DegreeMismatch):
            field_make(3, m)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    for p in (2, 3, 5, 7, 11, 13):
        assert euler_phi(p) == p - 1
    assert euler_phi(45) == 24
    with pytest.raises(ValueError, match="^euler_phi expects n >= 1$"):
        euler_phi(0)


def test_divisor_count():
    assert divisor_count(1) == 1
    assert divisor_count(9) == 3
    assert divisor_count(15) == 4
    assert divisor_count(81) == 5


def test_mul_order_examples():
    assert mul_order(1, 5) == 1
    assert mul_order(2, 9) == 6
    assert mul_order(7, 9) == 3
    with pytest.raises(NotCoprime):
        mul_order(3, 9)


def test_mul_order_divides_phi():
    for n in range(2, 60):
        for q in range(1, n):
            if euler_phi(n) and q and __import__("math").gcd(q, n) == 1:
                assert euler_phi(n) % mul_order(q, n) == 0


def _mul_order_by_steps(q, n):
    """Least t >= 1 with q^t = 1 mod n, by stepping q^t."""
    t, acc = 1, q % n
    while acc != 1 % n:
        acc = acc * q % n
        t += 1
    return t


def test_mul_order_matches_stepping():
    for n in range(1, 2000):
        for q in range(1, 60):
            if gcd(q, n) == 1:
                assert mul_order(q, n) == _mul_order_by_steps(q, n), (q, n)


@pytest.mark.parametrize("p,m", [(2, 6), (7, 2), (3, 4), (5, 2), (7, 1)])
def test_frobenius_fixed_points_and_inverses(p, m):
    # a negative exponent is a power of the inverse: FieldCtx.pow over an
    # extension, PrimeField.pow over GF(7)
    F = field_make(p, m)
    one = F.one
    for raw in F.elements():
        assert F.pow(raw, F.order) == raw
        if raw != F.zero:
            assert F.mul(raw, F.inv(raw)) == one
            assert F.pow(raw, -3) == F.pow(F.inv(raw), 3)


@pytest.mark.parametrize("p,m", [(5, 1), (2, 3), (3, 2)])
def test_raw_from_coeffs_rejects_the_wrong_number_of_coefficients(p, m):
    # PrimeField, BinaryExtField and ExtField each check the length
    F = field_make(p, m)
    for n in (m - 1, m + 1):
        with pytest.raises(DegreeMismatch) as info:
            F.raw_from_coeffs([1] * n)
        assert (info.value.message, info.value.context) \
            == ("expected 1 coefficient" if m == 1 else "expected %d coefficients" % m, {"got": n})


def test_integer_embedding_and_zero_inverse():
    F7 = field_make(7)
    assert F7.coeffs(F7.from_int(10)) == (3,)
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)
    # inverse of an integer divisible by p has no meaning in the field
    with pytest.raises(ZeroDivisionError):
        F7.inv(F7.from_int(14))


def test_element_of_order_cube_roots_in_gf4():
    F4 = field_make(2, 2)
    w = element_of_order(F4, 3)
    assert F4.pow(w, 3) == F4.one and w != F4.one
    # the three cube roots of unity are all of GF(4)*
    roots = {F4.one, w, F4.mul(w, w)}
    assert roots == {raw for raw in F4.elements() if raw != F4.zero}


def test_element_of_order_is_deterministic_and_lex_minimal():
    F64 = field_make(2, 6)
    w1 = element_of_order(F64, 9)
    w2 = element_of_order(F64, 9)
    assert w1 == w2
    # lex-least among all elements of order 9
    all_order_9 = [
        raw for raw in F64.elements()
        if raw != F64.zero
        and F64.pow(raw, 9) == F64.one
        and F64.pow(raw, 3) != F64.one
    ]
    assert min(all_order_9, key=F64.coeffs) == w1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_element_of_order_matches_pow_loop(p, m):
    # the running product walks the same coprime powers as field.pow
    ctx = field_make(p, m)
    for n in range(1, 28):
        if gcd(n, ctx.order) == 1:
            big = splitting_field(ctx, n)[0]
            assert element_of_order(big, n) == element_of_order_by_pow(big, n), (ctx, n)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_root_powers_are_the_running_product_of_element_of_order(p, m):
    # every n <= 200 prime to q <= 9 with q^s = 1 (mod n) in a field of
    # degree m*s <= 12 over GF(p)
    q, fields, checked = p ** m, {}, 0
    for n in range(1, 201):
        s = mul_order(q, n) if gcd(n, q) == 1 else 0
        if not 0 < m * s <= 12:
            continue
        if s not in fields:
            fields[s] = field_make(p, m * s)
        big = fields[s]
        zeta = element_of_order(big, n)
        running = itertools.accumulate(itertools.repeat(zeta, n - 1), big.mul, initial=big.one)
        assert _root_powers(big, n) == list(running), (q, n)
        checked += 1
    assert checked >= 10


def test_modulus_root_matches_the_lex_walk():
    # every base GF(p^m), m >= 2, q <= 1024, in each field of degree
    # m * s <= 16 over GF(p): the least of the m conjugate roots does not
    # depend on the element of order q - 1 that the walk starts from
    checked = 0
    for p in (p for p in range(2, 32) if is_prime(p)):
        for m in range(2, 11):
            if p ** m > 1024:
                break
            ctx = field_make(p, m)
            for s in range(1, 16 // m + 1):
                big = field_make(p, m * s)
                assert _modulus_root(ctx, big) == modulus_root_by_lex_walk(ctx, big), (p, m, s)
                checked += 1
    assert checked >= 100


def test_splitting_field_prime_base():
    F2 = field_make(2)
    big, embed, restrict = splitting_field(F2, 9)
    assert big.order == 64
    assert restrict(embed(1)) == 1
    w = element_of_order(big, 9)
    with pytest.raises(ArithmeticError):
        restrict(w)  # a ninth root of unity is not in GF(2)


def test_splitting_field_identity_when_roots_present():
    F4 = field_make(2, 2)
    big, embed, restrict = splitting_field(F4, 3)
    assert big is F4
    assert embed(F4.one) == F4.one


@pytest.mark.parametrize("q,n", [(4, 5), (4, 7), (8, 5), (9, 7), (16, 7), (25, 7), (27, 7),
                                 (125, 3), (1000003, 7)])
def test_splitting_field_embedding(q, n):
    # the base GF(q) embeds into GF(p^(m*s)) through a root of its modulus;
    # GF(8) already holds the 7th roots of unity, so it is asked for 5th
    ((p, m),) = factorize(q).items()
    ctx = field_make(p, m)
    big, embed, restrict = splitting_field(ctx, n)
    assert big.order == q ** mul_order(q, n) > q
    if q < 1000:
        sample = list(ctx.elements())
    else:
        sample = [0, 1, 2, 3, q - 1, 123456, 999999]
    for a in sample:
        assert restrict(embed(a)) == a
        for b in sample[:20]:
            assert embed(ctx.add(a, b)) == big.add(embed(a), embed(b))
            assert embed(ctx.mul(a, b)) == big.mul(embed(a), embed(b))
    with pytest.raises(ArithmeticError):
        restrict(element_of_order(big, n))  # a primitive n-th root is not in GF(q)


def test_splitting_field_degree_is_bounded():
    # ord_4096(3) = 1024; over GF(8) the degree counts over GF(2): 3 * 172
    for ctx, n, degree in ((field_make(3), 4096, 1024), (field_make(2, 3), 173, 516)):
        with pytest.raises(DegreeTooLarge) as exc:
            splitting_field(ctx, n)
        assert exc.value.context == {"field": ctx.spec_string(), "exponent": n,
                                     "degree": degree, "bound": _SPLITTING_DEGREE_BOUND}
    # C_1009 over GF(2) needs degree 504 and still runs
    assert mul_order(2, 1009) == 504 <= _SPLITTING_DEGREE_BOUND


def test_tower_modulus_degree_four_over_gf4():
    # 17 needs degree mul_order(4, 17) = 4 over GF(4)
    F4 = field_make(2, 2)
    big, embed, restrict = splitting_field(F4, 17)
    assert big.order == 256
    w = element_of_order(big, 17)
    assert w != big.one and big.pow(w, 17) == big.one


def _has_monic_divisor(f, p):
    """True iff some monic polynomial of degree 1..deg(f)//2 divides f over
    GF(p), found by long division; lists low-to-high."""
    m = len(f) - 1
    for deg in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            d = list(tail) + [1]
            r = list(f)
            while len(r) >= len(d):
                lead = r[-1]
                shift = len(r) - len(d)
                for i, c in enumerate(d):
                    r[shift + i] = (r[shift + i] - lead * c) % p
                r.pop()
            if not any(r):
                return True
    return False


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poly_is_irreducible_matches_trial_division(p):
    for m in range(1, 5):
        for tail in itertools.product(range(p), repeat=m):
            f = list(tail) + [1]
            assert poly_is_irreducible(f, p) == (not _has_monic_divisor(f, p)), f


@pytest.mark.parametrize("p,every_up_to,first_up_to", [
    (2, 10, 40), (3, 6, 24), (5, 4, 16), (7, 1, 12)])
def test_modulus_search_matches_the_milestone_rabin_test(monkeypatch, p, every_up_to,
                                                         first_up_to):
    # the test under field_make sieves small degrees and, over GF(2),
    # squares by spreading bits; the oracle does neither.  The search runs
    # afresh, not from the moduli earlier tests kept
    monkeypatch.setattr(extension_field, "_MODULI", {})
    for m in range(2, every_up_to + 1):
        for tail in itertools.product(range(p), repeat=m):
            f = list(tail) + [1]
            assert poly_is_irreducible(f, p) == rabin_at_milestones(f, p), f
    for m in range(2, first_up_to + 1):
        scan = ((c0, *tail, 1) for c0 in range(1, p)
                for tail in lex_tuples(range(p).__iter__, m - 1))
        first = next(f for f in scan if rabin_at_milestones(list(f), p))
        assert _first_irreducible(p, m) == first, (p, m)


# the lex-first moduli of the two largest fields below, which field_make
# finds in about 3 s and 40 s: pinned here, so that no search runs (the
# comparison holds for any monic modulus, irreducible or not)
_PINNED_MODULI = {(101, 125): {0: 1, 123: 2, 124: 45, 125: 1},
                  (11, 274): {0: 1, 271: 3, 272: 8, 273: 1, 274: 1}}


@pytest.mark.parametrize("p,m", [(3, 2), (3, 6), (3, 11), (7, 2), (23, 4), (97, 8),
                                 (371639, 3), (5, 40), (101, 125), (11, 274)])
def test_packed_field_matches_the_tuple_oracle(p, m):
    # the packed ints of ExtField, against the digit tuples that were its
    # raws before, on seeded random pairs; each raw is compared through
    # its digits, and an inverse of the largest fields costs about 1,400
    # products, so those compare one
    if (p, m) in _PINNED_MODULI:
        modulus = tuple(_PINNED_MODULI[p, m].get(i, 0) for i in range(m + 1))
    else:
        modulus = field_make(p, m).modulus
    F, T = ExtField(p, m, modulus), TupleExtField(p, m, modulus)
    rng = random.Random(p * 1000 + m)
    draws = [[rng.randrange(-p, 2 * p) for _ in range(m)] for _ in range(max(4, 64 // m))]
    draws[0] = [0] * m
    raws = [(F.raw_from_coeffs(c), T.raw_from_coeffs(c)) for c in draws]
    for a, ta in raws:
        assert F.coeffs(a) == ta
    assert (F.zero, F.one) == (F.raw_from_coeffs(T.coeffs(T.zero)), F.raw_from_coeffs(T.one))
    for k in [0, 1, -1, p - 1, p, -p, 2 * p + 3, rng.randrange(-p ** 3, p ** 3)]:
        assert F.coeffs(F.from_int(k)) == T.from_int(k), k
    for (a, ta), (b, tb) in zip(raws, raws[1:] + raws[:1]):
        assert F.coeffs(F.add(a, b)) == T.add(ta, tb)
        assert F.coeffs(F.sub(a, b)) == T.sub(ta, tb)
        assert F.coeffs(F.neg(a)) == T.neg(ta)
        assert F.coeffs(F.mul(a, b)) == T.mul(ta, tb)
        e = rng.randrange(1 << 16)
        assert F.coeffs(F.pow(a, e)) == T.pow(ta, e), e
    inverses = [(a, ta) for a, ta in raws if a != F.zero]
    for a, ta in inverses[:1] if m > 40 else inverses:
        assert F.coeffs(F.inv(a)) == T.inv(ta)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_first_irreducible_matches_the_rabin_test_on_the_tuple_ring(monkeypatch):
    # every odd p and degree d >= 2 with p^d <= 10^4, searched afresh: the
    # first candidate in the search's order that the tuple ring's Rabin
    # test accepts
    monkeypatch.setattr(extension_field, "_MODULI", {})
    pairs = [(p, d) for p in range(3, 100) if is_prime(p)
             for d in range(2, 9) if p ** d <= 10 ** 4]
    assert len(pairs) == 39
    for p, d in pairs:
        scan = ((c0, *tail, 1) for c0 in range(1, p)
                for tail in lex_tuples(range(p).__iter__, d - 1))
        first = next(f for f in scan if rabin_at_milestones(list(f), p))
        assert _first_irreducible(p, d) == first, (p, d)


def test_field_make_large_prime_degree_six():
    # the root scan over GF(1000003) made this construction hang
    F = field_make(1000003, 6)
    assert F.order == 1000003 ** 6
    assert poly_is_irreducible(list(F.modulus), 1000003)
    x = F.raw_from_coeffs((0, 1, 0, 0, 0, 0))
    assert F.pow(x, F.order) == x


def test_field_make_large_prime_square_takes_the_first_candidate():
    # x^2 + 1 is irreducible when p = 3 mod 4, and it is the first
    # candidate: the search must not list the p digits first
    start = time.perf_counter()
    F = field_make(1000000007, 2)
    assert time.perf_counter() - start < 1
    assert F.modulus == (1, 0, 1)


def test_element_of_order_over_a_large_prime_square():
    # x has order 4, so no multiple c * x has a power of order 3; the
    # search must not walk those p candidates first
    F = field_make(1000000007, 2)
    w = element_of_order(F, 3)
    assert w != F.one and F.pow(w, 3) == F.one
    assert w == min((w, F.mul(w, w)), key=F.coeffs)


def test_field_make_degree_is_bounded():
    with pytest.raises(DegreeTooLarge) as exc:
        field_make(2, _SPLITTING_DEGREE_BOUND + 1)
    assert exc.value.context == {"field": "2^513", "degree": 513,
                                 "bound": _SPLITTING_DEGREE_BOUND}
    with pytest.raises(DegreeTooLarge):
        field_make(2, 100000)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    # every n here is decided by the bases 2, 3, 5 and 7 alone
    assert [n for n in range(2 * 10 ** 5) if is_prime(n)] \
        == [n for n in range(2 * 10 ** 5) if _is_prime_by_trial_division(n)]


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161,  # Carmichael numbers
    3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # a strong pseudoprime to the bases 2 .. 31
    318665857834031151167461,  # a strong pseudoprime to the bases 2 .. 37
    41 ** 16,  # above the Miller-Rabin bound, but with a small factor
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, r))


@pytest.mark.parametrize("n,fooled,caught", [
    (25326001, (2, 3, 5), 7),
    # the least strong pseudoprime to 2, 3, 5 and 7: the four bases that
    # decide every smaller n do not decide it (Jaeschke 1993)
    (3215031751, (2, 3, 5, 7), 11),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31), 37),
])
def test_is_prime_rejects_strong_pseudoprimes_to_its_first_bases(n, fooled, caught):
    assert all(_strong_probable_prime(n, a) for a in fooled)
    assert not _strong_probable_prime(n, caught)
    assert not is_prime(n)


def test_is_prime_at_the_four_base_bound():
    # the primes nearest 3,215,031,751 on either side, and the composites
    # between them, against trial division
    for n in range(3215031733, 3215031768):
        assert is_prime(n) == _is_prime_by_trial_division(n), n


def test_is_prime_refuses_a_large_number_without_a_small_factor():
    # 2^89 - 1 is prime, but no test here decides it in bounded time
    for n in (2 ** 89 - 1, _MR_EXACT_BELOW, 43 ** 16):
        with pytest.raises(DegreeTooLarge) as exc:
            is_prime(n)
        assert exc.value.context == {"characteristic": n, "bound": _MR_EXACT_BELOW}
    assert not is_prime(2 ** 89) and not is_prime(3 * 2 ** 89)


def test_is_prime_accepts_a_mersenne_prime_quickly():
    start = time.perf_counter()
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 61 + 1)
    assert time.perf_counter() - start < 0.1


def _factorize_by_trial_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d], n = out.get(d, 0) + 1, n // d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    # the primes ascending; Pollard's rho splits every n < 2*10^5 whose
    # prime factors are all past the trial bound (p^2 and p^3 among them)
    for n in range(1, 2 * 10 ** 5):
        assert list(factorize(n).items()) == list(_factorize_by_trial_division(n).items()), n
    with pytest.raises(ValueError, match="^factorize expects n >= 1$"):
        factorize(0)


def test_factorize_splits_large_cofactors_quickly():
    start = time.perf_counter()
    assert factorize(1000000000039 * 1000000000061) == {1000000000039: 1, 1000000000061: 1}
    assert factorize((2 ** 31 - 1) ** 2 * 7) == {7: 1, 2 ** 31 - 1: 2}
    assert factorize(2 ** 64 * (2 ** 61 - 1)) == {2: 64, 2 ** 61 - 1: 1}
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("p,m", [(5, 1), (2, 3), (3, 2)])
def test_elements_in_lex_order_of_their_coefficients(p, m):
    F = field_make(p, m)
    raws = list(F.elements())
    assert len(raws) == F.order
    assert raws == [F.raw_from_coeffs(c) for c in itertools.product(range(p), repeat=m)]
    assert [F.coeffs(raw) for raw in raws] == sorted(F.coeffs(raw) for raw in raws)
