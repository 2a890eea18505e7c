import itertools
from math import gcd

import pytest
from dense_oracle import element_of_order_by_pow

from abelian_codes import (
    DegreeMismatch,
    FieldMismatch,
    NonPrimeP,
    NotCoprime,
    ReducibleModulus,
    divisor_count,
    element_of_order,
    euler_phi,
    field_make,
    mul_order,
    splitting_field,
)
from abelian_codes.finite_field import _first_irreducible_over, poly_is_irreducible


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


def test_field_make_rejects_non_prime():
    with pytest.raises(NonPrimeP):
        field_make(4)
    with pytest.raises(NonPrimeP):
        field_make(1)


def test_field_make_is_deterministic():
    a = field_make(3, 4)
    b = field_make(3, 4)
    assert a == b and a.modulus == b.modulus


def test_field_make_validates_custom_modulus():
    # x^2 + 1 is irreducible over GF(3)
    F9 = field_make(3, 2, modulus=[1, 0, 1])
    assert F9.order == 9
    with pytest.raises(ReducibleModulus):
        field_make(3, 2, modulus=[2, 0, 1])  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(DegreeMismatch):
        field_make(3, 2, modulus=[1, 0, 0, 1])
    with pytest.raises(DegreeMismatch):
        field_make(3, 2, modulus=[1, 1, 2])  # not monic


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    for p in (2, 3, 5, 7, 11, 13):
        assert euler_phi(p) == p - 1
    assert euler_phi(45) == 24


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


@pytest.mark.parametrize("p,m", [(2, 6), (7, 2), (3, 4), (5, 2)])
def test_frobenius_fixed_points_and_inverses(p, m):
    F = field_make(p, m)
    one = F.one
    for raw in F.elements():
        assert F.pow(raw, F.order) == raw
        if raw != F.zero:
            assert F.mul(raw, F.inv(raw)) == one


def test_scalar_arithmetic_and_context_mismatch():
    F9 = field_make(3, 2)
    a = F9.scalar_from_coeffs((1, 2))
    b = F9.scalar_from_coeffs((2, 1))
    assert (a + b).coeffs == (0, 0)
    assert (a * a.inverse()).coeffs == (1, 0)
    assert (-a + a).is_zero()
    other = field_make(3, 2, modulus=[2, 2, 1])  # different irreducible
    c = other.scalar_from_coeffs((1, 2))
    with pytest.raises(FieldMismatch):
        a + c


def test_integer_embedding_and_zero_inverse():
    F7 = field_make(7)
    assert F7.scalar(10).coeffs == (3,)
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
    assert min(all_order_9, key=F64.lex_key) == w1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_element_of_order_matches_pow_loop(p, m):
    # the running product walks the same coprime powers as field.pow
    ctx = field_make(p, m)
    for n in range(1, 28):
        if gcd(n, ctx.order) == 1:
            big = splitting_field(ctx, n)[0]
            assert element_of_order(big, n) == element_of_order_by_pow(big, n), (ctx, n)


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


def test_splitting_field_tower_over_extension():
    # GF(4) needs a degree-2 step for 5th roots of unity (4^2 - 1 = 15)
    F4 = field_make(2, 2)
    big, embed, restrict = splitting_field(F4, 5)
    assert big.order == 16
    one = embed(F4.one)
    w = element_of_order(big, 5)
    acc = big.one
    for _ in range(5):
        acc = big.mul(acc, w)
    assert acc == big.one == one
    with pytest.raises(ArithmeticError):
        restrict(w)


def _divides_over(ctx, d, f):
    """True iff the monic d divides f, both lists of ctx raws low-to-high."""
    r = list(f)
    while len(r) >= len(d):
        lead = r[-1]
        shift = len(r) - len(d)
        for i, c in enumerate(d):
            r[shift + i] = ctx.sub(r[shift + i], ctx.mul(lead, c))
        r.pop()
    return all(c == ctx.zero for c in r)


def test_tower_modulus_degree_four_over_gf4():
    # 17 needs degree mul_order(4, 17) = 4 over GF(4); the Frobenius
    # milestone difference can lose its leading term there
    F4 = field_make(2, 2)
    f = _first_irreducible_over(F4, 4)
    assert len(f) == 5 and f[-1] == F4.one
    elems = list(F4.elements())
    for deg in (1, 2):
        for tail in itertools.product(elems, repeat=deg):
            assert not _divides_over(F4, list(tail) + [F4.one], f), tail
    big, embed, restrict = splitting_field(F4, 17)
    assert big.order == 256
    w = element_of_order(big, 17)
    assert w != big.one and big.pow(w, 17) == big.one
