"""Symbol conventions: valuations, Legendre, eps/sigma, Hilbert."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from exactweil.exact import CapExceededError, from_rational, root_of_unity
from exactweil.numth import (
    REAL_PLACE,
    eps_parity,
    hilbert,
    is_prime,
    legendre,
    prime_factors,
    two_over,
    unit_part,
    valuation_split,
)
from reference import (char_p_exponent, eps_data, hilbert_product_check, sigma,
                       zeta8_identity_check)


def test_valuation_split_examples():
    assert valuation_split(12, 2) == (2, 3)
    assert valuation_split(Fraction(-8, 3), 2) == (3, Fraction(-1, 3))
    assert valuation_split(5, 7) == (0, 5)
    with pytest.raises(ValueError):
        valuation_split(0, 2)


def test_valuation_split_keeps_integers_integral():
    v, u = valuation_split(-12, 2)
    assert (v, u) == (2, -3) and type(u) is int
    for x in (Fraction(-12), Fraction(-8, 3)):
        assert type(valuation_split(x, 2).unit_part) is Fraction
    assert (unit_part(-12, 2), unit_part(-45, 3), unit_part(7, 5)) == (-3, -5, 7)
    for p in (2, 3, 5, 7):
        assert unit_part(0, p) == 1
        assert unit_part(-12 * p ** 3, p) == valuation_split(-12, p).unit_part


def test_symbols_agree_on_integers_and_fractions():
    for n in range(-60, 61):
        if n % 2:
            assert eps_parity(n) == eps_parity(Fraction(n))
            assert two_over(n) == two_over(Fraction(n))
        else:
            for f in (eps_parity, two_over):
                for x in (n, Fraction(n)):
                    with pytest.raises(ValueError):
                        f(x)
        for y in (3, -5, 7, 9, -15, 25):
            assert legendre(n, y) == legendre(Fraction(n), y), (n, y)
        if n:
            for b in (-12, -3, -1, 2, 5, 18):
                for place in (REAL_PLACE, 2, 3, 5):
                    value = hilbert(n, b, place)
                    assert hilbert(Fraction(n), b, place) == value
                    assert hilbert(Fraction(n), Fraction(b), place) == value


@given(num=st.integers(-400, 400).filter(bool), den=st.integers(1, 400),
       p=st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=120, deadline=None)
def test_valuation_split_reconstructs(num, den, p):
    x = Fraction(num, den)
    v, u = valuation_split(x, p)
    assert Fraction(p) ** v * u == x
    assert u.numerator % p != 0 and u.denominator % p != 0


def test_legendre_examples():
    assert legendre(2, 7) == 1  # 3^2 = 2 mod 7
    assert legendre(-1, 3) == -1
    assert legendre(5, -1) == 1
    assert legendre(5, 1) == 1
    assert legendre(3, -7) == legendre(3, 7)
    assert legendre(6, 3) == 0
    with pytest.raises(ValueError):
        legendre(3, 4)


def test_legendre_brute_force_squares():
    for p in (3, 5, 7, 11, 13):
        squares = {(k * k) % p for k in range(1, p)}
        for x in range(1, p):
            expected = 1 if x in squares else -1
            assert legendre(x, p) == expected


def test_legendre_rational_units():
    # (x/p^k) with rational p-adic units reduces the unit mod p^k
    assert legendre(Fraction(1, 2), 7) == legendre(4, 7)
    assert legendre(Fraction(3, 5), 9) == legendre(3 * 2, 9)  # 1/5 = 2 mod 9


@given(x=st.integers(-99, 99).filter(bool), y=st.integers(-99, 99).filter(bool),
       z=st.integers(-99, 99).filter(bool))
@settings(max_examples=150, deadline=None)
def test_legendre_multiplicative(x, y, z):
    if y % 2 == 0 or z % 2 == 0:
        return
    assert legendre(x * z, y) == legendre(x, y) * legendre(z, y)
    assert legendre(x, y * z) == legendre(x, y) * legendre(x, z)


@given(x=st.integers(-99, 99), y=st.integers(-99, 99))
@settings(max_examples=150, deadline=None)
def test_quadratic_reciprocity_signed(x, y):
    if x % 2 == 0 or y % 2 == 0 or gcd(x, y) != 1 or not x or not y:
        return
    lhs = legendre(x, y) * legendre(y, x)
    rhs = (-1) ** (eps_parity(x) * eps_parity(y) + sigma(x) * sigma(y))
    assert lhs == rhs


def test_eps_data_examples():
    one, i = from_rational(1), root_of_unity(1, 4)
    assert eps_data(1) == (one, 0, 0)
    assert eps_data(3) == (i, 1, 0)
    d = eps_data(-5)
    assert d.sigma == 1 and d.eps == 1 and d.eps_scalar == i
    with pytest.raises(ValueError):
        eps_data(6)


@given(x=st.integers(-201, 201))
@settings(max_examples=80, deadline=None)
def test_zeta8_identity(x):
    if x % 2 == 0:
        return
    assert zeta8_identity_check(x)


def test_zeta8_identity_examples():
    # (2/3) eps_3 = -i = zeta8^(-2); (2/7) eps_7 = i = zeta8^(-6)
    assert from_rational(two_over(3)) * eps_data(3).eps_scalar == root_of_unity(-2, 8)
    assert from_rational(two_over(7)) * eps_data(7).eps_scalar == root_of_unity(-6, 8)


def test_hilbert_examples():
    assert hilbert(-1, -1, REAL_PLACE) == -1
    assert hilbert(-1, -1, 2) == -1
    assert hilbert(3, 7, 5) == 1  # two units at an odd place
    assert hilbert(2, -1, REAL_PLACE) == 1
    assert hilbert(2, -1, 2) == 1
    assert hilbert(2, -1, 7) == 1
    with pytest.raises(ValueError):
        hilbert(0, 3, 2)


_nonzero = st.integers(-60, 60).filter(bool)
_places = st.sampled_from([REAL_PLACE, 2, 3, 5, 7])


@given(a=_nonzero, b=_nonzero, place=_places)
@settings(max_examples=200, deadline=None)
def test_hilbert_symmetry_and_squares(a, b, place):
    assert hilbert(a, b, place) == hilbert(b, a, place)
    assert hilbert(a * b * b, a * a * b, place) == hilbert(a, b, place)
    assert hilbert(a, -a, place) == 1


@given(a=_nonzero, b=_nonzero, c=_nonzero, place=_places)
@settings(max_examples=200, deadline=None)
def test_hilbert_bilinear(a, b, c, place):
    assert hilbert(a * b, c, place) == hilbert(a, c, place) * hilbert(b, c, place)


@given(t=st.fractions(min_value=-20, max_value=20, max_denominator=12),
       place=_places)
@settings(max_examples=120, deadline=None)
def test_hilbert_steinberg(t, place):
    if t in (0, 1):
        return
    assert hilbert(t, 1 - t, place) == 1


@given(a=_nonzero, b=_nonzero)
@settings(max_examples=200, deadline=None)
def test_hilbert_product_formula(a, b):
    assert hilbert_product_check(a, b)


@given(r=_nonzero, s=_nonzero)
@settings(max_examples=250, deadline=None)
def test_rq2hilb_reciprocity(r, s):
    # (r/s2)(s/r2) = (r,s)_Q2 (r,s)_R on coprime nonzero integers
    if gcd(r, s) != 1:
        return
    _, r2 = valuation_split(r, 2)
    _, s2 = valuation_split(s, 2)
    lhs = legendre(r, int(s2)) * legendre(s, int(r2))
    assert lhs == hilbert(r, s, 2) * hilbert(r, s, REAL_PLACE)


def test_hilbert_unit_lemma():
    # (i) units pair trivially (u = 1 mod 4 needed only at p = 2)
    for p in (3, 5, 7):
        for u in (2, 3, p + 1, -1):
            for v in (1, 2, -2):
                if u % p and v % p:
                    assert hilbert(u, v, p) == 1
    for u in (1, 5, -3, 9):  # 1 mod 4
        for v in (1, 3, -1, 7):
            assert hilbert(u, v, 2) == 1
    # (ii) (u, y) = (u, p^v(y)) for such u
    cases_2 = [(5, 12), (9, -56), (-3, 2), (13, 40)]
    for u, y in cases_2:
        assert hilbert(u, y, 2) == hilbert(u, 2 ** valuation_split(y, 2)[0], 2)
    for p in (3, 5, 7):
        for u, y in [(2, p * 4), (p - 1, p ** 2 * 3), (p + 2, 5)]:
            if u % p and y:
                assert hilbert(u, y, p) == hilbert(u, p ** valuation_split(y, p)[0], p)
    # (iii) (u + ty, y) = (u, y) for 4 | y, u + ty a unit (2-adic case)
    for u, t, y in [(1, 1, 4), (5, 3, 8), (-3, 2, 12), (1, -5, 16)]:
        if (u + t * y) % 2:
            assert hilbert(u + t * y, y, 2) == hilbert(u, y, 2)
    # odd p: 4 is a unit so the constraint is only that u + ty stays a unit
    for p in (3, 5, 7):
        for u, t, y in [(1, 1, p), (2, 2, p * p), (p + 1, 1, 2 * p)]:
            if (u + t * y) % p and u % p:
                assert hilbert(u + t * y, y, p) == hilbert(u, y, p)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(-12) == [2, 3]
    assert prime_factors(97) == [97]


def test_prime_factors_trial_division_is_capped():
    import exactweil.lattice as lattice_mod
    import exactweil.numth as numth_mod
    from exactweil.exact import CapExceededError

    # every n <= 10**12 still factors fully
    assert prime_factors(999983 * 1000003) == [999983, 1000003]
    assert prime_factors(2 ** 5 * 999983 ** 2) == [2, 999983]
    # two primes near 10**7: no divisor up to the cap, cofactor above its square
    with pytest.raises(CapExceededError):
        prime_factors(10000019 * 10000079)
    assert lattice_mod.CapExceededError is CapExceededError
    assert numth_mod.CapExceededError is CapExceededError


@given(num=st.integers(-150, 150).filter(bool), den=st.integers(1, 150))
@settings(max_examples=150, deadline=None)
def test_char_p_partial_fractions(num, den):
    # e(x) factors as the product of chi_p over primes of the denominator.
    x = Fraction(num, den)
    total = sum((char_p_exponent(x, p) for p in prime_factors(den)),
                start=Fraction(0))
    assert (total - x) % 1 == 0


def test_char_p_examples():
    assert char_p_exponent(Fraction(1, 6), 3) == Fraction(2, 3)
    assert char_p_exponent(Fraction(1, 6), 2) == Fraction(1, 2)
    assert char_p_exponent(Fraction(3, 4), 3) == 0
    assert char_p_exponent(5, 2) == 0


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(-5, 3000):
        assert is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, and the
    # Carmichael number 211 * 421 * 631, whose factors all exceed the bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 56052361):
        assert not is_prime(n)
    for n in (2 ** 61 - 1, 10 ** 18 + 3, 10000000000037, 2 ** 81 - 1):
        assert is_prime(n) == sympy.isprime(n), n


@given(n=st.integers(2, 3317044064679887385961980))
@settings(max_examples=300, deadline=None)
def test_is_prime_matches_sympy_below_the_bound(n):
    sympy = pytest.importorskip("sympy")
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_above_the_bound_uses_the_capped_factorization():
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 fools the
    # first 12 prime bases and is the bound itself; trial division gives up
    with pytest.raises(CapExceededError):
        is_prime(3317044064679887385961981)
    assert not is_prime(3 * 10 ** 25)
