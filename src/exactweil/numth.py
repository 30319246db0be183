"""Valuations, Legendre-Jacobi symbols, Hilbert symbols, and factorization.

Conventions matter here and are easy to get silently wrong, so they are
spelled out once:

* (x/y) means (x/|y|); the symbol over +-1 is 1.
* eps(K) is the class of (K-1)/2 in F_2 and sigma(K) is 1 exactly for
  negative K, so that (-1/y) = (-1)^(eps(y)+sigma(y)) and quadratic
  reciprocity reads (x/y)(y/x) = (-1)^(eps(x)eps(y)+sigma(x)sigma(y)) for
  coprime odd x, y of either sign.
* The symbol accepts p-adic unit rationals in the numerator when the
  denominator is +-p^k: the unit is reduced mod p (mod 8 when powers of two
  appear in the numerator), which is the continuous extension.

factorize stops at TRIAL_DIVISION_CAP with CapExceededError, the error of
every cap in the package.  This module, the lowest layer, imports none.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Union

RationalLike = Union[int, Fraction]

REAL_PLACE = "real"

# Trial division tries no divisor above this, so every n <= 10**12 factors.
TRIAL_DIVISION_CAP = 10 ** 6


class CapExceededError(RuntimeError):
    """An operation would exceed one of the package's resource caps."""


class ValUnit(NamedTuple):
    valuation: int
    unit_part: RationalLike


def valuation_split(x: RationalLike, p: int) -> ValUnit:
    """Write x = p^v * u with u a p-adic unit; returns (v, u) exactly.

    The unit keeps the type of x: an int for an int, a Fraction for a
    Fraction.
    """
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return ValUnit(v, num if isinstance(x, int) else Fraction(num, den))


def unit_part(x: int, p: int) -> int:
    """The signed p-adic unit part of an integer, and 1 for x = 0."""
    return valuation_split(x, p).unit_part if x else 1


def eps_parity(K: RationalLike) -> int:
    """(K-1)/2 mod 2 for odd K (integer or 2-adic unit rational)."""
    num, den = K.numerator, K.denominator
    if num % 2 == 0 or den % 2 == 0:
        raise ValueError("eps is only defined for odd arguments")
    # reduce the unit mod 4 through the inverse of the denominator
    r = (num * pow(den, -1, 4)) % 4
    return ((r - 1) // 2) % 2


def _unit_mod(x: RationalLike, modulus: int) -> int:
    """Reduce a rational with denominator prime to modulus."""
    num, den = x.numerator, x.denominator
    if gcd(den, modulus) != 1:
        raise ValueError("denominator %d not invertible mod %d" % (den, modulus))
    return (num * pow(den, -1, modulus)) % modulus if modulus > 1 else 0


def two_over(y: RationalLike) -> int:
    """(2/y) for odd y, by the y mod 8 rule (sign of y is immaterial)."""
    r = _unit_mod(y, 8)
    if r % 2 == 0:
        raise ValueError("(2/y) requires odd y")
    return 1 if r in (1, 7) else -1


def _jacobi(a: int, n: int) -> int:
    # Standard Jacobi symbol, n odd positive.
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(x: RationalLike, y: int) -> int:
    """(x/y) in the sign-insensitive convention (x/y) = (x/|y|).

    y must be odd and nonzero.  x may be any integer, or, when |y| is a
    power of an odd prime p, any rational with v_p(x) >= 0 (the unit part is
    reduced mod |y|).  Returns 0 when x shares a factor with |y|.
    """
    if y % 2 == 0:
        raise ValueError("legendre denominator must be odd")
    n = abs(y)
    if n == 1:
        return 1
    if x.denominator == 1:
        return _jacobi(x.numerator, n)
    return _jacobi(_unit_mod(x, n), n)


def hilbert(a: RationalLike, b: RationalLike, place) -> int:
    """Hilbert symbol (a,b) at a place of Q.

    place is REAL_PLACE or a prime.  Real: (-1)^(sigma(a)sigma(b)).  At 2:
    (-1)^(eps(a2)eps(b2)) (2/a2)^v2(b) (2/b2)^v2(a).  At odd p:
    (-1)^(eps(p)v(a)v(b)) (a_p/p)^v(b) (b_p/p)^v(a), the closed form pinned
    by bilinearity and the unit-symbol identities.
    """
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    va, ua = valuation_split(a, p)
    vb, ub = valuation_split(b, p)
    if p == 2:
        result = (-1) ** (eps_parity(ua) * eps_parity(ub))
        if vb % 2:
            result *= two_over(ua)
        if va % 2:
            result *= two_over(ub)
        return result
    result = (-1) ** (eps_parity(p) * va * vb)
    if vb % 2:
        result *= legendre(ua, p)
    if va % 2:
        result *= legendre(ub, p)
    return result


def factorize(n: int) -> list[tuple[int, int]]:
    """The pairs (p, e) with p^e exactly dividing |n| (n != 0), p ascending.

    Trial division stops at TRIAL_DIVISION_CAP: a cofactor above its
    square with no divisor up to it raises CapExceededError.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out = []
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_CAP:
            raise CapExceededError("%d has no prime factor up to the trial-division "
                                   "cap %d" % (n, TRIAL_DIVISION_CAP))
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_factors(n: int) -> list[int]:
    """Sorted prime divisors of |n| (n != 0); see factorize for the cap."""
    return [p for p, _ in factorize(n)]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The first 13 primes as Miller-Rabin bases decide primality below this
# bound (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin below _MR_LIMIT.

    Above it the answer comes from prime_factors, whose trial-division cap
    applies.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        return prime_factors(n) == [n]
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
