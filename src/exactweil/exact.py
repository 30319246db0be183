"""Exact arithmetic in cyclotomic fields.

Every scalar the representation formulas produce lives in some Q(zeta_L):
roots of unity e(num/den), square roots of positive rationals (embedded via
quadratic Gauss sums), and sums and products thereof.  This module provides
that scalar type with decidable, exact equality.

Internally a scalar is a vector of integers of length phi(L) (the power basis
1, z, ..., z^{phi(L)-1} of Q(zeta_L), always reduced modulo the L-th
cyclotomic polynomial) together with a positive common denominator.  The
reduced form is canonical for a fixed L, so equality at equal orders is tuple
comparison; at different orders both sides are embedded into Q(zeta_lcm).

All ring arithmetic runs on integers: a result is an integer numerator vector
over one common denominator, reduced by a single gcd.  A scalar known to be
a rational multiple of one root of unity, q * zeta_L^k, also carries its
exponent, so products with it are rotations rather than convolutions.
A sum of roots of unity e(k/n) over integer exponents k is one count per
power of zeta_n and one reduction (root_sum).  Factoring and the cap
error come from numth, the one layer below.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import cos, gcd, lcm, pi, prod
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .numth import CapExceededError, RationalLike, factorize

_cyclo_cache: dict[int, tuple[int, ...]] = {}
_phi_cache: dict[int, int] = {}

# Working precision above which a numeric enclosure is refused.
PRECISION_CAP = 2 ** 14
# Terms a brute-force sum may add, and p^2 for sqrt(p), whose check costs
# O(p^2) in Q(zeta_4p).
BRUTE_CAP = 10 ** 6


def euler_phi(n: int) -> int:
    """Euler's totient, by trial division (orders stay desk-sized)."""
    if n in _phi_cache:
        return _phi_cache[n]
    result = n
    for p, _ in factorize(n):
        result -= result // p
    _phi_cache[n] = result
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials; den must be monic.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num[:dd]):
        raise ArithmeticError("non-exact polynomial division")
    return out


def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients of Phi_L, low degree first, computed by dividing x^L - 1
    by Phi_d over all proper divisors d of L."""
    if L in _cyclo_cache:
        return _cyclo_cache[L]
    poly = [0] * (L + 1)
    poly[0], poly[L] = -1, 1
    for d in _divisors(L):
        if d < L:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    result = tuple(poly)
    if len(result) != euler_phi(L) + 1 or result[-1] != 1:
        raise ArithmeticError("Phi_%d came out with degree %d, expected monic "
                              "of degree phi(%d) = %d"
                              % (L, len(result) - 1, L, euler_phi(L)))
    _cyclo_cache[L] = result
    return result


@lru_cache(maxsize=1024)
def _taps(L: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(L), the nonzero taps (j, -c_j) of Phi_L below its leading term):
    z^phi(L) = sum of t * z^j over the taps."""
    cyclo = cyclotomic_polynomial(L)
    phi = len(cyclo) - 1
    return phi, tuple((j, -c) for j, c in enumerate(cyclo[:phi]) if c)


def _reduce_vec(vec: list, L: int) -> list:
    """Reduce a coefficient vector (powers of zeta_L) mod Phi_L, in place."""
    phi, taps = _taps(L)
    n = len(vec)
    if n <= phi:
        vec.extend([0] * (phi - n))
        return vec
    if n > L:
        # zeta_L^L = 1: fold the tail onto the first L powers.
        for i in range(L, n):
            vec[i % L] += vec[i]
        del vec[L:]
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            base = i - phi
            for j, t in taps:
                vec[base + j] += c * t
    del vec[phi:]
    return vec


@lru_cache(maxsize=4096)
def _root_vec(k: int, L: int) -> tuple[int, ...]:
    """The reduced vector of zeta_L^k for 0 <= k < L: integers, and primitive
    (their gcd is 1), since zeta_L^k is a unit."""
    vec = [0] * (k + 1)
    vec[k] = 1
    return tuple(_reduce_vec(vec, L))


class ExactScalar:
    """An element of Q(zeta_L), canonically reduced.

    Supports +, -, *, /, integer powers, conjugation, exact equality, and
    rigorous numeric evaluation.  Mixed-order operations embed into the
    compositum Q(zeta_lcm); callers never pick L themselves.
    """

    __slots__ = ("order", "_num", "_den", "_mono")

    def __init__(self, order: int, num: tuple[int, ...], den: int,
                 mono: Optional[Tuple[int, int]] = None):
        # Trusted constructor: num reduced, gcd(num..., den) = 1, den > 0.
        # mono = (k, c) records that the value is c/den * zeta_order^k with
        # 0 <= k < order; None when that is not known.
        self.order = order
        self._num = num
        self._den = den
        self._mono = mono

    # -- embedding ---------------------------------------------------------

    def _embedded_vec(self, M: int) -> list[int]:
        """Numerator vector of self viewed in Q(zeta_M); requires order | M."""
        step = M // self.order
        out = [0] * (max((len(self._num) - 1) * step + 1, 1))
        for k, c in enumerate(self._num):
            if c:
                out[k * step] += c
        return _reduce_vec(out, M)

    def _to_order(self, M: int) -> "ExactScalar":
        if M == self.order:
            return self
        return ExactScalar(M, tuple(self._embedded_vec(M)), self._den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        L = lcm(self.order, other.order)
        a, b = self._to_order(L), other._to_order(L)
        da, db = a._den, b._den
        g = gcd(da, db)
        ma, mb = db // g, da // g  # scale factors up to the lcm denominator
        vec = [x * ma + y * mb for x, y in zip(a._num, b._num)]
        return _make(L, vec, da * ma)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        mono = self._mono
        if mono is not None:
            mono = (mono[0], -mono[1])
        return ExactScalar(self.order, tuple(-x for x in self._num), self._den, mono)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            if other._mono is not None:
                if self._mono is not None:
                    return _monomial_product(self, other)
                return _rotated(self, other)
            if self._mono is not None:
                return _rotated(other, self)
            L = lcm(self.order, other.order)
            av = self._num if self.order == L else self._embedded_vec(L)
            bv = other._num if other.order == L else other._embedded_vec(L)
            conv = [0] * (len(av) + len(bv) - 1)
            for i, ai in enumerate(av):
                if ai:
                    for j, bj in enumerate(bv):
                        if bj:
                            conv[i + j] += ai * bj
            return _make(L, _reduce_vec(conv, L), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            n, d = _as_ratio(other)
            return self._scaled(n, d)
        return NotImplemented

    __rmul__ = __mul__

    def _scaled(self, p: int, q: int) -> "ExactScalar":
        """self * p/q for integers p and q > 0."""
        if not p:
            return _ZERO
        if self._mono is not None:
            k, c = self._mono
            return _monomial(self.order, k, c * p, self._den * q)
        return _make(self.order, [x * p for x in self._num], self._den * q)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = _as_ratio(other)
            if not n:
                raise ZeroDivisionError("division by zero")
            return self._scaled(-d, -n) if n < 0 else self._scaled(d, n)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int) -> "ExactScalar":
        if e < 0:
            return self.inverse() ** (-e)
        if e and self._mono is not None:
            k, c = self._mono
            L = self.order
            return _monomial(L, k * e % L, c ** e, self._den ** e)
        result = from_rational(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            e >>= 1
            if base_needed:
                base = base * base
        return result

    def inverse(self) -> "ExactScalar":
        """Field inverse: a rotation for q * zeta^k, otherwise the product
        of the other Galois conjugates over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        L = self.order
        if self._mono is not None:
            k, c = self._mono
            d = self._den
            return _monomial(L, -k % L, -d if c < 0 else d, abs(c))
        others = from_rational(1)
        for k in range(2, L):
            if gcd(k, L) == 1:
                others = others * self._galois(k)
        norm = self * others
        if not norm.is_rational():
            raise ArithmeticError("the norm of %r came out irrational" % (self,))
        n, d = norm._num[0], norm._den
        return others._scaled(d if n > 0 else -d, abs(n))

    def _galois(self, k: int) -> "ExactScalar":
        """The conjugate sigma_k(self), zeta_L -> zeta_L^k, for k prime to L."""
        L = self.order
        vec = [0] * L
        for j, c in enumerate(self._num):
            if c:
                vec[j * k % L] += c
        return _make(L, _reduce_vec(vec, L), self._den)

    def conjugate(self) -> "ExactScalar":
        """Complex conjugation, zeta_L -> zeta_L^(L-1)."""
        L = self.order
        if self._mono is not None:
            k, c = self._mono
            return _monomial(L, -k % L, c, self._den)
        vec = [0] * L
        for k, c in enumerate(self._num):
            if c:
                vec[(L - k) % L] += c
        _reduce_vec(vec, L)
        return ExactScalar(L, tuple(vec), self._den)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is irrational: %r" % (self,))
        return Fraction(self._num[0], self._den)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return self._num == other._num and self._den == other._den
        L = lcm(self.order, other.order)
        a, b = self._to_order(L), other._to_order(L)
        return a._num == b._num and a._den == b._den

    __hash__ = None  # mutability-free but not canonical across orders

    # -- numerics ----------------------------------------------------------

    def eval_numeric(self, precision_bits: int = 64) -> "ComplexInterval":
        return eval_numeric(self, precision_bits)

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self._num):
            if not c:
                continue
            q = Fraction(c, self._den)
            if k == 0:
                terms.append(str(q))
            else:
                mon = "z%d" % self.order if k == 1 else "z%d^%d" % (self.order, k)
                if q == 1:
                    terms.append(mon)
                elif q == -1:
                    terms.append("-" + mon)
                else:
                    terms.append("%s*%s" % (q, mon))
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Portable form {order, coeffs}; coeffs are the phi(L) power-basis
        coordinates as exact rational strings.  Round-trips bit-exactly."""
        den = self._den
        if den == 1:
            return {"order": self.order, "coeffs": list(map(str, self._num))}
        coeffs = []
        for n in self._num:
            if not n:
                coeffs.append("0")
                continue
            g = gcd(n, den)
            coeffs.append(str(n // g) if g == den else "%d/%d" % (n // g, den // g))
        return {"order": self.order, "coeffs": coeffs}

    @staticmethod
    def from_json(data: dict) -> "ExactScalar":
        L = int(data["order"])
        if L < 1:
            raise ValueError("order must be positive")
        coeffs = [Fraction(s) for s in data["coeffs"]]
        if len(coeffs) != euler_phi(L):
            raise ValueError("expected %d coefficients for order %d"
                             % (euler_phi(L), L))
        return _from_fractions(L, coeffs)


_ZERO = ExactScalar(1, (0,), 1)


def _as_ratio(r) -> Tuple[int, int]:
    """(numerator, denominator > 0) of a rational."""
    if isinstance(r, int):
        return int(r), 1
    if not isinstance(r, Fraction):
        r = Fraction(r)
    return r.numerator, r.denominator


def _make(order: int, vec: list, den: int) -> ExactScalar:
    """The canonical scalar vec/den: vec is an integer vector already reduced
    mod Phi_order and den > 0; one gcd brings the pair to lowest terms."""
    if not any(vec):
        return _ZERO
    g = gcd(den, *vec)
    if g > 1:
        den //= g
        vec = [x // g for x in vec]
    mono = None
    if len(vec) - vec.count(0) == 1:
        k = next(i for i, x in enumerate(vec) if x)
        mono = (k, vec[k])
    return ExactScalar(order, tuple(vec), den, mono)


def _from_fractions(order: int, coeffs: Sequence[Fraction]) -> ExactScalar:
    """The scalar with rational power-basis coordinates `coeffs` (length
    phi(order)), put over their common denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return _make(order, [c.numerator * (den // c.denominator) for c in coeffs], den)


def _monomial(L: int, k: int, c: int, d: int) -> ExactScalar:
    """c/d * zeta_L^k for 0 <= k < L, c != 0 and d > 0."""
    g = gcd(c, d)
    if g > 1:
        c //= g
        d //= g
    vec = _root_vec(k, L)
    # vec is primitive, so c*vec over d is already in lowest terms.
    return ExactScalar(L, vec if c == 1 else tuple(c * x for x in vec), d, (k, c))


def _monomial_product(a: ExactScalar, b: ExactScalar) -> ExactScalar:
    (ka, ca), (kb, cb) = a._mono, b._mono
    M = lcm(a.order, b.order)
    k = (ka * (M // a.order) + kb * (M // b.order)) % M
    return _monomial(M, k, ca * cb, a._den * b._den)


def _rotated(g: ExactScalar, m: ExactScalar) -> ExactScalar:
    """g * m for a monomial m = c/d * zeta^k: shift g's coefficients by k
    and reduce once, with no convolution."""
    k, c = m._mono
    M = lcm(g.order, m.order)
    vec = g._num if g.order == M else g._embedded_vec(M)
    s = k * (M // m.order)
    if s:
        buf = [0] * s
        buf.extend(vec)
        _reduce_vec(buf, M)
    else:
        buf = list(vec)
    if c != 1:
        buf = [x * c for x in buf]
    return _make(M, buf, g._den * m._den)


def _coerce(x) -> "ExactScalar":
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return from_rational(x)
    return NotImplemented


# -- public constructors ---------------------------------------------------

def root_of_unity(num: int, den: int) -> ExactScalar:
    """e(num/den) = exp(2*pi*i*num/den) as an element of Q(zeta_den)."""
    if den < 1:
        raise ValueError("denominator must be positive")
    num %= den
    g = gcd(num, den)
    num, den = num // g, den // g
    return ExactScalar(den, _root_vec(num, den), 1, (num, 1))


def root_multiples(x: ExactScalar, ks: Iterable[int], n: int) -> dict:
    """{k: x * e(k/n)} for each k in ks, 0 <= k < n, each value with the
    order and vector x * root_of_unity(k, n) gives.  e(k/n) has order n/g,
    g = gcd(k, n), so the product lies in Q(zeta_M), M = lcm(x.order, n/g);
    x is embedded once per M, and each k costs one shift by (k/g)(M g/n),
    one reduction and one _make."""
    if x._mono is not None:
        return {k: x * root_of_unity(k, n) for k in ks}
    embedded, out = {}, {}
    for k in ks:
        g = gcd(k, n)
        M = lcm(x.order, n // g)
        vec = embedded.get(M)
        if vec is None:
            vec = embedded[M] = x._num if x.order == M else x._embedded_vec(M)
        buf = [0] * (k // g * (M * g // n))
        buf.extend(vec)
        out[k] = _make(M, _reduce_vec(buf, M), x._den)
    return out


def from_rational(r: RationalLike) -> ExactScalar:
    n, d = _as_ratio(r)
    if not n:
        return _ZERO
    return ExactScalar(1, (n,), d, (0, n))


def root_sum(ks: Iterable[int], n: int) -> ExactScalar:
    """sum of e(k/n) over the integers ks: one count per power of zeta_n and
    one from_powers, at the order n/g, g = gcd(n, ks), that a sum of
    root_of_unity(k, n) terms has."""
    counts = [0] * n
    for k in ks:
        counts[k % n] += 1
    g = gcd(n, *(k for k, h in enumerate(counts) if h))
    return from_powers(counts[::g], n // g)


def from_powers(coeffs: Sequence[int], L: int) -> ExactScalar:
    """sum of coeffs[t] * zeta_L^t over t, for integer coefficients: an
    element of the group ring Z[x]/(x^L - 1) read in Q(zeta_L), with one
    reduction mod Phi_L (reduce_powers)."""
    return _make(L, reduce_powers(list(coeffs), L), 1)


def reduce_powers(coeffs: List[int], L: int) -> List[int]:
    """The integer vector of sum of coeffs[t] * zeta_L^t in the power basis:
    the list itself, reduced mod Phi_L to phi(L) entries.  Two lists stand
    for the same element of Q(zeta_L) exactly when their reductions are
    equal, and for zero exactly when it is all zeros."""
    if L < 1:
        raise ValueError("order must be positive")
    return _reduce_vec(coeffs, L)


_sqrt_prime_cache: dict[int, ExactScalar] = {}


def _sqrt_prime(p: int) -> ExactScalar:
    """The positive square root of a prime, via the quadratic Gauss sum.

    sum_k zeta_p^(k^2) equals sqrt(p) for p = 1 mod 4 and i*sqrt(p) for
    p = 3 mod 4 (with the principal embedding zeta_p = e(1/p)); sqrt(2) is
    zeta_8 + zeta_8^-1.  Each cached value is guarded by an exact check
    that s^2 = p and s is real, so s = +-sqrt(p); the sign is read off a
    float sum of the real part, whose rounding error (below p * 2^-40) is
    far less than sqrt(p).  So exact evaluation never imports mpmath.
    That check is a product in Q(zeta_4p), O(p^2), so p^2 above BRUTE_CAP
    raises CapExceededError.
    """
    if p * p > BRUTE_CAP:
        raise CapExceededError("sqrt(%d) in Q(zeta_%d) exceeds the cap %d"
                               % (p, 4 * p, BRUTE_CAP))
    if p in _sqrt_prime_cache:
        return _sqrt_prime_cache[p]
    if p == 2:
        s = root_sum((1, -1), 8)
    else:
        gauss = root_sum((k * k for k in range(p)), p)
        s = gauss if p % 4 == 1 else gauss * root_of_unity(3, 4)
    real = sum(c * cos(2 * pi * k / s.order) for k, c in enumerate(s._num)) / s._den
    if not (s * s == from_rational(p) and s.conjugate() == s and real > 0):
        raise AssertionError("square root of %d left the positive axis" % p)
    _sqrt_prime_cache[p] = s
    return s


def sqrt_rat(r: RationalLike) -> ExactScalar:
    """Exact positive square root of a positive rational.

    sqrt(a/b) is computed as sqrt(ab)/b, with the primes of odd exponent
    in ab handled through _sqrt_prime.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("sqrt_rat requires a positive rational, got %s" % r)
    factors = factorize(r.numerator * r.denominator)
    square = prod(p ** (e // 2) for p, e in factors)
    result = from_rational(Fraction(square, r.denominator))
    for p, e in factors:
        if e % 2:
            result = result * _sqrt_prime(p)
    return result


# -- rigorous numeric evaluation ------------------------------------------

class ComplexInterval(NamedTuple):
    """A rectangle [real_lo, real_hi] x [imag_lo, imag_hi] certified to
    contain the standard embedding of a scalar.  Endpoints are exact
    rationals recovered from the binary interval arithmetic."""

    real_lo: Fraction
    real_hi: Fraction
    imag_lo: Fraction
    imag_hi: Fraction

    @property
    def real_mid(self) -> Fraction:
        return (self.real_lo + self.real_hi) / 2

    @property
    def imag_mid(self) -> Fraction:
        return (self.imag_lo + self.imag_hi) / 2

    def contains_zero_imag(self) -> bool:
        return self.imag_lo <= 0 <= self.imag_hi


def _raw_mpf_to_fraction(raw) -> Fraction:
    import mpmath

    sign, man, exp, _ = raw
    if man == 0:
        if raw == mpmath.libmp.fzero:
            return Fraction(0)
        raise ValueError("non-finite interval endpoint")
    value = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -value if sign else value


def _interval_bounds(x) -> tuple[Fraction, Fraction]:
    lo, hi = x._mpi_
    return _raw_mpf_to_fraction(lo), _raw_mpf_to_fraction(hi)


def check_precision(precision_bits: int) -> None:
    """Raise unless 32 <= precision_bits <= PRECISION_CAP."""
    if precision_bits < 32:
        raise ValueError("precision_bits must be at least 32")
    if precision_bits > PRECISION_CAP:
        raise CapExceededError("precision_bits %d exceeds the cap %d"
                               % (precision_bits, PRECISION_CAP))


def eval_numeric(a: ExactScalar, precision_bits: int = 64) -> ComplexInterval:
    """Rigorous complex enclosure of a scalar at the given working precision."""
    check_precision(precision_bits)
    import mpmath  # only the numeric enclosures need it; exact output does not

    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = precision_bits
        L = a.order
        re = iv.mpf(0)
        im = iv.mpf(0)
        two_pi = 2 * iv.pi
        for k, c in enumerate(a._num):
            if not c:
                continue
            coeff = iv.mpf(c) / a._den
            angle = two_pi * k / L
            re += coeff * iv.cos(angle)
            im += coeff * iv.sin(angle)
        re_lo, re_hi = _interval_bounds(re)
        im_lo, im_hi = _interval_bounds(im)
        return ComplexInterval(re_lo, re_hi, im_lo, im_hi)
    finally:
        iv.prec = old
