"""Unit tests for the cyclotomic scalar domain."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd

import exactweil
import pytest
from hypothesis import given, settings, strategies as st

from exactweil.exact import (
    ComplexInterval,
    ExactScalar,
    cyclotomic_polynomial,
    eval_numeric,
    euler_phi,
    from_powers,
    from_rational,
    reduce_powers,
    root_of_unity,
    root_sum,
    sqrt_rat,
)
from reference import scalar_sum


def test_root_of_unity_basics():
    assert root_of_unity(0, 1) == from_rational(1)
    assert root_of_unity(1, 2) == from_rational(-1)
    z8 = root_of_unity(1, 8)
    assert z8 ** 4 == from_rational(-1)
    # num is reduced mod den
    assert root_of_unity(9, 8) == z8
    assert root_of_unity(-1, 8) == z8 ** 7


def test_root_of_unity_rejects_bad_denominator():
    with pytest.raises(ValueError):
        root_of_unity(1, 0)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is phi(L)
    for L in (15, 36, 56, 105):
        assert len(cyclotomic_polynomial(L)) == euler_phi(L) + 1


def test_vanishing_cyclotomic_sum():
    z3 = root_of_unity(1, 3)
    assert (from_rational(1) + z3 + z3 * z3).is_zero()
    z5 = root_of_unity(1, 5)
    total = from_rational(0)
    for k in range(5):
        total = total + z5 ** k
    assert total == 0


def test_sqrt_examples():
    assert sqrt_rat(4) == from_rational(2)
    s2 = sqrt_rat(2)
    assert s2 == root_of_unity(1, 8) + root_of_unity(-1, 8)
    assert s2 * s2 == 2
    assert sqrt_rat(Fraction(1, 2)) == s2 / 2
    assert sqrt_rat(Fraction(1, 2)) * sqrt_rat(Fraction(1, 2)) == Fraction(1, 2)


def test_sqrt_rejects_nonpositive():
    with pytest.raises(ValueError):
        sqrt_rat(0)
    with pytest.raises(ValueError):
        sqrt_rat(Fraction(-3, 7))


def test_conjugation():
    z8 = root_of_unity(1, 8)
    assert z8.conjugate() == z8 ** 7
    assert sqrt_rat(5).conjugate() == sqrt_rat(5)
    mixed = sqrt_rat(3) * root_of_unity(2, 7) + from_rational(Fraction(1, 3))
    assert mixed.conjugate().conjugate() == mixed


def test_root_of_unity_order_sweep():
    # e(k/n)^n = 1 for every n up to 120, exhaustively.
    one = from_rational(1)
    for n in range(1, 121):
        for k in range(n):
            assert root_of_unity(k, n) ** n == one, (k, n)


@given(num=st.integers(1, 50), den=st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_sqrt_squares_to_input(num, den):
    r = Fraction(num, den)
    s = sqrt_rat(r)
    assert s * s == r
    box = eval_numeric(s, 64)
    assert box.real_lo > 0
    assert box.contains_zero_imag()


_small_scalars = st.builds(
    lambda k, n, q: root_of_unity(k, n) * q,
    st.integers(0, 23), st.integers(1, 24),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


@given(a=_small_scalars, b=_small_scalars, c=_small_scalars)
@settings(max_examples=50, deadline=None)
def test_ring_axioms_spot(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(a=_small_scalars, b=_small_scalars)
@settings(max_examples=50, deadline=None)
def test_equality_is_congruence(a, b):
    # a written at a different order must stay equal and behave identically.
    a_alt = a * root_of_unity(0, 7)
    assert a == a_alt
    assert a + b == a_alt + b
    assert a * b == a_alt * b


@given(a=_small_scalars)
@settings(max_examples=50, deadline=None)
def test_conj_fixes_modulus(a):
    m = a * a.conjugate()
    box = eval_numeric(m, 64)
    assert box.contains_zero_imag()
    assert box.real_lo >= -Fraction(1, 10**6)


def test_modulus_of_unimodular_times_sqrt():
    a = root_of_unity(3, 40) * sqrt_rat(Fraction(7, 3))
    assert a * a.conjugate() == Fraction(7, 3)


@given(a=_small_scalars)
@settings(max_examples=40, deadline=None)
def test_inverse_roundtrip(a):
    if a.is_zero():
        return
    assert a * a.inverse() == 1
    assert a ** -2 == (a * a).inverse()


def test_eval_numeric_encloses_known_points():
    # zeta_8 has real and imaginary parts sqrt(2)/2: compare squares, since
    # float references are not accurate to the interval width.
    z8 = eval_numeric(root_of_unity(1, 8), 64)
    for lo, hi in ((z8.real_lo, z8.real_hi), (z8.imag_lo, z8.imag_hi)):
        assert 0 < lo <= hi
        assert lo * lo <= Fraction(1, 2) <= hi * hi
    s2 = eval_numeric(sqrt_rat(2), 64)
    assert s2.real_lo * s2.real_lo <= 2 <= s2.real_hi * s2.real_hi
    assert s2.imag_lo <= 0 <= s2.imag_hi
    z3 = eval_numeric(root_of_unity(1, 3), 64)
    assert z3.real_lo <= Fraction(-1, 2) <= z3.real_hi
    assert isinstance(z3, ComplexInterval)


def test_eval_numeric_precision_shrinks_width():
    a = sqrt_rat(2) * root_of_unity(1, 7)
    wide = eval_numeric(a, 32)
    narrow = eval_numeric(a, 160)
    assert (narrow.real_hi - narrow.real_lo) < (wide.real_hi - wide.real_lo)
    with pytest.raises(ValueError):
        eval_numeric(a, 16)


def test_eval_numeric_precision_is_capped():
    # the cap is checked before mpmath is loaded
    code = textwrap.dedent("""
        import sys
        from exactweil.exact import CapExceededError, PRECISION_CAP, eval_numeric, sqrt_rat
        try:
            eval_numeric(sqrt_rat(2), PRECISION_CAP + 1)
        except CapExceededError:
            print("mpmath" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactweil.__file__)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_json_roundtrip_bit_exact():
    samples = [
        from_rational(0),
        from_rational(Fraction(-22, 7)),
        root_of_unity(5, 56),
        sqrt_rat(Fraction(3, 10)) + root_of_unity(1, 8),
    ]
    for s in samples:
        blob = s.to_json()
        assert ExactScalar.from_json(blob) == s
        assert ExactScalar.from_json(blob).to_json() == blob


def test_json_rejects_wrong_shape():
    with pytest.raises(ValueError):
        ExactScalar.from_json({"order": 8, "coeffs": ["1", "0"]})


def test_rational_detection():
    assert (sqrt_rat(2) * sqrt_rat(2)).as_rational() == 2
    assert (root_of_unity(1, 4) ** 2).as_rational() == -1
    with pytest.raises(ValueError):
        root_of_unity(1, 3).as_rational()


# -- the integer core against independent oracles ---------------------------

_ORDERS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 21, 24, 30])
_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _general_scalars(draw, orders=_ORDERS):
    """A scalar with arbitrary rational coordinates at a drawn order."""
    L = draw(orders)
    coeffs = draw(st.lists(_coeff, min_size=euler_phi(L), max_size=euler_phi(L)))
    return ExactScalar.from_json({"order": L, "coeffs": [str(c) for c in coeffs]})


def _monomial_scalars(dens=st.integers(1, 30)):
    return st.builds(lambda k, n, q: root_of_unity(k, n) * q,
                     st.integers(-40, 40), dens, _coeff.filter(lambda q: q != 0))


_monomials = _monomial_scalars()
_any_scalars = st.one_of(_general_scalars(), _monomials)


def _sympy_poly(s: ExactScalar, M: int, x):
    """s as a polynomial in x = zeta_M, read from its public encoding."""
    data = s.to_json()
    step = M // data["order"]
    return sum(Fraction(c) * x ** (k * step) for k, c in enumerate(data["coeffs"]))


def _sympy_coeffs(poly, M: int, sympy, x):
    """Power-basis coordinates of a sympy polynomial of degree < phi(M)."""
    coeffs = sympy.Poly(poly, x).all_coeffs()[::-1]
    coeffs += [0] * (euler_phi(M) - len(coeffs))
    return [Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, coeffs)]


def _coords(s: ExactScalar):
    return [Fraction(c) for c in s.to_json()["coeffs"]]


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for L in range(1, 201):
        expected = tuple(int(c) for c in
                         sympy.Poly(sympy.cyclotomic_poly(L, x), x).all_coeffs()[::-1])
        assert cyclotomic_polynomial(L) == expected, L


@given(a=_any_scalars, b=_any_scalars)
@settings(max_examples=80, deadline=None)
def test_products_match_sympy_remainder(a, b):
    # Covers general x general, monomial x general and monomial x monomial.
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    M = a.order * b.order // gcd(a.order, b.order)
    product = a * b
    if product.is_zero():
        assert a.is_zero() or b.is_zero()
        return
    assert product.order == M
    rem = sympy.rem(sympy.expand(_sympy_poly(a, M, x) * _sympy_poly(b, M, x)),
                    sympy.cyclotomic_poly(M, x), x)
    assert _coords(product) == _sympy_coeffs(rem, M, sympy, x)


@given(m=_monomials, e=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_negative_powers_of_monomials_match_sympy(m, e):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    M = m.order
    inv = sympy.invert(sympy.expand(_sympy_poly(m, M, x) ** e),
                       sympy.cyclotomic_poly(M, x), x)
    power = m ** -e
    assert power.order == M
    assert _coords(power) == _sympy_coeffs(inv, M, sympy, x)
    assert power * m ** e == 1


@given(n=st.integers(1, 60), ks=st.lists(st.integers(-200, 200), max_size=40))
@settings(max_examples=100, deadline=None)
def test_root_sum_is_the_sum_of_its_roots(n, ks):
    # Value and order: the order is n/gcd(n, ks), that of the separate roots.
    ref = scalar_sum(root_of_unity(k, n) for k in ks)
    assert root_sum(ks, n).to_json() == ref.to_json()
    assert root_sum(iter(ks), n) == ref


def test_root_sum_examples():
    assert root_sum([], 5).to_json() == {"order": 1, "coeffs": ["0"]}
    # 2 e(4/12) + e(8/12) = 2 z3 + z3^2 = z3 - 1, at order 12/4
    assert root_sum([4, 4, 8], 12).to_json() == {"order": 3, "coeffs": ["-1", "1"]}
    assert root_sum([1, 3], 4).is_zero()
    assert root_sum([0, 8], 8).to_json() == {"order": 1, "coeffs": ["2"]}
    assert root_sum([k * k for k in range(5)], 5) == sqrt_rat(5)


@given(L=st.integers(1, 60), data=st.data())
@settings(max_examples=60, deadline=None)
def test_from_powers_is_the_sum_of_roots(L, data):
    # Lengths below, at and above L: powers past L wrap around.
    coeffs = data.draw(st.lists(st.integers(0, 10 ** 12), max_size=2 * L + 1))
    got = from_powers(coeffs, L)
    ref = scalar_sum(c * root_of_unity(t, L) for t, c in enumerate(coeffs))
    assert got == ref
    with pytest.raises(ValueError):
        from_powers([1], 0)
    # reduce_powers decides equality on integers: adding 1 + x + ... + x^(L-1),
    # which vanishes for L > 1, keeps the reduction; a random list need not
    reduced = reduce_powers(list(coeffs), L)
    assert len(reduced) == euler_phi(L)
    padded = coeffs + [0] * (L - len(coeffs))
    same = [c + 1 for c in padded[:L]] + padded[L:]
    other = data.draw(st.lists(st.integers(-3, 3), max_size=2 * L + 1))
    for alt in (same, other):
        assert (reduce_powers(list(alt), L) == reduced) == (from_powers(alt, L) == got)
    assert (reduce_powers(same, L) == reduced) == (L > 1)


def test_ring_paths_build_no_fraction(monkeypatch):
    import exactweil.exact as exact
    mono, other = root_of_unity(3, 8) * Fraction(2, 3), root_of_unity(1, 12)
    general = sqrt_rat(3) + root_of_unity(1, 5)

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("Fraction built on an integer path")

    monkeypatch.setattr(exact, "Fraction", NoFraction)
    root_of_unity(7, 30), from_powers([3, 0, 1, 5], 6), root_sum([3, 0, 5, 5], 6)
    for a, b in ((mono, other), (mono, general), (general, mono), (general, general)):
        a * b, a + b, a - b, a * 3
    mono ** -3, mono.inverse(), mono.conjugate(), general ** 3, general.conjugate()
    general.inverse(), general ** -2


def _meets(lo1, hi1, lo2, hi2) -> bool:
    return lo1 <= hi2 and lo2 <= hi1


def _interval_mul(lo1, hi1, lo2, hi2):
    ends = [lo1 * lo2, lo1 * hi2, hi1 * lo2, hi1 * hi2]
    return min(ends), max(ends)


@given(a=_any_scalars, b=_any_scalars)
@settings(max_examples=60, deadline=None)
def test_enclosures_of_sum_and_product_meet_interval_arithmetic(a, b):
    ea, eb = eval_numeric(a, 64), eval_numeric(b, 64)
    s = eval_numeric(a + b, 64)
    assert _meets(s.real_lo, s.real_hi, ea.real_lo + eb.real_lo, ea.real_hi + eb.real_hi)
    assert _meets(s.imag_lo, s.imag_hi, ea.imag_lo + eb.imag_lo, ea.imag_hi + eb.imag_hi)
    p = eval_numeric(a * b, 64)
    rr = _interval_mul(ea.real_lo, ea.real_hi, eb.real_lo, eb.real_hi)
    ii = _interval_mul(ea.imag_lo, ea.imag_hi, eb.imag_lo, eb.imag_hi)
    ri = _interval_mul(ea.real_lo, ea.real_hi, eb.imag_lo, eb.imag_hi)
    ir = _interval_mul(ea.imag_lo, ea.imag_hi, eb.real_lo, eb.real_hi)
    assert _meets(p.real_lo, p.real_hi, rr[0] - ii[1], rr[1] - ii[0])
    assert _meets(p.imag_lo, p.imag_hi, ri[0] + ir[0], ri[1] + ir[1])


def test_exact_output_does_not_load_mpmath():
    code = textwrap.dedent("""
        import sys
        import exactweil.cli
        from exactweil.cli import Request, parse_lattice, parse_matrix, run
        for gram, mat in (("[[2, 1], [1, 2]]", "1,2,3,7"), ("[[2]]", "0,-1,1,0"),
                          ("[[6]]", "0,-1,1,0"), ("[[1]]", "2,1,3,2")):
            run(Request("rho", parse_lattice(gram), parse_matrix(mat), 1))
        assert "mpmath" not in sys.modules
        from exactweil.exact import eval_numeric, root_of_unity
        print(repr(tuple(eval_numeric(root_of_unity(1, 12) * 3 + 1, 80))))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactweil.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    box = eval_numeric(root_of_unity(1, 12) * 3 + 1, 80)
    assert run.stdout.strip() == repr(tuple(box))
