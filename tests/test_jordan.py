"""Jordan decompositions, Weil indices, and the local Gauss sums."""

import os
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import E8_GRAM, EVEN_GRAMS, MIXED_SCALE_GRAMS, ODD_GRAMS
from exactweil.exact import from_rational, root_of_unity, sqrt_rat
from exactweil.jordan import (
    JordanComponent,
    JordanDecomposition,
    _validate_blocks,
    choose_xc,
    gauss_sum_brute,
    gauss_sum_closed,
    jordan_components,
    jordan_decompose,
    weil_index_component,
    weil_index_lattice,
    xc_vector,
)
from exactweil.lattice import CapExceededError, GramLattice, direct_sum
from reference import (char_p_value, form_gauss_sum, lift, pairing_of_lifts, q_of_lift,
                       rational_jordan, weil_index_scaled, xc_phase)
from exactweil.numth import legendre, prime_factors, valuation_split

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import workloads  # noqa: E402

ALL_GRAMS = EVEN_GRAMS + ODD_GRAMS


def test_decomposition_examples():
    assert jordan_decompose(GramLattice([[2]]), 2).symbol() == "2^+1_1"
    assert jordan_decompose(GramLattice([[0, 1], [1, 0]]), 2).symbol() == "1^+2_II"
    assert jordan_decompose(GramLattice(E8_GRAM), 2).symbol() == "1^+8_II"
    i8 = [[int(i == j) for j in range(8)] for i in range(8)]
    assert jordan_decompose(GramLattice(i8), 2).symbol() == "1^+8_0"
    d4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    assert jordan_decompose(GramLattice(d4), 2).symbol() == "1^-2_II 2^-2_II"
    # the sign of a type II scale multiplies the determinants of all its blocks
    for g1, g2 in (([[-4, 2], [2, -4]], [[0, 2], [2, 0]]), ([[0, 2], [2, 0]], [[-4, 2], [2, -4]])):
        total = direct_sum(GramLattice(g1), GramLattice(g2))
        assert jordan_decompose(total, 2).symbol() == "2^-4_II", (g1, g2)
    # the lowest valuation is met only by a pair four places apart
    far = [[4 * (i == j) + 2 * ({i, j} == {0, 4}) for j in range(5)] for i in range(5)]
    assert jordan_decompose(GramLattice(far), 2).symbol() == "2^-2_II 4^+3_3"
    # a scale with a 1x1 pivot and an even 2x2 block: the sign multiplies
    # the pivot's unit and the block's determinant, and the oddity is the
    # pivot's unit
    symbols = ["2^+3_1", "2^-3_1", "2^+3_3", "1^-3_1"]
    for gram, symbol in zip(MIXED_SCALE_GRAMS, symbols):
        assert jordan_decompose(GramLattice(gram), 2).symbol() == symbol, gram
    d = rational_jordan(GramLattice([[2, 1], [1, 2]]), 3)
    assert [c.q for c in d.components] == [1, 3]
    assert sum(c.n for c in d.components) == 2
    with pytest.raises(ValueError):
        jordan_decompose(GramLattice([[2]]), 4)


def pivots(*spans):
    """The blocks of components made of 1x1 pivots only, one span each."""
    return [[(i,) for i in span] for span in spans]


def test_block_check_rejects_tampered_decompositions():
    # [[2, 0], [0, 18]] at p = 3 is 1^(+-1) 9^(+-1) on the standard basis
    lat = GramLattice([[2, 0], [0, 18]])
    unit, nine = rational_jordan(lat, 3).components
    assert (unit.q, nine.q) == (1, 9)
    e0, e1 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))

    def check(components, basis, spans, message, lattice=lat, p=3):
        decomp = JordanDecomposition(lattice, p, components, basis, pivots(*spans))
        with pytest.raises(ArithmeticError, match=message):
            _validate_blocks(decomp)

    _validate_blocks(JordanDecomposition(lat, 3, (unit, nine), (e0, e1), pivots((0,), (1,))))
    check((unit,), (e0, e1), ((0,),), "do not have total rank 2")
    check((unit, JordanComponent(3, 1, 1, 1)), (e0, e1), ((0,), (1,)),
          "do not multiply to the p-part of delta")
    check((unit, nine), (e0, e1), ((1,), (0,)),
          "component 0 at p = 3 has the wrong determinant valuation")
    # diag(2, 18) as one block 3^(+2): determinant valuation 2, entry 2 a unit
    check((JordanComponent(3, 1, 2, 1),), (e0, e1), ((0, 1),),
          "component 0 at p = 3 has an entry below its scale")
    # 3 e0 + e1 has norm 36, so each block passes, but pairs to 6 with e0
    check((unit, nine), (e0, (Fraction(3), Fraction(1))), ((0,), (1,)),
          "components 0 and 1 at p = 3 are not orthogonal")
    # diag(2, 2) is 2^+2_2, but (1/2, 1/2) and (1, -1), of norms 1 and 4,
    # pass every block check as 1^+1_1 4^+1_1: they span another lattice
    halves = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(-1)))
    check((JordanComponent(2, 0, 1, 1, 1), JordanComponent(2, 2, 1, 1, 1)), halves,
          ((0,), (1,)), "the Jordan basis at p = 2 is not integral",
          lattice=GramLattice([[2, 0], [0, 2]]), p=2)


def test_jordan_decompose_is_the_two_adic_route():
    lat = GramLattice([[2, 1], [1, 2]])
    for p in (3, 5):
        with pytest.raises(ValueError):
            jordan_decompose(lat, p)
    assert jordan_decompose(lat, 2).p == 2


def test_block_check_clears_denominators():
    # e0/3 has norm 2/9 in diag(2, 18): its block determinant has v_3 = -2,
    # not its component's 0.  The determinant check, on the block cleared of
    # its denominator, reports it before the entry check runs.
    lat = GramLattice([[2, 0], [0, 18]])
    unit, nine = rational_jordan(lat, 3).components
    third, half = (Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(1, 2))
    with pytest.raises(ArithmeticError, match="component 0 at p = 3 has the wrong "
                                              "determinant valuation"):
        _validate_blocks(JordanDecomposition(lat, 3, (unit, nine), (third, half),
                                             pivots((0,), (1,))))
    # denominators prime to p leave the valuations alone: 18/4 has v_3 = 2
    _validate_blocks(JordanDecomposition(lat, 3, (unit, nine), ((Fraction(1, 2), Fraction(0)),
                                                                half), pivots((0,), (1,))))


def _assert_components_match_reference(gram):
    lat = GramLattice(gram)
    for p in prime_factors(2 * lat.delta()):
        if p != 2:
            assert jordan_components(lat, p) == rational_jordan(lat, p).components, \
                (gram, p)


def test_components_match_reference_on_corpus_and_workloads():
    grams = ALL_GRAMS + [g for w in workloads.WORKLOADS.values() for g in w.grams]
    grams.append(workloads.FRESH_WARMUP_GRAM)
    for gram in grams:
        _assert_components_match_reference(gram)
    assert jordan_components(GramLattice([[2]]), 2) == \
        jordan_decompose(GramLattice([[2]]), 2).components


def test_components_match_reference_on_fresh_lattices():
    # drawn by the benchmark's rho-fresh generator: rank 1-4, |det| <= 12
    rng = random.Random("jordan-components")
    for _ in range(200):
        _assert_components_match_reference(workloads.fresh_gram(rng))


@given(data=st.data(), n=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_components_match_reference_hypothesis(data, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = data.draw(st.integers(-9, 9))
    assume(0 < abs(workloads.det(rows)) <= 200)
    _assert_components_match_reference(rows)


def test_components_build_no_fraction(monkeypatch):
    import exactweil.jordan as jordan_mod
    import exactweil.numth as numth_mod

    lattices = [GramLattice(g) for g in ALL_GRAMS + [[[6, 3], [3, 6]], [[18, 9], [9, 0]]]]

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("Fraction built on an integer path")

    monkeypatch.setattr(jordan_mod, "Fraction", NoFraction)
    monkeypatch.setattr(numth_mod, "Fraction", NoFraction)
    for lat in lattices:
        for p in (3, 5, 7, 11):
            jordan_components(lat, p)


def test_component_validation():
    with pytest.raises(ValueError):
        JordanComponent(3, 1, 1, 1, t=1)  # no oddity at odd p
    with pytest.raises(ValueError):
        JordanComponent(2, 1, 1, 1, t=None)  # type II needs even rank
    with pytest.raises(ValueError):
        JordanComponent(2, 1, 1, 1, t=2)  # parity mismatch
    with pytest.raises(ValueError):
        JordanComponent(2, 1, 1, -1, t=1)  # rank 1, t=1 forces +
    with pytest.raises(ValueError):
        JordanComponent(2, 1, 2, -1, t=0)  # rank 2, t=0 forces +
    assert JordanComponent(2, 0, 2, -1, t=4).symbol() == "1^-2_4"


def test_recomposition_blocks():
    for gram in ALL_GRAMS:
        lat = GramLattice(gram)
        for p in (2, 3, 5):
            d = rational_jordan(lat, p)
            # block Grams have the declared scale and a p-unit determinant,
            # and distinct blocks are orthogonal (checked inside, reprove here)
            for idx, comp in enumerate(d.components):
                vec = [d.basis[i] for block in d.blocks[idx] for i in block]
                df = lat.discriminant_form()
                block = [[pairing_of_lifts(df, u, v) for v in vec] for u in vec]
                for i, row in enumerate(block):
                    for x in row:
                        assert x == 0 or valuation_split(x, p).valuation >= comp.e
                assert any(valuation_split(row[i], p).valuation == comp.e
                           for i, row in enumerate(block) if row[i]) or comp.p == 2


def test_weil_index_examples():
    # a Weil index e(k/8) is returned as its exponent k mod 8
    assert weil_index_component(JordanComponent(2, 1, 1, 1, 1)) == 1
    assert weil_index_component(JordanComponent(3, 1, 1, 1)) == -2 % 8
    assert weil_index_component(JordanComponent(2, 0, 2, 1, None)) == 0
    assert weil_index_scaled(JordanComponent(3, 1, 1, 1), 2) == 2
    # -(zeta_8^3) = e(4/8) e(3/8)
    assert weil_index_scaled(JordanComponent(2, 1, 1, 1, 1), 3) == 7
    comp = JordanComponent(5, 2, 1, -1)
    assert weil_index_scaled(comp, 1) == weil_index_component(comp)


_components = st.one_of(
    st.tuples(st.sampled_from([3, 5, 7]), st.integers(0, 3), st.integers(1, 3),
              st.sampled_from([1, -1])).map(lambda t: JordanComponent(*t)),
    st.tuples(st.integers(0, 3), st.integers(1, 3), st.sampled_from([1, -1]))
    .filter(lambda t: t[1] % 2 == 0)
    .map(lambda t: JordanComponent(2, t[0], t[1], t[2], None)),
    st.sampled_from([JordanComponent(2, e, 1, {1: 1, 7: 1, 3: -1, 5: -1}[t], t)
                     for e in (0, 1, 2) for t in (1, 3, 5, 7)]),
    st.sampled_from([JordanComponent(2, e, 3, eps, t)
                     for e in (0, 1) for eps in (1, -1) for t in (1, 3, 5, 7)]),
)


@given(comp=_components, a=st.integers(-15, 15).filter(bool))
@settings(max_examples=200, deadline=None)
def test_weil_index_scaled_matches_symbol_route(comp, a):
    if a % comp.p == 0:
        return
    assert weil_index_scaled(comp, a) == weil_index_component(comp, a)


@given(comp=_components)
@settings(max_examples=100, deadline=None)
def test_weil_index_stable_under_p_squared(comp):
    bigger = JordanComponent(comp.p, comp.e + 2, comp.n, comp.eps, comp.t)
    assert weil_index_component(bigger) == weil_index_component(comp)


@given(comp=_components)
@settings(max_examples=100, deadline=None)
def test_weil_index_negation_conjugates(comp):
    assert weil_index_component(comp, -1) == -weil_index_component(comp) % 8


def test_weil_index_square_odd_p():
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        for p in (3, 5, 7):
            v = valuation_split(lat.delta(), p).valuation
            gamma = weil_index_lattice(lat, p)
            assert root_of_unity(2 * gamma, 8) == from_rational(legendre(-1, p) ** v)


def test_weil_index_gauss_oracle():
    # the Milgram sum of the p-part D_p, at a p-power level, is gamma(M_p) sqrt(Delta_p)
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        df = lat.discriminant_form()
        for p in (2, 3, 5):
            part = df.p_part(p)
            total = part.milgram_sum()
            v = valuation_split(df.delta, p).valuation if df.delta > 1 else 0
            assert total == root_of_unity(weil_index_lattice(lat, p), 8) * sqrt_rat(p ** v)


def test_weil_reciprocity():
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        out = 0
        for p in sorted({2, *[q for q in (2, 3, 5, 7) if lat.delta() % q == 0]}):
            out += weil_index_lattice(lat, p)
        assert root_of_unity(out, 8) == root_of_unity(lat.signature(), 8)


def test_multiplicative_over_direct_sums():
    pairs = [([[2]], [[2, 1], [1, 2]]), ([[4]], [[-2]]), ([[6]], [[0, 1], [1, 0]]),
             ([[1]], [[2]])]
    for ga, gb in pairs:
        la, lb = GramLattice(ga), GramLattice(gb)
        ls = direct_sum(la, lb)
        for p in (2, 3, 5):
            assert weil_index_lattice(ls, p) == \
                (weil_index_lattice(la, p) + weil_index_lattice(lb, p)) % 8
            for a, c in ((1, 2), (3, 4), (2, 3), (1, -2)):
                assert gauss_sum_closed(ls, p, a, c) == \
                    gauss_sum_closed(la, p, a, c) * gauss_sum_closed(lb, p, a, c)


def test_choose_xc_examples():
    d = jordan_decompose(GramLattice([[2]]), 2)
    assert choose_xc(d, 2) == (1,) and d.component_at(1).t == 1
    assert choose_xc(d, 1) == (0,) and d.component_at(0) is None
    du = jordan_decompose(GramLattice([[0, 1], [1, 0]]), 2)
    assert choose_xc(du, 6) == () and du.component_at(1) is None
    # half the 1x1 pivot of a scale that also holds an even 2x2 block
    assert choose_xc(jordan_decompose(GramLattice(MIXED_SCALE_GRAMS[0]), 2), 2) == (1, 0, 0)
    assert choose_xc(jordan_decompose(GramLattice(MIXED_SCALE_GRAMS[2]), 2), 2) == (0, 3, 0)
    # at odd c on an odd lattice the half-sum is not dual: x_c = 0 there,
    # and xi_2 carries the oddity
    with pytest.raises(ValueError):
        choose_xc(jordan_decompose(GramLattice([[3]]), 2), 3)
    with pytest.raises(ValueError):
        choose_xc(d, 0)
    with pytest.raises(ValueError):
        choose_xc(jordan_decompose(GramLattice([[2]]), 3), 2)


def test_xc_membership_in_coset():
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        df = lat.discriminant_form()
        d = jordan_decompose(lat, 2)
        for c in (1, 2, 4, 8, -2, 6):
            xc = choose_xc(d, c)
            # the definition of D^{c*} on the lifts: c q(mu) + (x_c, mu) in Z
            # for every mu with c mu = 0
            for mu in df.elements():
                if df.smul(c, mu) == df.zero():
                    value = c * q_of_lift(df, lift(df, mu)) \
                        + pairing_of_lifts(df, lift(df, xc), lift(df, mu))
                    assert value.denominator == 1


def _draw_even_gram(data, n, max_det):
    """An even Gram matrix of rank n with 0 < |det| <= max_det."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 * data.draw(st.integers(-5, 5))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(st.integers(-4, 4))
    assume(0 < abs(workloads.det(rows)) <= max_det)
    return rows


ODD_C = (1, -1, 3, -3, 5, -7, 9, -15)


def _assert_xc_is_zero_at_odd_c(gram):
    """At odd c the component of scale 2^(v_2(c)) is the unimodular one, of
    type II on an even lattice, so it has no oddity: choose_xc gives 0, and
    0 meets its coset condition c N q(mu) = 0 mod N on the kernel of c.
    rho_closed takes x_c = 0 there without a decomposition."""
    lat = GramLattice(gram)
    assert lat.is_even, gram
    df = lat.discriminant_form()
    d = jordan_decompose(lat, 2)
    assert d.component_at(0) is None or d.component_at(0).t is None, gram
    for c in ODD_C:
        assert choose_xc(d, c) == df.zero(), (gram, c)
        for mu in df.kernel_generators(c):
            assert c * df.q_num(mu) % df.level == 0, (gram, c, mu)


def test_xc_is_zero_at_odd_c_on_even_lattices():
    perfbench = [g for w in workloads.WORKLOADS.values() for g in w.grams
                 if workloads.is_even(g)]
    fresh = [gram for gram, _, _ in workloads.pool(workloads.WORKLOADS["rho-fresh"])[0][:60]]
    for gram in EVEN_GRAMS + perfbench + fresh + [[[10, 5], [5, 10]],
                                                 [[2, 0, 0], [0, 6, 0], [0, 0, 10]]]:
        _assert_xc_is_zero_at_odd_c(gram)


@given(data=st.data(), n=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_xc_is_zero_at_odd_c_hypothesis(data, n):
    _assert_xc_is_zero_at_odd_c(_draw_even_gram(data, n, 300))


def test_xc_phase_examples_and_direct_evaluation():
    d = jordan_decompose(GramLattice([[2]]), 2)
    z8 = root_of_unity(1, 8)
    assert xc_phase(d, 1, 2) == z8
    assert xc_phase(d, 3, 2) == z8 ** 3
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        d = jordan_decompose(lat, 2)
        df = lat.discriminant_form()
        for c in (2, 4, 8, -2, -4, 12):
            vec = xc_vector(d, valuation_split(c, 2).valuation)
            for a in (1, 3, 5, 7, -1, -3):
                expected = from_rational(1) if vec is None else \
                    char_p_value(Fraction(a, c) * q_of_lift(df, vec), 2)
                assert xc_phase(d, a, c) == expected, (gram, a, c)


def _assert_local_exponents_are_form_gauss_sums(gram, seen):
    """The Jordan route's local exponents against the Gauss sums G(s) of the
    p-parts D_p (form_gauss_sum), at each p dividing 2 Delta, with no oracle
    and no lattice basis:
      (i)   G(1) = sqrt|D_p| e(k/8), k = weil_index_lattice(L, p);
      (ii)  G(u p^v) = sqrt(|D_p| prod gcd(s, q_i)) e(k/8) for a unit u and
            v <= 3, k summing the Weil indices of the components of scale
            > p^v scaled by s;
      (iii) where p = 2 and the component of scale 2^v is odd, G(s) = 0
            instead, and for v >= 1 the sum shifted by choose_xc's x_c
            takes the value of (ii).
    `seen` counts the checks of each kind."""
    lat = GramLattice(gram)
    form = lat.discriminant_form()
    for p in prime_factors(2 * lat.delta()):
        part = form.p_part(p)
        components = jordan_components(lat, p)
        assert form_gauss_sum(part, 1) == \
            sqrt_rat(part.delta) * root_of_unity(weil_index_lattice(lat, p), 8), (gram, p)
        seen["i"] += 1
        for v, u in product(range(4), [u for u in (1, -1, 2, 3, 5, 7) if u % p]):
            s = u * p ** v
            k = sum(weil_index_component(comp, s) for comp in components if comp.e > v)
            value = sqrt_rat(part.delta * prod(gcd(s, q) for q in part.orders)) \
                * root_of_unity(k, 8)
            if p == 2 and any(comp.e == v and comp.t is not None for comp in components):
                assert form_gauss_sum(part, s).is_zero(), (gram, s)
                seen["iii"] += 1
                if v >= 1:
                    x_c = part.project(choose_xc(jordan_decompose(lat, 2), s))
                    assert form_gauss_sum(part, s, x_c) == value, (gram, s)
                    seen["iii shifted"] += 1
            else:
                assert form_gauss_sum(part, s) == value, (gram, p, s)
                seen["ii"] += 1


def test_local_exponents_are_form_gauss_sums():
    seen = Counter()
    rho_mid = list(workloads.WORKLOADS["rho-mid"].grams)
    for gram in EVEN_GRAMS + rho_mid + [[[10, 5], [5, 10]], [[2, 0, 0], [0, 6, 0], [0, 0, 10]]]:
        _assert_local_exponents_are_form_gauss_sums(gram, seen)
    assert min(seen[kind] for kind in ("i", "ii", "iii", "iii shifted")) > 20, seen


@given(data=st.data(), n=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_local_exponents_are_form_gauss_sums_hypothesis(data, n):
    _assert_local_exponents_are_form_gauss_sums(_draw_even_gram(data, n, 600), Counter())


def test_gauss_sum_examples():
    a1 = GramLattice([[2]])
    assert gauss_sum_closed(a1, 2, 1, 2) == from_rational(2)
    assert gauss_sum_brute(a1, 2, 1, 2) == from_rational(2)
    val = gauss_sum_closed(a1, 2, 1, 4)
    assert val == gauss_sum_brute(a1, 2, 1, 4)
    assert val == from_rational(2) * (from_rational(1) + root_of_unity(1, 4))
    assert gauss_sum_closed(a1, 3, 5, 1) == from_rational(1)
    with pytest.raises(ValueError):
        gauss_sum_closed(a1, 2, 0, 2)
    with pytest.raises(ValueError):
        gauss_sum_closed(a1, 2, 1, 0)


def test_gauss_sum_closed_vs_brute_small_sweep():
    for gram in ALL_GRAMS:
        lat = GramLattice(gram)
        for p in (2, 3, 5):
            for a, c in product(range(-4, 5), range(-4, 5)):
                if c == 0 or (a % p == 0 and c % p == 0):
                    continue
                assert gauss_sum_closed(lat, p, a, c) == \
                    gauss_sum_brute(lat, p, a, c), (gram, p, a, c)
    # t and eps of a mixed 2-adic scale, apart from their symbol strings
    for gram in MIXED_SCALE_GRAMS:
        lat = GramLattice(gram)
        for a, c in product(range(-4, 5), range(-4, 5)):
            if c and (a % 2 or c % 2):
                assert gauss_sum_closed(lat, 2, a, c) == \
                    gauss_sum_brute(lat, 2, a, c), (gram, a, c)


def test_gauss_sum_under_change_of_basis():
    # A change of basis may alter the symbols (and with them the
    # x_c-bearing sum), but the theorem holds per decomposition, the Weil
    # index is an invariant, and for x_c = 0 the closed value is canonical.
    transforms = [
        [[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [3, 1]], [[2, 1], [1, 1]],
        [[1, -2], [0, 1]],
    ]
    for gram in [g for g in ALL_GRAMS if len(g) == 2]:
        lat = GramLattice(gram)
        for t in transforms:
            moved = [[sum(t[k][i] * gram[k][l] * t[l][j] for k in range(2)
                          for l in range(2)) for j in range(2)] for i in range(2)]
            other = GramLattice(moved)
            for p in (2, 3, 5):
                assert weil_index_lattice(other, p) == weil_index_lattice(lat, p)
                decomp = rational_jordan(other, p)
                for a, c in ((1, 2), (3, 4), (1, 3), (5, 8), (2, 5)):
                    ours = gauss_sum_closed(other, p, a, c)
                    assert ours == gauss_sum_brute(other, p, a, c), (gram, t, p, a, c)
                    v = valuation_split(c, p).valuation
                    comp = decomp.component_at(v)
                    if p != 2 or comp is None or comp.t is None:
                        assert ours == gauss_sum_closed(lat, p, a, c), (gram, t, p, a, c)


def test_gauss_sum_cap():
    with pytest.raises(CapExceededError):
        gauss_sum_brute(GramLattice([[2, 0], [0, 4]]), 2, 1, 2 ** 11)
    # The brute side adds p^(v m) terms in Q(zeta_(p^v)); the closed side
    # pays only for sqrt(p), and only under an odd power of p.
    e8 = GramLattice(E8_GRAM)
    with pytest.raises(CapExceededError):
        gauss_sum_brute(e8, 5, 4, 5)  # 5^9 > BRUTE_CAP
    assert gauss_sum_closed(e8, 5, 4, 5) == from_rational(5 ** 4)
    a1, p = GramLattice([[2]]), 100003
    with pytest.raises(CapExceededError):
        gauss_sum_closed(a1, p, 1, p)  # sqrt(p), p^2 > BRUTE_CAP
    assert gauss_sum_closed(a1, p, 1, p ** 2) == from_rational(p)
