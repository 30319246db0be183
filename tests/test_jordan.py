"""Jordan decompositions, Weil indices, and the local Gauss sums."""

import os
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import EVEN_GRAMS, ODD_GRAMS
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
    scale_component,
    weil_index_component,
    weil_index_lattice,
    weil_index_scaled,
    xc_vector,
)
from exactweil.lattice import CapExceededError, GramLattice, direct_sum
from reference import lift, pairing_of_lifts, q_of_lift, xc_phase
from exactweil.numth import char_p_value, legendre, prime_factors, valuation_split

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import workloads  # noqa: E402

ALL_GRAMS = EVEN_GRAMS + ODD_GRAMS
E8_GRAM = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
           [0, -1, 2, -1, 0, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0, 0],
           [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
           [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]


def test_decomposition_examples():
    assert jordan_decompose(GramLattice([[2]]), 2).symbol() == "2^+1_1"
    assert jordan_decompose(GramLattice([[0, 1], [1, 0]]), 2).symbol() == "1^+2_II"
    assert jordan_decompose(GramLattice(E8_GRAM), 2).symbol() == "1^+8_II"
    i8 = [[int(i == j) for j in range(8)] for i in range(8)]
    assert jordan_decompose(GramLattice(i8), 2).symbol() == "1^+8_0"
    d4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    assert jordan_decompose(GramLattice(d4), 2).symbol() == "1^-2_II 2^-2_II"
    d = jordan_decompose(GramLattice([[2, 1], [1, 2]]), 3)
    assert [c.q for c in d.components] == [1, 3]
    assert sum(c.n for c in d.components) == 2
    with pytest.raises(ValueError):
        jordan_decompose(GramLattice([[2]]), 4)


def test_block_check_rejects_tampered_decompositions():
    # [[2, 0], [0, 18]] at p = 3 is 1^(+-1) 9^(+-1) on the standard basis
    lat = GramLattice([[2, 0], [0, 18]])
    unit, nine = jordan_decompose(lat, 3).components
    assert (unit.q, nine.q) == (1, 9)
    e0, e1 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))

    def check(components, basis, spans, message):
        decomp = JordanDecomposition(lat, 3, components, basis, spans)
        with pytest.raises(ArithmeticError, match=message):
            _validate_blocks(decomp)

    _validate_blocks(JordanDecomposition(lat, 3, (unit, nine), (e0, e1), ((0,), (1,))))
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


def _assert_components_match_reference(gram):
    lat = GramLattice(gram)
    for p in prime_factors(2 * lat.delta()):
        if p != 2:
            assert jordan_components(lat, p) == jordan_decompose(lat, p).components, \
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
            d = jordan_decompose(lat, p)
            # block Grams have the declared scale and a p-unit determinant,
            # and distinct blocks are orthogonal (checked inside, reprove here)
            for idx, comp in enumerate(d.components):
                vec = d.component_vectors(idx)
                df = lat.discriminant_form()
                block = [[pairing_of_lifts(df, u, v) for v in vec] for u in vec]
                for i, row in enumerate(block):
                    for x in row:
                        assert x == 0 or valuation_split(x, p).valuation >= comp.e
                assert any(valuation_split(row[i], p).valuation == comp.e
                           for i, row in enumerate(block) if row[i]) or comp.p == 2


def test_weil_index_examples():
    z8 = root_of_unity(1, 8)
    assert weil_index_component(JordanComponent(2, 1, 1, 1, 1)) == z8
    assert weil_index_component(JordanComponent(3, 1, 1, 1)) == root_of_unity(-2, 8)
    assert weil_index_component(JordanComponent(2, 0, 2, 1, None)) == from_rational(1)
    assert weil_index_scaled(JordanComponent(3, 1, 1, 1), 2) == root_of_unity(2, 8)
    assert weil_index_scaled(JordanComponent(2, 1, 1, 1, 1), 3) == -(z8 ** 3)
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
    assert weil_index_scaled(comp, a) == weil_index_component(scale_component(comp, a))


@given(comp=_components)
@settings(max_examples=100, deadline=None)
def test_weil_index_stable_under_p_squared(comp):
    bigger = JordanComponent(comp.p, comp.e + 2, comp.n, comp.eps, comp.t)
    assert weil_index_component(bigger) == weil_index_component(comp)


@given(comp=_components)
@settings(max_examples=100, deadline=None)
def test_weil_index_negation_conjugates(comp):
    flipped = scale_component(comp, -1)
    assert weil_index_component(flipped) == weil_index_component(comp).conjugate()


def test_weil_index_square_odd_p():
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        for p in (3, 5, 7):
            v = valuation_split(lat.delta(), p).valuation
            gamma = weil_index_lattice(lat, p)
            assert gamma * gamma == from_rational(legendre(-1, p) ** v)


def test_weil_index_gauss_oracle():
    # sum of chi_p(gamma^2/2) over the p-part equals gamma(M_p) sqrt(Delta_p)
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        df = lat.discriminant_form()
        for p in (2, 3, 5):
            total = from_rational(0)
            for x in df.p_part(p).elements():
                total = total + char_p_value(df.qval(x), p)
            v = valuation_split(df.delta, p).valuation if df.delta > 1 else 0
            assert total == weil_index_lattice(lat, p) * sqrt_rat(p ** v)


def test_weil_reciprocity():
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        out = from_rational(1)
        for p in sorted({2, *[q for q in (2, 3, 5, 7) if lat.delta() % q == 0]}):
            out = out * weil_index_lattice(lat, p)
        assert out == root_of_unity(lat.signature(), 8)


def test_multiplicative_over_direct_sums():
    pairs = [([[2]], [[2, 1], [1, 2]]), ([[4]], [[-2]]), ([[6]], [[0, 1], [1, 0]]),
             ([[1]], [[2]])]
    for ga, gb in pairs:
        la, lb = GramLattice(ga), GramLattice(gb)
        ls = direct_sum(la, lb)
        for p in (2, 3, 5):
            assert weil_index_lattice(ls, p) == \
                weil_index_lattice(la, p) * weil_index_lattice(lb, p)
            for a, c in ((1, 2), (3, 4), (2, 3), (1, -2)):
                assert gauss_sum_closed(ls, p, a, c) == \
                    gauss_sum_closed(la, p, a, c) * gauss_sum_closed(lb, p, a, c)


def test_choose_xc_examples():
    d = jordan_decompose(GramLattice([[2]]), 2)
    assert choose_xc(d, 2) == ((1,), 1)
    assert choose_xc(d, 1) == ((0,), None)
    du = jordan_decompose(GramLattice([[0, 1], [1, 0]]), 2)
    assert choose_xc(du, 6) == ((), None)
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
            xc, _ = choose_xc(d, c)
            # the definition of D^{c*} on the lifts: c q(mu) + (x_c, mu) in Z
            # for every mu with c mu = 0
            for mu in df.elements():
                if df.smul(c, mu) == df.zero():
                    value = c * q_of_lift(df, lift(df, mu)) \
                        + pairing_of_lifts(df, lift(df, xc), lift(df, mu))
                    assert value.denominator == 1


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
                decomp = jordan_decompose(other, p)
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
