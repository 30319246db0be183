"""Generator matrices, the word and r0 oracles, the closed formulas, phi,
and the kernel machinery."""

import ast
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd

import exactweil
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EVEN_GRAMS, ODD_GRAMS
from exactweil.exact import from_rational, root_of_unity, sqrt_rat
from exactweil.jordan import (
    choose_xc,
    jordan_decompose,
    scale_component,
    weil_index_component,
)
from exactweil.lattice import CapExceededError, GramLattice, interesting_primes
from exactweil.metaplectic import (
    MP_ONE,
    MP_S,
    MP_T,
    MP_Z,
    MpElement,
    S_MAT,
    SL2,
    decompose_ST,
    decompose_T2S,
    gamma4_lift,
    gamma_odd_member,
    mp_inv,
    mp_mul,
    word_mp,
)
from exactweil.numth import legendre, prime_factors, valuation_split
from exactweil.weilrep import (
    ZERO_PHASE,
    PhaseOperator,
    WeilOperator,
    braun_check,
    is_in_kernel,
    kernel_descriptor,
    phi_char,
    _group_ring_product,
    rho_S,
    rho_T,
    rho_Z,
    rho_closed,
    rho_closed_odd,
    rho_oracle,
    rho_p_generators,
    tensor_check,
    weil_reciprocity_check,
    xi_p,
)
from reference import r0_direct

ONE = from_rational(1)
A1 = GramLattice([[2]])
A2 = GramLattice([[2, 1], [1, 2]])
UL = GramLattice([[0, 1], [1, 0]])
ODD1 = GramLattice([[1]])
S_INV = mp_inv(MP_S)


def mp_word(rng, steps=7, tmax=4, step=1):
    """A random metaplectic element as a word in T^step and S."""
    x = MP_ONE
    for _ in range(rng.randint(1, steps)):
        if rng.random() < 0.5:
            k = step * rng.randint(-tmax, tmax)
            x = mp_mul(x, MpElement(SL2(1, k, 0, 1), 1))
        else:
            x = mp_mul(x, MP_S if rng.random() < 0.5 else S_INV)
    if rng.random() < 0.5:
        x = MpElement(x.mat, -x.eps)
    return x


def bezout_sl2(c, d):
    old_r, r = c, d
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r == -1:
        old_s, old_t = -old_s, -old_t
    return SL2(old_t, -old_s, c, d)


def gamma_n_sample(rng, n):
    """A principal congruence element: bottom row by Bezout, b cleared by T."""
    while True:
        c = n * rng.randint(-6, 6)
        d = 1 + n * rng.randint(-6, 6)
        if gcd(c, d) == 1:
            break
    mat = bezout_sl2(c, d)
    k = (-mat.b) % n + n * rng.randint(0, 2)
    return SL2(1, k, 0, 1) * mat


def gamma0_sample(rng, n):
    while True:
        c = n * rng.randint(-5, 5)
        d = rng.randint(-9, 9)
        if gcd(c, d) == 1:
            break
    return SL2(1, rng.randint(-3, 3), 0, 1) * bezout_sl2(c, d)


def assert_same_action(left, right):
    assert set(left.labels) == set(right.labels)
    for g in left.labels:
        for h in left.labels:
            assert left.entries[left.index_of(g)][left.index_of(h)] \
                == right.entries[right.index_of(g)][right.index_of(h)]


def nonzero_element(form):
    return next(g for g in form.elements() if g != form.zero())


def test_rho_t_tables():
    f = A1.discriminant_form()
    t = rho_T(f)
    z, g = f.zero(), nonzero_element(f)
    assert t.dim == 2
    assert t.entries[t.index_of(z)][t.index_of(z)] == ONE
    assert t.entries[t.index_of(g)][t.index_of(g)] == root_of_unity(1, 4)
    assert t.entries[t.index_of(z)][t.index_of(g)].is_zero()
    assert rho_T(UL.discriminant_form()).is_identity()
    t2 = rho_T(A2.discriminant_form())
    diag = [t2.entries[i][i] for i in range(3)]
    assert diag.count(ONE) == 1
    assert diag.count(root_of_unity(1, 3)) == 2
    for i in range(3):
        for j in range(3):
            assert i == j or t2.entries[i][j].is_zero()
    with pytest.raises(ValueError):
        rho_T(ODD1.discriminant_form())


def test_rho_s_tables():
    f = A1.discriminant_form()
    s = rho_S(f)
    z, g = f.zero(), nonzero_element(f)
    iz, ig = s.index_of(z), s.index_of(g)
    c8 = root_of_unity(-1, 8) * sqrt_rat(Fraction(1, 2))
    assert s.entries[iz][iz] == c8
    assert s.entries[iz][ig] == c8
    assert s.entries[ig][iz] == c8
    assert s.entries[ig][ig] == from_rational(-1) * c8
    u = rho_S(UL.discriminant_form())
    assert u.dim == 1 and u.entries[0][0] == ONE
    o = rho_S(ODD1.discriminant_form())
    assert o.dim == 1 and o.entries[0][0] == root_of_unity(-1, 8)
    for gram in EVEN_GRAMS + ODD_GRAMS:
        assert rho_S(GramLattice(gram).discriminant_form()).is_unitary()


def test_rho_z_tables():
    f = A1.discriminant_form()
    expected = WeilOperator.identity(f.elements(), f).scale(root_of_unity(-1, 4))
    assert rho_Z(f) == expected
    assert rho_Z(UL.discriminant_form()).is_identity()
    f2 = A2.discriminant_form()
    z2 = rho_Z(f2)
    for g in f2.elements():
        assert z2.entries[z2.index_of(f2.neg(g))][z2.index_of(g)] \
            == from_rational(-1)


def test_generator_relations():
    for gram in EVEN_GRAMS:
        f = GramLattice(gram).discriminant_form()
        s, t, z = rho_S(f), rho_T(f), rho_Z(f)
        st = s * t
        assert s * s == z
        assert st * st * st == z
        assert (z * z) == WeilOperator.identity(f.elements(), f).scale(
            from_rational((-1) ** (f.signature % 2)))
        assert (z * z * z * z).is_identity()
    for gram in ODD_GRAMS:
        f = GramLattice(gram).discriminant_form()
        s, z = rho_S(f), rho_Z(f)
        assert s * s == z
        assert (z * z * z * z).is_identity()


def test_rho_p_generators():
    t2, s2 = rho_p_generators(A1, 2)
    f = A1.discriminant_form()
    assert_same_action(t2, rho_T(f))
    assert_same_action(s2, rho_S(f))
    t2, s2 = rho_p_generators(A2, 2)
    assert t2.dim == 1 and t2.is_identity()
    assert s2.dim == 1 and s2.is_identity()


def test_tensor_and_reciprocity():
    for gram in EVEN_GRAMS + [[[2, 0], [0, 6]]]:
        assert tensor_check(GramLattice(gram))
    for gram in EVEN_GRAMS + ODD_GRAMS:
        assert weil_reciprocity_check(GramLattice(gram))


def test_oracle_examples():
    f = A1.discriminant_form()
    assert rho_oracle(A1, MP_T) == rho_T(f)
    st = mp_mul(MP_S, MP_T)
    st3 = mp_mul(st, mp_mul(st, st))
    assert rho_oracle(A1, st3) == rho_S(f) * rho_S(f)
    assert rho_oracle(A1, MpElement(SL2(1, 0, 4, 1), 1)).is_identity()


def dense_word_product(lattice, x):
    """rho(x) as the product of the dense generator matrices along the word
    of x, with the sign correction: the reference for rho_oracle."""
    form = lattice.discriminant_form()
    elems = form.elements()
    word = decompose_ST(x.mat) if lattice.is_even else decompose_T2S(x.mat)
    s = rho_S(form)
    op = WeilOperator.identity(elems, form)
    for sym, k in word:
        if sym == "S":
            factor = s if k > 0 else s.conj_transpose()
            for _ in range(abs(k)):
                op = op * factor
        elif lattice.is_even:
            t = rho_T(form) if k > 0 else rho_T(form).conj_transpose()
            for _ in range(abs(k)):
                op = op * t
        else:
            diag = WeilOperator.identity(elems, form)
            for i, g in enumerate(elems):
                diag.entries[i][i] = root_of_unity(k * form.q_num(g), form.level)
            op = op * diag
    if word_mp(word).eps != x.eps:
        op = op.scale(from_rational(-1 if form.signature % 2 else 1))
    return op


def dense_product_cases():
    """Each conftest lattice with the elements its oracle is checked on."""
    rng = random.Random(9)
    s2 = mp_mul(MP_S, MP_S)
    for gram in EVEN_GRAMS + ODD_GRAMS:
        lattice = GramLattice(gram)
        step = 1 if lattice.is_even else 2
        t = MpElement(SL2(1, step, 0, 1), 1)
        # the identity, a word with no S, and words with S^2, S^3 and S^-2
        elements = [MP_ONE, MpElement(SL2(1, -3 * step, 0, 1), 1), s2,
                    mp_mul(s2, MP_S), mp_mul(S_INV, S_INV), mp_mul(mp_mul(s2, t), s2)]
        elements += [mp_word(rng, step=step) for _ in range(6)]
        yield lattice, elements


def test_oracle_equals_dense_generator_product():
    for lattice, elements in dense_product_cases():
        for x in elements:
            for eps in (1, -1):
                y = MpElement(x.mat, eps)
                assert rho_oracle(lattice, y) == dense_word_product(lattice, y), \
                    (lattice.gram, y.mat, eps)
        form = lattice.discriminant_form()
        # S^k tokens with |k| >= 2 are repeated steps of the group ring product.
        for k in (2, -3):
            assert _group_ring_product(form, [("S", k)]) \
                == _group_ring_product(form, [("S", k // abs(k))] * abs(k))


def gather_group_ring_product(form, word):
    """The group ring product with each cell a list of its N coefficients,
    each gathered from a flat index list: the reference for packed cells."""
    n = form.level
    elems = form.elements()
    dim = len(elems)
    q = [form.q_num(g) for g in elems]
    rows = [form.pairing_row(g) for g in elems]
    pairs = [[sum(a * w for a, w in zip(g, row)) % n for row in rows] for g in elems]
    ent = [[[int(i == j and t == 0) for t in range(n)] for j in range(dim)]
           for i in range(dim)]
    steps = {1: 0, -1: 0}
    for sym, k in word:
        if sym == "T":
            shifts = [k * qj % n for qj in q]
            for row in ent:
                for j, s in enumerate(shifts):
                    if s:
                        row[j] = row[j][-s:] + row[j][:-s]
            continue
        sign = 1 if k > 0 else -1
        steps[sign] += abs(k)
        gather = [[[l * n + (t + sign * pairs[l][j]) % n for l in range(dim)]
                   for t in range(n)] for j in range(dim)]
        for _ in range(abs(k)):
            new = []
            for row in ent:
                get = [c for cell in row for c in cell].__getitem__
                new.append([[sum(map(get, ix)) for ix in cell] for cell in gather])
            ent = new
    return ent, steps[1], steps[-1]


def test_packed_product_equals_gather_product():
    for lattice, elements in dense_product_cases():
        form = lattice.discriminant_form()
        n = form.level
        for x in elements:
            word = decompose_ST(x.mat) if lattice.is_even else decompose_T2S(x.mat)
            ring, n_plus, n_minus, width = _group_ring_product(form, word)
            ref, ref_plus, ref_minus = gather_group_ring_product(form, word)
            assert (n_plus, n_minus) == (ref_plus, ref_minus)
            assert all(v >> n * width == 0 for row in ring for v in row)
            mask = (1 << width) - 1
            unpacked = [[[v >> t * width & mask for t in range(n)] for v in row]
                        for row in ring]
            assert unpacked == ref, (lattice.gram, word)


def test_rho_closed_checks_the_dense_cap_before_the_scalar(monkeypatch):
    import exactweil.weilrep as weilrep_mod

    def no_scalar(*args):
        raise AssertionError("the closed-formula scalar was computed past the cap")

    monkeypatch.setattr(weilrep_mod, "_xi_product", no_scalar)
    for gram in ([[2000006]], [[2000000000000000006]], [[1, 0], [0, 4001]]):
        with pytest.raises(CapExceededError):
            rho_closed(GramLattice(gram), MP_S)


def test_dense_operators_are_capped(monkeypatch):
    import exactweil.lattice as lattice_mod

    lattice = GramLattice([[2, 0], [0, 4]])  # delta 8, level 8
    form = lattice.discriminant_form()
    x = MpElement(SL2(1, 1, 1, 2), 1)
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 8 * 8 * 8)
    assert rho_oracle(lattice, x) == rho_closed(lattice, x)
    # The caps are checked before the elements are even enumerated.
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 8 * 8 * 8 - 1)
    with pytest.raises(CapExceededError):
        rho_oracle(lattice, x)
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 8 * 8 - 1)
    with pytest.raises(CapExceededError):
        rho_closed(lattice, x)
    with pytest.raises(CapExceededError):
        rho_closed_odd(GramLattice([[1, 0], [0, 8]]), MpElement(SL2(1, 0, 2, 1), 1))

    def no_enumeration(self):
        raise AssertionError("elements enumerated past the cap")

    monkeypatch.setattr(lattice_mod.DiscriminantForm, "elements", no_enumeration)
    monkeypatch.setattr(lattice_mod.PPart, "elements", no_enumeration)
    for build in (lambda: rho_closed(lattice, MpElement(SL2(-1, 2, 0, -1), 1)),
                  lambda: rho_T(form), lambda: rho_S(form), lambda: rho_Z(form),
                  lambda: rho_oracle(lattice, x), lambda: r0_direct(lattice, x.mat),
                  lambda: rho_p_generators(lattice, 2)):
        with pytest.raises(CapExceededError):
            build()


def test_generator_tables_cap_their_coefficients(monkeypatch):
    import exactweil.lattice as lattice_mod

    # T on [[300]]: 300^2 cells, only the 300 diagonal ones in Q(zeta_600)
    assert rho_T(GramLattice([[300]]).discriminant_form()).dim == 300
    # S on [[106]]: 106^2 cells in Q(zeta_424), 208 coefficients each
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 2 * 10 ** 6)
    with pytest.raises(CapExceededError, match="would hold 2337088 integers"):
        rho_S(GramLattice([[106]]).discriminant_form())


def test_dense_cap_counts_coefficients_exactly(monkeypatch):
    import exactweil.lattice as lattice_mod

    # T on [[300]]: 300^2 cells, the 300 diagonal ones in Q(zeta_600) with
    # phi(600) = 160 coefficients, so 300^2 + 300 * 159 = 137700 integers
    form = GramLattice([[300]]).discriminant_form()
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 137700)
    assert rho_T(form).dim == 300
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 137699)
    with pytest.raises(CapExceededError, match="would hold 137700 integers"):
        rho_T(form)


def test_p_part_generators_cap_their_coefficients(monkeypatch):
    import exactweil.lattice as lattice_mod

    # S_53 on [[106]]: its 53^2 cells fit, their 104 coefficients each do not
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 2 * 10 ** 5)
    with pytest.raises(CapExceededError, match="would hold 292136 integers"):
        rho_p_generators(GramLattice([[106]]), 53)


def test_numeric_json_evaluates_each_distinct_scalar_once(monkeypatch):
    from exactweil.exact import ExactScalar

    op = rho_closed(GramLattice([[2, 0], [0, 32]]), MP_S)
    per_cell = [[[float(box.real_mid), float(box.imag_mid)]
                 for box in (x.eval_numeric(64) for x in row)] for row in op.entries]
    calls = []
    evaluate = ExactScalar.eval_numeric

    def counted(self, precision_bits=64):
        calls.append(self)
        return evaluate(self, precision_bits)

    monkeypatch.setattr(ExactScalar, "eval_numeric", counted)
    out = op.to_json(64)
    assert op.dim == 64 and len(calls) == 32
    assert out["entries_numeric"] == per_cell


def test_closed_examples():
    f = A1.discriminant_form()
    assert rho_closed(A1, MP_T) == rho_T(f)
    assert rho_closed(A1, MpElement(S_MAT, 1)) == rho_S(f)
    assert rho_closed(A1, MP_Z) \
        == WeilOperator.identity(f.elements(), f).scale(root_of_unity(-1, 4))


def test_closed_equals_oracle_even():
    rng = random.Random(2)
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        for k in range(12):
            x = mp_word(rng)
            op = rho_closed(lattice, x)
            assert op == rho_oracle(lattice, x), (gram, x.mat, x.eps)
            if k == 0:
                assert op.is_unitary()


def bounded_sl2(rng, bound=50):
    """A seeded SL2(Z) matrix with entries in [-bound, bound]: a coprime
    bottom row, then a uniform choice among the top rows within the bound."""
    while True:
        c, d = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if gcd(c, d) == 1:
            break
    m = bezout_sl2(c, d)
    ks = [k for k in range(-2 * bound - 1, 2 * bound + 2)
          if abs(m.a + k * c) <= bound and abs(m.b + k * d) <= bound]
    k = rng.choice(ks)
    return SL2(m.a + k * c, m.b + k * d, c, d)


def test_closed_equals_oracle_at_large_discriminants():
    # A2(5), A1(50) and diag(2, 6, 10): Delta = 75, 100, 120.  An oracle call
    # takes 0.1 to 0.5 s on A2(5) and 0.3 to 6 s on the others, growing with
    # the S steps of the word; the counts keep the test at 4 to 7 s.
    for gram, count in (([[10, 5], [5, 10]], 6), ([[100]], 2),
                        ([[2, 0, 0], [0, 6, 0], [0, 0, 10]], 2)):
        lattice = GramLattice(gram)
        rng = random.Random(11)
        for k in range(count):
            x = MpElement(bounded_sl2(rng), (1, -1)[k % 2])
            assert rho_closed(lattice, x) == rho_oracle(lattice, x), (gram, x.mat, x.eps)


def test_closed_odd_examples():
    op = rho_closed_odd(ODD1, MpElement(S_MAT, 1))
    assert op.dim == 1 and op.entries[0][0] == root_of_unity(-1, 8)
    assert rho_closed(ODD1, MpElement(S_MAT, 1)) == op
    assert rho_closed_odd(ODD1, MpElement(SL2(1, 2, 0, 1), 1)).is_identity()
    l3 = GramLattice([[3]])
    x = MpElement(SL2(1, 0, 2, 1), 1)
    assert rho_closed_odd(l3, x) == rho_oracle(l3, x)


def test_closed_odd_equals_oracle():
    rng = random.Random(3)
    for gram in ODD_GRAMS:
        lattice = GramLattice(gram)
        for k in range(12):
            x = mp_word(rng, step=2)
            op = rho_closed_odd(lattice, x)
            assert op == rho_oracle(lattice, x), (gram, x.mat, x.eps)
            if k == 0:
                assert op.is_unitary()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(
    st.integers(-4, 4).map(lambda k: ("T", k)),
    st.sampled_from([("S", 1), ("S", -1)]),
), max_size=6))
def test_closed_oracle_words_a1(word):
    x = word_mp(word)
    assert rho_closed(A1, x) == rho_oracle(A1, x)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(
    st.integers(-2, 2).map(lambda k: ("T", 2 * k)),
    st.sampled_from([("S", 1), ("S", -1)]),
), max_size=6))
def test_closed_oracle_words_odd(word):
    lattice = GramLattice([[1, 0], [0, 2]])
    x = word_mp(word)
    assert rho_closed_odd(lattice, x) == rho_oracle(lattice, x)


def test_homomorphism():
    rng = random.Random(4)
    for gram in ([[2]], [[2, 1], [1, 2]], [[4]], [[0, 1], [1, 0]]):
        lattice = GramLattice(gram)
        for _ in range(8):
            x, y = mp_word(rng), mp_word(rng)
            assert rho_closed(lattice, mp_mul(x, y)) \
                == rho_closed(lattice, x) * rho_closed(lattice, y)
    for gram in ([[3]], [[1, 0], [0, 2]]):
        lattice = GramLattice(gram)
        for _ in range(8):
            x, y = mp_word(rng, step=2), mp_word(rng, step=2)
            assert rho_closed_odd(lattice, mp_mul(x, y)) \
                == rho_closed_odd(lattice, x) * rho_closed_odd(lattice, y)


def test_factoring_through_level():
    # Even rank: the operator depends on the matrix mod N only, and not on
    # the metaplectic sign.  Odd rank: over Gamma(N) exactly one sign lies
    # in the kernel, the one with phi = 1, and it matches the Gamma_1(4)
    # splitting homomorphism.
    rng = random.Random(5)
    for gram in ([[2, 1], [1, 2]], [[0, 1], [1, 0]], [[2, 0], [0, 4]],
                 [[0, 2], [2, 0]]):
        lattice = GramLattice(gram)
        n = lattice.level()
        for _ in range(3):
            x = mp_word(rng)
            base = rho_closed(lattice, x)
            g = gamma_n_sample(rng, n)
            assert rho_closed(lattice, mp_mul(x, MpElement(g, 1))) == base
            assert rho_closed(lattice, mp_mul(x, MpElement(g, -1))) == base
            assert rho_closed(lattice, MpElement(x.mat, -x.eps)) == base
    for gram in ([[2]], [[-2]], [[4]], [[6]]):
        lattice = GramLattice(gram)
        n = lattice.level()
        for _ in range(6):
            g = gamma_n_sample(rng, n)
            sign = gamma4_lift(g).eps
            assert phi_char(lattice, MpElement(g, sign)) == ONE
            assert is_in_kernel(lattice, MpElement(g, sign))
            assert not is_in_kernel(lattice, MpElement(g, -sign))


def r0_scalar(lattice, x):
    """The constant relating r0_direct to the representation: the sign
    eps^m (a/c_2)^m times odd-place symbols (a_p/p^v)^m times the product
    of conjugate Weil indices of the forms scaled by c."""
    a, c = x.mat.a, x.mat.c
    m = lattice.rank
    c2 = int(valuation_split(c, 2).unit_part)
    sym = x.eps ** m * legendre(a, c2) ** m
    for p in prime_factors(abs(c)):
        if p == 2:
            continue
        a_p = int(valuation_split(a, p).unit_part) if a else 1
        sym *= legendre(a_p, p ** valuation_split(c, p).valuation) ** m
    out = from_rational(sym)
    for p in sorted(set(prime_factors(2 * lattice.delta() * abs(c)))):
        gamma_p = ONE
        for comp in jordan_decompose(lattice, p).components:
            gamma_p = gamma_p * weil_index_component(scale_component(comp, c))
        out = out * gamma_p.conjugate()
    return out


def test_r0_direct():
    h = sqrt_rat(Fraction(1, 2))
    r0 = r0_direct(A1, S_MAT)
    f = A1.discriminant_form()
    iz, ig = r0.index_of(f.zero()), r0.index_of(nonzero_element(f))
    assert r0.entries[iz][iz] == h and r0.entries[iz][ig] == h
    assert r0.entries[ig][iz] == h
    assert r0.entries[ig][ig] == from_rational(-1) * h
    mats = (S_MAT, SL2(1, 0, 2, 1), SL2(2, 1, 3, 2), SL2(1, -1, 2, -1),
            SL2(3, 2, 4, 3), SL2(0, -1, 1, 3), SL2(5, 2, 2, 1))
    for gram in ([[2]], [[2, 1], [1, 2]], [[0, 1], [1, 0]], [[4]]):
        lattice = GramLattice(gram)
        for mat in mats:
            for eps in (1, -1):
                x = MpElement(mat, eps)
                scaled = r0_direct(lattice, mat).scale(r0_scalar(lattice, x))
                assert rho_closed(lattice, x) == scaled, (gram, mat, eps)


def test_r0_entry_ratio_constant():
    # Ratio constancy stated without the explicit constant: cross products
    # of entries agree and the supports coincide.
    lattice = GramLattice([[2, 0], [0, 4]])
    mat = SL2(2, 1, 3, 2)
    rho = rho_closed(lattice, MpElement(mat, 1))
    r0 = r0_direct(lattice, mat)
    pairs = [(i, j) for i in range(rho.dim) for j in range(rho.dim)]
    for i, j in pairs:
        assert rho.entries[i][j].is_zero() == r0.entries[i][j].is_zero()
    i0, j0 = next((i, j) for i, j in pairs if not rho.entries[i][j].is_zero())
    for i, j in pairs:
        assert rho.entries[i][j] * r0.entries[i0][j0] \
            == rho.entries[i0][j0] * r0.entries[i][j]


def test_xi_values():
    assert xi_p(A1, S_MAT, 1, 2) == root_of_unity(-1, 8)
    assert xi_p(A1, SL2(1, 0, 4, 1), 1, 2) == ONE
    mats = (S_MAT, SL2(1, 1, 1, 2), SL2(2, 1, 3, 2), SL2(1, 0, 0, 1))
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        p = next(q for q in (5, 7, 11) if lattice.delta() % q)
        for mat in mats:
            for eps in (1, -1):
                assert xi_p(lattice, mat, eps, p) == ONE


def test_xi_product_at_s():
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        primes = sorted(set(prime_factors(2 * lattice.delta())))
        for k in (0, 1, -2):
            mat = SL2(0, -1, 1, k)
            prod = ONE
            for p in primes:
                prod = prod * xi_p(lattice, mat, 1, p)
            assert prod == root_of_unity(-lattice.signature(), 8)


def test_column_support():
    rng = random.Random(6)
    for gram in ([[2, 1], [1, 2]], [[2, 0], [0, 4]]):
        lattice = GramLattice(gram)
        form = lattice.discriminant_form()
        for _ in range(6):
            x = mp_word(rng)
            if x.mat.c == 0:
                continue
            op = rho_closed(lattice, x)
            x_c, _ = choose_xc(jordan_decompose(lattice, 2), x.mat.c)
            coset = [beta for beta, _ in form.coset_Dcstar(x.mat.c, x_c)]
            for g in form.elements():
                j = op.index_of(g)
                support = {op.labels[i] for i in range(op.dim)
                           if not op.entries[i][j].is_zero()}
                d_g = form.smul(x.mat.d, g)
                assert support == {form.add(b, d_g) for b in coset}


def test_phi_examples():
    assert phi_char(A1, MP_ONE) == ONE
    assert phi_char(A1, MpElement(SL2(1, 0, 4, 1), 1)) == ONE
    assert phi_char(A1, MP_Z) == root_of_unity(-1, 4)
    with pytest.raises(ValueError):
        phi_char(A1, MpElement(SL2(1, 0, 2, 1), 1))


def test_phi_is_the_e0_scalar():
    rng = random.Random(7)
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        form = lattice.discriminant_form()
        n = lattice.level()
        for _ in range(6):
            x = MpElement(gamma0_sample(rng, n), rng.choice((1, -1)))
            op = rho_closed(lattice, x)
            i0 = op.index_of(form.zero())
            assert phi_char(lattice, x) == op.entries[i0][i0]


def test_phi_multiplicative():
    rng = random.Random(8)
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        n = lattice.level()
        for _ in range(8):
            x = MpElement(gamma0_sample(rng, n), rng.choice((1, -1)))
            y = MpElement(gamma0_sample(rng, n), rng.choice((1, -1)))
            assert phi_char(lattice, mp_mul(x, y)) \
                == phi_char(lattice, x) * phi_char(lattice, y)


def test_kernel_descriptor():
    d = kernel_descriptor(A1)
    assert d["base_group"] == "Gamma(N)"
    assert d["cover"] == "lift"
    assert d["case"] == "i"
    assert d["N"] == 4 and d["N_tilde"] == 2
    d = kernel_descriptor(UL)
    assert d["base_group"] == "Gamma"
    assert d["cover"] == "double-cover"
    assert d["N"] == 1
    d = kernel_descriptor(A2)
    assert d["base_group"] == "Gamma"
    assert d["cover"] == "double-cover"
    assert d["N"] == 3 and d["N_tilde"] == 3
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        d = kernel_descriptor(lattice)
        assert d["cover"] == ("lift" if lattice.rank % 2 else "double-cover")
    with pytest.raises(ValueError):
        kernel_descriptor(ODD1)


def test_is_in_kernel():
    assert is_in_kernel(A1, MpElement(SL2(1, 4, 0, 1), 1))
    assert not is_in_kernel(A1, MP_T)
    g4 = SL2(5, 4, 16, 13)
    assert gamma4_lift(g4).eps == 1
    assert is_in_kernel(A1, MpElement(g4, 1))
    assert not is_in_kernel(A1, MpElement(g4, -1))
    g3 = SL2(4, 3, 9, 7)
    assert is_in_kernel(A2, MpElement(g3, 1))
    assert is_in_kernel(A2, MpElement(g3, -1))
    assert not is_in_kernel(A2, MP_T)
    assert is_in_kernel(ODD1, MpElement(SL2(1, 2, 0, 1), 1))
    assert not is_in_kernel(ODD1, MpElement(S_MAT, 1))


def test_braun():
    assert braun_check(A1, 4)
    assert braun_check(A1, -4)
    assert braun_check(UL, 1)
    assert braun_check(ODD1, 2)
    for gram in EVEN_GRAMS + ODD_GRAMS:
        lattice = GramLattice(gram)
        assert braun_check(lattice, lattice.level())
    with pytest.raises(ValueError):
        braun_check(A1, 2)
    with pytest.raises(ValueError):
        braun_check(A1, 0)
    with pytest.raises(CapExceededError):
        braun_check(ODD1, 1000002)


def test_rejections_and_caps():
    with pytest.raises(ValueError):
        rho_closed(ODD1, MP_T)
    with pytest.raises(ValueError):
        rho_closed_odd(A1, MpElement(S_MAT, 1))
    with pytest.raises(ValueError):
        rho_closed_odd(ODD1, MP_T)
    with pytest.raises(ValueError):
        rho_oracle(ODD1, MP_T)
    with pytest.raises(ValueError):
        r0_direct(A1, SL2(1, 1, 0, 1))
    with pytest.raises(CapExceededError):
        r0_direct(A1, SL2(1, 0, 1000003, 1))


def test_operator_json():
    op = rho_S(A1.discriminant_form())
    plain = op.to_json()
    assert plain["dim"] == 2
    assert len(plain["entries"]) == 2 and len(plain["entries"][0]) == 2
    assert "entries_numeric" not in plain
    boxed = op.to_json(precision_bits=64)
    re, im = boxed["entries_numeric"][0][0]
    assert abs(re - 0.5) < 1e-12 and abs(im + 0.5) < 1e-12


A2_5 = [[10, 5], [5, 10]]
DIAG_2_6_10 = [[2, 0, 0], [0, 6, 0], [0, 0, 10]]


def phase_corpus():
    """(name, operator) for T, S, Z, every p-part pair, and rho_closed at
    c = 0 and at seeded c != 0, over the conftest corpus, A2(5) and
    diag(2, 6, 10)."""
    rng = random.Random(21)
    for gram in EVEN_GRAMS + ODD_GRAMS + [A2_5, DIAG_2_6_10]:
        lattice = GramLattice(gram)
        form = lattice.discriminant_form()
        step = 1 if lattice.is_even else 2
        yield gram, rho_S(form)
        yield gram, rho_Z(form)
        if lattice.is_even:
            yield gram, rho_T(form)
            for p in sorted(interesting_primes(lattice) | {5}):
                for op in rho_p_generators(lattice, p):
                    yield (gram, p), op
        mats = [SL2(1, 2 * step, 0, 1), SL2(-1, -step, 0, -1)]
        mats += [bounded_sl2(rng, 12) for _ in range(2 if form.delta > 50 else 4)]
        for k, mat in enumerate(mats):
            if lattice.is_even or gamma_odd_member(mat):
                yield (gram, mat), rho_closed(lattice, MpElement(mat, (1, -1)[k % 2]))


def digest(payload):
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_phase_json_equals_dense_json():
    # The phase table, the kept dense form (one object per phase) and a dense
    # matrix with one scalar object per cell encode to the same bytes.
    for name, op in phase_corpus():
        assert isinstance(op, PhaseOperator)
        dense = op.to_weil()
        assert type(dense) is WeilOperator
        plain = digest(op.to_json())
        assert plain == digest(dense.to_json()), name
        if op.dim <= 32:
            assert digest(op.to_json(64)) == digest(dense.to_json(64)), name
        cells = [[from_rational(0) if k == ZERO_PHASE
                  else op.coeff * root_of_unity(k, op.level) for k in row]
                 for row in op.phases]
        unshared = WeilOperator(op.labels, cells, op.form)
        assert plain == digest(unshared.to_json()), name
        if op.dim <= 4:
            assert digest(op.to_json(64)) == digest(unshared.to_json(64)), name


def shifted(op, delta, factor=1):
    """op with every phase lowered by delta, at level factor * N, and the
    scalar raised by e(delta/N): the same operator, built differently."""
    n = op.level * factor
    phases = [[ZERO_PHASE if k == ZERO_PHASE else (k - delta) * factor % n for k in row]
              for row in op.phases]
    return PhaseOperator(op.labels, op.coeff * root_of_unity(delta, op.level), n,
                         phases, op.form)


def test_phase_equality_agrees_with_dense_equality():
    rng = random.Random(22)
    ops = [op for _, op in phase_corpus() if op.dim <= 12]
    for op in ops:
        other = shifted(op, rng.randrange(1, op.level) if op.level > 1 else 0,
                        rng.choice((1, 2, 3)))
        assert other.coeff != op.coeff or op.level == 1
        assert op == other and other == op
        assert op == other.to_weil() and op.to_weil() == other
        # one cell's phase moved by one, one cell switched between zero and
        # nonzero, and the scalar negated
        i, j = rng.randrange(op.dim), rng.randrange(op.dim)
        k = op.phases[i][j]
        for new in ((k + 1) % op.level if k != ZERO_PHASE else k,
                    0 if k == ZERO_PHASE else ZERO_PHASE):
            phases = [row[:] for row in op.phases]
            phases[i][j] = new
            moved = PhaseOperator(op.labels, op.coeff, op.level, phases, op.form)
            assert (op == moved) == (op.to_weil() == moved.to_weil()), (op, i, j, new)
        negated = PhaseOperator(op.labels, -op.coeff, op.level, op.phases, op.form)
        assert op != negated and op.to_weil() != negated.to_weil()
    for a, b in zip(ops, ops[1:]):
        if a.labels == b.labels:
            assert (a == b) == (a.to_weil() == b.to_weil())


def base_group_sample(rng, n, modulus):
    """A matrix with b = c = 0 mod n, c != 0, and a = d = 1 mod modulus."""
    while True:
        c = n * rng.choice((-3, -2, -1, 1, 2, 3))
        d = 1 + modulus * rng.randint(-6, 6)
        if gcd(c, d) == 1:
            break
    a = pow(d, -1, abs(c) * n)
    return SL2(a, (a * d - 1) // c, c, d)


def test_phase_is_identity_agrees_with_dense():
    rng = random.Random(23)
    for gram in EVEN_GRAMS + [A2_5, DIAG_2_6_10]:
        lattice = GramLattice(gram)
        desc = kernel_descriptor(lattice)
        modulus = desc["N"] if desc["base_group"] == "Gamma(N)" else desc["N_tilde"]
        for k in range(6 if lattice.delta() < 50 else 2):
            mat = base_group_sample(rng, desc["N"], modulus)
            found = []
            for eps in (1, -1):
                op = rho_closed(lattice, MpElement(mat, eps))
                assert op.is_identity() == op.to_weil().is_identity()
                found.append(op.is_identity())
            assert any(found), (gram, mat)
            if desc["cover"] == "double-cover":
                assert all(found), (gram, mat)
            x = mp_word(rng)
            op = rho_closed(lattice, x)
            assert op.is_identity() == op.to_weil().is_identity()
        # a scalar that is a root of unity but not the one the diagonal needs
        t = rho_T(lattice.discriminant_form())
        off = PhaseOperator(t.labels, -t.coeff, t.level, t.phases, t.form)
        assert not off.is_identity() and not off.to_weil().is_identity()


# Each snippet corrupts one invariant; the check must still raise under -O.
_CORRUPTIONS = {
    "cyclotomic degree": ("ArithmeticError", """
        from exactweil import exact
        exact._phi_cache[105] = 47
        exact.cyclotomic_polynomial(105)
    """),
    "matmul shapes": ("ValueError", """
        from exactweil.exact import from_rational, scalar_matmul
        one = from_rational(1)
        scalar_matmul([[one, one], [one, one]], [[one]])
    """),
    "oracle word": ("ArithmeticError", """
        from exactweil import weilrep
        from exactweil.lattice import GramLattice
        from exactweil.metaplectic import MP_T, MpElement, SL2
        weilrep.word_mp = lambda word: MP_T
        weilrep.rho_oracle(GramLattice([[2]]), MpElement(SL2(0, -1, 1, 0), 1))
    """),
    "oracle cell carry": ("ArithmeticError: group ring cell", """
        from exactweil import weilrep
        from exactweil.lattice import GramLattice
        from exactweil.metaplectic import MpElement, SL2
        product = weilrep._group_ring_product
        def extra(form, word):
            ring, n_plus, n_minus, width = product(form, word)
            ring[0][0] += 1 << width
            return ring, n_plus, n_minus, width
        weilrep._group_ring_product = extra
        weilrep.rho_oracle(GramLattice([[2]]), MpElement(SL2(-1, 0, 0, -1), 1))
    """),
    "oracle cell width": ("ArithmeticError: group ring cell", """
        from exactweil import weilrep
        from exactweil.lattice import GramLattice
        from exactweil.metaplectic import MpElement, SL2
        width = weilrep._cell_width
        weilrep._cell_width = lambda dim, s_steps: width(dim, s_steps) - 1
        weilrep.rho_oracle(GramLattice([[2]]), MpElement(SL2(-1, 0, 0, -1), 1))
    """),
    "phase range": ("ValueError: a phase lies outside", """
        from exactweil.exact import from_rational
        from exactweil.weilrep import PhaseOperator
        PhaseOperator([(0,), (1,)], from_rational(1), 4, [[0, -1], [-1, 4]])
    """),
    "smith pivot": ("ArithmeticError", """
        from exactweil import lattice
        lattice._det_int = lambda rows: 1
        lattice.smith_normal_form([[0, 0], [0, 0]])
    """),
    "smith orders": ("ArithmeticError", """
        from exactweil.lattice import DiscriminantForm, GramLattice
        GramLattice.delta = lambda self: 7
        DiscriminantForm(GramLattice([[2]]))
    """),
    "odd level": ("ArithmeticError", """
        from exactweil import lattice
        from exactweil.lattice import DiscriminantForm, GramLattice
        lattice.smith_normal_form = lambda rows: ([[1]], [[1]], [[2]])
        DiscriminantForm(GramLattice([[1]]))
    """),
    "jordan blocks": ("ArithmeticError", """
        from fractions import Fraction
        from exactweil import jordan
        from exactweil.lattice import GramLattice
        jordan._det_fraction = lambda rows: Fraction(3)
        jordan.jordan_decompose(GramLattice([[2]]), 2)
    """),
    "jordan symbol valuation": ("ArithmeticError", """
        from exactweil import jordan
        from exactweil.lattice import GramLattice
        GramLattice.det = lambda self: 54
        jordan.jordan_components(GramLattice([[2]]), 3)
    """),
    "decomposed word": ("ArithmeticError", """
        from exactweil import metaplectic
        from exactweil.metaplectic import IDENTITY, SL2
        metaplectic.word_matrix = lambda word: IDENTITY
        metaplectic.decompose_ST(SL2(0, -1, 1, 0))
    """),
    "x_c coset": ("ArithmeticError", """
        from exactweil.jordan import choose_xc, jordan_decompose
        from exactweil.lattice import DiscriminantForm, GramLattice
        DiscriminantForm.class_from_dual_vector = lambda self, vec, p: self.zero()
        choose_xc(jordan_decompose(GramLattice([[4]]), 2), 4)
    """),
}


@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
def test_invariants_raise_under_optimize(case):
    error, code = _CORRUPTIONS[case]
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactweil.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode != 0
    assert error in run.stderr


def test_operator_json_cells_are_not_aliased():
    lattice = GramLattice([[2, 0], [0, 6]])
    op = rho_closed(lattice, MpElement(SL2(1, 1, 2, 3), 1))
    out = op.to_json()
    fresh = op.to_json()
    assert out == fresh
    cells = [(i, j) for i in range(op.dim) for j in range(op.dim)]
    # the operator shares scalar objects between cells, so aliasing would show
    assert len({id(op.entries[i][j]) for i, j in cells}) < len(cells)
    i, j = cells[0]
    out["entries"][i][j]["coeffs"].append("7")
    out["entries"][i][j]["order"] = -1
    for k, m in cells[1:]:
        assert out["entries"][k][m] == fresh["entries"][k][m]


def test_phase_paths_build_no_fraction(monkeypatch):
    import exactweil.lattice as lattice_mod
    import exactweil.weilrep as weilrep_mod

    even, odd = GramLattice([[2, 0], [0, 6]]), GramLattice([[1, 0], [0, 4]])
    mat, odd_mat = SL2(1, 1, 2, 3), SL2(2, 1, 3, 2)
    prepared = []
    for lattice, m in ((even, mat), (odd, odd_mat), (odd, SL2(1, 0, 2, 1))):
        form = lattice.discriminant_form()
        x_c, _ = weilrep_mod.choose_xc(jordan_decompose(lattice, 2), m.c)
        prepared.append((form, m, x_c))
    coeff = root_of_unity(1, 8) * sqrt_rat(Fraction(1, 3))

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("Fraction built on an integer path")

    monkeypatch.setattr(lattice_mod, "Fraction", NoFraction)
    monkeypatch.setattr(weilrep_mod, "Fraction", NoFraction)
    for form, m, x_c in prepared:
        weilrep_mod._closed_assembly(form, m, coeff, form.coset_Dcstar(m.c, x_c))
        weilrep_mod._closed_assembly(form, SL2(-1, 4, 0, -1),
                                     weilrep_mod._c0_scalar(form.signature, -1, -1),
                                     form.coset_Dcstar(0, form.zero()))
        weilrep_mod._group_ring_product(form, [("T", 2), ("S", 1), ("T", -2), ("S", -1)])
    form = even.discriminant_form()
    rho_T(form), form.milgram_sum()
    weilrep_mod._fourier(form, form.elements(), coeff, form.pairing_table())


def test_no_assert_statements_in_src():
    # Runtime invariants raise explicitly so that they hold under python -O.
    src = pathlib.Path(exactweil.__file__).resolve().parent
    modules = sorted(src.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, "%s has assert statements at lines %s" % (path.name, found)
