import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactweil.metaplectic import (
    IDENTITY,
    MP_ONE,
    MP_S,
    MP_S_INV,
    MP_T,
    MP_Z,
    MpElement,
    S_MAT,
    _peel,
    _round_half_even,
    SL2,
    T_MAT,
    cgxde_form,
    decompose,
    gamma4_lift,
    gamma_odd_member,
    i_map,
    in_gamma1_4,
    iota_lift,
    kubota_cocycle,
    mp_inv,
    mp_mul,
    word_mp,
)
from exactweil.numth import REAL_PLACE, hilbert, legendre, sigma
from reference import peel_by_fraction, word_mp_by_cocycle

PLACES = (REAL_PLACE, 2, 3, 5)

L4_MAT = SL2(1, 0, 4, 1)


def word_strategy(step=1, max_len=7, max_k=4):
    token = st.one_of(
        st.integers(-max_k, max_k).map(lambda k: ("T", step * k)),
        st.sampled_from([("S", 1), ("S", -1)]),
    )
    return st.lists(token, max_size=max_len)


def sample_sl2(rng, n=8, step=1, max_k=4):
    m = IDENTITY
    for _ in range(rng.randint(0, n)):
        if rng.random() < 0.5:
            m = m * SL2(1, step * rng.randint(-max_k, max_k), 0, 1)
        else:
            m = m * (S_MAT if rng.random() < 0.5 else S_MAT.inverse())
    return m


def sample_gamma1_4(rng, n=9):
    m = IDENTITY
    for _ in range(rng.randint(0, n)):
        if rng.random() < 0.5:
            m = m * SL2(1, rng.randint(-3, 3), 0, 1)
        else:
            m = m * (L4_MAT if rng.random() < 0.5 else L4_MAT.inverse())
    return m


def bezout_sl2(c, d):
    """Any integer SL2 matrix with prescribed coprime bottom row."""
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


def test_sl2_validation():
    with pytest.raises(ValueError):
        SL2(1, 0, 0, 2)
    with pytest.raises(ValueError):
        SL2(2, 0, 0, 1)
    a = SL2(2, 1, 1, 1)
    assert a * a.inverse() == IDENTITY
    assert a.inverse() * a == IDENTITY
    assert (T_MAT * S_MAT).entries() == (1, -1, 1, 0)


def test_cocycle_torus_and_special_values():
    rng = random.Random(0)
    for place in PLACES:
        assert kubota_cocycle(S_MAT, S_MAT, place) == hilbert(-1, -1, place)
        assert kubota_cocycle(S_MAT, S_MAT.inverse(), place) == 1
        for _ in range(40):
            a = sample_sl2(rng)
            x = SL2(1, rng.randint(-6, 6), 0, 1)
            assert kubota_cocycle(x, a, place) == 1
            assert kubota_cocycle(a, x, place) == 1
    assert kubota_cocycle(S_MAT, S_MAT, REAL_PLACE) == -1


@settings(max_examples=120, deadline=None)
@given(word_strategy(), word_strategy(), word_strategy())
def test_cocycle_identity(wa, wb, wc):
    a, b, c = word_mp(wa).mat, word_mp(wb).mat, word_mp(wc).mat
    for place in PLACES:
        lhs = kubota_cocycle(a, b, place) * kubota_cocycle(a * b, c, place)
        rhs = kubota_cocycle(a, b * c, place) * kubota_cocycle(b, c, place)
        assert lhs == rhs


def test_cgxde_form_matches_fifth_case():
    rng = random.Random(1)
    seen = 0
    while seen < 200:
        c, g, d, e = (rng.randint(-9, 9) for _ in range(4))
        x = c * e + d * g
        if c == 0 or g == 0 or x == 0:
            continue
        seen += 1
        for place in PLACES:
            expect = hilbert(c, g, place) * hilbert(x, -c * g, place)
            assert cgxde_form(c, g, d, e, place) == expect


def test_cgxde_form_rejects_degenerate_input():
    with pytest.raises(ValueError):
        cgxde_form(0, 1, 1, 1, REAL_PLACE)
    with pytest.raises(ValueError):
        cgxde_form(1, 1, 1, -1, REAL_PLACE)  # ce + dg = 0


def test_mp_group_axioms():
    rng = random.Random(2)
    for _ in range(80):
        x = MpElement(sample_sl2(rng), rng.choice((1, -1)))
        y = MpElement(sample_sl2(rng), rng.choice((1, -1)))
        z = MpElement(sample_sl2(rng), rng.choice((1, -1)))
        assert mp_mul(mp_mul(x, y), z) == mp_mul(x, mp_mul(y, z))
        assert mp_mul(x, MP_ONE) == x
        assert mp_mul(MP_ONE, x) == x
        assert mp_mul(x, mp_inv(x)) == MP_ONE
        assert mp_mul(mp_inv(x), x) == MP_ONE


def test_generator_relations():
    st_elt = mp_mul(MP_S, MP_T)
    st3 = mp_mul(mp_mul(st_elt, st_elt), st_elt)
    assert st3 == mp_mul(MP_S, MP_S)
    assert st3 == MP_Z
    z2 = mp_mul(MP_Z, MP_Z)
    assert z2 == MpElement(IDENTITY, -1)
    assert mp_mul(z2, z2) == MP_ONE
    assert MP_Z == MpElement(SL2(-1, 0, 0, -1), -1)


@settings(max_examples=100, deadline=None)
@given(word_strategy(max_len=9))
def test_decompose_ST_reproduces_matrix(word):
    mat = word_mp(word).mat
    out = decompose(mat, 1)[0]
    assert word_mp(out).mat == mat
    assert all(kind in ("T", "S") for kind, _ in out)


def test_decompose_ST_large_entries():
    rng = random.Random(3)
    done = 0
    while done < 60:
        c = rng.randint(-10 ** 6, 10 ** 6)
        d = rng.randint(-10 ** 6, 10 ** 6)
        if math.gcd(c, d) != 1:
            continue
        mat = bezout_sl2(c, d)
        word = decompose(mat, 1)[0]
        assert word_mp(word).mat == mat
        # Euclidean peeling keeps words logarithmic in the entries
        assert len(word) < 120
        done += 1


def test_decompose_ST_base_cases():
    assert decompose(IDENTITY, 1)[0] == []
    assert decompose(SL2(1, 5, 0, 1), 1)[0] == [("T", 5)]
    assert word_mp(decompose(SL2(-1, 0, 0, -1), 1)[0]).mat == SL2(-1, 0, 0, -1)
    assert word_mp(decompose(S_MAT, 1)[0]).mat == S_MAT


def test_peel_rounds_half_ties_like_fraction_round():
    for num in range(-9, 10):
        for den in (-4, -2, -1, 1, 2, 4):
            assert _round_half_even(num, den) == round(Fraction(num, den)), (num, den)
    rng = random.Random(19)
    # d / c is a half integer at the first step: c = +-2, d odd, with the
    # top rows of a small box
    mats = []
    for c in (2, -2):
        for d in range(-15, 16, 2):
            m = bezout_sl2(c, d)
            mats += [SL2(m.a + k * c, m.b + k * d, c, d) for k in (-2, 0, 3)]
    for _ in range(300):
        c, d = rng.randint(-60, 60), rng.randint(-60, 60)
        if math.gcd(c, d) == 1:
            mats.append(bezout_sl2(c, d))
    ties = 0
    for m in mats:
        ties += m.c != 0 and Fraction(m.d, m.c).denominator == 2
        assert _peel(m, 1) == peel_by_fraction(m, 1), m
        # In the parity group d / (2c) is never a half integer (c = +-1 and
        # d odd would force a and b even), so step 2 only meets other cases.
        if gamma_odd_member(m):
            assert _peel(m, 2) == peel_by_fraction(m, 2), m
    assert ties >= 96


def test_word_mp_matches_the_cocycle_chain():
    assert MP_S_INV == mp_inv(MP_S) == MpElement(S_MAT.inverse(), 1)
    rng = random.Random(23)
    signs = set()
    for _ in range(300):
        word = [("T", rng.randint(-5, 5)) if rng.random() < 0.5
                else ("S", rng.choice((1, -1))) for _ in range(rng.randint(0, 12))]
        x = word_mp(word)
        assert x == word_mp_by_cocycle(word), word
        signs.add(x.eps)
    assert signs == {1, -1}
    # one more token after every bottom row (c, d) with |c|, |d| <= 4: each
    # sign case of S and S^-1, zero entries included
    for c in range(-4, 5):
        for d in range(-4, 5):
            if math.gcd(c, d) != 1:
                continue
            word = decompose(bezout_sl2(c, d), 1)[0]
            for token in (("T", 3), ("S", 1), ("S", -1)):
                assert word_mp(word + [token]) == word_mp_by_cocycle(word + [token])


def test_word_mp_reads_s_powers_as_repeated_steps():
    # ("S", k) is |k| steps of S^sign(k), as the group ring product reads it
    assert word_mp([("S", 2)]) == MP_Z
    assert word_mp([("S", -3)]) == mp_mul(mp_mul(MP_S_INV, MP_S_INV), MP_S_INV)
    assert word_mp([("S", 0)]) == MP_ONE
    rng = random.Random(24)
    signs = set()
    for _ in range(300):
        word = [("T", rng.randint(-5, 5)) if rng.random() < 0.5
                else ("S", rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(rng.randint(0, 10))]
        x = word_mp(word)
        assert x == word_mp_by_cocycle(word), word
        steps = [("S", 1 if k > 0 else -1) if kind == "S" else (kind, k)
                 for kind, k in word for _ in range(abs(k) if kind == "S" else 1)]
        assert x == word_mp(steps), word
        signs.add(x.eps)
    assert signs == {1, -1}


def test_real_hilbert_reads_the_signs():
    values = [-7, -2, -1, 1, 3, 10, Fraction(-5, 3), Fraction(1, 4), Fraction(9, 2)]
    for a in values:
        for b in values:
            assert hilbert(a, b, REAL_PLACE) == (-1) ** (sigma(a) * sigma(b))
    for a, b in ((0, 3), (Fraction(-2, 3), 0)):
        with pytest.raises(ValueError):
            hilbert(a, b, REAL_PLACE)


def test_gamma_odd_membership():
    assert gamma_odd_member(S_MAT)
    assert gamma_odd_member(SL2(1, 2, 0, 1))
    assert not gamma_odd_member(T_MAT)
    assert not gamma_odd_member(SL2(1, 0, 1, 1))


@settings(max_examples=100, deadline=None)
@given(word_strategy(step=2, max_len=9))
def test_decompose_T2S_even_words(word):
    mat = word_mp(word).mat
    assert gamma_odd_member(mat)
    out = decompose(mat, 2)[0]
    assert word_mp(out).mat == mat
    for kind, k in out:
        if kind == "T":
            assert k % 2 == 0


def test_decompose_T2S_rejects_odd_group_elements():
    with pytest.raises(ValueError):
        decompose(T_MAT, 2)[0]
    with pytest.raises(ValueError):
        decompose(SL2(1, 0, 1, 1), 2)[0]


def _half_branch_sqrt(mat, tau):
    """sqrt(c*tau + d) with argument in [-pi/2, pi/2)."""
    if mat.c == 0:
        if mat.d < 0:
            return complex(0, -math.sqrt(-mat.d))
        return complex(math.sqrt(mat.d))
    return cmath.sqrt(mat.c * tau + mat.d)


def test_real_cocycle_matches_branch_of_sqrt_j():
    tau = complex(0, 1)
    rng = random.Random(4)
    pairs = [(S_MAT, S_MAT), (SL2(-1, 0, 0, -1), S_MAT), (S_MAT, SL2(-1, 0, 0, -1))]
    while len(pairs) < 150:
        pairs.append((sample_sl2(rng, n=6, max_k=3), sample_sl2(rng, n=6, max_k=3)))
    for a, b in pairs:
        btau = (b.a * tau + b.b) / (b.c * tau + b.d)
        ratio = _half_branch_sqrt(a, btau) * _half_branch_sqrt(b, tau)
        ratio /= _half_branch_sqrt(a * b, tau)
        assert abs(ratio.imag) < 1e-9
        assert abs(abs(ratio.real) - 1) < 1e-9
        got = 1 if ratio.real > 0 else -1
        assert got == kubota_cocycle(a, b, REAL_PLACE)


def test_iota_lift_splits_odd_cover():
    rng = random.Random(5)
    for p in (3, 5, 7):
        for _ in range(150):
            a, b = sample_sl2(rng), sample_sl2(rng)
            prod = iota_lift(a, p) * iota_lift(b, p) * iota_lift(a * b, p)
            assert prod == kubota_cocycle(a, b, p)


def test_iota_lift_two_adic():
    rng = random.Random(6)
    for _ in range(150):
        a, b = sample_gamma1_4(rng), sample_gamma1_4(rng)
        assert in_gamma1_4(a) and in_gamma1_4(b)
        prod = iota_lift(a, 2) * iota_lift(b, 2) * iota_lift(a * b, 2)
        assert prod == kubota_cocycle(a, b, 2)
    with pytest.raises(ValueError):
        iota_lift(T_MAT * S_MAT, 2)


def test_i_map_intertwines_the_covers():
    rng = random.Random(7)
    for _ in range(200):
        a, b = sample_sl2(rng), sample_sl2(rng)
        da = i_map(MpElement(a, 1))[1]
        db = i_map(MpElement(b, 1))[1]
        dab = i_map(MpElement(a * b, 1))[1]
        expect = kubota_cocycle(a, b, 2) * kubota_cocycle(a, b, REAL_PLACE)
        assert da * db * dab == expect
    # eps passes through multiplicatively
    x = MpElement(S_MAT, -1)
    assert i_map(x)[1] == -i_map(MpElement(S_MAT, 1))[1]


def test_gamma4_lift_is_a_splitting():
    rng = random.Random(8)
    for _ in range(150):
        a, b = sample_gamma1_4(rng), sample_gamma1_4(rng)
        sa, sb = gamma4_lift(a).eps, gamma4_lift(b).eps
        sab = gamma4_lift(a * b).eps
        assert sab == sa * sb * kubota_cocycle(a, b, REAL_PLACE)
    with pytest.raises(ValueError):
        gamma4_lift(S_MAT)
    with pytest.raises(ValueError):
        gamma4_lift(SL2(1, 0, 2, 1))


def test_gamma4_lift_alternate_form():
    # for c != 0 the sign is also (c / a) adjusted by the signs of a and c
    rng = random.Random(9)
    done = 0
    while done < 100:
        a = sample_gamma1_4(rng)
        if a.c == 0:
            continue
        alt = legendre(a.c, a.a) * (-1) ** (sigma(a.a) * sigma(a.c))
        assert gamma4_lift(a).eps == alt
        done += 1
