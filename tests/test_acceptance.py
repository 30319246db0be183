"""Acceptance runs over the whole lattice corpus.

One test per headline property, in a fixed order: the closed formula
against the word oracle (even and odd), Gauss sums against brute force,
Milgram's formula and Weil reciprocity, the group law, the kernel and
factoring statements, the cocycle algebra, the local lifts, the phi
character, Braun's criterion, the tensor decomposition, and the level
predicates.  Sampling is seeded and every comparison is exact; the
per-module test files hold the fine-grained unit cases.
"""

import random
from math import gcd

from conftest import EVEN_GRAMS, ODD_GRAMS
from exactweil.exact import root_of_unity, sqrt_rat
from exactweil.jordan import gauss_sum_brute, gauss_sum_closed
from exactweil.lattice import GramLattice, direct_sum, interesting_primes
from exactweil.metaplectic import (
    IDENTITY,
    MP_ONE,
    MP_S,
    MpElement,
    S_MAT,
    SL2,
    cgxde_form,
    gamma4_lift,
    gamma_odd_member,
    i_map,
    in_gamma1_4,
    iota_lift,
    kubota_cocycle,
    mp_inv,
    mp_mul,
)
from exactweil.numth import REAL_PLACE, hilbert, legendre, valuation_split
from exactweil.weilrep import (
    braun_check,
    is_in_kernel,
    phi_char,
    rho_S,
    rho_T,
    rho_Z,
    rho_closed,
    rho_closed_odd,
    rho_oracle,
    rho_p_generators,
    tensor_check,
    weil_reciprocity_check,
)

PLACES = (REAL_PLACE, 2, 3, 5)
ENTRY_BOUND = 50
L4_MAT = SL2(1, 0, 4, 1)
S_INV = mp_inv(MP_S)


def uniform_mp(rng, bound=ENTRY_BOUND):
    """Uniform over SL2(Z) matrices with entries in [-bound, bound],
    paired with a uniform metaplectic sign (plain rejection sampling).

    Each entry is drawn as randint(-bound, bound) draws it on Python 3.11
    (getrandbits of the width's bit length, redrawn while out of range),
    inlined because nearly every matrix drawn is rejected."""
    width = 2 * bound + 1
    bits = width.bit_length()
    draw = rng.getrandbits
    while True:
        entries = []
        while len(entries) < 4:
            r = draw(bits)
            if r < width:
                entries.append(r - bound)
        a, b, c, d = entries
        if a * d - b * c == 1:
            return MpElement(SL2(a, b, c, d), rng.choice((1, -1)))


def uniform_odd_mp(rng, bound=ENTRY_BOUND):
    while True:
        x = uniform_mp(rng, bound)
        if gamma_odd_member(x.mat):
            return x


def mp_word(rng, steps=7, tmax=4):
    x = MP_ONE
    for _ in range(rng.randint(1, steps)):
        if rng.random() < 0.5:
            x = mp_mul(x, MpElement(SL2(1, rng.randint(-tmax, tmax), 0, 1), 1))
        else:
            x = mp_mul(x, MP_S if rng.random() < 0.5 else S_INV)
    if rng.random() < 0.5:
        x = MpElement(x.mat, -x.eps)
    return x


def sample_sl2(rng, n=8):
    m = IDENTITY
    for _ in range(rng.randint(0, n)):
        if rng.random() < 0.5:
            m = m * SL2(1, rng.randint(-4, 4), 0, 1)
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


def lift_residue(res, n):
    """An SL2(Z) matrix reducing to the given SL2(Z/n) residue: pick a
    coprime representative of the bottom row, then fix the top by T^k."""
    a, b, c, d = res
    row = None
    for t in range(8):
        for s in range(8):
            if gcd(c + n * s, d + n * t) == 1:
                row = (c + n * s, d + n * t)
                break
        if row:
            break
    cc, dd = row
    base = bezout_sl2(cc, dd)
    for k in range(n):
        if (base.a + k * cc - a) % n == 0 and (base.b + k * dd - b) % n == 0:
            return SL2(1, k, 0, 1) * base
    raise AssertionError("no T-shift matches %r" % (res,))


def two_lifts(res, n):
    one = lift_residue(res, n)
    other = SL2(1, n, 0, 1) * one * SL2(1, 0, n, 1)
    assert tuple(x % n for x in other.entries()) == tuple(x % n for x in res)
    return one, other


def test_01_closed_matches_oracle_even():
    rng = random.Random(101)
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        for _ in range(200):
            x = uniform_mp(rng)
            assert rho_closed(lattice, x) == rho_oracle(lattice, x)


def test_02_closed_matches_oracle_odd():
    rng = random.Random(102)
    for gram in ODD_GRAMS:
        lattice = GramLattice(gram)
        for _ in range(100):
            x = uniform_odd_mp(rng)
            assert rho_closed_odd(lattice, x) == rho_oracle(lattice, x)


def test_03_gauss_sums_closed_vs_brute():
    for gram in EVEN_GRAMS + ODD_GRAMS:
        lattice = GramLattice(gram)
        for p in (2, 3, 5):
            for a in range(-8, 9):
                for c in range(-8, 9):
                    if c == 0 or gcd(a, c) != 1:
                        continue
                    assert gauss_sum_closed(lattice, p, a, c) \
                        == gauss_sum_brute(lattice, p, a, c)


def test_04_milgram_and_weil_reciprocity():
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        form = lattice.discriminant_form()
        expected = root_of_unity(form.signature, 8) * sqrt_rat(form.delta)
        assert form.milgram_sum() == expected
        assert weil_reciprocity_check(lattice)


def test_05_group_law_and_unitarity():
    rng = random.Random(105)
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        form = lattice.discriminant_form()
        s_op, t_op, z_op = rho_S(form), rho_T(form), rho_Z(form)
        st = s_op * t_op
        assert s_op * s_op == z_op
        assert st * st * st == z_op
        assert (z_op * z_op * z_op * z_op).is_identity()
        for _ in range(100):
            x, y = mp_word(rng), mp_word(rng)
            op_x = rho_closed(lattice, x)
            assert rho_closed(lattice, mp_mul(x, y)) == op_x * rho_closed(lattice, y)
            assert op_x.is_unitary()


def test_06_factoring_and_kernel():
    # [2]: the kernel is exactly the sign-corrected lift of Gamma(4);
    # enumerate Gamma_0(4) residues mod 4 and test two lifts of each.
    rng = random.Random(106)
    a1 = GramLattice([[2]])
    for a, d in ((1, 1), (3, 3)):
        for b in range(4):
            res = (a, b, 0, d)
            for mat in two_lifts(res, 4):
                if res == (1, 0, 0, 1):
                    sign = gamma4_lift(mat).eps
                    assert is_in_kernel(a1, MpElement(mat, sign))
                    assert not is_in_kernel(a1, MpElement(mat, -sign))
                else:
                    assert not is_in_kernel(a1, MpElement(mat, 1))
                    assert not is_in_kernel(a1, MpElement(mat, -1))
    for _ in range(4):
        mat = gamma_n_sample(rng, 4)
        assert is_in_kernel(a1, MpElement(mat, gamma4_lift(mat).eps))

    # [[2,1],[1,2]]: rho factors through SL2(Z/3), faithfully, with no
    # dependence on the metaplectic sign.
    a2 = GramLattice([[2, 1], [1, 2]])
    residues = [
        (a, b, c, d)
        for a in range(3) for b in range(3) for c in range(3) for d in range(3)
        if (a * d - b * c) % 3 == 1
    ]
    assert len(residues) == 24
    for res in residues:
        ops = [
            rho_closed(a2, MpElement(mat, eps))
            for mat in two_lifts(res, 3)
            for eps in (1, -1)
        ]
        assert all(op == ops[0] for op in ops[1:])
        assert ops[0].is_identity() == (res == (1, 0, 0, 1))


def test_07_cocycle_algebra():
    rng = random.Random(107)
    for _ in range(500):
        a, b, c = sample_sl2(rng), sample_sl2(rng), sample_sl2(rng)
        for place in PLACES:
            lhs = kubota_cocycle(a, b, place) * kubota_cocycle(a * b, c, place)
            rhs = kubota_cocycle(a, b * c, place) * kubota_cocycle(b, c, place)
            assert lhs == rhs
    seen = 0
    while seen < 200:
        c, g, d, e = (rng.randint(-9, 9) for _ in range(4))
        x = c * e + d * g
        if c == 0 or g == 0 or x == 0:
            continue
        seen += 1
        for place in PLACES:
            assert cgxde_form(c, g, d, e, place) \
                == hilbert(c, g, place) * hilbert(x, -c * g, place)
    seen = 0
    while seen < 500:
        r, s = rng.randint(-60, 60), rng.randint(-60, 60)
        if r == 0 or s == 0 or gcd(r, s) != 1:
            continue
        seen += 1
        _, r2 = valuation_split(r, 2)
        _, s2 = valuation_split(s, 2)
        assert legendre(r, int(s2)) * legendre(s, int(r2)) \
            == hilbert(r, s, 2) * hilbert(r, s, REAL_PLACE)
    # unit symbols: trivial pairing, valuation-only dependence, and
    # invariance under translating the unit by a multiple of the partner
    for p in (3, 5, 7):
        for _ in range(120):
            u = rng.randint(1, p - 1) + p * rng.randint(-6, 6)
            v = rng.randint(1, p - 1) + p * rng.randint(-6, 6)
            assert hilbert(u, v, p) == 1
            y = rng.randint(-200, 200)
            if y:
                assert hilbert(u, y, p) \
                    == hilbert(u, p ** valuation_split(y, p)[0], p)
            y = p ** rng.randint(1, 2) * rng.choice((1, 2, 3, -1))
            t = rng.randint(-5, 5)
            if (u + t * y) % p:
                assert hilbert(u + t * y, y, p) == hilbert(u, y, p)
    for _ in range(150):
        u = 1 + 8 * rng.randint(-25, 25)
        v = 1 + 8 * rng.randint(-25, 25)
        assert hilbert(u, v, 2) == 1
        y = rng.randint(-300, 300)
        if y:
            assert hilbert(u, y, 2) == 1
            assert hilbert(u, y, 2) == hilbert(u, 2 ** valuation_split(y, 2)[0], 2)
        y4 = 4 * rng.randint(1, 60)
        t = rng.randint(-5, 5)
        assert hilbert(u + t * y4, y4, 2) == hilbert(u, y4, 2)


def test_08_lift_multiplicativity():
    rng = random.Random(108)
    for p in (3, 5):
        for _ in range(150):
            a, b = sample_sl2(rng), sample_sl2(rng)
            assert iota_lift(a, p) * iota_lift(b, p) * iota_lift(a * b, p) \
                == kubota_cocycle(a, b, p)
    for _ in range(150):
        a, b = sample_gamma1_4(rng), sample_gamma1_4(rng)
        assert in_gamma1_4(a) and in_gamma1_4(b)
        assert iota_lift(a, 2) * iota_lift(b, 2) * iota_lift(a * b, 2) \
            == kubota_cocycle(a, b, 2)
        sa, sb = gamma4_lift(a).eps, gamma4_lift(b).eps
        assert gamma4_lift(a * b).eps == sa * sb * kubota_cocycle(a, b, REAL_PLACE)
    # i_map carries the real-place cover to the dyadic one
    for _ in range(200):
        x = MpElement(sample_sl2(rng), rng.choice((1, -1)))
        y = MpElement(sample_sl2(rng), rng.choice((1, -1)))
        mx, dx = i_map(x)
        my, dy = i_map(y)
        mxy, dxy = i_map(mp_mul(x, y))
        assert mxy == mx * my
        assert dxy == dx * dy * kubota_cocycle(mx, my, 2)


def test_09_phi_character():
    rng = random.Random(109)
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        form = lattice.discriminant_form()
        n = lattice.level()
        for _ in range(50):
            x = MpElement(gamma0_sample(rng, n), rng.choice((1, -1)))
            y = MpElement(gamma0_sample(rng, n), rng.choice((1, -1)))
            # phi = e(k/8) is returned as its exponent k mod 8
            assert phi_char(lattice, mp_mul(x, y)) \
                == (phi_char(lattice, x) + phi_char(lattice, y)) % 8
            op = rho_closed(lattice, x)
            i0 = op.form.index(form.zero())
            assert root_of_unity(phi_char(lattice, x), 8) == op.entries[i0][i0]


def test_10_braun_criterion():
    for gram in EVEN_GRAMS + ODD_GRAMS:
        lattice = GramLattice(gram)
        for c in range(lattice.level(), 13, lattice.level()):
            assert braun_check(lattice, c)


def test_11_tensor_splitting():
    for gram in EVEN_GRAMS:
        assert tensor_check(GramLattice(gram))
    multi = direct_sum(GramLattice([[2]]), GramLattice([[6]]))
    assert len(interesting_primes(multi)) >= 2
    assert tensor_check(multi)


def test_12_level_predicates():
    small_primes = [p for p in range(2, 51) if all(p % q for q in range(2, p))]
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        n, delta = lattice.level(), lattice.delta()
        if lattice.rank % 2:
            assert n % 4 == 0
        for p in small_primes:
            assert (delta % p == 0) == (n % p == 0)
        for p in (2, 3, 5, 7, 11, 13):
            if delta % p:
                t_op, s_op = rho_p_generators(lattice, p)
                assert t_op.is_identity() and s_op.is_identity()
