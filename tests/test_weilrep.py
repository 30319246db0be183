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
from functools import reduce
from itertools import product
from math import gcd, lcm
from operator import mul

import exactweil
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from conftest import E8_GRAM, EVEN_GRAMS, MIXED_SCALE_GRAMS, ODD_GRAMS
from exactweil.exact import ExactScalar, from_powers, from_rational, root_of_unity, sqrt_rat
from exactweil.jordan import (
    choose_xc,
    gauss_sum_brute,
    jordan_components,
    jordan_decompose,
    weil_index_component,
    weil_index_lattice,
)
from exactweil.lattice import (CapExceededError, GramLattice, _det_int, direct_sum,
                               interesting_primes)
from exactweil.metaplectic import (
    MP_ONE,
    MP_S,
    MP_S_INV,
    MP_T,
    MP_Z,
    MpElement,
    S_MAT,
    SL2,
    decompose,
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
    RingOperator,
    WeilOperator,
    braun_check,
    is_in_kernel,
    kernel_descriptor,
    phi_char,
    _group_ring_product,
    _kronecker,
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
from reference import (DenseOperator, braun_by_terms, class_of_dual_vector, closed_assembly,
                       dense, dense_adjoint, dense_identity, dense_is_identity, dense_product,
                       dense_scale, gauss_by_terms, lift, milgram_by_terms, phase_json,
                       r0_direct, rational_jordan)

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
    cells, other = left.entries, right.entries
    for g in left.labels:
        for h in left.labels:
            assert cells[left.form.index(g)][left.form.index(h)] \
                == other[right.form.index(g)][right.form.index(h)]


def nonzero_element(form):
    return next(g for g in form.elements() if g != form.zero())


def test_rho_t_tables():
    f = A1.discriminant_form()
    t = rho_T(f)
    z, g = f.zero(), nonzero_element(f)
    assert t.dim == 2
    cells = t.entries
    assert cells[t.form.index(z)][t.form.index(z)] == ONE
    assert cells[t.form.index(g)][t.form.index(g)] == root_of_unity(1, 4)
    assert cells[t.form.index(z)][t.form.index(g)].is_zero()
    assert rho_T(UL.discriminant_form()).is_identity()
    cells = rho_T(A2.discriminant_form()).entries
    diag = [cells[i][i] for i in range(3)]
    assert diag.count(ONE) == 1
    assert diag.count(root_of_unity(1, 3)) == 2
    for i in range(3):
        for j in range(3):
            assert i == j or cells[i][j].is_zero()
    with pytest.raises(ValueError):
        rho_T(ODD1.discriminant_form())


def test_rho_s_tables():
    f = A1.discriminant_form()
    s = rho_S(f)
    z, g = f.zero(), nonzero_element(f)
    iz, ig = s.form.index(z), s.form.index(g)
    c8 = root_of_unity(-1, 8) * sqrt_rat(Fraction(1, 2))
    cells = s.entries
    assert cells[iz][iz] == c8
    assert cells[iz][ig] == c8
    assert cells[ig][iz] == c8
    assert cells[ig][ig] == from_rational(-1) * c8
    u = rho_S(UL.discriminant_form())
    assert u.dim == 1 and u.entries[0][0] == ONE
    o = rho_S(ODD1.discriminant_form())
    assert o.dim == 1 and o.entries[0][0] == root_of_unity(-1, 8)
    for gram in EVEN_GRAMS + ODD_GRAMS:
        assert rho_S(GramLattice(gram).discriminant_form()).is_unitary()


def test_rho_z_tables():
    f = A1.discriminant_form()
    expected = dense_identity(f, root_of_unity(-1, 4))
    assert rho_Z(f) == expected
    assert rho_Z(UL.discriminant_form()).is_identity()
    f2 = A2.discriminant_form()
    z2 = rho_Z(f2)
    cells = z2.entries
    for g in f2.elements():
        assert cells[z2.form.index(f2.neg(g))][z2.form.index(g)] == from_rational(-1)


def test_generator_relations():
    for gram in EVEN_GRAMS:
        f = GramLattice(gram).discriminant_form()
        s, t, z = rho_S(f), rho_T(f), rho_Z(f)
        st = s * t
        assert s * s == z
        assert st * st * st == z
        assert (z * z) == dense_identity(f, from_rational((-1) ** (f.signature % 2)))
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
    for gram in EVEN_GRAMS + [[[2, 0], [0, 6]], A2_5, DIAG_2_6_10]:
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
    word = decompose(x.mat, 1 if lattice.is_even else 2)[0]
    s = dense(rho_S(form))
    op = dense_identity(form)
    for sym, k in word:
        if sym == "S":
            factor = s if k > 0 else dense_adjoint(s)
            for _ in range(abs(k)):
                op = dense_product(op, factor)
        elif lattice.is_even:
            t = dense(rho_T(form)) if k > 0 else dense_adjoint(dense(rho_T(form)))
            for _ in range(abs(k)):
                op = dense_product(op, t)
        else:
            diag = dense_identity(form)
            for i, g in enumerate(elems):
                diag.entries[i][i] = root_of_unity(k * form.q_num(g), form.level)
            op = dense_product(op, diag)
    if word_mp(word).eps != x.eps:
        op = dense_scale(op, from_rational(-1 if form.signature % 2 else 1))
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
            word = decompose(x.mat, 1 if lattice.is_even else 2)[0]
            ring, n_plus, n_minus, width = _group_ring_product(form, word)
            ref, ref_plus, ref_minus = gather_group_ring_product(form, word)
            assert (n_plus, n_minus) == (ref_plus, ref_minus)
            assert all(v >> n * width == 0 for row in ring for v in row)
            mask = (1 << width) - 1
            unpacked = [[[v >> t * width & mask for t in range(n)] for v in row]
                        for row in ring]
            assert unpacked == ref, (lattice.gram, word)


def packed_cells_as_dense(op):
    """The dense operator of a RingOperator built cell by cell: one
    scalar * from_powers object per distinct packed cell, the reference for
    its entries, is_identity and JSON."""
    n, width = op.level, op.width
    mask = (1 << width) - 1
    cells = {v: op.coeff * from_powers([v >> t & mask for t in range(0, n * width, width)], n)
             for row in op.ring for v in row}
    return DenseOperator(op.labels, [[cells[v] for v in row] for row in op.ring], op.form)


def ring_equality_cases():
    """(lattice, x): the elements of dense_product_cases with both signs,
    then four seeded matrices with entries up to 50 per conftest lattice."""
    for lattice, elements in dense_product_cases():
        for x in elements:
            for eps in (1, -1):
                yield lattice, MpElement(x.mat, eps)
    rng = random.Random(25)
    for gram in EVEN_GRAMS + ODD_GRAMS:
        lattice = GramLattice(gram)
        for k in range(4):
            mat = bounded_sl2(rng)
            while not (lattice.is_even or gamma_odd_member(mat)):
                mat = bounded_sl2(rng)
            yield lattice, MpElement(mat, (1, -1)[k % 2])


def phase_corruptions(op, rng):
    """(name, operator): op with one phase moved by one, one zero cell made
    nonzero, one nonzero cell made zero, and its scalar negated."""
    cells = [(i, j) for i in range(op.dim) for j in range(op.dim)]
    nonzero = [c for c in cells if op.phases[c[0]][c[1]] != ZERO_PHASE]
    zero = [c for c in cells if op.phases[c[0]][c[1]] == ZERO_PHASE]
    moves = [("phase + 1", rng.choice(nonzero), lambda k: (k + 1) % op.level),
             ("nonzero cell made zero", rng.choice(nonzero), lambda k: ZERO_PHASE)]
    if zero:
        moves.append(("zero cell made nonzero", rng.choice(zero),
                      lambda k: rng.randrange(op.level)))
    for name, (i, j), move in moves:
        phases = [row[:] for row in op.phases]
        phases[i][j] = move(phases[i][j])
        yield name, PhaseOperator(op.coeff, phases, op.form)
    yield "coeff negated", PhaseOperator(-op.coeff, op.phases, op.form)


def test_ring_equality_agrees_with_dense_equality(monkeypatch):
    # closed == oracle and oracle == closed on integers, against the dense
    # comparison of the two operators' cells, for the true closed operator
    # and its corruptions; a same-level comparison builds no dense cell.
    rng = random.Random(26)

    def no_cells(self):
        raise AssertionError("dense cells built for a same-level comparison")

    unequal = 0
    for lattice, x in ring_equality_cases():
        oracle = rho_oracle(lattice, x)
        assert isinstance(oracle, RingOperator)
        closed = rho_closed(lattice, x)
        cands = [("true", closed), ("eps flipped", rho_closed(lattice, MpElement(x.mat, -x.eps)))]
        cands += phase_corruptions(closed, rng)
        with monkeypatch.context() as patch:
            patch.setattr(RingOperator, "_cell_table", no_cells)
            patch.setattr(PhaseOperator, "_cell_table", no_cells)
            answers = [(cand == oracle, oracle == cand) for _, cand in cands]
        ref = dense(oracle)
        for (name, cand), got in zip(cands, answers):
            expected = dense(cand) == ref
            assert got == (expected, expected), (lattice.gram, x.mat, x.eps, name)
            unequal += not expected
            if name == "true":
                assert expected
            elif name != "eps flipped" and (name != "phase + 1" or closed.level > 1):
                assert not expected, (lattice.gram, x.mat, x.eps, name)
    assert unequal > 1000


def rotated(op, k):
    """A RingOperator equal to op: its scalar times e(k/N), and each packed
    cell times x^-k."""
    n, width = op.level, op.width
    low = (1 << n * width) - 1
    ring = [[v >> k * width | v << (n - k) * width & low for v in row] for row in op.ring]
    return RingOperator(op.coeff * root_of_unity(k, n), width, ring, op.form)


def ring_corruptions(op, rng):
    """(name, operator): op with the constant coefficient of one packed cell
    moved by one, and with its scalar negated."""
    i, j = rng.randrange(op.dim), rng.randrange(op.dim)
    ring = [row[:] for row in op.ring]
    ring[i][j] ^= 1
    yield "one cell", RingOperator(op.coeff, op.width, ring, op.form)
    yield "coeff negated", RingOperator(-op.coeff, op.width, op.ring, op.form)


def test_value_equality_agrees_with_dense_equality(monkeypatch):
    # The pairs no integer path decides, each compared by its cell scalars:
    # two ring operators with different scalars, the oracle rotated and the
    # closed formula times the identity.  Each equals the oracle, and one
    # changed cell or a changed scalar breaks that, as the dense comparison
    # of the cells says.
    def no_phase_path(self, op):
        raise AssertionError("an integer path compared operators it cannot decide")

    rng = random.Random(30)
    unequal = 0
    for lattice, x in ring_equality_cases():
        oracle = rho_oracle(lattice, x)
        ref = dense(oracle)
        n = oracle.level
        form = oracle.form
        product = rho_closed(lattice, x) * WeilOperator.identity(form.elements(), form)
        ring = rotated(oracle, rng.randrange(1, n) if n > 1 else 0)
        assert ring.coeff != oracle.coeff or n == 1
        cases = [(ring, ring_corruptions(ring, rng)),
                 (product, ring_corruptions(product, rng))]
        for cand, corrupted in cases:
            assert dense(cand) == ref
            with monkeypatch.context() as patch:
                patch.setattr(RingOperator, "_same_phases", no_phase_path)
                assert cand == oracle and oracle == cand, (lattice.gram, x)
                for name, bad in corrupted:
                    assert dense(bad) != ref, name
                    assert bad != oracle and oracle != bad, (lattice.gram, x, name)
                    unequal += 1
    assert unequal > 1000


def test_identity_is_the_fourth_power_of_z():
    for gram in EVEN_GRAMS + ODD_GRAMS + [A2_5]:
        form = GramLattice(gram).discriminant_form()
        one = WeilOperator.identity(form.elements(), form)
        z = rho_Z(form)
        z4 = z * z * z * z
        assert isinstance(one, PhaseOperator) and one.level == form.level
        assert one.is_identity() and z4.is_identity()
        assert one == z4 and z4 == one, gram
        assert dense(one) == dense_identity(form) and dense(z4) == dense_identity(form)
        minus = PhaseOperator(-ONE, one.phases, form)
        assert minus != z4 and z4 != minus and not minus.is_identity()


def test_oracle_walks_its_word_once_and_roots_delta_once(monkeypatch):
    # one word_mp per oracle call, and no sqrt_rat but sqrt(1/Delta), once,
    # for an odd number of S steps
    import exactweil.metaplectic as metaplectic_mod
    import exactweil.weilrep as weilrep_mod

    walks, roots = [], []
    walk, root = metaplectic_mod.word_mp, weilrep_mod.sqrt_rat

    def counted_walk(word):
        walks.append(word)
        return walk(word)

    def counted_root(r):
        roots.append(r)
        return root(r)

    monkeypatch.setattr(metaplectic_mod, "word_mp", counted_walk)
    monkeypatch.setattr(weilrep_mod, "word_mp", counted_walk, raising=False)
    monkeypatch.setattr(weilrep_mod, "sqrt_rat", counted_root)
    for lattice, x in ring_equality_cases():
        del walks[:], roots[:]
        rho_oracle(lattice, x)
        s = sum(abs(k) for sym, k in walks[0] if sym == "S")
        assert len(walks) == 1
        assert roots == [Fraction(1, lattice.delta())] * (s % 2), (lattice.gram, x)


def test_oracle_keeps_its_product_packed():
    # entries, is_identity and the JSON of the packed product are those of
    # the dense operator built cell by cell from it
    for lattice, x in ring_equality_cases():
        op = rho_oracle(lattice, x)
        ref = packed_cells_as_dense(op)
        assert digest(op.to_json()) == digest(ref.to_json()), (lattice.gram, x.mat)
        assert op.is_identity() == dense_is_identity(ref)
        assert [[c.to_json() for c in row] for row in op.entries] \
            == [[c.to_json() for c in row] for row in ref.entries]
        if op.dim <= 4:
            assert digest(both_json(op)) == digest(both_json(ref))
            assert op.to_numeric_json(64) == ref.to_numeric_json(64)


def test_rho_closed_checks_the_dense_cap_before_the_scalar(monkeypatch):
    import exactweil.weilrep as weilrep_mod

    def no_scalar(*args):
        raise AssertionError("the closed-formula scalar was computed past the cap")

    monkeypatch.setattr(weilrep_mod, "_xi_product", no_scalar)
    for gram in ([[2000006]], [[2000000000000000006]], [[1, 0], [0, 4001]]):
        with pytest.raises(CapExceededError):
            rho_closed(GramLattice(gram), MP_S)


def test_rho_closed_decomposes_twice_at_every_nonzero_c(monkeypatch):
    import exactweil.jordan as jordan_mod
    import exactweil.weilrep as weilrep_mod

    # At c != 0 rho_closed makes one 2-adic decomposition, whose components
    # give xi_2 and which choose_xc reads at even c; gamma_2 takes the
    # other, through weil_index_lattice.  At c = 0 neither is made.
    calls, xi2_read, xc_read = [], [], []

    def counted(lattice, p):
        calls.append(p)
        return jordan_decompose(lattice, p)

    def xi(lattice, mat, eps, p, components):
        if p == 2:
            xi2_read.append(components)
        return xi_p(lattice, mat, eps, p, components)

    def xc(decomp, c):
        xc_read.append(decomp)
        return choose_xc(decomp, c)

    monkeypatch.setattr(jordan_mod, "jordan_decompose", counted)
    monkeypatch.setattr(weilrep_mod, "jordan_decompose", counted)
    monkeypatch.setattr(weilrep_mod, "xi_p", xi)
    monkeypatch.setattr(weilrep_mod, "choose_xc", xc)
    mats = [SL2(2, 1, 1, 1), SL2(1, 1, -3, -2), SL2(1, 0, 2, 1), SL2(1, 0, -2, 1),
            SL2(3, 1, 8, 3), SL2(1, 0, 6, 1), SL2(0, -1, 1, 0), SL2(1, 0, 4, 1),
            SL2(1, 5, 0, 1), SL2(-1, 2, 0, -1)]
    seen = set()
    for gram in EVEN_GRAMS + ODD_GRAMS + MIXED_SCALE_GRAMS:
        lattice = GramLattice(gram)
        for mat in mats:
            if not lattice.is_even and not gamma_odd_member(mat):
                continue
            for eps in (1, -1):
                del calls[:], xi2_read[:], xc_read[:]
                rho_closed(lattice, MpElement(mat, eps))
                assert calls == ([2, 2] if mat.c else []), (gram, mat, eps)
                assert len(xi2_read) == (1 if mat.c else 0), (gram, mat, eps)
                assert len(xc_read) == (1 if mat.c % 2 == 0 and mat.c else 0), (gram, mat, eps)
                if xc_read:
                    assert xc_read[0].components is xi2_read[0], (gram, mat, eps)
                c_class = 0 if mat.c == 0 else (1 if mat.c % 2 else 2 + (mat.c % 4 == 0))
                seen.add((lattice.is_even, c_class))
    assert seen == {(even, c_class) for even in (True, False) for c_class in range(4)}


def test_rho_closed_builds_jordan_components_only_in_the_decompositions(monkeypatch):
    # A scaled Weil index is read off the symbol: during rho_closed every
    # JordanComponent is built by jordan_decompose or jordan_components.
    import exactweil.jordan as jordan_mod

    built = []
    init = jordan_mod.JordanComponent.__init__

    def recorded(self, *args, **kwargs):
        built.append(sys._getframe(1).f_code.co_name)
        init(self, *args, **kwargs)

    monkeypatch.setattr(jordan_mod.JordanComponent, "__init__", recorded)
    mats = [SL2(2, 1, 1, 1), SL2(1, 1, -3, -2), SL2(1, 0, 2, 1), SL2(3, 1, 8, 3),
            SL2(-1, 0, 6, -1), SL2(-1, 3, 0, -1)]
    for gram in EVEN_GRAMS + ODD_GRAMS + RHO_MID + [A2_5, DIAG_2_6_10]:
        lattice = GramLattice(gram)
        for mat in mats:
            if lattice.is_even or gamma_odd_member(mat):
                for eps in (1, -1):
                    rho_closed(lattice, MpElement(mat, eps))
    assert built and set(built) <= {"jordan_decompose", "jordan_components"}, set(built)


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

    # S_53 on [[106]], at the 53-part's level 53: its 53^2 cells fit, their
    # phi(53) = 52 coefficients each do not
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 10 ** 5)
    with pytest.raises(CapExceededError, match="would hold 146068 integers"):
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
    out = op.to_numeric_json(64)
    assert op.dim == 64 and len(calls) == 32
    assert out["entries_numeric"] == per_cell


def test_closed_examples():
    f = A1.discriminant_form()
    assert rho_closed(A1, MP_T) == rho_T(f)
    assert rho_closed(A1, MpElement(S_MAT, 1)) == rho_S(f)
    assert rho_closed(A1, MP_Z) == dense_identity(f, root_of_unity(-1, 4))


# c = 2, -2, 4, 6, in the parity subgroup
MIXED_SCALE_MATS = (SL2(5, 2, 2, 1), SL2(1, 0, -2, 1), SL2(1, 2, 4, 9), SL2(-1, 0, 6, -1))


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
        # c = 2 mod 4, where x_c is read from the 2-adic component at scale 2
        # (odd on [[2]] and [[6]])
        for mat in (SL2(1, 0, 2, 1), SL2(1, 0, -2, 1), SL2(3, 1, 2, 1), SL2(-1, 0, 6, -1)):
            for eps in (1, -1):
                x = MpElement(mat, eps)
                assert rho_closed(lattice, x) == rho_oracle(lattice, x), (gram, mat, eps)
    # x_c from a scale 2 with a 1x1 pivot and an even 2x2 block
    for gram in MIXED_SCALE_GRAMS[:2]:
        lattice = GramLattice(gram)
        for mat in MIXED_SCALE_MATS:
            for eps in (1, -1):
                x = MpElement(mat, eps)
                assert rho_closed(lattice, x) == rho_oracle(lattice, x), (gram, mat, eps)


def neg_symmetric(op):
    """The phase table commutes with e_gamma -> e_-gamma (the isometry -1):
    phases[-i][-j] == phases[i][j].  Returns the operator."""
    form = op.form
    neg = [form.index(form.neg(g)) for g in form.elements()]
    assert all(op.phases[ni][nj] == k for ni, row in zip(neg, op.phases)
               for nj, k in zip(neg, row)), op
    return op


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
    # takes 0.1 to 0.4 s on A2(5) and 0.3 to 2.5 s on the others, growing with
    # the S steps of the word; the counts keep the test at 4 to 6 s.
    for gram, count in (([[10, 5], [5, 10]], 6), ([[100]], 2),
                        ([[2, 0, 0], [0, 6, 0], [0, 0, 10]], 2)):
        lattice = GramLattice(gram)
        rng = random.Random(11)
        for k in range(count):
            x = MpElement(bounded_sl2(rng), (1, -1)[k % 2])
            assert neg_symmetric(rho_closed(lattice, x)) == rho_oracle(lattice, x), \
                (gram, x.mat, x.eps)


# perfbench's rho-mid lattices, Delta 12 to 32: between the corpus (Delta <= 8)
# and the large-discriminant test above (Delta 75 to 120).
RHO_MID = [[[2, 0], [0, 6]], [[4, 2], [2, 4]], [[6, 3], [3, 6]], [[32]]]
A2_5 = [[10, 5], [5, 10]]
DIAG_2_6_10 = [[2, 0, 0], [0, 6, 0], [0, 0, 10]]


def test_closed_equals_oracle_at_mid_discriminants():
    rng = random.Random(31)
    for gram in RHO_MID:
        lattice = GramLattice(gram)
        for k in range(12):
            x = MpElement(bounded_sl2(rng), (1, -1)[k % 2])
            assert neg_symmetric(rho_closed(lattice, x)) == rho_oracle(lattice, x), \
                (gram, x.mat, x.eps)


def split_matrices(n, odd):
    """Matrices with c = 0, with c prime to the level n, with 1 < gcd(c, n) < n
    where n has such a c, and with n | c, two of each; in the parity subgroup
    for an odd lattice."""
    mats = [SL2(1, 2, 0, 1), SL2(-1, -4, 0, -1)]
    cs = [next(c for c in range(2, 4 * n + 3) if gcd(c, n) == 1)]
    cs += [c for c in range(2, n) if 1 < gcd(c, n) < n][:1] + [n]
    for c in cs:
        found = [m for m in (bezout_sl2(c, d) for d in range(-4 * c - 9, 4 * c + 10)
                             if gcd(c, d) == 1)
                 if not odd or gamma_odd_member(m)]
        mats += [found[0], found[-1]] if len(found) > 1 else found
    return mats


def test_closed_assembly_and_cells_equal_reference(monkeypatch):
    # The addition-table assembly gives the phase table, list for list, and
    # the rotated cell table the JSON, dict for dict, of the flat-buffer
    # assembly and one coeff * root_of_unity(k, N) per phase key.
    import exactweil.weilrep as weilrep_mod

    for gram in EVEN_GRAMS + ODD_GRAMS + RHO_MID + [A2_5, DIAG_2_6_10]:
        lattice = GramLattice(gram)
        for mat in split_matrices(lattice.level(), not lattice.is_even):
            for eps in (1, -1):
                x = MpElement(mat, eps)
                op = rho_closed(lattice, x)
                with monkeypatch.context() as patch:
                    patch.setattr(weilrep_mod, "_closed_assembly", closed_assembly)
                    ref = rho_closed(lattice, x)
                assert op.coeff == ref.coeff and op.phases == ref.phases, (gram, mat, eps)
                assert op.to_json() == phase_json(ref), (gram, mat, eps)


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
    # a unimodular 2-adic scale with a 1x1 pivot and an even 2x2 block
    lattice = GramLattice(MIXED_SCALE_GRAMS[3])
    for mat in MIXED_SCALE_MATS:
        for eps in (1, -1):
            x = MpElement(mat, eps)
            assert rho_closed_odd(lattice, x) == rho_oracle(lattice, x), (mat, eps)


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
            assert phi_char(lattice, MpElement(g, sign)) == 0
            assert is_in_kernel(lattice, MpElement(g, sign))
            assert not is_in_kernel(lattice, MpElement(g, -sign))


def r0_scalar(lattice, x):
    """The constant relating r0_direct to the representation: the sign
    eps^m (a/c_2)^m times odd-place symbols (a_p/p^v)^m times the product
    of conjugate Weil indices of the forms scaled by c, e(k/8) with k minus
    the sum of their exponents."""
    a, c = x.mat.a, x.mat.c
    m = lattice.rank
    c2 = int(valuation_split(c, 2).unit_part)
    sym = x.eps ** m * legendre(a, c2) ** m
    for p in prime_factors(abs(c)):
        if p == 2:
            continue
        a_p = int(valuation_split(a, p).unit_part) if a else 1
        sym *= legendre(a_p, p ** valuation_split(c, p).valuation) ** m
    k = 0
    for p in sorted(set(prime_factors(2 * lattice.delta() * abs(c)))):
        for comp in rational_jordan(lattice, p).components:
            k -= weil_index_component(comp, c)
    return from_rational(sym) * root_of_unity(k, 8)


def test_r0_direct():
    h = sqrt_rat(Fraction(1, 2))
    r0 = r0_direct(A1, S_MAT)
    f = A1.discriminant_form()
    iz, ig = f.index(f.zero()), f.index(nonzero_element(f))
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
                scaled = dense_scale(r0_direct(lattice, mat), r0_scalar(lattice, x))
                assert rho_closed(lattice, x) == scaled, (gram, mat, eps)


def test_r0_entry_ratio_constant():
    # Ratio constancy stated without the explicit constant: cross products
    # of entries agree and the supports coincide.
    lattice = GramLattice([[2, 0], [0, 4]])
    mat = SL2(2, 1, 3, 2)
    op = rho_closed(lattice, MpElement(mat, 1))
    rho, r0 = op.entries, r0_direct(lattice, mat).entries
    pairs = [(i, j) for i in range(op.dim) for j in range(op.dim)]
    for i, j in pairs:
        assert rho[i][j].is_zero() == r0[i][j].is_zero()
    i0, j0 = next((i, j) for i, j in pairs if not rho[i][j].is_zero())
    for i, j in pairs:
        assert rho[i][j] * r0[i0][j0] == rho[i0][j0] * r0[i][j]


def test_xi_values():
    # xi_p = e(k/8) is returned as its exponent k mod 8
    a1_two_adic = jordan_components(A1, 2)
    assert xi_p(A1, S_MAT, 1, 2, a1_two_adic) == -1 % 8
    assert xi_p(A1, SL2(1, 0, 4, 1), 1, 2, a1_two_adic) == 0
    mats = (S_MAT, SL2(1, 1, 1, 2), SL2(2, 1, 3, 2), SL2(1, 0, 0, 1))
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        p = next(q for q in (5, 7, 11) if lattice.delta() % q)
        components = jordan_components(lattice, p)
        for mat in mats:
            for eps in (1, -1):
                assert xi_p(lattice, mat, eps, p, components) == 0


def test_xi_product_at_s():
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        primes = sorted(set(prime_factors(2 * lattice.delta())))
        for k in (0, 1, -2):
            mat = SL2(0, -1, 1, k)
            total = 0
            for p in primes:
                total += xi_p(lattice, mat, 1, p, jordan_components(lattice, p))
            assert root_of_unity(total, 8) == root_of_unity(-lattice.signature(), 8)


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
            x_c = choose_xc(jordan_decompose(lattice, 2), x.mat.c)
            coset = [beta for beta, _ in form.coset_Dcstar(x.mat.c, x_c)]
            cells = op.entries
            for g in form.elements():
                j = op.form.index(g)
                support = {op.labels[i] for i in range(op.dim) if not cells[i][j].is_zero()}
                d_g = form.smul(x.mat.d, g)
                assert support == {form.add(b, d_g) for b in coset}


def test_phi_examples():
    # phi = e(k/8) is returned as its exponent k mod 8
    assert phi_char(A1, MP_ONE) == 0
    assert phi_char(A1, MpElement(SL2(1, 0, 4, 1), 1)) == 0
    assert root_of_unity(phi_char(A1, MP_Z), 8) == root_of_unity(-1, 4)
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
            i0 = op.form.index(form.zero())
            assert root_of_unity(phi_char(lattice, x), 8) == op.entries[i0][i0]


def test_phi_multiplicative():
    rng = random.Random(8)
    for gram in EVEN_GRAMS:
        lattice = GramLattice(gram)
        n = lattice.level()
        for _ in range(8):
            x = MpElement(gamma0_sample(rng, n), rng.choice((1, -1)))
            y = MpElement(gamma0_sample(rng, n), rng.choice((1, -1)))
            assert phi_char(lattice, mp_mul(x, y)) \
                == (phi_char(lattice, x) + phi_char(lattice, y)) % 8


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
    # gamma(f_2) = e(4/8) = -1 on A1^4: its square is 1, so not case (i)
    d = kernel_descriptor(GramLattice([[2 * (i == j) for j in range(4)] for i in range(4)]))
    assert d["gamma_f2_squared_trivial"] and d["case"] == "generic"
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
    boxed = op.to_numeric_json(64)
    re, im = boxed["entries_numeric"][0][0]
    assert abs(re - 0.5) < 1e-12 and abs(im + 0.5) < 1e-12


def phase_corpus():
    """(name, operator) for T, S, Z, every p-part pair, and rho_closed at
    c = 0 and at seeded c != 0, over the conftest corpus, A2(5),
    diag(2, 6, 10) and the rho-mid lattices."""
    rng = random.Random(21)
    for gram in EVEN_GRAMS + ODD_GRAMS + [A2_5, DIAG_2_6_10] + RHO_MID:
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


def both_json(op, bits=64):
    """The exact and the numeric JSON in one document, as `rho --format
    both` prints them."""
    out = op.to_json()
    out.update(op.to_numeric_json(bits))
    return out


def test_phase_json_equals_dense_json():
    # The phase table, its `entries` view (one object per phase) and a dense
    # matrix with one scalar object per cell encode to the same bytes.
    for name, op in phase_corpus():
        assert isinstance(op, PhaseOperator)
        ref = dense(op)
        plain = digest(op.to_json())
        assert plain == digest(ref.to_json()), name
        if op.dim <= 32:
            assert digest(both_json(op)) == digest(both_json(ref)), name
        cells = [[from_rational(0) if k == ZERO_PHASE
                  else op.coeff * root_of_unity(k, op.level) for k in row]
                 for row in op.phases]
        unshared = DenseOperator(op.labels, cells, op.form)
        assert plain == digest(unshared.to_json()), name
        if op.dim <= 4:
            assert digest(both_json(op)) == digest(both_json(unshared)), name


def shifted(op, delta):
    """op with every phase lowered by delta and the scalar raised by
    e(delta/N): the same operator, built differently."""
    n = op.level
    phases = [[ZERO_PHASE if k == ZERO_PHASE else (k - delta) % n for k in row]
              for row in op.phases]
    return PhaseOperator(op.coeff * root_of_unity(delta, n), phases, op.form)


def test_phase_equality_agrees_with_dense_equality():
    rng = random.Random(22)
    ops = [op for _, op in phase_corpus() if op.dim <= 12]
    for op in ops:
        other = shifted(op, rng.randrange(1, op.level) if op.level > 1 else 0)
        assert other.coeff != op.coeff or op.level == 1
        assert op == other and other == op
        assert op == dense(other) and dense(op) == other
        # one cell's phase moved by one, one cell switched between zero and
        # nonzero, and the scalar negated
        i, j = rng.randrange(op.dim), rng.randrange(op.dim)
        k = op.phases[i][j]
        for new in ((k + 1) % op.level if k != ZERO_PHASE else k,
                    0 if k == ZERO_PHASE else ZERO_PHASE):
            phases = [row[:] for row in op.phases]
            phases[i][j] = new
            moved = PhaseOperator(op.coeff, phases, op.form)
            assert (op == moved) == (dense(op) == dense(moved)), (op, i, j, new)
        negated = PhaseOperator(-op.coeff, op.phases, op.form)
        assert op != negated and dense(op) != dense(negated)
    for a, b in zip(ops, ops[1:]):
        if a.labels == b.labels:
            assert (a == b) == (dense(a) == dense(b))


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
                assert op.is_identity() == dense_is_identity(dense(op))
                found.append(op.is_identity())
            assert any(found), (gram, mat)
            if desc["cover"] == "double-cover":
                assert all(found), (gram, mat)
            x = mp_word(rng)
            op = rho_closed(lattice, x)
            assert op.is_identity() == dense_is_identity(dense(op))
        # a scalar that is a root of unity but not the one the diagonal needs
        t = rho_T(lattice.discriminant_form())
        off = PhaseOperator(-t.coeff, t.phases, t.form)
        assert not off.is_identity() and not dense_is_identity(dense(off))


def test_operator_product_equals_dense_reference():
    # phase x phase, phase x ring, ring x phase and ring x ring on the
    # operators of dense_product_cases (closed formula and word oracle), each
    # against the naive dense product and, on integers, against rho(xy)
    for lattice, elements in dense_product_cases():
        for k, (x, y) in enumerate(zip(elements[::2], elements[1::2])):
            y = MpElement(y.mat, (1, -1)[k % 2] * y.eps)
            phase = rho_closed(lattice, x), rho_closed(lattice, y)
            ring = rho_oracle(lattice, x), rho_oracle(lattice, y)
            ref = dense_product(dense(phase[0]), dense(phase[1]))
            xy = rho_closed(lattice, mp_mul(x, y))
            for a in (phase[0], ring[0]):
                for b in (phase[1], ring[1]):
                    got = a * b
                    assert isinstance(got, RingOperator) and got.coeff == a.coeff * b.coeff
                    assert got == ref, (lattice.gram, x, y)
                    assert got == xy and xy == got, (lattice.gram, x, y)


def test_operator_products_at_large_discriminants():
    # A2(5) and diag(2, 6, 10): the four operand types against rho(xy), the
    # ring operands built as products rho(x1) rho(x2) with x = x1 x2, so
    # that a ring x ring product repacks its narrower operands
    for gram in (A2_5, DIAG_2_6_10):
        lattice = GramLattice(gram)
        rng = random.Random(27)
        repacked = 0
        for _ in range(2):
            x1, x2, y1, y2 = (mp_word(rng) for _ in range(4))
            x, y = mp_mul(x1, x2), mp_mul(y1, y2)
            closed = [neg_symmetric(rho_closed(lattice, z)) for z in (x, y, x1, x2, y1, y2)]
            phase = closed[0], closed[1]
            ring = closed[2] * closed[3], closed[4] * closed[5]
            assert ring[0] == phase[0] and ring[1] == phase[1]
            xy = neg_symmetric(rho_closed(lattice, mp_mul(x, y)))
            for a in (phase[0], ring[0]):
                for b in (phase[1], ring[1]):
                    got = a * b
                    widths = [op.width for op in (a, b) if isinstance(op, RingOperator)]
                    repacked += any(w < got.width for w in widths)
                    assert xy == got, (gram, x, y)
        assert repacked


def test_is_unitary_agrees_with_dense():
    # True on the formula-built operators; false with one phase moved in a
    # column that has another nonzero cell, and with the scalar doubled.
    # The dense product with the conjugate transpose agrees.
    rng = random.Random(28)
    for name, op in phase_corpus():
        if op.dim > 32:
            continue
        bad = [PhaseOperator(op.coeff * 2, op.phases, op.form)]
        cells = [(i, j) for i, row in enumerate(op.phases) for j, k in enumerate(row)
                 if k != ZERO_PHASE and sum(r[j] != ZERO_PHASE for r in op.phases) > 1]
        if cells and op.level > 1:
            i, j = rng.choice(cells)
            phases = [row[:] for row in op.phases]
            phases[i][j] = (phases[i][j] + 1) % op.level
            bad.append(PhaseOperator(op.coeff, phases, op.form))
        assert op.is_unitary(), name
        assert all(not b.is_unitary() for b in bad), name
        if op.dim <= 12:
            for cand, unitary in [(op, True)] + [(b, False) for b in bad]:
                ref = dense(cand)
                assert dense_is_identity(dense_product(ref, dense_adjoint(ref))) == unitary
                assert cand.adjoint() == dense_adjoint(ref), name


def test_operator_product_checks_the_cap_before_packing(monkeypatch):
    import exactweil.lattice as lattice_mod
    import exactweil.weilrep as weilrep_mod

    # Delta 8, level 8: 8^2 cells of 8 coefficients, 8^2 + 8^2 * 7 = 512
    s = rho_S(GramLattice([[2, 0], [0, 4]]).discriminant_form())
    ring = s * s
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 512)
    assert s * ring == ring * s
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 511)

    def no_packing(*args):
        raise AssertionError("operands packed past the cap")

    for cls in (PhaseOperator, RingOperator):
        monkeypatch.setattr(cls, "_sums", no_packing)
        monkeypatch.setattr(cls, "_packed", no_packing)
    monkeypatch.setattr(weilrep_mod, "_fold_products", no_packing)
    for a, b in ((s, s), (s, ring), (ring, s), (ring, ring)):
        with pytest.raises(CapExceededError, match="would hold 512 integers"):
            a * b


def test_operator_product_rejects_mixed_forms_and_levels():
    s = rho_S(A1.discriminant_form())
    other = rho_S(GramLattice([[-2]]).discriminant_form())  # same labels and level
    assert s.labels == other.labels and s.level == other.level
    lattice = GramLattice([[2, 0], [0, 6]])
    t2, _ = rho_p_generators(lattice, 2)
    for a, b in ((s, other), (s * s, other), (rho_T(lattice.discriminant_form()), t2)):
        with pytest.raises(ValueError, match="needs one form"):
            a * b
        with pytest.raises(ValueError, match="needs one form"):
            b * a
    with pytest.raises(TypeError):
        s * dense(s)
    with pytest.raises(TypeError):
        dense(s) * s


def test_every_operator_reads_basis_and_level_off_its_form():
    # T, S, Z, the p-part generators, the closed formula, the oracle,
    # products, adjoints, the tensor product over the p-parts and the
    # identity each live on the form they were built from, at its level,
    # with a dim x dim table.  Three refusals: the identity on another
    # basis, a product across forms, and equality across bases of
    # different orders.
    def check(op, form):
        assert (op.level, op.dim, op.labels) == (form.level, form.delta, form.elements())
        cells = op.phases if isinstance(op, PhaseOperator) else op.ring
        assert len(cells) == form.delta and all(len(row) == form.delta for row in cells)
        if isinstance(op, RingOperator):
            assert all(len(c) == form.level for c in op.coeffs.values())

    forms, units = [], []
    for gram in EVEN_GRAMS + ODD_GRAMS + [A2_5, DIAG_2_6_10]:
        lattice = GramLattice(gram)
        form = lattice.discriminant_form()
        x = MpElement(SL2(2, 1, 3, 2) if lattice.is_even else SL2(3, 2, 4, 3), -1)
        closed, oracle = rho_closed(lattice, x), rho_oracle(lattice, x)
        s, z = rho_S(form), rho_Z(form)
        one = WeilOperator.identity(form.elements(), form)
        ops = [s, z, closed, oracle, closed * oracle, oracle * closed, s * s,
               closed.adjoint(), one]
        if lattice.is_even:
            ops.append(rho_T(form))
            t_ops, s_ops, local = [], [], []
            for p in sorted(interesting_primes(lattice) | {5}):
                t_p, s_p = rho_p_generators(lattice, p)
                part = form.p_part(p)
                for op in (t_p, s_p, t_p * s_p, s_p.adjoint()):
                    assert op.form.orders == part.orders
                    check(op, part)
                if p in interesting_primes(lattice):
                    t_ops.append(t_p)
                    s_ops.append(s_p)
                    local.append([t_p.form.index(t_p.form.project(g)) for g in form.elements()])
            ops += [_kronecker(form, t_ops, local), _kronecker(form, s_ops, local)]
        for op in ops:
            assert op.form is form, gram
            check(op, form)
        if form.delta > 1:
            with pytest.raises(ValueError, match="its form's elements"):
                WeilOperator.identity(form.elements()[::-1], form)
        forms.append(form)
        units.append((one, rho_oracle(lattice, MP_ONE), s))
    assert any(a.level == b.level and a.orders != b.orders for a in forms for b in forms)
    for a, (one_a, ring_a, s_a) in zip(forms, units):
        for b, (one_b, ring_b, s_b) in zip(forms, units):
            if a is b:
                continue
            with pytest.raises(ValueError, match="needs one form"):
                s_a * s_b
            if a.orders != b.orders:
                with pytest.raises(ValueError, match="its form's elements"):
                    WeilOperator.identity(b.elements(), a)
                for left, right in ((one_a, one_b), (ring_a, one_b), (one_a, ring_b),
                                    (ring_a, ring_b)):
                    assert left != right and not left == right, (a.orders, b.orders)


def test_group_law_and_unitarity_at_large_discriminants():
    # A2(5) and diag(2, 6, 10), Delta = 75 and 120: rho(xy) = rho(x) rho(y)
    # on seeded pairs with all four sign combinations, unitarity, and the
    # generator relations
    for gram in (A2_5, DIAG_2_6_10):
        lattice = GramLattice(gram)
        form = lattice.discriminant_form()
        rng = random.Random(29)
        for k in range(4):
            x = MpElement(bounded_sl2(rng), (1, -1)[k % 2])
            y = MpElement(bounded_sl2(rng), (1, -1)[k // 2])
            op_x = neg_symmetric(rho_closed(lattice, x))
            op_y = neg_symmetric(rho_closed(lattice, y))
            assert neg_symmetric(rho_closed(lattice, mp_mul(x, y))) == op_x * op_y, (gram, x, y)
            assert op_x.is_unitary()
        s, z = rho_S(form), rho_Z(form)
        st = s * rho_T(form)
        assert s * s == z and st * st * st == z and (z * z * z * z).is_identity()


def _unimodular(m, moves, flips, mix=False):
    """U: elementary column moves i += k j, then sign changes of the
    columns, applied to the identity, or with mix to the identity plus
    e_{m-1,0}, whose first move adds the first coordinate into the last."""
    u = [[int(i == j or (mix and (i, j) == (m - 1, 0))) for j in range(m)] for i in range(m)]
    for i, j, k in moves:
        if i % m != j % m:
            for row in u:
                row[i % m] += k * row[j % m]
    return [[-a if flip else a for a, flip in zip(row, flips)] for row in u]


def _moved(lattice, u):
    """The lattice with Gram matrix U^T G U."""
    gram, m = lattice.gram, lattice.rank
    return GramLattice([[sum(u[k][i] * gram[k][l] * u[l][j] for k in range(m) for l in range(m))
                         for j in range(m)] for i in range(m)])


# Even blocks of rank 1 and 2, with |det| 1 to 75, summed into lattices of
# rank <= 4 and Delta <= 300.
EVEN_BLOCKS = ([[2]], [[-2]], [[4]], [[6]], [[-10]], [[12]], [[2, 1], [1, 2]],
               [[2, 1], [1, 4]], [[0, 1], [1, 0]], [[0, 2], [2, 0]], [[2, 1], [1, -2]],
               [[-4, 2], [2, -4]], [[6, 3], [3, 6]], A2_5, [[4, 1], [1, -4]])


@settings(max_examples=12, deadline=None)
@example([[[2]], [[2]], [[4]]], [(0, 2, 1)], [False, False, False, False], 2, 1)
@example([A2_5, [[4]]], [(0, 1, 2), (1, 2, -1), (2, 0, 1), (0, 2, 2)],
         [True, False, True, False], 28, 5)
@example([[[6, 3], [3, 6]], [[2]], [[-4]]], [(2, 0, 1), (0, 1, -2), (1, 2, 1), (3, 1, 1)],
         [False, True, True, False], -6, 5)
@example([[[2, 1], [1, -2]], [[6]], [[-10]]], [(0, 2, 1), (2, 1, 2), (1, 0, -1), (0, 3, 1)],
         [True, True, False, False], 14, -3)
@example([[[12]], [[-2]], [[2, 1], [1, 4]]], [(0, 3, 1), (3, 1, -1), (1, 2, 2), (2, 0, 1)],
         [False, False, True, True], 20, 9)
@given(st.lists(st.sampled_from(EVEN_BLOCKS), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)),
                max_size=8),
       st.lists(st.booleans(), min_size=4, max_size=4),
       st.integers(-40, 40), st.integers(-40, 40))
def test_closed_formula_is_isometry_equivariant(blocks, moves, flips, c, d):
    # U, a product of elementary column moves and sign changes, maps
    # G' = U^T G U to G by v' -> U v', which induces an isometry
    # sigma: D' -> D; rho_G'(x) = P_sigma^-1 rho_G(x) P_sigma exactly, and
    # the basis-invariant data agree.  No oracle: Delta reaches 300.
    lattice = reduce(direct_sum, map(GramLattice, blocks))
    gram, m = lattice.gram, lattice.rank
    assume(m <= 4 and gcd(c, d) == 1)
    assume(lattice.delta() <= 300)
    u = _unimodular(m, moves, flips)
    moved = _moved(lattice, u)
    form, other = lattice.discriminant_form(), moved.discriminant_form()
    sigma = [form.index(class_of_dual_vector(form, [sum(map(mul, row, v)) for row in u]))
             for v in (lift(other, g) for g in other.elements())]
    assert sorted(sigma) == list(range(form.delta))
    mat = bezout_sl2(c, d)
    for eps in (1, -1):
        x = MpElement(mat, eps)
        op, image = neg_symmetric(rho_closed(lattice, x)), rho_closed(moved, x)
        assert (image.coeff, image.level) == (op.coeff, op.level), (gram, u, mat)
        assert image.phases == [[op.phases[si][sj] for sj in sigma] for si in sigma], \
            (gram, u, mat)
    for p in sorted(interesting_primes(lattice) | {2}):
        assert weil_index_lattice(moved, p) == weil_index_lattice(lattice, p)
    assert kernel_descriptor(moved) == kernel_descriptor(lattice)
    n = lattice.level()
    for k, t in ((k, t) for k in (1, -2) for t in (d, 2 * d + 1) if gcd(n * k, t) == 1):
        y = MpElement(bezout_sl2(n * k, t), (1, -1)[k % 2])
        assert phi_char(moved, y) == phi_char(lattice, y)


# The lattices of the closed == oracle tests, even and odd, Delta 1 to 120.
ORACLE_GRAMS = EVEN_GRAMS + ODD_GRAMS + RHO_MID + [A2_5, [[100]], DIAG_2_6_10]


@settings(max_examples=60, deadline=None)
@example([[3]], DIAG_2_6_10, [(0, 3, 1), (2, 1, -1)], [False, True, False, True], -6, -11)
@example([[6]], A2_5, [(1, 0, 2), (2, 1, 1)], [True, False, False, False], 17, 20)
@example([[1, 0], [0, 2]], [[6, 3], [3, 6]], [], [False, False, True, False], 5, 18)
@given(st.sampled_from(ORACLE_GRAMS), st.sampled_from(ORACLE_GRAMS),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)),
                max_size=6),
       st.lists(st.booleans(), min_size=4, max_size=4),
       st.integers(-40, 40), st.integers(-40, 40))
def test_closed_formula_of_a_direct_sum_is_the_tensor_product(g1, g2, moves, flips, c, d):
    # rho_{L1 + L2}(x) = rho_L1(x) (x) rho_L2(x) for the same (A, eps), on a
    # sum moved by a unimodular U whose first move mixes the summands.  D of
    # the moved sum maps to D1 x D2 by v' -> U v', split into the summands'
    # coordinates; _kronecker adds the factors' phases scaled to N and
    # multiplies their scalars.  No oracle: Delta reaches 480.
    l1, l2 = GramLattice(g1), GramLattice(g2)
    total = direct_sum(l1, l2)
    gram, m, m1 = total.gram, total.rank, l1.rank
    assume(m <= 4 and gcd(c, d) == 1 and total.delta() <= 480)
    mat = bezout_sl2(c, d)
    assume(total.is_even or gamma_odd_member(mat))
    u = _unimodular(m, moves, flips, mix=True)
    moved = _moved(total, u)
    form, f1, f2 = moved.discriminant_form(), l1.discriminant_form(), l2.discriminant_form()
    local = [[], []]
    for g in form.elements():
        v = [sum(map(mul, row, lift(form, g))) for row in u]
        local[0].append(f1.index(class_of_dual_vector(f1, v[:m1])))
        local[1].append(f2.index(class_of_dual_vector(f2, v[m1:])))
    assert sorted(zip(*local)) == sorted(product(range(f1.delta), range(f2.delta)))
    for eps in (1, -1):
        x = MpElement(mat, eps)
        try:
            op = rho_closed(moved, x)
        except CapExceededError:
            reject()  # the dense cap is checked before any work
        assert op == _kronecker(form, [rho_closed(l1, x), rho_closed(l2, x)], local), \
            (g1, g2, u, mat, eps)


U_GRAM = [[0, 1], [1, 0]]


def test_closed_formula_depends_only_on_the_discriminant_form():
    # rho_{L + K} = rho_L for K even unimodular of signature 0 mod 8: U,
    # U + U and E8.  L + K is moved by a unimodular U whose first move mixes
    # the summands; D(L + K) maps to D(L) by v' -> U v' cut to L's
    # coordinates, and coeff and phases agree exactly, at even and odd c
    # with both signs.  No oracle: x_c is read from a 2-adic basis of rank
    # up to 10 (E8 on L of rank <= 2, two draws at about 0.2 s an op, where
    # x_c != 0 at scales 2 and 4).
    rng = random.Random(37)
    even = [g for g in ORACLE_GRAMS if GramLattice(g).is_even]
    u_sums = [U_GRAM, direct_sum(GramLattice(U_GRAM), GramLattice(U_GRAM)).gram]
    draws = [(g, k, rng.choice((2, -2, 4, 6, -12, 8))) for k in u_sums
             for g in rng.sample(even, 5)]
    draws += [([[2]], E8_GRAM, 6), ([[2, 0], [0, 4]], E8_GRAM, -4)]
    seen = set()
    for l_gram, k_gram, c_even in draws:
        small = GramLattice(l_gram)
        total = direct_sum(small, GramLattice(k_gram))
        m, m1 = total.rank, small.rank
        moves = [(rng.randrange(m), rng.randrange(m), rng.choice((-1, 1))) for _ in range(3)]
        u = _unimodular(m, moves, [rng.random() < 0.5 for _ in range(m)], mix=True)
        moved = _moved(total, u)
        form, local = moved.discriminant_form(), small.discriminant_form()
        sigma = [local.index(class_of_dual_vector(local, [sum(map(mul, row, lift(form, g)))
                                                          for row in u][:m1]))
                 for g in form.elements()]
        assert sorted(sigma) == list(range(local.delta)), (l_gram, u)
        for c in (c_even, rng.choice((1, -3, 5, 7, -9))):
            d = rng.choice([d for d in range(-40, 41) if gcd(c, d) == 1])
            if c % 2 == 0 and choose_xc(jordan_decompose(small, 2), c) != local.zero():
                seen.add(("x_c", len(k_gram)))
            for eps in (1, -1):
                x = MpElement(bezout_sl2(c, d), eps)
                op, image = rho_closed(small, x), rho_closed(moved, x)
                assert (image.coeff, image.level) == (op.coeff, op.level), (l_gram, u, x)
                assert image.phases == [[op.phases[si][sj] for sj in sigma] for si in sigma], \
                    (l_gram, u, x)
                seen.add((len(k_gram), c % 2))
    assert seen >= {(k, parity) for k in (2, 4, 8) for parity in (0, 1)} | {("x_c", 8)}, seen


def test_closed_split_is_canonical():
    # rho_closed's scalar is e(r/8) sqrt(1/|D/D_c|) for exactly one r in
    # [0, M/N), M = lcm(8, N), so M/N = 8/gcd(8, N): no two such scalars
    # differ by an N-th root of unity, so (coeff, phases) is a function of
    # the operator.  Column 0 (e_0) has |D/D_c| nonzero cells.
    mats = (SL2(1, 0, 0, 1), SL2(-1, 2, 0, -1), SL2(1, 0, 2, 1), SL2(3, 2, 4, 3),
            SL2(5, 2, -8, -3), S_MAT, SL2(2, 1, 3, 2), SL2(4, 1, 7, 2), SL2(2, -1, 5, -2),
            SL2(3, 2, 7, 5))
    for gram in EVEN_GRAMS + ODD_GRAMS + [A2_5, DIAG_2_6_10]:
        lattice = GramLattice(gram)
        for mat in mats:
            if not lattice.is_even and not gamma_odd_member(mat):
                continue
            for eps in (1, -1):
                op = rho_closed(lattice, MpElement(mat, eps))
                z = sum(row[0] != ZERO_PHASE for row in op.phases)
                big = lcm(8, op.level)
                root = sqrt_rat(Fraction(1, z))
                assert sum(op.coeff == root_of_unity(r, 8) * root
                           for r in range(big // op.level)) == 1, (gram, mat, eps)


# Each snippet corrupts one invariant; the check must still raise under -O.
_CORRUPTIONS = {
    "cyclotomic degree": ("ArithmeticError", """
        from exactweil import exact
        exact._phi_cache[105] = 47
        exact.cyclotomic_polynomial(105)
    """),
    "product forms": ("ValueError: an operator product", """
        from exactweil.lattice import GramLattice
        from exactweil.weilrep import rho_S
        rho_S(GramLattice([[2]]).discriminant_form()) \\
            * rho_S(GramLattice([[-2]]).discriminant_form())
    """),
    "product cell width": ("ArithmeticError: group ring cell", """
        from exactweil import weilrep
        from exactweil.lattice import GramLattice
        width = weilrep._product_width
        weilrep._product_width = lambda *args: width(*args) - 1
        s = weilrep.rho_S(GramLattice([[2]]).discriminant_form())
        s * s
    """),
    "oracle word": ("ArithmeticError", """
        from exactweil import metaplectic, weilrep
        from exactweil.lattice import GramLattice
        from exactweil.metaplectic import MP_T, MpElement, SL2
        metaplectic.word_mp = lambda word: MP_T
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
        from exactweil.lattice import GramLattice
        from exactweil.weilrep import PhaseOperator
        PhaseOperator(from_rational(1), [[0, -1], [-1, 4]],
                      GramLattice([[2]]).discriminant_form())
    """),
    "smith pivot": ("ArithmeticError", """
        from exactweil import lattice
        lattice._det_int = lambda rows: 1
        lattice.smith_normal_form([[0, 0], [0, 0]])
    """),
    "smith orders": ("ArithmeticError", """
        from exactweil.lattice import GramLattice
        GramLattice.delta = lambda self: 7
        GramLattice([[2]]).discriminant_form()
    """),
    "odd level": ("ArithmeticError", """
        from exactweil import lattice
        from exactweil.lattice import GramLattice
        lattice.smith_normal_form = lambda rows: ([[1]], [[1]], [[2]])
        GramLattice([[1]]).discriminant_form()
    """),
    "local gram division": ("ArithmeticError: 1/6 is not a value", """
        from exactweil.lattice import DiscriminantForm
        DiscriminantForm((2,), [[1]], [1], 6).p_part(2)
    """),
    "jordan blocks": ("ArithmeticError", """
        from exactweil import jordan
        from exactweil.lattice import GramLattice
        jordan._det_int = lambda rows: 3
        jordan.jordan_decompose(GramLattice([[2]]), 2)
    """),
    "jordan basis integrality": ("ArithmeticError: the Jordan basis at p = 2 is not integral", """
        from fractions import Fraction
        from exactweil.jordan import JordanComponent, JordanDecomposition, _validate_blocks
        from exactweil.lattice import GramLattice
        half, one = Fraction(1, 2), Fraction(1)
        _validate_blocks(JordanDecomposition(
            GramLattice([[2, 0], [0, 2]]), 2,
            (JordanComponent(2, 0, 1, 1, 1), JordanComponent(2, 2, 1, 1, 1)),
            ((half, half), (one, -one)), (((0,),), ((1,),))))
    """),
    "jordan symbol valuation": ("ArithmeticError", """
        from exactweil import jordan
        from exactweil.lattice import GramLattice
        GramLattice.det = lambda self: 54
        jordan.jordan_components(GramLattice([[2]]), 3)
    """),
    "decomposed word": ("ArithmeticError", """
        from exactweil import metaplectic
        from exactweil.metaplectic import MP_ONE, SL2
        metaplectic.word_mp = lambda word: MP_ONE
        metaplectic.decompose(SL2(0, -1, 1, 0), 1)
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
    entries = op.entries
    assert len({id(entries[i][j]) for i, j in cells}) < len(cells)
    i, j = cells[0]
    out["entries"][i][j]["coeffs"].append("7")
    out["entries"][i][j]["order"] = -1
    for k, m in cells[1:]:
        assert out["entries"][k][m] == fresh["entries"][k][m]


def test_phase_paths_build_no_fraction(monkeypatch):
    import exactweil.lattice as lattice_mod
    import exactweil.metaplectic as metaplectic_mod
    import exactweil.numth as numth_mod
    import exactweil.weilrep as weilrep_mod

    even, odd = GramLattice([[2, 0], [0, 6]]), GramLattice([[1, 0], [0, 4]])
    mat, odd_mat = SL2(1, 1, 2, 3), SL2(2, 1, 3, 2)
    prepared = []
    for lattice, m in ((even, mat), (odd, odd_mat), (odd, SL2(1, 0, 2, 1))):
        form = lattice.discriminant_form()
        x_c = form.zero() if m.c % 2 else weilrep_mod.choose_xc(jordan_decompose(lattice, 2), m.c)
        prepared.append((form, m, x_c))
    coeff = root_of_unity(1, 8) * sqrt_rat(Fraction(1, 3))
    s_op = rho_S(even.discriminant_form())

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("Fraction built on an integer path")

    for module in (lattice_mod, metaplectic_mod, numth_mod, weilrep_mod):
        monkeypatch.setattr(module, "Fraction", NoFraction)
    for form, m, x_c in prepared:
        weilrep_mod._closed_assembly(form, m, coeff, 3, form.coset_Dcstar(m.c, x_c))
        weilrep_mod._closed_assembly(form, SL2(-1, 4, 0, -1),
                                     root_of_unity(weilrep_mod._c0_scalar(form.signature, -1, -1), 8),
                                     0, form.coset_Dcstar(0, form.zero()))
        weilrep_mod._group_ring_product(form, [("T", 2), ("S", 1), ("T", -2), ("S", -1)])
        # the word oracle's bookkeeping: the word, its sign and the ring product
        word = decompose(m, 1 if form.lattice.is_even else 2)[0]
        word_mp(word)
        weilrep_mod._group_ring_product(form, word + [("T", 2)])
    mp_mul(MP_S, mp_mul(MP_S_INV, MP_S))
    form = even.discriminant_form()
    rho_T(form), form.milgram_sum()
    # the operator product, in each operand combination, and its checks
    st = s_op * rho_T(form)
    (st * st).is_identity(), (st * s_op) == s_op * st, s_op.is_unitary()
    weilrep_mod._fourier(form, coeff)
    part = form.p_part(2)
    rho_T(part), weilrep_mod._fourier(part, coeff)


def test_local_factors_build_no_fraction(monkeypatch):
    # With each lattice's Jordan components and Weil indices computed
    # beforehand, the local factors are integer work: no Fraction in the
    # valuations, units and symbols they read.
    import exactweil.lattice as lattice_mod
    import exactweil.metaplectic as metaplectic_mod
    import exactweil.numth as numth_mod
    import exactweil.weilrep as weilrep_mod

    lattices = [GramLattice(g) for g in EVEN_GRAMS + RHO_MID + [A2_5, DIAG_2_6_10]]
    mats = [SL2(1, 1, 2, 3), SL2(-3, 1, -16, 5), SL2(7, 2, 45, 13), SL2(0, -1, 1, 0),
            SL2(1, 0, 120, 1), SL2(-1, 0, -360, -1), SL2(-1, 3, 0, -1)]
    components, indices = {}, {}
    for lattice in lattices:
        lattice.discriminant_form()
        for p in interesting_primes(lattice) | {2, 3, 5}:
            components[id(lattice), p] = jordan_components(lattice, p)
            indices[id(lattice), p] = weil_index_lattice(lattice, p)
    monkeypatch.setattr(weilrep_mod, "jordan_components",
                        lambda lattice, p: components[id(lattice), p])
    monkeypatch.setattr(weilrep_mod, "weil_index_lattice",
                        lambda lattice, p: indices[id(lattice), p])

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("Fraction built on an integer path")

    for module in (lattice_mod, metaplectic_mod, numth_mod, weilrep_mod):
        monkeypatch.setattr(module, "Fraction", NoFraction)
    for lattice in lattices:
        for mat in mats:
            for eps in (1, -1):
                x = MpElement(mat, eps)
                for p in (2, 3, 5):
                    xi_p(lattice, mat, eps, p, components[id(lattice), p])
                weilrep_mod._xi_product(lattice, mat, eps, components[id(lattice), 2])
                if mat.c % lattice.level() == 0:
                    phi_char(lattice, x)
        kernel_descriptor(lattice)


SUM_GRAMS = EVEN_GRAMS + ODD_GRAMS + RHO_MID + [A2_5, DIAG_2_6_10]


def _sum_cases(gram):
    """(key, terms, thunk, per-term reference) for the Milgram sum of an even
    lattice, Braun's sum at c = +-N and +-2N within 4000 terms, and the
    local Gauss sums at p = 2, 3, 5 with c in {p, p^2, 2p, -p}."""
    lattice = GramLattice(gram)
    m, n = lattice.rank, lattice.level()
    cases = []
    if lattice.is_even:
        form = lattice.discriminant_form()
        cases.append((("milgram", gram), form.delta, form.milgram_sum,
                      lambda: milgram_by_terms(form)))
    for c in (n, -n, 2 * n, -2 * n):
        if abs(c) ** m <= 4000:
            cases.append((("braun", gram, c), abs(c) ** m, lambda c=c: braun_check(lattice, c),
                          lambda c=c: braun_by_terms(lattice, c)))
    for p in (2, 3, 5):
        for a, c in ((1, p), (-1, p * p), (3 if p != 3 else 2, 2 * p), (1, -p)):
            v = valuation_split(c, p).valuation
            if p ** (v * (m + 1)) <= 4000:
                cases.append((("gauss", gram, p, a, c), p ** (v * m),
                              lambda p=p, a=a, c=c: gauss_sum_brute(lattice, p, a, c),
                              lambda p=p, a=a, c=c: gauss_by_terms(lattice, p, a, c)))
    return cases


def test_sums_of_roots_build_no_fraction(monkeypatch):
    # milgram_sum, braun_check and gauss_sum_brute count integer exponents
    # into one root_sum: no Fraction, no ExactScalar addition, and a number
    # of scalars built that does not grow with the number of terms.  The
    # 2-adic decompositions, whose basis is rational, are computed first.
    import exactweil.exact as exact_mod
    import exactweil.jordan as jordan_mod
    import exactweil.lattice as lattice_mod
    import exactweil.numth as numth_mod
    import exactweil.weilrep as weilrep_mod

    cases = [case for gram in SUM_GRAMS for case in _sum_cases(gram)]
    decomps = {}
    for gram in SUM_GRAMS:
        lattice = GramLattice(gram)
        lattice.discriminant_form()
        decomps[lattice.gram] = jordan_decompose(lattice, 2)
    monkeypatch.setattr(jordan_mod, "jordan_decompose",
                        lambda lattice, p: decomps[lattice.gram])
    for p in (2, 3, 5, 7, 11):
        exact_mod.sqrt_rat(p)  # the cached square roots, built once by design

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("Fraction built in a sum of roots of unity")

    def no_add(self, other):
        raise AssertionError("a sum of roots of unity added ExactScalars")

    built = [0]
    init = ExactScalar.__init__

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)

    for module in (jordan_mod, lattice_mod, numth_mod, weilrep_mod):
        monkeypatch.setattr(module, "Fraction", NoFraction)
    monkeypatch.setattr(ExactScalar, "__add__", no_add)
    monkeypatch.setattr(ExactScalar, "__init__", counted_init)
    for key, _, thunk, _ in cases:
        built[0] = 0
        thunk()
        assert built[0] <= 12, (key, built[0])
    assert max(terms for _, terms, _, _ in cases) >= 100


def _assert_sums_match_per_term_references(gram):
    import exactweil.weilrep as weilrep_mod

    left = []
    root_sum = weilrep_mod.root_sum

    def spy(ks, n):
        left.append(root_sum(ks, n))
        return left[-1]

    for key, _, thunk, reference in _sum_cases(gram):
        left.clear()
        weilrep_mod.root_sum = spy
        try:
            value = thunk()
        finally:
            weilrep_mod.root_sum = root_sum
        if key[0] == "braun":
            assert value, key
            (value,) = left
        assert value.to_json() == reference().to_json(), key


def test_sums_of_roots_match_per_term_references():
    # The order of each sum is n/gcd(n, exponents), the order a sum of the
    # separate roots of unity has; the JSON pins it with the value.
    for gram in SUM_GRAMS:
        _assert_sums_match_per_term_references(gram)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sums_of_roots_match_per_term_references_on_random_lattices(data):
    n = data.draw(st.integers(1, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = data.draw(st.integers(-6, 6))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(st.integers(-3, 3))
    assume(_det_int(rows) != 0)
    _assert_sums_match_per_term_references(rows)


def test_no_assert_statements_in_src():
    # Runtime invariants raise explicitly so that they hold under python -O.
    src = pathlib.Path(exactweil.__file__).resolve().parent
    modules = sorted(src.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, "%s has assert statements at lines %s" % (path.name, found)
