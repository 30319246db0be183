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
from math import gcd
from operator import mul

import exactweil
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import EVEN_GRAMS, ODD_GRAMS
from exactweil.exact import from_powers, from_rational, root_of_unity, sqrt_rat
from exactweil.jordan import (
    choose_xc,
    jordan_decompose,
    scale_component,
    weil_index_component,
    weil_index_lattice,
)
from exactweil.lattice import CapExceededError, GramLattice, direct_sum, interesting_primes
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
from reference import (DenseOperator, class_of_dual_vector, dense, dense_adjoint,
                       dense_identity, dense_is_identity, dense_product, dense_scale, lift,
                       r0_direct)

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
            assert cells[left.index_of(g)][left.index_of(h)] \
                == other[right.index_of(g)][right.index_of(h)]


def nonzero_element(form):
    return next(g for g in form.elements() if g != form.zero())


def test_rho_t_tables():
    f = A1.discriminant_form()
    t = rho_T(f)
    z, g = f.zero(), nonzero_element(f)
    assert t.dim == 2
    cells = t.entries
    assert cells[t.index_of(z)][t.index_of(z)] == ONE
    assert cells[t.index_of(g)][t.index_of(g)] == root_of_unity(1, 4)
    assert cells[t.index_of(z)][t.index_of(g)].is_zero()
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
    iz, ig = s.index_of(z), s.index_of(g)
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
        assert cells[z2.index_of(f2.neg(g))][z2.index_of(g)] == from_rational(-1)


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
        yield name, PhaseOperator(op.labels, op.coeff, op.level, phases, op.form)
    yield "coeff negated", PhaseOperator(op.labels, -op.coeff, op.level, op.phases, op.form)


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
        # another level: the same operator at level 2N compares cell scalars
        other = shifted(closed, rng.randrange(closed.level), 2)
        assert (other == oracle) and (oracle == other) and dense(other) == ref
    assert unequal > 1000


def rotated(op, k):
    """A RingOperator equal to op: its scalar times e(k/N), and each packed
    cell times x^-k."""
    n, width = op.level, op.width
    low = (1 << n * width) - 1
    ring = [[v >> k * width | v << (n - k) * width & low for v in row] for row in op.ring]
    return RingOperator(op.labels, op.coeff * root_of_unity(k, n), n, width, ring, op.form)


def ring_corruptions(op, rng):
    """(name, operator): op with the constant coefficient of one packed cell
    moved by one, and with its scalar negated."""
    i, j = rng.randrange(op.dim), rng.randrange(op.dim)
    ring = [row[:] for row in op.ring]
    ring[i][j] ^= 1
    yield "one cell", RingOperator(op.labels, op.coeff, op.level, op.width, ring, op.form)
    yield "coeff negated", RingOperator(op.labels, -op.coeff, op.level, op.width, op.ring,
                                        op.form)


def test_value_equality_agrees_with_dense_equality(monkeypatch):
    # The pairs no integer path decides, each compared by its cell scalars:
    # two ring operators with different scalars, and a phase or a ring
    # operator at level 2N against the oracle at level N.  Each equals the
    # oracle, and one changed cell or a changed scalar breaks that, as the
    # dense comparison of the cells says.
    def no_phase_path(self, op):
        raise AssertionError("an integer path compared operators it cannot decide")

    rng = random.Random(30)
    unequal = 0
    for lattice, x in ring_equality_cases():
        oracle = rho_oracle(lattice, x)
        ref = dense(oracle)
        n = oracle.level
        phase = shifted(rho_closed(lattice, x), rng.randrange(n), 2)
        double = WeilOperator.identity(oracle.labels, oracle.form, 2 * n)
        ring = rotated(oracle, rng.randrange(1, n) if n > 1 else 0)
        assert ring.coeff != oracle.coeff or n == 1
        cases = [(ring, ring_corruptions(ring, rng)), (phase, phase_corruptions(phase, rng)),
                 (phase * double, ring_corruptions(phase * double, rng))]
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
        assert isinstance(one, PhaseOperator) and one.level == 1
        assert one.is_identity() and z4.is_identity()
        assert one == z4 and z4 == one, gram
        assert dense(one) == dense_identity(form) and dense(z4) == dense_identity(form)
        minus = PhaseOperator(one.labels, -ONE, 1, one.phases, form)
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
            assert digest(op.to_json(64)) == digest(ref.to_json(64))
            assert op.to_numeric_json(64) == ref.to_numeric_json(64)


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
    out = op.to_json(64)
    assert op.dim == 64 and len(calls) == 32
    assert out["entries_numeric"] == per_cell


def test_closed_examples():
    f = A1.discriminant_form()
    assert rho_closed(A1, MP_T) == rho_T(f)
    assert rho_closed(A1, MpElement(S_MAT, 1)) == rho_S(f)
    assert rho_closed(A1, MP_Z) == dense_identity(f, root_of_unity(-1, 4))


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
            cells = op.entries
            for g in form.elements():
                j = op.index_of(g)
                support = {op.labels[i] for i in range(op.dim) if not cells[i][j].is_zero()}
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
    # The phase table, its `entries` view (one object per phase) and a dense
    # matrix with one scalar object per cell encode to the same bytes.
    for name, op in phase_corpus():
        assert isinstance(op, PhaseOperator)
        ref = dense(op)
        plain = digest(op.to_json())
        assert plain == digest(ref.to_json()), name
        if op.dim <= 32:
            assert digest(op.to_json(64)) == digest(ref.to_json(64)), name
        cells = [[from_rational(0) if k == ZERO_PHASE
                  else op.coeff * root_of_unity(k, op.level) for k in row]
                 for row in op.phases]
        unshared = DenseOperator(op.labels, cells, op.form)
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
        assert op == dense(other) and dense(op) == other
        # one cell's phase moved by one, one cell switched between zero and
        # nonzero, and the scalar negated
        i, j = rng.randrange(op.dim), rng.randrange(op.dim)
        k = op.phases[i][j]
        for new in ((k + 1) % op.level if k != ZERO_PHASE else k,
                    0 if k == ZERO_PHASE else ZERO_PHASE):
            phases = [row[:] for row in op.phases]
            phases[i][j] = new
            moved = PhaseOperator(op.labels, op.coeff, op.level, phases, op.form)
            assert (op == moved) == (dense(op) == dense(moved)), (op, i, j, new)
        negated = PhaseOperator(op.labels, -op.coeff, op.level, op.phases, op.form)
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
        off = PhaseOperator(t.labels, -t.coeff, t.level, t.phases, t.form)
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
        bad = [PhaseOperator(op.labels, op.coeff * 2, op.level, op.phases, op.form)]
        cells = [(i, j) for i, row in enumerate(op.phases) for j, k in enumerate(row)
                 if k != ZERO_PHASE and sum(r[j] != ZERO_PHASE for r in op.phases) > 1]
        if cells and op.level > 1:
            i, j = rng.choice(cells)
            phases = [row[:] for row in op.phases]
            phases[i][j] = (phases[i][j] + 1) % op.level
            bad.append(PhaseOperator(op.labels, op.coeff, op.level, phases, op.form))
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
    for a, b in ((s, other), (s * s, other), (s, shifted(s, 1, 2)),
                 (s * s, shifted(s, 0, 2)), (rho_T(lattice.discriminant_form()), t2)):
        with pytest.raises(ValueError, match="one form and one level"):
            a * b
        with pytest.raises(ValueError, match="one form and one level"):
            b * a
    with pytest.raises(TypeError):
        s * dense(s)
    with pytest.raises(TypeError):
        dense(s) * s


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


# Even blocks of rank 1 and 2, with |det| 1 to 75, summed into lattices of
# rank <= 4 and Delta <= 300.
EVEN_BLOCKS = ([[2]], [[-2]], [[4]], [[6]], [[-10]], [[12]], [[2, 1], [1, 2]],
               [[2, 1], [1, 4]], [[0, 1], [1, 0]], [[0, 2], [2, 0]], [[2, 1], [1, -2]],
               [[-4, 2], [2, -4]], [[6, 3], [3, 6]], A2_5, [[4, 1], [1, -4]])


@settings(max_examples=12, deadline=None)
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
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for i, j, k in moves:
        if i % m != j % m:
            for row in u:
                row[i % m] += k * row[j % m]
    u = [[-a if flip else a for a, flip in zip(row, flips)] for row in u]
    moved = GramLattice([[sum(u[k][i] * gram[k][l] * u[l][j] for k in range(m) for l in range(m))
                          for j in range(m)] for i in range(m)])
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
        from exactweil.weilrep import PhaseOperator
        PhaseOperator([(0,), (1,)], from_rational(1), 4, [[0, -1], [-1, 4]])
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
        x_c, _ = weilrep_mod.choose_xc(jordan_decompose(lattice, 2), m.c)
        prepared.append((form, m, x_c))
    coeff = root_of_unity(1, 8) * sqrt_rat(Fraction(1, 3))
    s_op = rho_S(even.discriminant_form())

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("Fraction built on an integer path")

    for module in (lattice_mod, metaplectic_mod, numth_mod, weilrep_mod):
        monkeypatch.setattr(module, "Fraction", NoFraction)
    for form, m, x_c in prepared:
        weilrep_mod._closed_assembly(form, m, coeff, form.coset_Dcstar(m.c, x_c))
        weilrep_mod._closed_assembly(form, SL2(-1, 4, 0, -1),
                                     weilrep_mod._c0_scalar(form.signature, -1, -1),
                                     form.coset_Dcstar(0, form.zero()))
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
    weilrep_mod._t_diagonal(part), weilrep_mod._fourier(part, coeff)


def test_no_assert_statements_in_src():
    # Runtime invariants raise explicitly so that they hold under python -O.
    src = pathlib.Path(exactweil.__file__).resolve().parent
    modules = sorted(src.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, "%s has assert statements at lines %s" % (path.name, found)
