"""The mutation gate's table: one named change to src/ per mutant.

Each mutant replaces `old`, which must occur exactly once under src/ (in
`path`), by `new`, and names the tests that must fail on the result.  A
test in tests/test_mutants.py keeps every `old` text present; run the gate
with `python3 mutants/run.py`.
"""

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    path: str            # relative to src/exactweil
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, run with -x


W = "tests/test_weilrep.py::"
CLOSED = (W + "test_closed_equals_oracle_even", W + "test_closed_odd_equals_oracle",
          W + "test_r0_direct", W + "test_xi_product_at_s")

MUTANTS = (
    # -- the closed formula -------------------------------------------------
    Mutant("xi_2 sign: (a/c_2)^m", "weilrep.py",
           "\n    sign *= legendre(a, c2) ** m\n",
           "\n    sign *= legendre(a, c2) ** (m + 1)\n", CLOSED),
    Mutant("xi_2 sign: (-1)^(m eps(a_2) eps(c_2))", "weilrep.py",
           "\n    sign *= (-1) ** (m * eps_parity(a_p) * eps_parity(c2))\n",
           "\n    sign *= (-1) ** (m * eps_parity(a_p))\n", CLOSED),
    Mutant("xi_2 sign: (2/a_2)^(v_2 m)", "weilrep.py",
           "sign *= two_over(a_p) ** (v2 * m)",
           "sign *= two_over(a_p) ** (v2 * m + 1)", CLOSED),
    Mutant("xi_p Legendre factor at odd p", "weilrep.py",
           "return from_rational(legendre(a_p, delta_p)) * comp_prod",
           "return comp_prod", CLOSED),
    Mutant("odd c zeta_8 sign", "weilrep.py",
           "root_of_unity(-_unit_at(mat.a, 2) * _unit_at(mat.c, 2) * t1, 8)",
           "root_of_unity(_unit_at(mat.a, 2) * _unit_at(mat.c, 2) * t1, 8)", CLOSED),
    Mutant("c = 0 scalar", "weilrep.py",
           "else root_of_unity(-1, 4) * eps",
           "else root_of_unity(1, 4) * eps",
           (W + "test_closed_examples", W + "test_factoring_through_level")),
    Mutant("scale_component oddity", "jordan.py",
           "t = None if comp.t is None else (comp.t * _unit_mod(u, 8)) % 8",
           "t = comp.t", CLOSED),
    # -- correctness checks -------------------------------------------------
    Mutant("require_dense bound", "lattice.py",
           "    if size > DENSE_CAP:",
           "    if size > DENSE_CAP + 1:",
           (W + "test_dense_cap_counts_coefficients_exactly",)),
    Mutant("jordan_components final check", "jordan.py",
           "or sum(c.e * c.n for c in components) != k:",
           "or False:",
           (W + "test_invariants_raise_under_optimize",)),
    Mutant("choose_xc coset check", "jordan.py",
           "if (c * df.q_num(mu) + df.pairing_num(cls, mu)) % df.level:",
           "if False:",
           (W + "test_invariants_raise_under_optimize",)),
    Mutant("decomposed word check", "metaplectic.py",
           "    if word_matrix(word) != mat:",
           "    if False:",
           (W + "test_invariants_raise_under_optimize",)),
    Mutant("Jordan block determinant check", "jordan.py",
           "if valuation_split(det, p).valuation != comp.e * comp.n:",
           "if False:",
           (W + "test_invariants_raise_under_optimize",)),
    Mutant("is_prime: x = 1 in the squaring loop", "numth.py",
           "            if x == n - 1:\n                break",
           "            if x == n - 1 or x == 1:\n                break",
           ("tests/test_numth.py::test_is_prime_matches_sympy",)),
    Mutant("oracle cell sum check", "weilrep.py",
           "if sums[v] != (int(i == j) if total is None else total):",
           "if False:",
           (W + "test_invariants_raise_under_optimize",)),
    # -- the word oracle ----------------------------------------------------
    Mutant("oracle S-step sign", "weilrep.py",
           "cols = [[(ti - sign * p) % n * width for ti, p in zip(tq, col)]",
           "cols = [[(ti + sign * p) % n * width for ti, p in zip(tq, col)]",
           (W + "test_packed_product_equals_gather_product",)),
    Mutant("oracle T-rotation sign", "weilrep.py",
           "shifts = [t_sum * qj % n * width for qj in q]",
           "shifts = [-t_sum * qj % n * width for qj in q]",
           (W + "test_packed_product_equals_gather_product",)),
    Mutant("oracle pending T exponents", "weilrep.py",
           "            t_sum = 0\n            if ent is None:",
           "            if ent is None:",
           (W + "test_packed_product_equals_gather_product",)),
    Mutant("oracle first S step cells", "weilrep.py",
           "ent = [[1 << (ti - sign * p) % n * width for p in row]",
           "ent = [[1 << (-sign * p) % n * width for p in row]",
           (W + "test_packed_product_equals_gather_product",)),
    Mutant("oracle eps correction dropped", "weilrep.py",
           "        scalar = -scalar\n",
           "        scalar = scalar\n",
           (W + "test_oracle_equals_dense_generator_product",)),
    # -- closed == oracle on integers -----------------------------------------
    Mutant("ring equality rotation direction", "weilrep.py",
           "r = reduce_powers(c[k:] + c[:k], n)",
           "r = reduce_powers(c[-k:] + c[:-k], n)",
           (W + "test_ring_equality_agrees_with_dense_equality",)),
    Mutant("ring equality zero cells", "weilrep.py",
           "if any(reduce_powers(c[:], n)):",
           "if False:",
           (W + "test_ring_equality_agrees_with_dense_equality",)),
    Mutant("ring equality common vector", "weilrep.py",
           "elif r != common:",
           "elif False:",
           (W + "test_ring_equality_agrees_with_dense_equality",)),
    Mutant("ring equality scalar", "weilrep.py",
           "return common is None or self.scalar * from_powers(common, n) == op.coeff",
           "return True",
           (W + "test_ring_equality_agrees_with_dense_equality",)),
    Mutant("real-place Hilbert sign", "numth.py",
           "return -1 if (a < 0 and b < 0) else 1",
           "return -1 if (a < 0 or b < 0) else 1",
           ("tests/test_metaplectic.py::test_real_hilbert_reads_the_signs",)),
    Mutant("word_mp sign of S at d = 0", "metaplectic.py",
           "if c > 0 and d <= 0:",
           "if c > 0 and d < 0:",
           ("tests/test_metaplectic.py::test_word_mp_matches_the_cocycle_chain",)),
    Mutant("word_mp sign of S^-1 at c = 0", "metaplectic.py",
           "if c <= 0 and d < 0:",
           "if c < 0 and d < 0:",
           ("tests/test_metaplectic.py::test_word_mp_matches_the_cocycle_chain",)),
    Mutant("_peel tie rule", "metaplectic.py",
           "if 2 * r > den or (2 * r == den and q % 2):",
           "if 2 * r >= den:",
           ("tests/test_metaplectic.py::test_peel_rounds_half_ties_like_fraction_round",)),
    # -- the phase operator -------------------------------------------------
    Mutant("is_identity diagonal phase k0", "weilrep.py",
           "if k0 == ZERO_PHASE or self.coeff * root_of_unity(k0, self.level) != _ONE:",
           "if k0 == ZERO_PHASE:",
           (W + "test_phase_is_identity_agrees_with_dense",)),
    Mutant("phase equality delta", "weilrep.py",
           "k = (a * s - b * t) % big",
           "k = (a * s + b * t) % big",
           (W + "test_phase_equality_agrees_with_dense_equality",)),
    Mutant("coset_Dcstar q table index", "lattice.py",
           "h = c * q[sum(t * s for t, s in zip(alpha, strides))]",
           "h = c * q[sum(alpha)]",
           ("tests/test_lattice.py::test_beta_c_sq_half_examples_and_well_defined",
            "tests/test_lattice.py::test_cosets_match_lift_enumeration")),
)
