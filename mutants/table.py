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
