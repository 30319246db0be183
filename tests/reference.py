"""Independent reference routes the tests check the package against.

None of this is on a production path.  Dual vectors are rational
coordinate vectors in the lattice basis: the canonical lift of a class is
sum x_i h_i on the Smith basis h_i = v_i/d_i, recomputed here from the Gram
matrix alone.  r0_direct sums the r0 character over M/cM with those lifts,
and xc_phase reads chi_2(a/c x_c^2/2) off the oddity of the component of
x_c.
"""

from fractions import Fraction
from itertools import product
from math import gcd
from typing import List, Sequence, Tuple

from exactweil.exact import ExactScalar, from_rational, root_of_unity, scalar_sum, sqrt_rat
from exactweil.jordan import BRUTE_CAP, JordanDecomposition, choose_xc
from exactweil.lattice import (ENUMERATION_CAP, CapExceededError, DFElement,
                               DiscriminantForm, GramLattice, require_dense,
                               smith_normal_form)
from exactweil.metaplectic import SL2
from exactweil.numth import _unit_mod, valuation_split
from exactweil.weilrep import WeilOperator

Vector = Tuple[Fraction, ...]


def e(x: Fraction) -> ExactScalar:
    """e(x) = exp(2 pi i x) for a rational x."""
    x = Fraction(x) % 1
    return root_of_unity(x.numerator, x.denominator)


def lift(df: DiscriminantForm, x: DFElement) -> Vector:
    """The dual vector sum x_i h_i, in the lattice basis."""
    lattice = df.lattice
    _, d, v = smith_normal_form(lattice.gram)
    m = lattice.rank
    cols = [[v[r][i] for r in range(m)] for i in range(m) if d[i][i] > 1]
    return tuple(sum((Fraction(a, o) * col[r] for a, o, col in zip(x, df.orders, cols)),
                     Fraction(0))
                 for r in range(m))


def pairing_of_lifts(df: DiscriminantForm, a: Sequence[Fraction],
                     b: Sequence[Fraction]) -> Fraction:
    g = df.lattice.gram
    m = df.lattice.rank
    return sum(a[i] * g[i][j] * b[j] for i in range(m) for j in range(m))


def norm_of_lift(df: DiscriminantForm, vec: Sequence[Fraction]) -> Fraction:
    """gamma^2 = vec^T G vec for an explicit dual vector."""
    return pairing_of_lifts(df, vec, vec)


def q_of_lift(df: DiscriminantForm, vec: Sequence[Fraction]) -> Fraction:
    return norm_of_lift(df, vec) / 2


def class_of_dual_vector(df: DiscriminantForm, vec: Sequence[Fraction]) -> DFElement:
    """The class in M*/M of an honest dual vector (G vec integral)."""
    g = df.lattice.gram
    m = df.lattice.rank
    y = [sum(Fraction(g[i][j]) * vec[j] for j in range(m)) for i in range(m)]
    if any(t.denominator != 1 for t in y):
        raise ValueError("vector is not in the dual lattice")
    u, d, _ = smith_normal_form(g)
    return tuple(sum(u[i][j] * y[j].numerator for j in range(m)) % d[i][i]
                 for i in range(m) if d[i][i] > 1)


def subsets_c(df: DiscriminantForm, c: int) -> Tuple[List[DFElement], List[DFElement]]:
    """Kernel and image of multiplication by c, as element lists."""
    kernel_steps, image_steps = [], []
    size_k = 1
    for d in df.orders:
        g = gcd(c, d)
        kernel_steps.append(range(0, d, d // g))
        image_steps.append(range(0, d, g))
        size_k *= g
    if max(size_k, df.delta // size_k) > ENUMERATION_CAP:
        raise CapExceededError("c-subsets exceed the enumeration cap")
    return list(product(*kernel_steps)), list(product(*image_steps))


def r0_direct(lattice: GramLattice, mat: SL2) -> WeilOperator:
    """The character sum over M/cM; equals rho_M up to one scalar.

    Entry (delta, gamma) is the sum of
    e(d/c * gamma^2/2 - (gamma, delta + eta)/c + a/c * (delta + eta)^2/2)
    over representatives eta of M/cM, normalized by 1/(|c|^(m/2) sqrt Delta).
    Lifts are the canonical ones; changing a lift permutes the eta range, so
    the value is well defined.
    """
    if mat.c == 0:
        raise ValueError("the r0 sum requires c != 0")
    m = lattice.rank
    if abs(mat.c) ** m > BRUTE_CAP:
        raise CapExceededError("M/cM has %d^%d elements" % (abs(mat.c), m))
    form = lattice.discriminant_form()
    require_dense(form.delta)
    elems = form.elements()
    n = len(elems)
    lifts = [lift(form, g) for g in elems]
    a, c, d = mat.a, mat.c, mat.d
    norm = sqrt_rat(Fraction(1, abs(c) ** m * form.delta))
    q_gamma = [q_of_lift(form, v) for v in lifts]
    ent = [[from_rational(0)] * n for _ in range(n)]
    for i in range(n):
        delta_lift = lifts[i]
        shifted = []
        for eta in product(range(abs(c)), repeat=m):
            vec = tuple(delta_lift[r] + eta[r] for r in range(m))
            shifted.append((vec, q_of_lift(form, vec)))
        for j in range(n):
            gamma_lift = lifts[j]
            base = Fraction(d, c) * q_gamma[j]
            terms = [e(base - pairing_of_lifts(form, gamma_lift, vec) / c
                       + Fraction(a, c) * qv)
                     for vec, qv in shifted]
            ent[i][j] = norm * scalar_sum(terms)
    return WeilOperator(elems, ent, form)


def xc_phase(decomp: JordanDecomposition, a: int, c: int) -> ExactScalar:
    """chi_2(a/c * x_c^2/2) as the root of unity zeta_8^(a2 c2 t)."""
    _, t = choose_xc(decomp, c)
    if t is None:
        return from_rational(1)
    a2 = _unit_mod(valuation_split(a, 2).unit_part, 8) if a else 0
    c2 = _unit_mod(valuation_split(c, 2).unit_part, 8)
    return root_of_unity(a2 * c2 * t, 8)
