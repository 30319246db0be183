"""Independent reference routes the tests check the package against.

None of this is on a production path.  Dual vectors are rational
coordinate vectors in the lattice basis: the canonical lift of a class is
sum x_i h_i on the Smith basis h_i = v_i/d_i, recomputed here from the Gram
matrix alone.  r0_direct sums the r0 character over M/cM with those lifts,
and xc_phase reads chi_2(a/c x_c^2/2) off the oddity of the component of
x_c.  peel_by_fraction and word_mp_by_cocycle are the word decomposition and
the metaplectic sign of a word through SL2 products, round() on a Fraction
and the general Kubota cocycle.  DenseOperator is a matrix of ExactScalar
cells, compared cell by cell: the reference for every operator's equality,
identity test and JSON.  dense_product multiplies dense operators naively,
one scalar_sum per cell, with no group ring: the reference for the operator
product.
"""

from fractions import Fraction
from itertools import product
from math import gcd
from typing import List, Optional, Sequence, Tuple

from exactweil.exact import ExactScalar, from_rational, root_of_unity, scalar_sum, sqrt_rat
from exactweil.jordan import BRUTE_CAP, JordanDecomposition, choose_xc
from exactweil.lattice import (ENUMERATION_CAP, CapExceededError, DFElement,
                               DiscriminantForm, GramLattice, require_dense,
                               smith_normal_form)
from exactweil.metaplectic import MP_ONE, MP_S, SL2, MpElement, Word, mp_inv, mp_mul
from exactweil.numth import _unit_mod, valuation_split

Vector = Tuple[Fraction, ...]


class DenseOperator:
    """A square matrix of ExactScalar cells in the canonical basis (e_gamma):
    entry [i][j] is the coefficient of e_{labels[i]} in the image of
    e_{labels[j]}.  It equals anything with the same labels and the same
    cells, a WeilOperator included, compared cell by cell."""

    def __init__(self, labels: Sequence[DFElement], entries: List[List[ExactScalar]],
                 form: Optional[DiscriminantForm] = None):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.entries = entries
        self.form = form

    def index_of(self, elem: DFElement) -> int:
        return self.labels.index(elem)

    def __eq__(self, other) -> bool:
        if not hasattr(other, "entries"):
            return NotImplemented
        return self.labels == other.labels and all(
            x == y for row, other_row in zip(self.entries, other.entries)
            for x, y in zip(row, other_row))

    def to_json(self, precision_bits: Optional[int] = None) -> dict:
        """The package's operator JSON, encoded and evaluated cell by cell."""
        out = {"dim": self.dim, "entries": [[x.to_json() for x in row] for row in self.entries]}
        if precision_bits is not None:
            out.update(self.to_numeric_json(precision_bits))
        return out

    def to_numeric_json(self, precision_bits: int) -> dict:
        boxes = [[x.eval_numeric(precision_bits) for x in row] for row in self.entries]
        return {"dim": self.dim,
                "entries_numeric": [[[float(b.real_mid), float(b.imag_mid)] for b in row]
                                    for row in boxes]}


def dense(op) -> DenseOperator:
    """The cells of an operator, read once through its `entries` view."""
    return DenseOperator(op.labels, op.entries, op.form)


def dense_identity(form: DiscriminantForm, scalar: ExactScalar = from_rational(1)
                   ) -> DenseOperator:
    """scalar times the identity on form.elements(), as a dense operator."""
    elems = form.elements()
    zero = from_rational(0)
    return DenseOperator(elems, [[scalar if g == h else zero for h in elems] for g in elems],
                         form)


def dense_is_identity(op: DenseOperator) -> bool:
    one, zero = from_rational(1), from_rational(0)
    return all(x == (one if i == j else zero)
               for i, row in enumerate(op.entries) for j, x in enumerate(row))


def dense_scale(op: DenseOperator, scalar: ExactScalar) -> DenseOperator:
    return DenseOperator(op.labels, [[scalar * x for x in row] for row in op.entries], op.form)


def dense_adjoint(op: DenseOperator) -> DenseOperator:
    """The conjugate transpose, cell by cell."""
    return DenseOperator(op.labels, [[x.conjugate() for x in col] for col in zip(*op.entries)],
                         op.form)


def dense_product(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """The matrix product of the dense forms, cell (i, j) the scalar_sum of
    a[i][l] * b[l][j] over l."""
    left, right = a.entries, list(zip(*b.entries))
    return DenseOperator(a.labels, [[scalar_sum(x * y for x, y in zip(row, col))
                                     for col in right] for row in left], a.form)


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


def r0_direct(lattice: GramLattice, mat: SL2) -> DenseOperator:
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
    return DenseOperator(elems, ent, form)


def xc_phase(decomp: JordanDecomposition, a: int, c: int) -> ExactScalar:
    """chi_2(a/c * x_c^2/2) as the root of unity zeta_8^(a2 c2 t)."""
    _, t = choose_xc(decomp, c)
    if t is None:
        return from_rational(1)
    a2 = _unit_mod(valuation_split(a, 2).unit_part, 8) if a else 0
    c2 = _unit_mod(valuation_split(c, 2).unit_part, 8)
    return root_of_unity(a2 * c2 * t, 8)


def peel_by_fraction(mat: SL2, step: int) -> Word:
    """metaplectic._peel as SL2 products with k = -step round(d / (step c))
    taken on a Fraction (ties to even), and k dropped if it would enlarge |d|."""
    tail: Word = []
    cur = mat
    while cur.c != 0:
        if cur.d != 0:
            k = -step * round(Fraction(cur.d, step * cur.c))
            if abs(cur.d + k * cur.c) > abs(cur.d):
                k = 0
            if k:
                cur = cur * SL2(1, k, 0, 1)
                tail.append(("T", k))
        cur = cur * SL2(0, -1, 1, 0)
        tail.append(("S", 1))
    head: Word = []
    if cur.a == 1:
        if cur.b:
            head.append(("T", cur.b))
    else:
        head += [("S", 1), ("S", 1)]
        if cur.b:
            head.append(("T", -cur.b))
    for kind, k in reversed(tail):
        head.append(("T", -k) if kind == "T" else ("S", -1))
    return head


def word_mp_by_cocycle(word: Word) -> MpElement:
    """The metaplectic element of a word as a chain of mp_mul, S^-1 lifted by
    mp_inv: every sign comes from kubota_cocycle at the real place.  A token
    ("S", k) is |k| factors S for k > 0 and S^-1 for k < 0."""
    out = MP_ONE
    for kind, k in word:
        if kind == "T":
            out = mp_mul(out, MpElement(SL2(1, k, 0, 1), 1))
        else:
            for _ in range(abs(k)):
                out = mp_mul(out, MP_S if k > 0 else mp_inv(MP_S))
    return out
