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
identity test and JSON.  scalar_sum adds scalars with one normalisation
at the lcm of their orders, and dense_product multiplies dense operators
naively, one scalar_sum per cell, with no group ring: the reference for the
operator product.  char_p_value is the p-local additive character chi_p on
a rational.  milgram_by_terms, braun_by_terms and gauss_by_terms build one
ExactScalar per term, root_of_unity or chi_p of a Fraction, and add them
with scalar_sum: the references for the package's sums of roots of unity,
which count integer exponents into one exact.root_sum.  closed_assembly places the closed formula's cells one coordinate
at a time in a flat row-major buffer, and phase_cells builds each distinct
cell of a phase operator as coeff * root_of_unity(k, N): the references for
the addition-table assembly and the rotated cell table.  form_gauss_sum is
the Gauss sum of a form, read off the histogram of N q(x) with no lattice
basis: the reference for the Jordan route's local exponents.
rational_jordan is a Jordan decomposition with its basis at every prime:
at odd p the elimination over rationals, the reference for
jordan_components' integer route.  The symbol self-checks are here too:
sigma, the sign bit of the reciprocity law; eps_data, the (eps_K, eps(K),
sigma(K)) bookkeeping of an odd K, and zeta8_identity_check, the identity
(2/x) eps_x = zeta8^(1-x) on it; hilbert_product_check, the product
formula over every place; and weil_index_scaled, the closed form of a
scaled component's Weil index, the reference for weil_index_component(comp, a).
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from exactweil import exact
from exactweil.exact import (_ZERO, ExactScalar, _make, euler_phi, from_powers, from_rational,
                             root_of_unity, sqrt_rat)
from exactweil.jordan import (JordanComponent, JordanDecomposition,
                              _check_prime, _pair, _pairs, _sweep, _val, _validate_blocks,
                              jordan_decompose, weil_index_component, xc_vector)
from exactweil.lattice import (ENUMERATION_CAP, CapExceededError, DFElement,
                               DiscriminantForm, GramLattice, require_dense,
                               smith_normal_form)
from exactweil.metaplectic import MP_ONE, MP_S, SL2, MpElement, Word, mp_inv, mp_mul
from exactweil.numth import (REAL_PLACE, _unit_mod, eps_parity, hilbert, legendre,
                             prime_factors, two_over, valuation_split)
from exactweil.weilrep import ZERO_PHASE, PhaseOperator

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

    def __eq__(self, other) -> bool:
        if not hasattr(other, "entries"):
            return NotImplemented
        return self.labels == other.labels and all(
            x == y for row, other_row in zip(self.entries, other.entries)
            for x, y in zip(row, other_row))

    def to_json(self) -> dict:
        """The package's operator JSON, encoded cell by cell."""
        return {"dim": self.dim, "entries": [[x.to_json() for x in row] for row in self.entries]}

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


def scalar_sum(terms: Iterable[ExactScalar]) -> ExactScalar:
    """The sum of the terms: each embedded into the compositum of their
    orders, integer vectors added over one common denominator, one
    normalisation at the end."""
    live = [t for t in terms if not t.is_zero()]
    if not live:
        return _ZERO
    L = lcm(*(t.order for t in live))
    den = lcm(*(t._den for t in live))
    acc = [0] * euler_phi(L)
    for t in live:
        scale = den // t._den
        vec = t._num if t.order == L else t._embedded_vec(L)
        for k, c in enumerate(vec):
            if c:
                acc[k] += c * scale
    return _make(L, acc, den)


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
    if abs(mat.c) ** m > exact.BRUTE_CAP:
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
    comp = decomp.component_at(valuation_split(c, 2).valuation)
    if comp is None or comp.t is None:
        return from_rational(1)
    a2 = _unit_mod(valuation_split(a, 2).unit_part, 8) if a else 0
    c2 = _unit_mod(valuation_split(c, 2).unit_part, 8)
    return root_of_unity(a2 * c2 * comp.t, 8)


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


def closed_assembly(form: DiscriminantForm, mat: SL2, coeff: ExactScalar, shift: int,
                    coset: List[Tuple[DFElement, int]]) -> PhaseOperator:
    """weilrep._closed_assembly by positions: for each beta the phases of all
    gamma come from the pairing row of beta and the q table, and the
    positions of the cells (beta + d gamma, gamma) in a flat row-major table
    are computed one coordinate at a time."""
    a, b, d = mat.a, mat.b, mat.d
    n = form.level
    elems = form.elements()
    dim = len(elems)
    PhaseOperator.require(coeff, form, dim * len(coset))
    pairs = form.pairing_table()
    # one step in coordinate r moves a cell this far down the row-major table
    steps = [prod(form.orders[r + 1:]) * dim for r in range(len(form.orders))]
    d_coords = [[d * g % o for g in col] for col, o in zip(zip(*elems), form.orders)]
    tails = [b * d * t for t in form.q_table()]
    flat = [ZERO_PHASE] * (dim * dim)
    for beta, h in coset:
        ah = a * h + shift
        ks = [(ah + b * p + t) % n for p, t in zip(pairs[form.index(beta)], tails)]
        at = range(dim)
        for dcol, o, step, x in zip(d_coords, form.orders, steps, beta):
            at = [i + (x + y) % o * step for i, y in zip(at, dcol)]
        for i, k in zip(at, ks):
            flat[i] = k
    phases = [flat[i:i + dim] for i in range(0, dim * dim, dim)]
    return PhaseOperator(coeff, phases, form)


def phase_cells(op: PhaseOperator) -> dict:
    """Each distinct cell of a phase operator by its phase key, built as
    coeff * root_of_unity(k, N): one ExactScalar product per key."""
    coeff, n = op.coeff, op.level
    return {k: from_rational(0) if k == ZERO_PHASE else coeff * root_of_unity(k, n)
            for k in set().union(*op.phases)}


def phase_json(op: PhaseOperator) -> dict:
    """The operator JSON of a phase operator, from phase_cells."""
    cells = phase_cells(op)
    return {"dim": op.dim, "entries": [[cells[k].to_json() for k in row] for row in op.phases]}


def form_gauss_sum(form: DiscriminantForm, s: int,
                   x_c: Optional[DFElement] = None) -> ExactScalar:
    """G(s), the sum of e(s q(x)) over the form, or of e(s q(x) + (x_c, x))
    when x_c is given: the histogram of N q(x) (of N (s q(x) + (x_c, x))
    with x_c) re-indexed by s mod N, read with one from_powers call."""
    n = form.level
    counts = [0] * n
    if x_c is None:
        for k, h in Counter(form.q_table()).items():
            counts[s * k % n] += h
    else:
        row = form.pairing_row(x_c)
        for k, x in zip(form.q_table(), form.elements()):
            counts[(s * k + sum(map(mul, x, row))) % n] += 1
    return from_powers(counts, n)


def rational_jordan(lattice: GramLattice, p: int) -> JordanDecomposition:
    """The Jordan decomposition at p with its rational basis: the package's
    2-adic jordan_decompose at p = 2, and at odd p an elimination over
    rationals whose denominators are prime to p, one diagonal pivot of
    least valuation at a time, with each block's sign the Legendre symbol
    of its determinant's unit part.  The blocks pass _validate_blocks."""
    if p == 2:
        return jordan_decompose(lattice, 2)
    _check_prime(p)
    gram, m = lattice.gram, lattice.rank
    vecs = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]

    def pr(i: int, j: int) -> Fraction:
        return _pair(gram, vecs[i], vecs[j])

    active = list(range(m))
    pivots: List[Tuple[int, int]] = []
    while active:
        v_min = min(_val(x, p) for x in (pr(i, j) for i, j in _pairs(active)) if x)
        diag = next((i for i in active if _val(pr(i, i), p) == v_min), None)
        if diag is None:
            # g_ii and g_jj have valuation > v_min and, p being odd, 2 g_ij
            # has valuation v_min; so g_ii + 2 g_ij + g_jj, the new g_ii of
            # x_i -> x_i + x_j, has valuation exactly v_min.
            i, j = next((i, j) for i, j in _pairs(active)
                        if i != j and _val(pr(i, j), p) == v_min)
            vecs[i] = [x + y for x, y in zip(vecs[i], vecs[j])]
            if _val(pr(i, i), p) != v_min:
                raise ArithmeticError("no diagonal entry of valuation %d at p = %d"
                                      % (v_min, p))
            diag = i
        _sweep(gram, vecs, diag, active)
        pivots.append((v_min, diag))
        active.remove(diag)
    components, blocks = [], []
    for e in sorted({e for e, _ in pivots}):
        idxs = [i for be, i in pivots if be == e]
        det_unit = prod((pr(i, i) / p ** e for i in idxs), start=Fraction(1))
        components.append(JordanComponent(p, e, len(idxs), legendre(det_unit, p)))
        blocks.append([(i,) for i in idxs])
    decomp = JordanDecomposition(lattice, p, components, [tuple(v) for v in vecs], blocks)
    _validate_blocks(decomp)
    return decomp


def char_p_exponent(x, p: int) -> Fraction:
    """The p-local additive character chi_p evaluated on x, as an exponent.

    chi_p kills Z_p and the prime-to-p part of the denominator: writing
    x = n/(p^k m) with m prime to p and alpha*m + beta*p^k = 1, one has
    chi_p(x) = e(n*alpha/p^k).  Returns n*alpha/p^k mod 1.
    """
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    v, _ = valuation_split(x, p)
    if v >= 0:
        return Fraction(0)
    pk = p ** (-v)
    m = x.denominator // pk
    alpha = pow(m, -1, pk)
    return Fraction((x.numerator * alpha) % pk, pk)


def char_p_value(x, p: int) -> ExactScalar:
    """chi_p(x) as a root of unity."""
    e = char_p_exponent(x, p)
    return root_of_unity(e.numerator, e.denominator)


def milgram_by_terms(form: DiscriminantForm) -> ExactScalar:
    """The Milgram sum, one root_of_unity(N q(x), N) per element."""
    return scalar_sum(root_of_unity(k, form.level) for k in form.q_table())


def braun_by_terms(lattice: GramLattice, c: int) -> ExactScalar:
    """Braun's sum over M/cM, one root_of_unity(eta^2/2c) per eta."""
    gram, sign = lattice.gram, 1 if c > 0 else -1
    return scalar_sum(root_of_unity(sign * _pair(gram, eta, eta), 2 * abs(c))
                      for eta in product(range(abs(c)), repeat=lattice.rank))


def gauss_by_terms(lattice: GramLattice, p: int, a: int, c: int) -> ExactScalar:
    """The local Gauss sum of gauss_sum_brute, one chi_p(a/c eta^2/2 +
    a (x_c, eta)/c) per eta of (Z/p^v)^m, on the rational x_c of xc_vector."""
    v = valuation_split(c, p).valuation
    gram = lattice.gram
    xc = xc_vector(jordan_decompose(lattice, 2), v) if p == 2 else None
    terms = []
    for eta in product(range(p ** v), repeat=lattice.rank):
        arg = Fraction(a, c) * Fraction(_pair(gram, eta, eta), 2)
        if xc is not None:
            arg += Fraction(a, c) * _pair(gram, xc, eta)
        terms.append(char_p_value(arg, p))
    return scalar_sum(terms)


def sigma(x) -> int:
    """Sign bit: 1 for negative arguments, 0 otherwise."""
    return 1 if x < 0 else 0


class EpsData(NamedTuple):
    eps_scalar: ExactScalar  # 1 or i
    eps: int  # bit
    sigma: int  # bit


def eps_data(K: int) -> EpsData:
    """The (eps_K, eps(K), sigma(K)) bookkeeping for an odd integer K."""
    if K % 2 == 0:
        raise ValueError("eps_data requires an odd integer")
    e = eps_parity(K)
    scalar = root_of_unity(1, 4) if e else from_rational(1)
    return EpsData(scalar, e, sigma(K))


def zeta8_identity_check(x: int) -> bool:
    """The identity (2/x) * eps_x = zeta8^(1-x) for odd x."""
    lhs = from_rational(two_over(x)) * eps_data(x).eps_scalar
    return lhs == root_of_unity(1 - x, 8)


def hilbert_product_check(a: int, b: int) -> bool:
    """The product formula: (a, b) over all places of Q multiplies to 1."""
    if a == 0 or b == 0:
        raise ValueError("needs nonzero integers")
    product = hilbert(a, b, REAL_PLACE)
    for p in set(prime_factors(2 * a) + prime_factors(2 * b)):
        product *= hilbert(a, b, p)
    return product == 1


def weil_index_scaled(comp: JordanComponent, a: int) -> int:
    """k mod 8 for the Weil index of the component scaled by a unit, in
    closed form: gamma (a / p)^(e n) at odd p, gamma^a (2/a)^(e n) at p = 2."""
    if a % comp.p == 0:
        raise ValueError("scaling unit must be coprime to p")
    k = weil_index_component(comp)
    en = comp.e * comp.n
    if comp.p != 2:
        return (k + 2 * (1 - legendre(a, comp.p) ** en)) % 8
    return (k * a + 2 * (1 - two_over(a) ** en)) % 8
