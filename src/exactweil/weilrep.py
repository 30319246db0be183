"""The Weil representation: generator matrices, oracles, closed formula.

A lattice M acts through its discriminant form D_M = M*/M on the group
algebra C[D_M]; the metaplectic group over SL_2(Z) acts on that space by a
finite unitary representation rho_M.  This module evaluates rho_M two ways:

  * generator words: decompose the matrix into T and S steps and multiply
    the generator matrices, tracking the metaplectic sign exactly.  Each
    generator is a scalar times a matrix of N-th roots of unity (N the
    level), so the word multiplies only those matrices, over the group ring
    Z[x]/(x^N - 1), and applies the product of the scalars once.  Each cell
    of that product is one int holding its N coefficients in B-bit fields;
    at x = 1 the product of s >= 1 steps S is dim^(s-1) times the all-ones
    matrix, so B = bit_length(dim^(s-1)) bits hold every coefficient, and
    every cell must sum to dim^(s-1), which a carry would break;
  * the closed local-to-global formula: a product of p-adic root-of-unity
    factors xi_p times one character sum over the coset x_c + cD of D_M,
    enumerated over D/D_c; one function covers both parities, and c = 0 is
    the same sum over the coset {0}, with scalar delta^(-sgn).

The routes share no formulas, so their exact agreement is the central
correctness check of the package.  Odd lattices are supported on the index-3
parity subgroup (ac and bd even), where T^2 and S generate.

Every operator has one shape, a WeilOperator: a single scalar times a
matrix over the group ring Z[x]/(x^N - 1), N the level, read at x = zeta_N.
The closed formula, T, S, Z and their p-parts have e(k/N) in every nonzero
cell.  They are built as a PhaseOperator, which stores the scalar once and
the phases k as one integer table, with ZERO_PHASE marking the zero cells;
the integers are read from the form's element tables (N q(gamma) and the
pairing rows).  T and S on a p-part come from the same two builders as on
the whole form, applied to the p-part, a DiscriminantForm with its own
coordinates and level N_p.  Identity and equality tests, the tensor product
over the p-parts and the JSON encoding work on those integers.  The word
oracle returns its product as it is built, a RingOperator: one scalar times
the packed group-ring cells.  Its equality with a phase operator of the same
level compares integer vectors reduced mod Phi_N and checks one scalar; any
other pair of operators compares the scalars of each distinct pair of cell
keys once.  The one operator product, A * B, runs in that packed group ring
through the oracle's S-step kernel (_fold_products) and gives a
RingOperator; unitarity is (A * A.adjoint()).is_identity().  `entries`, the
cells as ExactScalars, is a view built on every read and never kept or
multiplied.  Operator equality is exact and the tests use it with zero
tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, product
from math import lcm, prod
from operator import lshift, mul
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (ExactScalar, euler_phi, from_powers, from_rational,
                    reduce_powers, root_of_unity, scalar_sum, sqrt_rat)
from .jordan import (BRUTE_CAP, choose_xc, jordan_components, jordan_decompose,
                     scale_component, weil_index_component, weil_index_lattice)
from .lattice import (CapExceededError, DFElement, DiscriminantForm,
                      GramLattice, interesting_primes, require_dense)
from .metaplectic import MpElement, SL2, Word, decompose, gamma_odd_member
from .numth import eps_parity, legendre, two_over, valuation_split

_ONE = from_rational(1)
_ZERO = from_rational(0)
# The phase of a zero cell of a PhaseOperator; every other phase is in [0, N).
ZERO_PHASE = -1


# -- operators -------------------------------------------------------------


class WeilOperator:
    """One scalar `coeff` times a matrix over Z[x]/(x^N - 1), N = level, read
    at x = zeta_N, in the canonical basis (e_gamma): the one shape of every
    operator, a PhaseOperator or a RingOperator.

    `labels` lists the basis elements in order; cell (i, j) is the
    coefficient of e_{labels[i]} in the image of e_{labels[j]}.  Full-space
    operators are labelled by DiscriminantForm.elements(); the p-part
    generator matrices are labelled by the p-part elements.  A subclass
    gives _cell_table, the cells' scalars by key and the key of every cell,
    and its cells at x = 1 (_sums) and packed at a width (_packed).

    A * B is a RingOperator with scalar A.coeff * B.coeff, multiplied with
    packed cells.  Its nonnegative coefficients are at most their cell's
    value at x = 1, the sum over l of s_A(i, l) s_B(l, j) for the operands'
    cell sums s; B bits hold the largest, and each cell must sum to exactly
    its value.
    """

    __slots__ = ("labels", "dim", "form", "coeff", "level", "_index")

    def __init__(self, labels: Sequence[DFElement], coeff: ExactScalar, level: int,
                 form: Optional[DiscriminantForm]):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.coeff, self.level, self.form = coeff, level, form
        self._index: Optional[Dict[DFElement, int]] = None

    @staticmethod
    def identity(labels: Sequence[DFElement], form: Optional[DiscriminantForm] = None,
                 level: int = 1) -> "PhaseOperator":
        """The identity on `labels`: phase 0 on the diagonal, at `level`."""
        n = len(labels)
        phases = [[0 if i == j else ZERO_PHASE for j in range(n)] for i in range(n)]
        return PhaseOperator(labels, _ONE, level, phases, form)

    def index_of(self, elem: DFElement) -> int:
        if self._index is None:
            self._index = {g: i for i, g in enumerate(self.labels)}
        return self._index[elem]

    def __mul__(self, other) -> "RingOperator":
        if not isinstance(other, WeilOperator):
            return NotImplemented
        if other.labels != self.labels or other.form is not self.form \
                or other.level != self.level:
            raise ValueError("an operator product needs one form and one level")
        n, dim = self.level, self.dim
        require_dense(dim, dim * dim * (n - 1))
        expected = _table_product(self._sums(), other._sums())
        width = _product_width(expected, self, other)
        rows = self._packed(width)
        if isinstance(other, PhaseOperator):
            # a cell of `other` is x^k: shift by kB, and drop the zero cells
            cols = list(zip(*other.phases))
            masks = [[k != ZERO_PHASE for k in col] for col in cols]
            shifts = [[k * width for k in col if k != ZERO_PHASE] for col in cols]
            ring = _fold_products(rows, shifts, n * width, lshift, masks)
        else:
            ring = _fold_products(rows, list(zip(*other._packed(width))), n * width, mul)
        out = RingOperator(self.labels, self.coeff * other.coeff, n, width, ring, self.form)
        out._require_sums(expected)
        return out

    @property
    def entries(self) -> List[List[ExactScalar]]:
        """The cells as ExactScalars, one object per distinct cell key, built
        from _cell_table() on every read; read it once, outside a loop."""
        cells, table = self._cell_table()
        return [list(map(cells.__getitem__, keys)) for keys in table]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeilOperator):
            return NotImplemented
        if self.labels != other.labels:
            return False
        if isinstance(other, PhaseOperator):
            return other._same_cells(self)
        if isinstance(self, PhaseOperator):
            return self._same_cells(other)
        return self._same_values(other)

    def _same_values(self, other: "WeilOperator") -> bool:
        """Cell-wise equality of the scalars: each distinct pair of cell keys
        of the two _cell_table()s is compared once."""
        cells, table = self._cell_table()
        other_cells, other_table = other._cell_table()
        pairs = set()
        for keys, other_keys in zip(table, other_table):
            pairs.update(zip(keys, other_keys))
        return all(cells[k] == other_cells[m] for k, m in pairs)

    __hash__ = None

    def __repr__(self) -> str:
        return "%s(dim=%d, level=%d)" % (type(self).__name__, self.dim, self.level)

    def to_json(self, precision_bits: Optional[int] = None) -> dict:
        """{"dim", "entries"} and, with precision_bits, "entries_numeric".

        The one encoder of every operator type: each distinct scalar of
        _cell_table is encoded and evaluated once, then every cell gets a
        dict and lists of its own.
        """
        cells, table = self._cell_table()
        exact = {}
        for key, x in cells.items():
            data = x.to_json()
            exact[key] = (data["order"], data["coeffs"])
        out = {
            "dim": self.dim,
            "entries": [[{"order": order, "coeffs": coeffs[:]}
                         for order, coeffs in map(exact.__getitem__, keys)]
                        for keys in table],
        }
        if precision_bits is not None:
            out["entries_numeric"] = _numeric_cells(cells, table, precision_bits)
        return out

    def to_numeric_json(self, precision_bits: int) -> dict:
        """{"dim", "entries_numeric"}: to_json(precision_bits) without
        building the exact cells."""
        cells, table = self._cell_table()
        return {"dim": self.dim,
                "entries_numeric": _numeric_cells(cells, table, precision_bits)}


def _numeric_cells(cells: dict, table: List[list], precision_bits: int) -> List[List[list]]:
    """[real, imag] midpoints per cell, each distinct scalar evaluated once."""
    numeric = {}
    for key, x in cells.items():
        box = x.eval_numeric(precision_bits)
        numeric[key] = [float(box.real_mid), float(box.imag_mid)]
    return [[mid[:] for mid in map(numeric.__getitem__, keys)] for keys in table]


class PhaseOperator(WeilOperator):
    """coeff * e(phases[i][j] / level) at cell (i, j), and zero where the
    phase is ZERO_PHASE.

    Every other phase must lie in [0, level); the constructor raises
    ValueError otherwise.  Build the table only after PhaseOperator.require
    has passed.
    """

    __slots__ = ("phases",)

    def __init__(self, labels: Sequence[DFElement], coeff: ExactScalar, level: int,
                 phases: List[List[int]], form: Optional[DiscriminantForm] = None):
        super().__init__(labels, coeff, level, form)
        n = self.dim
        if coeff.is_zero():
            raise ValueError("a phase operator needs a nonzero scalar")
        if len(phases) != n or any(len(row) != n for row in phases):
            raise ValueError("the phase table must be %d x %d" % (n, n))
        if min(map(min, phases)) < ZERO_PHASE or max(map(max, phases)) >= level:
            raise ValueError("a phase lies outside [0, %d)" % level)
        self.phases = phases

    @staticmethod
    def require(coeff: ExactScalar, level: int, dim: int, nonzero: int) -> None:
        """Raise CapExceededError unless the dense form fits DENSE_CAP: dim^2
        cells, `nonzero` of them holding phi(lcm(order, level)) coefficients."""
        require_dense(dim, nonzero * (euler_phi(lcm(coeff.order, level)) - 1))

    def _cell_table(self) -> Tuple[dict, List[List[int]]]:
        coeff, n = self.coeff, self.level
        cells = {k: _ZERO if k == ZERO_PHASE else coeff * root_of_unity(k, n)
                 for k in set().union(*self.phases)}
        return cells, self.phases

    def _sums(self) -> List[List[int]]:
        return [[int(k != ZERO_PHASE) for k in row] for row in self.phases]

    def _packed(self, width: int) -> List[List[int]]:
        return [[0 if k == ZERO_PHASE else 1 << k * width for k in row]
                for row in self.phases]

    def adjoint(self) -> "PhaseOperator":
        """The conjugate transpose: the conjugate scalar, and the phases -k of
        the transposed table."""
        n = self.level
        phases = [[k if k == ZERO_PHASE else -k % n for k in col] for col in zip(*self.phases)]
        return PhaseOperator(self.labels, self.coeff.conjugate(), n, phases, self.form)

    def is_unitary(self) -> bool:
        return (self * self.adjoint()).is_identity()

    def is_identity(self) -> bool:
        # Cell (0, 0) fixes the one phase k0 with coeff * e(k0/N) = 1; every
        # diagonal phase must be k0 and every other cell zero.
        k0 = self.phases[0][0]
        if k0 == ZERO_PHASE or self.coeff * root_of_unity(k0, self.level) != _ONE:
            return False
        n = self.dim
        return all(row[i] == k0 and row.count(ZERO_PHASE) == n - 1
                   for i, row in enumerate(self.phases))

    def _same_cells(self, other: WeilOperator) -> bool:
        """Equality on integers where they decide it: with a ring operator of
        the same level, and with a phase operator by one phase offset."""
        if isinstance(other, RingOperator) and other.level == self.level:
            return other._same_phases(self)
        if not isinstance(other, PhaseOperator):
            return self._same_values(other)
        # c1 e(k1/N1) = c2 e(k2/N2) on every nonzero cell: the zero patterns
        # agree, k1 - k2 is one delta mod L = lcm(N1, N2), c2 = c1 e(delta/L).
        big = lcm(self.level, other.level)
        s, t = big // self.level, big // other.level
        delta = None
        for row, other_row in zip(self.phases, other.phases):
            for a, b in zip(row, other_row):
                if a == ZERO_PHASE or b == ZERO_PHASE:
                    if a != b:
                        return False
                    continue
                k = (a * s - b * t) % big
                if delta is None:
                    delta = k
                elif k != delta:
                    return False
        return delta is None or other.coeff == self.coeff * root_of_unity(delta, big)


# -- generator matrices ----------------------------------------------------


def rho_T(form: DiscriminantForm) -> PhaseOperator:
    """rho(T): the diagonal operator e_gamma -> e(gamma^2/2) e_gamma."""
    if not form.is_even:
        raise ValueError("rho(T) requires an even lattice; "
                         "T is outside the parity subgroup of an odd one")
    return _t_diagonal(form)


def _t_diagonal(form: DiscriminantForm) -> PhaseOperator:
    """The diagonal matrix of e(gamma^2/2), read off form.q_table()."""
    n, level = form.delta, form.level
    PhaseOperator.require(_ONE, level, n, n)
    phases = [[ZERO_PHASE] * n for _ in range(n)]
    for i, k in enumerate(form.q_table()):
        phases[i][i] = k
    return PhaseOperator(form.elements(), _ONE, level, phases, form)


def _fourier(form: DiscriminantForm, coeff: ExactScalar) -> PhaseOperator:
    """coeff * e(-(gamma, delta)) at row delta, column gamma, read off
    form.pairing_table()."""
    n, dim = form.level, form.delta
    PhaseOperator.require(coeff, n, dim, dim ** 2)
    return PhaseOperator(form.elements(), coeff, n,
                         [[-p % n for p in row] for row in form.pairing_table()], form)


def rho_S(form: DiscriminantForm) -> PhaseOperator:
    """rho(S): the normalized Fourier transform of the discriminant form.

    Entry (delta, gamma) is zeta_8^(-sgn) e(-(gamma,delta)) / sqrt(Delta);
    the same formula covers odd lattices, whose S lies in the parity
    subgroup.
    """
    require_dense(form.delta)
    return _fourier(form, root_of_unity(-form.signature, 8) * sqrt_rat(Fraction(1, form.delta)))


def rho_Z(form: DiscriminantForm) -> PhaseOperator:
    """rho(Z) = rho(S)^2: e_gamma -> zeta_8^(-2 sgn) e_{-gamma}."""
    require_dense(form.delta)
    elems = form.elements()
    n = len(elems)
    coeff = root_of_unity(-2 * form.signature, 8)
    PhaseOperator.require(coeff, form.level, n, n)
    phases = [[ZERO_PHASE] * n for _ in range(n)]
    for j, g in enumerate(elems):
        phases[form.index(form.neg(g))][j] = 0
    return PhaseOperator(elems, coeff, form.level, phases, form)


def rho_p_generators(lattice: GramLattice, p: int) -> Tuple[PhaseOperator, PhaseOperator]:
    """T and S on the p-part D_p, the builders of rho_T and rho_S applied to
    the form p_part(p), at its level N_p.

    T_p is diagonal with the characters e(gamma^2/2) of D_p; S_p carries the
    scalar conj(gamma(f_p)) / sqrt(Delta_p).  Tensoring over p recovers
    rho_T and rho_S (see tensor_check).
    """
    part = lattice.discriminant_form().p_part(p)
    require_dense(part.delta)
    coeff = weil_index_lattice(lattice, p).conjugate() * sqrt_rat(Fraction(1, part.delta))
    return _t_diagonal(part), _fourier(part, coeff)


# -- the generator-word oracle ---------------------------------------------


def _cell_width(dim: int, s_steps: int) -> int:
    """Bits per coefficient of a packed cell after s_steps S steps.

    At x = 1 every generator's root-of-unity matrix is the identity (T) or
    the all-ones matrix J (S), so after k >= 1 S steps each cell's
    nonnegative coefficients sum to exactly dim^(k-1), the cell of J^k.
    """
    return (dim ** (s_steps - 1)).bit_length() if s_steps else 1


def _product_width(sums: List[List[int]], *ops: WeilOperator) -> int:
    """Bits per coefficient of a product whose cells sum to `sums` at x = 1,
    and at least the width of each packed operand, which is then used as is."""
    return max(1, max(map(max, sums)).bit_length(),
               *(op.width for op in ops if isinstance(op, RingOperator)))


def _table_product(left: List[List[int]], right: List[List[int]]) -> List[List[int]]:
    """The matrix product of two nonnegative integer tables, a row at a time:
    each row of `right` is packed into one int of w-bit fields, w wide
    enough for every entry of the product."""
    w = max(1, (len(right) * max(map(max, left)) * max(map(max, right))).bit_length())
    fields = range(0, len(right[0]) * w, w)
    packed = [sum(map(lshift, row, fields)) for row in right]
    mask = (1 << w) - 1
    return [[v >> t & mask for t in fields] for v in [sum(map(mul, row, packed)) for row in left]]


def _fold_products(rows: List[List[int]], cols: Sequence[Sequence[int]], top: int,
                   op=lshift, masks: Optional[Sequence[Sequence[bool]]] = None
                   ) -> List[List[int]]:
    """Cell (i, j) = sum over l of op(rows[i][l], cols[j][l]) mod x^N - 1,
    for packed cells rows and top = N B.  cols[j][l] is a shift sB (op =
    lshift: the factor x^s) or a packed cell (op = mul); a sum spans fewer
    than 2N fields, so one fold reduces it.  masks[j], if given, keeps the
    terms l with a nonzero right factor, the only ones cols[j] lists."""
    low = (1 << top) - 1
    if masks is None:
        return [[(v & low) + (v >> top) for v in [sum(map(op, row, col)) for col in cols]]
                for row in rows]
    return [[(v & low) + (v >> top)
             for v in [sum(map(op, compress(row, m), col)) for m, col in zip(masks, cols)]]
            for row in rows]


def _group_ring_product(form: DiscriminantForm,
                        word: Word) -> Tuple[List[List[int]], int, int, int]:
    """The root-of-unity part of the generator product along a word.

    rho(T^k) is diag(zeta_N^(k N q(gamma))) and rho(S^(+-1)) is a scalar
    times [zeta_N^(-+N (gamma, delta))], N the level; so the product is one
    scalar times a matrix over the group ring Z[x]/(x^N - 1), x = zeta_N.
    Each cell is packed into one int: coefficient t, a nonnegative integer,
    sits in bits [tB, (t+1)B), B = _cell_width(dim, number of S steps), which
    holds every coefficient of every step.  Multiplying by x^s is a shift by
    sB, folded mod x^N - 1; an S step is _fold_products, the kernel of every
    operator product.  The T steps since the last S step only add up their
    k: the next S step adds k N q(gamma_l) to the shift of row l of its
    table, the first S step writes its cells as single monomials, and a word
    that ends in T rotates each column once.
    Returns the matrix, the numbers of S and S^-1 steps, and B.
    """
    n = form.level
    require_dense(form.delta, form.delta ** 2 * (n - 1))
    dim = form.delta
    width = _cell_width(dim, sum(abs(k) for sym, k in word if sym == "S"))
    top = n * width
    low = (1 << top) - 1
    q = form.q_table()
    pairs = form.pairing_table()
    ent = None  # the identity, until the first S step
    t_sum = 0  # the k of the T steps since the last S step, added up
    steps = {1: 0, -1: 0}
    for sym, k in word:
        if sym == "T":
            t_sum += k
            continue
        sign = 1 if k > 0 else -1
        steps[sign] += abs(k)
        for _ in range(abs(k)):
            # Cell (i, j) of the product is the sum over l of cell (i, l)
            # times x^(t_sum N q(gamma_l) - sign N (gamma_l, gamma_j));
            # (gamma_l, gamma_j) is symmetric, so row j of the table serves.
            tq = [t_sum * ql for ql in q]
            t_sum = 0
            if ent is None:
                ent = [[1 << (ti - sign * p) % n * width for p in row]
                       for ti, row in zip(tq, pairs)]
                continue
            cols = [[(ti - sign * p) % n * width for ti, p in zip(tq, col)]
                    for col in pairs]
            ent = _fold_products(ent, cols, top)
    shifts = [t_sum * qj % n * width for qj in q]
    if ent is None:
        return ([[1 << s if i == j else 0 for j in range(dim)]
                 for i, s in enumerate(shifts)], 0, 0, width)
    if t_sum:
        # Column gamma times x^(t_sum N q(gamma)): a rotation of each cell.
        for row in ent:
            for j, s in enumerate(shifts):
                if s:
                    v = row[j] << s
                    row[j] = (v & low) + (v >> top)
    return ent, steps[1], steps[-1], width


class RingOperator(WeilOperator):
    """coeff * ring[i][j] at cell (i, j), each cell an element of the group
    ring Z[x]/(x^N - 1) read at x = zeta_N, N = level, with coefficient t in
    bits [tB, (t+1)B), B = width: the product of a generator word as
    _group_ring_product returns it, or the product of two operators.

    `coeffs` maps each distinct packed cell to its N coefficients, unpacked
    once here.  Equality with a phase operator of the same level, the
    identity test and the cell sums at x = 1 run on these integers; the
    ExactScalar cells are built only for `entries`, to_json() and
    comparisons with other operators.
    """

    __slots__ = ("width", "ring", "coeffs")

    def __init__(self, labels: Sequence[DFElement], coeff: ExactScalar, level: int,
                 width: int, ring: List[List[int]],
                 form: Optional[DiscriminantForm] = None):
        super().__init__(labels, coeff, level, form)
        self.width, self.ring = width, ring
        mask = (1 << width) - 1
        fields = range(0, level * width, width)
        self.coeffs = {v: [v >> t & mask for t in fields]
                       for v in {v for row in ring for v in row}}

    def _cell_table(self) -> Tuple[dict, List[List[int]]]:
        # One scalar object per distinct cell, keyed by the packed int.
        coeff, n = self.coeff, self.level
        return {v: coeff * from_powers(c, n) for v, c in self.coeffs.items()}, self.ring

    def _sums(self) -> List[List[int]]:
        sums = {v: sum(c) for v, c in self.coeffs.items()}
        return [[sums[v] for v in row] for row in self.ring]

    def _packed(self, width: int) -> List[List[int]]:
        if width == self.width:
            return self.ring
        fields = range(0, self.level * width, width)
        cells = {v: sum(map(lshift, c, fields)) for v, c in self.coeffs.items()}
        return [[cells[v] for v in row] for row in self.ring]

    def _require_sums(self, expected: List[List[int]]) -> None:
        """Raise ArithmeticError unless cell (i, j) sums to expected[i][j] at
        x = 1: a carry between packed fields lowers a cell's sum."""
        if self._sums() != expected:
            raise ArithmeticError("group ring cell sums at x = 1 differ from the expected ones: "
                                  "a packed coefficient carried")

    def is_identity(self) -> bool:
        return self._same_phases(WeilOperator.identity(self.labels, self.form, self.level))

    def _same_phases(self, op: PhaseOperator) -> bool:
        """Cell-wise equality with a phase operator of the same level N.

        Where op has a zero cell, our cell must vanish in Q(zeta_N); where it
        has c e(k/N), x^-k times our cell must reduce mod Phi_N to one common
        vector r for every such cell, and coeff * r(zeta_N) must equal c.
        Each distinct (phase, cell) pair is rotated and reduced once.
        """
        n, coeffs = self.level, self.coeffs
        pairs = set()
        for keys, row in zip(op.phases, self.ring):
            pairs.update(zip(keys, row))
        common = None
        for k, v in pairs:
            c = coeffs[v]
            if k == ZERO_PHASE:
                if any(reduce_powers(c[:], n)):
                    return False
                continue
            r = reduce_powers(c[k:] + c[:k], n)  # coefficient t of x^-k times the cell
            if common is None:
                common = r
            elif r != common:
                return False
        return common is None or self.coeff * from_powers(common, n) == op.coeff


def rho_oracle(lattice: GramLattice, x: MpElement) -> RingOperator:
    """Evaluate rho_M(x) by multiplying generator matrices along a word.

    The word decomposes the matrix exactly (T and S steps for even lattices,
    T^2 and S steps for odd ones); its one walk checks it and gives its
    metaplectic sign, and a mismatch against the requested sign is corrected
    by rho(Z^2) = (-1)^sgn.  The generators' roots of unity are multiplied in
    Z[x]/(x^N - 1) with packed cells (_group_ring_product), and the scalar of
    the n+ steps S and n- steps S^-1, zeta_8^(sgn (n- - n+)) Delta^(-(n+ + n-)/2),
    is applied once.  The result stays packed, a RingOperator; its cells must
    sum to dim^(n+ + n- - 1) at x = 1 (the identity's cells with no S), or it
    raises ArithmeticError: a carry between packed coefficients would lower a
    sum.  No closed-formula machinery enters, which is what makes this an
    oracle.
    """
    form = lattice.discriminant_form()
    word, achieved = decompose(x.mat, 1 if lattice.is_even else 2)
    ring, n_plus, n_minus, width = _group_ring_product(form, word)
    sgn, s = form.signature, n_plus + n_minus
    # Delta^(-s/2) is the rational Delta^-(s // 2), times 1/sqrt(Delta) for odd s
    scalar = root_of_unity(sgn * (n_minus - n_plus), 8) \
        * from_rational(Fraction(1, form.delta ** (s // 2)))
    if s % 2:
        scalar = scalar * sqrt_rat(Fraction(1, form.delta))
    if achieved.eps != x.eps and sgn % 2:
        scalar = -scalar
    op = RingOperator(form.elements(), scalar, form.level, width, ring, form)
    # The product at x = 1 is J^s: dim^(s-1) J, or I for s = 0.
    dim = len(ring)
    op._require_sums([[dim ** (s - 1)] * dim for _ in range(dim)] if s
                     else [[int(i == j) for j in range(dim)] for i in range(dim)])
    return op


# -- local factors ---------------------------------------------------------


def _unit_at(x: int, p: int, zero_default: int = 1) -> int:
    """The p-adic unit part of an integer, signed; zero maps to the default."""
    if x == 0:
        return zero_default
    return int(valuation_split(x, p).unit_part)


def xi_p(lattice: GramLattice, mat: SL2, eps: int, p: int) -> ExactScalar:
    """The local root of unity xi_p of the closed formula.

    For odd p this is the quadratic symbol (a_p / Delta_p) times the product
    of conjugate Weil indices of the components of scale q not dividing c,
    scaled by a_p c.  At p = 2 the quadratic symbols in a_2 and c_2 and the
    power gamma(f_2)^(a_2 - 1) enter as well.  For a = 0 the unit a_p is
    taken to be 1 (the value does not depend on the choice); for c = 0 the
    component product is empty and c_2 = +1 by convention.  The components
    come from jordan_components: at odd p by integer elimination modulo
    p^(v_p(det)+1), at p = 2 from jordan_decompose.
    """
    m = lattice.rank
    a, c = mat.a, mat.c
    components = jordan_components(lattice, p)
    a_p = _unit_at(a, p)
    # v_p(c) compared against component scales; c = 0 is divisible by all q.
    v = valuation_split(c, p).valuation if c else None
    comp_prod = _ONE
    if c != 0:
        for comp in components:
            if comp.e > v:
                scaled = scale_component(comp, a_p * c)
                comp_prod = comp_prod * weil_index_component(scaled).conjugate()
    delta_p = p ** sum(comp.e * comp.n for comp in components)
    if p != 2:
        return from_rational(legendre(a_p, delta_p)) * comp_prod
    c2 = _unit_at(c, 2)
    v2 = v or 0
    sign = eps ** m
    sign *= legendre(a, c2) ** m
    sign *= (-1) ** (m * eps_parity(a_p) * eps_parity(c2))
    sign *= two_over(a_p) ** (v2 * m)
    sign *= legendre(delta_p, a_p)
    gamma2 = weil_index_lattice(lattice, 2)
    return from_rational(sign) * gamma2 ** (a_p - 1) * comp_prod


def _xi_product(lattice: GramLattice, mat: SL2, eps: int) -> ExactScalar:
    # xi_p = 1 for p not dividing 2 Delta (tested), so the product is finite.
    out = _ONE
    for p in sorted(interesting_primes(lattice) | {2}):
        out = out * xi_p(lattice, mat, eps, p)
    return out


# -- the closed formula ----------------------------------------------------


def _c0_scalar(signature: int, a: int, eps: int) -> ExactScalar:
    """delta^(-sgn), the scalar of rho at c = 0: delta = eps for a = d = 1
    and -i eps for a = d = -1."""
    delta = from_rational(eps) if a == 1 else root_of_unity(-1, 4) * eps
    return delta ** (-(signature % 8))


def _closed_assembly(form: DiscriminantForm, mat: SL2, coeff: ExactScalar,
                     coset: List[Tuple[DFElement, int]]) -> PhaseOperator:
    """Sum the closed-formula phases over the c-star coset x_c + cD.

    `coset` is form.coset_Dcstar(c, x_c).  Each phase is an integer k mod
    the level N, and the cell is coeff * e(k/N).  Elements are addressed by
    their mixed-radix index in form.elements(); for each beta the phases
    of all gamma come from the pairing row of beta and the q table, and the
    positions of the cells (beta + d gamma, gamma) in the row-major table
    are computed one coordinate at a time.  At c = 0 the coset is {0}, and
    the cells are coeff * e(bd gamma^2/2) at (d gamma, gamma).
    """
    a, b, d = mat.a, mat.b, mat.d
    n = form.level
    elems = form.elements()
    dim = len(elems)
    PhaseOperator.require(coeff, n, dim, dim * len(coset))
    pairs = form.pairing_table()
    # one step in coordinate r moves a cell this far down the row-major table
    steps = [prod(form.orders[r + 1:]) * dim for r in range(len(form.orders))]
    d_coords = [[d * g % o for g in col] for col, o in zip(zip(*elems), form.orders)]
    tails = [b * d * t for t in form.q_table()]
    flat = [ZERO_PHASE] * (dim * dim)
    for beta, h in coset:
        # a N(c alpha^2/2 + (x_c, alpha)) + b N(gamma, beta) + bd N q(gamma)
        ah = a * h
        ks = [(ah + b * p + t) % n for p, t in zip(pairs[form.index(beta)], tails)]
        at = range(dim)
        for dcol, o, step, x in zip(d_coords, form.orders, steps, beta):
            at = [i + (x + y) % o * step for i, y in zip(at, dcol)]
        # flat[at[j]] = ks[j] for every j; setitem returns None, so any() runs it all
        any(map(flat.__setitem__, at, ks))
    phases = [flat[i:i + dim] for i in range(0, dim * dim, dim)]
    return PhaseOperator(elems, coeff, n, phases, form)


def rho_closed(lattice: GramLattice, x: MpElement) -> PhaseOperator:
    """rho_M(x) by the closed formula, for even and odd lattices.

    The operator is a scalar times the character sum over the coset
    D_M^{c*} = x_c + cD, enumerated as beta = x_c + c alpha over D/D_c.
    For c != 0 the scalar is Pi_p xi_p * sqrt(Delta_{M,c}/Delta_M); for
    c = 0 the coset is {0} and the scalar is delta^(-sgn) (see _c0_scalar).
    Delta_{M,c}/Delta_M = 1/|D/D_c| is read off the enumerated coset.  An
    odd lattice needs x in the parity subgroup, where odd c forces even a,
    so a (c alpha^2/2) is well defined although q is only defined mod 1/2;
    for odd c its x_c is reported as zero (the half-sum is not dual) and
    xi_2 picks up zeta_8^(-a_2 c_2 t_1), t_1 the oddity of the scale-1
    component.
    """
    if not lattice.is_even and not gamma_odd_member(x.mat):
        raise ValueError("matrix outside the parity subgroup: "
                         "no Weil action is defined")
    form = lattice.discriminant_form()
    require_dense(form.delta)
    mat, eps = x.mat, x.eps
    if mat.c == 0:
        coeff, x_c = _c0_scalar(form.signature, mat.a, eps), form.zero()
    else:
        coeff = _xi_product(lattice, mat, eps)
        x_c, t1 = choose_xc(jordan_decompose(lattice, 2), mat.c)
        if mat.c % 2 and t1 is not None:
            coeff = coeff * root_of_unity(-_unit_at(mat.a, 2) * _unit_at(mat.c, 2) * t1, 8)
    coset = form.coset_Dcstar(mat.c, x_c)
    coeff = coeff * sqrt_rat(Fraction(1, len(coset)))
    return _closed_assembly(form, mat, coeff, coset)


def rho_closed_odd(lattice: GramLattice, x: MpElement) -> PhaseOperator:
    """rho_closed, for an odd lattice only."""
    if lattice.is_even:
        raise ValueError("rho_closed_odd requires an odd lattice")
    return rho_closed(lattice, x)


# -- characters and kernels ------------------------------------------------


def phi_char(lattice: GramLattice, x: MpElement) -> ExactScalar:
    """The character phi on the preimage of Gamma_0(N).

    phi(x) is the scalar by which rho(x) acts on e_0; on Gamma_0^0(N) the
    whole operator is phi(x) e(bd gamma^2/2) e_{d gamma}.  For c != 0 the
    closed product of quadratic symbols applies; for c = 0 the scalar is
    delta^(-sgn), which extends the product (the two agree at a = 1).
    """
    if not lattice.is_even:
        raise ValueError("phi is defined for even lattices")
    N = lattice.level()
    a, c = x.mat.a, x.mat.c
    if c % N:
        raise ValueError("phi requires N | c (N = %d, c = %d)" % (N, c))
    m = lattice.rank
    form = lattice.discriminant_form()
    if c == 0:
        return _c0_scalar(form.signature, a, x.eps)
    c2 = _unit_at(c, 2)
    v2 = valuation_split(c, 2).valuation
    v2_delta = valuation_split(form.delta, 2).valuation
    delta_two = 2 ** v2_delta
    delta_odd = form.delta // delta_two
    sign = x.eps ** m
    if m % 2:
        # With odd rank the level is even, hence a is odd and the symbols
        # with exponent m are defined; for even rank they are all 1.
        sign *= legendre(a, c2) ** m
        sign *= (-1) ** (m * eps_parity(a) * eps_parity(c2))
        sign *= two_over(a) ** (v2 * m)
    if delta_two > 1:
        sign *= legendre(delta_two, a)
    sign *= legendre(a, delta_odd)
    gamma2 = weil_index_lattice(lattice, 2)
    return from_rational(sign) * gamma2 ** (a - 1)


def kernel_descriptor(lattice: GramLattice) -> dict:
    """Which congruence subgroup the kernel of rho_M lies over, and how.

    The base group is Gamma(N) in exactly two cases, otherwise the larger
    group Gamma = {A in Gamma_0^0(N): a = d = 1 mod N-tilde}; the kernel is
    a double cover of the base group for even rank and a lift (one
    metaplectic sign per matrix) for odd rank.
    """
    if not lattice.is_even:
        raise ValueError("the kernel classification covers even lattices")
    form = lattice.discriminant_form()
    n_tilde = form.exponent
    N = lattice.level()
    m = lattice.rank
    gamma2 = weil_index_lattice(lattice, 2)
    gamma2_sq_one = (gamma2 * gamma2 == _ONE)
    v2_delta = valuation_split(form.delta, 2).valuation if form.delta > 1 else 0
    case_i = n_tilde % 4 == 2 and not gamma2_sq_one
    case_ii = m % 2 == 0 and n_tilde % 8 == 4 and v2_delta % 2 == 1
    return {
        "N": N,
        "N_tilde": n_tilde,
        "rank": m,
        "base_group": "Gamma(N)" if case_i or case_ii else "Gamma",
        "cover": "lift" if m % 2 else "double-cover",
        "case": "i" if case_i else ("ii" if case_ii else "generic"),
        "gamma_f2_squared_trivial": gamma2_sq_one,
        "v2_delta": v2_delta,
    }


def is_in_kernel(lattice: GramLattice, x: MpElement) -> bool:
    return rho_closed(lattice, x).is_identity()


# -- global consistency checks ---------------------------------------------


def braun_check(lattice: GramLattice, c: int) -> bool:
    """Braun's formula: sum over M/cM of e(eta^2/2c) against the closed side.

    Requires N | c; the right side is zeta_8^sgn |c|^(m/2) sqrt(Delta),
    conjugated for negative c.  Both sides are computed exactly.
    """
    N = lattice.level()
    if c == 0 or c % N:
        raise ValueError("Braun's formula needs a nonzero c with N | c")
    m = lattice.rank
    if abs(c) ** m > BRUTE_CAP:
        raise CapExceededError("M/cM has %d^%d elements" % (abs(c), m))
    g = lattice.gram
    sign = 1 if c > 0 else -1
    terms = []
    for eta in product(range(abs(c)), repeat=m):
        # e(eta^2/2c) = e(sign(c) eta^T G eta / 2|c|), from integers alone
        norm = sum(eta[i] * g[i][j] * eta[j] for i in range(m) for j in range(m))
        terms.append(root_of_unity(sign * norm, 2 * abs(c)))
    left = scalar_sum(terms)
    right = root_of_unity(lattice.signature(), 8) \
        * sqrt_rat(abs(c) ** m * lattice.delta())
    if c < 0:
        right = right.conjugate()
    return left == right


def weil_reciprocity_check(lattice: GramLattice) -> bool:
    """Product formula for the Weil indices: Pi_p gamma(f_p) = zeta_8^sgn."""
    prod_all = _ONE
    for p in sorted(interesting_primes(lattice) | {2}):
        prod_all = prod_all * weil_index_lattice(lattice, p)
    return prod_all == root_of_unity(lattice.signature(), 8)


def _kronecker(form: DiscriminantForm, ops: Sequence[PhaseOperator],
               local: Sequence[Sequence[int]]) -> PhaseOperator:
    """The tensor product of the p-part operators `ops` over form.elements():
    local[t][i] is the index of the i-th element's projection in ops[t].
    Cell phases add mod the lcm of the levels (a zero factor makes a zero
    cell), and the local scalars multiply once."""
    level = lcm(1, *(op.level for op in ops))
    coeff = prod((op.coeff for op in ops), start=_ONE)
    scales = [level // op.level for op in ops]
    phases = []
    for i in range(form.delta):
        row = [0] * form.delta
        for op, loc, s in zip(ops, local, scales):
            src = op.phases[loc[i]]
            row = [ZERO_PHASE if k == ZERO_PHASE or src[j] == ZERO_PHASE
                   else k + src[j] * s for k, j in zip(row, loc)]
        phases.append([k if k == ZERO_PHASE else k % level for k in row])
    return PhaseOperator(form.elements(), coeff, level, phases, form)


def tensor_check(lattice: GramLattice) -> bool:
    """The generator matrices factor as tensor products over the p-parts."""
    if not lattice.is_even:
        raise ValueError("the tensor comparison requires an even lattice")
    form = lattice.discriminant_form()
    full_t, full_s = rho_T(form), rho_S(form)
    elems = form.elements()
    t_ops, s_ops, local = [], [], []
    for p in sorted(interesting_primes(lattice)):
        t_p, s_p = rho_p_generators(lattice, p)
        part = t_p.form
        t_ops.append(t_p)
        s_ops.append(s_p)
        local.append([part.index(part.project(g)) for g in elems])
    return _kronecker(form, t_ops, local) == full_t \
        and _kronecker(form, s_ops, local) == full_s
