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

Every operator has one shape, a WeilOperator: its discriminant form, which
gives the basis (form.elements()), the dimension and the level N, one scalar,
and a matrix over the group ring Z[x]/(x^N - 1) read at x = zeta_N.  The
closed formula, T, S, Z, the identity and their p-parts have e(k/N) in every
nonzero cell.  They are built as a PhaseOperator, which stores the scalar
once and the phases k as one integer table, with ZERO_PHASE marking the zero
cells; the integers are read from the form's tables (N q(gamma), the
pairing rows and the addition table).  T and S on a p-part come from the
same builders, applied to the p-part, a DiscriminantForm with its own
coordinates and level N_p.
The tensor product over the p-parts and the JSON encoding work on those
integers.  The word oracle returns its product as it is built, a
RingOperator: one scalar times packed group-ring cells, and a phase table is
that ring packed at width 1, each nonzero cell the monomial x^k.
Equality needs one basis and one level, and has one route: one side is read
as a ring operator, and when the other is a phase operator the two are equal
when integer vectors reduced mod Phi_N agree and one scalar checks; two ring
operators compare the scalars of each distinct pair of cell keys once.
is_identity() is equality with the identity.  The one operator product,
A * B on one form, runs in that group ring through the oracle's S-step
kernel (_fold_products) and gives a RingOperator; unitarity is
(A * A.adjoint()).is_identity().  `entries`, the cells as ExactScalars, is a
view built on every read.  Operator equality is exact and the tests use it
with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, product
from math import gcd, lcm, prod
from operator import lshift, mul
from typing import List, Optional, Sequence, Tuple

from . import exact
from .exact import (ExactScalar, euler_phi, from_powers, from_rational, reduce_powers,
                    root_multiples, root_of_unity, root_sum, sqrt_rat)
from .jordan import (JordanComponent, choose_xc, jordan_components, jordan_decompose,
                     weil_index_component, weil_index_lattice)
from .lattice import (CapExceededError, DFElement, DiscriminantForm,
                      GramLattice, interesting_primes, require_dense)
from .metaplectic import MpElement, SL2, Word, decompose, gamma_odd_member
from .numth import eps_parity, legendre, two_over, unit_part, valuation_split

_ONE = from_rational(1)
_ZERO = from_rational(0)
# The phase of a zero cell of a PhaseOperator; every other phase is in [0, N).
ZERO_PHASE = -1


# -- operators -------------------------------------------------------------


class WeilOperator:
    """A discriminant form `form`, one scalar `coeff` and a matrix over
    Z[x]/(x^N - 1) read at x = zeta_N: the one shape of every operator, a
    PhaseOperator or a RingOperator.

    The form alone gives the basis, labels = form.elements() (form.index
    inverts it), dim = form.delta and N = level = form.level: cell (i, j) is
    the coefficient of e_{labels[i]} in the image of e_{labels[j]}.  A
    subclass gives _cell_table, the cells' scalars by key and the key of
    every cell, and its cells at x = 1 (_sums) and packed at a width
    (_packed).  Equality and is_identity are defined here, once: a phase
    table is compared as the ring operator of its cells packed at width 1.

    A * B is a RingOperator with scalar A.coeff * B.coeff, multiplied with
    packed cells.  Its nonnegative coefficients are at most their cell's
    value at x = 1, the sum over l of s_A(i, l) s_B(l, j) for the operands'
    cell sums s; B bits hold the largest, and each cell must sum to exactly
    its value.
    """

    __slots__ = ("form", "coeff")

    def __init__(self, coeff: ExactScalar, form: DiscriminantForm):
        self.coeff, self.form = coeff, form

    dim = property(lambda self: self.form.delta)
    level = property(lambda self: self.form.level)
    labels = property(lambda self: self.form.elements(), doc="form.elements(), a fresh list")

    @staticmethod
    def identity(labels: Sequence[DFElement], form: DiscriminantForm) -> "PhaseOperator":
        """The identity on the basis `labels` of `form`, at the form's level;
        raises ValueError unless labels == form.elements()."""
        if list(labels) != form.elements():
            raise ValueError("the identity's labels must be its form's elements")
        n = form.delta
        return _one_per_column(form, _ONE, range(n), [0] * n)

    def __mul__(self, other) -> "RingOperator":
        if not isinstance(other, WeilOperator):
            return NotImplemented
        if other.form is not self.form:
            raise ValueError("an operator product needs one form")
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
        out = RingOperator(self.coeff * other.coeff, width, ring, self.form)
        out._require_sums(expected)
        return out

    @property
    def entries(self) -> List[List[ExactScalar]]:
        """The cells as ExactScalars, one object per distinct cell key, built
        from _cell_table() on every read; read it once, outside a loop."""
        cells, table = self._cell_table()
        return [list(map(cells.__getitem__, keys)) for keys in table]

    def __eq__(self, other) -> bool:
        """Cell-wise equality; operators on bases of different orders or at
        different levels are never equal.  One side is read as a ring
        operator, a phase table as its monomials x^k packed at width 1; a
        phase operator on the other side is compared on integers
        (_same_phases), a ring operator by its cell scalars (_same_values)."""
        if not isinstance(other, WeilOperator):
            return NotImplemented
        if self.form.orders != other.form.orders or self.level != other.level:
            return False
        ring, op = (self, other) if isinstance(self, RingOperator) else (other, self)
        if isinstance(ring, PhaseOperator):
            ring = RingOperator(ring.coeff, 1, ring._packed(1), ring.form)
        if isinstance(op, PhaseOperator):
            return ring._same_phases(op)
        return ring._same_values(op)

    def is_identity(self) -> bool:
        return self == WeilOperator.identity(self.labels, self.form)

    __hash__ = None

    def __repr__(self) -> str:
        return "%s(dim=%d, level=%d)" % (type(self).__name__, self.dim, self.level)

    def to_json(self) -> dict:
        """{"dim", "entries"}: the one exact encoder of every operator type.
        Each distinct scalar of _cell_table is encoded once, then every cell
        gets a dict and lists of its own."""
        cells, table = self._cell_table()
        encoded = {}
        for key, x in cells.items():
            data = x.to_json()
            encoded[key] = (data["order"], data["coeffs"])
        return {
            "dim": self.dim,
            "entries": [[{"order": order, "coeffs": coeffs[:]}
                         for order, coeffs in map(encoded.__getitem__, keys)]
                        for keys in table],
        }

    def to_numeric_json(self, precision_bits: int) -> dict:
        """{"dim", "entries_numeric"}: the [real, imag] midpoints of every
        cell, each distinct scalar of _cell_table evaluated once."""
        cells, table = self._cell_table()
        numeric = {}
        for key, x in cells.items():
            box = x.eval_numeric(precision_bits)
            numeric[key] = [float(box.real_mid), float(box.imag_mid)]
        return {"dim": self.dim,
                "entries_numeric": [[mid[:] for mid in map(numeric.__getitem__, keys)]
                                    for keys in table]}


class PhaseOperator(WeilOperator):
    """coeff * e(phases[i][j] / N) at cell (i, j), N the form's level, and
    zero where the phase is ZERO_PHASE.

    The table must be dim x dim and every other phase must lie in [0, N);
    the constructor raises ValueError otherwise.  Build the table only after
    PhaseOperator.require has passed.
    """

    __slots__ = ("phases",)

    def __init__(self, coeff: ExactScalar, phases: List[List[int]], form: DiscriminantForm):
        super().__init__(coeff, form)
        n = form.delta
        if coeff.is_zero():
            raise ValueError("a phase operator needs a nonzero scalar")
        if len(phases) != n or any(len(row) != n for row in phases):
            raise ValueError("the phase table must be %d x %d" % (n, n))
        if min(map(min, phases)) < ZERO_PHASE or max(map(max, phases)) >= form.level:
            raise ValueError("a phase lies outside [0, %d)" % form.level)
        self.phases = phases

    @staticmethod
    def require(coeff: ExactScalar, form: DiscriminantForm, nonzero: int) -> None:
        """Raise CapExceededError unless the dense form fits DENSE_CAP: dim^2
        cells, `nonzero` of them holding phi(lcm(order, N)) coefficients."""
        require_dense(form.delta, nonzero * (euler_phi(lcm(coeff.order, form.level)) - 1))

    def _cell_table(self) -> Tuple[dict, List[List[int]]]:
        """coeff * e(k/N) for each distinct phase k, and zero for
        ZERO_PHASE: root_multiples embeds coeff once per target order and
        rotates it once per phase."""
        keys = set().union(*self.phases)
        cells = root_multiples(self.coeff, keys - {ZERO_PHASE}, self.level)
        if ZERO_PHASE in keys:
            cells[ZERO_PHASE] = _ZERO
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
        return PhaseOperator(self.coeff.conjugate(), phases, self.form)

    def is_unitary(self) -> bool:
        return (self * self.adjoint()).is_identity()


# -- generator matrices ----------------------------------------------------


def rho_T(form: DiscriminantForm) -> PhaseOperator:
    """rho(T): the diagonal operator e_gamma -> e(gamma^2/2) e_gamma."""
    if not form.is_even:
        raise ValueError("rho(T) requires an even lattice; "
                         "T is outside the parity subgroup of an odd one")
    n = form.delta
    PhaseOperator.require(_ONE, form, n)
    return _one_per_column(form, _ONE, range(n), form.q_table())


def _one_per_column(form: DiscriminantForm, coeff: ExactScalar, rows: Sequence[int],
                    phases: Sequence[int]) -> PhaseOperator:
    """coeff * e(phases[j]/N) at cell (rows[j], j) and zero elsewhere: the
    identity, T and Z, each with one nonzero cell per column."""
    n = form.delta
    table = [[ZERO_PHASE] * n for _ in range(n)]
    for j, (i, k) in enumerate(zip(rows, phases)):
        table[i][j] = k
    return PhaseOperator(coeff, table, form)


def _fourier(form: DiscriminantForm, coeff: ExactScalar) -> PhaseOperator:
    """coeff * e(-(gamma, delta)) at row delta, column gamma, read off
    form.pairing_table()."""
    n = form.level
    PhaseOperator.require(coeff, form, form.delta ** 2)
    return PhaseOperator(coeff, [[-p % n for p in row] for row in form.pairing_table()], form)


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
    n = form.delta
    coeff = root_of_unity(-2 * form.signature, 8)
    PhaseOperator.require(coeff, form, n)
    return _one_per_column(form, coeff, form.smul_indices(-1), [0] * n)


def rho_p_generators(lattice: GramLattice, p: int) -> Tuple[PhaseOperator, PhaseOperator]:
    """T and S on the p-part D_p, the builders of rho_T and rho_S applied to
    the form p_part(p), at its level N_p.

    T_p is diagonal with the characters e(gamma^2/2) of D_p; S_p carries the
    scalar conj(gamma(f_p)) / sqrt(Delta_p), gamma(f_p) = e(k/8).  Tensoring
    over p recovers rho_T and rho_S (see tensor_check).
    """
    part = lattice.discriminant_form().p_part(p)
    require_dense(part.delta)
    coeff = root_of_unity(-weil_index_lattice(lattice, p), 8) * sqrt_rat(Fraction(1, part.delta))
    return rho_T(part), _fourier(part, coeff)


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
    ring Z[x]/(x^N - 1) read at x = zeta_N, N the form's level, with
    coefficient t in bits [tB, (t+1)B), B = width: the product of a
    generator word as _group_ring_product returns it, or the product of two
    operators.

    `coeffs` maps each distinct packed cell to its N coefficients, unpacked
    once here.  Equality with a phase operator (the identity test among
    them) and the cell sums at x = 1 run on these integers; the ExactScalar
    cells are built only for `entries`, to_json() and equality of two ring
    operators.
    """

    __slots__ = ("width", "ring", "coeffs")

    def __init__(self, coeff: ExactScalar, width: int, ring: List[List[int]],
                 form: DiscriminantForm):
        super().__init__(coeff, form)
        self.width, self.ring = width, ring
        mask = (1 << width) - 1
        fields = range(0, form.level * width, width)
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

    def _same_values(self, other: "RingOperator") -> bool:
        """Cell-wise equality of the scalars: each distinct pair of cell keys
        of the two _cell_table()s is compared once."""
        cells, table = self._cell_table()
        other_cells, other_table = other._cell_table()
        pairs = set()
        for keys, other_keys in zip(table, other_table):
            pairs.update(zip(keys, other_keys))
        return all(cells[k] == other_cells[m] for k, m in pairs)

    def _same_phases(self, op: PhaseOperator) -> bool:
        """Cell-wise equality with a phase operator at the same level N.

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
    op = RingOperator(scalar, width, ring, form)
    # The product at x = 1 is J^s: dim^(s-1) J, or I for s = 0.
    dim = len(ring)
    op._require_sums([[dim ** (s - 1)] * dim for _ in range(dim)] if s
                     else [[int(i == j) for j in range(dim)] for i in range(dim)])
    return op


# -- local factors ---------------------------------------------------------


def xi_p(lattice: GramLattice, mat: SL2, eps: int, p: int,
         components: Sequence[JordanComponent]) -> int:
    """The local root of unity xi_p = e(k/8) of the closed formula, as k mod 8.

    For odd p this is the quadratic symbol (a_p / Delta_p) times the product
    of conjugate Weil indices of the components of scale q not dividing c,
    scaled by a_p c.  At p = 2 the quadratic symbols in a_2 and c_2 and the
    power gamma(f_2)^(a_2 - 1) enter as well, and at odd c, where x_c = 0,
    so does e(-a_2 c_2 t_1/8), t_1 the oddity of the unimodular component
    (0 for type II, so on every even lattice).  A symbol -1 adds 4 to k, a
    Weil index e(j/8) adds j.  For a = 0 the unit a_p is taken to be 1 (the
    value does not depend on the choice); for c = 0 the component product is
    empty and c_2 = +1 by convention.  `components` are the p-adic Jordan
    components of the lattice, jordan_components(lattice, p) or, at p = 2,
    the components of a 2-adic decomposition the caller already holds;
    weil_index_component reads each scaled index off a component's symbol.
    """
    m = lattice.rank
    a, c = mat.a, mat.c
    a_p = unit_part(a, p)
    # v_p(c) compared against component scales; c = 0 is divisible by all q.
    v = valuation_split(c, p).valuation if c else None
    comp_prod = -sum(weil_index_component(comp, a_p * c)
                     for comp in components if c and comp.e > v)
    delta_p = p ** sum(comp.e * comp.n for comp in components)
    if p != 2:
        return (2 * (1 - legendre(a_p, delta_p)) + comp_prod) % 8
    c2 = unit_part(c, 2)
    v2 = v or 0
    sign = eps ** m
    sign *= legendre(a, c2) ** m
    sign *= (-1) ** (m * eps_parity(a_p) * eps_parity(c2))
    sign *= two_over(a_p) ** (v2 * m)
    sign *= legendre(delta_p, a_p)
    gamma2 = weil_index_lattice(lattice, 2)
    t1 = (components[0].t or 0) if v == 0 and components[0].e == 0 else 0
    return (2 * (1 - sign) + gamma2 * (a_p - 1) + comp_prod - a_p * c2 * t1) % 8


def _xi_product(lattice: GramLattice, mat: SL2, eps: int,
                two_adic: Sequence[JordanComponent]) -> int:
    """k mod 8 for the product of the xi_p; xi_p = 1 for p not dividing
    2 Delta (tested), so the sum is finite.  xi_2 reads `two_adic`, the
    components of the 2-adic decomposition rho_closed made, and each odd p
    its own jordan_components(lattice, p)."""
    return (xi_p(lattice, mat, eps, 2, two_adic)
            + sum(xi_p(lattice, mat, eps, p, jordan_components(lattice, p))
                  for p in interesting_primes(lattice) - {2})) % 8


# -- the closed formula ----------------------------------------------------


def _c0_scalar(signature: int, a: int, eps: int) -> int:
    """k mod 8 for delta^(-sgn) = e(k/8), the scalar of rho at c = 0: delta
    = eps for a = d = 1 and -i eps = e(-2/8) eps for a = d = -1."""
    delta = 2 * (1 - eps) + (0 if a == 1 else -2)
    return -signature * delta % 8


def _closed_assembly(form: DiscriminantForm, mat: SL2, coeff: ExactScalar, shift: int,
                     coset: List[Tuple[DFElement, int]]) -> PhaseOperator:
    """Sum the closed-formula phases over the c-star coset x_c + cD.

    `coset` is form.coset_Dcstar(c, x_c).  Each phase is an integer k mod
    the level N, `shift` included, and the cell is coeff * e(k/N).  Elements
    are addressed by their index in form.elements(), and each beta costs one
    pass over gamma: the phases come from the pairing row of beta and the q
    table, and the rows beta + d gamma from the addition table's row of
    beta, gathered at index(d gamma).  At c = 0 the coset is {0}, and the
    cells are coeff * e(bd gamma^2/2) at (d gamma, gamma).
    """
    a, b, d = mat.a, mat.b, mat.d
    n, dim = form.level, form.delta
    PhaseOperator.require(coeff, form, dim * len(coset))
    pairs, add = form.pairing_table(), form.add_table()
    d_at = form.smul_indices(d)
    tails = [b * d * t for t in form.q_table()]
    phases = [[ZERO_PHASE] * dim for _ in range(dim)]
    for beta, h in coset:
        i = form.index(beta)
        at = add[i]
        # a N(c alpha^2/2 + (x_c, alpha)) + b N(gamma, beta) + bd N q(gamma)
        ah = a * h + shift
        for j, x, p, t in zip(range(dim), d_at, pairs[i], tails):
            phases[at[x]][j] = (ah + b * p + t) % n
    return PhaseOperator(coeff, phases, form)


def rho_closed(lattice: GramLattice, x: MpElement) -> PhaseOperator:
    """rho_M(x) by the closed formula, for even and odd lattices.

    The operator is a scalar times the character sum over the coset
    D_M^{c*} = x_c + cD, enumerated as beta = x_c + c alpha over D/D_c.
    For c != 0 the scalar is Pi_p xi_p * sqrt(Delta_{M,c}/Delta_M); for
    c = 0 the coset is {0} and the scalar is delta^(-sgn) (see _c0_scalar).
    Delta_{M,c}/Delta_M = 1/|D/D_c| is read off the enumerated coset.  An
    odd lattice needs x in the parity subgroup, where odd c forces even a,
    so a (c alpha^2/2) is well defined although q is only defined mod 1/2.
    For c != 0 one 2-adic decomposition, jordan_decompose(lattice, 2), serves
    both consumers: its components give xi_2, and at even c choose_xc reads
    x_c from its component at scale 2^(v_2(c)).  At odd c, x_c = 0: on an
    even lattice the unimodular 2-adic component is of type II, and on an
    odd lattice its half-sum is not dual and xi_2 carries its oddity
    instead.  gamma_2 inside xi_2 takes the one other decomposition, through
    weil_index_lattice(lattice, 2); c = 0 takes none.  The scalar's root of
    unity e(s/8) is split canonically: with g = gcd(8, N) and
    (q, r) = divmod(s mod 8, 8/g), coeff is e(r/8) sqrt(1/|D/D_c|),
    0 <= r < 8/g, and e(q/g) adds q N/g to every phase.  No two such
    scalars differ by an N-th root of unity, so (coeff, phases) is a
    function of the operator alone.
    """
    if not lattice.is_even and not gamma_odd_member(x.mat):
        raise ValueError("matrix outside the parity subgroup: "
                         "no Weil action is defined")
    form = lattice.discriminant_form()
    require_dense(form.delta)
    mat, eps = x.mat, x.eps
    if mat.c == 0:
        s, x_c = _c0_scalar(form.signature, mat.a, eps), form.zero()
    else:
        decomp = jordan_decompose(lattice, 2)
        s = _xi_product(lattice, mat, eps, decomp.components)
        x_c = form.zero() if mat.c % 2 else choose_xc(decomp, mat.c)
    coset = form.coset_Dcstar(mat.c, x_c)
    g = gcd(8, form.level)
    q, r = divmod(s % 8, 8 // g)
    coeff = root_of_unity(r, 8) * sqrt_rat(Fraction(1, len(coset)))
    return _closed_assembly(form, mat, coeff, q * form.level // g, coset)


def rho_closed_odd(lattice: GramLattice, x: MpElement) -> PhaseOperator:
    """rho_closed, for an odd lattice only."""
    if lattice.is_even:
        raise ValueError("rho_closed_odd requires an odd lattice")
    return rho_closed(lattice, x)


# -- characters and kernels ------------------------------------------------


def phi_char(lattice: GramLattice, x: MpElement) -> int:
    """The character phi = e(k/8) on the preimage of Gamma_0(N), as k mod 8.

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
    v2, c2 = valuation_split(c, 2)
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
    return (2 * (1 - sign) + weil_index_lattice(lattice, 2) * (a - 1)) % 8


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
    # gamma(f_2)^2 = e(2k/8) is 1 exactly when 4 | k
    gamma2_sq_one = weil_index_lattice(lattice, 2) % 4 == 0
    v2_delta = valuation_split(form.delta, 2).valuation
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
    if abs(c) ** m > exact.BRUTE_CAP:
        raise CapExceededError("M/cM has %d^%d elements" % (abs(c), m))
    g = lattice.gram
    sign = 1 if c > 0 else -1
    # e(eta^2/2c) = e(sign(c) eta^T G eta / 2|c|), from integers alone
    left = root_sum((sign * sum(eta[i] * g[i][j] * eta[j] for i in range(m) for j in range(m))
                     for eta in product(range(abs(c)), repeat=m)), 2 * abs(c))
    right = root_of_unity(lattice.signature(), 8) \
        * sqrt_rat(abs(c) ** m * lattice.delta())
    if c < 0:
        right = right.conjugate()
    return left == right


def weil_reciprocity_check(lattice: GramLattice) -> bool:
    """Product formula for the Weil indices: Pi_p gamma(f_p) = zeta_8^sgn,
    the oddity formula sum_p k_p = sgn mod 8 on their exponents."""
    total = sum(weil_index_lattice(lattice, p)
                for p in sorted(interesting_primes(lattice) | {2}))
    return (total - lattice.signature()) % 8 == 0


def _kronecker(form: DiscriminantForm, ops: Sequence[PhaseOperator],
               local: Sequence[Sequence[int]]) -> PhaseOperator:
    """The tensor product of the p-part operators `ops` over form.elements():
    local[t][i] is the index of the i-th element's projection in ops[t].
    The form's level N is the lcm of the p-parts' levels N_p, so a phase of
    ops[t] is scaled by N/N_p; cell phases add mod N (a zero factor makes a
    zero cell), and the local scalars multiply once."""
    level = form.level
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
    return PhaseOperator(coeff, phases, form)


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
