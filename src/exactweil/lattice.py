"""Integer lattices and their discriminant forms.

A lattice is given by its Gram matrix: a nondegenerate symmetric integer
matrix.  The discriminant group M*/M is presented through a Smith normal
form U G V = D of the Gram matrix, as tuples of residues on the dual basis
h_i = v_i/d_i.  Everything is built from integers: the level N and an
integer Gram matrix mod N on the h_i (Stromberg's coordinates for finite
quadratic modules) come from W = V^T G V, and the signature from the
characteristic polynomial.  Pairing and q are integer dot products mod N,
read as k/N.  DiscriminantForm is the one finite quadratic module class: a
lattice's form is built from (orders, Gram matrix mod N, q diagonal, N)
after the Smith step, and the p-part D_p of an even form is a
DiscriminantForm of its own, on the p-primary factors of the orders, with
its own coordinates and level N_p.  Each form keeps, from its first use,
N q(gamma) for every element, the N (gamma_i, gamma_j) pairing rows and the
addition table index(gamma_i + gamma_j), all by element index, so the
operator builders read them instead of recomputing them per matrix.

Enumeration of the full group is capped at delta <= 10**5, and a dense
operator on it at 10**7 integers; both raise CapExceededError beyond that.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from typing import List, Optional, Sequence, Tuple

from .exact import CapExceededError, ExactScalar, root_sum
from .numth import prime_factors

DFElement = Tuple[int, ...]

ENUMERATION_CAP = 10 ** 5
# Integers a dense operator may hold: delta^2 cells plus the further
# coefficients of the nonzero cells of T, S, Z, their p-parts and the closed
# formula (weilrep.PhaseOperator counts them), or delta^2 cells times the level
# N for the word oracle's matrix over Z[x]/(x^N - 1).
DENSE_CAP = 10 ** 7


def _det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _identity(n: int) -> List[List[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(
    rows: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Return unimodular U, V and diagonal D with U*A*V = D, d_i | d_{i+1}.

    Input must be square and nonsingular.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if _det_int(rows) == 0:
        raise ValueError("matrix is singular")
    m = [list(map(int, r)) for r in rows]
    u = _identity(n)
    v = _identity(n)
    for t in range(n):
        while True:
            piv = None
            for i in range(t, n):
                for j in range(t, n):
                    if m[i][j] and (piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                raise ArithmeticError("no pivot left in a nonsingular matrix")
            if piv[0] != t:
                m[t], m[piv[0]] = m[piv[0]], m[t]
                u[t], u[piv[0]] = u[piv[0]], u[t]
            if piv[1] != t:
                for r in m:
                    r[t], r[piv[1]] = r[piv[1]], r[t]
                for r in v:
                    r[t], r[piv[1]] = r[piv[1]], r[t]
            clean = True
            for i in range(t + 1, n):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(n):
                        m[i][j] -= q * m[t][j]
                        u[i][j] -= q * u[t][j]
                    if m[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for r in m:
                        r[j] -= q * r[t]
                    for r in v:
                        r[j] -= q * r[t]
                    if m[t][j]:
                        clean = False
            if not clean:
                continue
            bad = next(((i, j) for i in range(t + 1, n) for j in range(t + 1, n)
                        if m[i][j] % m[t][t]), None)
            if bad is None:
                break
            # fold the offending row into row t; the next pass shrinks the pivot
            for j in range(n):
                m[t][j] += m[bad[0]][j]
                u[t][j] += u[bad[0]][j]
        if m[t][t] < 0:
            for j in range(n):
                m[t][j] = -m[t][j]
                u[t][j] = -u[t][j]
    return u, m, v


def _charpoly(rows: Sequence[Sequence[int]]) -> List[int]:
    """Coefficients of det(x I - A), leading first, by Faddeev-LeVerrier.

    For an integer matrix every division in the recursion is exact."""
    n = len(rows)
    coeffs = [1]
    m = _identity(n)
    for k in range(1, n + 1):
        am = _mat_mul(rows, m)
        c = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(c)
        for i in range(n):
            am[i][i] += c
        m = am
    return coeffs


class GramLattice:
    """A nondegenerate integer lattice described by its Gram matrix."""

    __slots__ = ("gram", "rank", "is_even", "_det", "_df")

    def __init__(self, rows: Sequence[Sequence[int]]):
        m = len(rows)
        if m == 0 or any(not isinstance(r, (list, tuple)) or len(r) != m for r in rows):
            raise ValueError("Gram matrix must be square and nonempty")
        if any(type(x) is bool or not isinstance(x, int) for r in rows for x in r):
            raise ValueError("Gram matrix entries must be integers")
        gram = tuple(tuple(int(x) for x in r) for r in rows)
        if any(gram[i][j] != gram[j][i] for i in range(m) for j in range(m)):
            raise ValueError("Gram matrix must be symmetric")
        self._det = _det_int(gram)
        if self._det == 0:
            raise ValueError("Gram matrix must be nondegenerate")
        self.gram = gram
        self.rank = m
        self.is_even = all(gram[i][i] % 2 == 0 for i in range(m))
        self._df: Optional["DiscriminantForm"] = None

    def det(self) -> int:
        return self._det

    def delta(self) -> int:
        return abs(self.det())

    def signature(self) -> int:
        """Positive minus negative eigenvalues.  The characteristic
        polynomial is real-rooted with no zero root, so by Descartes' rule
        its sign changes count the positive eigenvalues."""
        coeffs = [c for c in _charpoly(self.gram) if c]
        changes = sum(a * b < 0 for a, b in zip(coeffs, coeffs[1:]))
        return 2 * changes - self.rank

    def level(self) -> int:
        """Smallest N >= 1 with N * gamma^2/2 integral for all dual vectors."""
        return self.discriminant_form().level

    def discriminant_form(self) -> "DiscriminantForm":
        if self._df is None:
            self._df = DiscriminantForm.of_lattice(self)
        return self._df

    def __repr__(self) -> str:
        return f"GramLattice({[list(r) for r in self.gram]})"


def direct_sum(left: GramLattice, right: GramLattice) -> GramLattice:
    m, n = left.rank, right.rank
    rows = [[left.gram[i][j] if j < m else 0 for j in range(m + n)] for i in range(m)]
    rows += [[0 if j < m else right.gram[i - m][j - m] for j in range(m + n)]
             for i in range(m, m + n)]
    return GramLattice(rows)


def interesting_primes(lattice: GramLattice) -> set:
    """Primes dividing the discriminant (equivalently the level)."""
    return set(prime_factors(lattice.delta()))


def _p_split(d: int, p: int) -> Tuple[int, int]:
    """(q, e): the p-power part q of d, and the CRT idempotent e of Z/d,
    1 mod q and 0 mod d/q."""
    q = 1
    while d % (q * p) == 0:
        q *= p
    return q, d // q * pow(d // q, -1, q) % d


def require_dense(delta: int, extra: int = 0) -> None:
    """Raise CapExceededError unless a delta x delta matrix holding one
    integer a cell plus `extra` further integers stays within DENSE_CAP;
    call before allocating it."""
    size = delta ** 2 + extra
    if size > DENSE_CAP:
        raise CapExceededError("a dense operator on %d elements would hold "
                               "%d integers (cap %d)" % (delta, size, DENSE_CAP))


class DiscriminantForm:
    """A finite quadratic module: the discriminant form M*/M of a lattice,
    or the p-part of one.

    Elements are tuples of residues against `orders`, and the form is kept
    as integers mod the level N (Stromberg's coordinates): on the generators
    g_i, B = `gram_mod` with B[i][j] = N (g_i, g_j) mod N, and Q[i] =
    N g_i^2/2 mod N.  So N (x, y) is x^T B y mod N, and N q(x) is
    sum x_i^2 Q[i] + sum_{i<j} x_i x_j B[i][j], mod N for even forms and
    mod N/2 for odd ones; `pairing` and `qval` return those integers over N.

    A lattice's form (`of_lattice`) alone keeps the lattice, its signature
    and the Smith data that class_from_dual_vector reads; `p_part(p)` is a
    form of its own, with its own coordinates and level N_p.

    Element i of `elements()` has the mixed-radix digits of i against
    `orders` as coordinates (`index` inverts this).  The per-element tables,
    `q_table`, `pairing_table` and `add_table`, are built on first use and
    kept, as the lattice keeps its form.
    """

    __slots__ = ("orders", "delta", "level", "exponent", "is_even", "gram_mod",
                 "_q_gram", "_q_mod", "_strides", "_elems", "_q_table", "_pair_table",
                 "_add_table", "lattice", "signature", "_u", "_d_full", "_positions")

    def __init__(self, orders: Sequence[int], gram_mod: Sequence[Sequence[int]],
                 q_diag: Sequence[int], level: int, is_even: bool = True):
        self.orders = tuple(orders)
        self.delta = prod(self.orders)
        self.level = level
        self.exponent = self.orders[-1] if self.orders else 1
        self.is_even = is_even
        if not is_even and level % 2:
            raise ArithmeticError("odd form with odd level %d" % level)
        self._q_mod = level if is_even else level // 2
        self.gram_mod = tuple(map(tuple, gram_mod))
        self._q_gram = tuple(tuple(q_diag[s] if t == s else b if t > s else 0
                                   for t, b in enumerate(row))
                             for s, row in enumerate(self.gram_mod))
        self._strides = tuple(prod(self.orders[r + 1:]) for r in range(len(self.orders)))
        self._elems: Optional[List[DFElement]] = None
        self._q_table: Optional[List[int]] = None
        self._pair_table: Optional[List[List[int]]] = None
        self._add_table: Optional[List[List[int]]] = None
        self.lattice = self.signature = self._u = self._d_full = self._positions = None

    @classmethod
    def of_lattice(cls, lattice: GramLattice) -> "DiscriminantForm":
        """The form of M*/M from a Smith normal form U G V = D.

        The generators are h_i = v_i/d_i, with (h_i, h_j) = W_ij/(d_i d_j)
        for the integer matrix W = V^T G V.  The level N is the lcm of the
        denominators of q(h_i) and of (h_i, h_j) for i < j, over all m
        columns (the d_i = 1 columns carry the factor 2 of odd lattices);
        the coordinates are those on the h_i with d_i > 1, and B and Q are
        exact integer divisions of N W_ij.
        """
        u, d, v = smith_normal_form(lattice.gram)
        m = lattice.rank
        diag = [d[i][i] for i in range(m)]
        w = _mat_mul([list(col) for col in zip(*v)], _mat_mul(lattice.gram, v))
        keep = [i for i in range(m) if diag[i] > 1]
        orders = [diag[i] for i in keep]
        if prod(orders) != lattice.delta():
            raise ArithmeticError("the Smith orders multiply to %d, not to delta = %d"
                                  % (prod(orders), lattice.delta()))
        n = 1
        for i in range(m):
            n = lcm(n, 2 * diag[i] ** 2 // gcd(w[i][i], 2 * diag[i] ** 2))
            for j in range(i + 1, m):
                n = lcm(n, diag[i] * diag[j] // gcd(w[i][j], diag[i] * diag[j]))
        form = cls(orders, [[n * w[i][j] // (diag[i] * diag[j]) % n for j in keep] for i in keep],
                   [n * w[i][i] // (2 * diag[i] ** 2) % n for i in keep], n, lattice.is_even)
        form.lattice, form.signature, form._u, form._d_full = \
            lattice, lattice.signature(), u, diag
        return form

    # -- group structure ------------------------------------------------

    def zero(self) -> DFElement:
        return (0,) * len(self.orders)

    def add(self, x: DFElement, y: DFElement) -> DFElement:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x: DFElement) -> DFElement:
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def smul(self, c: int, x: DFElement) -> DFElement:
        return tuple((c * a) % d for a, d in zip(x, self.orders))

    def elements(self) -> List[DFElement]:
        if self._elems is None:
            if self.delta > ENUMERATION_CAP:
                raise CapExceededError(f"discriminant group has {self.delta} elements")
            self._elems = list(product(*(range(d) for d in self.orders)))
        return list(self._elems)

    def index(self, x: DFElement) -> int:
        """The position of x in elements()."""
        return sum(a * s for a, s in zip(x, self._strides))

    def smul_indices(self, c: int) -> List[int]:
        """index(c x) for every x in elements(), one coordinate column at a time."""
        at = [0] * self.delta
        for col, o, s in zip(zip(*self.elements()), self.orders, self._strides):
            at = [i + c * a % o * s for i, a in zip(at, col)]
        return at

    def add_table(self) -> List[List[int]]:
        """index(x + y) for x and y in elements(), row index(x), column
        index(y), accumulated one coordinate column at a time: delta^2
        integers, so the dense cap is checked before the first build; do
        not mutate."""
        if self._add_table is None:
            require_dense(self.delta)
            elems = self.elements()
            cols = list(zip(*elems))
            table = []
            for x in elems:
                acc = [0] * len(elems)
                for a, col, o, s in zip(x, cols, self.orders, self._strides):
                    acc = [i + (a + b) % o * s for i, b in zip(acc, col)]
                table.append(acc)
            self._add_table = table
        return self._add_table

    # -- values ------------------------------------------------------------

    def pairing_row(self, y: DFElement) -> Tuple[int, ...]:
        """The integers w with N (x, y) = sum x_i w_i mod N for every x."""
        n = self.level
        return tuple(sum(b * t for b, t in zip(row, y)) % n for row in self.gram_mod)

    def pairing_num(self, x: DFElement, y: DFElement) -> int:
        """N (x, y) mod N."""
        return sum(a * w for a, w in zip(x, self.pairing_row(y))) % self.level

    def q_num(self, x: DFElement) -> int:
        """N x^2/2, mod N for even lattices and mod N/2 for odd."""
        return sum(a * sum(b * t for b, t in zip(row, x))
                   for a, row in zip(x, self._q_gram)) % self._q_mod

    def q_table(self) -> List[int]:
        """q_num of every element, in elements() order; do not mutate."""
        if self._q_table is None:
            self._q_table = [self.q_num(x) for x in self.elements()]
        return self._q_table

    def pairing_table(self) -> List[List[int]]:
        """N (x, y) mod N for x and y in elements(), accumulated one
        coordinate column at a time: delta^2 integers, so the dense cap is
        checked before the first build; do not mutate."""
        if self._pair_table is None:
            require_dense(self.delta)
            n, elems = self.level, self.elements()
            cols = list(zip(*elems))
            table = []
            for y in elems:
                acc = [0] * len(elems)
                for w, col in zip(self.pairing_row(y), cols):
                    if w:
                        acc = [s + w * a for s, a in zip(acc, col)]
                table.append([s % n for s in acc])
            self._pair_table = table
        return self._pair_table

    def pairing(self, x: DFElement, y: DFElement) -> Fraction:
        return Fraction(self.pairing_num(x, y), self.level)

    def qval(self, x: DFElement) -> Fraction:
        """q(x) = x^2/2, mod 1 for even lattices and mod 1/2 for odd."""
        return Fraction(self.q_num(x), self.level)

    # -- classes from dual vectors ---------------------------------------

    def class_from_dual_vector(self, vec: Sequence[Fraction], p: int) -> DFElement:
        """Class in the p-part of a p-local dual vector.

        The vector may have denominators coprime to p; its class is read
        off p-adically and set to zero away from p.
        """
        g = self.lattice.gram
        m = self.lattice.rank
        y = [sum(Fraction(g[i][j]) * vec[j] for j in range(m)) for i in range(m)]
        if any(t.denominator % p == 0 for t in y):
            raise ValueError("vector is not p-locally dual")
        coords = []
        for i, d in enumerate(self._d_full):
            if d == 1:
                continue
            q, e = _p_split(d, p)
            s = sum(Fraction(self._u[i][j]) * y[j] for j in range(m))
            # CRT: s mod q, zero mod the prime-to-p part
            coords.append(s.numerator * pow(s.denominator, -1, q) * e % d)
        return tuple(coords)

    # -- p-parts and c-indexed subsets ------------------------------------

    def p_part(self, p: int) -> "DiscriminantForm":
        """The p-primary part D_p, a form in its own coordinates at its level
        N_p, the p-power part of N; even forms only.

        Its orders are q_i = p^(v_p(d_i)) for the orders d_i divisible by p,
        its generators e_i g_i, e_i the CRT idempotent of Z/d_i (1 mod q_i,
        0 mod d_i/q_i), and `project` takes x to (x_i mod q_i).  Each Gram
        and q entry is e_i e_j B_ij mod N (e_i^2 Q_i for q) divided by N/N_p,
        and a division that is not exact raises ArithmeticError.
        """
        if not self.is_even:
            raise ValueError("p-parts are defined for even forms")
        n = self.level
        scale = n // _p_split(n, p)[0]
        split = [(i, *_p_split(d, p)) for i, d in enumerate(self.orders) if d % p == 0]

        def local(k: int) -> int:
            if k % scale:
                raise ArithmeticError("%d/%d is not a value of the %d-part" % (k, n, p))
            return k // scale

        part = DiscriminantForm(
            [q for _, q, _ in split],
            [[local(e * f * self.gram_mod[i][j] % n) for j, _, f in split] for i, _, e in split],
            [local(e * e * self._q_gram[i][i] % n) for i, _, e in split], n // scale)
        part._positions = tuple(i for i, _, _ in split)
        return part

    def project(self, x: DFElement) -> DFElement:
        """For a p-part, the image of an element x of its parent: x_i mod q_i."""
        return tuple(x[i] % q for i, q in zip(self._positions, self.orders))

    def kernel_generators(self, c: int) -> List[DFElement]:
        out = []
        for i, d in enumerate(self.orders):
            g = gcd(c, d)
            if g > 1:
                e = [0] * len(self.orders)
                e[i] = d // g
                out.append(tuple(e))
        return out

    def coset_Dcstar(self, c: int, x_c: DFElement) -> List[Tuple[DFElement, int]]:
        """The coset D^{c*} = x_c + cD, as pairs (beta, h) with beta = x_c + c alpha.

        alpha runs over the box prod range(d_i / gcd(c, d_i)), one
        representative of each class of D/D_c, so each beta occurs once;
        h = N (c alpha^2/2 + (x_c, alpha)) mod N.  x_c must lie in the coset
        (choose_xc checks it against the kernel of c).  N q(alpha) is read
        from q_table, so the whole group must fit the enumeration cap.
        """
        steps = [range(d // gcd(c, d)) for d in self.orders]
        if prod(map(len, steps)) > ENUMERATION_CAP:
            raise CapExceededError("the c-star coset exceeds the enumeration cap")
        n = self.level
        q = self.q_table()
        row = self.pairing_row(x_c)
        strides = self._strides
        out = []
        for alpha in product(*steps):
            beta = tuple((x + c * t) % d for x, t, d in zip(x_c, alpha, self.orders))
            h = c * q[sum(t * s for t, s in zip(alpha, strides))] \
                + sum(t * w for t, w in zip(alpha, row))
            out.append((beta, h % n))
        return out

    # -- identities -------------------------------------------------------

    def milgram_sum(self) -> ExactScalar:
        """Sum of e(gamma^2/2) over the group; even lattices only."""
        if not self.is_even:
            raise ValueError("Milgram sum needs an even lattice")
        return root_sum(self.q_table(), self.level)

    def to_json(self) -> dict:
        return {
            "orders": list(self.orders),
            "quad": [str(self.qval(self._basis_elem(i))) for i in range(len(self.orders))],
            "bilinear": [[str(self.pairing(self._basis_elem(i), self._basis_elem(j)))
                          for j in range(len(self.orders))]
                         for i in range(len(self.orders))],
            "delta": self.delta,
            "signature": self.signature,
            "level": self.level,
        }

    def _basis_elem(self, i: int) -> DFElement:
        e = [0] * len(self.orders)
        e[i] = 1
        return tuple(e)
