"""Integer lattices and their discriminant forms.

A lattice is given by its Gram matrix: a nondegenerate symmetric integer
matrix.  The discriminant group M*/M is presented through a Smith normal
form U G V = D of the Gram matrix, as tuples of residues on the dual basis
h_i = v_i/d_i.  Everything is built from integers: the level N and an
integer Gram matrix mod N on the h_i (Stromberg's coordinates for finite
quadratic modules) come from W = V^T G V, and the signature from the
characteristic polynomial.  Pairing and q are integer dot products mod N,
read as k/N.  Canonical lifts to the dual lattice (rational coordinates in
the lattice basis) remain as the independent reference the integer form is
checked against.

Enumeration of the full group is capped at delta <= 10**5, and a dense
operator on it at 10**7 integers; both raise CapExceededError beyond that.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from typing import List, Optional, Sequence, Tuple

from .exact import CapExceededError, ExactScalar, from_rational, root_of_unity

DFElement = Tuple[int, ...]
Vector = Tuple[Fraction, ...]

ENUMERATION_CAP = 10 ** 5
# Integers a dense operator may hold: delta^2 cells plus the further
# coefficients of the nonzero cells of T, S, Z, their p-parts and the closed
# formula (weilrep._PhaseCells counts them), or delta^2 cells times the level
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
            self._df = DiscriminantForm(self)
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
    from .numth import prime_factors

    return set(prime_factors(lattice.delta()))


def require_dense(delta: int, extra: int = 0) -> None:
    """Raise CapExceededError unless a delta x delta matrix holding one
    integer a cell plus `extra` further integers stays within DENSE_CAP;
    call before allocating it."""
    size = delta ** 2 + extra
    if size > DENSE_CAP:
        raise CapExceededError("a dense operator on %d elements would hold "
                               "%d integers (cap %d)" % (delta, size, DENSE_CAP))


class PPart:
    """The p-Sylow component of a discriminant form.

    Elements are kept in the coordinates of the parent group; `project` is
    the idempotent parent -> p-part, and `elements` enumerates the p-part
    in the canonical order of its cyclic factors.
    """

    __slots__ = ("parent", "p", "orders", "_positions", "_unit_gens", "delta")

    def __init__(self, parent: "DiscriminantForm", p: int):
        self.parent = parent
        self.p = p
        self.orders: List[int] = []
        self._positions: List[int] = []
        self._unit_gens: List[int] = []
        for i, d in enumerate(parent.orders):
            e = 0
            q = 1
            while d % (q * p) == 0:
                q *= p
                e += 1
            if e == 0:
                continue
            m_i = d // q
            # generator of the p-part of Z/d: the idempotent 1 mod q, 0 mod m_i
            g = (m_i * pow(m_i, -1, q)) % d
            self.orders.append(q)
            self._positions.append(i)
            self._unit_gens.append(g)
        self.delta = prod(self.orders) if self.orders else 1

    def project(self, elem: DFElement) -> DFElement:
        out = [0] * len(self.parent.orders)
        for q, i, g in zip(self.orders, self._positions, self._unit_gens):
            out[i] = (elem[i] * g) % self.parent.orders[i]
        return tuple(out)

    def elements(self) -> List[DFElement]:
        if self.delta > ENUMERATION_CAP:
            raise CapExceededError(f"p-part has {self.delta} elements")
        out = []
        for coords in product(*(range(q) for q in self.orders)):
            e = [0] * len(self.parent.orders)
            for a, i, g, q in zip(coords, self._positions, self._unit_gens, self.orders):
                e[i] = (a * g) % self.parent.orders[i]
            out.append(tuple(e))
        return out if out else [self.parent.zero()]


class DiscriminantForm:
    """The finite quadratic module M*/M of a lattice.

    A Smith normal form U G V = D gives the basis h_i = v_i/d_i of M*, with
    (h_i, h_j) = W_ij/(d_i d_j) for the integer matrix W = V^T G V.  The
    level N is the lcm of the denominators of q(h_i) and of (h_i, h_j) for
    i < j, over all m columns (the d_i = 1 columns carry the factor 2 of
    odd lattices).  Elements are tuples of residues against `orders`, the
    coordinates on the h_i with d_i > 1, and the form is kept as integers
    mod N: B = `gram_mod` with B[i][j] = N (h_i, h_j) mod N, and Q[i] =
    N h_i^2/2 mod N, both exact integer divisions of N W_ij.  So N (x, y)
    is x^T B y mod N, and N q(x) is sum x_i^2 Q[i] + sum_{i<j} x_i x_j
    B[i][j], mod N for even lattices and mod N/2 for odd ones; `pairing`
    and `qval` return those integers over N.  The canonical lift of an
    element, sum x_i h_i as a rational vector, is the independent reference
    the integer form is checked against.
    """

    __slots__ = ("lattice", "orders", "delta", "signature", "level", "exponent",
                 "gram_mod", "_q_gram", "_q_mod", "_cols", "_u", "_d_full")

    def __init__(self, lattice: GramLattice):
        self.lattice = lattice
        u, d, v = smith_normal_form(lattice.gram)
        m = lattice.rank
        diag = [d[i][i] for i in range(m)]
        w = _mat_mul([list(col) for col in zip(*v)], _mat_mul(lattice.gram, v))
        keep = [i for i in range(m) if diag[i] > 1]
        self.orders = tuple(diag[i] for i in keep)
        self.delta = lattice.delta()
        if prod(self.orders, start=1) != self.delta:
            raise ArithmeticError("the Smith orders multiply to %d, not to delta = %d"
                                  % (prod(self.orders, start=1), self.delta))
        self.signature = lattice.signature()
        n = 1
        for i in range(m):
            n = lcm(n, 2 * diag[i] ** 2 // gcd(w[i][i], 2 * diag[i] ** 2))
            for j in range(i + 1, m):
                n = lcm(n, diag[i] * diag[j] // gcd(w[i][j], diag[i] * diag[j]))
        self.level = n
        self.exponent = self.orders[-1] if self.orders else 1
        self._cols = tuple(tuple(v[r][i] for r in range(m)) for i in keep)
        self._u = u
        self._d_full = diag
        self._q_mod = n if lattice.is_even else n // 2
        if not lattice.is_even and n % 2:
            raise ArithmeticError("odd lattice with odd level %d" % n)
        self.gram_mod = tuple(tuple(n * w[i][j] // (diag[i] * diag[j]) % n for j in keep)
                              for i in keep)
        q_gram = [[b if t > s else 0 for t, b in enumerate(row)]
                  for s, row in enumerate(self.gram_mod)]
        for s, i in enumerate(keep):
            q_gram[s][s] = n * w[i][i] // (2 * diag[i] ** 2) % n
        self._q_gram = tuple(map(tuple, q_gram))

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
        if self.delta > ENUMERATION_CAP:
            raise CapExceededError(f"discriminant group has {self.delta} elements")
        return [coords for coords in product(*(range(d) for d in self.orders))] \
            if self.orders else [()]

    # -- lifts and values ------------------------------------------------

    def lift(self, x: DFElement) -> Vector:
        """The dual vector sum x_i h_i, in the lattice basis."""
        e = self.exponent
        scaled = [(e // d) * a for a, d in zip(x, self.orders)]
        return tuple(Fraction(sum(a * col[r] for a, col in zip(scaled, self._cols)), e)
                     for r in range(self.lattice.rank))

    def norm_of_lift(self, vec: Sequence[Fraction]) -> Fraction:
        """gamma^2 = vec^T G vec for an explicit dual vector."""
        g = self.lattice.gram
        m = self.lattice.rank
        return sum(vec[i] * g[i][j] * vec[j] for i in range(m) for j in range(m))

    def pairing_of_lifts(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
        g = self.lattice.gram
        m = self.lattice.rank
        return sum(a[i] * g[i][j] * b[j] for i in range(m) for j in range(m))

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

    def pairing(self, x: DFElement, y: DFElement) -> Fraction:
        return Fraction(self.pairing_num(x, y), self.level)

    def qval(self, x: DFElement) -> Fraction:
        """q(x) = x^2/2, mod 1 for even lattices and mod 1/2 for odd."""
        return Fraction(self.q_num(x), self.level)

    def q_of_lift(self, vec: Sequence[Fraction]) -> Fraction:
        return self.norm_of_lift(vec) / 2

    # -- classes from dual vectors ---------------------------------------

    def class_of_dual_vector(self, vec: Sequence[Fraction]) -> DFElement:
        """The class in M*/M of an honest dual vector (G*vec integral)."""
        g = self.lattice.gram
        m = self.lattice.rank
        y = [sum(Fraction(g[i][j]) * vec[j] for j in range(m)) for i in range(m)]
        if any(t.denominator != 1 for t in y):
            raise ValueError("vector is not in the dual lattice")
        coords = []
        for i, d in enumerate(self._d_full):
            s = sum(self._u[i][j] * y[j].numerator for j in range(m))
            if d > 1:
                coords.append(s % d)
        return tuple(coords)

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
            s = sum(Fraction(self._u[i][j]) * y[j] for j in range(m))
            if d == 1:
                continue
            q = 1
            while d % (q * p) == 0:
                q *= p
            if q == 1:
                coords.append(0)
                continue
            m_i = d // q
            res = (s.numerator * pow(s.denominator, -1, q)) % q
            # CRT: res mod q, zero mod the prime-to-p part
            coords.append((res * m_i * pow(m_i, -1, q)) % d)
        return tuple(coords)

    # -- p-parts and c-indexed subsets ------------------------------------

    def p_part(self, p: int) -> PPart:
        return PPart(self, p)

    def subsets_c(self, c: int) -> Tuple[List[DFElement], List[DFElement]]:
        """Kernel and image of multiplication by c, as element lists."""
        kernel_steps = []
        image_steps = []
        size_k = 1
        for d in self.orders:
            g = gcd(c, d)
            kernel_steps.append(range(0, d, d // g))
            image_steps.append(range(0, d, g))
            size_k *= g
        if max(size_k, self.delta // size_k) > ENUMERATION_CAP:
            raise CapExceededError("c-subsets exceed the enumeration cap")
        kernel = [x for x in product(*kernel_steps)] if self.orders else [()]
        image = [x for x in product(*image_steps)] if self.orders else [()]
        return kernel, image

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
        (choose_xc checks it against the kernel of c).
        """
        steps = [range(d // gcd(c, d)) for d in self.orders]
        if prod(map(len, steps)) > ENUMERATION_CAP:
            raise CapExceededError("the c-star coset exceeds the enumeration cap")
        n = self.level
        row = self.pairing_row(x_c)
        out = []
        for alpha in product(*steps):
            beta = tuple((x + c * t) % d for x, t, d in zip(x_c, alpha, self.orders))
            h = c * self.q_num(alpha) + sum(t * w for t, w in zip(alpha, row))
            out.append((beta, h % n))
        return out

    # -- identities -------------------------------------------------------

    def milgram_sum(self) -> ExactScalar:
        """Sum of e(gamma^2/2) over the group; even lattices only."""
        if not self.lattice.is_even:
            raise ValueError("Milgram sum needs an even lattice")
        n = self.level
        total = from_rational(0)
        for x in self.elements():
            total = total + root_of_unity(self.q_num(x), n)
        return total

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
