"""p-adic Jordan decompositions, Weil indices, and local Gauss sums.

At an odd prime p the Jordan symbol (scale, rank and Legendre sign of each
block) is fixed by the Gram matrix modulo p^(v+1), v = v_p(det), so
jordan_components reads it off by integer elimination modulo that power,
with no Fraction and no basis.  jordan_decompose, the reference, works over
rationals whose denominators are coprime to p and keeps the basis, so every
step is exact; it is the path at p = 2, where a scale that mixes diagonal
and even 2x2 blocks is fused and fully diagonalized and the trace of the
resulting diagonal units mod 8 is the oddity index t.  jordan_decompose
evaluates each pairing of its working basis once per scan, over unordered
pairs, and checks the finished blocks against one Gram matrix of the final
basis, b_i . (G b_j).  Symbols at p = 2 are not canonical across different
decompositions, but every value derived from them downstream is.
"""

from fractions import Fraction
from itertools import product
from math import prod
from typing import List, Optional, Sequence, Tuple

from .exact import ExactScalar, from_rational, root_of_unity, sqrt_rat
from .lattice import CapExceededError, DFElement, GramLattice
from .numth import _unit_mod, char_p_value, is_prime, legendre, two_over, valuation_split

BRUTE_CAP = 10 ** 6

Vector = Tuple[Fraction, ...]


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


class JordanComponent:
    """One block q^(eps*n) (p odd) or q^(eps*n)_t / q^(eps*n)_II (p = 2)."""

    __slots__ = ("p", "e", "n", "eps", "t")

    def __init__(self, p: int, e: int, n: int, eps: int, t: Optional[int] = None):
        _check_prime(p)
        if e < 0 or n < 1 or eps not in (1, -1):
            raise ValueError("bad component data")
        if p != 2:
            if t is not None:
                raise ValueError("odd p has no oddity index")
        elif t is None:
            if n % 2:
                raise ValueError("type II needs even rank")
        else:
            t %= 8
            if (t - n) % 2:
                raise ValueError("t must have the parity of n")
            if n == 1 and eps != (1 if t in (1, 7) else -1):
                raise ValueError("rank-1 sign is determined by t")
            if n == 2 and t in (0, 4) and eps != (1 if t == 0 else -1):
                raise ValueError("rank-2 sign is determined by t = 0, 4")
        self.p = p
        self.e = e
        self.n = n
        self.eps = eps
        self.t = None if t is None else t % 8

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def is_type_II(self) -> bool:
        return self.p == 2 and self.t is None

    def symbol(self) -> str:
        sign = "+" if self.eps == 1 else "-"
        base = f"{self.q}^{sign}{self.n}"
        if self.p != 2:
            return base
        return f"{base}_II" if self.t is None else f"{base}_{self.t}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, JordanComponent):
            return NotImplemented
        return (self.p, self.e, self.n, self.eps, self.t) == \
            (other.p, other.e, other.n, other.eps, other.t)

    def __repr__(self) -> str:
        return f"JordanComponent({self.symbol()!r})"


class JordanDecomposition:
    __slots__ = ("lattice", "p", "components", "basis", "_spans")

    def __init__(self, lattice: GramLattice, p: int,
                 components: Sequence[JordanComponent],
                 basis: Sequence[Vector], spans: Sequence[Tuple[int, ...]]):
        self.lattice = lattice
        self.p = p
        self.components = tuple(components)
        self.basis = tuple(basis)
        self._spans = tuple(spans)

    def component_at(self, e: int) -> Optional[JordanComponent]:
        return next((c for c in self.components if c.e == e), None)

    def component_vectors(self, idx: int) -> Tuple[Vector, ...]:
        return tuple(self.basis[i] for i in self._spans[idx])

    def symbol(self) -> str:
        return " ".join(c.symbol() for c in self.components)


def _pair(gram: Sequence[Sequence[int]], u: Sequence[Fraction],
          v: Sequence[Fraction]) -> Fraction:
    m = len(u)
    return sum(u[i] * gram[i][j] * v[j] for i in range(m) for j in range(m))


def _pairs(idxs: List[int]):
    """Each unordered pair (i, j) of idxs once, i no later than j in idxs.

    Gram entries are symmetric, so the first pair of a scan over all
    ordered pairs that meets a symmetric condition is also the first here.
    """
    return ((i, j) for a, i in enumerate(idxs) for j in idxs[a:])


def _val(x: Fraction, p: int) -> Optional[int]:
    return None if x == 0 else valuation_split(x, p).valuation


def jordan_decompose(lattice: GramLattice, p: int) -> JordanDecomposition:
    """Split the p-local lattice into scaled unimodular blocks.

    Returns components with strictly increasing exponent whose ranks sum
    to the rank of the lattice, plus the rational basis realizing them.
    Every scan of the working basis evaluates each pairing once, over the
    unordered pairs; the blocks are then checked, independently of the
    elimination, from one Gram product of the final basis.
    """
    _check_prime(p)
    gram = lattice.gram
    m = lattice.rank
    vecs: List[List[Fraction]] = [[Fraction(int(i == j)) for j in range(m)]
                                  for i in range(m)]

    def pr(i: int, j: int) -> Fraction:
        return _pair(gram, vecs[i], vecs[j])

    def min_valuation(active: List[int]) -> int:
        entries = (pr(i, j) for i, j in _pairs(active))
        return min(_val(x, p) for x in entries if x)

    active = list(range(m))
    raw_blocks: List[Tuple[int, List[int]]] = []
    while active:
        v_min = min_valuation(active)
        diag = next((i for i in active if _val(pr(i, i), p) == v_min), None)
        if p != 2:
            if diag is None:
                # g_ii and g_jj have valuation > v_min and, p being odd,
                # 2 g_ij has valuation v_min; so g_ii + 2 g_ij + g_jj, the
                # new g_ii of x_i -> x_i + x_j, has valuation exactly v_min.
                i, j = next((i, j) for i, j in _pairs(active)
                            if i != j and _val(pr(i, j), p) == v_min)
                vecs[i] = [x + y for x, y in zip(vecs[i], vecs[j])]
                if _val(pr(i, i), p) != v_min:
                    raise ArithmeticError("no diagonal entry of valuation %d at p = %d"
                                          % (v_min, p))
                diag = i
            _sweep(gram, vecs, diag, active)
            raw_blocks.append((v_min, [diag]))
            active.remove(diag)
        elif diag is not None:
            _sweep(gram, vecs, diag, active)
            raw_blocks.append((v_min, [diag]))
            active.remove(diag)
        else:
            i, j = next((i, j) for i, j in _pairs(active)
                        if i != j and _val(pr(i, j), p) == v_min)
            gii, gij, gjj = pr(i, i), pr(i, j), pr(j, j)
            det = gii * gjj - gij * gij
            for k in active:
                if k in (i, j):
                    continue
                ki, kj = pr(k, i), pr(k, j)
                if ki or kj:
                    x = (ki * gjj - kj * gij) / det
                    y = (kj * gii - ki * gij) / det
                    vecs[k] = [a - x * b - y * c
                               for a, b, c in zip(vecs[k], vecs[i], vecs[j])]
            raw_blocks.append((v_min, [i, j]))
            active.remove(i)
            active.remove(j)

    scales = sorted({e for e, _ in raw_blocks})
    components: List[JordanComponent] = []
    spans: List[Tuple[int, ...]] = []
    ordered: List[int] = []
    for e in scales:
        idxs = [i for be, block in raw_blocks for i in block if be == e]
        has_odd_diag = any(len(block) == 1 for be, block in raw_blocks if be == e)
        if p == 2 and has_odd_diag and len(idxs) > 1:
            _fuse_scale(gram, vecs, idxs, e)
        scale = Fraction(p) ** e
        n = len(idxs)
        if p != 2:
            det_unit = prod((pr(i, i) / scale for i in idxs), start=Fraction(1))
            components.append(JordanComponent(p, e, n, legendre(det_unit, p)))
        elif has_odd_diag:
            units = [pr(i, i) / scale for i in idxs]
            t = sum(_unit_mod(u, 8) for u in units) % 8
            eps = two_over(prod(units, start=Fraction(1)))
            components.append(JordanComponent(2, e, n, eps, t))
        else:
            det_unit = Fraction(1)
            for be, block in raw_blocks:
                if be == e:
                    i, j = block
                    det_unit *= (pr(i, i) * pr(j, j) - pr(i, j) ** 2) / scale ** 2
            components.append(JordanComponent(2, e, n, two_over(det_unit), None))
        spans.append(tuple(idxs))
        ordered.extend(idxs)

    decomp = JordanDecomposition(
        lattice, p, components,
        [tuple(vecs[i]) for i in range(m)], spans)
    _validate_blocks(decomp)
    return decomp


def _sweep(gram, vecs, i: int, idxs: List[int]) -> None:
    """Make every other vector of idxs orthogonal to vecs[i]."""
    d = _pair(gram, vecs[i], vecs[i])
    for k in idxs:
        if k != i:
            f = _pair(gram, vecs[k], vecs[i])
            if f:
                f /= d
                vecs[k] = [x - f * y for x, y in zip(vecs[k], vecs[i])]


def _fuse_scale(gram, vecs, idxs: List[int], e: int) -> None:
    """Fully diagonalize one 2-adic scale that has an odd diagonal entry."""

    def pr(i, j):
        return _pair(gram, vecs[i], vecs[j])

    todo = list(idxs)
    last: Optional[int] = None
    while todo:
        i = next((i for i in todo if _val(pr(i, i), 2) == e), None)
        if i is None:
            # residual is even type: mix the last pivot back in to restore
            # an odd diagonal, and put that pivot back into play
            if last is None:
                raise ArithmeticError("an even-type 2-adic scale of valuation %d "
                                      "has no odd pivot to mix back in" % e)
            j = next(j for j, k in _pairs(todo) if j != k and _val(pr(j, k), 2) == e)
            vecs[j] = [x + y for x, y in zip(vecs[j], vecs[last])]
            todo.append(last)
            last = None
            continue
        _sweep(gram, vecs, i, todo)
        todo.remove(i)
        last = i


def _validate_blocks(decomp: JordanDecomposition) -> None:
    lattice, p = decomp.lattice, decomp.p
    if sum(c.n for c in decomp.components) != lattice.rank:
        raise ArithmeticError("the Jordan components at p = %d do not have "
                              "total rank %d" % (p, lattice.rank))
    if prod(c.q ** c.n for c in decomp.components) != \
            p ** valuation_split(lattice.delta(), p).valuation:
        raise ArithmeticError("the Jordan components at p = %d do not multiply "
                              "to the p-part of delta" % p)
    # the Gram matrix of the final basis, b_i . (G b_j), for the block checks
    basis = decomp.basis
    images = [[sum(g * x for g, x in zip(row, b)) for row in lattice.gram]
              for b in basis]
    gram = [[sum(x * y for x, y in zip(u, w)) for w in images] for u in basis]
    spans = decomp._spans
    for idx, comp in enumerate(decomp.components):
        block = [[gram[i][j] for j in spans[idx]] for i in spans[idx]]
        det = _det_fraction(block)
        if valuation_split(det, p).valuation != comp.e * comp.n:
            raise ArithmeticError("Jordan component %d at p = %d has the wrong "
                                  "determinant valuation" % (idx, p))
        if any(x and valuation_split(x, p).valuation < comp.e
               for row in block for x in row):
            raise ArithmeticError("Jordan component %d at p = %d has an entry "
                                  "below its scale" % (idx, p))
    # distinct components are orthogonal
    for idx in range(len(decomp.components)):
        for jdx in range(idx + 1, len(decomp.components)):
            if any(gram[i][j] for i in spans[idx] for j in spans[jdx]):
                raise ArithmeticError("Jordan components %d and %d at "
                                      "p = %d are not orthogonal"
                                      % (idx, jdx, p))


def _det_fraction(rows: List[List[Fraction]]) -> Fraction:
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _vp(n: int, p: int) -> int:
    """v_p of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def jordan_components(lattice: GramLattice, p: int) -> Tuple[JordanComponent, ...]:
    """The Jordan components of the p-local lattice, by increasing scale.

    At odd p the integer Gram matrix is eliminated modulo p^(k+1),
    k = v_p(det), with unit-inverse pivots on an entry of least valuation.
    Every pivot has valuation at most k, so its unit part is known modulo
    p and each elimination step keeps the precision p^(k+1).  At p = 2 this
    is jordan_decompose(lattice, 2).components.
    """
    if p == 2:
        return jordan_decompose(lattice, 2).components
    _check_prime(p)
    k = _vp(lattice.det(), p)
    mod = p ** (k + 1)
    g = [[x % mod for x in row] for row in lattice.gram]
    active = list(range(lattice.rank))

    def add(i: int, j: int, s: int) -> None:
        # the change of basis x_i -> x_i + s x_j, on rows and columns
        for r in active:
            g[i][r] = (g[i][r] + s * g[j][r]) % mod
        for r in active:
            g[r][i] = (g[r][i] + s * g[r][j]) % mod

    pivots: List[Tuple[int, int]] = []
    while active:
        entries = [(_vp(g[i][j], p), i, j) for i in active for j in active if g[i][j]]
        if not entries:
            raise ArithmeticError("the Gram matrix vanishes modulo p^%d at p = %d"
                                  % (k + 1, p))
        e = min(entries)[0]
        i = next((i for v, i, j in entries if v == e and i == j), None)
        if i is None:
            # g_ii and g_jj have valuation > e and 2 g_ij has valuation e <= k
            # (p is odd), so the new g_ii = g_ii + 2 g_ij + g_jj of
            # x_i -> x_i + x_j has valuation exactly e modulo p^(k+1).
            i, j = next((i, j) for v, i, j in entries if v == e)
            add(i, j, 1)
            if _vp(g[i][i], p) != e:
                raise ArithmeticError("no diagonal entry of valuation %d at p = %d"
                                      % (e, p))
        scale = p ** e
        unit = g[i][i] // scale
        inv = pow(unit, -1, mod)
        for r in active:
            if r != i and g[r][i]:
                add(r, i, -(g[r][i] // scale) * inv)
        pivots.append((e, unit % p))
        active.remove(i)

    components = []
    for e in sorted({e for e, _ in pivots}):
        units = [u for be, u in pivots if be == e]
        components.append(JordanComponent(p, e, len(units), legendre(prod(units), p)))
    if sum(c.n for c in components) != lattice.rank \
            or sum(c.e * c.n for c in components) != k:
        raise ArithmeticError("the Jordan components at p = %d do not have total "
                              "rank %d and determinant valuation %d"
                              % (p, lattice.rank, k))
    return tuple(components)


# -- Weil indices -------------------------------------------------------


def weil_index_component(comp: JordanComponent) -> ExactScalar:
    """The 8th root of unity attached to one Jordan component."""
    if comp.p != 2:
        k = (comp.n * (1 - comp.q)) % 8
        value = root_of_unity(k, 8)
    else:
        value = root_of_unity(comp.t or 0, 8)
    return value if comp.eps ** comp.e == 1 else -value


def scale_component(comp: JordanComponent, x) -> JordanComponent:
    """The component of M(x): the form scaled by a nonzero rational x."""
    v, u = valuation_split(x, comp.p)
    if comp.e + v < 0:
        raise ValueError("scaling would produce a negative exponent")
    if comp.p != 2:
        return JordanComponent(comp.p, comp.e + v, comp.n,
                               comp.eps * legendre(u, comp.p) ** comp.n)
    t = None if comp.t is None else (comp.t * _unit_mod(u, 8)) % 8
    return JordanComponent(2, comp.e + v, comp.n,
                           comp.eps * two_over(u) ** comp.n, t)


def weil_index_scaled(comp: JordanComponent, a: int) -> ExactScalar:
    """Weil index of the component scaled by a unit, in closed form."""
    if a % comp.p == 0:
        raise ValueError("scaling unit must be coprime to p")
    gamma = weil_index_component(comp)
    en = comp.e * comp.n
    if comp.p != 2:
        return gamma if legendre(a, comp.p) ** en == 1 else -gamma
    return gamma ** (a % 8) * two_over(a) ** en


def weil_index_lattice(lattice: GramLattice, p: int) -> ExactScalar:
    out = from_rational(1)
    for comp in jordan_components(lattice, p):
        out = out * weil_index_component(comp)
    return out


# -- x_c and the local Gauss sums ---------------------------------------


def xc_vector(decomp: JordanDecomposition, v: int) -> Optional[Vector]:
    """Half the sum of the basis of the scale-2^v component, if odd type."""
    if decomp.p != 2:
        return None
    for idx, comp in enumerate(decomp.components):
        if comp.e == v and comp.t is not None:
            vec = decomp.component_vectors(idx)
            m = decomp.lattice.rank
            return tuple(sum(w[r] for w in vec) / 2 for r in range(m))
    return None


def choose_xc(decomp: JordanDecomposition, c: int) -> Tuple[DFElement, Optional[int]]:
    """The distinguished coset element x_c and its oddity index.

    Returns the zero class with index None when the component at scale
    2^(v_2(c)) is absent or of type II.  For an odd lattice and odd c the
    class is also reported as zero (the true half-sum is not dual); the
    caller compensates through the returned index.
    """
    if decomp.p != 2:
        raise ValueError("x_c lives at p = 2")
    if c == 0:
        raise ValueError("x_0 = 0 by convention; no component lookup")
    df = decomp.lattice.discriminant_form()
    v = valuation_split(c, 2).valuation
    comp = decomp.component_at(v)
    if comp is None or comp.t is None:
        return df.zero(), None
    if v == 0:
        return df.zero(), comp.t
    vec = xc_vector(decomp, v)
    cls = df.class_from_dual_vector(vec, 2)
    for mu in df.kernel_generators(c):
        if (c * df.q_num(mu) + df.pairing_num(cls, mu)) % df.level:
            raise ArithmeticError("x_c must lie in the c-star coset")
    return cls, comp.t


def _local_kernel_size(components: Sequence[JordanComponent], v: int) -> int:
    """Delta_{M,c}: the kernel of c on the p-part, from the symbols."""
    return prod(c.q ** c.n if c.e <= v else c.p ** (v * c.n) for c in components)


def _gauss_valuation(lattice: GramLattice, p: int, a: int, c: int) -> int:
    """v_p(c), once the arguments of a local Gauss sum are checked."""
    _check_prime(p)
    if c == 0:
        raise ValueError("c must be nonzero")
    if a % p == 0 and c % p == 0:
        raise ValueError("a and c must be coprime at p")
    return valuation_split(c, p).valuation


def gauss_sum_closed(lattice: GramLattice, p: int, a: int, c: int) -> ExactScalar:
    """The closed value p^(m v/2) sqrt(Delta_{M,c}) delta of the local sum.

    Its one costly step is sqrt(p) in Q(zeta_4p), O(p^2), taken when the
    power of p under the root is odd; p^2 must then stay within BRUTE_CAP.
    """
    v = _gauss_valuation(lattice, p, a, c)
    components = jordan_components(lattice, p)
    radicand = p ** (lattice.rank * v) * _local_kernel_size(components, v)
    if valuation_split(radicand, p).valuation % 2 and p * p > BRUTE_CAP:
        raise CapExceededError("sqrt(%d) in Q(zeta_%d) exceeds the cap %d"
                               % (p, 4 * p, BRUTE_CAP))
    a_p = valuation_split(a, p).unit_part if a else 1
    delta = from_rational(1)
    for comp in components:
        if comp.e < v:
            delta = delta * weil_index_component(scale_component(comp, a_p * c))
    return sqrt_rat(radicand) * delta


def gauss_sum_brute(lattice: GramLattice, p: int, a: int, c: int) -> ExactScalar:
    """Direct summation of chi_p(a/c eta^2/2 + a (x_c, eta)/c) over M/cM.

    Over Z_p the quotient M/cM is (Z/p^v)^m; representatives are taken in
    the original basis.  Each of the p^(v m) terms is added in
    Q(zeta_(p^v)), so p^(v (m + 1)) must stay within BRUTE_CAP.
    """
    v = _gauss_valuation(lattice, p, a, c)
    m = lattice.rank
    if p ** (v * (m + 1)) > BRUTE_CAP:
        raise CapExceededError("a Gauss sum of %d^%d terms in Q(zeta_%d^%d) exceeds "
                               "the cap %d" % (p, v * m, p, v, BRUTE_CAP))
    xc = None
    if p == 2:
        xc = xc_vector(jordan_decompose(lattice, 2), v)
    gram = lattice.gram
    total = from_rational(0)
    for eta in product(range(p ** v), repeat=m):
        norm = sum(eta[i] * gram[i][j] * eta[j] for i in range(m) for j in range(m))
        arg = Fraction(a, c) * Fraction(norm, 2)
        if xc is not None:
            pair = sum(xc[i] * gram[i][j] * eta[j] for i in range(m) for j in range(m))
            arg += Fraction(a, 1) * pair / c
        total = total + char_p_value(arg, p)
    return total
