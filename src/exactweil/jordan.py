"""p-adic Jordan decompositions, Weil indices, and local Gauss sums.

At an odd prime p the Jordan symbol (scale, rank and Legendre sign of each
block) is fixed by the Gram matrix modulo p^(v+1), v = v_p(det), so
jordan_components reads it off by integer elimination modulo that power,
with no Fraction and no basis.  At p = 2 the symbol comes from
jordan_decompose, the one decomposition with a basis: it works over
rationals with odd denominators, so every step is exact, and it keeps the
basis that x_c is read from at even c (at odd c the closed formula takes
x_c = 0, and xi_2 reads the unimodular oddity off the components).  Each
scale keeps the blocks the elimination leaves, 1x1 pivots and even 2x2
blocks, and reads its symbol off them as Conway and Sloane do (ch. 15):
the sign is (2/u), u the product of the blocks' determinant units, and the
oddity t is the sum of the 1x1 units mod 8, since even 2x2 blocks add
nothing to it.  jordan_decompose evaluates each pairing of its working
basis once per scan, over unordered pairs, and checks the finished blocks
against one Gram matrix of the final basis, b_i . (G b_j), with integer
determinants, and checks that the basis is integral.  Symbols at p = 2 are
not canonical across different decompositions, but every value derived
from them downstream is.  Only
jordan_decompose and jordan_components build a JordanComponent: the Weil
index of a scaled component is read off its symbol and the scale.
"""

from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import mul
from typing import List, Optional, Sequence, Tuple

from . import exact
from .exact import ExactScalar, root_of_unity, root_sum, sqrt_rat
from .lattice import CapExceededError, DFElement, GramLattice, _det_int
from .numth import _unit_mod, is_prime, legendre, two_over, unit_part, valuation_split

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
    """Components, the basis realizing them, and each component's blocks:
    tuples of basis indices, (i,) for a 1x1 pivot and (i, j) for an even
    2x2 block."""
    __slots__ = ("lattice", "p", "components", "basis", "blocks")

    def __init__(self, lattice: GramLattice, p: int,
                 components: Sequence[JordanComponent], basis: Sequence[Vector],
                 blocks: Sequence[Sequence[Tuple[int, ...]]]):
        self.lattice = lattice
        self.p = p
        self.components = tuple(components)
        self.basis = tuple(basis)
        self.blocks = tuple(map(tuple, blocks))

    def component_at(self, e: int) -> Optional[JordanComponent]:
        return next((c for c in self.components if c.e == e), None)

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
    """Split the 2-adic lattice into scaled unimodular blocks.

    Returns components with strictly increasing exponent whose ranks sum
    to the rank of the lattice, plus the rational basis realizing them and
    the blocks the elimination found.  Every scale 2^e has one rule: n is
    the size of its blocks, eps = (2/u) with u the product of its 1x1 units
    (over 2^e) and 2x2 determinants (over 4^e), and t is the sum of its 1x1
    units mod 8, or None (type II) when it has no 1x1 block.  Every scan of
    the working basis evaluates each pairing once, over the unordered
    pairs; the blocks are then checked, independently of the elimination,
    from one Gram product of the final basis.  p must be 2:
    at odd p, jordan_components gives the symbol.
    """
    if p != 2:
        raise ValueError("jordan_decompose is the 2-adic decomposition; "
                         "at p = %d use jordan_components" % p)
    gram = lattice.gram
    m = lattice.rank
    vecs: List[List[Fraction]] = [[Fraction(int(i == j)) for j in range(m)]
                                  for i in range(m)]

    def pr(i: int, j: int) -> Fraction:
        return _pair(gram, vecs[i], vecs[j])

    def min_valuation(active: List[int]) -> int:
        entries = (pr(i, j) for i, j in _pairs(active))
        return min(_val(x, 2) for x in entries if x)

    active = list(range(m))
    raw_blocks: List[Tuple[int, Tuple[int, ...]]] = []
    while active:
        v_min = min_valuation(active)
        diag = next((i for i in active if _val(pr(i, i), 2) == v_min), None)
        if diag is not None:
            _sweep(gram, vecs, diag, active)
            raw_blocks.append((v_min, (diag,)))
            active.remove(diag)
        else:
            i, j = next((i, j) for i, j in _pairs(active)
                        if i != j and _val(pr(i, j), 2) == v_min)
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
            raw_blocks.append((v_min, (i, j)))
            active.remove(i)
            active.remove(j)

    components: List[JordanComponent] = []
    blocks: List[List[Tuple[int, ...]]] = []
    for e in sorted({e for e, _ in raw_blocks}):
        scale_blocks = [block for be, block in raw_blocks if be == e]
        # a 1x1 pivot is 2^e times a unit, an even 2x2 block has determinant
        # 4^e times a unit, and only the pivots carry oddity
        units = [pr(b[0], b[0]) / 2 ** e for b in scale_blocks if len(b) == 1]
        dets = [(pr(i, i) * pr(j, j) - pr(i, j) ** 2) / 4 ** e
                for i, j in (b for b in scale_blocks if len(b) == 2)]
        t = sum(_unit_mod(u, 8) for u in units) % 8 if units else None
        n = sum(map(len, scale_blocks))
        components.append(JordanComponent(2, e, n, two_over(prod(units + dets)), t))
        blocks.append(scale_blocks)

    decomp = JordanDecomposition(
        lattice, 2, components, [tuple(vecs[i]) for i in range(m)], blocks)
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
    spans = [[i for block in blocks for i in block] for blocks in decomp.blocks]
    for idx, comp in enumerate(decomp.components):
        block = [[gram[i][j] for j in spans[idx]] for i in spans[idx]]
        # the determinant of the block cleared of its denominators, over the
        # cleared factor
        den = lcm(*(x.denominator for row in block for x in row))
        det = Fraction(_det_int([[x * den for x in row] for row in block]), den ** len(block))
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
    # over Z_p: a basis with p in a denominator spans another lattice
    if any(x.denominator % p == 0 for b in basis for x in b):
        raise ArithmeticError("the Jordan basis at p = %d is not integral" % p)


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
    k = valuation_split(lattice.det(), p).valuation
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
        entries = [(valuation_split(g[i][j], p).valuation, i, j)
                   for i in active for j in active if g[i][j]]
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
            if valuation_split(g[i][i], p).valuation != e:
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
# Each is e(k/8), returned as k mod 8, as Conway and Sloane keep p-excesses:
# a sign -1 is 4, a product is a sum and a conjugate is -k.


def weil_index_component(comp: JordanComponent, x=1) -> int:
    """k mod 8 with e(k/8) the Weil index of the component of M(x), the form
    scaled by a nonzero rational x = p^v u.  That component has scale p^(e+v),
    sign eps (u/p)^n at odd p and eps (2/u)^n at p = 2, and oddity t u; its
    index is n (1 - p^(e+v)) at odd p and the oddity (0 for type II) at
    p = 2, plus 4 when the sign to the power e + v is -1."""
    p = comp.p
    v, u = valuation_split(x, p)
    e = comp.e + v
    if e < 0:
        raise ValueError("scaling would produce a negative exponent")
    if p != 2:
        eps = comp.eps * legendre(u, p) ** comp.n
        k = comp.n * (1 - p ** e)
    else:
        eps = comp.eps * two_over(u) ** comp.n
        k = 0 if comp.t is None else comp.t * _unit_mod(u, 8)
    return (k + (0 if eps ** e == 1 else 4)) % 8


def weil_index_lattice(lattice: GramLattice, p: int) -> int:
    """k mod 8 for gamma_p(f), the product of the components' Weil indices."""
    return sum(map(weil_index_component, jordan_components(lattice, p))) % 8


# -- x_c and the local Gauss sums ---------------------------------------


def xc_vector(decomp: JordanDecomposition, v: int) -> Optional[Vector]:
    """Half the sum of the 1x1 pivots of the scale-2^v component, if it has
    any (odd type).  The sum is a characteristic vector of that component
    with its form divided by 2^v."""
    for comp, blocks in zip(decomp.components, decomp.blocks):
        if comp.e == v and comp.t is not None:
            vecs = [decomp.basis[i] for block in blocks if len(block) == 1 for i in block]
            return tuple(sum(col) / 2 for col in zip(*vecs))
    return None


def choose_xc(decomp: JordanDecomposition, c: int) -> DFElement:
    """The distinguished coset element x_c, read at even c.

    It is the class of half the sum of the 1x1 pivots of the component at
    scale 2^(v_2(c)) when that component is of odd type, and zero when it is
    absent or of type II.  The pivots' sum is a characteristic vector of
    that component with its form divided by 2^v, and characteristic vectors
    are unique modulo 2 L_v, so the class does not depend on how the scale
    was split into blocks.  At odd c the closed formula takes x_c = 0 and
    xi_2 carries the oddity of the unimodular component; on an odd lattice
    the half-sum at odd c is not dual, and class_from_dual_vector raises
    ValueError.
    """
    if c == 0:
        raise ValueError("x_0 = 0 by convention; no component lookup")
    df = decomp.lattice.discriminant_form()
    vec = xc_vector(decomp, valuation_split(c, 2).valuation)
    if vec is None:
        return df.zero()
    cls = df.class_from_dual_vector(vec, 2)
    for mu in df.kernel_generators(c):
        if (c * df.q_num(mu) + df.pairing_num(cls, mu)) % df.level:
            raise ArithmeticError("x_c must lie in the c-star coset")
    return cls


def _local_kernel_size(components: Sequence[JordanComponent], v: int) -> int:
    """Delta_{M,c}: the kernel of c on the p-part, from the symbols."""
    return prod(c.q ** c.n if c.e <= v else c.p ** (v * c.n) for c in components)


def _gauss_valuation(p: int, a: int, c: int) -> int:
    """v_p(c), once the arguments of a local Gauss sum are checked."""
    _check_prime(p)
    if c == 0:
        raise ValueError("c must be nonzero")
    if a % p == 0 and c % p == 0:
        raise ValueError("a and c must be coprime at p")
    return valuation_split(c, p).valuation


def gauss_sum_closed(lattice: GramLattice, p: int, a: int, c: int) -> ExactScalar:
    """The closed value p^(m v/2) sqrt(Delta_{M,c}) delta of the local sum,
    delta = e(k/8), k the Weil-index exponents of the scaled components added.

    Its one costly step is sqrt(p) in Q(zeta_4p), taken when the power of p
    under the root is odd; exact._sqrt_prime caps it at p^2 <= exact.BRUTE_CAP.
    """
    v = _gauss_valuation(p, a, c)
    components = jordan_components(lattice, p)
    radicand = p ** (lattice.rank * v) * _local_kernel_size(components, v)
    a_p = unit_part(a, p)
    delta = sum(weil_index_component(comp, a_p * c) for comp in components if comp.e < v)
    return sqrt_rat(radicand) * root_of_unity(delta, 8)


def gauss_sum_brute(lattice: GramLattice, p: int, a: int, c: int) -> ExactScalar:
    """Direct summation of chi_p(a/c eta^2/2 + a (x_c, eta)/c) over M/cM.

    Over Z_p the quotient M/cM is (Z/p^v)^m; representatives are taken in
    the original basis.  x_c = u/(2D) with u integral, so with
    2cD = p^j w, w prime to p, a term is e(k/p^j),
    k = a (D eta^2 + (u, eta)) w^-1 mod p^j: an integer, counted into one
    root_sum.  The p^(v m) terms cost O(p^(v m)) steps and a vector of p^j
    counts, and p^(v (m + 1)) must stay within exact.BRUTE_CAP.
    """
    v = _gauss_valuation(p, a, c)
    m = lattice.rank
    if p ** (v * (m + 1)) > exact.BRUTE_CAP:
        raise CapExceededError("a Gauss sum of %d^%d terms in Q(zeta_%d^%d) exceeds "
                               "the cap %d" % (p, v * m, p, v, exact.BRUTE_CAP))
    gram = lattice.gram
    u, d = [0] * m, 1
    xc = xc_vector(jordan_decompose(lattice, 2), v) if p == 2 else None
    if xc is not None:
        d = lcm(*(x.denominator for x in xc))
        u = [x.numerator * (2 * d // x.denominator) for x in xc]
    gu = [sum(g * x for g, x in zip(row, u)) for row in gram]
    j, w = valuation_split(2 * c * d, p)
    pj = p ** j
    scale = a * pow(w, -1, pj)

    def exponent(eta: Tuple[int, ...]) -> int:
        norm = sum(eta[i] * gram[i][k] * eta[k] for i in range(m) for k in range(m))
        return (d * norm + sum(map(mul, gu, eta))) * scale

    return root_sum(map(exponent, product(range(p ** v), repeat=m)), pj)
