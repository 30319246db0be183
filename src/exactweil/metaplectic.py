"""The metaplectic double cover of SL2(Z) and its local cocycles.

Elements of Mp2(Z) are pairs (A, eps) multiplied through the real-place
Kubota cocycle; this realizes the branch convention arg sqrt(j(A, tau)) in
[-pi/2, pi/2) without ever materializing the analytic square root.  The
same five-case cocycle evaluated through a p-adic Hilbert symbol gives the
covers of SL2(Q_p) used by the lifts.
"""

from fractions import Fraction
from typing import List, Tuple, Union

from .numth import REAL_PLACE, hilbert, legendre, two_over, valuation_split

Rational = Union[int, Fraction]
Token = Tuple[str, int]
Word = List[Token]


class SL2:
    """A determinant-one 2x2 matrix with rational entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Rational, b: Rational, c: Rational, d: Rational):
        if a * d - b * c != 1:
            raise ValueError("determinant must be 1")
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, other: "SL2") -> "SL2":
        return SL2(self.a * other.a + self.b * other.c,
                   self.a * other.b + self.b * other.d,
                   self.c * other.a + self.d * other.c,
                   self.c * other.b + self.d * other.d)

    def inverse(self) -> "SL2":
        return SL2(self.d, -self.b, -self.c, self.a)

    def entries(self) -> Tuple[Rational, Rational, Rational, Rational]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SL2):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        return f"SL2({self.a}, {self.b}, {self.c}, {self.d})"


IDENTITY = SL2(1, 0, 0, 1)
T_MAT = SL2(1, 1, 0, 1)
S_MAT = SL2(0, -1, 1, 0)


def kubota_cocycle(x: SL2, y: SL2, place) -> int:
    """The five-case 2-cocycle on SL2 at a real or p-adic place."""
    c, d = x.c, x.d
    g, h = y.c, y.d
    if c == 0 and g == 0:
        return hilbert(d, h, place)
    if c == 0:
        return hilbert(d, g, place)
    if g == 0:
        return hilbert(c, h, place)
    t = c * y.a + d * g  # the c-entry of the product
    if t == 0:
        return hilbert(-c, -g, place)
    return hilbert(c, g, place) * hilbert(t, -c * g, place)


def cgxde_form(c: Rational, g: Rational, d: Rational, e: Rational, place) -> int:
    """Case-split equivalent of the fifth cocycle case, for c, g, ce+dg != 0."""
    x = c * e + d * g
    if c == 0 or g == 0 or x == 0:
        raise ValueError("requires c, g and ce+dg nonzero")
    if d == 0:
        return hilbert(e, -c * g, place)
    if e == 0:
        return hilbert(d, -c * g, place)
    return hilbert(d, c * x, place) * hilbert(e, g * x, place) * hilbert(d, e, place)


class MpElement:
    """A matrix together with a sign: one of the two lifts to the cover."""

    __slots__ = ("mat", "eps")

    def __init__(self, mat: SL2, eps: int = 1):
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        self.mat = mat
        self.eps = eps

    def __eq__(self, other) -> bool:
        if not isinstance(other, MpElement):
            return NotImplemented
        return self.mat == other.mat and self.eps == other.eps

    def __hash__(self) -> int:
        return hash((self.mat, self.eps))

    def __repr__(self) -> str:
        return f"MpElement({self.mat!r}, {self.eps})"


MP_ONE = MpElement(IDENTITY, 1)
MP_T = MpElement(T_MAT, 1)
MP_S = MpElement(S_MAT, 1)


def mp_mul(x: MpElement, y: MpElement) -> MpElement:
    return MpElement(x.mat * y.mat,
                     kubota_cocycle(x.mat, y.mat, REAL_PLACE) * x.eps * y.eps)


def mp_inv(x: MpElement) -> MpElement:
    inv = x.mat.inverse()
    return MpElement(inv, x.eps * kubota_cocycle(x.mat, inv, REAL_PLACE))


MP_Z = mp_mul(MP_S, MP_S)
MP_S_INV = mp_inv(MP_S)  # (S^-1, +1)


def word_mp(word: Word) -> MpElement:
    """The metaplectic element of a word, all tokens taken with sign +1.

    The product is walked on integer entries (a, b; c, d), and the real-place
    Kubota cocycle of each step is read off the signs of c and d.  T^k has
    bottom row (0, 1), so its cocycle is (d, 1) or (c, 1), always +1.  S has
    bottom row (1, 0): the cocycle is (d, 1) for c = 0, else (-c, -1) for
    d = 0 and (c, 1)(d, -c) otherwise, so -1 exactly when c > 0 and d <= 0.
    MP_S_INV has bottom row (-1, 0) and sign +1: the cocycle is (d, -1) for
    c = 0, else (-c, 1) for d = 0 and (c, -1)(-d, c) otherwise, so -1
    exactly when c <= 0 and d < 0.  A token ("S", k) is |k| steps of S for
    k > 0 and of S^-1 for k < 0, as _group_ring_product reads it.
    """
    a, b, c, d, eps = 1, 0, 0, 1, 1
    for kind, k in word:
        if kind == "T":
            b, d = b + k * a, d + k * c
        elif k > 0:
            for _ in range(k):
                if c > 0 and d <= 0:
                    eps = -eps
                a, b, c, d = b, -a, d, -c
        else:
            for _ in range(-k):
                if c <= 0 and d < 0:
                    eps = -eps
                a, b, c, d = -b, a, -d, c
    return MpElement(SL2(a, b, c, d), eps)


def _round_half_even(num: int, den: int) -> int:
    """num/den rounded to the nearest integer, ties to even, as round() does
    on a Fraction; den is nonzero."""
    if den < 0:
        num, den = -num, -den
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def _peel(mat: SL2, step: int) -> Word:
    """Right-multiply by T^k (k a multiple of step) and S until c = 0.

    k = -step * round(d / (step c)) leaves |d + k c| <= |step c| / 2, and k
    is nonzero only when |d| >= |step c| / 2, so a T step never makes |d|
    larger.
    """
    a, b, c, d = mat.entries()
    tail: Word = []
    while c:
        if d:
            k = -step * _round_half_even(d, step * c)
            if k:
                b, d = b + k * a, d + k * c
                tail.append(("T", k))
        a, b, c, d = b, -a, d, -c
        tail.append(("S", 1))
    head: Word = []
    if a == 1:
        if b:
            head.append(("T", b))
    else:
        head += [("S", 1), ("S", 1)]
        if b:
            head.append(("T", -b))
    for kind, k in reversed(tail):
        head.append(("T", -k) if kind == "T" else ("S", -1))
    return head


def decompose(mat: SL2, step: int) -> Tuple[Word, MpElement]:
    """A word in S^(+-1) and T-powers divisible by step (1, or 2 when ac and
    bd are even) multiplying out to the matrix, and its metaplectic element:
    one walk of the word, which raises ArithmeticError unless it gives mat."""
    if step == 2 and not gamma_odd_member(mat):
        raise ValueError("matrix has odd ac or bd")
    word = _peel(mat, step)
    achieved = word_mp(word)
    if achieved.mat != mat:
        raise ArithmeticError("the word multiplies out to %r, not to %r"
                              % (achieved.mat, mat))
    if any(kind == "T" and k % step for kind, k in word):
        raise ArithmeticError("the word for %r has a T power not divisible by %d"
                              % (mat, step))
    return word, achieved


def gamma_odd_member(mat: SL2) -> bool:
    """Membership in the group where ac and bd are both even."""
    return (mat.a * mat.c) % 2 == 0 and (mat.b * mat.d) % 2 == 0


# -- lifts --------------------------------------------------------------


def in_gamma1_4(mat: SL2) -> bool:
    return mat.c % 4 == 0 and mat.a % 4 == 1 and mat.d % 4 == 1


def iota_lift(mat: SL2, p: int) -> int:
    """Sign of the local lift: (a, p^v(c)) at p; trivial when c = 0."""
    if p == 2 and not in_gamma1_4(mat):
        raise ValueError("the 2-adic lift needs a matrix 1 mod 4 with 4 | c")
    if mat.c == 0:
        return 1
    v = valuation_split(mat.c, p).valuation
    if v == 0:
        return 1
    return hilbert(mat.a, p ** v, p)


def i_map(x: MpElement) -> Tuple[SL2, int]:
    """Image in the 2-adic cover: eps is twisted by (a / odd part of c)."""
    if x.mat.c == 0:
        return x.mat, x.eps
    c2 = valuation_split(x.mat.c, 2).unit_part
    return x.mat, legendre(x.mat.a, c2) * x.eps


def gamma4_lift(mat: SL2) -> MpElement:
    """The splitting over the group of matrices 1 mod 4 with 4 | c."""
    if not in_gamma1_4(mat):
        raise ValueError("matrix must be 1 mod 4 with 4 | c")
    if mat.c == 0:
        return MpElement(mat, 1)
    v, c2 = valuation_split(mat.c, 2)
    sign = two_over(mat.a) ** v * legendre(mat.a, c2)
    return MpElement(mat, sign)
