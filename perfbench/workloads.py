"""The benchmark's workloads: lattices, seeded inputs, validation, descriptors.

Nothing here imports exactweil.  Inputs are plain integers and tuples; the
worker turns them into program objects outside the timer.

Every workload draws its inputs from a fixed pool (built from ``POOL_SEED``),
and ``--seed`` chooses the order in which the pool is visited.  The files in
``expected/`` hold, for each pool entry, the digest of its correct output
(``oracle-diff`` needs none: each op compares the closed formula with the
oracle) and its cost rank, measured when the digests were recorded.
"""

import functools
import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

ENTRY_BOUND = 50
HUGE_BOUND = 10 ** 12
FRESH_MAX_DET = 12
FRESH_MAX_RANK = 4
FRESH_DIAGONAL = (-6, -4, -2, 2, 4, 6)
FRESH_OFF_DIAGONAL = range(-3, 4)
POOL_SEED = "exactweil-perfbench-pool-1"

Gram = Tuple[Tuple[int, ...], ...]
Matrix = Tuple[int, int, int, int]

# The warm-up matrix: S, which lies in the parity subgroup as well.
WARMUP_MATRIX: Matrix = (0, -1, 1, 0)
# rho-fresh warms up on a lattice its generator never yields (diagonal 8).
FRESH_WARMUP_GRAM: Gram = ((8,),)


class Workload(NamedTuple):
    name: str
    kind: str             # "rho": cli.run on fixed lattices; "fresh"; "oracle"
    grams: Tuple[Gram, ...]
    pool: int             # pooled inputs per lattice (fresh: in total)


def _grams(*rows) -> Tuple[Gram, ...]:
    return tuple(tuple(tuple(r) for r in g) for g in rows)


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "rho-small",
        "rho",
        _grams([[2]], [[-2]], [[4]], [[2, 1], [1, 2]], [[0, 2], [2, 0]],
               [[0, 1], [1, 0]], [[1]], [[3]], [[1, 0], [0, 1]]),
        3000),
    Workload(
        "rho-mid",
        "rho",
        _grams([[2, 0], [0, 6]], [[4, 2], [2, 4]], [[6, 3], [3, 6]], [[32]]),
        1000),
    Workload(
        "oracle-diff",
        "oracle",
        _grams([[2]], [[-2]], [[4]], [[6]], [[2, 1], [1, 2]], [[0, 1], [1, 0]],
               [[2, 0], [0, 4]], [[2, 1], [1, 4]], [[0, 2], [2, 0]],
               [[1]], [[3]], [[5]], [[1, 0], [0, 2]], [[1, 0], [0, 1]]),
        500),
    Workload(
        "rho-fresh",
        "fresh",
        (),
        8000),
)}


class Op(NamedTuple):
    gram: Gram
    matrix: Matrix
    eps: int
    key: Optional[Tuple[int, int]]   # (lattice, pool index) of the digest


# -- integer linear algebra, independent of the program -----------------------


def det(gram: Gram) -> int:
    """Fraction-free Gaussian elimination (Bareiss)."""
    n = len(gram)
    m = [list(row) for row in gram]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def level(gram: Gram) -> int:
    """Smallest N with N * g^2/2 integral on the dual lattice."""
    n = len(gram)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(gram)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    inv = [row[n:] for row in m]
    out = 1
    for i in range(n):
        out = lcm(out, (inv[i][i] / 2).denominator)
        for j in range(i + 1, n):
            out = lcm(out, inv[i][j].denominator)
    return out


def is_even(gram: Gram) -> bool:
    return all(gram[i][i] % 2 == 0 for i in range(len(gram)))


def in_gamma_odd(m: Matrix) -> bool:
    a, b, c, d = m
    return (a * c) % 2 == 0 and (b * d) % 2 == 0


# -- generators ---------------------------------------------------------------


def small_matrices() -> List[Matrix]:
    """Every matrix of SL2(Z) with all entries in [-50, 50], in a fixed order."""
    out = []
    bound = ENTRY_BOUND
    for c in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            if gcd(c, d) != 1:
                continue
            if c == 0:
                out.extend((d, b, 0, d) for b in range(-bound, bound + 1))
                continue
            m = abs(c)
            a0 = pow(d, -1, m) if m > 1 else 0
            a = a0 - ((a0 + bound) // m) * m
            while a <= bound:
                b, r = divmod(a * d - 1, c)
                if r == 0 and -bound <= b <= bound:
                    out.append((a, b, c, d))
                a += m
    return out


def huge_matrix(rng: random.Random) -> Matrix:
    """A coprime (c, d) with |c|, |d| up to 10^12, completed by Bezout."""
    while True:
        c = rng.randint(-HUGE_BOUND, HUGE_BOUND)
        d = rng.randint(-HUGE_BOUND, HUGE_BOUND)
        if c and gcd(c, d) == 1:
            break
    # a*d - b*c = 1 with a = d^-1 mod |c|; then |a| < |c| and |b| <= |d|.
    a = pow(d, -1, abs(c)) if abs(c) > 1 else 0
    b = (a * d - 1) // c
    return (a, b, c, d)


def fresh_gram(rng: random.Random) -> Gram:
    """An even Gram matrix of rank 1-4 with small entries and 0 < |det| <= 12."""
    n = rng.randint(1, FRESH_MAX_RANK)
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice(FRESH_DIAGONAL)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice(FRESH_OFF_DIAGONAL)
        gram = tuple(tuple(r) for r in rows)
        if 0 < abs(det(gram)) <= FRESH_MAX_DET:
            return gram


@functools.lru_cache(maxsize=None)
def pool(w: Workload) -> List[list]:
    """The workload's fixed inputs: per lattice, distinct (matrix, eps)
    pairs; for rho-fresh one list of distinct (gram, matrix, eps) triples.
    Built once per process; do not mutate."""
    rng = random.Random("%s:%s" % (POOL_SEED, w.name))
    if w.kind == "fresh":
        seen = {FRESH_WARMUP_GRAM}
        out = []
        while len(out) < w.pool:
            gram = fresh_gram(rng)
            if gram not in seen:
                seen.add(gram)
                out.append((gram, huge_matrix(rng), rng.choice((1, -1))))
        return [out]
    allm = small_matrices()
    odd_ok = [m for m in allm if in_gamma_odd(m)]
    out = []
    for gram in w.grams:
        choices = allm if is_even(gram) else odd_ok
        picks = rng.sample(range(2 * len(choices)), w.pool)
        out.append([(choices[k // 2], 1 - 2 * (k % 2)) for k in picks])
    return out


def fingerprint(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs).encode()).hexdigest()


GOLDEN = (5 ** 0.5 - 1) / 2


def _spread(rng: random.Random, ranks: List[int]) -> List[int]:
    """A seeded order of range(len(ranks)) whose every prefix spreads evenly
    over the cost ranks: entry k sorts by frac(ranks[k] * GOLDEN + offset),
    a low-discrepancy sequence, with the offset drawn from the seed."""
    offset = rng.random()
    return sorted(range(len(ranks)), key=lambda k: (ranks[k] * GOLDEN + offset) % 1.0)


def ops(w: Workload, seed: int, cost_ranks: List[List[int]]) -> Iterator[Op]:
    """The op stream of one run: endless, and the same for the same seed.

    Each lattice's pool is visited in an order spread evenly over the
    entries' recorded cost ranks, so that runs of every seed, cut short at
    any length, do nearly the same mix of cheap and costly ops.
    """
    rng = random.Random(seed)
    lists = pool(w)
    orders = [_spread(rng, ranks) for ranks in cost_ranks]
    turn = 0
    while True:
        for i in range(len(orders[0])):
            for lat, order in enumerate(orders):
                k = order[(i + turn) % len(order)]
                if w.kind == "fresh":
                    gram, matrix, eps = lists[lat][k]
                else:
                    gram = w.grams[lat]
                    matrix, eps = lists[lat][k]
                yield Op(gram, matrix, eps, (lat, k))
        # A run that exhausts the pool starts over, one step rotated.
        turn += 1


# -- validation and descriptors -----------------------------------------------


class InputError(ValueError):
    """A generated input breaks the workload's contract."""


def validate(w: Workload, op: Op) -> None:
    a, b, c, d = op.matrix
    if a * d - b * c != 1:
        raise InputError("determinant is not 1: %r" % (op.matrix,))
    bound = HUGE_BOUND if w.kind == "fresh" else ENTRY_BOUND
    if max(map(abs, op.matrix)) > bound:
        raise InputError("matrix entry above %d: %r" % (bound, op.matrix))
    if op.eps not in (1, -1):
        raise InputError("eps must be +1 or -1")
    if not is_even(op.gram) and not in_gamma_odd(op.matrix):
        raise InputError("odd lattice needs ac and bd even: %r" % (op.matrix,))
    if w.kind == "fresh":
        if not is_even(op.gram) or not 1 <= len(op.gram) <= FRESH_MAX_RANK:
            raise InputError("fresh lattice must be even of rank 1-4")
        if not 0 < abs(det(op.gram)) <= FRESH_MAX_DET:
            raise InputError("fresh lattice needs 0 < |det| <= 12")


def describe(run_ops: List[Op]) -> dict:
    """Op count, Delta and rank ranges, and how much the ops share."""
    seen_lattices = set()
    seen_residues = set()
    seen_inputs = set()
    reused = repeated = inputs_repeated = 0
    levels: Dict[Gram, int] = {}
    deltas: Dict[Gram, int] = {}
    for op in run_ops:
        if op.gram not in levels:
            levels[op.gram] = 4 * level(op.gram)
            deltas[op.gram] = abs(det(op.gram))
        n = levels[op.gram]
        residue = (op.gram, op.eps, tuple(x % n for x in op.matrix))
        reused += op.gram in seen_lattices
        repeated += residue in seen_residues
        inputs_repeated += op[:3] in seen_inputs
        seen_lattices.add(op.gram)
        seen_residues.add(residue)
        seen_inputs.add(op[:3])
    n = max(len(run_ops), 1)
    ranks = [len(g) for g in deltas]
    return {
        "ops": len(run_ops),
        "delta_range": [min(deltas.values()), max(deltas.values())],
        "rank_range": [min(ranks), max(ranks)],
        "lattice_reuse_ratio": reused / n,
        "residue_repeat_ratio": repeated / n,
        "input_repeat_ratio": inputs_repeated / n,
    }
