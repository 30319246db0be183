"""Shared lattice corpus for the test suite."""

EVEN_GRAMS = [
    [[2]],
    [[-2]],
    [[4]],
    [[6]],
    [[2, 1], [1, 2]],
    [[0, 1], [1, 0]],
    [[2, 0], [0, 4]],
    [[2, 1], [1, 4]],
    [[0, 2], [2, 0]],
]

ODD_GRAMS = [
    [[1]],
    [[3]],
    [[5]],
    [[1, 0], [0, 2]],
    [[1, 0], [0, 1]],
]

# Rank-3 lattices with a 2-adic scale that holds both a 1x1 pivot and an
# even 2x2 block: three even ones at scale 2 and an odd one at scale 1.
MIXED_SCALE_GRAMS = [
    [[2, 0, 0], [0, 0, 2], [0, 2, 0]],
    [[2, 0, 0], [0, 4, 2], [0, 2, 4]],
    [[6, 0, 0], [0, 4, 2], [0, 2, 4]],
    [[1, 0, 0], [0, 2, 1], [0, 1, 2]],
]

# The even unimodular lattice of rank 8.
E8_GRAM = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
           [0, -1, 2, -1, 0, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0, 0],
           [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
           [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]
