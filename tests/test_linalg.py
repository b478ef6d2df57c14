"""Exact linear algebra against sympy matrices."""

import random
from fractions import Fraction

import pytest
import sympy

from coxforge.errors import SingularMatrixError
from coxforge.linalg import invert, nullspace, rank

# a later row taking an earlier pivot column, dependent rows arriving before
# independent ones, and the all-zero matrix
EDGE_MATRICES = [
    [[0, 1], [1, 0]],
    [[0, 0, 1], [0, 1, 1], [1, 1, 1]],
    [[1, 2, 3], [2, 4, 6], [3, 6, 9], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
    [[0, 0, 0], [0, 0, 0]],
]


def random_matrix(rng, nrows, ncols, lo=-6, hi=6):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 3))
             for _ in range(ncols)] for _ in range(nrows)]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          if isinstance(v, Fraction) else v for v in row]
                         for row in rows])


def test_rank_matches_sympy():
    rng = random.Random(51)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_matrix(rng, nrows, ncols)
        assert rank(rows) == to_sympy(rows).rank()
    for rows in EDGE_MATRICES:
        assert rank(rows) == to_sympy(rows).rank()
    assert rank([]) == 0


def test_rank_low_rank_constructions():
    rng = random.Random(52)
    for _ in range(30):
        base = random_matrix(rng, 2, 5)
        rows = [[a + b for a, b in zip(base[0], base[1])], base[0],
                [3 * v for v in base[1]], base[1]]
        assert rank(rows) == to_sympy(rows).rank()


def test_nullspace_vectors_annihilate_and_count():
    rng = random.Random(53)
    cases = [random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
             for _ in range(60)]
    for rows in cases + EDGE_MATRICES:
        ncols = len(rows[0])
        basis = nullspace(rows, ncols)
        assert basis == [tuple(Fraction(int(v.p), int(v.q)) for v in vec)
                         for vec in to_sympy(rows).nullspace()]
        assert len(basis) == ncols - rank(rows)
        for vec in basis:
            assert all(sum(r * v for r, v in zip(row, vec)) == 0 for row in rows)
        assert rank(list(basis)) == len(basis) if basis else True
    assert nullspace([], 2) == [(1, 0), (0, 1)]


def test_nullspace_is_canonical_reduced_basis():
    rows = [[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]]
    assert nullspace(rows, 5) == [
        (1, -2, 1, 0, 0), (2, -3, 0, 1, 0), (3, -4, 0, 0, 1)]


def test_solve_and_invert_match_sympy():
    """invert solves A X = I exactly."""
    rng = random.Random(55)
    done = 0
    while done < 30:
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n)
        if to_sympy(rows).det() == 0:
            continue
        done += 1
        inv = invert(rows)
        assert to_sympy(inv) == to_sympy(rows) ** -1
    for rows in ([[0, 1], [1, 0]], [[0, 0, 2], [0, 3, 1], [5, 1, 1]]):
        assert to_sympy(invert(rows)) == to_sympy(rows) ** -1


def test_singular_solve_raises():
    """invert refuses a singular A.  [A | -I] always has n kernel vectors, so
    singularity must show in the pivot columns, not in the vector count."""
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0, 1], [0, 1]]):
        with pytest.raises(SingularMatrixError):
            invert(rows)
