"""Exact linear algebra over the rationals on one fraction-free core.

`RowEchelon` takes rows one at a time.  A row's denominators are cleared on
entry; the row is then reduced by the stored rows, in the order they were
stored, with the Bareiss step

    x <- (p_i * x - x[c_i] * row_i) // p_{i-1},    p_0 = 1,

where c_i is the pivot column of the i-th stored row and p_i its entry
there.  After i steps x[j] is the determinant of the cleared input rows of
the first i stored rows and of x, on the columns c_1, .., c_i, j in that
order; p_i is the same minor without x and j.  The division is exact by
Sylvester's identity, which does not depend on the order of the columns,
so a later row may take a pivot column left of earlier pivots.  A row that
reduces to zero depends on the stored rows and is dropped; otherwise its
first nonzero column becomes its pivot.

A stored row is zero left of its pivot and in every earlier pivot column.
Sorted by pivot, the stored rows therefore form a row echelon form, and the
pivot columns are the first linearly independent columns whatever order the
rows came in.  Kernels are read off by back-substitution over Fraction: one
vector per free column, with 1 there and 0 in the other free columns, which
is the canonical basis of the reduced row echelon form.

Rank, kernels, inverses and the span tracking of the generation test all run
on this one core.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import SingularMatrixError


class RowEchelon:
    """Fraction-free row echelon form of the rows added so far.

    >>> ech = RowEchelon(3)
    >>> [ech.add(row) for row in ([0, 1, 2], [0, 2, 4], [1, 0, 1])]
    [True, False, True]
    >>> ech.rank, ech.kernel()
    (2, [(Fraction(-1, 1), Fraction(-2, 1), Fraction(1, 1))])
    """

    def __init__(self, width: int):
        self.width = width
        self.rows = []  # (pivot column, integer row), in the order stored

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row) -> bool:
        """Reduce `row` (integers or Fractions) by the stored rows; store it
        and return True when it is independent of them."""
        mult = lcm(*(v.denominator for v in row))
        x = [v.numerator * (mult // v.denominator) for v in row]
        prev = 1
        for c, stored in self.rows:
            p, f = stored[c], x[c]
            if f:
                x = [(p * a - f * b) // prev for a, b in zip(x, stored)]
            elif p != prev:
                x = [p * a // prev for a in x]
            prev = p
        pivot = next((j for j, v in enumerate(x) if v), None)
        if pivot is None:
            return False
        self.rows.append((pivot, x))
        return True

    def pivots(self) -> list:
        return sorted(c for c, _ in self.rows)

    def kernel(self) -> list:
        """Canonical kernel basis as Fraction tuples, ordered by free column."""
        by_pivot = sorted(self.rows, key=lambda item: -item[0])
        pivots = set(self.pivots())
        basis = []
        for free in range(self.width):
            if free in pivots:
                continue
            vec = [Fraction(0)] * self.width
            vec[free] = Fraction(1)
            solved = []
            for c, row in by_pivot:
                vec[c] = Fraction(-row[free] - sum(row[j] * vec[j] for j in solved), row[c])
                solved.append(c)
            basis.append(tuple(vec))
        return basis


def rank(rows) -> int:
    """Rank of a matrix of integers or Fractions.

    >>> rank([[1, 2], [2, 4], [0, Fraction(1, 3)]])
    2
    """
    ncols = len(rows[0]) if rows else 0
    ech = RowEchelon(ncols)
    for row in rows:
        if ech.rank == ncols:
            break
        ech.add(row)
    return ech.rank


def nullspace(rows, ncols: int):
    """Canonical kernel basis of the linear map given by `rows` (ncols wide).

    One vector per free column, carrying 1 there and the negated reduced
    echelon entries in the pivot columns; ordered by free column index.
    """
    ech = RowEchelon(ncols)
    for row in rows:
        ech.add(row)
    return ech.kernel()


def invert(a):
    """Exact inverse of a square matrix as a list of Fraction rows.

    The kernel of [A | -I] is {(x, y) : A x = y}; its canonical vector for
    the free column n + j is (column j of A^-1, e_j).  A is singular exactly
    when a pivot falls among the last n columns.
    """
    n = len(a)
    ech = RowEchelon(2 * n)
    for i, row in enumerate(a):
        ech.add(list(row) + [-1 if j == i else 0 for j in range(n)])
    if ech.pivots() != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [list(row) for row in zip(*(vec[:n] for vec in ech.kernel()))]
