"""Exact linear algebra over the rationals on one fraction-free core.

`RowEchelon` takes integer rows one at a time; `rank` and `nullspace` clear
the denominators of rational input first, in `_integer_row`.
A row is reduced by the stored rows, in the order they were stored, with the
Bareiss step

    x <- (p_i * x - x[c_i] * row_i) // p_{i-1},    p_0 = 1,

where c_i is the pivot column of the i-th stored row and p_i its entry
there.  After i steps x[j] is the determinant of the input rows of the
first i stored rows and of x, on the columns c_1, .., c_i, j in that order;
p_i is the same minor without x and j.  The division is exact by
Sylvester's identity, which does not depend on the order of the columns,
so a later row may take a pivot column left of earlier pivots.  A row that
reduces to zero depends on the stored rows and is dropped; otherwise its
first nonzero column becomes its pivot.

A stored row is zero left of its pivot and in every earlier pivot column.
Sorted by pivot, the stored rows therefore form a row echelon form, and the
pivot columns are the first linearly independent columns whatever order the
rows came in.  Kernels are read off by back-substitution in integers: the
last stored pivot p_r is the determinant of the pivot minor, so by Cramer's
rule p_r times a kernel vector is integral and every division on the way is
exact.  Each vector is divided by p_r once, at the end: one vector per free
column, with 1 there and 0 in the other free columns, which is the
canonical basis of the reduced row echelon form.  The reduced rows are
read off the same way: p_r times each is integral, and a stored row, zero
in every earlier pivot column, needs only the reduced rows stored after it.

Rank, kernels, the section spaces and the span tracking of the
generation test all run on this one core.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul


class RowEchelon:
    """Fraction-free row echelon form of the integer rows added so far.

    Only integer rows may be added: `add` does not check, and a Fraction
    entry goes through the floor division of the Bareiss step, which gives a
    wrong echelon and kernel without an error.  Rational rows go through
    `_integer_row` first; `echelon` checks its rows.

    A later row may take a pivot left of an earlier one; the kernel is read
    off all the same:

    >>> ech = RowEchelon(3)
    >>> [ech.add(row) for row in ([0, 1, 2], [0, 2, 4], [1, 0, 1])]
    [True, False, True]
    >>> ech.rank, ech.kernel()
    (2, [(Fraction(-1, 1), Fraction(-2, 1), Fraction(1, 1))])

    The kernel may have denominators, here the last pivot -3:

    >>> ech = RowEchelon(3)
    >>> [ech.add(row) for row in ([1, 2, 3], [2, 4, 6], [2, 1, 5])]
    [True, False, True]
    >>> ech.rank, ech.kernel()
    (2, [(Fraction(-7, 3), Fraction(-1, 3), Fraction(1, 1))])
    """

    def __init__(self, width: int):
        self.width = width
        self.rows = []  # (pivot column, integer row), in the order stored

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row) -> bool:
        """Reduce the integer `row` by the stored rows; store it and return
        True when it is independent of them.  The row is not checked: a
        rational row gives wrong answers silently (see the class docstring)."""
        x = row
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
        self.rows.append((pivot, list(x)))
        return True

    def pivots(self) -> list:
        return sorted(c for c, _ in self.rows)

    def kernel(self) -> list:
        """Canonical kernel basis as Fraction tuples, ordered by free column.

        Each vector is solved in integers as det times the vector, det the
        last stored pivot; every division is exact (see the module docstring)."""
        by_pivot = sorted(self.rows, key=lambda item: -item[0])
        pivots = set(self.pivots())
        det = self.rows[-1][1][self.rows[-1][0]] if self.rows else 1
        basis = []
        for free in range(self.width):
            if free in pivots:
                continue
            vec = [0] * self.width
            vec[free] = det
            for c, row in by_pivot:
                vec[c] = -sum(map(mul, row[c + 1:], vec[c + 1:])) // row[c]
            basis.append(tuple(Fraction(v, det) for v in vec))
        return basis

    def reduced(self) -> list:
        """The reduced row echelon form as Fraction tuples, one per pivot
        column with 1 there and 0 in the other pivot columns, ordered by
        pivot.

        Each row is solved in integers as det times the row, det the last
        stored pivot, the latest stored row first; every division is exact
        (see the module docstring).

        >>> ech = RowEchelon(3)
        >>> [ech.add(row) for row in ([0, 2, 4], [3, 0, 3])]
        [True, True]
        >>> ech.reduced()
        [(Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(1, 1), Fraction(2, 1))]
        """
        det = self.rows[-1][1][self.rows[-1][0]] if self.rows else 1
        done = []  # (pivot column, det times its reduced row)
        for c, row in reversed(self.rows):
            x = [det * a for a in row]
            for later, y in done:
                if row[later]:
                    x = [a - row[later] * b for a, b in zip(x, y)]
            done.append((c, [a // row[c] for a in x]))
        return [tuple(Fraction(v, det) for v in x) for _, x in sorted(done)]


def _integer_row(row) -> list:
    """An integer or Fraction row scaled by the lcm of its denominators."""
    mult = lcm(*(v.denominator for v in row))
    return [v.numerator * (mult // v.denominator) for v in row]


def echelon(rows, ncols: int) -> RowEchelon:
    """The echelon of integer `rows` (ncols wide), stopped once it has full
    column rank: the later rows cannot raise the rank or add a kernel vector.

    >>> echelon([[1, Fraction(1, 2)]], 2)
    Traceback (most recent call last):
    ...
    TypeError: echelon takes integer rows, got [1, Fraction(1, 2)]
    """
    ech = RowEchelon(ncols)
    for row in rows:
        if ech.rank == ncols:
            break
        if not all(map(isinstance, row, repeat(int))):
            raise TypeError(f"echelon takes integer rows, got {list(row)!r}")
        ech.add(row)
    return ech


def rank(rows) -> int:
    """Rank of a matrix of integers or Fractions.

    >>> rank([[1, 2], [2, 4], [0, Fraction(1, 3)]])
    2
    """
    return echelon(map(_integer_row, rows), len(rows[0]) if rows else 0).rank


def nullspace(rows, ncols: int):
    """Canonical kernel basis of the linear map given by `rows` (ncols wide).

    One vector per free column, carrying 1 there and the negated reduced
    echelon entries in the pivot columns; ordered by free column index.
    """
    return echelon(map(_integer_row, rows), ncols).kernel()
