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

`modular_kernel` gives the same canonical kernel from residues, and ships
only what an exact check certifies (the design of Chen and Storjohann's
IML, 2005).  Mod a prime p the rows have rank_p <= rank_Q, as a minor
nonzero mod p is nonzero; so h0_p = ncols - rank_p >= h0_Q.  The
canonical kernel mod p has one vector v_f per free column f mod p: 1 at f,
0 at the other free columns, and -R[c][f] at each pivot c of the reduced
echelon form R mod p, nonzero only for c < f.  Each entry at a pivot is
lifted by Wang's rational reconstruction (1981), modulo p or the product
of primes combined by CRT, and each lifted v_f is checked exactly:
A v_f = 0 on every integer row.  When all h0_p pass, they are h0_p
rational kernel vectors, independent since each has 1 at its own free
column and 0 at the others; so h0_Q >= h0_p, the two are equal, and the
vectors span ker_Q.  A prime with rank_p < rank_Q leaves more vectors than
ker_Q holds, so one of them fails; so does a reconstruction that went
wrong.  The answer is read off the vectors that pass by `_right_reduced`,
so it does not depend on the prime.  The canonical basis of ker_Q has 1 at
its vector's free column f and 0 at the other free columns, and is zero at
every pivot right of f; so read right to left it is the reduced row
echelon form of ker_Q, which any spanning set of ker_Q gives.  The i-th
rational pivot is at most the i-th pivot mod p, so residues are combined
only between primes of the greatest rank and then the least pivots seen.
Full column rank mod p certifies the empty kernel with no lift.  When no
prime of the budget certifies a basis, the rows are eliminated exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import isqrt, lcm
from operator import mul

# the prime budget of `modular_kernel`: 2^127 - 1 first, then 61-bit primes
# whose residues are combined with the earlier ones by CRT
PRIMES = (2 ** 127 - 1, 2 ** 61 - 1, 2 ** 61 - 31, 2 ** 61 - 45)


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


def _right_reduced(rows, ncols: int) -> tuple:
    """The reduced row echelon form of the span of the integer `rows` on
    pivots chosen right to left, as Fraction tuples ordered by pivot: the
    reduced rows of one `RowEchelon` of the reversed rows.  On any rows
    that span a kernel it is the canonical kernel basis (see the module
    docstring).

    >>> _right_reduced([[1, 1, 1], [2, 1, 2]], 3)
    ((Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)))
    """
    ech = RowEchelon(ncols)
    for row in rows:
        ech.add(row[::-1])
    return tuple(row[::-1] for row in reversed(ech.reduced()))


def _kernel_mod(rows, ncols: int, p: int) -> tuple:
    """(pivots, residues) of the integer `rows` mod the prime p: the pivot
    columns, and the canonical kernel basis mod p, one vector per free
    column, each given by its entries in the pivot columns; stopped once it
    has full column rank.

    A row is reduced by the stored rows as `RowEchelon.add` does, each
    stored row 1 at its pivot; the residues are reduced once per row, so
    its entries grow by at most p^2 a step.  The kernel is read off by
    back-substitution, as `RowEchelon.kernel` does."""
    stored = []
    for row in rows:
        x = list(row)
        for c, s in stored:
            f = x[c] % p
            if f:
                x[c:] = [a - f * b for a, b in zip(x[c:], s[c:])]
        x = [a % p for a in x]
        c = next((j for j, v in enumerate(x) if v), None)
        if c is None:
            continue
        inv = pow(x[c], -1, p)
        x[c:] = [a * inv % p for a in x[c:]]
        stored.append((c, x))
        if len(stored) == ncols:
            return tuple(range(ncols)), []
    stored.sort()
    pivots = tuple(c for c, _ in stored)
    residues = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for c, s in reversed(stored):
            vec[c] = -sum(map(mul, s[c + 1:], vec[c + 1:])) % p
        residues.append([vec[c] for c in pivots])
    return pivots, residues


def _reconstruct(residues, m: int):
    """(den, nums): one common denominator 0 < den <= sqrt(m/2) and the
    symmetric residues of den * u mod m, from Wang's rational
    reconstruction of each residue u in turn (the running denominator is
    multiplied in first, so most entries need no search); None when an
    entry has no fraction within the bounds sqrt(m/2)."""
    bound, half = isqrt(m // 2), m // 2
    den = 1
    for u in residues:
        x = u * den % m
        if min(x, m - x) <= bound:
            continue
        r0, r1, t0, t1 = m, x, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        den *= abs(t1)
        if den > bound:
            return None
    return den, [(u * den + half) % m - half for u in residues]


def modular_kernel(rows, ncols: int) -> tuple:
    """The canonical kernel basis of the integer `rows` (ncols wide): the
    tuple of `echelon(rows, ncols).kernel()`, certified from residues.

    For each prime of `PRIMES` in turn the rows are reduced mod p.  Full
    column rank mod p answers () at once.  Otherwise the canonical kernel
    mod p (1 at its free column f, 0 at the other free columns, -R[c][f] at
    each pivot c) is combined by CRT with the earlier primes' when the
    (rank, pivots) agree, lifted by rational reconstruction, and checked
    exactly on every row; the first basis that passes is returned.  When
    no prime certifies one, the rows are eliminated exactly.

    >>> modular_kernel([[1, 2, 3], [2, 4, 6], [2, 1, 5]], 3)
    ((Fraction(-7, 3), Fraction(-1, 3), Fraction(1, 1)),)
    """
    rows = list(rows)
    best = None  # (-rank, pivots) of the primes combined so far
    for p in PRIMES:
        pivots, residues = _kernel_mod(rows, ncols, p)
        if len(pivots) == ncols:
            return ()
        residues = [v for vec in residues for v in vec]
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, m, combined = key, p, residues
        elif key > best:
            continue
        else:  # CRT: the residue mod m * p that is u mod m and v mod p
            lift = pow(m, -1, p)
            combined = [u + m * ((v - u) * lift % p) for u, v in zip(combined, residues)]
            m *= p
        lifted = _reconstruct(combined, m)
        if lifted is None:
            continue
        den, nums = lifted
        free = [f for f in range(ncols) if f not in pivots]
        basis = []
        for i, f in enumerate(free):
            vec = [0] * ncols
            vec[f] = den
            for c, v in zip(pivots, nums[i * len(pivots):]):
                vec[c] = v
            if any(sum(map(mul, row, vec)) for row in rows):
                break
            basis.append(vec)
        else:
            return _right_reduced(basis, ncols)
    return tuple(echelon(rows, ncols).kernel())


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
