"""Exact linear algebra against sympy matrices."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxforge import linalg
from coxforge.linalg import PRIMES, RowEchelon, _integer_row, echelon, modular_kernel, nullspace, rank

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


def fraction_kernel(ech):
    """Reference kernel of an echelon by back-substitution over Fraction, one
    canonical vector per free column; the integer back-substitution of
    `RowEchelon.kernel` must give exactly these vectors."""
    by_pivot = sorted(ech.rows, key=lambda item: -item[0])
    pivots = set(ech.pivots())
    basis = []
    for free in range(ech.width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ech.width
        vec[free] = Fraction(1)
        solved = []
        for c, row in by_pivot:
            vec[c] = Fraction(-row[free] - sum(row[j] * vec[j] for j in solved), row[c])
            solved.append(c)
        basis.append(tuple(vec))
    return basis


def full_echelon(rows, ncols):
    """Every row added, each scaled to integers here, with no early stop."""
    ech = RowEchelon(ncols)
    for row in rows:
        mult = lcm(*(Fraction(v).denominator for v in row))
        scaled = [v * mult for v in row]
        assert all(v == int(v) for v in scaled)
        ech.add([int(v) for v in scaled])
    return ech


@st.composite
def matrices(draw):
    """Integer or Fraction matrices up to 8 x 8, some with zero rows and
    repeated rows inserted."""
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=6)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        if len(rows) == 8:
            break
        copied = rows and draw(st.booleans())
        row = rows[draw(st.integers(0, len(rows) - 1))] if copied else [0] * ncols
        rows.insert(draw(st.integers(0, len(rows))), list(row))
    return rows, ncols


def check_against_fraction_kernel(rows, ncols):
    ech = full_echelon(rows, ncols)
    want = fraction_kernel(ech)
    assert ech.kernel() == want
    assert nullspace(rows, ncols) == want
    # each reduced row holds, in a free column f, minus the entry of f's
    # kernel vector in the row's pivot column
    pivots = ech.pivots()
    free = [f for f in range(ncols) if f not in pivots]
    reduced = []
    for c in pivots:
        row = [Fraction(int(j == c)) for j in range(ncols)]
        for f, vec in zip(free, want):
            row[f] = -vec[c]
        reduced.append(tuple(row))
    assert ech.reduced() == reduced
    assert modular_kernel(map(_integer_row, rows), ncols) == tuple(want)


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(([], 3))                                    # nullspace([], n)
@example(([[1, 2], [3, 4], [5, 6]], 2))              # full column rank
@example(([[1, 2, 3], [2, 1, 5]], 3))                # negative last pivot
@example(([[0, 0, 0], [1, 2, 3], [0, 0, 0], [1, 2, 3]], 3))
@example(([[0, 1, 2], [0, 2, 4], [1, 0, 1]], 3))    # a pivot left of an earlier one
def test_integer_back_substitution_matches_fraction_back_substitution(case):
    check_against_fraction_kernel(*case)


def test_reduced_rows_match_sympy_rref():
    rng = random.Random(57)
    for rows in EDGE_MATRICES + [random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
                                 for _ in range(30)]:
        rref, pivots = to_sympy(rows).rref()
        want = [tuple(Fraction(int(v.p), int(v.q)) for v in rref.row(i)) for i in range(len(pivots))]
        assert full_echelon(rows, len(rows[0])).reduced() == want
        assert echelon(list(map(_integer_row, rows)), len(rows[0])).pivots() == list(pivots)
    assert RowEchelon(2).reduced() == []


def test_kernel_scale_is_the_last_pivot_of_either_sign():
    """[2, 1, 5] reduces to [0, -3, -1] against [1, 2, 3]: the last pivot is
    negative and the kernel has denominator 3."""
    ech = full_echelon([[1, 2, 3], [2, 1, 5]], 3)
    assert ech.rows[-1] == (1, [0, -3, -1])
    assert ech.kernel() == [(Fraction(-7, 3), Fraction(-1, 3), Fraction(1))]
    assert nullspace([[1, 2], [3, 4], [5, 6]], 2) == []
    assert nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_echelon_rejects_rational_rows():
    """`RowEchelon.add` would floor a Fraction row into a wrong echelon."""
    with pytest.raises(TypeError):
        echelon([[1, 2], [Fraction(1, 2), 1]], 2)
    assert rank([[1, 2], [Fraction(1, 2), 1]]) == 1


def test_primes_are_prime():
    assert all(sympy.isprime(p) for p in PRIMES)
    assert PRIMES[0] == 2 ** 127 - 1 and all(p.bit_length() == 61 for p in PRIMES[1:])


def _count_modular_work(monkeypatch) -> Counter:
    """Primes reduced and exact fallbacks inside `modular_kernel`."""
    work = Counter()
    kernel_mod, exact = linalg._kernel_mod, linalg.echelon

    def counted_kernel_mod(rows, ncols, p):
        work["primes"] += 1
        return kernel_mod(rows, ncols, p)

    def counted_echelon(rows, ncols):
        work["fallbacks"] += 1
        return exact(rows, ncols)

    monkeypatch.setattr(linalg, "_kernel_mod", counted_kernel_mod)
    monkeypatch.setattr(linalg, "echelon", counted_echelon)
    return work


def exact_kernel(rows, ncols):
    return tuple(echelon(rows, ncols).kernel())


def test_modular_kernel_rejects_a_prime_that_drops_the_rank(monkeypatch):
    """The pivot minor of [[1, 2, 3], [1, 2, 3 + P]] is P, the first prime:
    mod P the rows agree, so the kernel mod P has a second vector, which no
    lift can pass the exact check; the next prime has the full rank."""
    work = _count_modular_work(monkeypatch)
    rows = [[1, 2, 3], [1, 2, 3 + PRIMES[0]]]
    assert linalg._kernel_mod(rows, 3, PRIMES[0])[0] == (0,)
    work.clear()
    assert modular_kernel(rows, 3) == exact_kernel(rows, 3) == ((-2, 1, 0),)
    assert work == Counter({"primes": 2})
    # the same rank with a later pivot: P in the pivot minor again
    rows = [[1, 0, 1, 2], [0, PRIMES[0], 1, 1]]
    assert linalg._kernel_mod(rows, 4, PRIMES[0])[0] == (0, 2)
    assert modular_kernel(rows, 4) == exact_kernel(rows, 4)


def test_modular_kernel_combines_primes_by_crt(monkeypatch):
    """-b/a with 80-bit a and b needs a modulus of at least 2a^2, about
    2^159.5: past 2^127 - 1 alone, within its product with the next prime."""
    work = _count_modular_work(monkeypatch)
    a, b = 3 ** 50, 2 ** 79 - 1
    rows = [[a, b], [2 * a, 2 * b]]
    assert modular_kernel(rows, 2) == exact_kernel(rows, 2) == ((Fraction(-b, a), 1),)
    assert work == Counter({"primes": 2})


def test_modular_kernel_falls_back_past_the_prime_budget(monkeypatch):
    """-b/a with 200-bit a and b needs a modulus of at least 2a^2, about
    2^403.6, past the product of every prime: the rows are eliminated
    exactly."""
    work = _count_modular_work(monkeypatch)
    a, b = 3 ** 127, 2 ** 200 + 1
    assert modular_kernel([[a, b, 0], [0, 0, 1]], 3) == exact_kernel([[a, b, 0], [0, 0, 1]], 3)
    assert work == Counter({"primes": len(PRIMES), "fallbacks": 1})
    work.clear()
    # full column rank mod the first prime certifies an empty kernel at once
    assert modular_kernel([[a, b], [1, 1]], 2) == ()
    assert work == Counter({"primes": 1})


def test_modular_kernel_matches_exact_on_low_rank_integer_matrices():
    rng = random.Random(59)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        base = [[rng.randint(-99, 99) for _ in range(ncols)] for _ in range(rng.randint(0, nrows))]
        rows = [[sum(rng.randint(-5, 5) * b[j] for b in base) for j in range(ncols)]
                for _ in range(nrows)]
        assert modular_kernel(rows, ncols) == exact_kernel(rows, ncols)
    assert modular_kernel([], 2) == ((1, 0), (0, 1))
    assert modular_kernel([[1]], 1) == ()
