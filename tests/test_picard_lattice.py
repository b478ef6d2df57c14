"""Lattice contexts, classes, and the bilinear form.

The pairing is cross-checked against an explicit Gram matrix built from
nothing but the stated basis rules, so a sign or offset slip in the
closed-form pairing cannot hide.
"""

import random
from fractions import Fraction

import pytest

from coxforge.errors import PreconditionError
from coxforge.picard_lattice import (
    CurveClass,
    DivisorClass,
    LatticeContext,
    anticanonical,
    canonical_class,
    degree,
    format_curve,
    format_divisor,
    hdeg,
    intersect,
    pairing,
)

CTX223 = LatticeContext(2, 2, 3)
CTX323 = LatticeContext(3, 2, 3)


def gram_matrix(ctx):
    """Independent oracle: the rank x rank Gram matrix in the H,E basis."""
    n = ctx.rank
    g = [[0] * n for _ in range(n)]
    for i in range(ctx.a - 1):
        for j in range(ctx.a - 1):
            g[i][j] = (ctx.c - 1) - (1 if i == j else 0)
    for j in range(ctx.r):
        g[ctx.a - 1 + j][ctx.a - 1 + j] = -1
    return g


def coords(d):
    return list(d.h) + list(d.m)


def pairing_oracle(d1, d2):
    g = gram_matrix(d1.ctx)
    v, w = coords(d1), coords(d2)
    return sum(v[i] * g[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))


def random_class(rng, ctx, lo=-4, hi=4):
    return DivisorClass(ctx, tuple(rng.randint(lo, hi) for _ in range(ctx.a - 1)),
                        tuple(rng.randint(lo, hi) for _ in range(ctx.r)))


def test_context_invariants():
    assert CTX223.r == 5
    assert CTX223.rank == 6
    assert CTX223.kappa == 1
    assert CTX323.rank == 7
    assert LatticeContext(2, 3, 4).kappa == 2


def test_context_rejects_bad_triples():
    with pytest.raises(PreconditionError):
        LatticeContext(2, 2, 2)
    with pytest.raises(PreconditionError):
        LatticeContext(1, 2, 3)
    with pytest.raises(PreconditionError):
        LatticeContext(2, 0, 3)


def test_pairing_matches_gram_oracle():
    rng = random.Random(61)
    for ctx in (CTX223, CTX323, LatticeContext(2, 3, 4), LatticeContext(4, 1, 3)):
        for _ in range(50):
            d1, d2 = random_class(rng, ctx), random_class(rng, ctx)
            assert pairing(d1, d2) == pairing_oracle(d1, d2)
            assert pairing(d1, d2) == pairing(d2, d1)


def test_pairing_basis_values():
    h = DivisorClass.hyperplane(CTX323, 1)
    h2 = DivisorClass.hyperplane(CTX323, 2)
    e1 = DivisorClass.exceptional(CTX323, 1)
    assert pairing(h, h) == 1
    assert pairing(h, h2) == 2
    assert pairing(h, e1) == 0
    assert pairing(e1, e1) == -1
    assert pairing(e1, DivisorClass.exceptional(CTX323, 2)) == 0


def test_anticanonical_class_and_self_pairing():
    mk = anticanonical(CTX223)
    assert mk.h == (3,)
    assert mk.m == (1, 1, 1, 1, 1)
    assert pairing(mk, mk) == 4
    assert canonical_class(CTX223) == -mk
    k33 = canonical_class(LatticeContext(3, 3, 3))
    assert pairing(k33, k33) == 0


def test_degree_normalization():
    assert degree(anticanonical(LatticeContext(2, 3, 3))) == 3
    assert degree(anticanonical(CTX223)) == 4
    e5 = DivisorClass.exceptional(CTX223, 5)
    assert degree(e5) == 1
    assert isinstance(degree(e5), Fraction)


def test_intersection_with_curves():
    line = CurveClass.line(CTX223)
    e2 = CurveClass.exceptional_line(CTX223, 2)
    h = DivisorClass.hyperplane(CTX223)
    assert intersect(h, line) == 1
    assert intersect(h, e2) == 0
    assert intersect(DivisorClass.exceptional(CTX223, 2), e2) == -1
    assert intersect(anticanonical(CTX223), line) == 3


def test_intersection_multi_factor_context():
    d = DivisorClass(CTX323, (1, 0), (1, 0, 0, 0, 0))
    g = CurveClass(CTX323, (1, 1), (-1, 0, 0, 0, 0))
    assert intersect(d, g) == 0


def test_arithmetic_and_ordering():
    rng = random.Random(62)
    d1, d2 = random_class(rng, CTX223), random_class(rng, CTX223)
    assert (d1 + d2) - d2 == d1
    assert 2 * d1 == d1 + d1
    assert -d1 == DivisorClass.zero(CTX223) - d1
    assert sorted([d2, d1], key=DivisorClass.sort_key) == \
        sorted([d1, d2], key=DivisorClass.sort_key)


def test_mixed_context_arithmetic_rejected():
    with pytest.raises(PreconditionError):
        random_class(random.Random(0), CTX223) + random_class(random.Random(0), CTX323)



def test_class_arithmetic_for_divisors_and_curves():
    rng = random.Random(64)
    for ctx in (CTX223, CTX323, LatticeContext(4, 1, 3)):
        d = random_class(rng, ctx)
        g = CurveClass(ctx, tuple(rng.randint(-3, 3) for _ in range(ctx.a - 1)),
                       tuple(rng.randint(-3, 3) for _ in range(ctx.r)))
        for x, (first, second) in ((d, ("h", "m")), (g, ("l", "e"))):
            cls = type(x)
            a, b = getattr(x, first), getattr(x, second)
            assert 3 * x == x * 3 == cls(ctx, tuple(3 * v for v in a), tuple(3 * v for v in b))
            assert -2 * x == -(x + x)
            assert x - x == 0 * x
            assert x.coords() == a + b
            assert cls.from_coords(ctx, x.coords()) == x
            assert x.sort_key() == (a, b)
            for k in (True, False, 1.0, Fraction(2)):
                with pytest.raises(TypeError):
                    x * k
                with pytest.raises(TypeError):
                    k * x
        with pytest.raises(TypeError):
            d + DivisorClass.zero(ctx) + CurveClass.line(ctx)


def test_mixed_context_errors_name_the_kind_of_class():
    d1, d2 = DivisorClass.zero(CTX223), DivisorClass.zero(CTX323)
    g1, g2 = CurveClass.line(CTX223), CurveClass.line(CTX323)
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        for x, y, kind in ((d1, d2, "divisor classes"), (g1, g2, "curve classes")):
            with pytest.raises(PreconditionError) as err:
                op(x, y)
            assert err.value.field == "ctx"
            assert err.value.detail == f"{kind} live in different contexts"

def test_hdeg_only_for_single_factor():
    assert hdeg(DivisorClass(CTX223, (4,), (0, 0, 0, 0, 0))) == 4
    with pytest.raises(PreconditionError):
        hdeg(DivisorClass(CTX323, (1, 1), (0, 0, 0, 0, 0)))


def test_format_divisor_readable():
    assert format_divisor(anticanonical(CTX223)) == \
        "3H - E_1 - E_2 - E_3 - E_4 - E_5"
    assert format_divisor(DivisorClass.zero(CTX223)) == "0"


def test_format_curve_readable():
    assert format_curve(CurveClass(CTX223, (1,), (-1, 0, 0, 0, 0))) == "l - e_1"
    assert format_curve(CurveClass(CTX223, (2,), (0, -1, 1, 0, 0))) == \
        "2l - e_2 + e_3"
    assert format_curve(CurveClass(CTX323, (1, 0), (1, 0, 0, 0, 0))) == \
        "l_1 + e_1"
    assert format_curve(CurveClass(CTX223, (0,), (0,) * 5)) == "0"
