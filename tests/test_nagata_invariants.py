"""Determinant invariants, torus gradings, and their divisor classes."""

from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coxforge.blowup_divisors import BlowupContext, enumerate_minimal
from coxforge.errors import CapExceeded, PreconditionError
from coxforge.multipoly import MultiPoly
from coxforge.nagata_invariants import (
    NagataParams,
    build_F,
    divisor_class_of,
    is_invariant,
    torus_weight,
)
from coxforge.picard_lattice import DivisorClass, LatticeContext, degree

NP5 = NagataParams.default(5)


def to_sympy(p):
    syms = {v: sympy.Symbol(v) for v in p.vars}
    expr = sympy.Integer(0)
    for exps, coef in p.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for v, e in zip(p.vars, exps):
            term *= syms[v] ** e
        expr += term
    return sympy.expand(expr)


def det_oracle(index_set, np):
    """The same matrix expanded by sympy's determinant routine."""
    idx = sorted(index_set)
    k = (len(idx) - 1) // 2
    rows = []
    for row in range(len(idx)):
        line = []
        for i in idx:
            a = sympy.Rational(np.params[i - 1])
            if row <= k:
                line.append(a ** row * sympy.Symbol(f"x_{i}"))
            else:
                line.append(a ** (row - k - 1) * sympy.Symbol(f"y_{i}"))
        rows.append(line)
    return sympy.expand(sympy.Matrix(rows).det())


def cofactor_expansion(index_set, np):
    """F_I by cofactor expansion along the first row, minors memoized by
    column tuple: the same matrix as `det_oracle`, expanded in MultiPoly."""
    idx = sorted(set(index_set))
    k = (len(idx) - 1) // 2

    def entry(row, i):
        a = np.params[i - 1]
        if row <= k:
            return MultiPoly((f"x_{i}",), {(1,): a ** row})
        return MultiPoly((f"y_{i}",), {(1,): a ** (row - k - 1)})

    memo = {}

    def minor(row, cols):
        if not cols:
            return MultiPoly.const(1)
        if (row, cols) not in memo:
            memo[row, cols] = MultiPoly.sum(
                (-1) ** pos * entry(row, i) * minor(row + 1, cols[:pos] + cols[pos + 1:])
                for pos, i in enumerate(cols))
        return memo[row, cols]

    return minor(0, tuple(idx))


def nagata_substitute(p, np):
    """The action itself, y_i -> y_i + (t_1 + t_2 a_i) x_i with formal t_1, t_2,
    expanded by substitution."""
    t1, t2 = MultiPoly.variable("t_1"), MultiPoly.variable("t_2")
    return p.substitute({f"y_{i}": MultiPoly.variable(f"y_{i}")
                         + (t1 + t2 * a) * MultiPoly.variable(f"x_{i}")
                         for i, a in enumerate(np.params, start=1)})


def odd_sets(r):
    return [idx for size in range(1, r + 1, 2) for idx in combinations(range(1, r + 1), size)]


def test_params_validation():
    with pytest.raises(PreconditionError):
        NagataParams(4, (1, 2, 3, 4))
    with pytest.raises(PreconditionError):
        NagataParams(5, (1, 2, 3, 4))
    with pytest.raises(PreconditionError):
        NagataParams(5, (1, 1, 2, 3, 4))
    assert NagataParams.random(5, 9) == NagataParams.random(5, 9)
    assert len(set(NagataParams.random(5, 9).params)) == 5
    with pytest.raises(PreconditionError) as err:
        NagataParams.random(900, 9)
    assert err.value.field == "r"


def test_build_F_guards():
    cases = [((1, 2), "need an odd number of indices, got 2"),
             ((), "need an odd number of indices, got 0"),
             ((0, 1, 2), "indices must lie in 1..5"),
             ((1, 2, 6), "indices must lie in 1..5")]
    for idx, detail in cases:
        with pytest.raises(PreconditionError) as err:
            build_F(idx, NP5)
        assert (err.value.field, err.value.detail) == ("I", detail)


def test_build_F_cap_boundary(monkeypatch):
    # |I| = 5 gives C(5, 3) = 10 terms
    monkeypatch.setenv("COXFORGE_CAP", "10")
    assert len(build_F((1, 2, 3, 4, 5), NP5).terms) == 10
    monkeypatch.setenv("COXFORGE_CAP", "9")
    with pytest.raises(CapExceeded) as err:
        build_F((1, 2, 3, 4, 5), NP5)
    assert (err.value.what, err.value.cap) == ("determinant terms", 9)
    # an explicit cap comes before the environment, either way
    assert len(build_F((1, 2, 3, 4, 5), NP5, cap=10).terms) == 10
    monkeypatch.setenv("COXFORGE_CAP", "10")
    with pytest.raises(CapExceeded) as err:
        build_F((1, 2, 3, 4, 5), NP5, cap=9)
    assert err.value.cap == 9
    with pytest.raises(PreconditionError):
        build_F((1, 2), NP5, cap=1)  # guards come before the cap
    monkeypatch.delenv("COXFORGE_CAP")
    with pytest.raises(CapExceeded):
        build_F(range(1, 24), NagataParams.default(23))  # C(23, 12) > 10^6


def test_build_F_matches_cofactor_expansion():
    for np in (NagataParams.default(7), NagataParams.random(7, 41)):
        for idx in odd_sets(7):
            f, g = build_F(idx, np), cofactor_expansion(idx, np)
            assert (f.vars, f.terms, str(f)) == (g.vars, g.terms, str(g))
            assert all(type(c) is Fraction for c in f.terms.values())


def test_build_F_matches_determinant_oracle():
    sets = [(2,), (1, 2, 3), (2, 4, 5), (1, 2, 3, 4, 5)]
    for idx in sets:
        diff = to_sympy(build_F(idx, NP5)) - det_oracle(idx, NP5)
        assert sympy.expand(diff) == 0
    rnd = NagataParams.random(5, 17)
    for idx in sets:
        diff = to_sympy(build_F(idx, rnd)) - det_oracle(idx, rnd)
        assert sympy.expand(diff) == 0


def test_build_F_small_cases_explicit():
    x1, x2, x3 = (MultiPoly.variable(f"x_{i}") for i in (1, 2, 3))
    y1, y2, y3 = (MultiPoly.variable(f"y_{i}") for i in (1, 2, 3))
    assert build_F((1,), NP5) == x1
    # rows x_i, a_i x_i, y_i at a = (1, 2, 3), cofactors along the y row
    want = x2 * x3 * y1 - 2 * (x1 * x3 * y2) + x1 * x2 * y3
    assert build_F((1, 2, 3), NP5) == want
    assert build_F((3, 1, 2, 2), NP5) == want  # order and repeats ignored


def test_substitution_and_invariance():
    a1 = NP5.params[0]
    t1, t2 = MultiPoly.variable("t_1"), MultiPoly.variable("t_2")
    x1, y1 = MultiPoly.variable("x_1"), MultiPoly.variable("y_1")
    assert nagata_substitute(y1, NP5) == y1 + (t1 + t2 * a1) * x1
    assert nagata_substitute(x1 ** 3, NP5) == x1 ** 3
    with pytest.raises(PreconditionError):
        is_invariant(x1 + t2, NP5)
    assert not is_invariant(y1, NP5)
    assert is_invariant(x1, NP5)


def test_every_determinant_is_invariant():
    for size in (1, 3, 5):
        for idx in combinations(range(1, 6), size):
            assert is_invariant(build_F(idx, NP5), NP5)
    rnd = NagataParams.random(5, 29)
    assert is_invariant(build_F((1, 3, 5), rnd), rnd)


PROPERTY_PARAMS = (NP5, NagataParams.random(5, 31), NagataParams.random(6, 47))
INVARIANT_KINDS = ("sum", "product", "beyond", "z", "zero")


@st.composite
def polys_under_the_action(draw):
    """(kind, p, params): p built from determinants, stray y_j, z variables
    and y_j with j > r, or a small random x/y polynomial."""
    np = draw(st.sampled_from(PROPERTY_PARAMS))
    r = np.r
    var = MultiPoly.variable

    def det():
        return build_F(draw(st.sampled_from(odd_sets(r))), np)

    j = draw(st.integers(1, r))
    c = draw(st.sampled_from((-3, -1, 1, 2, Fraction(1, 2))))
    e = draw(st.integers(1, 3))
    k = j % r + 1
    kind = draw(st.sampled_from(INVARIANT_KINDS + ("plus", "times", "lone_y", "pair", "random")))
    if kind == "sum":
        p = det() + c * det()
    elif kind == "product":
        p = det() * det()
    elif kind == "beyond":  # y_{r+1} is not moved by the action
        p = det() * var(f"y_{r + 1}") ** e + c * var(f"y_{r + 1}")
    elif kind == "z":
        p = det() * var("z_0") ** e + c * var("z_1")
    elif kind == "zero":
        p = det() - det() if draw(st.booleans()) else MultiPoly.zero()
    elif kind == "plus":
        p = det() + c * var(f"y_{j}")
    elif kind == "times":
        p = det() * var(f"y_{j}") ** e
    elif kind == "lone_y":  # no x_j anywhere in p
        p = var(f"y_{j}") ** e * var(f"x_{k}") + c * var("z_0") * var(f"y_{j}")
    elif kind == "pair":  # killed by one of D_1, D_2 but not by the other
        b, b2 = (np.params[k - 1], np.params[j - 1]) if draw(st.booleans()) else (1, 1)
        p = det() * (b * var(f"x_{k}") * var(f"y_{j}") - b2 * var(f"x_{j}") * var(f"y_{k}"))
    else:
        names = [f"{h}_{i}" for h in "xy" for i in (1, 2, 3)]
        p = MultiPoly.sum(
            MultiPoly(names, {tuple(draw(st.integers(0, 2)) for _ in names):
                              draw(st.integers(-2, 2))})
            for _ in range(draw(st.integers(1, 4))))
    return kind, p, np


@settings(max_examples=150, deadline=None)
@given(polys_under_the_action())
def test_invariance_matches_the_substitution(case):
    kind, p, np = case
    verdict = is_invariant(p, np)
    assert verdict == (nagata_substitute(p, np) - p).is_zero()
    if kind in INVARIANT_KINDS:
        assert verdict


# different denominators, a zero and a negative parameter
MIXED = NagataParams(5, (Fraction(-1, 2), 0, Fraction(2, 3), Fraction(5, 7), 3))


def moved_by(p, np):
    """The formal parameters that occur in sigma(p) - p."""
    return set((nagata_substitute(p, np) - p).vars) & {"t_1", "t_2"}


def test_invariance_on_integers_matches_the_substitution():
    var = MultiPoly.variable
    dets = [build_F(idx, MIXED) for idx in odd_sets(5)]
    # the terms of a determinant carry different denominators
    assert any(len({c.denominator for c in f.terms.values()}) > 1 for f in dets)
    cases = []
    for f in dets:
        cases += [(f, set()), (Fraction(3, 4) * f + Fraction(-2, 5) * dets[-1], set()),
                  (f + Fraction(1, 6) * var("y_1"), {"t_1", "t_2"})]
    for j, k in combinations(range(1, 6), 2):
        aj, ak = MIXED.params[j - 1], MIXED.params[k - 1]
        x_j, x_k, y_j, y_k = var(f"x_{j}"), var(f"x_{k}"), var(f"y_{j}"), var(f"y_{k}")
        # D_2 kills a_k x_k y_j - a_j x_j y_k and D_1 does not; D_1 kills
        # x_k y_j - x_j y_k and D_2 does not
        cases += [(ak * x_k * y_j - aj * x_j * y_k, {"t_1"}),
                  (x_k * y_j - x_j * y_k, {"t_2"}),
                  (Fraction(5, 7) * (x_k * y_j - x_j * y_k) + Fraction(1, 3) * dets[j], {"t_2"})]
    # D_1 and D_2 send the y-terms to x_1^2 x_2, x_2^2 and x_3, whose
    # exponents over p's variables (x_1, x_2, x_3, ..) read alike as base-2
    # digits, with coefficients that sum to 0 against both 1 and a_i
    cases.append((4 * var("x_1") * var("x_2") * var("y_1") - 7 * var("x_2") * var("y_2")
                  + 3 * var("y_3") + var("x_3"), {"t_1", "t_2"}))
    for p, moved in cases:
        assert moved_by(p, MIXED) == moved, str(p)
        assert is_invariant(p, MIXED) == (not moved), str(p)


def test_torus_weight_names_the_lowest_pair_before_the_bidegree():
    # the second term breaks only the x-degree, the third only pair 2
    terms = {(1, 1, 0, 0): 1, (0, 1, 1, 0): 1, (1, 0, 0, 2): 1}
    p = MultiPoly(("x_1", "x_2", "y_1", "y_2"), terms)
    assert list(p.terms) == list(terms)
    with pytest.raises(PreconditionError) as err:
        torus_weight(p)
    assert (err.value.field, err.value.detail) == ("P", "not homogeneous in the pair (x_2, y_2)")
    with pytest.raises(PreconditionError) as err:
        torus_weight(MultiPoly(p.vars, dict(list(terms.items())[:2])), 2)
    assert (err.value.field, err.value.detail) == ("P", "not homogeneous in the x variables")


def test_torus_weight_values():
    f = build_F((3, 4, 5), NP5)
    assert torus_weight(f, 5) == ((0, 0, 1, 1, 1), 2, 1)
    full = build_F((1, 2, 3, 4, 5), NP5)
    assert torus_weight(full) == ((1, 1, 1, 1, 1), 3, 2)
    x2 = MultiPoly.variable("x_2")
    assert torus_weight(x2) == ((0, 1), 1, 0)
    assert torus_weight(x2, 5) == ((0, 1, 0, 0, 0), 1, 0)


def test_torus_weight_additive_on_products():
    f = build_F((1, 2, 3), NP5)
    g = build_F((2, 4, 5), NP5)
    wf, xf, yf = torus_weight(f, 5)
    wg, xg, yg = torus_weight(g, 5)
    wp, xp, yp = torus_weight(f * g, 5)
    assert wp == tuple(u + v for u, v in zip(wf, wg))
    assert (xp, yp) == (xf + xg, yf + yg)


def test_torus_weight_errors_name_the_offender():
    x1, y1 = MultiPoly.variable("x_1"), MultiPoly.variable("y_1")
    y2 = MultiPoly.variable("y_2")
    with pytest.raises(PreconditionError, match=r"\(x_1, y_1\)"):
        torus_weight(x1 + y2)
    with pytest.raises(PreconditionError, match="x variables"):
        torus_weight(x1 + y1)
    with pytest.raises(PreconditionError):
        torus_weight(MultiPoly.zero())
    with pytest.raises(PreconditionError):
        torus_weight(MultiPoly.variable("z_1"))
    with pytest.raises(PreconditionError):
        torus_weight(MultiPoly.variable("x_4"), 3)


def test_divisor_classes_of_determinants():
    ctx = LatticeContext(2, 2, 3)
    bc = BlowupContext(2, 5)
    assert divisor_class_of(MultiPoly.variable("x_2"), 2) == \
        DivisorClass.exceptional(ctx, 2)
    # complement of I = {1, 2}: the line H - E_1 - E_2
    assert divisor_class_of(build_F((3, 4, 5), NP5), 2) == \
        DivisorClass(ctx, (1,), (1, 1, 0, 0, 0))
    assert divisor_class_of(build_F(tuple(range(1, 6)), NP5), 2) == \
        DivisorClass(ctx, (2,), (1, 1, 1, 1, 1))
    with pytest.raises(PreconditionError):
        divisor_class_of(MultiPoly.variable("x_1"), 1)
    classes = {divisor_class_of(build_F(idx, NP5), 2)
               for size in (1, 3, 5) for idx in combinations(range(1, 6), size)}
    assert len(classes) == 2 ** 4
    assert all(degree(d) == 1 for d in classes)
    expected = set(enumerate_minimal(bc)) | {
        DivisorClass.exceptional(ctx, i) for i in range(1, 6)}
    assert classes == expected

