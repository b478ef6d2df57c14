"""Sparse polynomial arithmetic against sympy as the independent oracle."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coxforge.errors import PreconditionError
from coxforge.multipoly import MultiPoly, var_key

X0, X1, Y1 = (MultiPoly.variable(v) for v in ("x_0", "x_1", "y_1"))


def random_poly(rng, names, max_terms=6, max_exp=4, max_coef=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {v: rng.randint(0, max_exp) for v in names}
        coef = Fraction(rng.randint(-max_coef, max_coef), rng.randint(1, 4))
        key = tuple(exps[v] for v in names)
        terms[key] = terms.get(key, 0) + coef
    return MultiPoly(tuple(names), terms)


def evaluate(p, values):
    """p at the rational point `values`, term by term."""
    out = Fraction(0)
    for exps, coef in p.terms.items():
        term = coef
        for name, e in zip(p.vars, exps):
            term *= Fraction(values[name]) ** e
        out += term
    return out


def to_sympy(p):
    syms = {v: sympy.Symbol(v) for v in p.vars}
    expr = sympy.Integer(0)
    for exps, coef in p.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for v, e in zip(p.vars, exps):
            term *= syms[v] ** e
        expr += term
    return sympy.expand(expr)


def test_var_key_orders_families_then_indices():
    names = ["y_2", "x_10", "z_0", "x_2", "z_11", "u_1"]
    assert sorted(names, key=var_key) == ["z_0", "z_11", "u_1", "x_2", "x_10", "y_2"]


def test_zero_terms_are_dropped_and_vars_pruned():
    p = MultiPoly(("x_0", "x_1"), {(1, 0): Fraction(1), (0, 2): Fraction(0)})
    assert p.vars == ("x_0",)
    assert p == X0


def test_repeated_variable_names_are_refused():
    # one variable keyed twice makes sums and equality go wrong: x_1 * x_1
    # over ("x_1", "x_1") plus x_1^2 would print as x_1^2 + x_1
    with pytest.raises(PreconditionError) as err:
        MultiPoly(("x_1", "x_1"), {(1, 1): 1})
    assert err.value.field == "vars"


def test_exponents_are_checked_on_zero_terms_too():
    for terms in ({(1, 2): 0}, {(-1,): 0}, {(1,): 1, (Fraction(1, 2),): 0}):
        with pytest.raises(PreconditionError) as err:
            MultiPoly(("x_1",), terms)
        assert err.value.field == "terms"


def test_constructor_coerces_int_coefficients():
    p = MultiPoly(("x_0",), {(2,): 3})
    assert p.terms[(2,)] == Fraction(3)


def test_immutable():
    with pytest.raises(AttributeError):
        X0.vars = ()


def test_arithmetic_matches_sympy_on_random_inputs():
    rng = random.Random(41)
    names = ("x_0", "x_1", "y_1")
    for _ in range(120):
        p = random_poly(rng, names)
        q = random_poly(rng, names)
        assert to_sympy(p + q) == to_sympy(p) + to_sympy(q)
        assert to_sympy(p - q) == to_sympy(p) - to_sympy(q)
        assert to_sympy(p * q) == sympy.expand(to_sympy(p) * to_sympy(q))


def test_pow_matches_repeated_multiplication():
    rng = random.Random(42)
    p = random_poly(rng, ("x_0", "x_1"), max_terms=3, max_exp=2)
    assert p ** 0 == MultiPoly.const(1)
    assert p ** 3 == p * p * p


def test_pow_multiplies_once_per_set_bit_and_per_squaring(monkeypatch):
    # square-and-multiply: popcount(e) products into the result and
    # bit_length(e) - 1 squarings, none after the last bit
    p = X0 + 2 * X1 - Y1
    powers = [MultiPoly.const(1)]
    for _ in range(12):
        powers.append(powers[-1] * p)
    calls = []
    plain_mul = MultiPoly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return plain_mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    counts = {}
    for e in range(1, 13):
        calls.clear()
        assert p ** e == powers[e]
        counts[e] = len(calls)
    assert all(counts[e] == bin(e).count("1") + e.bit_length() - 1 for e in counts)
    assert (counts[1], counts[2], counts[5]) == (1, 2, 4)


def test_scalar_operations():
    assert 2 * X0 == X0 + X0
    assert X0 * Fraction(1, 2) + X0 * Fraction(1, 2) == X0
    assert 1 - X0 == MultiPoly.const(1) - X0


def test_deriv_matches_sympy():
    rng = random.Random(43)
    names = ("x_0", "x_1")
    for _ in range(40):
        p = random_poly(rng, names)
        for v in names:
            assert to_sympy(p.deriv(v)) == sympy.diff(to_sympy(p), sympy.Symbol(v))


def test_deriv_of_absent_variable_is_zero():
    assert X0.deriv("y_1").is_zero()


def test_substitute_matches_sympy():
    rng = random.Random(44)
    names = ("x_0", "x_1", "y_1")
    for _ in range(30):
        p = random_poly(rng, names, max_exp=3)
        image = random_poly(rng, ("x_0", "y_1"), max_terms=3, max_exp=2)
        got = p.substitute({"x_1": image})
        want = to_sympy(p).subs(sympy.Symbol("x_1"), to_sympy(image))
        assert to_sympy(got) == sympy.expand(want)



def test_substitute_raises_each_power_once(monkeypatch):
    # five distinct (variable, exponent) pairs over five terms that use eight
    x1 = MultiPoly.variable("x_1")
    p = X0 ** 2 * Y1 + 3 * X0 ** 2 - X0 * Y1 ** 2 + X0 ** 2 * Y1 ** 2 + x1 ** 3
    mapping = {"x_0": X0 + 2 * Y1, "y_1": Fraction(1, 2) - x1}
    want = to_sympy(p).subs({sympy.Symbol(v): to_sympy(MultiPoly.const(0) + img)
                             for v, img in mapping.items()}, simultaneous=True)
    calls = []
    plain_pow = MultiPoly.__pow__

    def counting_pow(self, e):
        calls.append(e)
        return plain_pow(self, e)

    monkeypatch.setattr(MultiPoly, "__pow__", counting_pow)
    got = p.substitute(mapping)
    assert sorted(calls) == [1, 1, 2, 2, 3]
    assert to_sympy(got) == sympy.expand(want)

def test_substitute_leaves_other_variables_alone():
    p = X0 * Y1
    assert p.substitute({"x_1": MultiPoly.const(5)}) == p


def test_json_terms_are_sorted_and_deterministic():
    p = X1 + X0 ** 2
    assert p.to_json() == (X0 ** 2 + X1).to_json()


def test_str_examples():
    assert str(MultiPoly.zero()) == "0"
    f = MultiPoly.variable("z_0") * MultiPoly.variable("z_2") \
        - MultiPoly.variable("z_1") ** 2
    assert str(f) == "z_0*z_2 - z_1^2"


# -- results of internal operations are normalized like public constructions --

def assert_normalized(p):
    rebuilt = MultiPoly(p.vars, p.terms)
    assert p == rebuilt
    assert p.vars == rebuilt.vars
    assert hash(p) == hash(rebuilt)
    assert all(type(c) is Fraction for c in p.terms.values())


def test_cancellation_in_a_sum_prunes_the_variable():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    p = x + y - y
    assert p.vars == ("x",)
    assert_normalized(p)


def test_difference_with_itself_is_the_zero_polynomial():
    p = X0 ** 2 * Y1 - Fraction(3, 2) * X1 + 4
    diff = p - p
    assert diff.is_zero() and diff.vars == ()
    assert_normalized(diff)


def test_products_with_zero_and_constants():
    p = X0 * Y1 - Fraction(1, 3) * X1
    for zero in (p * 0, 0 * p, p * MultiPoly.zero()):
        assert zero.is_zero() and zero.vars == ()
        assert_normalized(zero)
    for scaled in (p * 3, Fraction(-2, 5) * p, p * MultiPoly.const(7)):
        assert scaled.vars == p.vars
        assert_normalized(scaled)
    assert_normalized(MultiPoly.const(5) * MultiPoly.const(Fraction(1, 5)))


def test_deriv_down_to_a_constant():
    p = X0 ** 2 * Y1 + X1
    const = p.deriv("x_0").deriv("x_0").deriv("y_1")
    assert const == MultiPoly.const(2) and const.vars == ()
    assert_normalized(const)
    assert_normalized(p.deriv("x_0"))


def test_substitute_that_removes_variables():
    p = X0 * X1 + Y1 ** 2
    got = p.substitute({"x_1": 0, "y_1": X0})
    assert got == X0 ** 2 and got.vars == ("x_0",)
    assert_normalized(got)
    gone = p.substitute({"x_0": MultiPoly.const(2), "x_1": Fraction(1, 2), "y_1": -1})
    assert gone == MultiPoly.const(2) and gone.vars == ()
    assert_normalized(gone)


def test_sum_accumulates_once_over_all_variables():
    parts = [X0, -X0, Y1 * X1, MultiPoly.const(3), MultiPoly.zero()]
    total = MultiPoly.sum(parts)
    assert total == Y1 * X1 + 3
    assert_normalized(total)
    assert MultiPoly.sum([]) == MultiPoly.zero()


# names from every variable family, in no particular order
MIXED_NAMES = ("y_3", "t_2", "x_10", "s", "z_2", "u_1", "x_1", "z_0", "t_1")
MIXED_VALUES = {name: Fraction(i + 2, i % 3 + 1) * (-1) ** i
                for i, name in enumerate(MIXED_NAMES)}


@st.composite
def mixed_polys(draw, max_terms=5):
    names = tuple(draw(st.lists(st.sampled_from(MIXED_NAMES), max_size=4, unique=True)))
    exps = st.tuples(*(st.integers(0, 3) for _ in names))
    coefs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    return MultiPoly(names, draw(st.dictionaries(exps, coefs, max_size=max_terms)))


@settings(max_examples=150, deadline=None)
@given(mixed_polys(), mixed_polys(), st.sampled_from(MIXED_NAMES))
def test_ring_operations_match_a_public_rebuild(p, q, name):
    at = MIXED_VALUES
    total, prod = p + q, p * q
    assert_normalized(total)
    assert_normalized(prod)
    assert_normalized(p - q)
    assert evaluate(total, at) == evaluate(p, at) + evaluate(q, at)
    assert evaluate(prod, at) == evaluate(p, at) * evaluate(q, at)
    image = p.substitute({name: q})
    assert_normalized(image)
    assert evaluate(image, at) == evaluate(p, {**at, name: evaluate(q, at)})
