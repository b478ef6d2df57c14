"""Determinant invariants of the restricted additive group action
y_i -> y_i + (t_1 + t_2 a_i) x_i on C[x_1..x_r, y_1..y_r].

F_I is the determinant of the odd matrix whose top rows run the powers
a_i^j against x_i and whose bottom rows run them against y_i; the
substitution adds multiples of x-rows to the y-rows, so every F_I is an
invariant.  Laplace expansion along the k+1 x-rows (|I| = 2k+1) writes it
in closed form, one term per (k+1)-subset S of I:

    F_I = sum_S eps(S) V(a_S) V(a_{I-S}) prod_{i in S} x_i prod_{i in I-S} y_i,

V the Vandermonde product prod_{u<v} (a_v - a_u) and eps(S) =
(-1)^(sum of the 0-based positions of S in I + k(k+1)/2).  Invariance is
decided by the two commuting locally nilpotent derivations
D_1 = sum x_i d/dy_i and D_2 = sum a_i x_i d/dy_i whose exponential is
the action, with t_1 and t_2 as formal parameters; `is_invariant` applies
both to p scaled to integer coefficients, on Python ints, in one pass over
its terms.  The torus grading (joint (x_i, y_i)-degrees plus the x/y
bidegree, each term graded once) translates semiinvariants into divisor
classes on the blow-up of P^n at r = n+3 points.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm, prod
from operator import mul

from .blowup_divisors import curve_params, random_params
from .budget import effective_cap
from .errors import CapExceeded, PreconditionError
from .jsonutil import encode_fraction
from .multipoly import MultiPoly
from .picard_lattice import DivisorClass, LatticeContext


@dataclass(frozen=True)
class NagataParams:
    """r distinct rationals spanning the translation plane, r >= 5: the
    parameters of `PointConfig` read as weights, under the same rule."""

    r: int
    params: tuple

    def __post_init__(self):
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 5:
            raise PreconditionError("r", f"need an integer r >= 5, got {self.r!r}")
        object.__setattr__(self, "params", curve_params(self.r, self.params))

    @classmethod
    def default(cls, r: int) -> "NagataParams":
        return cls(r, tuple(range(1, r + 1)))

    @classmethod
    def random(cls, r: int, seed: int) -> "NagataParams":
        return cls(r, random_params(r, seed))

    def to_json(self) -> dict:
        return {"r": self.r, "params": [encode_fraction(a) for a in self.params]}


def _odd_index_set(index_set, np: NagataParams) -> list:
    """The sorted distinct indices of an odd index set within 1..r."""
    idx = sorted(set(index_set))
    if not idx or len(idx) % 2 == 0:
        raise PreconditionError("I", f"need an odd number of indices, got {len(idx)}")
    if idx[0] < 1 or idx[-1] > np.r:
        raise PreconditionError("I", f"indices must lie in 1..{np.r}")
    return idx


def odd_index_sets(r: int):
    """Every odd index set within 1..r, by size, then lexicographically."""
    for size in range(1, r + 1, 2):
        yield from combinations(range(1, r + 1), size)


def build_F(index_set, np: NagataParams, cap: int | None = None) -> MultiPoly:
    """The determinant invariant of an odd index set.

    Rows a_i^j x_i for j = 0..k and a_i^j y_i for j = 0..k-1, i running
    over the sorted indices; |I| = 2k+1.  Laplace expansion along the k+1
    x-rows gives one term per (k+1)-subset S of I:

        F_I = sum_S eps(S) V(a_S) V(a_{I-S}) prod_{i in S} x_i prod_{i in I-S} y_i

    where V(a_T) = prod_{u < v in T} (a_v - a_u) is the Vandermonde
    determinant of the minor and eps(S) = (-1)^(p(S) + k(k+1)/2), p(S)
    being the sum of the 0-based positions of S in I.  Distinct S give
    distinct monomials, so there is nothing to collect.  Raises
    CapExceeded("determinant terms") before any work when the
    C(2k+1, k+1) terms exceed the cap (`effective_cap(cap)`).

    >>> str(build_F((1,), NagataParams.default(5)))
    'x_1'
    """
    idx = _odd_index_set(index_set, np)
    k = (len(idx) - 1) // 2
    cap = effective_cap(cap)
    if comb(2 * k + 1, k + 1) > cap:
        raise CapExceeded("determinant terms", cap)
    scale = lcm(*(np.params[i - 1].denominator for i in idx))
    a = [int(np.params[i - 1] * scale) for i in idx]  # a_i * scale, integers
    denominator = scale ** (k * k)  # V(a_S) V(a_{I-S}) has k^2 factors

    def vandermonde(positions) -> int:
        return prod(a[v] - a[u] for u, v in combinations(positions, 2))

    terms = {}
    for s in combinations(range(len(idx)), k + 1):
        mask = [0] * len(idx)
        for p in s:
            mask[p] = 1
        rest = [p for p, b in enumerate(mask) if not b]
        sign = -1 if (sum(s) + k * (k + 1) // 2) % 2 else 1
        terms[tuple(mask) + tuple(1 - b for b in mask)] = Fraction(
            sign * vandermonde(s) * vandermonde(rest), denominator)
    variables = tuple(f"x_{i}" for i in idx) + tuple(f"y_{i}" for i in idx)
    return MultiPoly._trusted(variables, terms)


def _check_t_free(p: MultiPoly):
    if any(v in ("t_1", "t_2") for v in p.vars):
        raise PreconditionError("P", "polynomial must not involve t_1 or t_2")


def is_invariant(p: MultiPoly, np: NagataParams) -> bool:
    """Exact invariance under the action y_i -> y_i + (t_1 + t_2 a_i) x_i,
    t_1 and t_2 formal.

    This substitution sigma is exp(t_1 D_1 + t_2 D_2) for the derivations
    D_1 = sum_i x_i d/dy_i and D_2 = sum_i a_i x_i d/dy_i, i = 1..r: both
    kill every x_i, send y_i to x_i and a_i x_i, and so commute and are
    locally nilpotent.  The t_1 and t_2 coefficients of sigma(p) - p are
    D_1 p and D_2 p, so an invariant has D_1 p = D_2 p = 0; conversely
    then (t_1 D_1 + t_2 D_2) p = 0 and the exponential series over Q
    fixes p.  Variables other than y_1..y_r (including y_j with j > r) are
    constants for them.

    Both are computed on integers, in one pass over the terms of p.  Let s
    be the lcm of the denominators of p's coefficients and L that of the
    a_i of p's y variables.  Then s p has integer coefficients and
    L D_2 = sum_i (L a_i) x_i d/dy_i integer weights, so s D_1 p = D_1(s p)
    and s L D_2 p = (L D_2)(s p) accumulate Python ints; as s, L > 0,
    s D_1 p = 0 iff D_1 p = 0 and s L D_2 p = 0 iff D_2 p = 0.  A monomial
    is keyed by its exponents read as the digits of one integer in a base
    above every exponent a derivation can reach, so a derived monomial's
    key is its term's key plus a fixed shift per y_i.

    >>> np5 = NagataParams.default(5)
    >>> is_invariant(build_F((1, 2, 3), np5), np5)
    True
    >>> is_invariant(MultiPoly.variable("y_1"), np5)
    False
    """
    _check_t_free(p)
    ys = {f"y_{i}": i for i in range(1, np.r + 1)}
    variables = list(p.vars)  # p's variables, then any x_i it lacks
    slots = []  # (slot of y_i, slot of x_i, a_i) for each y_i of p
    for j, name in enumerate(p.vars):
        if name in ys:
            x = f"x_{ys[name]}"
            if x not in variables:
                variables.append(x)
            slots.append((j, variables.index(x), np.params[ys[name] - 1]))
    if not slots:
        return True
    terms = list(p.terms.items())  # the one pass over the terms of p
    s = lcm(*(c.denominator for _, c in terms))
    scale = lcm(*(a.denominator for _, _, a in slots))  # L
    # an exponent after one derivation is at most the largest one plus 1
    base = max(max(e) for e, _ in terms) + 2
    digits = [base ** j for j in range(len(variables))]
    shifted = [(j, digits[xj] - digits[j], a.numerator * (scale // a.denominator))
               for j, xj, a in slots]
    d1, d2 = defaultdict(int), defaultdict(int)
    for exps, coef in terms:
        c = coef.numerator * (s // coef.denominator)
        key = sum(map(mul, exps, digits))
        for j, shift, a in shifted:
            e = exps[j]
            if e:
                ec = e * c
                d1[key + shift] += ec
                d2[key + shift] += a * ec
    return not any(d1.values()) and not any(d2.values())


def _var_index(name: str) -> int:
    return int(name.partition("_")[2])


def torus_weight(p: MultiPoly, r: int | None = None):
    """(w, deg_x, deg_y): joint (x_i, y_i)-degrees and the x/y bidegree.

    The weight vector has length r; omitted r defaults to the largest
    index occurring.  Raises when some pair or the bidegree fails to be
    homogeneous, naming the offender: the lowest such pair first, then the
    x variables, then the y variables.  Each term is graded once; only the
    distinct grades are compared.
    """
    if p.is_zero():
        raise PreconditionError("P", "zero polynomial carries no torus weight")
    for v in p.vars:
        if not (v.startswith("x_") or v.startswith("y_")):
            raise PreconditionError("P", f"unexpected variable {v}")
    index = [_var_index(v) for v in p.vars]
    if r is None:
        r = max(index, default=1)
    if max(index, default=0) > r:
        raise PreconditionError("r", "variable index exceeds r")
    nx = sum(v.startswith("x_") for v in p.vars)  # x_i sort before y_i
    pairs = [(j, i - 1) for j, i in enumerate(index) if i > 0]  # x_0 is in no pair
    grades = set()
    for exps in p.terms:  # the one pass over the terms of p
        w = [0] * r
        for j, i in pairs:
            w[i] += exps[j]
        grades.add((tuple(w), sum(exps[:nx]), sum(exps[nx:])))
    if len(grades) > 1:
        weights, xdegs, _ = zip(*grades)
        for i in range(r):
            if len({w[i] for w in weights}) > 1:
                raise PreconditionError("P", f"not homogeneous in the pair (x_{i + 1}, y_{i + 1})")
        raise PreconditionError("P", "not homogeneous in the "
                                + ("x" if len(set(xdegs)) > 1 else "y") + " variables")
    return grades.pop()


def divisor_class_of(p: MultiPoly, n: int) -> DivisorClass:
    """Divisor class of a semiinvariant on the blow-up of P^n at n+3 points.

    d is the y-degree an m_i = d - w_i; the x-degree must come out as
    (n+2)d - sum m_i or the input was not an invariant of the expected
    shape.

    >>> divisor_class_of(MultiPoly.variable("x_2"), 2).m
    (0, -1, 0, 0, 0)
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise PreconditionError("n", f"need an integer n >= 2, got {n!r}")
    r = n + 3
    w, deg_x, deg_y = torus_weight(p, r)
    d = deg_y
    m = tuple(d - wi for wi in w)
    if deg_x != (n + 2) * d - sum(m):
        raise PreconditionError(
            "P", f"grading mismatch: deg_x = {deg_x}, expected {(n + 2) * d - sum(m)}")
    return DivisorClass(LatticeContext(2, 2, n + 1), (d,), m)
