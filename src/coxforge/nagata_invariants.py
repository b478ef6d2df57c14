"""Determinant invariants of the restricted additive group action
y_i -> y_i + (t_1 + t_2 a_i) x_i on C[x_1..x_r, y_1..y_r].

F_I is the determinant of the odd matrix whose top rows run the powers
a_i^j against x_i and whose bottom rows run them against y_i; the
substitution adds multiples of x-rows to the y-rows, so every F_I is an
invariant, an identity this module can verify with t_1, t_2 as genuine
polynomial variables.  The torus grading (joint (x_i, y_i)-degrees plus
the x/y bidegree) translates semiinvariants into divisor classes on the
blow-up of P^n at r = n+3 points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import random

from .errors import PreconditionError
from .jsonutil import decode_fraction, decode_int, encode_fraction
from .linalg import nullspace
from .multipoly import MultiPoly
from .picard_lattice import DivisorClass, LatticeContext


@dataclass(frozen=True)
class NagataParams:
    """r distinct rationals spanning the translation plane, r >= 5."""

    r: int
    params: tuple

    def __post_init__(self):
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 5:
            raise PreconditionError("r", f"need an integer r >= 5, got {self.r!r}")
        params = tuple(Fraction(v) for v in self.params)
        if len(params) != self.r:
            raise PreconditionError("params", f"expected {self.r} values, got {len(params)}")
        if len(set(params)) != len(params):
            raise PreconditionError("params", "parameters must be pairwise distinct")
        object.__setattr__(self, "params", params)

    @classmethod
    def default(cls, r: int) -> "NagataParams":
        return cls(r, tuple(range(1, r + 1)))

    @classmethod
    def random(cls, r: int, seed: int) -> "NagataParams":
        rng = random.Random(seed)
        chosen = set()
        while len(chosen) < r:
            chosen.add(Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
        return cls(r, tuple(sorted(chosen)))

    def to_json(self) -> dict:
        return {"r": self.r, "params": [encode_fraction(a) for a in self.params]}

    @classmethod
    def from_json(cls, obj) -> "NagataParams":
        if not isinstance(obj, dict):
            raise PreconditionError("params", f"expected an object, got {obj!r}")
        try:
            return cls(decode_int(obj["r"]),
                       tuple(decode_fraction(v) for v in obj["params"]))
        except KeyError as missing:
            raise PreconditionError("params", f"missing key {missing.args[0]!r}") from None


def _x(i: int) -> MultiPoly:
    return MultiPoly.variable(f"x_{i}")


def _y(i: int) -> MultiPoly:
    return MultiPoly.variable(f"y_{i}")


def build_F(index_set, np: NagataParams) -> MultiPoly:
    """The determinant invariant of an odd index set.

    Rows a_i^j x_i for j = 0..k and a_i^j y_i for j = 0..k-1, i running
    over the sorted indices; |I| = 2k+1.  Cofactor expansion along the
    first row with minors memoized by column tuple.

    >>> str(build_F((1,), NagataParams.default(5)))
    'x_1'
    """
    idx = sorted(set(index_set))
    if not idx or len(idx) % 2 == 0:
        raise PreconditionError("I", f"need an odd number of indices, got {len(idx)}")
    if idx[0] < 1 or idx[-1] > np.r:
        raise PreconditionError("I", f"indices must lie in 1..{np.r}")
    k = (len(idx) - 1) // 2

    entries = {}

    def entry(row: int, i: int, sign: int) -> MultiPoly:
        key = (row, i, sign)
        if key not in entries:
            a = np.params[i - 1]
            if row <= k:
                entries[key] = MultiPoly.monomial({f"x_{i}": 1}, sign * a ** row)
            else:
                entries[key] = MultiPoly.monomial({f"y_{i}": 1}, sign * a ** (row - k - 1))
        return entries[key]

    memo = {}

    def minor(row: int, cols: tuple) -> MultiPoly:
        if not cols:
            return MultiPoly.const(1)
        key = (row, cols)
        if key not in memo:
            # the cofactor sign rides on the one-term entry
            memo[key] = MultiPoly.sum(
                entry(row, i, -1 if pos % 2 else 1) * minor(row + 1, cols[:pos] + cols[pos + 1:])
                for pos, i in enumerate(cols))
        return memo[key]

    return minor(0, tuple(idx))


def _check_t_free(p: MultiPoly):
    if any(v in ("t_1", "t_2") for v in p.vars):
        raise PreconditionError("P", "polynomial must not involve t_1 or t_2")


def nagata_substitute(p: MultiPoly, np: NagataParams) -> MultiPoly:
    """Apply y_i -> y_i + (t_1 + t_2 a_i) x_i with formal t_1, t_2."""
    _check_t_free(p)
    t1, t2 = MultiPoly.variable("t_1"), MultiPoly.variable("t_2")
    mapping = {}
    for i, a in enumerate(np.params, start=1):
        mapping[f"y_{i}"] = _y(i) + (t1 + t2 * a) * _x(i)
    return p.substitute(mapping)


def is_invariant(p: MultiPoly, np: NagataParams) -> bool:
    """Exact invariance as a polynomial identity in t_1, t_2.

    >>> np5 = NagataParams.default(5)
    >>> is_invariant(build_F((1, 2, 3), np5), np5)
    True
    >>> is_invariant(MultiPoly.variable("y_1"), np5)
    False
    """
    _check_t_free(p)
    return (nagata_substitute(p, np) - p).is_zero()


def _var_index(name: str) -> int:
    return int(name.partition("_")[2])


def torus_weight(p: MultiPoly, r: int | None = None):
    """(w, deg_x, deg_y): joint (x_i, y_i)-degrees and the x/y bidegree.

    The weight vector has length r; omitted r defaults to the largest
    index occurring.  Raises when some pair or the bidegree fails to be
    homogeneous, naming the offender.
    """
    if p.is_zero():
        raise PreconditionError("P", "zero polynomial carries no torus weight")
    for v in p.vars:
        if not (v.startswith("x_") or v.startswith("y_")):
            raise PreconditionError("P", f"unexpected variable {v}")
    if r is None:
        r = max((_var_index(v) for v in p.vars), default=1)
    xpos = {_var_index(v): j for j, v in enumerate(p.vars) if v.startswith("x_")}
    ypos = {_var_index(v): j for j, v in enumerate(p.vars) if v.startswith("y_")}
    if xpos and max(xpos) > r or ypos and max(ypos) > r:
        raise PreconditionError("r", "variable index exceeds r")
    weights = []
    for i in range(1, r + 1):
        degs = {sum(e[j] for j in (xpos.get(i), ypos.get(i)) if j is not None)
                for e in p.terms}
        if len(degs) != 1:
            raise PreconditionError("P", f"not homogeneous in the pair (x_{i}, y_{i})")
        weights.append(degs.pop())
    xdegs = {sum(e[j] for j in xpos.values()) for e in p.terms}
    ydegs = {sum(e[j] for j in ypos.values()) for e in p.terms}
    if len(xdegs) != 1:
        raise PreconditionError("P", "not homogeneous in the x variables")
    if len(ydegs) != 1:
        raise PreconditionError("P", "not homogeneous in the y variables")
    return tuple(weights), xdegs.pop(), ydegs.pop()


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


def build_J(np: NagataParams, n: int) -> list:
    """The n+1 multilinear invariants sum_i c_i y_i prod_{j != i} x_j.

    The coefficient vectors form the canonical reduced-echelon basis of
    the plane sum c_i = 0, sum c_i a_i = 0.
    """
    if np.r != n + 3:
        raise PreconditionError("r", f"need r = n + 3 = {n + 3}, got {np.r}")
    basis = nullspace([[Fraction(1)] * np.r, list(np.params)], np.r)
    out = []
    for c in basis:
        terms = []
        for i, coef in enumerate(c, start=1):
            if not coef:
                continue
            term = MultiPoly.monomial({f"y_{i}": 1}, coef)
            for j in range(1, np.r + 1):
                if j != i:
                    term = term * _x(j)
            terms.append(term)
        out.append(MultiPoly.sum(terms))
    return out
