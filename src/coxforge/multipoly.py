"""Sparse multivariate polynomials with exact rational coefficients.

Terms are kept in a dict mapping exponent tuples to Fraction coefficients.
Every polynomial is normalized: zero coefficients are dropped and the
variable tuple is pruned to the variables that actually occur, in the
canonical order below, so structurally equal polynomials compare equal no
matter how they were assembled.  One normalizer, `MultiPoly._normalize`,
does that.  The public constructor first validates (distinct variable
names, rational coefficients, every exponent tuple, zero terms included)
and sorts the variables; internal operations, whose operands are already
normalized, go straight to it through `MultiPoly._trusted`, and sums of
many polynomials go through one dict (`MultiPoly.sum`).

Canonical variable order: homogeneous coordinates z_0 > z_1 > .., then
chart coordinates u_1 > .., the curve parameter s, then x_1 > .., y_1 > ..,
t_1 > t_2.  Term order is graded lexicographic (total degree first, then
lex on the exponent tuple), descending, so the leading monomial of
z_0 z_2 - z_1^2 is z_0 z_2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .errors import PreconditionError
from .jsonutil import encode_fraction

_FAMILY_ORDER = {"z": 0, "u": 1, "s": 2, "x": 3, "y": 4, "t": 5}


@lru_cache(maxsize=4096)
def var_key(name: str):
    head, _, tail = name.partition("_")
    fam = _FAMILY_ORDER.get(head, len(_FAMILY_ORDER))
    idx = int(tail) if tail.isdigit() else 0
    return (fam, idx, name)


def _coerce_coef(v, field: str = "coef") -> Fraction:
    """The package's one rule for an exact rational input: an int (not a
    bool) or a Fraction, else PreconditionError naming `field`."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise PreconditionError(field, f"values must be rational (int or Fraction), got {v!r}")


def _union(polys) -> tuple:
    """The variables of all `polys`, in canonical order."""
    return tuple(sorted(set().union(*(p.vars for p in polys)), key=var_key))


def _lift(poly: "MultiPoly", variables: tuple) -> dict:
    """The terms of `poly` keyed over `variables`, a canonical superset of its own."""
    if poly.vars == variables:
        return poly.terms
    slots = [variables.index(name) for name in poly.vars]
    out = {}
    for exps, coef in poly.terms.items():
        key = [0] * len(variables)
        for slot, e in zip(slots, exps):
            key[slot] = e
        out[tuple(key)] = coef
    return out


class MultiPoly:
    """Immutable sparse polynomial; all arithmetic returns new objects."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PreconditionError("vars", f"variable names must be distinct: {variables}")
        order = sorted(range(len(variables)), key=lambda i: var_key(variables[i]))
        raw = {}
        for exps, coef in (terms or {}).items():
            coef = _coerce_coef(coef)
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise PreconditionError("terms", "exponent tuple length != variable count")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise PreconditionError("terms", f"exponents must be nonnegative integers: {exps}")
            key = tuple(exps[i] for i in order)
            raw[key] = raw[key] + coef if key in raw else coef
        self._normalize(tuple(variables[i] for i in order), raw)

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """`terms` keyed over `variables` in canonical order with Fraction
        coefficients, normalized with no re-validation or re-sorting."""
        poly = object.__new__(cls)
        poly._normalize(variables, terms)
        return poly

    def _normalize(self, variables: tuple, terms: dict):
        """The one normalizer: drop zero coefficients and unused variables."""
        terms = {e: c for e, c in terms.items() if c}
        used = [i for i, column in enumerate(zip(*terms)) if any(column)]
        if len(used) < len(variables):
            variables = tuple(variables[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._trusted((), {})

    @classmethod
    def const(cls, v) -> "MultiPoly":
        return cls._trusted((), {(): _coerce_coef(v)})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): Fraction(1)})

    # -- ring structure ----------------------------------------------------

    @classmethod
    def sum(cls, polys) -> "MultiPoly":
        """The sum of an iterable of polynomials, accumulated in one dict and
        normalized once; repeated `+` would rebuild the partial sum per term."""
        polys = list(polys)
        return cls._sum(_union(polys), polys)

    @classmethod
    def _sum(cls, variables: tuple, polys) -> "MultiPoly":
        # `variables` (canonical order) must cover every operand's variables
        out = {}
        for poly in polys:
            for exps, coef in _lift(poly, variables).items():
                if exps in out:
                    out[exps] += coef
                else:
                    out[exps] = coef
        return cls._trusted(variables, out)

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        variables = _union((self, other))
        return variables, _lift(self, variables), _lift(other, variables)

    @staticmethod
    def _coerce(other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        variables, left, right = self._aligned(other)
        out = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                key = tuple(map(add, e1, e2))
                if key in out:
                    out[key] += c1 * c2
                else:
                    out[key] = c1 * c2
        return MultiPoly._trusted(variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("exponent", f"need a nonnegative integer, got {n!r}")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus and substitution ------------------------------------------

    def deriv(self, name: str) -> "MultiPoly":
        """Partial derivative; zero if the variable does not occur."""
        if name not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(name)
        # lowering exponent i is injective on the terms it keeps
        out = {exps[:i] + (exps[i] - 1,) + exps[i + 1:]: coef * exps[i]
               for exps, coef in self.terms.items() if exps[i]}
        return MultiPoly._trusted(self.vars, out)

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Replace variables by polynomials or constants, expanding exactly.

        Variables absent from the mapping survive unchanged.
        """
        images = {}
        for name, img in mapping.items():
            img = self._coerce(img)
            if img is None:
                raise PreconditionError("mapping", f"cannot substitute {mapping[name]!r}")
            images[name] = img
        bases = [images[name] if name in images else MultiPoly.variable(name)
                 for name in self.vars]
        powers = {}  # (variable index, exponent) -> base ** exponent, raised once

        def products():
            for exps, coef in self.terms.items():
                prod = MultiPoly.const(coef)
                for i, e in enumerate(exps):
                    if e:
                        power = powers.get((i, e))
                        if power is None:
                            power = powers[i, e] = bases[i] ** e
                        prod = prod * power
                yield prod

        return MultiPoly._sum(_union(bases), products())

    # -- inspection ----------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order as (exps, coef) pairs."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    # -- io -------------------------------------------------------------------

    def to_json(self) -> list:
        out = []
        for exps, coef in self.sorted_terms():
            out.append({"coef": encode_fraction(coef),
                        "exps": {n: e for n, e in zip(self.vars, exps) if e}})
        return out

    def __repr__(self):
        return f"MultiPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exps, coef in self.sorted_terms():
            factors = [f"{n}^{e}" if e > 1 else n
                       for n, e in zip(self.vars, exps) if e]
            mag = abs(coef)
            body = "*".join(factors) if factors else str(mag)
            if factors and mag != 1:
                body = f"{mag}*{body}"
            sign = "-" if coef < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text
