"""Picard lattices of point blow-ups of products of projective spaces.

A context (a, b, c) describes the variety X obtained from (P^{c-1})^{a-1}
by blowing up r = b + c points.  Pic(X) is free abelian of rank a + r - 1
with basis H_1..H_{a-1} (pullbacks of the hyperplane classes of the
factors) and E_1..E_r (exceptional divisors), and carries the symmetric
pairing

    (H_i, H_j) = (c - 1) - delta_ij     (H_i, E_j) = 0
    (E_i, E_j) = -delta_ij.

The canonical class K = -c(H_1 + .. + H_{a-1}) + kappa(E_1 + .. + E_r),
kappa = ac - a - c, spans the line fixed by every lattice reflection, and
deg D = (D, -K) / kappa is the degree normalized so that deg E_r = 1.

Divisor classes are stored as D = sum_i d_i H_i - sum_j m_j E_j: the `m`
tuple holds the multiplicities m_j with that sign, so the exceptional
divisor E_j itself is stored with m_j = -1.

Curve classes live in the dual lattice spanned by l_1..l_{a-1} (lines in
the factors) and e_1..e_r (lines inside the exceptional divisors), with

    H_i . l_j = delta_ij    E_i . e_j = -delta_ij
    H_i . e_j = 0           E_i . l_j = 0

(e_j meets E_j in degree -1 because the normal bundle of the blown-up point
restricts to O(-1) on a line of E_j).  Consequently D . l_i = d_i and
D . (l_1 + .. + l_{a-1} - e_j) = d_1 + .. + d_{a-1} - m_j, the quantities
every effectivity argument below is phrased in.

Both kinds of class are flat integer vectors of length a - 1 + r: `coords()`
joins h + m (or l + e), `from_coords` splits one back, and their shared
arithmetic is written once on that vector.  There D . g is the plain dot
product, so the orbit, membership and decomposition searches run on
coordinate tuples and build classes for their answers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .jsonutil import encode_int


@dataclass(frozen=True, order=True)
class LatticeContext:
    """Blow-up of (P^{c-1})^{a-1} in r = b + c points.

    a >= 2 and c >= 2 always; a = c = 2 is excluded because it makes
    kappa = ac - a - c vanish and the degree normalization collapse.

    >>> LatticeContext(2, 2, 3).rank
    6
    >>> LatticeContext(2, 2, 3).kappa
    1
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise PreconditionError(name, f"must be an integer, got {v!r}")
        if self.a < 2:
            raise PreconditionError("a", f"need a >= 2, got {self.a}")
        if self.b < 1:
            raise PreconditionError("b", f"need b >= 1, got {self.b}")
        if self.c < 2:
            raise PreconditionError("c", f"need c >= 2, got {self.c}")
        if self.a == 2 and self.c == 2:
            raise PreconditionError("c", "a = c = 2 has kappa = 0 and is excluded")

    @property
    def r(self) -> int:
        return self.b + self.c

    @property
    def rank(self) -> int:
        return self.a + self.r - 1

    @property
    def kappa(self) -> int:
        return self.a * self.c - self.a - self.c

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c}


def _check_coords(name: str, coords, length: int) -> tuple:
    coords = tuple(coords)
    if len(coords) != length:
        raise PreconditionError(name, f"expected {length} coordinates, got {len(coords)}")
    for v in coords:
        if not isinstance(v, int) or isinstance(v, bool):
            raise PreconditionError(name, f"coordinates must be integers, got {v!r}")
    return coords


class _LatticeVector:
    """Checks and arithmetic shared by divisor and curve classes, on the flat
    vector `coords()`; `_parts` names the two stored coordinate fields and
    `_kind` the classes in the cross-context error."""

    _parts = ()
    _kind = ""

    def __post_init__(self):
        first, second = self._parts
        ctx = self.ctx
        object.__setattr__(self, first, _check_coords(first, getattr(self, first), ctx.a - 1))
        object.__setattr__(self, second, _check_coords(second, getattr(self, second), ctx.r))

    def coords(self) -> tuple:
        first, second = self._parts
        return getattr(self, first) + getattr(self, second)

    @classmethod
    def from_coords(cls, ctx: LatticeContext, x):
        """The class of `ctx` whose flat coordinate vector is x."""
        k = ctx.a - 1
        return cls(ctx, x[:k], x[k:])

    @classmethod
    def _unit(cls, ctx: LatticeContext, pos: int, value: int):
        # value times the basis vector at flat position pos
        x = [0] * ctx.rank
        x[pos] = value
        return cls.from_coords(ctx, x)

    def _same_ctx(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.ctx != other.ctx:
            raise PreconditionError("ctx", f"{self._kind} live in different contexts")

    def __add__(self, other):
        self._same_ctx(other)
        pairs = zip(self.coords(), other.coords())
        return self.from_coords(self.ctx, tuple(x + y for x, y in pairs))

    def __sub__(self, other):
        self._same_ctx(other)
        pairs = zip(self.coords(), other.coords())
        return self.from_coords(self.ctx, tuple(x - y for x, y in pairs))

    def __neg__(self):
        return self.from_coords(self.ctx, tuple(-x for x in self.coords()))

    def __mul__(self, k: int):
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        return self.from_coords(self.ctx, tuple(k * x for x in self.coords()))

    __rmul__ = __mul__

    def sort_key(self):
        first, second = self._parts
        return (getattr(self, first), getattr(self, second))


@dataclass(frozen=True)
class DivisorClass(_LatticeVector):
    """Integer divisor class D = sum d_i H_i - sum m_j E_j.

    `h` holds (d_1..d_{a-1}) and `m` holds (m_1..m_r); note the sign of m.

    >>> ctx = LatticeContext(2, 2, 3)
    >>> D = DivisorClass(ctx, (2,), (1, 1, 1, 1, 1))
    >>> D - DivisorClass.exceptional(ctx, 1)
    DivisorClass(ctx=LatticeContext(a=2, b=2, c=3), h=(2,), m=(2, 1, 1, 1, 1))
    """

    _parts = ("h", "m")
    _kind = "divisor classes"

    ctx: LatticeContext
    h: tuple
    m: tuple

    @classmethod
    def zero(cls, ctx: LatticeContext) -> "DivisorClass":
        return cls(ctx, (0,) * (ctx.a - 1), (0,) * ctx.r)

    @classmethod
    def hyperplane(cls, ctx: LatticeContext, i: int = 1) -> "DivisorClass":
        """H_i, 1-based."""
        if not 1 <= i <= ctx.a - 1:
            raise PreconditionError("i", f"hyperplane index out of range 1..{ctx.a - 1}")
        return cls._unit(ctx, i - 1, 1)

    @classmethod
    def exceptional(cls, ctx: LatticeContext, j: int) -> "DivisorClass":
        """E_j, 1-based; stored with m_j = -1."""
        if not 1 <= j <= ctx.r:
            raise PreconditionError("j", f"exceptional index out of range 1..{ctx.r}")
        return cls._unit(ctx, (ctx.a - 1) + (j - 1), -1)

    def is_zero(self) -> bool:
        return not any(self.h) and not any(self.m)

    def to_json(self) -> dict:
        return {"ctx": self.ctx.to_json(),
                "h": [encode_int(v) for v in self.h],
                "m": [encode_int(v) for v in self.m]}


@dataclass(frozen=True)
class CurveClass(_LatticeVector):
    """Integer curve class g = sum lambda_i l_i + sum mu_j e_j."""

    _parts = ("l", "e")
    _kind = "curve classes"

    ctx: LatticeContext
    l: tuple
    e: tuple

    @classmethod
    def line(cls, ctx: LatticeContext, i: int = 1) -> "CurveClass":
        """l_i, 1-based."""
        if not 1 <= i <= ctx.a - 1:
            raise PreconditionError("i", f"line index out of range 1..{ctx.a - 1}")
        return cls._unit(ctx, i - 1, 1)

    @classmethod
    def exceptional_line(cls, ctx: LatticeContext, j: int) -> "CurveClass":
        """e_j, 1-based."""
        if not 1 <= j <= ctx.r:
            raise PreconditionError("j", f"index out of range 1..{ctx.r}")
        return cls._unit(ctx, (ctx.a - 1) + (j - 1), 1)

    def to_json(self) -> dict:
        return {"l": [encode_int(v) for v in self.l],
                "e": [encode_int(v) for v in self.e]}


def pairing_coords(ctx: LatticeContext, h1, m1, h2, m2):
    """Pairing of sum p_i H_i - sum q_j E_j vectors given by raw coordinates.

    Works over any commutative coefficients (int or Fraction) and needs no
    DivisorClass, whose constructor insists on int coordinates.
    """
    sh1, sh2 = sum(h1), sum(h2)
    return ((ctx.c - 1) * sh1 * sh2
            - sum(x * y for x, y in zip(h1, h2))
            - sum(x * y for x, y in zip(m1, m2)))


def pairing(d1: DivisorClass, d2: DivisorClass) -> int:
    """The lattice pairing (D_1, D_2).

    >>> ctx = LatticeContext(2, 2, 3)
    >>> mk = anticanonical(ctx)
    >>> pairing(mk, mk)
    4
    """
    if d1.ctx != d2.ctx:
        raise PreconditionError("ctx", "divisor classes live in different contexts")
    return pairing_coords(d1.ctx, d1.h, d1.m, d2.h, d2.m)


def intersect(d: DivisorClass, g: CurveClass) -> int:
    """Divisor-curve intersection number D . g.

    With D = sum d_i H_i - sum m_j E_j and g = sum lambda_i l_i + sum mu_j e_j
    this is sum d_i lambda_i + sum m_j mu_j, i.e. D . e_j = m_j.
    """
    if d.ctx != g.ctx:
        raise PreconditionError("ctx", "divisor and curve live in different contexts")
    return sum(x * y for x, y in zip(d.coords(), g.coords()))


def anticanonical(ctx: LatticeContext) -> DivisorClass:
    """-K = c(H_1 + .. + H_{a-1}) - kappa(E_1 + .. + E_r)."""
    return DivisorClass(ctx, (ctx.c,) * (ctx.a - 1), (ctx.kappa,) * ctx.r)


def canonical_class(ctx: LatticeContext) -> DivisorClass:
    return -anticanonical(ctx)


def degree(d: DivisorClass) -> Fraction:
    """deg D = (D, -K) / kappa; exceptional divisors have degree 1.

    >>> ctx = LatticeContext(2, 3, 3)
    >>> degree(anticanonical(ctx))
    Fraction(3, 1)
    """
    return Fraction(pairing(d, anticanonical(d.ctx)), d.ctx.kappa)


def hdeg(d: DivisorClass) -> int:
    """The single H-coefficient; only defined on blow-ups of one P^{c-1}."""
    if d.ctx.a != 2:
        raise PreconditionError("ctx", f"hdeg needs a = 2, got a = {d.ctx.a}")
    return d.h[0]


def _format_combination(x, first: str, second: str, sign: int) -> str:
    # the class as a sum of named basis vectors; `sign` scales the second part
    k = x.ctx.a - 1
    parts = []
    for i, v in enumerate(x.coords()):
        if v == 0:
            continue
        if i < k:
            parts.append((v, first if k == 1 else f"{first}_{i + 1}"))
        else:
            parts.append((sign * v, f"{second}_{i - k + 1}"))
    if not parts:
        return "0"
    out = []
    for i, (v, name) in enumerate(parts):
        mark = "-" if v < 0 else ("+" if i else "")
        mag = abs(v)
        coef = "" if mag == 1 else str(mag)
        out.append(f"{mark}{coef}{name}" if i == 0 else f" {mark} {coef}{name}")
    return "".join(out)


def format_divisor(d: DivisorClass) -> str:
    """Human-readable form like '2H - E_1 - E_2' (used by the table output)."""
    return _format_combination(d, "H", "E", -1)


def format_curve(g: CurveClass) -> str:
    """Human-readable form like 'l - e_1'; e coefficients print as stored.

    >>> ctx = LatticeContext(2, 2, 3)
    >>> format_curve(CurveClass(ctx, (1,), (-1, 0, 0, 0, 0)))
    'l - e_1'
    """
    return _format_combination(g, "l", "e", 1)
