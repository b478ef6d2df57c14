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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .jsonutil import decode_int, encode_int


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

    @classmethod
    def from_json(cls, obj) -> "LatticeContext":
        if not isinstance(obj, dict):
            raise PreconditionError("ctx", f"expected an object, got {obj!r}")
        try:
            return cls(decode_int(obj["a"]), decode_int(obj["b"]), decode_int(obj["c"]))
        except KeyError as missing:
            raise PreconditionError("ctx", f"missing key {missing.args[0]!r}") from None


def _check_coords(ctx: LatticeContext, name: str, coords, length: int) -> tuple:
    coords = tuple(coords)
    if len(coords) != length:
        raise PreconditionError(name, f"expected {length} coordinates, got {len(coords)}")
    for v in coords:
        if not isinstance(v, int) or isinstance(v, bool):
            raise PreconditionError(name, f"coordinates must be integers, got {v!r}")
    return coords


@dataclass(frozen=True)
class DivisorClass:
    """Integer divisor class D = sum d_i H_i - sum m_j E_j.

    `h` holds (d_1..d_{a-1}) and `m` holds (m_1..m_r); note the sign of m.

    >>> ctx = LatticeContext(2, 2, 3)
    >>> D = DivisorClass(ctx, (2,), (1, 1, 1, 1, 1))
    >>> D - DivisorClass.exceptional(ctx, 1)
    DivisorClass(ctx=LatticeContext(a=2, b=2, c=3), h=(2,), m=(2, 1, 1, 1, 1))
    """

    ctx: LatticeContext
    h: tuple
    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "h", _check_coords(self.ctx, "h", self.h, self.ctx.a - 1))
        object.__setattr__(self, "m", _check_coords(self.ctx, "m", self.m, self.ctx.r))

    @classmethod
    def zero(cls, ctx: LatticeContext) -> "DivisorClass":
        return cls(ctx, (0,) * (ctx.a - 1), (0,) * ctx.r)

    @classmethod
    def hyperplane(cls, ctx: LatticeContext, i: int = 1) -> "DivisorClass":
        """H_i, 1-based."""
        if not 1 <= i <= ctx.a - 1:
            raise PreconditionError("i", f"hyperplane index out of range 1..{ctx.a - 1}")
        h = [0] * (ctx.a - 1)
        h[i - 1] = 1
        return cls(ctx, tuple(h), (0,) * ctx.r)

    @classmethod
    def exceptional(cls, ctx: LatticeContext, j: int) -> "DivisorClass":
        """E_j, 1-based; stored with m_j = -1."""
        if not 1 <= j <= ctx.r:
            raise PreconditionError("j", f"exceptional index out of range 1..{ctx.r}")
        m = [0] * ctx.r
        m[j - 1] = -1
        return cls(ctx, (0,) * (ctx.a - 1), tuple(m))

    def _same_ctx(self, other: "DivisorClass"):
        if self.ctx != other.ctx:
            raise PreconditionError("ctx", "divisor classes live in different contexts")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_ctx(other)
        return DivisorClass(self.ctx,
                            tuple(x + y for x, y in zip(self.h, other.h)),
                            tuple(x + y for x, y in zip(self.m, other.m)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_ctx(other)
        return DivisorClass(self.ctx,
                            tuple(x - y for x, y in zip(self.h, other.h)),
                            tuple(x - y for x, y in zip(self.m, other.m)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.ctx, tuple(-x for x in self.h), tuple(-x for x in self.m))

    def __mul__(self, k: int) -> "DivisorClass":
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        return DivisorClass(self.ctx, tuple(k * x for x in self.h), tuple(k * x for x in self.m))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.h) and not any(self.m)

    def sort_key(self):
        return (self.h, self.m)

    def to_json(self) -> dict:
        return {"ctx": self.ctx.to_json(),
                "h": [encode_int(v) for v in self.h],
                "m": [encode_int(v) for v in self.m]}

    @classmethod
    def from_json(cls, obj) -> "DivisorClass":
        if not isinstance(obj, dict):
            raise PreconditionError("divisor", f"expected an object, got {obj!r}")
        try:
            ctx = LatticeContext.from_json(obj["ctx"])
            return cls(ctx, tuple(decode_int(v) for v in obj["h"]),
                       tuple(decode_int(v) for v in obj["m"]))
        except KeyError as missing:
            raise PreconditionError("divisor", f"missing key {missing.args[0]!r}") from None


@dataclass(frozen=True)
class CurveClass:
    """Integer curve class g = sum lambda_i l_i + sum mu_j e_j."""

    ctx: LatticeContext
    l: tuple
    e: tuple

    def __post_init__(self):
        object.__setattr__(self, "l", _check_coords(self.ctx, "l", self.l, self.ctx.a - 1))
        object.__setattr__(self, "e", _check_coords(self.ctx, "e", self.e, self.ctx.r))

    @classmethod
    def line(cls, ctx: LatticeContext, i: int = 1) -> "CurveClass":
        """l_i, 1-based."""
        if not 1 <= i <= ctx.a - 1:
            raise PreconditionError("i", f"line index out of range 1..{ctx.a - 1}")
        l = [0] * (ctx.a - 1)
        l[i - 1] = 1
        return cls(ctx, tuple(l), (0,) * ctx.r)

    @classmethod
    def exceptional_line(cls, ctx: LatticeContext, j: int) -> "CurveClass":
        """e_j, 1-based."""
        if not 1 <= j <= ctx.r:
            raise PreconditionError("j", f"index out of range 1..{ctx.r}")
        e = [0] * ctx.r
        e[j - 1] = 1
        return cls(ctx, (0,) * (ctx.a - 1), tuple(e))

    def _same_ctx(self, other: "CurveClass"):
        if self.ctx != other.ctx:
            raise PreconditionError("ctx", "curve classes live in different contexts")

    def __add__(self, other: "CurveClass") -> "CurveClass":
        self._same_ctx(other)
        return CurveClass(self.ctx,
                          tuple(x + y for x, y in zip(self.l, other.l)),
                          tuple(x + y for x, y in zip(self.e, other.e)))

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        self._same_ctx(other)
        return CurveClass(self.ctx,
                          tuple(x - y for x, y in zip(self.l, other.l)),
                          tuple(x - y for x, y in zip(self.e, other.e)))

    def __neg__(self) -> "CurveClass":
        return CurveClass(self.ctx, tuple(-x for x in self.l), tuple(-x for x in self.e))

    def __mul__(self, k: int) -> "CurveClass":
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        return CurveClass(self.ctx, tuple(k * x for x in self.l), tuple(k * x for x in self.e))

    __rmul__ = __mul__

    def sort_key(self):
        return (self.l, self.e)

    def to_json(self) -> dict:
        return {"l": [encode_int(v) for v in self.l],
                "e": [encode_int(v) for v in self.e]}

    @classmethod
    def from_json(cls, obj, ctx: LatticeContext) -> "CurveClass":
        if not isinstance(obj, dict):
            raise PreconditionError("curve", f"expected an object, got {obj!r}")
        try:
            return cls(ctx, tuple(decode_int(v) for v in obj["l"]),
                       tuple(decode_int(v) for v in obj["e"]))
        except KeyError as missing:
            raise PreconditionError("curve", f"missing key {missing.args[0]!r}") from None


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
    return sum(x * y for x, y in zip(d.h, g.l)) + sum(x * y for x, y in zip(d.m, g.e))


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


def _format_combination(parts) -> str:
    if not parts:
        return "0"
    out = []
    for k, (v, name) in enumerate(parts):
        sign = "-" if v < 0 else ("+" if k else "")
        mag = abs(v)
        coef = "" if mag == 1 else str(mag)
        out.append(f"{sign}{coef}{name}" if k == 0 else f" {sign} {coef}{name}")
    return "".join(out)


def format_divisor(d: DivisorClass) -> str:
    """Human-readable form like '2H - E_1 - E_2' (used by the table output)."""
    parts = []
    for i, v in enumerate(d.h, start=1):
        if v == 0:
            continue
        name = "H" if d.ctx.a == 2 else f"H_{i}"
        parts.append((v, name))
    for j, v in enumerate(d.m, start=1):
        if v == 0:
            continue
        parts.append((-v, f"E_{j}"))
    return _format_combination(parts)


def format_curve(g: CurveClass) -> str:
    """Human-readable form like 'l - e_1'; e coefficients print as stored.

    >>> ctx = LatticeContext(2, 2, 3)
    >>> format_curve(CurveClass(ctx, (1,), (-1, 0, 0, 0, 0)))
    'l - e_1'
    """
    parts = []
    for i, v in enumerate(g.l, start=1):
        if v == 0:
            continue
        name = "l" if g.ctx.a == 2 else f"l_{i}"
        parts.append((v, name))
    for j, v in enumerate(g.e, start=1):
        if v == 0:
            continue
        parts.append((v, f"e_{j}"))
    return _format_combination(parts)
