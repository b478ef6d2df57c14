"""Divisor combinatorics on blow-ups of P^n at r points of a rational
normal curve.

The a = 2 contexts of the Picard lattice are the blow-ups of a single
projective space; this module houses their minimal divisors kH - k sum_I E
- (k-1) sum_{I^c} E, the restriction of classes to one dimension lower,
multiplicity bounds along the curve, the row-major table decomposition of
effective classes into hyperplane pieces, and effective-cone membership by
Weyl translates of the two nef-curve inequalities.  Membership decides by a
chamber walk and builds no orbit for a member; a non-member builds the
orbit of the one nef curve it violates, for its certificate.  Each nef
curve's orbit is cached on its own, per (context, curve, cap): the
degree-one decomposition prunes with the orbit of f1 (240 curves on E8),
and only a non-member that pairs >= 0 with all of it builds that of f2
(17,280 curves on E8).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul
import random

from .budget import effective_cap
from .errors import CapExceeded, PreconditionError
from .multipoly import _coerce_coef
from .picard_lattice import (
    CurveClass,
    DivisorClass,
    LatticeContext,
    degree,
    hdeg,
    intersect,
)
from .root_system import (
    _curve_moves,
    _degree_one_coords,
    _divisor_moves,
    _finite_system,
    _orbit,
    _walk,
)


@dataclass(frozen=True, order=True)
class BlowupContext:
    """Blow-up of P^n at r >= n+3 points on a rational normal curve.

    alpha = r - n - 2 >= 1 is the secant defect the multiplicity bound
    divides by.
    """

    n: int
    r: int

    def __post_init__(self):
        for name in ("n", "r"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise PreconditionError(name, f"must be an integer, got {v!r}")
        if self.n < 2:
            raise PreconditionError("n", f"need n >= 2, got {self.n}")
        if self.r < self.n + 3:
            raise PreconditionError("r", f"need r >= n + 3 = {self.n + 3}, got {self.r}")

    @property
    def alpha(self) -> int:
        return self.r - self.n - 2

    def lattice_context(self) -> LatticeContext:
        return LatticeContext(2, self.r - self.n - 1, self.n + 1)


def curve_params(r: int, values) -> tuple:
    """The values as r pairwise distinct Fractions, or PreconditionError;
    each must be an int or a Fraction, as MultiPoly coefficients must."""
    try:
        values = tuple(values)
    except TypeError:
        raise PreconditionError("params", f"expected {r} values, got {values!r}") from None
    params = tuple(_coerce_coef(v, "params") for v in values)
    if len(params) != r:
        raise PreconditionError("params", f"expected {r} values, got {len(params)}")
    if len(set(params)) != len(params):
        raise PreconditionError("params", "parameters must be pairwise distinct")
    return params


def random_params(r: int, seed: int) -> tuple:
    """r distinct p/q, |p| <= 60 and 1 <= q <= 12, drawn from Random(seed)
    and sorted; r above the 899 such values raises before any draw."""
    if r > 899:
        raise PreconditionError("r", f"need r <= 899 for a random draw, got {r}")
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < r:
        chosen.add(Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
    return tuple(sorted(chosen))


def _check_class(d: DivisorClass, ctx: LatticeContext):
    if d.ctx != ctx:
        raise PreconditionError("D", "class does not live on this blow-up")


def minimal_class(bc: BlowupContext, k: int, index_set) -> DivisorClass:
    """kH - k sum_{i in I} E_i - (k-1) sum_{i not in I} E_i, indices 1-based."""
    if k < 1:
        raise PreconditionError("k", f"expected k >= 1, got {k}")
    index_set = frozenset(index_set)
    if any(not 1 <= i <= bc.r for i in index_set):
        raise PreconditionError("I", f"indices must lie in 1..{bc.r}")
    if len(index_set) != bc.n + 2 - 2 * k:
        raise PreconditionError(
            "I", f"need {bc.n + 2 - 2 * k} indices for k={k}, got {len(index_set)}")
    m = tuple(k if i in index_set else k - 1 for i in range(1, bc.r + 1))
    return DivisorClass(bc.lattice_context(), (k,), m)


def enumerate_minimal(bc: BlowupContext) -> list:
    """All minimal divisors, k ascending and I lexicographic.

    >>> len(enumerate_minimal(BlowupContext(2, 5)))
    11
    """
    out = []
    k = 1
    while True:
        size = bc.n + 2 - 2 * k
        if size < 0:
            break
        for index_set in combinations(range(1, bc.r + 1), size):
            out.append(minimal_class(bc, k, index_set))
        k += 1
    return out


def minimal_parameters(e: DivisorClass, bc: BlowupContext):
    """Recover (k, I) from a minimal divisor; raises if the shape is wrong."""
    _check_class(e, bc.lattice_context())
    k = hdeg(e)
    if k < 1:
        raise PreconditionError("E", "not a minimal divisor (H-degree < 1)")
    index_set = tuple(i for i, m in enumerate(e.m, start=1) if m == k)
    if any(m not in (k, k - 1) for m in e.m):
        raise PreconditionError("E", "not a minimal divisor (multiplicity off pattern)")
    if len(index_set) != bc.n + 2 - 2 * k:
        raise PreconditionError("E", "not a minimal divisor (index count off)")
    return k, index_set


def project_class(d: DivisorClass, bc: BlowupContext) -> DivisorClass:
    """Restrict a class to the blow-up of P^{n-1} at the last r-1 points.

    The image is m_1 Hbar - sum_{i>=2} (m_i + m_1 - d) Ebar_i; exceptional
    indices shift down by one in the target context.
    """
    _check_class(d, bc.lattice_context())
    if bc.n < 3:
        raise PreconditionError("n", "projection target needs ambient dimension >= 2")
    target = BlowupContext(bc.n - 1, bc.r - 1)
    shift = d.m[0] - hdeg(d)
    return DivisorClass(target.lattice_context(), (d.m[0],),
                        tuple(m + shift for m in d.m[1:]))


@dataclass(frozen=True)
class ProjectionResult:
    """Projection of a minimal divisor with its case tag.

    CASE0 when E meets no line through the first point (E.(l-e_1) = 0, the
    image is minimal as is); CASE1 when it does and k >= 2 (the image needs
    the extra point q blown up, with multiplicity e_q_coefficient = k-1
    subtracted there); SPECIAL for the k = 1 leftover, whose image is the
    plain sum of the residual exceptionals.
    """

    case: str
    target: DivisorClass
    e_q_coefficient: int


def classify_minimal_projection(e: DivisorClass, bc: BlowupContext) -> ProjectionResult:
    """
    >>> bc = BlowupContext(3, 6)
    >>> res = classify_minimal_projection(minimal_class(bc, 1, (2, 3, 4)), bc)
    >>> res.case
    'SPECIAL'
    """
    k, _ = minimal_parameters(e, bc)
    ctx = bc.lattice_context()
    line_through_p1 = CurveClass.line(ctx) - CurveClass.exceptional_line(ctx, 1)
    target = project_class(e, bc)
    if intersect(e, line_through_p1) == 0:
        return ProjectionResult("CASE0", target, 0)
    if k == 1:
        return ProjectionResult("SPECIAL", target, 0)
    return ProjectionResult("CASE1", target, k - 1)


def mult_lower_bound(d: DivisorClass, bc: BlowupContext) -> int:
    """max(ceil((sum m_i - n d) / alpha), 0), the multiplicity every
    effective representative has along the curve."""
    _check_class(d, bc.lattice_context())
    excess = sum(d.m) - bc.n * hdeg(d)
    return max(-(-excess // bc.alpha), 0)


def effective_decompose(d: DivisorClass) -> list:
    """Split d H - sum m_i E_i into d hyperplane pieces by table filling.

    An n x d table is filled row-major with m_i copies of the label i; the
    j-th output class is H minus the exceptionals labelled in column j.
    Needs 0 <= m_i <= d and sum m_i <= n d; works in any a = 2 context
    (n = c - 1), no general-position constraint.

    >>> ctx = LatticeContext(2, 1, 3)
    >>> [c.m for c in effective_decompose(DivisorClass(ctx, (2,), (1, 1, 1, 0)))]
    [(1, 0, 1, 0), (0, 1, 0, 0)]
    """
    n = d.ctx.c - 1
    width = hdeg(d)
    if width < 0:
        raise PreconditionError("D", f"need d >= 0, got d = {width}")
    total = 0
    for i, m in enumerate(d.m, start=1):
        if m < 0:
            raise PreconditionError("D", f"need m_{i} >= 0, got {m}")
        if m > width:
            raise PreconditionError("D", f"need m_{i} <= d, got m_{i} = {m} > d = {width}")
        total += m
    if total > n * width:
        raise PreconditionError("D", f"need sum m_i <= n d, got {total} > {n * width}")
    columns = [[] for _ in range(width)]
    cell = 0
    for i, m in enumerate(d.m, start=1):
        for _ in range(m):
            columns[cell % width].append(i)
            cell += 1
    out = []
    for labels in columns:
        m = [0] * d.ctx.r
        for i in labels:
            m[i - 1] = 1
        out.append(DivisorClass(d.ctx, (1,), tuple(m)))
    return out


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    certificate: CurveClass | None

    def __bool__(self) -> bool:
        return self.member


def _nef_curve(ctx: LatticeContext, curve: str) -> tuple:
    # the flat coordinates of the nef curve "f1" = sum l_i - e_1 or "f2" = l_{a-1}
    if curve == "f1":
        return CurveClass(ctx, (1,) * (ctx.a - 1), (-1,) + (0,) * (ctx.r - 1)).coords()
    return CurveClass.line(ctx, ctx.a - 1).coords()


@lru_cache(maxsize=128)
def _nef_orbit(ctx: LatticeContext, curve: str, cap: int) -> tuple:
    # the sorted Weyl orbit of a nef curve, as flat coordinate tuples
    rs = _finite_system(ctx)
    return tuple(_orbit(_nef_curve(ctx, curve), _curve_moves(rs), cap, "weyl_orbit_curves"))


@lru_cache(maxsize=16)
def _chamber(ctx: LatticeContext) -> tuple:
    # the sparse divisor moves of a finite-type context, and the chamber
    # representatives f1+ and f2+ of its nef curves; a pass of the lattice
    # benchmark meets 3 contexts and a CLI call one
    rs = _finite_system(ctx)
    curve_moves = _curve_moves(rs)
    return (_divisor_moves(rs),
            tuple(_walk(_nef_curve(ctx, curve), curve_moves) for curve in ("f1", "f2")))


def eff_membership(d: DivisorClass, cap: int | None = None) -> MembershipResult:
    """Effective-cone test: d . g >= 0 for every Weyl translate g of the
    two nef curve classes.  The first violating g (in sorted orbit order,
    f1's orbit before f2's) is returned as the certificate.

    No orbit is scanned to decide.  On a finite type the least d . (w f)
    over the Weyl group is d+ . f+, where d+ and f+ are the representatives
    of the two orbits in the closed fundamental chamber, in which every
    simple root pairs >= 0 (Humphreys, Reflection Groups and Coxeter
    Groups, 1990, ch. 1): for f+ in that chamber, w f+ - f+ is a
    nonnegative sum of the curve duals of the simple roots, each of which d+
    pairs >= 0 with.  So a walk takes d to d+, and f1+, f2+ are walked once
    per context.  A member builds no orbit; a non-member builds, under the
    cap, the orbit of the first curve it violates and scans it in sorted
    order for the certificate.  On other types the walk need not end, and
    only finite types are accepted.
    """
    cap = effective_cap(cap)
    moves, chamber = _chamber(d.ctx)
    x = d.coords()
    top = _walk(x, moves)
    for curve, f in zip(("f1", "f2"), chamber):
        if sum(map(mul, top, f)) < 0:
            g = next(g for g in _nef_orbit(d.ctx, curve, cap) if sum(map(mul, x, g)) < 0)
            return MembershipResult(False, CurveClass.from_coords(d.ctx, g))
    return MembershipResult(True, None)


def decompose_degree1(d: DivisorClass, cap: int | None = None):
    """Write d as a multiset sum of degree-1 classes, or None.

    Backtracking over the degree_one_divisors list sorted by descending
    total H-degree, choosing candidates with non-decreasing index so each
    multiset is visited once.  Exhausting the node budget raises, which is
    distinct from a completed search returning None.

    A node is dropped, remembered as dead and not counted against the cap
    when its remainder x has x . g < 0 for some g in the Weyl orbit of the
    nef curve f1 = sum l_i - e_1.  Every degree-1 class is effective, so it
    pairs nonnegatively with every such g; the pairing is linear, so every
    sum of degree-1 classes does too, and a dropped subtree holds no
    answer.  The DFS order, the candidate list and the first answer found
    are those of the search without the prune; only the node count falls.
    """
    cap = effective_cap(cap)
    deg = degree(d)
    if deg.denominator != 1 or deg < 0:
        raise PreconditionError("D", f"degree must be a nonnegative integer, got {deg}")
    slots = int(deg)
    nh = d.ctx.a - 1
    candidates = sorted(_degree_one_coords(d.ctx, effective_cap()),
                        key=lambda x: (-sum(x[:nh]), x))
    if not candidates:
        return () if d.is_zero() else None
    walls = _nef_orbit(d.ctx, "f1", effective_cap())
    heights = [sum(x[:nh]) for x in candidates]
    min_h = heights[-1]
    nodes = 0
    dead = set()

    def search(i: int, remaining: tuple, slots: int):
        nonlocal nodes
        if slots == 0:
            return () if not any(remaining) else None
        key = (i, remaining)
        if key in dead:
            return None
        if any(sum(map(mul, remaining, g)) < 0 for g in walls):
            dead.add(key)
            return None
        nodes += 1
        if nodes > cap:
            raise CapExceeded("decompose_degree1", cap)
        want = sum(remaining[:nh])
        if want >= min_h * slots:
            for j in range(i, len(candidates)):
                if heights[j] * slots < want:
                    break  # candidates only get flatter from here
                rest = search(j, tuple(a - b for a, b in zip(remaining, candidates[j])), slots - 1)
                if rest is not None:
                    return (candidates[j],) + rest
        dead.add(key)
        return None

    found = search(0, d.coords(), slots)
    if found is None:
        return None
    return tuple(DivisorClass.from_coords(d.ctx, x) for x in sorted(found))
