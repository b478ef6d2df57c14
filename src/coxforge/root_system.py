"""Root systems attached to blow-up Picard lattices.

The simple roots below span the orthogonal complement of the canonical
class.  Their pairing graph is the T-shaped tree with legs of a, b and c
nodes meeting at the node alpha_c, so the lattice carries a (possibly
affine or indefinite) Kac-Moody root system which is finite exactly when
1/a + 1/b + 1/c > 1.  On top of the reflections this module computes Weyl
orbits of divisor and curve classes, weight coordinates against the
fundamental-weight basis, full weight systems of irreducible highest
weight modules by string saturation, minuscule detection, and the
enumeration of all divisor classes of degree one.

Two closures over coordinate tuples serve every enumeration.  `_orbit`
closes under moves x -> x + (x . f) v: (dual(alpha), alpha) for divisors,
where `_dual` applies the Gram form, (alpha, dual(alpha)) for curves and
the weight moves (e_i, minus Cartan column i).  `_saturate` closes under
root strings x -> x + v, .., x + (x . f) v for x . f > 0: the weight moves
for the weights of a module, and the same with alpha_i appended for the
degree-one classes, which carry their weight in front.  Roots are
validated once per orbit, and tuples become classes once, after sorting.
`_walk` takes a tuple into the closed fundamental chamber by the same moves,
reflecting while some simple root pairs negatively; effective-cone
membership uses it.  A simple-root move touches 2 to c + 1 coordinates, so
all three take sparse moves: `_sparse` turns each (f, v) into the nonzero
(index, value) pairs of f and of v, the form every `_*_moves` returns.

Root ordering: alpha_i = E_i - E_{i+1} for i < r, alpha_r = H_1 - E_1 -
... - E_c, then alpha_{r+j} = H_{j+1} - H_j walking up the remaining
hyperplane classes.  The last group is oriented so that consecutive roots
pair to +1; all off-diagonal pairings land in {0, 1} and the Cartan matrix
is minus the Gram matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .budget import effective_cap
from .errors import CapExceeded, PreconditionError
from .picard_lattice import (
    CurveClass,
    DivisorClass,
    LatticeContext,
    _check_coords,
    pairing,
)


def _check_triple(a: int, b: int, c: int):
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise PreconditionError(name, f"need a positive integer, got {v!r}")


def is_finite_type(a: int, b: int, c: int) -> bool:
    """Exact test of 1/a + 1/b + 1/c > 1."""
    _check_triple(a, b, c)
    return Fraction(1, a) + Fraction(1, b) + Fraction(1, c) > 1


def dynkin_label(a: int, b: int, c: int) -> str:
    """Classify the tree with legs of a, b, c nodes sharing one endpoint.

    A leg of length 1 collapses the branch point, so the tree is a path
    and the label is A with a+b+c-2 nodes; two legs of length 2 give D;
    the three exceptional trees give E6, E7, E8.  Non-finite triples
    return "INFINITE".

    >>> dynkin_label(2, 2, 3)
    'D5'
    >>> dynkin_label(2, 3, 5)
    'E8'
    """
    _check_triple(a, b, c)
    if not is_finite_type(a, b, c):
        return "INFINITE"
    p, q, s = sorted((a, b, c))
    nodes = a + b + c - 2
    if p == 1:
        return f"A{nodes}"
    if p == 2 and q == 2:
        return f"D{nodes}"
    # finite type with p = 2, q = 3 and s in {3, 4, 5} is all that is left
    return f"E{nodes}"


@dataclass(frozen=True)
class RootSystemData:
    """Simple roots of a context, their label, and the Cartan matrix.

    cartan[i][j] = -pairing(alpha_i, alpha_j); diagonal 2, entries -1
    exactly on the edges of the tree.
    """

    ctx: LatticeContext
    simple_roots: tuple
    dynkin_label: str
    cartan: tuple


@lru_cache(maxsize=256)
def simple_roots(ctx: LatticeContext) -> RootSystemData:
    """The a+r-2 simple roots of a context, in the fixed order.

    >>> rs = simple_roots(LatticeContext(2, 2, 3))
    >>> len(rs.simple_roots), rs.dynkin_label
    (5, 'D5')
    """
    r = ctx.r
    roots = []
    for i in range(1, r):
        roots.append(DivisorClass.exceptional(ctx, i) - DivisorClass.exceptional(ctx, i + 1))
    roots.append(DivisorClass(ctx, (1,) + (0,) * (ctx.a - 2), (1,) * ctx.c + (0,) * ctx.b))
    for j in range(1, ctx.a - 1):
        roots.append(DivisorClass.hyperplane(ctx, j + 1) - DivisorClass.hyperplane(ctx, j))
    cartan = tuple(tuple(-pairing(x, y) for y in roots) for x in roots)
    return RootSystemData(ctx, tuple(roots), dynkin_label(ctx.a, ctx.b, ctx.c), cartan)


def _require_root(alpha: DivisorClass):
    if pairing(alpha, alpha) != -2:
        raise PreconditionError("alpha", "reflection axis must have self-pairing -2")


def _finite_system(ctx: LatticeContext) -> RootSystemData:
    """The simple roots of a context of finite type; the one finite-type check."""
    rs = simple_roots(ctx)
    if rs.dynkin_label == "INFINITE":
        raise PreconditionError("ctx", "finite type required")
    return rs


def reflect(alpha: DivisorClass, d: DivisorClass) -> DivisorClass:
    """Orthogonal reflection of a divisor class in a norm -2 vector.

    >>> ctx = LatticeContext(2, 2, 3)
    >>> a1 = DivisorClass.exceptional(ctx, 1) - DivisorClass.exceptional(ctx, 2)
    >>> reflect(a1, DivisorClass.exceptional(ctx, 1)) == DivisorClass.exceptional(ctx, 2)
    True
    """
    _require_root(alpha)
    return d + pairing(d, alpha) * alpha


def _dual(v: DivisorClass) -> tuple:
    # flat curve coordinates g with intersect(D, g) = pairing(D, v) for every D
    sp = sum(v.h)
    return tuple((v.ctx.c - 1) * sp - p for p in v.h) + tuple(-q for q in v.m)


def _sparse(moves) -> tuple:
    """Each move (f, v) as the nonzero (index, value) pairs of f and of v."""
    return tuple((tuple((i, c) for i, c in enumerate(f) if c),
                  tuple((i, c) for i, c in enumerate(v) if c)) for f, v in moves)


def _orbit(start: tuple, moves, cap: int, what: str) -> list:
    """Sorted breadth-first closure of a coordinate tuple under the moves.

    The moves are sparse, as `_sparse` gives them.  A move (f, v) sends x
    to x + (x . f) v and is skipped when x . f = 0.  More than `cap`
    distinct tuples raise CapExceeded(what, cap).
    """
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for f, v in moves:
            k = 0
            for i, c in f:
                k += x[i] * c
            if k:
                y = list(x)
                for i, c in v:
                    y[i] += k * c
                y = tuple(y)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise CapExceeded(what, cap)
                    queue.append(y)
    return sorted(seen)


def _walk(x: tuple, moves) -> tuple:
    """The representative of x's orbit in the closed fundamental chamber.

    The moves are sparse, as `_sparse` gives them.  While some move has
    x . f < 0, x goes to x + (x . f) v, the reflection in that simple root.
    Each step subtracts a positive multiple of v and lowers by one the
    number of positive roots that pair negatively with x, so on a finite
    type the walk ends after at most |positive roots| steps (120 on E8),
    where every x . f >= 0; on other types it need not end.
    """
    x = list(x)
    moved = True
    while moved:
        moved = False
        for f, v in moves:
            k = 0
            for i, c in f:
                k += x[i] * c
            if k < 0:
                for i, c in v:
                    x[i] += k * c
                moved = True
    return tuple(x)


def _saturate(start: tuple, moves, cap: int, what: str) -> set:
    """Breadth-first string closure of a coordinate tuple under the moves.

    A sparse move (f, v) sends x to x + v, .., x + (x . f) v when x . f > 0.
    More than `cap` distinct tuples raise CapExceeded(what, cap).
    """
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for f, v in moves:
            k = 0
            for i, c in f:
                k += x[i] * c
            if k > 0:
                y = list(x)
                for _ in range(k):
                    for i, c in v:
                        y[i] += c
                    t = tuple(y)
                    if t not in seen:
                        seen.add(t)
                        if len(seen) > cap:
                            raise CapExceeded(what, cap)
                        queue.append(t)
    return seen


def _divisor_moves(rs: RootSystemData) -> tuple:
    return _sparse((_dual(alpha), alpha.coords()) for alpha in rs.simple_roots)


def _curve_moves(rs: RootSystemData) -> tuple:
    return _sparse((alpha.coords(), _dual(alpha)) for alpha in rs.simple_roots)


def _weight_moves(rs: RootSystemData) -> tuple:
    return _sparse(((0,) * i + (1,), tuple(-row[i] for row in rs.cartan))
                   for i in range(len(rs.cartan)))


def _check_roots(rs: RootSystemData, ctx: LatticeContext, detail: str):
    # what reflect demands of each axis, asked once per orbit
    for alpha in rs.simple_roots:
        _require_root(alpha)
        if alpha.ctx != ctx:
            raise PreconditionError("ctx", detail)


def weyl_orbit(d: DivisorClass, rs: RootSystemData, cap: int | None = None):
    """All images of a divisor class under the Weyl group, sorted.

    The breadth-first closure under simple reflections; the node cap stops
    runaway enumeration on infinite-type contexts.
    """
    cap = effective_cap(cap)
    _check_roots(rs, d.ctx, "divisor classes live in different contexts")
    orbit = _orbit(d.coords(), _divisor_moves(rs), cap, "weyl_orbit")
    return tuple(DivisorClass.from_coords(d.ctx, x) for x in orbit)


def weyl_orbit_curves(g: CurveClass, rs: RootSystemData, cap: int | None = None):
    """Weyl orbit of a curve class under the induced action, sorted."""
    cap = effective_cap(cap)
    _check_roots(rs, g.ctx, "divisor and curve live in different contexts")
    orbit = _orbit(g.coords(), _curve_moves(rs), cap, "weyl_orbit_curves")
    return tuple(CurveClass.from_coords(g.ctx, x) for x in orbit)


def weight_coords(d: DivisorClass) -> tuple:
    """Coordinates of d against the fundamental weights: j-th entry
    pairing(d, alpha_j).

    >>> ctx = LatticeContext(2, 2, 3)
    >>> weight_coords(DivisorClass.exceptional(ctx, 5))
    (0, 0, 0, 1, 0)
    """
    rs = simple_roots(d.ctx)
    return tuple(pairing(d, alpha) for alpha in rs.simple_roots)


def weights_of_irrep(lam, rs: RootSystemData, cap: int | None = None):
    """Weight system of the irreducible module with highest weight lam.

    String saturation: from every known weight mu with mu_i > 0 the whole
    alpha_i-string mu - alpha_i, .., mu - mu_i alpha_i consists of weights.
    For a dominant lam this closure is the full weight set.  Weights are
    coordinate tuples; the result is lexicographically sorted.
    """
    lam = _check_coords("lambda", lam, len(rs.cartan))
    if any(v < 0 for v in lam):
        raise PreconditionError("lambda", f"highest weight must be dominant, got {lam}")
    cap = effective_cap(cap)
    return tuple(sorted(_saturate(lam, _weight_moves(rs), cap, "weight saturation")))


def weyl_orbit_weights(w, rs: RootSystemData, cap: int | None = None):
    """Weyl orbit of a weight in coordinates, sorted.

    The simple reflection acts by s_i(w) = w - w_i alpha_i.
    """
    w = _check_coords("weight", w, len(rs.cartan))
    cap = effective_cap(cap)
    return tuple(_orbit(w, _weight_moves(rs), cap, "weyl_orbit_weights"))


def _top_weight(ctx: LatticeContext) -> tuple:
    return weight_coords(DivisorClass.exceptional(ctx, ctx.r))


def is_minuscule(ctx: LatticeContext, cap: int | None = None) -> bool:
    """Whether the weight system attached to E_r is a single Weyl orbit.

    >>> is_minuscule(LatticeContext(2, 2, 4))
    True
    >>> is_minuscule(LatticeContext(2, 3, 4))
    False
    """
    rs = _finite_system(ctx)
    lam = _top_weight(ctx)
    return weights_of_irrep(lam, rs, cap) == weyl_orbit_weights(lam, rs, cap)


@lru_cache(maxsize=16)
def _degree_one_coords(ctx: LatticeContext, cap: int) -> tuple:
    """The sorted flat coordinate tuples of `degree_one_divisors`, built once
    per (context, resolved cap).  A pass of the lattice benchmark meets 3
    pairs and a CLI call one, so 16 entries hold either working set.

    Adding alpha_i to a class keeps its degree and subtracts row i of the
    Cartan matrix from its weight, so the classes are the string closure of
    E_r with its weight written in front; the weight part runs through the
    same states, in the same order, as `weights_of_irrep`.
    """
    rs = _finite_system(ctx)
    n = len(rs.cartan)
    top = DivisorClass.exceptional(ctx, ctx.r)
    moves = _sparse(((0,) * i + (1,), tuple(-v for v in rs.cartan[i]) + alpha.coords())
                    for i, alpha in enumerate(rs.simple_roots))
    closure = _saturate(weight_coords(top) + top.coords(), moves, cap, "weight saturation")
    return tuple(sorted(x[n:] for x in closure))


def degree_one_divisors(ctx: LatticeContext, cap: int | None = None):
    """All divisor classes of degree 1 whose weight lies in the E_r system.

    Each such class is E_r plus a nonnegative sum of simple roots, one for
    each weight of the system: the root strings through E_r reach them all,
    integral by construction.  Sorted output.
    """
    _finite_system(ctx)  # the context is checked before the cap
    return tuple(DivisorClass.from_coords(ctx, x)
                 for x in _degree_one_coords(ctx, effective_cap(cap)))
