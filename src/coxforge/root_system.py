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
from .linalg import invert
from .picard_lattice import (
    CurveClass,
    DivisorClass,
    LatticeContext,
    anticanonical,
    canonical_class,
    intersect,
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

    @property
    def rank(self) -> int:
        return len(self.simple_roots)


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
    chain = DivisorClass.hyperplane(ctx, 1)
    for j in range(1, ctx.c + 1):
        chain = chain - DivisorClass.exceptional(ctx, j)
    roots.append(chain)
    for j in range(1, ctx.a - 1):
        roots.append(DivisorClass.hyperplane(ctx, j + 1) - DivisorClass.hyperplane(ctx, j))
    cartan = tuple(tuple(-pairing(x, y) for y in roots) for x in roots)
    return RootSystemData(ctx, tuple(roots), dynkin_label(ctx.a, ctx.b, ctx.c), cartan)


def _require_root(alpha: DivisorClass):
    if pairing(alpha, alpha) != -2:
        raise PreconditionError("alpha", "reflection axis must have self-pairing -2")


def reflect(alpha: DivisorClass, d: DivisorClass) -> DivisorClass:
    """Orthogonal reflection of a divisor class in a norm -2 vector.

    >>> ctx = LatticeContext(2, 2, 3)
    >>> a1 = DivisorClass.exceptional(ctx, 1) - DivisorClass.exceptional(ctx, 2)
    >>> reflect(a1, DivisorClass.exceptional(ctx, 1)) == DivisorClass.exceptional(ctx, 2)
    True
    """
    _require_root(alpha)
    return d + pairing(d, alpha) * alpha


def _curve_dual(alpha: DivisorClass) -> CurveClass:
    # the curve class g with intersect(D, g) = pairing(D, alpha) for all D
    ctx = alpha.ctx
    sp = sum(alpha.h)
    l = tuple((ctx.c - 1) * sp - p for p in alpha.h)
    e = tuple(-q for q in alpha.m)
    return CurveClass(ctx, l, e)


def reflect_curve(alpha: DivisorClass, g: CurveClass) -> CurveClass:
    """The reflection induced on curve classes.

    Defined by compatibility with the divisor action: intersection numbers
    against reflected divisors are preserved.
    """
    _require_root(alpha)
    return g + intersect(alpha, g) * _curve_dual(alpha)


def _bfs_orbit(start, images, cap: int, what: str):
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for img in images(cur):
            if img not in seen:
                seen.add(img)
                if len(seen) > cap:
                    raise CapExceeded(what, cap)
                queue.append(img)
    return seen


def weyl_orbit(d: DivisorClass, rs: RootSystemData, cap: int | None = None):
    """All images of a divisor class under the Weyl group, sorted.

    The breadth-first closure under simple reflections; the node cap stops
    runaway enumeration on infinite-type contexts.
    """
    cap = effective_cap(cap)
    roots = rs.simple_roots
    orbit = _bfs_orbit(d, lambda cur: (reflect(a, cur) for a in roots), cap, "weyl_orbit")
    return tuple(sorted(orbit, key=DivisorClass.sort_key))


def weyl_orbit_curves(g: CurveClass, rs: RootSystemData, cap: int | None = None):
    """Weyl orbit of a curve class under the induced action, sorted."""
    cap = effective_cap(cap)
    roots = rs.simple_roots
    orbit = _bfs_orbit(g, lambda cur: (reflect_curve(a, cur) for a in roots), cap,
                       "weyl_orbit_curves")
    return tuple(sorted(orbit, key=CurveClass.sort_key))


def weight_coords(d: DivisorClass) -> tuple:
    """Coordinates of d against the fundamental weights: j-th entry
    pairing(d, alpha_j).

    >>> ctx = LatticeContext(2, 2, 3)
    >>> weight_coords(DivisorClass.exceptional(ctx, 5))
    (0, 0, 0, 1, 0)
    """
    rs = simple_roots(d.ctx)
    return tuple(pairing(d, alpha) for alpha in rs.simple_roots)


def _cartan_of(rs) -> tuple:
    """Accept RootSystemData or a bare Cartan matrix (rank-1 test rigs)."""
    if isinstance(rs, RootSystemData):
        return rs.cartan
    cartan = tuple(tuple(int(v) for v in row) for row in rs)
    for i, row in enumerate(cartan):
        if len(row) != len(cartan):
            raise PreconditionError("cartan", "matrix must be square")
        if row[i] != 2:
            raise PreconditionError("cartan", f"diagonal entry {i} is {row[i]}, not 2")
    return cartan


def _check_weight(w, n: int, name: str) -> tuple:
    w = tuple(w)
    if len(w) != n:
        raise PreconditionError(name, f"expected {n} coordinates, got {len(w)}")
    for v in w:
        if not isinstance(v, int) or isinstance(v, bool):
            raise PreconditionError(name, f"coordinates must be integers, got {v!r}")
    return w


def weights_of_irrep(lam, rs, cap: int | None = None):
    """Weight system of the irreducible module with highest weight lam.

    String saturation: from every known weight mu with mu_i > 0 the whole
    alpha_i-string mu - alpha_i, .., mu - mu_i alpha_i consists of weights.
    For a dominant lam this closure is the full weight set.  Weights are
    coordinate tuples; the result is lexicographically sorted.
    """
    cartan = _cartan_of(rs)
    n = len(cartan)
    lam = _check_weight(lam, n, "lambda")
    if any(v < 0 for v in lam):
        raise PreconditionError("lambda", f"highest weight must be dominant, got {lam}")
    cap = effective_cap(cap)
    alpha = [tuple(cartan[j][i] for j in range(n)) for i in range(n)]
    seen = {lam}
    queue = deque([lam])
    while queue:
        mu = queue.popleft()
        for i in range(n):
            nu = mu
            for _ in range(mu[i] if mu[i] > 0 else 0):
                nu = tuple(x - y for x, y in zip(nu, alpha[i]))
                if nu not in seen:
                    seen.add(nu)
                    if len(seen) > cap:
                        raise CapExceeded("weight saturation", cap)
                    queue.append(nu)
    return tuple(sorted(seen))


def weyl_orbit_weights(w, rs, cap: int | None = None):
    """Weyl orbit of a weight in coordinates, sorted.

    The simple reflection acts by s_i(w) = w - w_i alpha_i.
    """
    cartan = _cartan_of(rs)
    n = len(cartan)
    w = _check_weight(w, n, "weight")
    cap = effective_cap(cap)
    alpha = [tuple(cartan[j][i] for j in range(n)) for i in range(n)]

    def images(cur):
        for i in range(n):
            if cur[i]:
                yield tuple(x - cur[i] * y for x, y in zip(cur, alpha[i]))

    return tuple(sorted(_bfs_orbit(w, images, cap, "weyl_orbit_weights")))


def _top_weight(ctx: LatticeContext) -> tuple:
    return weight_coords(DivisorClass.exceptional(ctx, ctx.r))


def is_minuscule(ctx: LatticeContext, cap: int | None = None) -> bool:
    """Whether the weight system attached to E_r is a single Weyl orbit.

    >>> is_minuscule(LatticeContext(2, 2, 4))
    True
    >>> is_minuscule(LatticeContext(2, 3, 4))
    False
    """
    rs = simple_roots(ctx)
    if rs.dynkin_label == "INFINITE":
        raise PreconditionError("ctx", "finite type required")
    lam = _top_weight(ctx)
    return weights_of_irrep(lam, rs, cap) == weyl_orbit_weights(lam, rs, cap)


def degree_one_divisors(ctx: LatticeContext, cap: int | None = None):
    """All divisor classes of degree 1 whose weight lies in the E_r system.

    For each weight mu the pairing conditions against the simple roots plus
    the degree-1 normalization form a square system of full rank; the class
    is kept when the rational solution is integral.  Sorted output.
    """
    rs = simple_roots(ctx)
    if rs.dynkin_label == "INFINITE":
        raise PreconditionError("ctx", "finite type required")
    k = canonical_class(ctx)
    if pairing(k, k) == 0:
        raise PreconditionError("ctx", "pairing(K, K) = 0")
    nh = ctx.a - 1

    def functional(v: DivisorClass) -> list:
        sp = sum(v.h)
        return [(ctx.c - 1) * sp - p for p in v.h] + [-q for q in v.m]

    rows = [functional(alpha) for alpha in rs.simple_roots]
    rows.append(functional(anticanonical(ctx)))
    inv = invert(rows)
    out = []
    for mu in weights_of_irrep(_top_weight(ctx), rs, cap):
        rhs = list(mu) + [ctx.kappa]
        coords = [sum(row[j] * rhs[j] for j in range(len(rhs))) for row in inv]
        if all(v.denominator == 1 for v in coords):
            out.append(DivisorClass(ctx, tuple(int(v) for v in coords[:nh]),
                                    tuple(int(v) for v in coords[nh:])))
    return tuple(sorted(out, key=DivisorClass.sort_key))
