"""Exact section-space computations for blow-ups of P^n along a rational
normal curve.

A divisor class d H - sum m_i E_i is realized as the space of degree-d
forms in z_0..z_n, coefficient vectors over `monomial_exponents(n, d)`,
vanishing to order at least m_i at the curve points p_i = (1, a_i, .., a_i^n).
One row builder, `_rows` (the integer partials of the monomials at an
integer point, from one table of its powers), yields the conditions of h0.
One vanishing-order search, `_order`, serves the multiplicity at a point
and the order along the curve, exactly and with no condition rows: it sums
each chart partial's terms at the point's powers, or by their weight in the
curve parameter, and tests the sums for zero.
A `PointConfig` scales its points to integers once and keeps every block of
conditions it has built, per (degree, point, order), for as long as it
lives, so a pass that asks hundreds of classes on one configuration builds
each block once; other points are not kept.  It also keeps the last
section space it solved, so `form_space` and `section_of` on one class
solve its conditions once, and `h0` shares that solution where it solves
one.  Small shapes are eliminated exactly: h0 is the width less the rank,
and the kernel is read off the same echelon.  Past a gate on the shape
(rows x width and the kernel-size bound max(width - rows, 0)) the kernel
comes from `linalg.modular_kernel`, lifted from residues and shipped only
once an exact check certifies it, and h0 is its size.  On P^2 one peel
rule, `_peel`, serves `h0` and the kernels: it takes the lines through two
points and the conic off the class while the class meets them negatively.  `h0` builds no condition at
any number of points and answers chi of the nef class left (the argument
is `_dim`'s); `form_space` and `section_of` eliminate only that nef class
and multiply its kernel by the peeled curves' forms, so a class that
peels to degree 0 or to h0 = 0 builds no condition either, and the slot
holds the nef class.  For n >= 3 at
r = n + 3 points h0 is invariant under the Weyl group of T_{2,n+1,2},
which acts by Cremona transformations, and does not depend on the
parameters (Brambilla, Dumitrescu and Postinghel, Exp. Math. 2016), so
`h0` eliminates a class D's chamber representative D+, while `form_space`
and `section_of` keep D, whose monomial space their kernels live in:
`h0(D)` then `form_space(D)` eliminates twice when D+ != D, the first
time tiny.  Above n + 3 points the symmetry fails (on P^2 with six points
h0(2H - sum E_i) = 1, but its reflection has h0 = 0), and for n >= 3
`h0` eliminates D itself.  The generation test spans the products of the
minimal divisors' sections s_g state by state, Span(k, m) = sum_g s_g *
Span(k - k_g, max(m - m_g, 0)), and stops a state at the h0 of
kH - sum m_i E_i, which contains it, so no skipped product could raise its
rank.  A form of degree k <= d is held by its integer values at the
principal lattice (1, e_1, .., e_n), e in `monomial_exponents(n, d)`,
unisolvent for degree d (Nicolaides 1972; Chung and Yao 1977); so
evaluation is injective on such forms, spans keep their ranks, and a
product of forms is the pointwise product of values.
The configuration keeps the test's generators, their integer sections and
grid values too; no module-level cache is keyed on one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import inf, perm, prod
from operator import add, getitem, mul

from .blowup_divisors import (
    BlowupContext,
    _chamber,
    _check_class,
    curve_params,
    enumerate_minimal,
    random_params,
)
from .budget import effective_cap
from .errors import CapExceeded, PreconditionError
from .jsonutil import encode_fraction
from .linalg import RowEchelon, _integer_row, _right_reduced, echelon, modular_kernel
from .multipoly import MultiPoly, _coerce_coef, _lift
from .picard_lattice import DivisorClass, LatticeContext, hdeg
from .root_system import _walk

GENERATION_MONOMIAL_CAP = 20000
GENERATION_STATE_CAP = 10 ** 5
# the least condition cells (rows x width) `_modular` sends to `modular_kernel`
MODULAR_CELLS = 1300


@dataclass(frozen=True)
class PointConfig:
    """r distinct parameters a_i marking points on the rational normal curve,
    under the rule `NagataParams` shares (`curve_params`, `random_params`).

    A configuration also keeps its points' integer representatives and the
    section layer's memos: the condition blocks `_condition_rows` has built,
    keyed by (d, i, order); the last section space solved, its echelon or
    its certified kernel, keyed by (d, mults clipped at 0); and the
    generation test's
    generators, their integer section terms and their values per degree.
    None takes part in equality, hashing, repr or JSON.  Up to the highest
    degree asked they hold at most r * sum(d + 1) blocks, one space, and
    one entry per generator and per (degree, generator); all live as long
    as it does.

    >>> PointConfig.default(2, 5).params
    (Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(4, 1), Fraction(5, 1))
    """

    n: int
    r: int
    params: tuple
    _reps: tuple = field(init=False, repr=False, compare=False)
    _blocks: dict = field(init=False, repr=False, compare=False)
    _echelon: tuple = field(init=False, repr=False, compare=False)
    _gens: tuple = field(init=False, repr=False, compare=False)
    _terms: dict = field(init=False, repr=False, compare=False)
    _values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        BlowupContext(self.n, self.r)  # validates n and r
        object.__setattr__(self, "params", curve_params(self.r, self.params))
        object.__setattr__(self, "_reps", tuple(map(_representative, self.points())))
        object.__setattr__(self, "_blocks", {})
        object.__setattr__(self, "_echelon", None)
        object.__setattr__(self, "_gens", None)
        object.__setattr__(self, "_terms", {})
        object.__setattr__(self, "_values", {})

    @classmethod
    def default(cls, n: int, r: int) -> "PointConfig":
        return cls(n, r, tuple(range(1, r + 1)))

    @classmethod
    def random(cls, n: int, r: int, seed: int) -> "PointConfig":
        return cls(n, r, random_params(r, seed))

    def blowup_context(self) -> BlowupContext:
        return BlowupContext(self.n, self.r)

    def lattice_context(self) -> LatticeContext:
        return _lattice_context(self.n, self.r)

    def points(self) -> list:
        return [tuple(a ** j for j in range(self.n + 1)) for a in self.params]

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r,
                "params": [encode_fraction(a) for a in self.params]}


@lru_cache(maxsize=64)
def _lattice_context(n: int, r: int) -> LatticeContext:
    # built and validated once per (n, r): `_dim` and `_check_class` ask it per call
    return BlowupContext(n, r).lattice_context()


@lru_cache(maxsize=256)
def monomial_exponents(n: int, d: int) -> tuple:
    """Exponent tuples of the degree-d monomials in z_0..z_n, graded-lex
    descending (z_0 biggest), the fixed column order of every matrix here."""
    out = []
    for combo in combinations_with_replacement(range(n + 1), d):
        e = [0] * (n + 1)
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return tuple(out)


def _representative(point) -> tuple:
    """(P, c): the point scaled to integers, with P_c > 0 at its first nonzero c;
    each coordinate must be an int or a Fraction."""
    p = [_coerce_coef(v, "p") for v in point]
    chart = next((j for j, v in enumerate(p) if v), None)
    if chart is None:
        raise PreconditionError("p", "point must not be the zero vector")
    rep = _integer_row(p)
    if rep[chart] < 0:
        rep = [-v for v in rep]
    return tuple(rep), chart


def _powers(rep: tuple, d: int) -> list:
    """The table rep[t] ** e for e = 0..d, one row per coordinate."""
    return [[x ** e for e in range(d + 1)] for x in rep]


def _rows(n: int, d: int, rep: tuple, chart: int, order: int) -> tuple:
    """The one row builder: row beta holds d^beta z^g at the integer point rep
    for every column g of monomial_exponents(n, d), beta over the
    order-`order` partials in the coordinates other than `chart`.  Blocks are
    tuples, as `PointConfig` shares them between calls."""
    others = [t for t in range(n + 1) if t != chart]
    powers = _powers(rep, d)
    rows = []
    for beta in monomial_exponents(n - 1, order):
        row = []
        for g in monomial_exponents(n, d):
            v = powers[chart][g[chart]]
            for t, b in zip(others, beta):
                v *= perm(g[t], b) * powers[t][g[t] - b] if g[t] >= b else 0
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


def _condition_rows(d: int, mults, cfg: PointConfig) -> list:
    """The rows of every order below m_i at every curve point p_i, whose
    orthogonal complement is the section space, taken from cfg's block memo:
    a configuration builds each (d, i, order) block once."""
    blocks = cfg._blocks
    rows = []
    for i, m in enumerate(mults):
        for order in range(min(m, d + 1)):
            key = (d, i, order)
            if key not in blocks:
                blocks[key] = _rows(cfg.n, d, *cfg._reps[i], order)
            rows.extend(blocks[key])
    return rows


def _modular(rows: int, width: int) -> bool:
    """Whether conditions of this shape take the modular route: at least
    MODULAR_CELLS cells and a kernel-size bound max(width - rows, 0) of at
    most a quarter of the width.  From the crossover table of
    tools/crossover.py: past both, the modular route won or tied on every
    shape, and every elimination of the benchmark's generation workload
    (at most 20 columns and 1,200 cells) stays exact; with kernels of half
    the width it lost."""
    return rows * width >= MODULAR_CELLS and 4 * (width - rows) <= width


def _section_space(deg: int, mults: tuple, cfg: PointConfig):
    """The conditions of degree deg and multiplicities mults, solved, from
    cfg's slot, None or one ((deg, mults clipped at 0), space) pair: a
    configuration eliminates again only when asked about another class,
    and a negative m_i adds no condition.  The space is the certified
    canonical kernel tuple of `modular_kernel` when the conditions' shape
    passes the gate, `_modular`, and otherwise their `RowEchelon`, stopped
    at full column rank."""
    mults = tuple(max(a, 0) for a in mults)
    key = (deg, mults)
    if cfg._echelon is None or cfg._echelon[0] != key:
        rows, width = _condition_rows(deg, mults, cfg), len(monomial_exponents(cfg.n, deg))
        space = (modular_kernel if _modular(len(rows), width) else echelon)(rows, width)
        object.__setattr__(cfg, "_echelon", (key, space))
    return cfg._echelon[1]


def _section_kernel(deg: int, mults: tuple, cfg: PointConfig) -> tuple:
    """The canonical kernel basis of the conditions, from `_section_space`."""
    space = _section_space(deg, mults, cfg)
    return space if isinstance(space, tuple) else tuple(space.kernel())


def _peel(k: int, mults) -> tuple:
    """(h0, k', steps): h0 of kH - sum m_i E_i on P^2 by the one peel rule
    (`_dim` gives the argument), and, when h0 > 0, the degree k' of the nef
    class left and the fixed curves peeled off, in order, as (degree,
    copies): degree 1 for the line through two points holding the two
    largest m_i, 2 for the conic.  It works on sorted values; when h0 = 0,
    k' and steps are None."""
    m = sorted((max(a, 0) for a in mults), reverse=True)
    steps = []
    while m[0] <= k and sum(m[:4]) <= 2 * k:
        if m[0] + m[1] > k:  # D.L_12 < 0
            t = m[0] + m[1] - k
            k, m[0], m[1] = k - t, m[0] - t, m[1] - t
            steps.append((1, t))
        elif 2 * k < sum(m):  # D.C < 0
            p = len(m) - m.count(0)
            t = min(-((2 * k - sum(m)) // (p - 4)), m[p - 1])
            k, m = k - 2 * t, [max(a - t, 0) for a in m]
            steps.append((2, t))
        else:
            return (k + 1) * (k + 2) // 2 - sum(a * (a + 1) for a in m) // 2, k, steps
        m.sort(reverse=True)
    return 0, None, None


def _dim(k: int, mults, cfg: PointConfig) -> int:
    """h0 of D = kH - sum m_i E_i over cfg, the one h0 rule.

    On P^2 it builds no condition: it peels the fixed curves off D with
    `_peel`, the rule `form_space` replays on the points, and answers chi
    of what is left.  The minimal divisors there are the lines
    L_ij = H - E_i - E_j and the conic C = 2H - sum E_i.

    1. Fixed components.  Three points of a smooth conic are not collinear,
       so L_ij is the strict transform of a line through p_i and p_j only:
       irreducible, with L_ij^2 = -1.  C is the strict transform of the
       conic itself: irreducible, with C^2 = 4 - r < 0, as `BlowupContext`
       asks r >= 5.  If D.N < 0 for an irreducible curve N with N^2 < 0,
       N lies in every member of |D|, so h0(D) = h0(D - N).  Hence the
       rule clips each m_i < 0 to 0 (D.E_i < 0).  With m_1 >= m_2 >= ..,
       it subtracts L_12 while D.L_12 = k - m_1 - m_2 < 0, and otherwise C
       while D.C = 2k - sum m_i < 0, clipping the m_i = 0 it makes -1.
       A copy of L_12 raises D.L_12 by 1, and a clipped copy of C raises
       D.C by p - 4, p the number of m_i > 0, so one step takes every copy
       the test allows in a row: t = m_1 + m_2 - k lines, or the fewest
       conics that make D.C >= 0 or bring some m_i to 0.
       Two tests answer 0 first.  A nonzero form of degree k vanishes to
       order at most k at a point, so m_1 > k (or k < 0) gives h0 = 0.
       The conics through four of the points, no three collinear, form a
       pencil whose irreducible members cover the plane.  A form of degree
       k that contains none of them meets each in 2k points, counted with
       multiplicity (Bezout), so m_1 + m_2 + m_3 + m_4 > 2k gives h0 = 0.
       Past both tests, m_1 <= k gives t <= m_2 in a line step, and two
       lines with D.L < 0 share a point.  A line step sets D.L_12 = 0,
       leaves D.L as it was on the other lines through p_1 or p_2, and
       leaves it >= 0 on the rest (m_3 + m_4 <= 2k - m_1 - m_2 = k - t).
       So no line is peeled twice: at most r - 1 line steps.  Once
       m_1 + m_2 <= k, p <= 4 would give sum m_i <= 2k, so a conic step has
       p >= 5 and keeps m_1 + m_2 <= k; each one but the last brings some
       m_i to 0.  So at most 2r steps are taken, at any degree.
    2. Nef.  What is left pairs >= 0 with every E_i, L_ij and C.  By the
       paper's theorem their sections generate the Cox ring, so every
       effective class is a sum of their classes, and D is nef.
    3. h1 = 0.  Harbourne, "Anticanonical rational surfaces" (Trans. AMS
       349, 1997), Theorem III.1: on an anticanonical rational surface X, a
       numerically effective class F with -K_X.F >= 2 has h1(X, F) = 0.
       Its hypotheses hold: X is P^2 blown up at r distinct points, so a
       smooth projective rational surface; -K_X = 3H - sum E_i = H + C is
       effective; D is nef by step 2; and -K_X.D = k + (2k - sum m_i) >= k,
       which is >= 2 when k >= 2.  By hand for k <= 1: a nef class of degree
       0 has every m_i = 0, and h0 = 1; one of degree 1 has at most one
       m_i = 1, and h0 = 3 - sum m_i; both are chi.  And h2(D) =
       h0(K_X - D) = 0, since K_X - D has H-degree -3 - k < 0.  So
       h0(D) = chi(D) = (k + 1)(k + 2)/2 - sum m_i(m_i + 1)/2 by
       Riemann-Roch.

    For n >= 3 at r = n + 3 the class first walks to its chamber
    representative, whose degree is the least on the walk; then the
    degree-k forms vanishing to an order above k at a point are zero, and
    otherwise h0 is the size of the conditions' kernel, from
    `_section_space`: the width less the rank of an exact elimination, or
    past the gate the size of the certified modular kernel, where full
    rank mod the first prime answers 0 with no lift."""
    if cfg.n == 2:
        return _peel(k, mults)[0]
    if cfg.r == cfg.n + 3:
        k, *mults = _walk((k, *mults), _chamber(cfg.lattice_context())[0])
    if k < 0 or max(mults) > k:
        return 0
    space = _section_space(k, mults, cfg)
    return len(space) if isinstance(space, tuple) else space.width - space.rank


def h0(d: DivisorClass, cfg: PointConfig) -> int:
    """Dimension of the section space of d over the configuration.

    On P^2 nothing is eliminated, at any number of points: the lines
    through two points and the conic are peeled off d while d meets them
    negatively, and the nef class left has h0 = chi (`_dim` gives the
    argument).  It takes at most 2r integer steps, at any degree.

    For n >= 3 at r = n + 3 the Weyl group of T_{2,n+1,2} acts by Cremona
    transformations and permutations of the points, and h0 is invariant
    under it and does not depend on the parameters (Brambilla, Dumitrescu
    and Postinghel, "On the effective cone of P^n blown-up at n + 3 points",
    Exp. Math. 2016).  So h0(D) = h0(D+), where D+ is the chamber
    representative that `root_system._walk` reaches on the divisor moves,
    and only D+ is eliminated; a negative degree answers 0 at once.  This
    holds only at r = n + 3: on P^2 with six points h0(2H - sum E_i) = 1,
    but its reflection H - E_4 - E_5 - E_6 has h0 = 0, and above n + 3
    points D itself is solved, with no size bound.  Small condition
    matrices are eliminated exactly.  Past the gate (`_modular`: at least
    MODULAR_CELLS cells, and width - rows at most a quarter of the width)
    the answer is the size of a kernel lifted from residues and certified
    by an exact check (`linalg.modular_kernel`); full rank mod 2^127 - 1
    answers 0 with no lift, and a kernel no prime certifies is eliminated
    exactly.  The slot then holds D+, so `h0(D)`
    followed by `form_space(D)` solves twice when D+ != D; the first time,
    for D+, is the small one.

    >>> cfg = PointConfig.default(2, 5)
    >>> h0(DivisorClass(cfg.lattice_context(), (2,), (1, 1, 1, 1, 1)), cfg)
    1
    """
    _check_class(d, cfg.lattice_context())
    return _dim(hdeg(d), d.m, cfg)


@dataclass(frozen=True)
class FormSpace:
    """Monomial basis and exact kernel basis of one section space."""

    degree: int
    monomials: tuple
    kernel: tuple


def _degree(d: DivisorClass, cfg: PointConfig) -> int:
    """hdeg(d), once d is checked to live on cfg's blow-up and to have
    H-degree >= 0, so that it has forms to solve for."""
    _check_class(d, cfg.lattice_context())
    deg = hdeg(d)
    if deg < 0:
        raise PreconditionError("D", f"need H-degree >= 0, got {deg}")
    return deg


# z_0 z_2 - z_1^2, the conic through every point of the curve
_CONIC = {(1, 0, 1): 1, (0, 2, 0): -1}


def _times(f: dict, g: dict) -> dict:
    """The product of two forms held as {exponents: coefficient}."""
    out = {}
    for e, a in f.items():
        for h, b in g.items():
            key = tuple(map(add, e, h))
            out[key] = out.get(key, 0) + a * b
    return out


def _kernel(k: int, mults, cfg: PointConfig) -> tuple:
    """The canonical kernel basis of kH - sum m_i E_i, k >= 0, as
    `form_space` states it; on P^2 only the nef class left by `_peel` is
    eliminated."""
    steps = ()
    if cfg.n == 2:
        dim, rest, steps = _peel(k, mults)
        if not dim:
            return ()
    if not steps:
        return _section_kernel(k, mults, cfg)
    m, fixed = [max(a, 0) for a in mults], {(0, 0, 0): 1}
    for degree, t in steps:
        if degree == 1:  # the line through two points of the largest m_i
            i, j = sorted(range(cfg.r), key=m.__getitem__)[-2:]
            (p, _), (q, _) = cfg._reps[i], cfg._reps[j]
            m[i], m[j] = m[i] - t, m[j] - t
            cross = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
            curve = dict(zip(monomial_exponents(2, 1), cross))
        else:
            m, curve = [max(a - t, 0) for a in m], _CONIC
        for _ in range(t):
            fixed = _times(fixed, curve)
    monos = monomial_exponents(2, rest)
    if any(m):
        forms = [{g: c for g, c in zip(monos, _integer_row(v)) if c}
                 for v in _section_kernel(rest, m, cfg)]
    else:  # no condition is left: every form of degree rest
        forms = [{g: 1} for g in monos]
    columns = monomial_exponents(2, k)
    products = [_times(fixed, form) for form in forms]
    return _right_reduced([[f.get(g, 0) for g in columns] for f in products], len(columns))


def form_space(d: DivisorClass, cfg: PointConfig) -> FormSpace:
    """The forms of degree hdeg(d) vanishing to order m_i at each curve
    point p_i, and the canonical basis of that space: one vector per free
    column of the conditions' echelon (the columns that are not among the
    first independent ones), with 1 there and 0 in the other free columns.

    On P^2 only the nef class left by `_peel` is eliminated, and the
    steps are replayed on the points: a line step takes any two points
    holding the two largest m_i.  If D.N < 0 for one of the lines L_ij or
    the conic C, N is a fixed component of |D| (`_dim`, step 1), and
    multiplying by N's form s_N is an isomorphism H0(D - N) -> H0(D): it
    is injective, and the two sides have the same dimension by that step.
    So the forms of D are the products of the peeled curves' forms (each
    line the cross product of its two points' integer representatives,
    the conic z_0 z_2 - z_1^2) with the nef remainder's kernel.  A
    remainder with every m_i = 0 has every form of its degree, and needs
    no elimination.  The products span the space, but not in the canonical
    basis, which matroid duality recovers.  The kernel's rows and the
    conditions' rows span orthogonal complements, so their column matroids
    are dual, and the complement of a basis of one is a basis of the other.
    The conditions' first independent columns, taken left to right, are
    their least basis; so the free columns are the greatest basis of the
    kernel's columns, taken right to left, and the canonical basis is the
    products' reduced row echelon form on pivots chosen right to left,
    `linalg._right_reduced`, the step that ends the modular kernel's lift.

    For n >= 3 the class itself is solved, through cfg's slot.  Either
    route answers the same tuple: below the gate (`_modular`) an exact
    elimination, past it the kernel `linalg.modular_kernel` lifts from
    residues and certifies by an exact check, with an exact elimination
    when no prime certifies one.  The nef remainder on P^2
    takes the same gate.

    >>> cfg = PointConfig.default(2, 5)
    >>> fs = form_space(DivisorClass(cfg.lattice_context(), (2,), (1, 1, 1, 1, 1)), cfg)
    >>> [(g, str(c)) for g, c in zip(fs.monomials, fs.kernel[0]) if c]
    [((1, 0, 1), '-1'), ((0, 2, 0), '1')]
    """
    deg = _degree(d, cfg)
    return FormSpace(deg, monomial_exponents(cfg.n, deg), _kernel(deg, d.m, cfg))


def _z_names(n: int) -> tuple:
    return tuple(f"z_{t}" for t in range(n + 1))


def form_from_vector(n: int, d: int, vec) -> MultiPoly:
    """The form in z_0..z_n with coefficients `vec` over monomial_exponents(n, d)."""
    return MultiPoly(_z_names(n), {g: c for g, c in zip(monomial_exponents(n, d), vec) if c})


def _form_vector(f: MultiPoly, n: int) -> tuple:
    """(d, vec): the degree of a nonzero form f in z_0..z_n and s f as a
    vector, s > 0 the least scale making it integral; the one reader of z_i
    names."""
    names = _z_names(n)
    if any(v not in names for v in f.vars):
        raise PreconditionError("F", f"variables must lie in z_0..z_{n}")
    degrees = {sum(e) for e in f.terms}
    if len(degrees) > 1:
        raise PreconditionError("F", "need a homogeneous form")
    if f.is_zero():
        raise PreconditionError("F", "need a nonzero form")
    (deg,) = degrees
    coefs = _lift(f, names)
    return deg, _integer_row([coefs.get(g, 0) for g in monomial_exponents(n, deg)])


def section_vector(d: DivisorClass, cfg: PointConfig) -> tuple:
    """The unique form of a one-dimensional section space, as a vector with
    leading entry 1.  On P^2 a class with h0 != 1 is refused by the peel,
    before any elimination."""
    if cfg.n == 2 and (dim := _peel(_degree(d, cfg), d.m)[0]) != 1:
        raise PreconditionError("D", f"h0 = {dim}, need exactly 1")
    kernel = form_space(d, cfg).kernel
    if len(kernel) != 1:
        raise PreconditionError("D", f"h0 = {len(kernel)}, need exactly 1")
    lead = next(c for c in kernel[0] if c)
    return tuple(c / lead for c in kernel[0])


def section_of(d: DivisorClass, cfg: PointConfig) -> MultiPoly:
    """The unique form of a one-dimensional section space, with graded-lex
    leading coefficient 1.

    >>> cfg = PointConfig.default(2, 5)
    >>> conic = DivisorClass(cfg.lattice_context(), (2,), (1, 1, 1, 1, 1))
    >>> str(section_of(conic, cfg))
    'z_0*z_2 - z_1^2'
    """
    return form_from_vector(cfg.n, hdeg(d), section_vector(d, cfg))


def _order(n: int, deg: int, vec, chart: int, grade) -> int:
    """The least order o of a partial d^beta of the degree-deg form `vec`,
    beta over the order-o partials in the coordinates other than `chart`,
    that is not zero.  d^beta z^g = c(g, beta) z^(g - beta) with
    c(g, beta) = prod_t perm(g_t, beta_t); `grade(e)` is (key, value) for
    the monomial z^e, and the partial is zero when, for every key, the sum
    of c(g, beta) v_g value over the columns g of that key is zero."""
    terms = [(g, v) for g, v in zip(monomial_exponents(n, deg), vec) if v]
    others = [t for t in range(n + 1) if t != chart]
    for order in range(deg + 1):
        for beta in monomial_exponents(n - 1, order):
            sums = {}
            for g, v in terms:
                e = list(g)
                for t, b in zip(others, beta):
                    if e[t] < b:
                        break
                    v *= perm(e[t], b)
                    e[t] -= b
                else:
                    key, value = grade(e)
                    sums[key] = sums.get(key, 0) + v * value
            if any(sums.values()):
                return order


def mult_at_point(f: MultiPoly, p):
    """Smallest total order of a nonvanishing derivative of f at p; the
    zero form returns the +infinity sentinel.  In the chart of p's first
    nonzero coordinate a nonzero form of degree d is a nonzero polynomial
    of degree <= d, so some order <= d qualifies.  Each chart partial is
    summed at p's integer representative P, whose powers come from one
    table per call; the partials are homogeneous, so the representative
    does not matter."""
    if f.is_zero():
        return inf
    n = len(p) - 1
    deg, vec = _form_vector(f, n)
    rep, chart = _representative(p)
    powers = _powers(rep, deg)
    return _order(n, deg, vec, chart, lambda e: (0, prod(map(getitem, powers, e))))


def mult_along_curve(f: MultiPoly, cfg: PointConfig):
    """Largest m such that all partials of f of order < m vanish on the
    whole curve s -> (1, s, .., s^n); the zero form returns the +infinity
    sentinel, as `mult_at_point` does.

    An order-o chart partial d^beta f, beta in z_1..z_n, restricts to the
    curve as sum_g c(g, beta) v_g s^w(g - beta), with w(e) = sum_t t e_t
    and c(g, beta) = prod_t perm(g_t, beta_t).  It vanishes identically
    exactly when the coefficients summed by weight all vanish, so `_order`
    sums them by weight before testing them for zero, and samples no
    points.  On the curve z_0 = 1, and Euler's relation
    z_0 d_0 g = deg(g) g - sum_{t>0} z_t d_t g makes the chart partials
    vanish to a given order exactly when all homogeneous partials do.
    Exact arithmetic needs no fallback.
    """
    if f.is_zero():
        return inf
    n = cfg.n
    deg, vec = _form_vector(f, n)
    return _order(n, deg, vec, 0, lambda e: (sum(map(mul, e, range(n + 1))), 1))


@dataclass(frozen=True)
class GenerationReport:
    h0: int
    span_dim: int
    generated: bool


def _grid_values(j: int, cfg: PointConfig, deg: int) -> list:
    """The section of cfg's generator j at the points (1, e_1, .., e_n) for
    e in monomial_exponents(cfg.n, deg).  The section is solved once per
    configuration and kept in cfg's memo scaled to integer coefficients, as
    pairs (exponents of z_1..z_n, c) over its nonzero monomials; spans do not
    see the scale, and integer products are cheaper than Fraction ones."""
    if j not in cfg._terms:
        k, _, g = cfg._gens[j]
        vec = _integer_row(section_vector(g, cfg))
        cfg._terms[j] = tuple((m[1:], c) for m, c in zip(monomial_exponents(cfg.n, k), vec) if c)
    terms = cfg._terms[j]
    return [sum(c * prod(map(pow, e[1:], m)) for m, c in terms)
            for e in monomial_exponents(cfg.n, deg)]


def generation_test(d: DivisorClass, cfg: PointConfig,
                    cap: int | None = None) -> GenerationReport:
    """Compare the span of products of minimal-divisor sections with the
    full section space of d.

    A product qualifies when its factors' H-degrees sum to hdeg(d) and their
    multiplicities dominate d's (exceptional factors absorb the surplus).
    Those of H-degree k over m span Span(k, m) = sum_g s_g * Span(k - k_g,
    max(m - m_g, 0)), with Span(0, 0) the constants and Span(k, m) = 0 when
    some m_i > k.  Each state is solved once per call, on the principal
    lattice of degree hdeg(d), and the cap counts the states.  A state lies
    in the section space of kH - sum m_i E_i, so at rank h0 it is that whole
    space and stops, losing nothing.  Each state's h0 is `h0`'s rule, so on
    P^2 it is peeled and eliminates nothing, and for n >= 3 at r = n + 3 it
    eliminates only the state's chamber representative, while the rows
    stay in the state's own space.  An elimination goes through cfg's
    slot, which is put back after the span, or its cap; for
    n >= 3 the generators' sections eliminate there too, while on P^2 each
    is a line or the conic, peeled to degree 0 with no elimination.

    cfg lists its generators once, and solves a generator's section and its
    values per degree the first time a product uses them, keeping all three;
    so a configuration that answers few tests, as a single CLI call does,
    solves only the generators their products use.  The size caps are
    checked before h0 builds any condition.
    """
    _check_class(d, cfg.lattice_context())
    if cfg.n > 4:
        raise PreconditionError("n", "generation test capped at ambient dimension 4")
    deg = hdeg(d)
    if deg < 0:
        return GenerationReport(0, 0, True)
    width = len(monomial_exponents(cfg.n, deg))
    if width > GENERATION_MONOMIAL_CAP:
        raise CapExceeded("generation monomial basis", GENERATION_MONOMIAL_CAP)
    budget = effective_cap(cap, default=GENERATION_STATE_CAP)
    dim = h0(d, cfg)
    if dim == 0:
        return GenerationReport(0, 0, True)
    if cfg._gens is None:
        object.__setattr__(cfg, "_gens", tuple(sorted(
            ((hdeg(g), g.m, g) for g in enumerate_minimal(cfg.blowup_context())),
            key=lambda t: (-t[0], t[2].sort_key()))))
    values = cfg._values.setdefault(deg, {})
    constants = RowEchelon(width)
    constants.add([1] * width)
    memo = {(0, (0,) * cfg.r): constants}

    def span(k: int, m: tuple) -> RowEchelon:
        if (k, m) in memo:
            return memo[k, m]
        if len(memo) == budget:
            raise CapExceeded("generation span states", budget)
        memo[k, m] = ech = RowEchelon(width)
        full = _dim(k, m, cfg)
        for j, (kg, mg, _) in enumerate(cfg._gens):
            if ech.rank == full:
                break
            if kg <= k:
                for _, row in span(k - kg, tuple(max(a - b, 0) for a, b in zip(m, mg))).rows:
                    if j not in values:
                        values[j] = _grid_values(j, cfg, deg)
                    if ech.add(list(map(mul, values[j], row))) and ech.rank == full:
                        break
        return ech

    slot = cfg._echelon
    try:  # a negative m_i adds no condition
        rank = span(deg, tuple(max(a, 0) for a in d.m)).rank
    finally:  # the states and the sections solved on the way took the slot
        object.__setattr__(cfg, "_echelon", slot)
    return GenerationReport(dim, rank, rank == dim)
