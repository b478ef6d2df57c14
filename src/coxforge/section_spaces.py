"""Exact section-space computations for blow-ups of P^n along a rational
normal curve.

A divisor class d H - sum m_i E_i is realized as the space of degree-d
forms in z_0..z_n, coefficient vectors over `monomial_exponents(n, d)`,
vanishing to order at least m_i at the curve points p_i = (1, a_i, .., a_i^n).
One row builder, `_rows` (the integer partials of the monomials at an
integer point), yields the conditions of h0, the multiplicity at a point
and the order along the curve, all exactly.
A `PointConfig` scales its points to integers once and keeps every block of
conditions it has built, per (degree, point, order), for as long as it
lives, so a pass that asks hundreds of classes on one configuration builds
each block once; other points are not kept.  It also keeps the echelon of
the last section space it was asked about, so `h0`, `form_space` and
`section_of` on one class eliminate its conditions once: h0 is the width
less the rank, and the kernel is read off the same echelon.  The
generation test multiplies the unique sections of the minimal divisors
and compares the span against the full section space.  There a degree-d
form is held by its integer values at the principal lattice
(1, e_1, .., e_n), e in `monomial_exponents(n, d)`, the same index set as
its coefficients.  The lattice is unisolvent for degree d (Nicolaides 1972;
Chung and Yao 1977), so evaluation is a bijection on degree-d forms: spans
keep their ranks, and a product of forms is the pointwise product of their
values.  The configuration keeps the test's generator list, their integer
sections and their grid values too; no module-level cache is keyed on one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import inf, lcm, perm, prod
from operator import add, mul

from .blowup_divisors import BlowupContext, curve_params, enumerate_minimal, random_params
from .budget import effective_cap
from .errors import CapExceeded, PreconditionError
from .jsonutil import encode_fraction
from .linalg import RowEchelon, echelon
from .multipoly import MultiPoly, _coerce_coef, _lift
from .picard_lattice import DivisorClass, LatticeContext, hdeg

GENERATION_MONOMIAL_CAP = 20000
GENERATION_NODE_CAP = 10 ** 5


@dataclass(frozen=True)
class PointConfig:
    """r distinct parameters a_i marking points on the rational normal curve,
    under the rule `NagataParams` shares (`curve_params`, `random_params`).

    A configuration also keeps its points' integer representatives and the
    section layer's memos: the condition blocks `_condition_rows` has built,
    keyed by (d, i, order); the echelon of the last section space asked
    about, keyed by (d, mults); and the generation test's generators, their
    integer section terms and their values per degree.  None takes part in
    equality, hashing, repr or JSON.  For the degrees d asked they hold at
    most r * sum(d + 1) blocks, one echelon, and one entry per generator and
    per (degree, generator); all live exactly as long as the configuration.

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
        return self.blowup_context().lattice_context()

    def points(self) -> list:
        return [tuple(a ** j for j in range(self.n + 1)) for a in self.params]

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r,
                "params": [encode_fraction(a) for a in self.params]}


def _match(d: DivisorClass, cfg: PointConfig):
    if d.ctx != cfg.lattice_context():
        raise PreconditionError("D", "class does not live on this configuration's blow-up")


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
    scale = lcm(*(v.denominator for v in p)) * (1 if p[chart] > 0 else -1)
    return tuple(v.numerator * (scale // v.denominator) for v in p), chart


def _rows(n: int, d: int, rep: tuple, chart: int, order: int) -> tuple:
    """The one row builder: row beta holds d^beta z^g at the integer point rep
    for every column g of monomial_exponents(n, d), beta over the
    order-`order` partials in the coordinates other than `chart`.  Blocks are
    tuples, as `PointConfig` shares them between calls."""
    others = [t for t in range(n + 1) if t != chart]
    rows = []
    for beta in monomial_exponents(n - 1, order):
        row = []
        for g in monomial_exponents(n, d):
            v = rep[chart] ** g[chart]
            for t, b in zip(others, beta):
                v *= perm(g[t], b) * rep[t] ** (g[t] - b) if g[t] >= b else 0
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


def _section_echelon(deg: int, mults: tuple, cfg: PointConfig) -> RowEchelon:
    """The echelon of the conditions of degree deg and multiplicities
    mults, stopped at full column rank, from cfg's slot, None or one
    ((deg, mults), echelon) pair: a configuration eliminates again only when
    asked about another class."""
    key = (deg, mults)
    if cfg._echelon is None or cfg._echelon[0] != key:
        ech = echelon(_condition_rows(deg, mults, cfg), len(monomial_exponents(cfg.n, deg)))
        object.__setattr__(cfg, "_echelon", (key, ech))
    return cfg._echelon[1]


def h0(d: DivisorClass, cfg: PointConfig) -> int:
    """Dimension of the section space of d over the configuration.

    >>> cfg = PointConfig.default(2, 5)
    >>> h0(DivisorClass(cfg.lattice_context(), (2,), (1, 1, 1, 1, 1)), cfg)
    1
    """
    _match(d, cfg)
    deg = hdeg(d)
    if deg < 0:
        return 0
    ech = _section_echelon(deg, d.m, cfg)
    return ech.width - ech.rank


@dataclass(frozen=True)
class FormSpace:
    """Monomial basis and exact kernel basis of one section space."""

    degree: int
    monomials: tuple
    kernel: tuple


def form_space(d: DivisorClass, cfg: PointConfig) -> FormSpace:
    _match(d, cfg)
    deg = hdeg(d)
    if deg < 0:
        raise PreconditionError("D", f"need H-degree >= 0, got {deg}")
    kernel = tuple(_section_echelon(deg, d.m, cfg).kernel())
    return FormSpace(deg, monomial_exponents(cfg.n, deg), kernel)


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
    scale = lcm(*(c.denominator for c in coefs.values()))
    return deg, [int(coefs[g] * scale) if g in coefs else 0
                  for g in monomial_exponents(n, deg)]


def section_vector(d: DivisorClass, cfg: PointConfig) -> tuple:
    """The unique form of a one-dimensional section space, as a vector with leading entry 1."""
    fs = form_space(d, cfg)
    if len(fs.kernel) != 1:
        raise PreconditionError("D", f"h0 = {len(fs.kernel)}, need exactly 1")
    lead = next(c for c in fs.kernel[0] if c)
    return tuple(c / lead for c in fs.kernel[0])


def section_of(d: DivisorClass, cfg: PointConfig) -> MultiPoly:
    """The unique form of a one-dimensional section space, with graded-lex
    leading coefficient 1.

    >>> cfg = PointConfig.default(2, 5)
    >>> conic = DivisorClass(cfg.lattice_context(), (2,), (1, 1, 1, 1, 1))
    >>> str(section_of(conic, cfg))
    'z_0*z_2 - z_1^2'
    """
    return form_from_vector(cfg.n, hdeg(d), section_vector(d, cfg))


def _order(n: int, deg: int, vec, reps) -> int:
    """The least order of a partial of the degree-deg form `vec` that is
    nonzero at an integer point (P, c) of `reps`, asking at order o only the
    first (deg - o) n + 1 of them (a single point is its own prefix).  The
    partials are homogeneous, so the representative does not matter."""
    for order in range(deg + 1):
        if any(sum(a * c for a, c in zip(row, vec) if c)
               for rep, chart in reps[:(deg - order) * n + 1]
               for row in _rows(n, deg, rep, chart, order)):
            return order


def mult_at_point(f: MultiPoly, p):
    """Smallest total order of a nonvanishing derivative of f at p; the
    zero form returns the +infinity sentinel.  In the chart of p's first
    nonzero coordinate a nonzero form of degree d is a nonzero polynomial
    of degree <= d, so some order <= d qualifies."""
    if f.is_zero():
        return inf
    n = len(p) - 1
    deg, vec = _form_vector(f, n)
    return _order(n, deg, vec, [_representative(p)])


def mult_along_curve(f: MultiPoly, cfg: PointConfig) -> int:
    """Largest m such that all partials of f of order < m vanish on the
    whole curve s -> (1, s, .., s^n).

    An order-o partial of a degree-d form restricts to the curve as a
    polynomial in s of degree <= (d - o) n, so it vanishes identically once
    it vanishes at s = 0..(d - o) n, at most dn + 1 parameters: `_order`
    asks that prefix of the curve points, which shrinks as o grows.  There
    z_0 = 1, and Euler's relation z_0 d_0 g = deg(g) g - sum_{t>0} z_t d_t g
    makes the chart partials of `_rows` vanish to a given order exactly
    when all homogeneous partials do.  Exact arithmetic needs no fallback.
    """
    n = cfg.n
    deg, vec = _form_vector(f, n)
    return _order(n, deg, vec, [(tuple(s ** j for j in range(n + 1)), 0)
                                for s in range(deg * n + 1)])


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
        vec = section_vector(g, cfg)
        scale = lcm(*(c.denominator for c in vec))
        cfg._terms[j] = tuple((m[1:], int(c * scale))
                              for m, c in zip(monomial_exponents(cfg.n, k), vec) if c)
    terms = cfg._terms[j]
    return [sum(c * prod(map(pow, e[1:], m)) for m, c in terms)
            for e in monomial_exponents(cfg.n, deg)]


def generation_test(d: DivisorClass, cfg: PointConfig,
                    cap: int | None = None) -> GenerationReport:
    """Compare the span of products of minimal-divisor sections with the
    full section space of d.

    Multisets of minimal classes with total H-degree hdeg(d) are walked
    depth-first; a multiset qualifies when its accumulated multiplicities
    dominate d's (the surplus is absorbed by exceptional factors, which
    multiply the class but not the form).  Search stops as soon as the
    span fills.

    Each product enters the span as its values on the principal lattice of
    degree hdeg(d), the pointwise product of its factors' values there (see
    the module docstring); the rank after every product is the rank its
    coefficient vectors would give.  cfg lists its generators once, and
    solves a generator's section and its values per degree the first time a
    product uses them, keeping all three; so a configuration that answers
    few tests, as a single CLI call does, solves only the generators their
    products use.  The size caps are checked before h0 builds any condition.
    """
    _match(d, cfg)
    if cfg.n > 4:
        raise PreconditionError("n", "generation test capped at ambient dimension 4")
    deg = hdeg(d)
    if deg < 0:
        return GenerationReport(0, 0, True)
    cols = monomial_exponents(cfg.n, deg)
    if len(cols) > GENERATION_MONOMIAL_CAP:
        raise CapExceeded("generation monomial basis", GENERATION_MONOMIAL_CAP)
    budget = effective_cap(cap, default=GENERATION_NODE_CAP)
    dim = h0(d, cfg)
    if dim == 0:
        return GenerationReport(0, 0, True)
    if cfg._gens is None:
        object.__setattr__(cfg, "_gens", tuple(sorted(
            ((hdeg(g), g.m, g) for g in enumerate_minimal(cfg.blowup_context())),
            key=lambda t: (-t[0], t[2].sort_key()))))
    gens = cfg._gens
    values = cfg._values.setdefault(deg, {})
    span = RowEchelon(len(cols))
    nodes = 0

    def dfs(start: int, deg_left: int, cover: tuple, parts: tuple) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CapExceeded("generation multiset search", budget)
        if any(c + deg_left < m for c, m in zip(cover, d.m)):
            return False
        if deg_left == 0:
            product = [1] * len(cols)
            for j in parts:
                if j not in values:
                    values[j] = _grid_values(j, cfg, deg)
                product = map(mul, product, values[j])
            span.add(list(product))
            return span.rank == dim
        for j in range(start, len(gens)):
            k, mults, _ = gens[j]
            if k <= deg_left and dfs(j, deg_left - k, tuple(map(add, cover, mults)), parts + (j,)):
                return True
        return False

    dfs(0, deg, (0,) * cfg.r, ())
    return GenerationReport(dim, span.rank, span.rank == dim)
