"""Exact section-space computations for blow-ups of P^n along a rational
normal curve.

A divisor class d H - sum m_i E_i is realized as the space of degree-d
forms in z_0..z_n vanishing to order at least m_i at the curve points
p_i = (1, a_i, a_i^2, .., a_i^n).  Vanishing conditions are imposed in the
affine chart z_0 = 1 through all partial derivatives of order below m_i,
and every kernel, rank and multiplicity below is computed over exact
rationals.  The generation test multiplies the unique sections of the
minimal divisors and compares the span against the full section space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import inf, lcm, perm
import random

from .blowup_divisors import BlowupContext, enumerate_minimal
from .budget import effective_cap
from .errors import CapExceeded, PreconditionError
from .jsonutil import decode_fraction, decode_int, encode_fraction
from .linalg import RowEchelon, nullspace, rank
from .multipoly import MultiPoly
from .picard_lattice import DivisorClass, LatticeContext, hdeg

GENERATION_MONOMIAL_CAP = 20000
GENERATION_NODE_CAP = 10 ** 5


@dataclass(frozen=True)
class PointConfig:
    """r distinct parameters a_i marking points on the rational normal curve.

    >>> PointConfig.default(2, 5).params
    (Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(4, 1), Fraction(5, 1))
    """

    n: int
    r: int
    params: tuple

    def __post_init__(self):
        BlowupContext(self.n, self.r)  # validates n and r
        params = tuple(Fraction(v) for v in self.params)
        if len(params) != self.r:
            raise PreconditionError("params", f"expected {self.r} values, got {len(params)}")
        if len(set(params)) != len(params):
            raise PreconditionError("params", "parameters must be pairwise distinct")
        object.__setattr__(self, "params", params)

    @classmethod
    def default(cls, n: int, r: int) -> "PointConfig":
        return cls(n, r, tuple(range(1, r + 1)))

    @classmethod
    def random(cls, n: int, r: int, seed: int) -> "PointConfig":
        rng = random.Random(seed)
        chosen = set()
        while len(chosen) < r:
            chosen.add(Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
        return cls(n, r, tuple(sorted(chosen)))

    def blowup_context(self) -> BlowupContext:
        return BlowupContext(self.n, self.r)

    def lattice_context(self) -> LatticeContext:
        return self.blowup_context().lattice_context()

    def points(self) -> list:
        return [tuple(a ** j for j in range(self.n + 1)) for a in self.params]

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r,
                "params": [encode_fraction(a) for a in self.params]}

    @classmethod
    def from_json(cls, obj) -> "PointConfig":
        if not isinstance(obj, dict):
            raise PreconditionError("config", f"expected an object, got {obj!r}")
        try:
            return cls(decode_int(obj["n"]), decode_int(obj["r"]),
                       tuple(decode_fraction(v) for v in obj["params"]))
        except KeyError as missing:
            raise PreconditionError("config", f"missing key {missing.args[0]!r}") from None


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


def _condition_rows(d: int, mults, cfg: PointConfig) -> list:
    """One row per (point, partial of order < m_i), entries indexed by the
    degree-d monomial columns.

    In the chart z_0 = 1 the monomial z^g restricts to the product of
    u_t^{g_t}, u_t = a^t; the derivative by beta contributes falling
    factorials and drops exponents.
    """
    cols = monomial_exponents(cfg.n, d)
    rows = []
    for a, m in zip(cfg.params, mults):
        for order in range(min(m, d + 1)):
            for beta in monomial_exponents(cfg.n - 1, order):
                row = []
                for g in cols:
                    coef = 1
                    shift = 0
                    for t in range(1, cfg.n + 1):
                        coef *= perm(g[t], beta[t - 1])
                        if coef == 0:
                            break
                        shift += t * (g[t] - beta[t - 1])
                    row.append(coef * a ** shift if coef else Fraction(0))
                rows.append(row)
    return rows


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
    ncols = len(monomial_exponents(cfg.n, deg))
    rows = _condition_rows(deg, d.m, cfg)
    if not rows:
        return ncols
    return ncols - rank(rows)


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
    cols = monomial_exponents(cfg.n, deg)
    rows = _condition_rows(deg, d.m, cfg)
    kernel = tuple(nullspace(rows, len(cols)))
    return FormSpace(deg, cols, kernel)


def _z_names(n: int) -> tuple:
    return tuple(f"z_{t}" for t in range(n + 1))


def section_of(d: DivisorClass, cfg: PointConfig) -> MultiPoly:
    """The unique form of a one-dimensional section space, with graded-lex
    leading coefficient 1.

    >>> cfg = PointConfig.default(2, 5)
    >>> conic = DivisorClass(cfg.lattice_context(), (2,), (1, 1, 1, 1, 1))
    >>> str(section_of(conic, cfg))
    'z_0*z_2 - z_1^2'
    """
    fs = form_space(d, cfg)
    if len(fs.kernel) != 1:
        raise PreconditionError("D", f"h0 = {len(fs.kernel)}, need exactly 1")
    names = _z_names(cfg.n)
    poly = MultiPoly(names, {g: c for g, c in zip(fs.monomials, fs.kernel[0]) if c})
    return poly * (1 / poly.leading()[1])


def _check_form(f: MultiPoly, nvars: int, allow_zero: bool = False):
    names = set(_z_names(nvars - 1))
    if any(v not in names for v in f.vars):
        raise PreconditionError("F", f"variables must lie in z_0..z_{nvars - 1}")
    degrees = {sum(e) for e in f.terms}
    if len(degrees) > 1:
        raise PreconditionError("F", "need a homogeneous form")
    if not allow_zero and f.is_zero():
        raise PreconditionError("F", "need a nonzero form")


def _recenter(f: MultiPoly, p) -> MultiPoly:
    """Rewrite a form in affine coordinates u_1..u_n centered at p."""
    p = tuple(Fraction(v) for v in p)
    chart = next((j for j, v in enumerate(p) if v), None)
    if chart is None:
        raise PreconditionError("p", "point must not be the zero vector")
    scaled = tuple(v / p[chart] for v in p)
    mapping = {}
    slot = 0
    for t, v in enumerate(scaled):
        if t == chart:
            mapping[f"z_{t}"] = MultiPoly.const(1)
        else:
            slot += 1
            mapping[f"z_{t}"] = MultiPoly.variable(f"u_{slot}") + v
    return f.substitute(mapping)


def mult_at_point(f: MultiPoly, p):
    """Smallest total order of a nonvanishing derivative of f at p; the
    zero form returns the +infinity sentinel."""
    if f.is_zero():
        return inf
    _check_form(f, len(p))
    local = _recenter(f, p)
    return min(sum(e) for e in local.terms)


def initial_form_at_point(f: MultiPoly, p) -> MultiPoly:
    """Lowest-degree homogeneous part of f in affine coordinates at p.

    >>> F = MultiPoly.variable("z_1") * MultiPoly.variable("z_2")
    >>> str(initial_form_at_point(F, (1, 0, 0)))
    'u_1*u_2'
    """
    _check_form(f, len(p))
    local = _recenter(f, p)
    low = min(sum(e) for e in local.terms)
    return MultiPoly(local.vars, {e: c for e, c in local.terms.items() if sum(e) == low})


def mult_along_curve(f: MultiPoly, cfg: PointConfig) -> int:
    """Largest m such that all partials of f of order < m vanish on the
    whole curve (an identity in the parameter after z_j -> s^j)."""
    _check_form(f, cfg.n + 1)
    curve = {f"z_{j}": MultiPoly.variable("s") ** j for j in range(cfg.n + 1)}
    names = _z_names(cfg.n)
    level = {(): f}
    order = 0
    while True:
        if any(not g.substitute(curve).is_zero() for g in level.values()):
            return order
        nxt = {}
        for beta, g in level.items():
            padded = beta + (0,) * (cfg.n + 1 - len(beta))
            for t, name in enumerate(names):
                key = tuple(v + (1 if i == t else 0) for i, v in enumerate(padded))
                if key not in nxt:
                    nxt[key] = g.deriv(name)
        level = nxt
        order += 1


@dataclass(frozen=True)
class GenerationReport:
    h0: int
    span_dim: int
    generated: bool


@lru_cache(maxsize=4096)
def _section_table(d: DivisorClass, cfg: PointConfig) -> dict:
    # the section scaled to integer coefficients, keyed by full exponent
    # tuples; spans are scale-invariant, and integer products are cheaper
    # than Fraction ones.  The full criterion-9 grid touches 173 sections,
    # so the bound only ever evicts sections of configurations long gone
    f = section_of(d, cfg)
    scale = lcm(*(c.denominator for c in f.terms.values()))
    out = {}
    for e, c in f.terms.items():
        full = [0] * (cfg.n + 1)
        for name, exp in zip(f.vars, e):
            full[int(name.partition("_")[2])] = exp
        out[tuple(full)] = int(c * scale)
    return out


def _table_mul(t1: dict, t2: dict) -> dict:
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def generation_test(d: DivisorClass, cfg: PointConfig,
                    cap: int | None = None) -> GenerationReport:
    """Compare the span of products of minimal-divisor sections with the
    full section space of d.

    Multisets of minimal classes with total H-degree hdeg(d) are walked
    depth-first; a multiset qualifies when its accumulated multiplicities
    dominate d's (the surplus is absorbed by exceptional factors, which
    multiply the class but not the form).  Search stops as soon as the
    span fills.
    """
    _match(d, cfg)
    if cfg.n > 4:
        raise PreconditionError("n", "generation test capped at ambient dimension 4")
    deg = hdeg(d)
    dim = h0(d, cfg)
    if deg < 0:
        return GenerationReport(dim, 0, dim == 0)
    cols = monomial_exponents(cfg.n, deg)
    if len(cols) > GENERATION_MONOMIAL_CAP:
        raise CapExceeded("generation monomial basis", GENERATION_MONOMIAL_CAP)
    budget = effective_cap(cap, default=GENERATION_NODE_CAP)
    gens = sorted(enumerate_minimal(cfg.blowup_context()),
                  key=lambda g: (-hdeg(g), g.sort_key()))
    index = {g: i for i, g in enumerate(cols)}
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
            product = {(0,) * (cfg.n + 1): 1}
            for g in parts:
                product = _table_mul(product, _section_table(g, cfg))
            vec = [0] * len(cols)
            for e, c in product.items():
                vec[index[e]] = c
            span.add(vec)
            return span.rank == dim
        for j in range(start, len(gens)):
            g = gens[j]
            if hdeg(g) > deg_left:
                continue
            if dfs(j, deg_left - hdeg(g),
                   tuple(c + m for c, m in zip(cover, g.m)), parts + (g,)):
                return True
        return False

    if dim > 0:
        dfs(0, deg, (0,) * cfg.r, ())
    return GenerationReport(dim, span.rank, span.rank == dim)
