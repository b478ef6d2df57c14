"""The four benchmark workloads: their queries, warm-up and answer checks.

A workload turns a seed into passes of queries.  Every pass draws fresh point
or Nagata parameters from the seed and the pass number, so no answer can be
reused from one pass to the next, while the classes asked about stay the same
from pass to pass; inside a pass the queries share their configuration, as
they do in ``coxforge.verify``.

Queries reach the library through module attributes (``ss.h0``,
``rsys.weyl_orbit``, ...), the names the tracer replaces, so every call is
seen when tracing.  Answer checks use only the names bound when this module is
imported, or no library code at all, so checking adds nothing to a trace.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path
from typing import Callable

from coxforge import blowup_divisors as bd
from coxforge import nagata_invariants as ni
from coxforge import root_system as rsys
from coxforge import section_spaces as ss
from coxforge.errors import CapExceeded
from coxforge.multipoly import MultiPoly
from coxforge.picard_lattice import (
    DivisorClass,
    LatticeContext,
    anticanonical,
    intersect,
    pairing_coords,
)

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# criterion-9 grid: (n, r, d <= dmax, multiplicity mode); a pass asks every
# GENERATION_STRIDE-th class of each cell, 636 queries in all
GENERATION_GRID = (
    (2, 5, 4, "all"), (2, 6, 3, "all"), (2, 7, 4, "sorted"),
    (3, 6, 3, "sorted"), (3, 7, 3, "sorted"), (4, 7, 2, "sorted"),
)
GENERATION_STRIDE = 16

# (n, r, d, m): near-square condition matrices; three have h0 = 1 and go
# through section_of, (2, 5, 8, 4^5) is the fourth power of the conic
HIGH_DEGREE_CLASSES = (
    (2, 5, 5, (3, 3, 2, 2, 1)),
    (2, 5, 6, (5, 2, 2, 2, 2)),
    (2, 5, 7, (4, 4, 3, 3, 2)),
    (2, 5, 8, (4, 4, 4, 4, 4)),
    (3, 6, 3, (2, 2, 2, 2, 1, 1)),
    (3, 6, 4, (4, 2, 2, 2, 2, 2)),
    (3, 6, 5, (3, 3, 3, 3, 3, 2)),
)

INVARIANT_DIMENSIONS = (4, 5)

ORBIT_CONTEXTS = ((2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5))
MINUSCULE_CONTEXTS = (
    (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6), (3, 1, 3), (3, 1, 4),
    (4, 1, 3), (2, 1, 3), (2, 3, 3), (2, 4, 3), (2, 3, 4), (2, 3, 5),
)
MEMBERSHIP_CONTEXTS = ((2, 2, 5), (2, 3, 3), (2, 3, 4))
MEMBERSHIP_SAMPLES = 40
DECOMPOSE_CONTEXTS = ((2, 2, 3), (2, 2, 4), (2, 3, 3))
DECOMPOSE_MAX_K = 4
AFFINE_CONTEXT = (2, 4, 4)
AFFINE_CAP = 1000


@dataclass(frozen=True)
class Query:
    """One closed-loop request: `run` asks the library, `check` judges the answer."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def derive_seed(*parts) -> int:
    """A 32-bit seed fixed by its parts, the same in every process."""
    return random.Random(":".join(map(str, parts))).randrange(2 ** 32)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _key(t) -> str:
    return ",".join(map(str, t))


def _degree(d: DivisorClass) -> Fraction:
    # deg D = (D, -K) / kappa, without going through the traced pairing
    k = anticanonical(d.ctx)
    return Fraction(pairing_coords(d.ctx, d.h, d.m, k.h, k.m), d.ctx.kappa)


def _z_names(n: int) -> tuple:
    return tuple(f"z_{t}" for t in range(n + 1))


class Workload:
    name = ""
    min_passes = 3

    def __init__(self, seed: int, expected: dict):
        self.seed = seed

    def configs(self, p: int) -> list:
        """The parameters drawn for pass p."""
        raise NotImplementedError

    def queries(self, p: int) -> list:
        raise NotImplementedError

    def warm_up_queries(self) -> list:
        """Queries answered before timing starts, so lazy set-up is done."""
        raise NotImplementedError

    def describe(self, p: int) -> dict:
        """Pass p's inputs as JSON, for checking that they follow the seed."""
        return {"configs": [c.to_json() for c in self.configs(p)],
                "queries": [q.label for q in self.queries(p)]}


def generation_cell_classes(n: int, r: int, dmax: int, mode: str):
    """(d, m) of a criterion-9 cell in verify's enumeration order."""
    for d in range(dmax + 1):
        if mode == "all":
            mults = product(range(d + 1), repeat=r)
        else:
            mults = combinations_with_replacement(range(d, -1, -1), r)
        for m in mults:
            yield d, m


class Generation(Workload):
    """h0 and, where positive, the generation test, on the criterion-9 grid."""

    name = "generation"

    def __init__(self, seed: int, expected: dict):
        super().__init__(seed, expected)
        self.cells = []
        for n, r, dmax, mode in GENERATION_GRID:
            ctx = bd.BlowupContext(n, r).lattice_context()
            h0s = expected["generation_h0"][_key((n, r, dmax, mode))]
            picked = [(DivisorClass(ctx, (d,), m), int(h0s[i], 36))
                      for i, (d, m) in enumerate(generation_cell_classes(n, r, dmax, mode))
                      if i % GENERATION_STRIDE == 0]
            self.cells.append((n, r, picked))

    def configs(self, p: int) -> list:
        return [ss.PointConfig.random(n, r, derive_seed(self.seed, self.name, p, ci))
                for ci, (n, r, _) in enumerate(self.cells)]

    def _queries(self, cfgs, per_cell=None) -> list:
        out = []
        for cfg, (n, r, picked) in zip(cfgs, self.cells):
            for dd, want in picked[:per_cell]:
                out.append(Query(f"generation {n},{r} d={dd.h[0]} m={dd.m}",
                                 partial(self._answer, dd, cfg), partial(self._check, want)))
        return out

    def queries(self, p: int) -> list:
        return self._queries(self.configs(p))

    def warm_up_queries(self) -> list:
        return self._queries(self.configs("warm-up"), per_cell=6)

    @staticmethod
    def _answer(dd, cfg):
        h = ss.h0(dd, cfg)
        return h, (ss.generation_test(dd, cfg) if h > 0 else None)

    @staticmethod
    def _check(want: int, answer) -> bool:
        h, report = answer
        if h != want:
            return False
        if h == 0:
            return report is None
        return report.generated and report.h0 == h and report.span_dim == h


class HighDegree(Workload):
    """Large single section spaces: h0, kernel, one section and its multiplicities."""

    name = "high_degree"
    # 7 queries a pass, two of them (d = 8 on P^2, d = 5 on P^3) far dearer
    # than the rest.  Ten passes put the tail percentile at p85.71, one sample
    # per pass beyond it: the middle of those two classes' samples in a run of
    # any length, not their fastest few, which swing with the drawn points.
    min_passes = 10

    def __init__(self, seed: int, expected: dict):
        super().__init__(seed, expected)
        self.classes = []
        for (n, r, d, m), want in zip(HIGH_DEGREE_CLASSES, expected["high_degree_h0"]):
            bc = bd.BlowupContext(n, r)
            dd = DivisorClass(bc.lattice_context(), (d,), m)
            self.classes.append((dd, want, bd.mult_lower_bound(dd, bc)))
        self.ambients = sorted({(n, r) for n, r, _, _ in HIGH_DEGREE_CLASSES})

    def configs(self, p: int) -> list:
        return [ss.PointConfig.random(n, r, derive_seed(self.seed, self.name, p, n))
                for n, r in self.ambients]

    def queries(self, p: int) -> list:
        by_ambient = {(c.n, c.r): c for c in self.configs(p)}
        out = []
        for dd, want, bound in self.classes:
            n, r = dd.ctx.c - 1, dd.ctx.r
            out.append(Query(f"high_degree {n},{r} d={dd.h[0]} m={dd.m}",
                             partial(self._answer, dd, by_ambient[n, r]),
                             partial(self._check, want, dd.m, bound)))
        return out

    def warm_up_queries(self) -> list:
        out = []
        for cfg in self.configs("warm-up"):
            bc = cfg.blowup_context()
            # the k = 2 minimal divisor: the conic on P^2, 2H - 2E_1 - ... on P^3
            dd = bd.minimal_class(bc, 2, range(1, bc.n - 1))
            out.append(Query(f"high_degree warm-up {cfg.n},{cfg.r}", partial(self._answer, dd, cfg),
                             partial(self._check, 1, dd.m, bd.mult_lower_bound(dd, bc))))
        return out

    @staticmethod
    def _answer(dd, cfg):
        h = ss.h0(dd, cfg)
        fs = ss.form_space(dd, cfg)
        if not fs.kernel:
            return h, 0, (), None
        if h == 1:
            f = ss.section_of(dd, cfg)
        else:
            f = MultiPoly(_z_names(cfg.n),
                          {g: c for g, c in zip(fs.monomials, fs.kernel[0]) if c})
        at_points = tuple(ss.mult_at_point(f, p) for p in cfg.points())
        return h, len(fs.kernel), at_points, ss.mult_along_curve(f, cfg)

    @staticmethod
    def _check(want: int, mults, bound: int, answer) -> bool:
        h, kernel_size, at_points, along = answer
        if h != want or kernel_size != h:
            return False
        if h == 0:
            return True
        return (len(at_points) == len(mults)
                and all(got >= m for got, m in zip(at_points, mults)) and along >= bound)


def odd_index_sets(r: int):
    for size in range(1, r + 1, 2):
        yield from combinations(range(1, r + 1), size)


class Invariants(Workload):
    """build_F, is_invariant and divisor_class_of for every odd index set."""

    name = "invariants"

    def __init__(self, seed: int, expected: dict):
        super().__init__(seed, expected)
        self.dims = []
        for n in INVARIANT_DIMENSIONS:
            r = n + 3
            bc = bd.BlowupContext(n, r)
            ctx = bc.lattice_context()
            sets = []
            for index_set in odd_index_sets(r):
                k = (len(index_set) - 1) // 2
                rest = tuple(i for i in range(1, r + 1) if i not in index_set)
                want = (bd.minimal_class(bc, k, rest) if k
                        else DivisorClass.exceptional(ctx, index_set[0]))
                sets.append((index_set, want))
            self.dims.append((n, r, sets))

    def configs(self, p: int) -> list:
        return [ni.NagataParams.random(r, derive_seed(self.seed, self.name, p, n))
                for n, r, _ in self.dims]

    def _perturbed_set(self, p, n: int, r: int) -> tuple:
        triples = list(combinations(range(1, r + 1), 3))
        return random.Random(derive_seed(self.seed, "perturb", p, n)).choice(triples)

    def queries(self, p: int, per_dim=None) -> list:
        out = []
        for params, (n, r, sets) in zip(self.configs(p), self.dims):
            for index_set, want in sets[:per_dim]:
                out.append(Query(f"invariant n={n} I={index_set}",
                                 partial(self._answer, index_set, params, n),
                                 partial(self._check, want)))
            bad = self._perturbed_set(p, n, r)
            out.append(Query(f"perturbed n={n} I={bad}", partial(self._perturbed, bad, params),
                             self._check_perturbed))
        return out

    def warm_up_queries(self) -> list:
        return self.queries("warm-up", per_dim=4)

    @staticmethod
    def _answer(index_set, params, n: int):
        f = ni.build_F(index_set, params)
        return ni.is_invariant(f, params), ni.divisor_class_of(f, n)

    @staticmethod
    def _check(want, answer) -> bool:
        invariant, cls = answer
        return invariant is True and cls == want

    @staticmethod
    def _perturbed(index_set, params):
        f = ni.build_F(index_set, params)
        return ni.is_invariant(f + MultiPoly.variable(f"y_{index_set[0]}"), params)

    @staticmethod
    def _check_perturbed(answer) -> bool:
        return answer is False


class Lattice(Workload):
    """Orbits, minuscule tests, cone membership and degree-one decompositions."""

    name = "lattice"

    def __init__(self, seed: int, expected: dict):
        super().__init__(seed, expected)
        self.orbit_sizes = expected["orbit_sizes"]
        self.minuscule = expected["minuscule"]
        used = (ORBIT_CONTEXTS + MINUSCULE_CONTEXTS + MEMBERSHIP_CONTEXTS
                + DECOMPOSE_CONTEXTS + (AFFINE_CONTEXT,))
        self.ctx = {t: LatticeContext(*t) for t in used}

    def configs(self, p: int) -> list:
        """The sampled membership classes of pass p."""
        out = []
        for t in MEMBERSHIP_CONTEXTS:
            ctx = self.ctx[t]
            rng = random.Random(derive_seed(self.seed, self.name, p, _key(t)))
            for _ in range(MEMBERSHIP_SAMPLES):
                deg = rng.randint(0, 4)
                out.append(DivisorClass(ctx, (deg,),
                                        tuple(rng.randint(-2, deg) for _ in range(ctx.r))))
        return out

    def queries(self, p: int) -> list:
        out = []
        for t in ORBIT_CONTEXTS:
            ctx = self.ctx[t]
            out.append(Query(f"orbit {t}", partial(self._orbit_size, ctx),
                             partial(int.__eq__, self.orbit_sizes[_key(t)])))
        for t in MINUSCULE_CONTEXTS:
            out.append(Query(f"minuscule {t}", partial(rsys.is_minuscule, self.ctx[t]),
                             partial(bool.__eq__, self.minuscule[_key(t)])))
        for d in self.configs(p):
            group = {}
            out.append(Query(f"member {d.ctx.b},{d.ctx.c} d={d.h} m={d.m}",
                             partial(self._member, d), partial(self._check_member, group)))
            for j, alpha in enumerate(rsys.simple_roots(d.ctx).simple_roots):
                out.append(Query(f"member reflected by alpha_{j + 1}",
                                 partial(self._member_reflected, alpha, d),
                                 partial(self._check_member, group)))
        for t in DECOMPOSE_CONTEXTS:
            for k in range(1, DECOMPOSE_MAX_K + 1):
                target = anticanonical(self.ctx[t]) * k
                out.append(Query(f"decompose {k}(-K) on {t}",
                                 partial(bd.decompose_degree1, target),
                                 partial(self._check_decomposition, target)))
        out.append(Query(f"capped orbit on {AFFINE_CONTEXT}",
                         partial(self._capped_orbit, self.ctx[AFFINE_CONTEXT]),
                         partial(str.__eq__, "cap")))
        return out

    def warm_up_queries(self) -> list:
        out = [Query(f"simple roots {t}", partial(rsys.simple_roots, ctx), bool)
               for t, ctx in self.ctx.items()]
        out += [Query(f"membership of 0 on {t}",
                      partial(self._member, DivisorClass.zero(self.ctx[t])),
                      partial(self._check_member, {}))
                for t in MEMBERSHIP_CONTEXTS]
        return out

    @staticmethod
    def _orbit_size(ctx) -> int:
        return len(rsys.weyl_orbit(DivisorClass.exceptional(ctx, ctx.r), rsys.simple_roots(ctx)))

    @staticmethod
    def _member(d):
        return d, bd.eff_membership(d)

    @staticmethod
    def _member_reflected(alpha, d):
        x = rsys.reflect(alpha, d)
        return x, bd.eff_membership(x)

    @staticmethod
    def _check_member(group: dict, answer) -> bool:
        # the first answer of a group fixes the membership its reflections must share
        d, res = answer
        member = group.setdefault("member", res.member)
        if res.member:
            return member and res.certificate is None
        return not member and res.certificate is not None and intersect(d, res.certificate) < 0

    @staticmethod
    def _check_decomposition(target, parts) -> bool:
        if parts is None:
            return False
        return (sum(parts, DivisorClass.zero(target.ctx)) == target
                and all(_degree(part) == 1 for part in parts))

    @staticmethod
    def _capped_orbit(ctx) -> str:
        try:
            rsys.weyl_orbit(DivisorClass.exceptional(ctx, ctx.r), rsys.simple_roots(ctx),
                            cap=AFFINE_CAP)
        except CapExceeded:
            return "cap"
        return "complete"


WORKLOADS = {w.name: w for w in (Generation, HighDegree, Invariants, Lattice)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed, load_expected())
