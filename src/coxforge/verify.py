"""Reproducibility suite: the frozen counts, dimensions, decompositions
and invariance identities the toolkit must regenerate exactly.

Every check is exact (integer or rational equality, no tolerances) and
cheap enough for commodity hardware.  `_quick(n, r)` is the quick
profile's one rule: P^n blown up at r points with n <= 3 and r <= 7, a
context (a, b, c) read as n = c - 1, r = b + c.  The full profile runs
every case, up to dimension 5 where objects stay desk-sized; only the
generation grid keeps a table per profile, as quick lowers its degrees.
Each criterion draws its samples from its own seeded generator, so a
fixed (profile, seed) pair determines the entire run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

from .blowup_divisors import (
    BlowupContext,
    eff_membership,
    effective_decompose,
    enumerate_minimal,
    minimal_class,
    minimal_parameters,
    mult_lower_bound,
)
from .linalg import rank
from .nagata_invariants import (
    NagataParams,
    build_F,
    divisor_class_of,
    is_invariant,
    odd_index_sets,
)
from .picard_lattice import DivisorClass, LatticeContext, anticanonical, degree
from .root_system import is_minuscule, reflect, simple_roots, weyl_orbit
from .section_spaces import (
    PointConfig,
    form_from_vector,
    form_space,
    generation_test,
    h0,
    mult_along_curve,
    mult_at_point,
    section_of,
    section_vector,
)


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    expected: str
    computed: str
    passed: bool
    seconds: float

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "passed": self.passed,
        }


class _Suite:
    def __init__(self, criterion: int):
        self.criterion = criterion
        self.results = []
        self._mark = time.monotonic()

    def check(self, name: str, expected, computed):
        now = time.monotonic()
        self.results.append(CheckResult(
            self.criterion, name, str(expected), str(computed),
            expected == computed, now - self._mark))
        self._mark = now

    def tally(self, name: str, good: int, total: int, want: int | None = None):
        """Check that `good` of `total` cases hold, against want/want (want = total)."""
        want = total if want is None else want
        self.check(name, f"{want}/{want}", f"{good}/{total}")


def _quick(n: int, r: int) -> bool:
    """The quick profile's one rule: P^n with n <= 3 blown up at r <= 7 points."""
    return n <= 3 and r <= 7


def _context_blowup(t) -> tuple:
    """(n, r) of a context (a, b, c): n = c - 1, r = b + c."""
    return t[2] - 1, t[1] + t[2]


def _grid(profile: str, cases, blowup=lambda case: case) -> list:
    """The cases that `profile` runs; `blowup` reads the (n, r) of a case."""
    return [case for case in cases if profile == "full" or _quick(*blowup(case))]


# 1. orbit sizes of the last exceptional class

_ORBIT_COUNTS = (
    ((2, 2, 3), 16), ((2, 2, 4), 32), ((2, 2, 5), 64),
    ((2, 3, 3), 27), ((3, 1, 4), 35),
)


def _orbit_counts(s: _Suite, profile: str, rng: random.Random):
    for (a, b, c), want in _ORBIT_COUNTS:
        ctx = LatticeContext(a, b, c)
        orbit = weyl_orbit(DivisorClass.exceptional(ctx, ctx.r), simple_roots(ctx))
        s.check(f"orbit size ({a},{b},{c})", want, len(orbit))


# 2. minuscule verdicts context by context

_MINUSCULE_TRUE = (
    (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6),
    (3, 1, 3), (3, 1, 4), (4, 1, 3),
    (2, 1, 3), (2, 3, 3), (2, 4, 3),
)
_MINUSCULE_FALSE = ((2, 3, 4), (2, 3, 5))


def _minuscule_verdicts(s: _Suite, profile: str, rng: random.Random):
    for want, group in ((True, _MINUSCULE_TRUE), (False, _MINUSCULE_FALSE)):
        for t in _grid(profile, group, _context_blowup):
            s.check(f"minuscule {t}", want, is_minuscule(LatticeContext(*t)))


# 3. minimal-divisor counts

_MINIMAL_COUNTS = (((2, 5), 11), ((3, 6), 26), ((4, 7), 57))


def _minimal_counts(s: _Suite, profile: str, rng: random.Random):
    for (n, r), want in _grid(profile, _MINIMAL_COUNTS, lambda case: case[0]):
        bc = BlowupContext(n, r)
        found = len(enumerate_minimal(bc))
        s.check(f"minimal count ({n},{r})", want, found)
        s.check(f"minimal+exceptional ({n},{r})", 2 ** (n + 2), found + r)


# 4. section-space dimensions

_H0_GRID = ((2, 5), (2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (3, 8), (4, 7), (4, 8))
_CONES_GRID = ((2, 6), (2, 7), (3, 7), (4, 8))


def _h0_suite(s: _Suite, profile: str, rng: random.Random):
    for n, r in _grid(profile, _H0_GRID):
        cfg = PointConfig.default(n, r)
        ctx = cfg.lattice_context()
        mins = enumerate_minimal(cfg.blowup_context())
        ones = sum(1 for e in mins if h0(e, cfg) == 1)
        s.tally(f"h0(E)=1 for every minimal E ({n},{r})", ones, len(mins))
        gone = sum(1 for e in mins
                   if all(h0(e - DivisorClass.exceptional(ctx, i), cfg) == 0
                          for i in range(1, r + 1)))
        s.tally(f"h0(E-E_i)=0 for every minimal E ({n},{r})", gone, len(mins))

    for n, r in _grid(profile, _CONES_GRID):
        cfg = PointConfig.default(n, r)
        ctx = cfg.lattice_context()
        total = good = 0
        for k in range(1, (n + 1) // 2 + 1):
            for idx in combinations(range(1, r + 1), n + 1 - 2 * k):
                total += 1
                m = tuple(k if i in idx else k - 1 for i in range(1, r + 1))
                d = DivisorClass(ctx, (k,), m)
                if h0(d, cfg) != k + 1:
                    continue
                comp = set(range(1, r + 1)) - set(idx)
                vecs = {i: section_vector(d - DivisorClass.exceptional(ctx, i), cfg)
                        for i in comp}
                if all(rank([vecs[i] for i in pick]) == k + 1
                       for pick in combinations(sorted(comp), k + 1)):
                    good += 1
        s.tally(f"cone classes h0=k+1 with spanning sub-sections ({n},{r})", good, total)


# 5. multiplicities at points and along the curve

_MULT_GRID = ((2, 5), (2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (3, 8))


def _mult_suite(s: _Suite, profile: str, rng: random.Random):
    for n, r in _grid(profile, _MULT_GRID):
        cfg = PointConfig.default(n, r)
        bc = cfg.blowup_context()
        points = cfg.points()
        mins = enumerate_minimal(bc)
        good = 0
        for e in mins:
            k, idx = minimal_parameters(e, bc)
            f = section_of(e, cfg)
            if (all(mult_at_point(f, points[i - 1]) == (k if i in idx else k - 1)
                    for i in range(1, r + 1))
                    and mult_along_curve(f, cfg) == k - 1):
                good += 1
        s.tally(f"multiplicity pattern k/k-1 and curve order k-1 ({n},{r})", good, len(mins))

    sample_grid = _grid("quick", _MULT_GRID)
    want = 30 if profile == "quick" else 100
    found = ok = 0
    attempts = 0
    while found < want and attempts < 40 * want:
        attempts += 1
        n, r = rng.choice(sample_grid)
        cfg = PointConfig.default(n, r)
        d = rng.randint(1, 4)
        m = tuple(rng.randint(0, d) for _ in range(r))
        dd = DivisorClass(cfg.lattice_context(), (d,), m)
        fs = form_space(dd, cfg)
        if not fs.kernel:
            continue
        found += 1
        bound = mult_lower_bound(dd, cfg.blowup_context())
        if mult_along_curve(form_from_vector(n, d, fs.kernel[0]), cfg) >= bound:
            ok += 1
    s.tally(f"curve order >= multiplicity bound on {want} sampled classes", ok, found, want)


# 6. table decompositions

_TABLE_EXAMPLE_COLUMNS = ((1, 2, 4), (1, 3, 4), (1, 3, 4), (2, 4, 5), (2, 4))


def _decompose_checks(ds, parts) -> bool:
    if sum(parts, DivisorClass.zero(ds.ctx)) != ds:
        return False
    return all(p.h == (1,) and all(v in (0, 1) for v in p.m) for p in parts)


def _table_decomposition(s: _Suite, profile: str, rng: random.Random):
    ctx = LatticeContext(2, 1, 4)
    d = DivisorClass(ctx, (5,), (3, 3, 2, 5, 1))
    parts = effective_decompose(d)
    got = tuple(tuple(i for i, v in enumerate(p.m, start=1) if v) for p in parts)
    s.check("five-part example columns", _TABLE_EXAMPLE_COLUMNS, got)
    s.check("five-part example re-sums", True, _decompose_checks(d, parts))

    total = 500
    good = 0
    for _ in range(total):
        n = rng.randint(2, 4)
        r = rng.randint(n + 3, 8)
        deg = rng.randint(0, 6)
        while True:
            m = tuple(rng.randint(0, deg) if deg else 0 for _ in range(r))
            if sum(m) <= n * deg:
                break
        ctx = LatticeContext(2, r - n - 1, n + 1)
        dd = DivisorClass(ctx, (deg,), m)
        if _decompose_checks(dd, effective_decompose(dd)):
            good += 1
    s.tally(f"{total} random decompositions valid and re-sum", good, total)


# 7. invariance of the determinants

# the blow-ups of P^n at r = n + 3 points that criteria 7 and 8 visit
_NAGATA_GRID = tuple((n, n + 3) for n in range(2, 6))


def _invariance(s: _Suite, profile: str, rng: random.Random):
    seeds = [rng.randrange(10 ** 6) for _ in range(3)]
    for n, r in _grid(profile, _NAGATA_GRID):
        for label, np in [("default", NagataParams.default(r))] + [
                (f"seed {sd}", NagataParams.random(r, sd)) for sd in seeds]:
            good = sum(1 for idx in odd_index_sets(r) if is_invariant(build_F(idx, np), np))
            s.tally(f"invariance of all 2^{n + 2} determinants (n={n}, {label})",
                    good, 2 ** (n + 2))


# 8. determinant classes match the minimal divisors

def _class_correspondence(s: _Suite, profile: str, rng: random.Random):
    for n, r in _grid(profile, _NAGATA_GRID):
        np = NagataParams.default(r)
        bc = BlowupContext(n, r)
        ctx = bc.lattice_context()
        everyone = set(range(1, r + 1))
        total = good = deg_ok = 0
        for size in range((n + 2) % 2, n + 3, 2):
            k = (r - size - 1) // 2
            for idx in combinations(range(1, r + 1), size):
                total += 1
                comp = tuple(sorted(everyone - set(idx)))
                cls = divisor_class_of(build_F(comp, np), n)
                want = (minimal_class(bc, k, idx) if k
                        else DivisorClass.exceptional(ctx, comp[0]))
                if cls == want:
                    good += 1
                if degree(cls) == 1:
                    deg_ok += 1
        # total counts the 2^(n+2) odd index sets of 1..r
        s.tally(f"determinant classes hit all minimal divisors (n={n})", good, total)
        s.tally(f"determinant classes have degree 1 (n={n})", deg_ok, total)


# 9. span of generator products inside every section space

# the multiplicity vectors of degree d that a generation row visits
_MULTS = {"all": lambda r, d: product(range(d + 1), repeat=r),
          "sorted": lambda r, d: combinations_with_replacement(range(d, -1, -1), r)}

_GENERATION_GRID_FULL = (
    (2, 5, 4, "all"), (2, 6, 4, "all"), (2, 7, 4, "sorted"),
    (3, 6, 3, "all"), (3, 7, 3, "sorted"), (4, 7, 2, "sorted"),
)
_GENERATION_GRID_QUICK = (
    (2, 5, 3, "all"), (2, 6, 3, "sorted"), (2, 7, 3, "sorted"),
    (3, 6, 2, "sorted"), (3, 7, 2, "sorted"),
)


def _generation(s: _Suite, profile: str, rng: random.Random):
    grid = _GENERATION_GRID_QUICK if profile == "quick" else _GENERATION_GRID_FULL
    for n, r, dmax, mode in grid:
        cfg = PointConfig.default(n, r)
        ctx = cfg.lattice_context()
        mults = _MULTS[mode]
        total = good = 0
        for deg in range(dmax + 1):
            for m in mults(r, deg):
                report = generation_test(DivisorClass(ctx, (deg,), m), cfg)
                if report.h0 == 0:
                    continue
                total += 1
                if report.generated and report.span_dim == report.h0:
                    good += 1
        s.tally(f"products span every section space ({n},{r},d<={dmax},{mode} m)", good, total)


# 10. anticanonical degree

def _anticanonical_degree(s: _Suite, profile: str, rng: random.Random):
    for t, want in (((2, 3, 3), 3), ((2, 2, 3), 4)):
        s.check(f"degree(-K) {t}", want, degree(anticanonical(LatticeContext(*t))))


# 11. membership agrees with h0 and with reflections

_MEMBERSHIP_CONTEXTS = ((2, 2, 3), (2, 2, 4), (2, 2, 5))


def _membership_coherence(s: _Suite, profile: str, rng: random.Random):
    want = 100 if profile == "quick" else 200
    for t in _grid(profile, _MEMBERSHIP_CONTEXTS, _context_blowup):
        ctx = LatticeContext(*t)
        cfg = PointConfig.default(*_context_blowup(t))
        rs = simple_roots(ctx)
        implied = mirrored = positive = 0
        for _ in range(want):
            deg = rng.randint(0, 4)
            m = tuple(rng.randint(-2, deg) for _ in range(ctx.r))
            dd = DivisorClass(ctx, (deg,), m)
            member = bool(eff_membership(dd))
            if h0(dd, cfg) > 0:
                positive += 1
                if member:
                    implied += 1
            if all(bool(eff_membership(reflect(alpha, dd))) == member
                   for alpha in rs.simple_roots):
                mirrored += 1
        s.tally(f"h0>0 implies membership {t}", implied, positive)
        s.tally(f"reflections preserve membership {t}", mirrored, want)


CRITERIA = {
    1: ("orbit counts", _orbit_counts),
    2: ("minuscule verdicts", _minuscule_verdicts),
    3: ("minimal-divisor counts", _minimal_counts),
    4: ("section-space dimensions", _h0_suite),
    5: ("multiplicity patterns and bounds", _mult_suite),
    6: ("table decompositions", _table_decomposition),
    7: ("determinant invariance", _invariance),
    8: ("determinant class correspondence", _class_correspondence),
    9: ("generator products span", _generation),
    10: ("anticanonical degree", _anticanonical_degree),
    11: ("membership coherence", _membership_coherence),
}


def run_criterion(k: int, profile: str = "full", seed: int = 0):
    """All checks of one criterion; an exception becomes a failed record."""
    if k not in CRITERIA:
        raise KeyError(f"unknown criterion {k}")
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    name, func = CRITERIA[k]
    suite = _Suite(k)
    rng = random.Random(f"{seed}:{k}")
    try:
        func(suite, profile, rng)
    except Exception as exc:
        suite.results.append(CheckResult(
            k, f"{name} aborted", "completion", f"{type(exc).__name__}: {exc}",
            False, time.monotonic() - suite._mark))
    return tuple(suite.results)


@dataclass(frozen=True)
class Report:
    profile: str
    seed: int
    results: tuple
    seconds: float

    @property
    def passed(self) -> bool:
        return all(res.passed for res in self.results)

    def to_json(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "passed": self.passed,
            "results": [res.to_json() for res in self.results],
        }


def run_all(profile: str = "full", seed: int = 0) -> Report:
    start = time.monotonic()
    results = []
    for k in sorted(CRITERIA):
        results.extend(run_criterion(k, profile, seed))
    return Report(profile, seed, tuple(results), time.monotonic() - start)


def render_report(report: Report) -> str:
    lines = []
    for res in report.results:
        mark = "PASS" if res.passed else "FAIL"
        lines.append(f"[{mark}] {res.criterion:2d} {res.name}: "
                     f"expected {res.expected}, computed {res.computed}")
    verdict = "all checks passed" if report.passed else "FAILURES PRESENT"
    lines.append(f"{verdict}: {len(report.results)} checks, "
                 f"profile {report.profile}, seed {report.seed}")
    return "\n".join(lines)
