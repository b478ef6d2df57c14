"""Section spaces, point/curve multiplicities, and the generation test."""

import dataclasses
import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, inf, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coxforge import section_spaces
from coxforge.blowup_divisors import enumerate_minimal, mult_lower_bound
from coxforge.errors import CapExceeded, PreconditionError
from coxforge.linalg import RowEchelon, echelon, rank
from coxforge.multipoly import MultiPoly
from coxforge.nagata_invariants import NagataParams
from coxforge.picard_lattice import DivisorClass, anticanonical, hdeg
from coxforge.root_system import reflect, simple_roots
from coxforge.section_spaces import (
    GenerationReport,
    PointConfig,
    form_from_vector,
    form_space,
    generation_test,
    h0,
    monomial_exponents,
    mult_along_curve,
    mult_at_point,
    section_of,
    section_vector,
)

CFG25 = PointConfig.default(2, 5)
CFG36 = PointConfig.default(3, 6)


def conic_class(cfg):
    return DivisorClass(cfg.lattice_context(), (2,), (1,) * cfg.r)


def oracle_rows(deg, mults, cfg):
    """Vanishing conditions built independently: dehomogenize each monomial
    to the z_0 = 1 chart and differentiate with sympy at the curve points."""
    us = sympy.symbols(f"u1:{cfg.n + 1}")
    monos = [sympy.prod([u ** e for u, e in zip(us, g[1:])])
             for g in monomial_exponents(cfg.n, deg)]
    rows = []
    for a, m in zip(cfg.params, mults):
        point = {u: sympy.Rational(a) ** (j + 1) for j, u in enumerate(us)}
        for order in range(min(max(m, 0), deg + 1)):
            for beta in monomial_exponents(cfg.n - 1, order):
                row = []
                for mono in monos:
                    expr = mono
                    for u, b in zip(us, beta):
                        if b:
                            expr = sympy.diff(expr, u, b)
                    row.append(expr.subs(point))
                rows.append(row)
    return rows, len(monos)


def oracle_h0(d, cfg):
    deg = hdeg(d)
    if deg < 0:
        return 0
    rows, ncols = oracle_rows(deg, d.m, cfg)
    if not rows:
        return ncols
    return ncols - sympy.Matrix(rows).rank()


def coeff_vector(f, monos, n):
    full = {}
    for e, c in f.terms.items():
        key = [0] * (n + 1)
        for name, exp in zip(f.vars, e):
            key[int(name.partition("_")[2])] = exp
        full[tuple(key)] = c
    return [full.get(g, Fraction(0)) for g in monos]


def test_point_config_validation():
    assert CFG25.params == tuple(Fraction(v) for v in range(1, 6))
    assert CFG25.points()[1] == (1, 2, 4)
    with pytest.raises(PreconditionError):
        PointConfig(2, 5, (1, 2, 3, 4))
    with pytest.raises(PreconditionError):
        PointConfig(2, 5, (1, 1, 2, 3, 4))
    with pytest.raises(PreconditionError):
        PointConfig(2, 4, (1, 2, 3, 4))


@pytest.mark.parametrize("bad", ["a", None, 0.1, True, "1/2"])
def test_parameters_and_coordinates_follow_the_coefficient_rule(bad):
    # an int or a Fraction, as for MultiPoly coefficients; anything else is
    # a PreconditionError naming the field, never a bare error or a float
    for build, field in ((lambda: PointConfig(2, 5, (bad, 2, 3, 4, 5)), "params"),
                         (lambda: NagataParams(5, (1, 2, 3, 4, bad)), "params"),
                         (lambda: mult_at_point(MultiPoly.variable("z_0"), (1, bad, 0)), "p")):
        with pytest.raises(PreconditionError) as info:
            build()
        assert info.value.field == field


def test_a_parameter_list_that_is_not_iterable_is_a_precondition_error():
    for build in (lambda: PointConfig(2, 5, 7), lambda: NagataParams(5, None)):
        with pytest.raises(PreconditionError) as info:
            build()
        assert info.value.field == "params"


def test_point_config_random_is_deterministic():
    one = PointConfig.random(3, 7, 19)
    two = PointConfig.random(3, 7, 19)
    assert one == two
    assert len(set(one.params)) == 7
    assert PointConfig.random(3, 7, 20) != one


def test_random_draw_refuses_more_points_than_it_can_draw():
    # only 899 distinct p/q have |p| <= 60 and 1 <= q <= 12
    assert len(set(PointConfig.random(2, 899, 1).params)) == 899
    with pytest.raises(PreconditionError) as err:
        PointConfig.random(2, 900, 1)
    assert err.value.field == "r"


def test_monomial_exponents_basis():
    for n, d in ((2, 0), (2, 3), (3, 4), (4, 2)):
        monos = monomial_exponents(n, d)
        assert len(monos) == comb(n + d, d)
        assert len(set(monos)) == len(monos)
        assert all(len(g) == n + 1 and sum(g) == d for g in monos)
    assert monomial_exponents(2, 2)[0] == (2, 0, 0)


def test_h0_known_values():
    ctx = CFG25.lattice_context()
    assert h0(conic_class(CFG25), CFG25) == 1
    assert h0(DivisorClass.hyperplane(ctx), CFG25) == 3
    assert h0(DivisorClass.zero(ctx), CFG25) == 1
    assert h0(DivisorClass(ctx, (-1,), (0,) * 5), CFG25) == 0
    assert h0(anticanonical(ctx), CFG25) == 5
    # a line cannot pass doubly through a point
    assert h0(DivisorClass(ctx, (1,), (2, 0, 0, 0, 0)), CFG25) == 0
    # quadrics through 6 points of the degree-3 curve: the 3 containing the
    # curve plus one more, since evaluation at 6 of the 7 curve degrees of
    # freedom is onto
    ctx3 = CFG36.lattice_context()
    assert h0(DivisorClass(ctx3, (2,), (1,) * 6), CFG36) == 4


def test_h0_matches_symbolic_oracle():
    rng = random.Random(7)
    for n, r, dmax, loops in ((2, 5, 4, 20), (2, 6, 3, 15), (3, 6, 2, 10)):
        cfg = PointConfig.default(n, r)
        ctx = cfg.lattice_context()
        for _ in range(loops):
            deg = rng.randint(0, dmax)
            m = tuple(rng.randint(-1, 3) for _ in range(r))
            d = DivisorClass(ctx, (deg,), m)
            assert h0(d, cfg) == oracle_h0(d, cfg)


def test_h0_oracle_on_fractional_parameters():
    cfg = PointConfig.random(2, 6, 3)
    ctx = cfg.lattice_context()
    rng = random.Random(31)
    for _ in range(10):
        d = DivisorClass(ctx, (rng.randint(0, 3),),
                         tuple(rng.randint(0, 2) for _ in range(6)))
        assert h0(d, cfg) == oracle_h0(d, cfg)


def test_h0_negative_multiplicities_impose_nothing():
    ctx = CFG25.lattice_context()
    free = DivisorClass(ctx, (3,), (-2, -1, 0, 0, 0))
    assert h0(free, CFG25) == h0(DivisorClass(ctx, (3,), (0,) * 5), CFG25) == comb(5, 2)


def test_h0_drops_as_conditions_are_added():
    rng = random.Random(23)
    ctx = CFG25.lattice_context()
    for _ in range(25):
        d = DivisorClass(ctx, (rng.randint(0, 3),),
                         tuple(rng.randint(0, 2) for _ in range(5)))
        i = rng.randint(1, 5)
        assert h0(d - DivisorClass.exceptional(ctx, i), CFG25) <= h0(d, CFG25)


def test_form_space_kernel_annihilates_oracle_rows():
    rng = random.Random(11)
    ctx = CFG25.lattice_context()
    for _ in range(10):
        deg = rng.randint(1, 3)
        d = DivisorClass(ctx, (deg,), tuple(rng.randint(0, 2) for _ in range(5)))
        fs = form_space(d, CFG25)
        assert len(fs.kernel) == h0(d, CFG25)
        assert len(set(fs.kernel)) == len(fs.kernel)
        rows, ncols = oracle_rows(deg, d.m, CFG25)
        assert all(len(v) == ncols for v in fs.kernel)
        for row in rows:
            for vec in fs.kernel:
                assert sum(c * sympy.Rational(v) for c, v in zip(row, vec)) == 0
    with pytest.raises(PreconditionError):
        form_space(DivisorClass(ctx, (-1,), (0,) * 5), CFG25)


def test_section_of_line_and_conic():
    ctx = CFG25.lattice_context()
    line = section_of(DivisorClass(ctx, (1,), (1, 1, 0, 0, 0)), CFG25)
    assert str(line) == "z_0 - 3/2*z_1 + 1/2*z_2"
    assert line.sorted_terms()[0][1] == 1
    conic = section_of(conic_class(CFG25), CFG25)
    for p in CFG25.points():
        assert mult_at_point(conic, p) == 1
    assert mult_at_point(conic, (1, 7, 49)) == 1
    assert mult_at_point(conic, (1, 7, 50)) == 0
    with pytest.raises(PreconditionError):
        section_of(DivisorClass.hyperplane(ctx), CFG25)


def test_mult_at_point_basics():
    z0, z1, z2 = (MultiPoly.variable(f"z_{t}") for t in range(3))
    assert mult_at_point(z1 * z2, (1, 0, 0)) == 2
    assert mult_at_point(z1 * z2, (0, 0, 1)) == 1
    assert mult_at_point(MultiPoly.zero(), (1, 0, 0)) == inf
    assert mult_at_point(z0 * z2 - z1 ** 2, (1, 1, 1)) == 1
    with pytest.raises(PreconditionError):
        mult_at_point(z0 + z1 ** 2, (1, 0, 0))
    with pytest.raises(PreconditionError):
        mult_at_point(MultiPoly.variable("u_1"), (1, 0))
    with pytest.raises(PreconditionError):
        mult_at_point(z0, (0, 0, 0))


def test_mult_along_curve_values():
    conic = section_of(conic_class(CFG25), CFG25)
    # z_0 z_2 and z_1^2 both have weight 2 on s -> (1, s, s^2) and cancel
    # there; the first partials do not
    assert str(conic) == "z_0*z_2 - z_1^2"
    assert mult_along_curve(conic, CFG25) == 1
    # its fourth power, as in the benchmark's d = 8 class
    assert mult_along_curve(conic ** 4, CFG25) == 4
    assert [mult_at_point(conic ** 4, p) for p in CFG25.points()] == [4] * 5
    line = section_of(DivisorClass(CFG25.lattice_context(), (1,), (1, 1, 0, 0, 0)), CFG25)
    assert mult_along_curve(line, CFG25) == 0
    # z_0 z_2 - z_1^2 is one of the quadrics through the degree-3 curve
    q = MultiPoly.variable("z_0") * MultiPoly.variable("z_2") - MultiPoly.variable("z_1") ** 2
    assert mult_along_curve(q, CFG36) == 1


def sampled_order(n, deg, vec, reps):
    """The least order o at which a row of `_rows` at one of the first
    (deg - o) n + 1 integer points of `reps` is not orthogonal to vec (a
    single point is its own prefix).  An order-o partial restricts to the
    curve as a polynomial in s of degree <= (deg - o) n, so that many curve
    points decide it.  It evaluates condition rows, not `_order`'s sums of
    terms, and serves as a test-only oracle."""
    for order in range(deg + 1):
        if any(sum(a * c for a, c in zip(row, vec) if c)
               for rep, chart in reps[:(deg - order) * n + 1]
               for row in section_spaces._rows(n, deg, rep, chart, order)):
            return order


def sampled_mult_at_point(f, p):
    n = len(p) - 1
    deg, vec = section_spaces._form_vector(f, n)
    return sampled_order(n, deg, vec, [section_spaces._representative(p)])


def sampled_mult_along_curve(f, n):
    deg, vec = section_spaces._form_vector(f, n)
    return sampled_order(n, deg, vec, [(tuple(s ** j for j in range(n + 1)), 0)
                                       for s in range(deg * n + 1)])


def assert_multiplicities_match_sampling(f, cfg, points):
    for p in points:
        assert mult_at_point(f, p) == sampled_mult_at_point(f, p), (str(f), p)
    assert mult_along_curve(f, cfg) == sampled_mult_along_curve(f, cfg.n), str(f)


def test_multiplicities_match_sampling_on_seeded_forms():
    # forms of degree <= 8 on P^2 (<= 5 on P^3): a sparse random form times
    # powers of the conic z_0 z_2 - z_1^2 and of lines a_i z_0 - z_1 through
    # curve points, so orders up to 4 occur at the points and along the curve
    rng = random.Random(20)
    for n, dmax, cfg in ((2, 8, PointConfig.random(2, 5, 8)), (3, 5, PointConfig.random(3, 6, 8))):
        zs = [MultiPoly.variable(f"z_{t}") for t in range(n + 1)]
        conic = zs[0] * zs[2] - zs[1] ** 2
        points = cfg.points() + [(0, 1) + (Fraction(-2, 3),) * (n - 1), (1, 1, 2, 3)[:n + 1]]
        # the conic's monomials share a weight on the curve and cancel there
        for f in (conic, conic ** 4):
            assert_multiplicities_match_sampling(f, cfg, points)
        orders = Counter()
        for _ in range(40):
            d = rng.randint(0, dmax)
            b = rng.randint(0, d // 2)
            c = rng.randint(0, d - 2 * b)
            a = rng.choice(cfg.params)
            monos = monomial_exponents(n, d - 2 * b - c)
            rest = MultiPoly(tuple(f"z_{t}" for t in range(n + 1)),
                             {g: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for g in rng.sample(monos, min(3, len(monos)))})
            f = (rest if rest else MultiPoly.const(1)) * conic ** b * (a * zs[0] - zs[1]) ** c
            assert_multiplicities_match_sampling(f, cfg, points)
            orders[mult_along_curve(f, cfg)] += 1
        assert len(orders) >= 3, orders


def test_multiplicities_match_sampling_on_high_degree_sections():
    # the benchmark's near-square classes: h0 = 1 takes the section, else the
    # first kernel vector
    classes = ((2, 5, 5, (3, 3, 2, 2, 1)), (2, 5, 6, (5, 2, 2, 2, 2)),
               (2, 5, 7, (4, 4, 3, 3, 2)), (2, 5, 8, (4, 4, 4, 4, 4)),
               (3, 6, 3, (2, 2, 2, 2, 1, 1)), (3, 6, 4, (4, 2, 2, 2, 2, 2)),
               (3, 6, 5, (3, 3, 3, 3, 3, 2)))
    cfgs = {(2, 5): PointConfig.random(2, 5, 13), (3, 6): PointConfig.random(3, 6, 13)}
    for n, r, deg, m in classes:
        cfg = cfgs[n, r]
        d = DivisorClass(cfg.lattice_context(), (deg,), m)
        kernel = form_space(d, cfg).kernel
        if kernel:
            f = form_from_vector(n, deg, kernel[0])
            assert_multiplicities_match_sampling(f, cfg, cfg.points())
            assert all(mult_at_point(f, p) >= mi for p, mi in zip(cfg.points(), m))


def test_section_multiplicity_meets_curve_bound():
    cfg = PointConfig.default(2, 6)
    ctx = cfg.lattice_context()
    bc = cfg.blowup_context()
    rng = random.Random(5)
    checked = 0
    for _ in range(400):
        d = DivisorClass(ctx, (rng.randint(1, 3),),
                         tuple(rng.randint(0, 2) for _ in range(6)))
        if h0(d, cfg) != 1:
            continue
        f = section_of(d, cfg)
        assert mult_along_curve(f, cfg) >= mult_lower_bound(d, bc)
        checked += 1
        if checked == 8:
            break
    assert checked == 8


def test_pencil_spanned_by_any_two_point_sections():
    # H - E_3 on seven points: the pencil of lines through p_3; dropping to
    # H - E_3 - E_i pins one line each, and any two of those span
    cfg = PointConfig.default(2, 7)
    ctx = cfg.lattice_context()
    d = DivisorClass(ctx, (1,), tuple(1 if i == 3 else 0 for i in range(1, 8)))
    assert h0(d, cfg) == 2
    monos = form_space(d, cfg).monomials
    others = [i for i in range(1, 8) if i != 3]
    secs = []
    for i in others:
        f = section_of(d - DivisorClass.exceptional(ctx, i), cfg)
        assert mult_at_point(f, cfg.points()[2]) >= 1
        assert mult_at_point(f, cfg.points()[i - 1]) >= 1
        secs.append(coeff_vector(f, monos, 2))
    for u, v in combinations(secs, 2):
        assert sympy.Matrix([u, v]).rank() == 2


def test_generation_small_cases():
    ctx = CFG25.lattice_context()
    assert generation_test(conic_class(CFG25), CFG25) == GenerationReport(1, 1, True)
    rep = generation_test(anticanonical(ctx), CFG25)
    assert rep.h0 == 5 and rep.generated
    rep = generation_test(DivisorClass(ctx, (2,), (1, 1, 0, 0, 0)), CFG25)
    assert rep.h0 == rep.span_dim == 4
    empty = generation_test(DivisorClass(ctx, (1,), (2, 0, 0, 0, 0)), CFG25)
    assert empty == GenerationReport(0, 0, True)
    # a negative multiplicity adds no condition: E_1 is spanned by the constants
    assert generation_test(DivisorClass.exceptional(ctx, 1), CFG25) == GenerationReport(1, 1, True)
    rep = generation_test(DivisorClass(ctx, (2,), (-1, 1, 1, 0, 0)), CFG25)
    assert rep == GenerationReport(4, 4, True)
    # 5H - E_1 - .. - E_8 on P^2 at 9 points: 666,480 multisets of the 37
    # generators have H-degree 5 and 18,552 of them qualify, but the span
    # fills within 22 states
    cfg = PointConfig.default(2, 9)
    d = DivisorClass(cfg.lattice_context(), (5,), (1,) * 8 + (0,))
    assert generation_test(d, cfg, cap=22) == GenerationReport(13, 13, True)


def test_generation_caps_and_bounds(monkeypatch):
    ctx = CFG25.lattice_context()
    with pytest.raises(CapExceeded) as info:
        generation_test(anticanonical(ctx), CFG25, cap=2)
    assert (info.value.what, info.value.cap) == ("generation span states", 2)
    assert str(info.value) == "generation span states: cap of 2 exhausted"
    cfg58 = PointConfig.default(5, 8)
    with pytest.raises(PreconditionError):
        generation_test(DivisorClass.hyperplane(cfg58.lattice_context()), cfg58)
    # the size cap fires before the section space is eliminated
    asked = _count_conditions(monkeypatch)
    cfg = PointConfig.default(2, 5)
    huge = DivisorClass(ctx, (200,), (100,) * 5)
    with pytest.raises(CapExceeded) as info:
        generation_test(huge, cfg)
    assert (info.value.what, info.value.cap) == ("generation monomial basis", 20000)
    assert not asked and not cfg._blocks and cfg._echelon is None


def test_generation_solves_each_section_once_per_configuration(monkeypatch):
    solved = []

    def counted(d, cfg):
        solved.append((d, cfg))
        return section_vector(d, cfg)

    monkeypatch.setattr(section_spaces, "section_vector", counted)
    cfg, twin = PointConfig.random(2, 6, 12), PointConfig.random(2, 6, 12)
    ctx = cfg.lattice_context()
    for deg in (2, 3, 4):
        rep = generation_test(DivisorClass(ctx, (deg,), (1,) * 6), cfg)
        assert rep.generated and rep.h0 > 0
    assert solved and all(c is cfg for _, c in solved)
    assert len(set(solved)) == len(solved)
    mine = len(solved)
    for deg in (4, 3, 2):
        assert generation_test(DivisorClass(ctx, (deg,), (1,) * 6), twin) == \
            generation_test(DivisorClass(ctx, (deg,), (1,) * 6), cfg)
    assert len(solved) == 2 * mine and all(c is twin for _, c in solved[mine:])
    assert twin == cfg and twin._terms == cfg._terms and twin._gens == cfg._gens


def _fill_blocks(cfg):
    """h0 and form_space of classes of degree 1..3 that ask orders 0..2.  On
    P^2 they are nef, so the peel leaves each whole and form_space
    eliminates the class itself."""
    ctx = cfg.lattice_context()
    r = cfg.r
    for deg in range(1, 4):
        if cfg.n == 2:
            mults = ((deg,) + (0,) * (r - 1), (deg - 1, 1) + (0,) * (r - 2),
                     (1,) * (2 * deg - 1) + (0,) * (r - 2 * deg + 1))
        else:
            mults = ((deg,) + (1,) * (r - 1), (deg - 1,) * r, (2, 0, 1) * 3)
        for m in mults:
            d = DivisorClass(ctx, (deg,), m[:r])
            assert cfg.n > 2 or section_spaces._peel(deg, d.m)[2] == []
            h0(d, cfg)
            form_space(d, cfg)


def test_representative_is_integral_and_positive_in_its_chart():
    # the lcm of the denominators scales the point, then the sign makes the
    # first nonzero coordinate positive
    assert section_spaces._representative((Fraction(-1, 2), Fraction(2, 3), 0)) == ((3, -4, 0), 0)
    assert section_spaces._representative((0, Fraction(-3, 4), Fraction(1, 6))) == ((0, 9, -2), 1)


def test_block_memo_matches_point_rows():
    configs = (PointConfig(2, 5, (-3, Fraction(-1, 2), 0, Fraction(2, 3), 5)),
               PointConfig(3, 6, (Fraction(-7, 4), -1, Fraction(1, 3), 2, Fraction(9, 5), 4)),
               PointConfig(4, 7, (-2, Fraction(-2, 3), Fraction(1, 5), 1, 3, Fraction(7, 2), 6)))
    for cfg in configs:
        _fill_blocks(cfg)
        assert {order for _, _, order in cfg._blocks} == {0, 1, 2}
        points = cfg.points()
        for (d, i, order), block in cfg._blocks.items():
            rep, chart = section_spaces._representative(points[i])
            assert block == section_spaces._rows(cfg.n, d, rep, chart, order)
            assert isinstance(block, tuple) and all(isinstance(row, tuple) for row in block)


def test_each_block_is_built_once_per_configuration(monkeypatch):
    built = Counter()
    rows = section_spaces._rows

    def counted(n, d, rep, chart, order):
        built[n, d, rep, chart, order] += 1
        return rows(n, d, rep, chart, order)

    monkeypatch.setattr(section_spaces, "_rows", counted)
    cfg = PointConfig.random(2, 6, 31)
    ctx = cfg.lattice_context()
    for _ in range(2):
        for deg in (2, 3, 4):
            d = DivisorClass(ctx, (deg,), (1,) * 6)
            h0(d, cfg)
            form_space(d, cfg)
            assert generation_test(d, cfg).generated
    assert built and set(built.values()) == {1}
    assert sum(built.values()) == len(cfg._blocks) <= cfg.r * sum(deg + 1 for deg in range(5))


def test_block_memo_is_invisible_to_equality_hash_repr_and_json():
    cfg, twin = PointConfig.random(3, 7, 5), PointConfig.random(3, 7, 5)
    before = (repr(cfg), hash(cfg), cfg.to_json())
    _fill_blocks(cfg)
    assert cfg._blocks and not twin._blocks
    assert cfg._echelon is not None and twin._echelon is None
    assert cfg == twin and hash(cfg) == hash(twin)
    assert (repr(cfg), hash(cfg), cfg.to_json()) == before == (repr(twin), hash(twin), twin.to_json())
    copy = dataclasses.replace(cfg)
    assert copy == cfg and copy._blocks == {} and copy._echelon is None and copy._reps == cfg._reps
    moved = dataclasses.replace(cfg, params=(1, 2, 3, 4, 5, 6, 7))
    assert moved == PointConfig.default(3, 7) and moved._reps == PointConfig.default(3, 7)._reps
    assert [f.name for f in dataclasses.fields(PointConfig) if f.compare] == ["n", "r", "params"]


def test_dropped_configuration_is_collected():
    # on P^3, where h0 eliminates, so every memo and the echelon slot fill
    cfg = PointConfig.random(3, 7, 47)
    assert generation_test(DivisorClass(cfg.lattice_context(), (3,), (1,) * 7), cfg).generated
    assert cfg._blocks and cfg._echelon is not None and cfg._gens and cfg._terms and cfg._values
    ref = weakref.ref(cfg)
    del cfg
    gc.collect()
    assert ref() is None


def _count_conditions(monkeypatch) -> Counter:
    """Calls of `_condition_rows`, by (degree, mults)."""
    asked = Counter()
    rows = section_spaces._condition_rows

    def counted(d, mults, cfg):
        asked[d, tuple(mults)] += 1
        return rows(d, mults, cfg)

    monkeypatch.setattr(section_spaces, "_condition_rows", counted)
    return asked


def cone_class(cfg):
    """2H - 2E_1 - E_2 - .. - E_r on P^3: the quadric cones with vertex p_1
    through the other points, h0 = 1 at r = 6 and 7, since projection from
    p_1 puts those points on one conic."""
    return DivisorClass(cfg.lattice_context(), (2,), (2,) + (1,) * (cfg.r - 1))


def test_h0_form_space_and_section_of_share_one_elimination(monkeypatch):
    # at r = n + 4 h0 eliminates the class itself (on P^3: on P^2 h0
    # eliminates nothing): the quadric cone, h0 = 1
    twin = PointConfig.random(3, 7, 3)
    want = section_of(cone_class(twin), twin)
    asked = _count_conditions(monkeypatch)
    echelons = Counter()
    add = RowEchelon.add

    def counted_add(ech, row):
        echelons[id(ech)] += 1
        return add(ech, row)

    monkeypatch.setattr(RowEchelon, "add", counted_add)
    cfg = PointConfig.random(3, 7, 3)
    cone = cone_class(cfg)
    assert h0(cone, cfg) == 1
    rows_added = sum(echelons.values())
    assert len(form_space(cone, cfg).kernel) == 1
    assert section_of(cone, cfg) == want
    assert asked == Counter({(2, (2,) + (1,) * 6): 1})
    assert len(echelons) == 1 and sum(echelons.values()) == rows_added


def test_h0_at_n_plus_3_points_eliminates_the_chamber_representative(monkeypatch):
    # the quadric cone at six points of P^3 walks to the degree-0 class
    # (with m_6 = -1, clipped); form_space and section_of eliminate the
    # cone itself, once between them
    twin = PointConfig.random(3, 6, 3)
    want = section_of(cone_class(twin), twin)
    asked = _count_conditions(monkeypatch)
    cfg = PointConfig.random(3, 6, 3)
    cone = cone_class(cfg)
    assert h0(cone, cfg) == 1
    assert asked == Counter({(0, (0,) * 6): 1})
    assert len(form_space(cone, cfg).kernel) == 1
    assert section_of(cone, cfg) == want
    assert asked == Counter({(0, (0,) * 6): 1, (2, (2,) + (1,) * 5): 1})


def test_interleaved_classes_answer_as_on_a_fresh_configuration():
    """A, B, A on one configuration: each answer is a fresh configuration's,
    including a kernel read after an elimination stopped at full column rank
    (12 conditions on the 10 quadrics).  On P^3 at r = n + 4, where h0 and
    form_space both eliminate the class itself."""
    cfg = PointConfig.random(3, 7, 19)
    ctx = cfg.lattice_context()
    a = DivisorClass(ctx, (4,), (2, 2, 1, 1, 1, 1, 1))
    b = DivisorClass(ctx, (3,), (1, 1, 1, 1, 1, 1, 0))
    empty = DivisorClass(ctx, (2,), (2, 2, 1, 1, 1, 1, 0))
    fresh = {}
    for d in (a, b, empty):
        fresh[d] = (h0(d, PointConfig.random(3, 7, 19)),
                    form_space(d, PointConfig.random(3, 7, 19)).kernel)
    assert fresh[empty] == (0, ())
    for d, e in ((a, b), (b, a), (a, empty), (empty, a), (a, a)):
        assert h0(d, cfg) == fresh[d][0]
        h0(e, cfg)
        assert form_space(d, cfg).kernel == fresh[d][1]
        assert cfg._echelon[0] == (hdeg(d), d.m)


def test_generation_test_after_h0_does_not_eliminate_again(monkeypatch):
    # on P^3 at r = n + 4, where h0 eliminates the class itself
    asked = _count_conditions(monkeypatch)
    cfg = PointConfig.random(3, 7, 23)
    ctx = cfg.lattice_context()
    for m in ((2, 1, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1, 0), (1,) * 7):
        d = DivisorClass(ctx, (3,), m)
        dim = h0(d, cfg)
        assert generation_test(d, cfg) == GenerationReport(dim, dim, True)
        assert asked[3, m] == 1
        # cfg's slot still holds d, so form_space eliminates nothing
        assert cfg._echelon[0] == (3, m)
        form_space(d, cfg)
        assert asked[3, m] == 1
    # and when the cap stops the span after states and sections took the slot
    cfg = PointConfig.random(3, 7, 29)
    d = DivisorClass(cfg.lattice_context(), (3,), (2, 1, 1, 1, 1, 1, 1))
    h0(d, cfg)
    with pytest.raises(CapExceeded):
        generation_test(d, cfg, cap=4)
    assert cfg._echelon[0] == (3, d.m)


# (class, configuration, v): cap = v passes and cap = v - 1 raises; v counts
# the span states, the constants included, so a state that stops early or
# late fails
RAT26 = PointConfig.random(2, 6, 11)
RAT37 = PointConfig.random(3, 7, 5)
MINIMAL_PASSING_CAPS = (
    ((3,), (1, 1, 1, 1, 1), CFG25, 9),
    ((3,), (2, 2, 1, 1, 1, 0), CFG36, 39),
    ((2,), (1, 1, 1, 1, 1, 0, 0), PointConfig.default(4, 7), 21),
    ((4,), (2, 2, 1, 1, 1, 1), RAT26, 15),
    ((3,), (2, 1, 1, 1, 1, 0, 0), RAT37, 29),
)


def test_generation_minimal_passing_caps_are_frozen():
    assert any(a.denominator > 1 for a in RAT26.params)
    assert any(a.denominator > 1 for a in RAT37.params)
    for h, m, cfg, v in MINIMAL_PASSING_CAPS:
        d = DivisorClass(cfg.lattice_context(), h, m)
        rep = generation_test(d, cfg, cap=v)
        assert rep.generated and rep.span_dim == rep.h0
        with pytest.raises(CapExceeded):
            generation_test(d, cfg, cap=v - 1)


def test_principal_lattice_is_unisolvent():
    # the values at (1, e_1, .., e_n), e of degree d, determine a degree-d form
    for n, dmax in ((2, 8), (3, 5), (4, 4)):
        for d in range(dmax + 1):
            monos = monomial_exponents(n, d)
            grid = [(1,) + e[1:] for e in monos]
            matrix = [[prod(q ** g for q, g in zip(point, mono)) for mono in monos]
                      for point in grid]
            assert rank(matrix) == len(monos)


def coefficient_row(f, n, deg):
    coefs = {}
    for exps, coef in f.terms.items():
        full = [0] * (n + 1)
        for name, e in zip(f.vars, exps):
            full[int(name.partition("_")[2])] = e
        coefs[tuple(full)] = coef
    return [coefs.get(g, 0) for g in monomial_exponents(n, deg)]


def test_generation_span_matches_coefficient_products():
    # every qualifying product of minimal sections, multiplied as polynomials
    cases = (
        (CFG25, (3,), (1, 1, 1, 1, 1)),
        (CFG25, (2,), (1, 1, 0, 0, 0)),
        (CFG25, (3,), (2, 1, 1, 1, 0)),
        (CFG36, (2,), (1, 1, 1, 1, 0, 0)),
        (RAT26, (3,), (2, 1, 1, 1, 0, 0)),
    )
    for cfg, h, m in cases:
        d = DivisorClass(cfg.lattice_context(), h, m)
        gens = enumerate_minimal(cfg.blowup_context())
        rows = []
        for size in range(1, h[0] + 1):
            for parts in combinations_with_replacement(gens, size):
                cover = [sum(g.m[i] for g in parts) for i in range(cfg.r)]
                degree = sum(hdeg(g) for g in parts)
                if degree == h[0] and all(c >= v for c, v in zip(cover, m)):
                    f = prod((section_of(g, cfg) for g in parts), start=MultiPoly.const(1))
                    rows.append(coefficient_row(f, cfg.n, h[0]))
        rep = generation_test(d, cfg)
        assert rank(rows) == rep.span_dim
        assert (rep.span_dim == h0(d, cfg)) == rep.generated


# -- multiplicities against symbolic expansion -------------------------------

def form_to_sympy(f, zs):
    expr = sympy.Integer(0)
    for exps, coef in f.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for name, e in zip(f.vars, exps):
            term *= zs[int(name.partition("_")[2])] ** e
        expr += term
    return expr


def oracle_local_terms(f, p):
    """Terms of f(q + u), q = p scaled to 1 in its first nonzero coordinate,
    expanded by sympy over u_1..u_n (the other coordinates, in order)."""
    n = len(p) - 1
    zs = sympy.symbols(f"z0:{n + 1}")
    us = sympy.symbols(f"u1:{n + 1}")
    chart = next(j for j, v in enumerate(p) if v)
    others = iter(us)
    subs = {zs[t]: 1 if t == chart else sympy.Rational(Fraction(p[t], p[chart])) + next(others)
            for t in range(n + 1)}
    local = sympy.Poly(sympy.expand(form_to_sympy(f, zs).subs(subs, simultaneous=True)), *us)
    return dict(local.terms())


def oracle_mult_along_curve(f, n):
    """First order at which some homogeneous partial of f is not identically
    zero on s -> (1, s, .., s^n)."""
    zs = sympy.symbols(f"z0:{n + 1}")
    s = sympy.Symbol("s")
    curve = {z: s ** j for j, z in enumerate(zs)}
    level, order = {form_to_sympy(f, zs)}, 0
    while all(sympy.expand(g.subs(curve)) == 0 for g in level):
        level = {sympy.diff(g, z) for g in level for z in zs}
        order += 1
    return order


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def forms_at_points(draw):
    """A nonzero form in z_0..z_n and a point: a random form times optional
    powers of z_0, of the conic z_0 z_2 - z_1^2 through the curve, and of a
    line through the point, so high orders occur; points may have p_0 = 0,
    a negative chart coordinate or rational coordinates."""
    n = draw(st.integers(1, 3))
    point = draw(st.lists(RATIONALS, min_size=n + 1, max_size=n + 1))
    kind = draw(st.sampled_from(("any", "p0 zero", "negative chart", "curve")))
    if kind == "p0 zero":
        point[0] = 0
    elif kind == "curve":
        point = [point[0] ** j for j in range(n + 1)]
    if not any(point):
        point[-1] = Fraction(1)
    chart = next(j for j, v in enumerate(point) if v)
    if kind == "negative chart" and point[chart] > 0:
        point = [-v for v in point]
    zs = [MultiPoly.variable(f"z_{t}") for t in range(n + 1)]
    d = draw(st.integers(0, 3 if n < 3 else 2))
    monos = monomial_exponents(n, d)
    coefs = draw(st.lists(RATIONALS, min_size=len(monos), max_size=len(monos)))
    f = MultiPoly(tuple(f"z_{t}" for t in range(n + 1)), dict(zip(monos, coefs)))
    if f.is_zero():
        f = MultiPoly.const(draw(st.sampled_from((1, -2, Fraction(3, 4)))))
    f = f * zs[0] ** draw(st.integers(0, 1))
    if n >= 2:
        f = f * (zs[0] * zs[2] - zs[1] ** 2) ** draw(st.integers(0, 2))
    other = (chart + 1) % (n + 1)
    through_p = point[chart] * zs[other] - point[other] * zs[chart]
    f = f * through_p ** draw(st.integers(0, 2))
    return f, tuple(point)


@settings(max_examples=120, deadline=None)
@given(forms_at_points())
def test_multiplicities_match_symbolic_expansion(case):
    f, p = case
    local = oracle_local_terms(f, p)
    low = min(sum(e) for e in local)
    assert mult_at_point(f, p) == low
    n = len(p) - 1
    if n >= 2:
        assert mult_along_curve(f, PointConfig.default(n, n + 3)) == oracle_mult_along_curve(f, n)


# one long-lived random configuration per n, with r = n + 3 points, so the
# memos serve every class asked; the default configuration is the witness
WEYL_CONFIGS = {n: (PointConfig.random(n, n + 3, 7), PointConfig.default(n, n + 3))
                for n in (2, 3, 4)}


@st.composite
def classes_at_r_n_plus_3(draw):
    n = draw(st.sampled_from(sorted(WEYL_CONFIGS)))
    d = draw(st.integers(0, 3 if n < 4 else 2))
    m = draw(st.lists(st.integers(-1, d), min_size=n + 3, max_size=n + 3))
    return n, d, tuple(m)


def direct_h0(d, cfg):
    """h0 by eliminating d's own conditions, bypassing the walk of `h0`."""
    deg = hdeg(d)
    if deg < 0:
        return 0
    width = len(monomial_exponents(cfg.n, deg))
    rows = section_spaces._condition_rows(deg, tuple(max(a, 0) for a in d.m), cfg)
    return width - echelon(rows, width).rank


@settings(max_examples=200, deadline=None)
@given(classes_at_r_n_plus_3())
def test_h0_is_invariant_under_simple_reflections(case):
    """h0(D) = h0(s_alpha D) for r = n + 3 points on the curve, both sides
    eliminated directly, since `h0` itself walks D and s_alpha D to the same
    chamber representative.  At r = n + 4 the symmetry fails: on P^2 with
    six points h0(2H - sum E_i) = 1, while the Cremona reflection sends it
    to H - E_4 - E_5 - E_6, with h0 = 0."""
    n, d, m = case
    cfg, default = WEYL_CONFIGS[n]
    ctx = cfg.lattice_context()
    cls = DivisorClass(ctx, (d,), m)
    dim = direct_h0(cls, cfg)
    assert h0(cls, cfg) == dim
    assert direct_h0(cls, default) == dim
    for alpha in simple_roots(ctx).simple_roots:
        image = reflect(alpha, cls)
        if hdeg(image) <= d + 2:
            assert direct_h0(image, cfg) == dim, (cls, alpha)


def test_h0_at_n_plus_3_points_matches_direct_elimination():
    rng = random.Random(41)
    for n, dmax in ((2, 5), (3, 4), (4, 3)):
        cfg = WEYL_CONFIGS[n][0]
        ctx = cfg.lattice_context()
        for _ in range(150):
            d = rng.randint(0, dmax)
            cls = DivisorClass(ctx, (d,), tuple(rng.randint(-1, d) for _ in range(n + 3)))
            assert h0(cls, cfg) == direct_h0(cls, cfg), cls


def test_h0_of_large_classes_at_n_plus_3_points():
    # on P^2, 20H - 10 sum E is ten conics, and 16H - (9,7,6,5,3).E is
    # nef, so h0 = chi = 38; the walk takes 9H - 6 sum E on P^3 to degree -9
    cfg2, cfg3 = PointConfig.default(2, 5), PointConfig.default(3, 6)
    assert h0(DivisorClass(cfg2.lattice_context(), (20,), (10,) * 5), cfg2) == 1
    assert h0(DivisorClass(cfg3.lattice_context(), (9,), (6,) * 6), cfg3) == 0
    d = DivisorClass(cfg2.lattice_context(), (16,), (9, 7, 6, 5, 3))
    assert h0(d, cfg2) == direct_h0(d, cfg2) == 38


def peel_h0(d, m):
    """h0 on P^2 by peeling one fixed curve at a time: clip m at 0, then
    subtract the line through the two largest m_i while they sum above d,
    else the conic while 2d < sum m_i, and answer chi once neither holds,
    or 0 once d < 0.  `_dim` takes the copies of one curve in a row and
    answers 0 early by two pencils."""
    while d >= 0:
        m = sorted((max(a, 0) for a in m), reverse=True)
        if m[0] + m[1] > d:
            d, m[0], m[1] = d - 1, m[0] - 1, m[1] - 1
        elif 2 * d < sum(m):
            d, m = d - 2, [a - 1 for a in m]
        else:
            return (d + 1) * (d + 2) // 2 - sum(a * (a + 1) for a in m) // 2
    return 0


def test_h0_on_the_plane_matches_direct_elimination():
    """At n = 2 `h0` peels lines and the conic and eliminates nothing, so
    direct elimination checks it: seeded classes at r = 5..10 on random
    parameters, sorted m in [0, d + 1] and unsorted m in [-1, d + 1]."""
    rng = random.Random(53)
    for r, dmax in zip(range(5, 11), (7, 7, 6, 6, 5, 5)):
        cfg = PointConfig.random(2, r, r)
        ctx = cfg.lattice_context()
        for _ in range(60):
            d = rng.randint(0, dmax)
            unsorted = [rng.randint(-1, d + 1) for _ in range(r)]
            for m in (sorted((rng.randint(0, d + 1) for _ in range(r)), reverse=True), unsorted):
                cls = DivisorClass(ctx, (d,), tuple(m))
                assert h0(cls, cfg) == direct_h0(cls, cfg) == peel_h0(d, m), cls


def test_h0_on_the_plane_takes_each_curve_in_a_row():
    # the steps of `_dim` agree with peeling one curve at a time, on
    # classes too large to eliminate
    rng = random.Random(59)
    cfgs = {r: PointConfig.default(2, r) for r in range(5, 15)}
    for _ in range(2000):
        r, d = rng.randint(5, 14), rng.randint(-2, 80)
        m = tuple(rng.randint(-2, d + 3) for _ in range(r))
        assert h0(DivisorClass(cfgs[r].lattice_context(), (d,), m), cfgs[r]) == peel_h0(d, m)


def test_h0_on_the_plane_builds_no_condition(monkeypatch):
    """n = 2 needs no size bound for h0: no condition row is built, and the
    steps do not grow with the degree."""
    def refuse(*args):
        raise AssertionError("h0 on P^2 built a condition row")

    monkeypatch.setattr(section_spaces, "_condition_rows", refuse)
    cfg = PointConfig.default(2, 9)
    ctx = cfg.lattice_context()
    # 24H - 8 sum E_i peels five conics to the nef 14H - 3 sum E_i
    assert h0(DivisorClass(ctx, (24,), (8,) * 9), cfg) == 66 == 15 * 16 // 2 - 9 * 6
    # one curve at a time, the lines through pairs of four points peel
    # 20H - 11(E_1 + .. + E_4) to a negative degree; the conics through
    # the four points answer 0 at once, and at any degree
    empty = DivisorClass(ctx, (20,), (11,) * 4 + (0,) * 5)
    assert h0(empty, cfg) == peel_h0(20, empty.m) == 0
    s = 10 ** 12
    assert h0(DivisorClass(ctx, (2 * s,), (s + 1, s, s, s) + (0,) * 5), cfg) == 0
    # s(C + L_12) has the rigid conic C, C^2 = -5, and then s L_12 fixed
    assert h0(DivisorClass(ctx, (3 * s,), (2 * s, 2 * s) + (s,) * 7), cfg) == 1
    # five points, r = n + 3, take the same rule
    assert h0(conic_class(CFG25), CFG25) == 1


def test_form_space_on_the_plane_matches_direct_elimination():
    """At n = 2 `form_space` eliminates only the nef class left by peeling,
    multiplies its kernel by the peeled curves' forms and reads the
    canonical basis off the products; it must be the direct elimination's,
    vector for vector: seeded classes at r = 5..10 on random parameters,
    d <= 8 and m_i in [-1, top], top in [d // 2, d + 1] per class."""
    rng = random.Random(61)
    seen = Counter()
    for r in range(5, 11):
        cfg = PointConfig.random(2, r, r)
        ctx = cfg.lattice_context()
        for _ in range(30):
            d = rng.randint(0, 8)
            top = rng.randint(d // 2, d + 1)
            m = tuple(rng.randint(-1, top) for _ in range(r))
            width = len(monomial_exponents(2, d))
            want = tuple(echelon(section_spaces._condition_rows(d, m, cfg), width).kernel())
            assert form_space(DivisorClass(ctx, (d,), m), cfg).kernel == want, (r, d, m)
            seen[min(len(want), 2), bool(section_spaces._peel(d, m)[2])] += 1
    # h0 = 0, 1 and >= 2 all occur, and classes with h0 > 0 are peeled
    assert {h for h, _ in seen} == {0, 1, 2}
    assert seen[1, True] and seen[2, True]


def _count_eliminations(monkeypatch) -> Counter:
    """Calls of `echelon` from the section layer, by (rows, width)."""
    asked = Counter()

    def counted(rows, ncols):
        asked[len(rows), ncols] += 1
        return echelon(rows, ncols)

    monkeypatch.setattr(section_spaces, "echelon", counted)
    return asked


def test_plane_sections_eliminate_only_a_nef_remainder(monkeypatch):
    """On P^2 no condition row is built for a class with h0 = 0, nor for
    4C = 8H - 4 sum E_i at five points, which peels to degree 0; and
    `section_vector` refuses h0 != 1 by the peel, with no elimination."""
    asked = _count_eliminations(monkeypatch)
    cfg5, cfg9 = PointConfig.default(2, 5), PointConfig.default(2, 9)
    ctx = cfg5.lattice_context()
    conic = section_of(conic_class(cfg5), cfg5)
    assert form_space(DivisorClass(ctx, (2,), (2, 2, 1, 0, 0)), cfg5).kernel == ()
    assert section_of(DivisorClass(ctx, (8,), (4,) * 5), cfg5) == conic ** 4
    with pytest.raises(PreconditionError) as info:
        section_vector(DivisorClass(cfg9.lattice_context(), (24,), (8,) * 9), cfg9)
    assert (info.value.field, info.value.detail) == ("D", "h0 = 66, need exactly 1")
    assert not asked and not cfg5._blocks and not cfg9._blocks
    # a negative degree is refused before the peel, by form_space's rule
    with pytest.raises(PreconditionError, match="need H-degree >= 0"):
        section_vector(DivisorClass(ctx, (-1,), (0,) * 5), cfg5)


def cremona_chamber(n, d, m):
    """The chamber representative of dH - sum m_i E_i at n + 3 points, by
    hand: sort m descending, and apply the standard Cremona transformation
    at the n + 1 largest while it lowers the degree."""
    m = sorted(m, reverse=True)
    while (excess := sum(m[:n + 1]) - (n - 1) * d) > 0:
        d -= excess
        m = sorted([a - excess for a in m[:n + 1]] + m[n + 1:], reverse=True)
    return d, m


def linear_expected_dim(n, d, m):
    """The linear expected dimension of Brambilla, Dumitrescu and
    Postinghel ("On a notion of speciality of linear systems in P^n",
    Trans. AMS 2015): the sum over I with |I| <= n of (-1)^|I|
    C(n + k_I - |I|, n), k_I = sum_I m_i - (|I| - 1) d, over the terms with
    k_I >= |I| and I = {}, with m clipped to [0, d + 1]."""
    if d < 0:
        return 0
    m = [min(max(a, 0), d + 1) for a in m]
    total = 0
    for size in range(n + 1):
        for index_set in combinations(m, size):
            k = sum(index_set) - (size - 1) * d
            if not index_set or k >= size:
                total += (-1) ** size * comb(n + k - size, n)
    return total


def test_h0_at_n_plus_3_points_is_the_linear_expected_dimension_after_the_walk():
    """At n + 3 points h0 of a chamber class is its linear expected
    dimension (Brambilla, Dumitrescu and Postinghel, "On the effective cone
    of P^n blown-up at n + 3 points", Exp. Math. 2016): an oracle that
    shares nothing with the condition matrices."""
    rng = random.Random(43)
    for n, dmax in ((2, 6), (3, 4), (4, 3)):
        cfg = WEYL_CONFIGS[n][0]
        ctx = cfg.lattice_context()
        for _ in range(200):
            d = rng.randint(0, dmax)
            m = tuple(rng.randint(-1, d + 1) for _ in range(n + 3))
            want = linear_expected_dim(n, *cremona_chamber(n, d, m))
            assert h0(DivisorClass(ctx, (d,), m), cfg) == want, (n, d, m)


def test_form_and_point_errors_keep_their_field_and_detail():
    z0, z1 = MultiPoly.variable("z_0"), MultiPoly.variable("z_1")
    zero_point = ("p", "point must not be the zero vector")
    cases = (
        (mult_at_point, (z0, (0, 0, 0)), zero_point),
        (mult_at_point, (MultiPoly.const(2), ()), zero_point),
        (mult_at_point, (z0 * z1, (0, 0)), zero_point),
        (mult_at_point, (MultiPoly.const(1), ()), zero_point),
        (mult_at_point, (z0, ()), ("F", "variables must lie in z_0..z_-1")),
        (mult_at_point, (MultiPoly.variable("z_3"), (1, 0, 0)),
         ("F", "variables must lie in z_0..z_2")),
        (mult_at_point, (MultiPoly.variable("u_1"), (1, 0)),
         ("F", "variables must lie in z_0..z_1")),
        (mult_along_curve, (MultiPoly.variable("z_3"), CFG25),
         ("F", "variables must lie in z_0..z_2")),
        # the form is checked before the point
        (mult_at_point, (z0 + z1 ** 2, (0, 0, 0)), ("F", "need a homogeneous form")),
        (mult_at_point, (z0 + z1 ** 2, (1, 0)), ("F", "need a homogeneous form")),
        (mult_along_curve, (z0 + 1, CFG25), ("F", "need a homogeneous form")),
    )
    # a class from another context
    foreign = DivisorClass.hyperplane(CFG36.lattice_context())
    cases += tuple((func, (foreign, CFG25), ("D", "class does not live on this blow-up"))
                   for func in (h0, form_space, section_of, generation_test))
    for func, args, (field, detail) in cases:
        with pytest.raises(PreconditionError) as err:
            func(*args)
        assert (err.value.field, err.value.detail) == (field, detail)
    # the zero form has infinite multiplicity everywhere, even at the zero
    # vector, and along the curve
    assert mult_at_point(MultiPoly.zero(), (0, 0, 0)) == inf
    assert mult_along_curve(MultiPoly.zero(), CFG36) == inf
