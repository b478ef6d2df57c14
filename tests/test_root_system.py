"""Simple roots, Dynkin labels, Weyl orbits, weight saturation."""

import random

import pytest
import sympy

from coxforge.errors import CapExceeded, PreconditionError
from coxforge.picard_lattice import (
    CurveClass,
    DivisorClass,
    LatticeContext,
    anticanonical,
    canonical_class,
    degree,
    intersect,
    pairing,
)
from coxforge.root_system import (
    RootSystemData,
    degree_one_divisors,
    dynkin_label,
    is_finite_type,
    is_minuscule,
    reflect,
    simple_roots,
    weight_coords,
    weights_of_irrep,
    weyl_orbit,
    weyl_orbit_curves,
    weyl_orbit_weights,
)

CTX223 = LatticeContext(2, 2, 3)
CTX233 = LatticeContext(2, 3, 3)
CTX323 = LatticeContext(3, 2, 3)


def test_finite_type_boundary():
    assert is_finite_type(2, 2, 3)
    assert is_finite_type(2, 3, 5)
    assert not is_finite_type(3, 3, 3)
    assert not is_finite_type(2, 3, 6)
    assert not is_finite_type(2, 6, 3)


def test_dynkin_labels():
    assert dynkin_label(2, 2, 3) == "D5"
    assert dynkin_label(2, 3, 3) == "E6"
    assert dynkin_label(2, 3, 4) == "E7"
    assert dynkin_label(2, 3, 5) == "E8"
    assert dynkin_label(2, 2, 6) == "D8"
    assert dynkin_label(3, 1, 4) == "A6"
    assert dynkin_label(3, 1, 3) == "A5"
    assert dynkin_label(2, 1, 3) == "A4"
    assert dynkin_label(1, 1, 5) == "A5"
    assert dynkin_label(3, 3, 3) == "INFINITE"
    assert dynkin_label(2, 5, 3) == "E8"
    assert dynkin_label(2, 6, 3) == "INFINITE"


def test_root_count_and_norms():
    for ctx in (CTX223, CTX233, CTX323, LatticeContext(2, 3, 4)):
        rs = simple_roots(ctx)
        assert len(rs.simple_roots) == ctx.a + ctx.r - 2
        for alpha in rs.simple_roots:
            assert pairing(alpha, alpha) == -2


def test_roots_for_smallest_context():
    rs = simple_roots(CTX223)
    assert len(rs.simple_roots) == 5
    e = [DivisorClass.exceptional(CTX223, j) for j in range(1, 6)]
    h = DivisorClass.hyperplane(CTX223)
    assert rs.simple_roots[0] == e[0] - e[1]
    assert rs.simple_roots[3] == e[3] - e[4]
    assert rs.simple_roots[4] == h - e[0] - e[1] - e[2]


def test_cartan_matrix_is_tree_shaped():
    for ctx, label in ((CTX223, "D5"), (CTX233, "E6"), (CTX323, "E6")):
        rs = simple_roots(ctx)
        assert rs.dynkin_label == label
        c = rs.cartan
        edges = 0
        for i in range(len(c)):
            assert c[i][i] == 2
            for j in range(i + 1, len(c)):
                assert c[i][j] == c[j][i]
                assert c[i][j] in (0, -1)
                edges += c[i][j] == -1
        assert edges == len(c) - 1


def test_roots_are_orthogonal_to_canonical_class():
    for ctx in (CTX223, CTX233, CTX323):
        k = canonical_class(ctx)
        for alpha in simple_roots(ctx).simple_roots:
            assert pairing(alpha, k) == 0


def test_infinite_context_still_yields_roots():
    rs = simple_roots(LatticeContext(3, 3, 3))
    assert rs.dynkin_label == "INFINITE"
    assert len(rs.simple_roots) == 3 + 6 - 2


def test_reflection_is_involution_and_preserves_pairing():
    rng = random.Random(71)
    rs = simple_roots(CTX233)
    for _ in range(40):
        d1 = DivisorClass(CTX233, (rng.randint(-3, 3),),
                          tuple(rng.randint(-3, 3) for _ in range(6)))
        d2 = DivisorClass(CTX233, (rng.randint(-3, 3),),
                          tuple(rng.randint(-3, 3) for _ in range(6)))
        alpha = rng.choice(rs.simple_roots)
        assert reflect(alpha, reflect(alpha, d1)) == d1
        assert pairing(reflect(alpha, d1), reflect(alpha, d2)) == pairing(d1, d2)
        assert degree(reflect(alpha, d1)) == degree(d1)


def test_reflection_fixes_canonical_class():
    for alpha in simple_roots(CTX233).simple_roots:
        assert reflect(alpha, anticanonical(CTX233)) == anticanonical(CTX233)


def _reflect_curve(alpha, g):
    # the induced reflection g + (alpha . g) dual(alpha), where dual(alpha) is
    # the curve with D . dual(alpha) = pairing(D, alpha) for every D
    ctx = g.ctx
    basis = [DivisorClass.from_coords(ctx, tuple(int(i == k) for i in range(ctx.rank)))
             for k in range(ctx.rank)]
    dual = CurveClass.from_coords(ctx, tuple(pairing(b, alpha) for b in basis))
    return g + intersect(alpha, g) * dual


def test_curve_reflection_is_pairing_adjoint():
    rng = random.Random(72)
    rs = simple_roots(CTX323)
    for _ in range(40):
        d = DivisorClass(CTX323, (rng.randint(-2, 2), rng.randint(-2, 2)),
                         tuple(rng.randint(-2, 2) for _ in range(5)))
        g = CurveClass(CTX323, (rng.randint(-2, 2), rng.randint(-2, 2)),
                       tuple(rng.randint(-2, 2) for _ in range(5)))
        alpha = rng.choice(rs.simple_roots)
        assert intersect(reflect(alpha, d), _reflect_curve(alpha, g)) == intersect(d, g)
        assert _reflect_curve(alpha, _reflect_curve(alpha, g)) == g


def test_orbit_of_last_exceptional_16_elements():
    ctx = CTX223
    orbit = weyl_orbit(DivisorClass.exceptional(ctx, 5), simple_roots(ctx))
    assert len(orbit) == 16
    e = [DivisorClass.exceptional(ctx, j) for j in range(1, 6)]
    h = DivisorClass.hyperplane(ctx)
    expected = set(e)
    expected.update(h - e[i] - e[j] for i in range(5) for j in range(i + 1, 5))
    expected.add(2 * h - e[0] - e[1] - e[2] - e[3] - e[4])
    assert set(orbit) == expected
    assert list(orbit) == sorted(orbit, key=DivisorClass.sort_key)


def test_orbit_counts_other_contexts():
    for t, want in (((2, 2, 4), 32), ((2, 3, 3), 27), ((3, 1, 4), 35)):
        ctx = LatticeContext(*t)
        orbit = weyl_orbit(DivisorClass.exceptional(ctx, ctx.r), simple_roots(ctx))
        assert len(orbit) == want


def test_orbit_members_all_have_degree_one():
    ctx = CTX233
    orbit = weyl_orbit(DivisorClass.exceptional(ctx, 6), simple_roots(ctx))
    assert all(degree(d) == 1 for d in orbit)


def test_orbit_cap_raises():
    ctx = CTX233
    with pytest.raises(CapExceeded):
        weyl_orbit(DivisorClass.exceptional(ctx, 6), simple_roots(ctx), cap=5)


def test_orbit_cap_must_be_a_positive_integer():
    ctx = CTX233
    for cap in (True, False, 0, 2.5):
        with pytest.raises(PreconditionError) as err:
            weyl_orbit(DivisorClass.exceptional(ctx, 6), simple_roots(ctx), cap=cap)
        assert err.value.field == "cap"


def test_orbit_of_curves_counts_match_divisor_orbit():
    ctx = CTX223
    rs = simple_roots(ctx)
    orbit = weyl_orbit_curves(CurveClass.exceptional_line(ctx, 5), rs)
    assert len(orbit) == 16


def test_weight_coords_invariant_under_canonical_shift():
    rng = random.Random(73)
    for ctx in (CTX223, CTX233):
        k = canonical_class(ctx)
        for _ in range(20):
            d = DivisorClass(ctx, (rng.randint(-3, 3),),
                             tuple(rng.randint(-3, 3) for _ in range(ctx.r)))
            t = rng.randint(-2, 2)
            assert weight_coords(d) == weight_coords(d + t * k)


def _sub_system(rs, k, label):
    # the root subsystem spanned by the first k simple roots
    return RootSystemData(rs.ctx, rs.simple_roots[:k], label,
                          tuple(row[:k] for row in rs.cartan[:k]))


def test_weights_of_rank_one_string():
    rs = _sub_system(simple_roots(LatticeContext(2, 1, 3)), 1, "A1")
    assert rs.cartan == ((2,),)
    assert set(weights_of_irrep((2,), rs)) == {(-2,), (0,), (2,)}
    assert set(weights_of_irrep((1,), rs)) == {(-1,), (1,)}


def test_weights_of_adjoint_a2():
    rs = _sub_system(simple_roots(LatticeContext(2, 1, 3)), 2, "A2")
    assert rs.cartan == ((2, -1), (-1, 2))
    weights = weights_of_irrep((1, 1), rs)
    assert len(weights) == 7
    assert weights.count((0, 0)) == 1
    orbit = weyl_orbit_weights((1, 1), rs)
    assert len(orbit) == 6


def test_weights_of_adjoint_a4():
    # the adjoint module of A4: the 20 roots, one Weyl orbit, and the zero weight
    rs = simple_roots(LatticeContext(2, 1, 3))
    assert rs.dynkin_label == "A4"
    weights = weights_of_irrep((1, 0, 0, 1), rs)
    assert len(weights) == 21
    orbit = weyl_orbit_weights((1, 0, 0, 1), rs)
    assert len(orbit) == 20
    assert set(weights) - set(orbit) == {(0, 0, 0, 0)}
    with pytest.raises(PreconditionError) as err:
        weights_of_irrep((1, 0, 0, -1), rs)
    assert err.value.field == "lambda"


def test_minuscule_verdicts():
    assert is_minuscule(CTX223)
    assert is_minuscule(LatticeContext(3, 1, 4))
    assert is_minuscule(CTX233)
    assert not is_minuscule(LatticeContext(2, 3, 4))


def test_minuscule_refuses_infinite_type():
    with pytest.raises(PreconditionError):
        is_minuscule(LatticeContext(3, 3, 3))


def test_e7_weight_count_exceeds_orbit():
    ctx = LatticeContext(2, 3, 4)
    rs = simple_roots(ctx)
    lam = weight_coords(DivisorClass.exceptional(ctx, 7))
    assert len(weights_of_irrep(lam, rs)) == 127
    assert len(weyl_orbit_weights(lam, rs)) == 126


def test_degree_one_divisors_match_orbit_when_minuscule():
    for ctx in (CTX223, CTX233, LatticeContext(3, 1, 4)):
        orbit = set(weyl_orbit(DivisorClass.exceptional(ctx, ctx.r), simple_roots(ctx)))
        classes = set(degree_one_divisors(ctx))
        assert orbit == classes


def test_degree_one_divisors_e7_includes_half_anticanonical():
    ctx = LatticeContext(2, 3, 4)
    classes = degree_one_divisors(ctx)
    assert len(classes) == 127
    extra = DivisorClass(ctx, (2,), (1, 1, 1, 1, 1, 1, 1))
    assert extra in classes
    assert 2 * extra == anticanonical(ctx)
    orbit = weyl_orbit(DivisorClass.exceptional(ctx, 7), simple_roots(ctx))
    assert set(classes) - set(orbit) == {extra}


def test_degree_one_divisors_really_have_degree_one():
    for ctx in (CTX223, LatticeContext(2, 3, 4)):
        assert all(degree(d) == 1 for d in degree_one_divisors(ctx))


def _finite_contexts(max_rank):
    # every finite-type context of Picard rank a + b + c - 1 <= max_rank
    return [LatticeContext(a, b, c)
            for a in range(2, max_rank) for b in range(1, max_rank) for c in range(2, max_rank)
            if a + b + c - 1 <= max_rank and (a, c) != (2, 2) and is_finite_type(a, b, c)]


def test_degree_one_classes_solve_the_weight_system_integrally():
    """Oracle by a sympy inverse: each weight mu of the E_r system has one
    class D with pairing(D, alpha_j) = mu_j and (D, -K) = kappa; it is
    integral, and these classes are degree_one_divisors, whose cap fires
    where the weights' does."""
    checked = 0
    for ctx in _finite_contexts(9):
        rs = simple_roots(ctx)
        try:
            weights = weights_of_irrep(weight_coords(DivisorClass.exceptional(ctx, ctx.r)), rs,
                                       cap=2401)
        except CapExceeded:
            continue  # (3, 2, 5) and (5, 2, 3): E8 with 26,401 weights
        basis = [DivisorClass.from_coords(ctx, tuple(int(i == j) for j in range(ctx.rank)))
                 for i in range(ctx.rank)]
        system = [[pairing(e, alpha) for e in basis] for alpha in rs.simple_roots]
        system.append([pairing(e, anticanonical(ctx)) for e in basis])
        inverse = sympy.Matrix(system).inv()
        scale = int(sympy.ilcm(*(v.q for v in inverse)))
        adjugate = [[int(v * scale) for v in inverse.row(i)] for i in range(ctx.rank)]
        solved = []
        for mu in weights:
            rhs = mu + (ctx.kappa,)
            x = [sum(a * b for a, b in zip(row, rhs)) for row in adjugate]
            assert all(v % scale == 0 for v in x), (ctx, mu)
            solved.append(tuple(v // scale for v in x))
        assert sorted(solved) == [d.coords() for d in degree_one_divisors(ctx)], ctx
        size = len(weights)
        assert len(degree_one_divisors(ctx, cap=size)) == size
        with pytest.raises(CapExceeded) as err:
            degree_one_divisors(ctx, cap=size - 1)
        assert (err.value.what, err.value.cap) == ("weight saturation", size - 1)
        checked += 1
    assert checked == 41


def _naive_orbit(start, roots, act, cap):
    # breadth-first closure over the public, validated reflections
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for alpha in roots:
                y = act(alpha, x)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise CapExceeded("naive", cap)
                    nxt.append(y)
        frontier = nxt
    return seen


# finite contexts with small Weyl groups: a = 2, 3 and 4, types A4, A5, D5, E6
NAIVE_CONTEXTS = ((2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 1, 3), (4, 1, 2), (2, 3, 3))


def test_orbits_match_naive_closure_over_public_reflections():
    rng = random.Random(74)
    cap = 400
    for t in NAIVE_CONTEXTS:
        ctx = LatticeContext(*t)
        rs = simple_roots(ctx)
        nh = ctx.a - 1
        divisors = [DivisorClass.exceptional(ctx, ctx.r), DivisorClass.hyperplane(ctx, nh)]
        curves = [CurveClass.exceptional_line(ctx, ctx.r), CurveClass.line(ctx, 1)]
        for _ in range(4):
            divisors.append(DivisorClass(ctx, tuple(rng.randint(-1, 2) for _ in range(nh)),
                                         tuple(rng.choice((0, 0, 1, -1)) for _ in range(ctx.r))))
            curves.append(CurveClass(ctx, tuple(rng.randint(-1, 2) for _ in range(nh)),
                                     tuple(rng.choice((0, 0, 1, -1)) for _ in range(ctx.r))))
        for start, orbit_of, act, key in (
                *((d, weyl_orbit, reflect, DivisorClass.sort_key) for d in divisors),
                *((g, weyl_orbit_curves, _reflect_curve, CurveClass.sort_key) for g in curves)):
            try:
                want = sorted(_naive_orbit(start, rs.simple_roots, act, cap), key=key)
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    orbit_of(start, rs, cap)
                continue
            assert list(orbit_of(start, rs, cap)) == want


def test_orbit_cap_boundary_for_every_orbit_kind():
    ctx = CTX223
    rs = simple_roots(ctx)
    lam = weight_coords(DivisorClass.exceptional(ctx, 5))
    cases = ((weyl_orbit, DivisorClass.exceptional(ctx, 5), "weyl_orbit"),
             (weyl_orbit, DivisorClass(ctx, (1,), (1, 0, 0, 0, 0)), "weyl_orbit"),
             (weyl_orbit_curves, CurveClass.line(ctx), "weyl_orbit_curves"),
             (weyl_orbit_weights, lam, "weyl_orbit_weights"),
             (weyl_orbit_weights, (1, 0, 0, 0, 0), "weyl_orbit_weights"))
    for orbit_of, start, what in cases:
        size = len(orbit_of(start, rs))
        assert len(orbit_of(start, rs, cap=size)) == size
        with pytest.raises(CapExceeded) as err:
            orbit_of(start, rs, cap=size - 1)
        assert (err.value.what, err.value.cap) == (what, size - 1)


def test_orbit_errors_match_the_reflections():
    ctx = CTX223
    rs = simple_roots(ctx)
    d = DivisorClass.exceptional(ctx, 5)
    g = CurveClass.exceptional_line(ctx, 5)
    other = simple_roots(CTX233)
    h = DivisorClass.hyperplane(ctx)
    for roots in ((h,) + rs.simple_roots, rs.simple_roots + (h,)):
        not_a_root = RootSystemData(ctx, roots, rs.dynkin_label, rs.cartan)
        for orbit_of, start in ((weyl_orbit, d), (weyl_orbit_curves, g)):
            with pytest.raises(PreconditionError) as err:
                orbit_of(start, not_a_root)
            assert (err.value.field, err.value.detail) == (
                "alpha", "reflection axis must have self-pairing -2")
    # a curve is reflected through its intersection with the root
    cases = ((weyl_orbit, reflect, d, "divisor classes live in different contexts"),
             (weyl_orbit_curves, intersect, g,
              "divisor and curve live in different contexts"))
    for orbit_of, act, start, detail in cases:
        for call in (lambda: orbit_of(start, other), lambda: act(other.simple_roots[0], start)):
            with pytest.raises(PreconditionError) as err:
                call()
            assert (err.value.field, err.value.detail) == ("ctx", detail)
