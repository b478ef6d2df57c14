"""Minimal classes, projections, decompositions, membership."""

import random
from itertools import combinations_with_replacement

import pytest

from coxforge import blowup_divisors, root_system
from coxforge.blowup_divisors import (
    BlowupContext,
    classify_minimal_projection,
    decompose_degree1,
    eff_membership,
    effective_decompose,
    enumerate_minimal,
    minimal_class,
    minimal_parameters,
    mult_lower_bound,
    project_class,
)
from coxforge.errors import CapExceeded, PreconditionError
from coxforge.picard_lattice import (
    CurveClass,
    DivisorClass,
    LatticeContext,
    anticanonical,
    degree,
    intersect,
)
from coxforge.root_system import (
    degree_one_divisors,
    reflect,
    simple_roots,
    weyl_orbit_curves,
)

BC25 = BlowupContext(2, 5)
BC36 = BlowupContext(3, 6)
BC47 = BlowupContext(4, 7)


def test_context_properties():
    assert BC25.lattice_context() == LatticeContext(2, 2, 3)
    assert BC47.lattice_context() == LatticeContext(2, 2, 5)
    assert BC36.alpha == 1
    assert BlowupContext(3, 7).alpha == 2
    with pytest.raises(PreconditionError):
        BlowupContext(3, 5)


def test_minimal_class_shape():
    e = minimal_class(BC25, 1, (2, 4))
    assert e.h == (1,)
    assert e.m == (0, 1, 0, 1, 0)
    e = minimal_class(BC47, 2, (1, 2))
    assert e.m == (2, 2, 1, 1, 1, 1, 1)


def test_minimal_class_index_count_enforced():
    with pytest.raises(PreconditionError):
        minimal_class(BC25, 1, (1, 2, 3))
    with pytest.raises(PreconditionError):
        minimal_class(BC36, 2, (1, 2))


def test_enumerate_counts():
    assert len(enumerate_minimal(BC25)) == 11
    assert len(enumerate_minimal(BC36)) == 26
    assert len(enumerate_minimal(BC47)) == 57
    for bc in (BC25, BC36, BC47):
        n, r = bc.n, bc.r
        assert len(enumerate_minimal(bc)) + r == 2 ** (n + 2)


def test_enumerate_members_have_degree_one():
    for bc in (BC25, BC36):
        for e in enumerate_minimal(bc):
            assert degree(e) == 1


def test_minimal_parameters_round_trip():
    for bc in (BC25, BC36, BC47):
        for e in enumerate_minimal(bc):
            k, idx = minimal_parameters(e, bc)
            assert minimal_class(bc, k, idx) == e


def test_minimal_parameters_rejects_non_minimal():
    ctx = BC25.lattice_context()
    with pytest.raises(PreconditionError):
        minimal_parameters(DivisorClass(ctx, (1,), (1, 1, 1, 0, 0)), BC25)
    with pytest.raises(PreconditionError):
        minimal_parameters(anticanonical(ctx), BC25)


def test_project_class_shapes():
    ctx = BC36.lattice_context()
    d = DivisorClass(ctx, (1,), (1, 1, 0, 0, 0, 0))
    image = project_class(d, BC36)
    assert image.ctx == BlowupContext(2, 5).lattice_context()
    assert image.h == (1,)
    assert image.m == (1, 0, 0, 0, 0)


def test_project_requires_dimension_three():
    d = DivisorClass(BC25.lattice_context(), (1,), (1, 1, 0, 0, 0))
    with pytest.raises(PreconditionError):
        project_class(d, BC25)


def test_projection_case0():
    e = minimal_class(BC36, 2, (1,))
    res = classify_minimal_projection(e, BC36)
    assert res.case == "CASE0"
    assert res.e_q_coefficient == 0
    assert res.target == DivisorClass(LatticeContext(2, 2, 3), (2,), (1, 1, 1, 1, 1))

    e = minimal_class(BC47, 2, (1, 2))
    res = classify_minimal_projection(e, BC47)
    assert res.case == "CASE0"
    assert res.target.m == (2, 1, 1, 1, 1, 1)


def test_projection_case1():
    e = minimal_class(BC47, 2, (2, 3))
    res = classify_minimal_projection(e, BC47)
    assert res.case == "CASE1"
    assert res.e_q_coefficient == 1
    assert res.target.h == (1,)
    assert res.target.m == (1, 1, 0, 0, 0, 0)


def test_projection_special():
    e = minimal_class(BC36, 1, (2, 3, 4))
    res = classify_minimal_projection(e, BC36)
    assert res.case == "SPECIAL"


def test_mult_lower_bound_values():
    conic = DivisorClass(BC25.lattice_context(), (2,), (1, 1, 1, 1, 1))
    assert mult_lower_bound(conic, BC25) == 1
    bc37 = BlowupContext(3, 7)
    # H - E_1 - E_2 on Bl_7 P^3: excess 2 - 3 < 0 clamps to zero
    e = DivisorClass(bc37.lattice_context(), (1,), (1, 1, 0, 0, 0, 0, 0))
    assert mult_lower_bound(e, bc37) == 0
    zero = DivisorClass.zero(BC25.lattice_context())
    assert mult_lower_bound(zero, BC25) == 0


def test_effective_decompose_worked_example():
    ctx = LatticeContext(2, 1, 4)
    d = DivisorClass(ctx, (5,), (3, 3, 2, 5, 1))
    parts = effective_decompose(d)
    assert len(parts) == 5
    got = [tuple(i for i, v in enumerate(p.m, start=1) if v) for p in parts]
    assert got == [(1, 2, 4), (1, 3, 4), (1, 3, 4), (2, 4, 5), (2, 4)]
    assert sum(parts, DivisorClass.zero(ctx)) == d


def test_effective_decompose_random_resum():
    rng = random.Random(81)
    for _ in range(500):
        n = rng.randint(2, 4)
        r = rng.randint(n + 2, 8)
        deg = rng.randint(0, 6)
        while True:
            m = tuple(rng.randint(0, deg) if deg else 0 for _ in range(r))
            if sum(m) <= n * deg:
                break
        ctx = LatticeContext(2, r - n - 1, n + 1)
        d = DivisorClass(ctx, (deg,), m)
        parts = effective_decompose(d)
        assert sum(parts, DivisorClass.zero(ctx)) == d
        for p in parts:
            assert p.h == (1,)
            assert all(v in (0, 1) for v in p.m)


def test_effective_decompose_named_failures():
    ctx = LatticeContext(2, 2, 3)
    with pytest.raises(PreconditionError):
        effective_decompose(DivisorClass(ctx, (-1,), (0,) * 5))
    with pytest.raises(PreconditionError):
        effective_decompose(DivisorClass(ctx, (1,), (2, 0, 0, 0, 0)))
    with pytest.raises(PreconditionError):
        effective_decompose(DivisorClass(ctx, (1,), (1, 1, 1, 0, 0)))


def test_membership_basic_classes():
    ctx = BC25.lattice_context()
    assert eff_membership(anticanonical(ctx))
    assert eff_membership(DivisorClass.exceptional(ctx, 3))
    assert eff_membership(DivisorClass.zero(ctx))
    # A line cannot pass doubly through a point: blocked by the moving
    # class l - e_1.
    res = eff_membership(DivisorClass.hyperplane(ctx) - 2 * DivisorClass.exceptional(ctx, 1))
    assert not res.member
    assert res.certificate == CurveClass.line(ctx) - CurveClass.exceptional_line(ctx, 1)


def test_membership_counterexample_carries_certificate():
    ctx = BC25.lattice_context()
    d = -DivisorClass.exceptional(ctx, 5)
    res = eff_membership(d)
    assert not res.member
    assert res.certificate is not None
    assert intersect(d, res.certificate) < 0


def test_membership_reflection_invariance():
    rng = random.Random(82)
    ctx = BC36.lattice_context()
    rs = simple_roots(ctx)
    for _ in range(60):
        d = DivisorClass(ctx, (rng.randint(0, 4),),
                         tuple(rng.randint(-2, 3) for _ in range(6)))
        verdict = bool(eff_membership(d))
        for alpha in rs.simple_roots:
            assert bool(eff_membership(reflect(alpha, d))) == verdict


def test_decompose_degree1_finds_anticanonical_partition():
    ctx = BC25.lattice_context()
    parts = decompose_degree1(anticanonical(ctx))
    assert parts is not None
    assert sum(parts, DivisorClass.zero(ctx)) == anticanonical(ctx)
    assert all(degree(p) == 1 for p in parts)


def test_decompose_degree1_singleton_and_failure():
    ctx = BC25.lattice_context()
    e2 = DivisorClass.exceptional(ctx, 2)
    assert decompose_degree1(e2) == (e2,)
    # degree 1 but not effective, so no multiset of generators can sum to it
    blocked = DivisorClass.hyperplane(ctx) - 2 * DivisorClass.exceptional(ctx, 1)
    assert decompose_degree1(blocked) is None
    with pytest.raises(PreconditionError):
        decompose_degree1(-e2)


def test_decompose_degree1_cap_is_distinct_from_failure():
    ctx = BC36.lattice_context()
    with pytest.raises(CapExceeded):
        decompose_degree1(3 * anticanonical(ctx), cap=3)


def test_membership_certificate_is_the_first_violator_in_orbit_order():
    rng = random.Random(83)
    for ctx in (BC25.lattice_context(), BC36.lattice_context(), LatticeContext(3, 1, 4)):
        rs = simple_roots(ctx)
        f1 = sum((CurveClass.line(ctx, i) for i in range(2, ctx.a)), CurveClass.line(ctx, 1))
        f1 = f1 - CurveClass.exceptional_line(ctx, 1)
        f2 = CurveClass.line(ctx, ctx.a - 1)
        curves = weyl_orbit_curves(f1, rs) + weyl_orbit_curves(f2, rs)
        violated = 0
        for _ in range(60):
            d = DivisorClass(ctx, tuple(rng.randint(0, 3) for _ in range(ctx.a - 1)),
                             tuple(rng.randint(-2, 3) for _ in range(ctx.r)))
            first = next((g for g in curves if intersect(d, g) < 0), None)
            res = eff_membership(d)
            assert res.member == (first is None)
            assert res.certificate == first
            violated += first is not None
        assert 0 < violated < 60


def _degree_one_sums(ctx, k):
    parts = degree_one_divisors(ctx)
    return {sum(combo, DivisorClass.zero(ctx))
            for combo in combinations_with_replacement(parts, k)}


def test_decompose_degree1_agrees_with_brute_force_multisets():
    rng = random.Random(84)
    ctx = BC25.lattice_context()
    for k in range(1, 4):
        sums = _degree_one_sums(ctx, k)
        targets = sorted(sums, key=DivisorClass.sort_key)[:50]
        while len(targets) < 120:
            # degree (3d - sum m) / kappa = k with kappa = 1 on (2, 2, 3)
            d = rng.randint(0, 3)
            m = [rng.randint(-1, 2) for _ in range(4)]
            m.append(3 * d - k - sum(m))
            targets.append(DivisorClass(ctx, (d,), tuple(m)))
        for target in targets:
            parts = decompose_degree1(target)
            assert (parts is not None) == (target in sums)
            if parts is not None:
                assert len(parts) == k
                assert sum(parts, DivisorClass.zero(ctx)) == target
                assert all(degree(p) == 1 for p in parts)
                assert list(parts) == sorted(parts, key=DivisorClass.sort_key)


def test_decompose_degree1_lists_degree_one_classes_once_per_context(monkeypatch):
    built = []
    saturate = root_system._saturate

    def counted(start, moves, cap, what):
        built.append(cap)
        return saturate(start, moves, cap, what)

    monkeypatch.setattr(root_system, "_saturate", counted)
    root_system._degree_one_coords.cache_clear()
    ctx = LatticeContext(2, 2, 3)
    target = 2 * anticanonical(ctx)
    first = decompose_degree1(target)
    assert decompose_degree1(target) == first
    assert decompose_degree1(anticanonical(ctx)) is not None
    assert built == [10 ** 6]
    monkeypatch.setenv("COXFORGE_CAP", "5000")
    assert decompose_degree1(target) == first
    assert built == [10 ** 6, 5000]


def test_listing_then_decomposing_builds_the_e8_weights_once(monkeypatch):
    built = []
    saturate = root_system._saturate

    def counted(start, moves, cap, what):
        built.append(start)
        return saturate(start, moves, cap, what)

    monkeypatch.setattr(root_system, "_saturate", counted)
    root_system._degree_one_coords.cache_clear()
    ctx = LatticeContext(2, 3, 5)
    classes = degree_one_divisors(ctx)
    assert len(classes) == 2401
    parts = decompose_degree1(anticanonical(ctx))
    assert parts is not None and sum(parts, DivisorClass.zero(ctx)) == anticanonical(ctx)
    assert degree_one_divisors(ctx) == classes
    assert len(built) == 1


def _unpruned_decompose(d):
    # the search without the cone prune, as coordinate tuples: the oracle
    # for the first answer of decompose_degree1
    nh = d.ctx.a - 1
    candidates = sorted((c.coords() for c in degree_one_divisors(d.ctx)),
                        key=lambda x: (-sum(x[:nh]), x))
    heights = [sum(x[:nh]) for x in candidates]
    dead = set()

    def search(i, remaining, slots):
        if slots == 0:
            return () if not any(remaining) else None
        if (i, remaining) in dead:
            return None
        want = sum(remaining[:nh])
        if want >= heights[-1] * slots:
            for j in range(i, len(candidates)):
                if heights[j] * slots < want:
                    break
                rest = search(j, tuple(a - b for a, b in zip(remaining, candidates[j])), slots - 1)
                if rest is not None:
                    return (candidates[j],) + rest
        dead.add((i, remaining))
        return None

    found = search(0, d.coords(), int(degree(d)))
    return None if found is None else tuple(DivisorClass.from_coords(d.ctx, x) for x in sorted(found))


def _f1_walls(ctx):
    f1 = sum((CurveClass.line(ctx, i) for i in range(2, ctx.a)), CurveClass.line(ctx, 1))
    return weyl_orbit_curves(f1 - CurveClass.exceptional_line(ctx, 1), simple_roots(ctx))


PRUNE_CONTEXTS = ((2, 2, 3), (2, 2, 4), (2, 3, 3), (3, 1, 3))


def test_decompose_degree1_first_answer_matches_the_unpruned_search():
    rng = random.Random(85)
    found = missing = 0
    for triple in PRUNE_CONTEXTS:
        ctx = LatticeContext(*triple)
        parts = degree_one_divisors(ctx)
        roots = simple_roots(ctx).simple_roots
        targets = [k * anticanonical(ctx) for k in range(1, 5)]
        for _ in range(30):
            # k random degree-1 classes moved by a few roots: degree k, often
            # outside the cone, sometimes a sum of other degree-1 classes
            k = rng.randint(1, 4)
            target = sum(rng.choices(parts, k=k), DivisorClass.zero(ctx))
            for _ in range(rng.randint(1, 4)):
                target = target + rng.choice((-2, -1, 1, 2)) * rng.choice(roots)
            targets.append(target)
        for target in targets:
            expected = _unpruned_decompose(target)
            assert decompose_degree1(target) == expected, target
            found += expected is not None
            missing += expected is None
    assert found > 20 and missing > found


def test_degree_one_classes_pair_nonnegatively_with_the_f1_walls():
    # the soundness of the prune in decompose_degree1
    for triple in ((2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 3), (3, 1, 3), (2, 3, 4)):
        ctx = LatticeContext(*triple)
        walls = _f1_walls(ctx)
        for c in degree_one_divisors(ctx):
            assert all(intersect(c, g) >= 0 for g in walls), (triple, c)


@pytest.mark.parametrize("triple, k, nodes", [
    ((2, 3, 3), 4, 12),
    ((2, 2, 4), 3, 12),
    ((2, 2, 5), 4, 73),
    ((3, 1, 3), 4, 24),
])
def test_decompose_degree1_cap_boundary(triple, k, nodes):
    # minimal passing node caps of the pruned search; without the prune
    # 4(-K) on (2, 3, 3) needs 46,725 nodes
    target = k * anticanonical(LatticeContext(*triple))
    assert decompose_degree1(target, cap=nodes) == _unpruned_decompose(target)
    with pytest.raises(CapExceeded):
        decompose_degree1(target, cap=nodes - 1)


def test_nef_orbits_are_built_one_curve_at_a_time(monkeypatch):
    # the degree-one decomposition builds f1's orbit alone; a member builds
    # no orbit; a non-member builds the orbit of the first nef curve it
    # violates, so f2's only when f1's holds no violator
    built = []
    orbit = blowup_divisors._orbit

    def counted(start, moves, cap, what):
        built.append(start)
        return orbit(start, moves, cap, what)

    monkeypatch.setattr(blowup_divisors, "_orbit", counted)
    ctx = LatticeContext(2, 3, 3)
    f1 = CurveClass.line(ctx) - CurveClass.exceptional_line(ctx, 1)
    f2 = CurveClass.line(ctx)
    blowup_divisors._nef_orbit.cache_clear()
    assert decompose_degree1(2 * anticanonical(ctx)) is not None
    assert built == [f1.coords()]
    blowup_divisors._nef_orbit.cache_clear()
    built.clear()
    assert eff_membership(anticanonical(ctx))
    assert eff_membership(DivisorClass.exceptional(ctx, 6))
    assert built == []
    assert eff_membership(-DivisorClass.exceptional(ctx, 1)).certificate == f1
    assert built == [f1.coords()]
    # positive on f1's whole orbit, negative on part of f2's
    d = DivisorClass(ctx, (1,), (-1, -1, -1, 1, 1, 1))
    assert all(intersect(d, g) >= 0 for g in weyl_orbit_curves(f1, simple_roots(ctx)))
    assert not eff_membership(d)
    assert built == [f1.coords(), f2.coords()]
    assert decompose_degree1(anticanonical(ctx)) is not None
    assert eff_membership(-DivisorClass.exceptional(ctx, 2)).certificate is not None
    assert len(built) == 2


# |positive roots| of each type the walk is sampled on
POSITIVE_ROOTS = {"D5": 20, "D7": 42, "D8": 56, "E6": 36, "E7": 63, "E8": 120, "A6": 21}


def test_membership_walk_matches_the_full_orbit_oracle(monkeypatch):
    # every simple-root reflection of the walk applies one move's v pairs
    # once, so wrapping them counts the reflections of each walk
    walks = []

    class CountedPairs(tuple):
        def __iter__(self):
            walks[-1] += 1
            return super().__iter__()

    def counted_walk(x, moves):
        walks.append(0)
        return walk(x, tuple((f, CountedPairs(v)) for f, v in moves))

    walk = blowup_divisors._walk
    monkeypatch.setattr(blowup_divisors, "_walk", counted_walk)
    rng = random.Random(86)
    for triple, samples in (((2, 2, 3), 40), ((2, 2, 5), 40), ((2, 2, 6), 30),
                            ((2, 3, 3), 40), ((2, 3, 4), 30), ((2, 3, 5), 12),
                            ((3, 1, 4), 40), ((4, 1, 3), 40)):
        ctx = LatticeContext(*triple)
        rs = simple_roots(ctx)
        f1 = sum((CurveClass.line(ctx, i) for i in range(2, ctx.a)), CurveClass.line(ctx, 1))
        f1 = f1 - CurveClass.exceptional_line(ctx, 1)
        f2 = CurveClass.line(ctx, ctx.a - 1)
        walls = [g.coords() for g in weyl_orbit_curves(f1, rs) + weyl_orbit_curves(f2, rs)]
        members = 0
        walks.clear()
        for _ in range(samples):
            d = DivisorClass(ctx, tuple(rng.randint(0, 4) for _ in range(ctx.a - 1)),
                             tuple(rng.randint(-2, 3) for _ in range(ctx.r)))
            x = d.coords()
            oracle = all(sum(a * b for a, b in zip(x, g)) >= 0 for g in walls)
            assert eff_membership(d).member == oracle, (triple, d)
            members += oracle
        assert 0 < members < samples, triple
        assert walks and max(walks) <= POSITIVE_ROOTS[rs.dynkin_label], triple
