import random
from fractions import Fraction
from pathlib import Path

import pytest

from toriq.cones import Cone, dual_cone, semigroup_generators
from toriq.fans import Fan, FanSystem, build_fan
from toriq.intlinalg import Inconsistent, IntMatrix, Sublattice
from toriq.morphisms import (
    ConstructibleOrbitSet,
    IncompatibleMorphism,
    ParametricCoset,
    PartialCover,
    apply_morphism,
    complement_codim,
    fiber_equation,
    fiber_lattice,
    fiber_pieces,
    image_constructible,
    limit_table,
    one_param_limits,
    orbit_image,
    orbit_limit_targets,
    toric_morphism,
)
from toriq.points import OrbitPoint, TorusElement, act, distinguished_point, torus_point
from toriq.scene import load_scene

from toriq.separation import _test_vectors, comparison_morphism

from _oracles import (
    dd_limit_targets,
    partial_p3_gluings,
    random_fan,
    random_point,
    random_torus,
    random_torus_glued_systems,
    random_unimodular,
    scan_orbit_assignment,
)


def ray(*coords, rank=None):
    rank = rank or len(coords[0])
    return Cone.from_generators(list(coords), rank)


# ---------------------------------------------------------------------------
# construction


def test_quotient_morphism_assignments(ex):
    pi = ex.pi
    assert pi.cone_assignment(ex.cones["sigma1"]) == ex.cones["tau1"]
    assert pi.cone_assignment(ex.cones["sigma2"]) == ex.cones["delta"]
    assert pi.cone_assignment(Cone.from_generators([(0, 0, 0, 1)], 4)) == ex.cones["tau1"]


def test_comparison_morphism_is_identity_on_lattice(ex):
    assert ex.kappa.matrix == IntMatrix.identity(3)


def test_incompatible_morphism():
    orthant = build_fan([ray((1, 0), (0, 1))])
    half = build_fan([ray((1, 0), rank=2)])
    with pytest.raises(IncompatibleMorphism):
        toric_morphism(IntMatrix.identity(2), orthant, half)


def test_rank_mismatch():
    orthant = build_fan([ray((1, 0), (0, 1))])
    with pytest.raises(ValueError):
        toric_morphism(IntMatrix.identity(3), orthant, orthant)


def assignment_or_error(build, matrix, source, target):
    try:
        return build(matrix, source, target)
    except IncompatibleMorphism as err:
        return str(err)


def test_orbit_assignment_matches_face_scan_oracle(ex):
    scenes = Path(__file__).resolve().parent.parent / "scenes"
    plane = load_scene(scenes / "punctured-plane.json").morphisms
    morphisms = [ex.pi, ex.pi_tilde, ex.kappa, *plane.values()]
    cases = [(m.matrix, m.source, m.target) for m in morphisms]
    rng = random.Random(57)
    for _ in range(40):
        fan = random_fan(rng, max_rank=3)
        n = fan.rank
        u = random_unimodular(rng, n)
        moved = Fan([Cone.from_generators(map(u.apply, c.rays), n) for c in fan.maximal_cones])
        torus_glued = FanSystem(fan.maximal_cones)
        row = IntMatrix([[rng.randint(-2, 2) for _ in range(n)]], n)
        cases += [
            (IntMatrix.identity(n), fan, fan),
            (IntMatrix.identity(n), torus_glued, fan),
            (u, fan, moved),
            (u, torus_glued, FanSystem(moved.charts, moved.gluing)),
            # a rank-1 projection onto the fan of P^1: faces collapse to the
            # zero cone, and a cone whose image straddles 0 is incompatible
            (row, fan, Fan([ray((1,)), ray((-1,))])),
        ]
    collapsed = incompatible = 0
    for matrix, source, target in cases:
        got = assignment_or_error(
            lambda *a: toric_morphism(*a).orbit_assignment, matrix, source, target
        )
        assert got == assignment_or_error(scan_orbit_assignment, matrix, source, target)
        if isinstance(got, str):
            incompatible += 1
        elif any(o.cone.dim > t.cone.dim for o, t in got.items()):
            collapsed += 1
    assert collapsed > 10 and incompatible > 5


# ---------------------------------------------------------------------------
# applying morphisms


def test_apply_on_torus_point(ex):
    image = ex.pi.apply(TorusElement((2, 3, 5, 7)))
    assert image.orbit.cone.dim == 0
    assert image.coset.coords == (14, 21, 5)


def test_apply_distinguished_to_origin(ex):
    x = distinguished_point(ex.source_fan, ex.cones["sigma2"])
    y = apply_morphism(ex.pi, x)
    assert y == distinguished_point(ex.target_fan, ex.cones["delta"])


def test_apply_comparison_on_glued_ray(ex):
    x = distinguished_point(ex.system, ex.cones["rho4"])
    y = apply_morphism(ex.kappa, x)
    assert y == distinguished_point(ex.target_fan, ex.cones["tau1"])


def test_apply_requires_source_point(ex):
    y = distinguished_point(ex.target_fan, ex.cones["delta"])
    with pytest.raises(ValueError):
        ex.pi.apply(y)


def test_functoriality_of_characters(ex):
    rng = random.Random(51)
    for _ in range(100):
        x = random_point(rng, ex.source_fan)
        y = ex.pi.apply(x)
        chart_id = y.realizations()[0][0]
        chart = ex.target_fan.charts[chart_id]
        toric_y = y.as_toric(chart_id)
        src_chart_id = next(
            i for i, _ in x.realizations() if ex.pi.chart_assignment[i] == chart_id
        )
        toric_x = x.as_toric(src_chart_id)
        for u in semigroup_generators(dual_cone(chart)):
            pulled = tuple(
                sum(ex.lattice_map.rows[k][i] * u[k] for k in range(3))
                for i in range(4)
            )
            assert toric_y.evaluate(u) == toric_x.evaluate(pulled)


# ---------------------------------------------------------------------------
# orbit images and the constructible image


def test_orbit_image_torus_covered(ex):
    zero = ex.source_fan.orbit_of_cone(Cone.zero(4))
    target, covered = orbit_image(ex.pi, zero)
    assert target.cone.dim == 0 and covered


def test_orbit_image_collapsed_ray(ex):
    target, covered = orbit_image(ex.pi, Cone.from_generators([(0, 0, 0, 1)], 4))
    assert target.cone == ex.cones["tau1"] and covered


def test_orbit_image_second_chart(ex):
    target, covered = orbit_image(ex.pi, ex.cones["sigma2"])
    assert target.cone == ex.cones["delta"] and covered


def test_image_constructible_of_quotient(ex):
    img = image_constructible(ex.pi)
    assert set(img.present) == set(ex.expected_present)
    assert set(img.absent) == set(ex.expected_absent)


def test_image_constructible_identity(ex):
    ident = toric_morphism(IntMatrix.identity(3), ex.target_fan, ex.target_fan)
    img = image_constructible(ident)
    assert img.absent == ()
    assert set(img.present) == set(ex.target_fan.all_cones)


def test_image_constructible_comparison_equals_quotient(ex):
    a = image_constructible(ex.pi)
    b = image_constructible(ex.kappa)
    assert a.present == b.present and a.absent == b.absent


def test_partial_cover_detected():
    line = build_fan([ray((1,), rank=1)])
    doubling = toric_morphism(IntMatrix([[2]]), line, line)
    with pytest.raises(PartialCover):
        image_constructible(doubling)


def test_image_requires_fan_target(ex):
    with pytest.raises(ValueError):
        image_constructible(ex.pi_tilde)


# ---------------------------------------------------------------------------
# complement codimension


def test_codim_of_quotient_image(ex):
    assert complement_codim(image_constructible(ex.pi)) == 2


def test_codim_infinity_marker(ex):
    ident = toric_morphism(IntMatrix.identity(3), ex.target_fan, ex.target_fan)
    assert complement_codim(image_constructible(ident)) is None


def test_codim_of_punctured_line():
    line = build_fan([ray((1,), rank=1)])
    s = ConstructibleOrbitSet(line, (Cone.zero(1),), (ray((1,), rank=1),))
    assert complement_codim(s) == 1


# ---------------------------------------------------------------------------
# one-parameter limits


def test_two_limits_in_glued_system(ex):
    t = TorusElement((2, 3, 5))
    p = act(t, torus_point(ex.system, (1, 1, 1)))
    limits = one_param_limits(ex.system, (1, 1, 0), p)
    expected = {
        act(t, distinguished_point(ex.system, ex.cones["tau1"])),
        act(t, distinguished_point(ex.system, ex.cones["rho4"])),
    }
    assert len(limits) == 2 and set(limits) == expected


def test_single_limit_in_fan(ex):
    p = torus_point(ex.target_fan, (2, 3, 5))
    limits = one_param_limits(ex.target_fan, (1, 1, 0), p)
    assert len(limits) == 1
    assert limits[0].orbit.cone == ex.cones["tau1"]


def test_no_limit_outside_support(ex):
    p = torus_point(ex.target_fan, (2, 3, 5))
    assert one_param_limits(ex.target_fan, (-1, 0, 0), p) == ()


def test_limit_fixed_by_isotropy_direction(ex):
    p = act(TorusElement((2, 3, 5)), distinguished_point(ex.system, ex.cones["rho4"]))
    limits = one_param_limits(ex.system, (1, 1, 0), p)
    assert limits == (p,)


def test_limit_uniqueness_on_random_fans():
    rng = random.Random(52)
    samples = 0
    while samples < 100:
        fan = random_fan(rng, max_rank=3)
        p = random_point(rng, fan)
        v = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
        limits = one_param_limits(fan, v, p)
        assert len(limits) <= 1
        if p.orbit.cone.dim == 0:
            # a torus point has a limit exactly when v lies in the support
            assert bool(limits) == fan.support_contains(v)
        samples += 1


def test_limit_targets_match_dual_face_oracle(ex):
    # separated spaces, then torus-glued systems and partial P^3 gluings,
    # where an orbit has several realizations and a cell several limits
    rng = random.Random(54)
    spaces = [random_fan(rng, max_rank=3) for _ in range(12)] + [ex.system]
    spaces += random_torus_glued_systems(random.Random(55), 20) + partial_p3_gluings()
    shared = multi = 0
    for space in spaces:
        vectors = list(_test_vectors(space))
        vectors += [tuple(rng.randint(-2, 2) for _ in range(space.rank)) for _ in range(4)]
        table = limit_table(space, vectors)
        orbits = space.orbits()
        assert len(table) == len(orbits)
        for oid, orbit in enumerate(orbits):
            assert space.orbit_id[orbit] == oid
            shared += len(space.orbit_masks[oid]) > 1
            expected = dd_limit_targets(space, orbit, vectors)
            for k, v in enumerate(vectors):
                from_table = tuple(orbits[t] for t in table[oid][k])
                assert orbit_limit_targets(space, orbit, v) == expected[k] == from_table
                multi += len(expected[k]) > 1
    assert shared > 100 and multi > 150


def test_limit_morphism_compatibility(ex):
    rng = random.Random(53)
    for _ in range(60):
        x = random_point(rng, ex.source_fan)
        v = tuple(rng.randint(-2, 2) for _ in range(4))
        for q in one_param_limits(ex.source_fan, v, x):
            image_limits = one_param_limits(
                ex.target_fan, ex.lattice_map.apply(v), ex.pi.apply(x)
            )
            assert ex.pi.apply(q) in image_limits


def test_limit_of_actual_curve_points(ex):
    # exact curve evaluation: the limit's chart values match the s -> 0 values
    t = TorusElement((2, 3, 5))
    p = act(t, torus_point(ex.system, (1, 1, 1)))
    (limit_rho4,) = [
        q for q in one_param_limits(ex.system, (1, 1, 0), p) if q.orbit.chart == 1
    ]
    chart = ex.cones["tau2"]
    gens = semigroup_generators(dual_cone(chart))
    for s in (Fraction(1, 7), Fraction(1, 100)):
        moved = act(TorusElement.one_parameter((1, 1, 0), s), p)
        toric = moved.as_toric(1)
        for u in gens:
            pairing = u[0] + u[1]  # <u, v> with v = e1 + e2
            if pairing == 0:
                assert toric.evaluate(u) == limit_rho4.as_toric(1).evaluate(u)
            else:
                assert limit_rho4.as_toric(1).evaluate(u) == 0


# ---------------------------------------------------------------------------
# fibers


def test_fiber_over_torus_point(ex):
    t = TorusElement((2, 3, 5))
    y = act(t, torus_point(ex.target_fan, (1, 1, 1)))
    pieces = fiber_pieces(ex.kappa, y)
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.orbit.cone.dim == 0
    assert piece.subtorus.rank == 0
    assert piece.is_single_point
    assert piece.representative == act(t, torus_point(ex.system, (1, 1, 1)))


def test_fiber_over_collapsed_orbit(ex):
    t = TorusElement((2, 3, 5))
    y = act(t, distinguished_point(ex.target_fan, ex.cones["tau1"]))
    pieces = fiber_pieces(ex.kappa, y)
    assert len(pieces) == 2
    assert {p.orbit.cone for p in pieces} == {ex.cones["tau1"], ex.cones["rho4"]}
    want = ex.cones["tau1"].span_lattice
    for piece in pieces:
        assert piece.subtorus == want
        probe = act(t, distinguished_point(ex.system, piece.orbit.cone))
        assert piece.contains(probe)


def test_fiber_over_deep_point(ex):
    y = distinguished_point(ex.target_fan, ex.cones["delta"])
    pieces = fiber_pieces(ex.kappa, y)
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.orbit.cone == ex.cones["tau2"]
    assert piece.subtorus.rank == 3
    assert not piece.is_single_point


def test_fiber_requires_target_point(ex):
    x = torus_point(ex.source_fan, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        fiber_pieces(ex.kappa, x)


def test_fiber_over_absent_orbit_is_empty(ex):
    missing = ex.expected_absent[0]
    y = distinguished_point(ex.target_fan, missing)
    assert fiber_pieces(ex.kappa, y) == ()


def test_parametric_fiber_piece():
    line = build_fan([ray((1,), rank=1)])
    squaring = toric_morphism(IntMatrix([[2]]), line, line)
    y = torus_point(line, (2,))
    pieces = fiber_pieces(squaring, y)
    assert len(pieces) == 1
    piece = pieces[0]
    assert isinstance(piece.representative, ParametricCoset)
    assert not piece.representative.contains_coset(TorusElement((Fraction(3, 2),)))
    y4 = torus_point(line, (4,))
    pieces4 = fiber_pieces(squaring, y4)
    rep = pieces4[0].representative
    assert isinstance(rep, OrbitPoint) and rep.coset.coords in {(2,), (-2,)}


def test_fiber_lattice_is_the_fiber_equations_kernel(ex):
    # the perp of the exponent rows against the solved equation's kernel, at
    # the identity and at random rational points of every target orbit
    scenes = Path(__file__).resolve().parent.parent / "scenes"
    plane = load_scene(scenes / "punctured-plane.json").morphisms
    line = build_fan([ray((1,), rank=1)])
    orthant = build_fan([ray((1, 0), (0, 1))])
    morphisms = [
        ex.pi,
        ex.kappa,
        plane["fold"],
        # squaring: most points have no rational preimage
        toric_morphism(IntMatrix([[2]]), line, line),
        # a line into the plane: points off its image have an empty fiber
        toric_morphism(IntMatrix([[1], [0]]), line, orthant),
    ]
    rng = random.Random(58)
    for _ in range(20):
        fan = random_fan(rng, max_rank=3)
        n = fan.rank
        u = random_unimodular(rng, n)
        moved = Fan([Cone.from_generators(map(u.apply, c.rays), n) for c in fan.maximal_cones])
        morphisms += [
            toric_morphism(u, fan, moved),
            toric_morphism(u, FanSystem(fan.maximal_cones), FanSystem(moved.charts, moved.gluing)),
        ]
    seen = {}
    for m in morphisms:
        n = m.matrix.nrows
        points = [TorusElement.identity(n)] + [random_torus(rng, n) for _ in range(3)]
        for gamma in m.target.orbits():
            lattice = fiber_lattice(m, gamma)
            for t in points:
                sol = fiber_equation(m, gamma, t)[2]
                kind = type(sol).__name__
                seen[kind] = seen.get(kind, 0) + 1
                if not isinstance(sol, Inconsistent):
                    assert lattice == sol.kernel, (m, gamma, t)
    assert seen["CosetSolution"] > 500 and seen["NoRationalPoint"] and seen["Inconsistent"]


def test_fiber_lattice_of_an_identity_map_is_the_span_lattice():
    # the comparison morphism of torus-glued P^4 maps lattices by the
    # identity, so each fiber lattice is the target orbit cone's own
    # span lattice object, with no elimination
    rays = [tuple(int(i == j) for j in range(4)) for i in range(4)] + [(-1,) * 4]
    charts = [
        Cone.from_generators([r for k, r in enumerate(rays) if k != skip], 4)
        for skip in range(5)
    ]
    kappa = comparison_morphism(FanSystem(charts), Fan(charts))
    targets = set(kappa.orbit_assignment.values())
    assert kappa.matrix == IntMatrix.identity(4) and len(targets) == 31
    for gamma in targets:
        assert fiber_lattice(kappa, gamma) is gamma.cone.span_lattice


def test_fiber_lattice_is_the_perp_of_the_pulled_back_rows(ex):
    # the fiber lattice is the perp of span_perp(gamma) pulled back along
    # the map, and the kernel of the fiber equation, whether the map is the
    # identity (``fold``, read off gamma's span lattice) or not
    scenes = Path(__file__).resolve().parent.parent / "scenes"
    fold = load_scene(scenes / "punctured-plane.json").morphisms["fold"]
    rng = random.Random(59)
    fan = build_fan([ray((1, 0, 0), (0, 1, 0), (1, 1, 2)), ray((0, 1, 0), (-1, 0, 0))])
    u = random_unimodular(rng, 3)
    while u == IntMatrix.identity(3):
        u = random_unimodular(rng, 3)
    moved = Fan([Cone.from_generators(map(u.apply, c.rays), 3) for c in fan.maximal_cones])
    morphisms = (ex.pi, fold, toric_morphism(u, fan, moved))
    assert [m.matrix == IntMatrix.identity(m.matrix.ncols) for m in morphisms] == [
        False, True, False
    ]
    for m in morphisms:
        for gamma in m.target.orbits():
            pulled = IntMatrix(gamma.cone.span_perp.basis, m.matrix.nrows) @ m.matrix
            expected = Sublattice.from_rows(m.matrix.ncols, pulled.rows).perp()
            lattice = fiber_lattice(m, gamma)
            assert lattice == expected, (m, gamma)
            sol = fiber_equation(m, gamma, TorusElement.identity(m.matrix.nrows))[2]
            if not isinstance(sol, Inconsistent):
                assert lattice == sol.kernel, (m, gamma)


def test_fiber_soundness_random_targets(ex):
    rng = random.Random(54)
    for _ in range(20):
        y = random_point(rng, ex.target_fan)
        if y.orbit.cone not in set(image_constructible(ex.kappa).present):
            continue
        for piece in fiber_pieces(ex.kappa, y):
            rep = piece.representative
            assert isinstance(rep, OrbitPoint)
            assert ex.kappa.apply(rep) == y
            # translate the representative inside the piece and re-check
            coeffs = [rng.randint(-2, 2) for _ in piece.subtorus.basis]
            shift = [Fraction(1)] * 3
            for c, b in zip(coeffs, piece.subtorus.basis):
                for i in range(3):
                    shift[i] *= Fraction(3) ** (c * b[i])
            moved = act(TorusElement(shift), rep)
            assert ex.kappa.apply(moved) == y
            assert piece.contains(moved)


def test_fiber_completeness_desk_scale(ex):
    rng = random.Random(55)
    for _ in range(40):
        x = random_point(rng, ex.system)
        y = ex.kappa.apply(x)
        pieces = fiber_pieces(ex.kappa, y)
        assert any(p.orbit == x.orbit and p.contains(x) for p in pieces)


def test_factorization_through_glued_system(ex):
    rng = random.Random(56)
    for _ in range(100):
        x = random_point(rng, ex.source_fan)
        assert ex.kappa.apply(ex.pi_tilde.apply(x)) == ex.pi.apply(x)
