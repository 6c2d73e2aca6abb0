import random
from fractions import Fraction

import pytest

from toriq.cones import Cone
from toriq.fans import Fan, FanSystem, GluingViolation, OrbitIndex, build_fan, build_fan_system
from toriq.intlinalg import IntMatrix, Sublattice, invariant_factors
from toriq.morphisms import IncompatibleMorphism, one_param_limits, toric_morphism
from toriq.points import TorusElement, act, torus_point
from toriq.separation import (
    IdentClass,
    IdentificationPartition,
    _test_vectors,
    comparison_morphism,
    forced_identifications,
    invariance_check,
    partition_matches_fibers,
    project_prevariety,
    verify_example,
)

from _oracles import (
    all_meets_test_vectors,
    class_of,
    contains_rational,
    dict_forced_identifications,
    partial_p3_gluings,
    piece_partition_matches_fibers,
    projective_space_charts,
    random_fan,
    random_torus,
    random_torus_glued_systems,
    same_class,
)


def ray1():
    return Cone.from_generators([(1,)], 1)


# ---------------------------------------------------------------------------
# pipeline constructions


def test_project_prevariety_of_quotient(ex):
    system, pi_tilde = project_prevariety(ex.source_fan, ex.lattice_map)
    assert not system.separated
    assert {c for c in system.charts} == {ex.cones["tau1"], ex.cones["tau2"]}
    assert all(g == Cone.zero(3) for g in system.gluing.values())
    assert system.is_equivalent(ex.system)
    x = TorusElement((2, 3, 5, 7))
    assert pi_tilde.apply(x).coset.coords == (14, 21, 5)


def test_project_prevariety_identity_is_separated(ex):
    system, _ = project_prevariety(ex.source_fan, IntMatrix.identity(4))
    assert system.separated
    assert set(system.as_fan().all_cones) == set(ex.source_fan.all_cones)


def test_project_prevariety_single_chart(ex):
    system, _ = project_prevariety(ex.target_fan, IntMatrix.identity(3))
    assert system.separated and len(system.charts) == 1


def test_project_prevariety_rejects_non_pointed_image():
    orthant = build_fan([Cone.from_generators([(1, 0), (0, 1)], 2)])
    collapse = IntMatrix([[1, -1]])
    with pytest.raises(ValueError):
        project_prevariety(orthant, collapse)


def test_comparison_morphism_image(ex):
    kappa = comparison_morphism(ex.system, ex.target_fan)
    from toriq.morphisms import image_constructible

    img = image_constructible(kappa)
    assert set(img.present) == set(ex.expected_present)
    assert set(img.absent) == set(ex.expected_absent)


def test_comparison_morphism_single_chart(ex):
    sys = build_fan_system([ex.cones["delta"]])
    kappa = comparison_morphism(sys, ex.target_fan)
    assert kappa.matrix == IntMatrix.identity(3)


def test_comparison_morphism_incompatible(ex):
    small = build_fan([ex.cones["tau1"]])
    with pytest.raises(IncompatibleMorphism):
        comparison_morphism(ex.system, small)


# ---------------------------------------------------------------------------
# invariance


def test_invariance_of_action_weight(ex):
    assert invariance_check(ex.weight, ex.lattice_map)


def test_invariance_fails_for_unit_vector(ex):
    assert not invariance_check((1, 0, 0, 0), ex.lattice_map)


def test_invariance_zero_weight(ex):
    assert invariance_check((0, 0, 0, 0), ex.lattice_map)


def test_invariance_fails_for_projection(ex):
    proj = IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert not invariance_check(ex.weight, proj)


# ---------------------------------------------------------------------------
# forced identifications


def expected_classes(ex):
    from toriq.separation import _partition_signature

    return ex.expected_partition, _partition_signature


def test_forced_identifications_of_glued_system(ex):
    expected, signature = expected_classes(ex)
    part = forced_identifications(ex.system)
    assert signature(part) == expected
    # spot checks on the interesting classes
    tau1 = ex.system.orbit(0, ex.cones["tau1"])
    rho4 = ex.system.orbit(1, ex.cones["rho4"])
    assert same_class(part, tau1, rho4)
    cls = class_of(part, tau1)
    assert cls.subtorus == Sublattice.from_rows(3, [(1, 0, 0), (0, 1, 0)])


def test_deep_orbit_class_is_whole_torus(ex):
    part = forced_identifications(ex.system)
    tau2 = ex.system.orbit(1, ex.cones["tau2"])
    assert class_of(part, tau2).subtorus == Sublattice.full(3)
    assert class_of(part, tau2).orbits == (tau2,)


def test_separated_fan_gives_singletons(ex):
    sys = ex.target_fan
    part = forced_identifications(sys)
    assert len(part.classes) == len(sys.orbits())
    for cls in part.classes:
        (orbit,) = cls.orbits
        assert cls.subtorus == orbit.cone.span_lattice


def test_doubled_line_identification():
    doubled = FanSystem([ray1(), ray1()], {(0, 1): Cone.zero(1)})
    part = forced_identifications(doubled)
    assert len(part.classes) == 2
    merged = [c for c in part.classes if len(c.orbits) == 2]
    assert len(merged) == 1
    assert merged[0].subtorus == Sublattice.full(1)
    torus_cls = [c for c in part.classes if len(c.orbits) == 1]
    assert torus_cls[0].subtorus.rank == 0


def test_partition_idempotent(ex):
    a = forced_identifications(ex.system)
    b = forced_identifications(ex.system)
    assert a.classes == b.classes


def test_partition_lattices_saturated_and_cover_isotropy(ex):
    part = forced_identifications(ex.system)
    for cls in part.classes:
        basis = cls.subtorus.matrix()
        assert cls.subtorus.rank == 0 or all(
            f == 1 for f in invariant_factors(basis)
        )
        for orbit in cls.orbits:
            span = orbit.cone.span_lattice
            for b in span.basis:
                assert contains_rational(cls.subtorus, b)


def test_partition_equivariance(ex):
    rng = random.Random(61)
    part = forced_identifications(ex.system)
    cls = next(c for c in part.classes if len(c.orbits) == 2)
    a, b = cls.orbits
    for _ in range(50):
        t = random_torus(rng, 3)
        coeffs = [rng.randint(-2, 2) for _ in cls.subtorus.basis]
        shift = [Fraction(1)] * 3
        for c, bb in zip(coeffs, cls.subtorus.basis):
            for i in range(3):
                shift[i] *= Fraction(2) ** (c * bb[i])
        t_shifted = t * TorusElement(shift)
        # (a, t) ~ (b, t') iff t'/t lies in T_K; shifting by T_K preserves it
        ratio = t_shifted * t.inverse()
        assert cls.subtorus.in_subtorus(ratio.coords)


def test_rule_one_soundness_via_events(ex):
    part = forced_identifications(ex.system)
    zero_orbit = ex.system.orbit(0, Cone.zero(3))
    t = TorusElement((2, 3, 5))
    for event in part.events:
        if zero_orbit not in event.source_orbits or len(event.limit_orbits) < 2:
            continue
        p = act(t, torus_point(ex.system, (1, 1, 1)))
        limits = one_param_limits(ex.system, event.vector, p)
        limit_orbits = {q.orbit for q in limits}
        for o in event.limit_orbits:
            assert o in limit_orbits


def test_partition_matches_fibers_for_example(ex):
    part = forced_identifications(ex.system)
    ok, report = partition_matches_fibers(part, ex.kappa)
    assert ok
    assert all(passed for _, passed, _ in report)


def test_partition_matches_fibers_trivial_case(ex):
    fan = ex.target_fan
    part = forced_identifications(fan)
    ident = toric_morphism(IntMatrix.identity(3), fan, fan)
    ok, _ = partition_matches_fibers(part, ident)
    assert ok


def test_partition_of_a_fans_charts_matches_the_fans_fibers(ex):
    # a system over a fan's charts and gluing is not equal to the fan, but
    # its partition is the fan's: the check compares them as chart systems
    for fan in (ex.source_fan, ex.target_fan):
        system = FanSystem(fan.charts, fan.gluing)
        assert system != fan
        ident = toric_morphism(IntMatrix.identity(fan.rank), fan, fan)
        ok, report = partition_matches_fibers(forced_identifications(system), ident)
        assert ok and report
    ident = toric_morphism(IntMatrix.identity(3), ex.target_fan, ex.target_fan)
    with pytest.raises(ValueError, match="different sources"):
        partition_matches_fibers(forced_identifications(ex.system), ident)


def test_partition_coarser_fibers_detected(ex):
    part = forced_identifications(ex.system)
    point_fan = Fan([Cone.zero(0)])
    collapse = toric_morphism(IntMatrix([], 3), ex.system, point_fan)
    ok, report = partition_matches_fibers(part, collapse)
    assert not ok


def test_partition_source_mismatch(ex):
    part = forced_identifications(ex.system)
    other = build_fan_system([ex.cones["delta"]])
    kappa2 = comparison_morphism(other, ex.target_fan)
    with pytest.raises(ValueError):
        partition_matches_fibers(part, kappa2)


# ---------------------------------------------------------------------------
# the end-to-end verification


def test_verify_example_passes():
    report = verify_example()
    assert report.passed
    assert len(report.checks) == 7
    assert [c.name for c in report.checks] == [
        "invariance",
        "image",
        "fibers",
        "limits",
        "codimension",
        "identifications",
        "quotient-comparison",
    ]


def test_verify_example_names_failed_class(monkeypatch):
    import toriq.separation as sep

    real = sep.forced_identifications

    def tampered(system):
        part = real(system)
        first, *rest = part.classes
        wrong = sep.IdentClass(first.orbits, Sublattice.full(system.rank))
        return sep.IdentificationPartition(part.system, (wrong, *rest), part.events)

    monkeypatch.setattr(sep, "forced_identifications", tampered)
    check = verify_example().checks[-1]
    assert check.name == "quotient-comparison" and not check.passed
    assert check.detail == "classes and fibers disagree at class (chart 0, rays [])"


def test_verify_example_names_failed_fiber(monkeypatch, ex):
    import toriq.separation as sep

    real = sep.fiber_pieces
    rho2 = ex.cones["rho2"]

    def tampered(m, y):
        # the fiber over rho2 goes missing away from the identity coset
        if y.orbit.cone == rho2 and y.coset != TorusElement.identity(3):
            return ()
        return real(m, y)

    monkeypatch.setattr(sep, "fiber_pieces", tampered)
    check = verify_example().checks[2]
    assert check.name == "fibers" and not check.passed
    assert check.detail == (
        "fiber over rho2 differs from the expected shape at translation (2, 3, 5)"
    )


def test_separated_variant_behaviour(ex):
    # a separated two-chart system: limits are unique, the partition is
    # trivial, and the comparison morphism is injective on orbits
    sys = build_fan_system([ex.cones["tau1"], ex.cones["rho3"]], {(0, 1): Cone.zero(3)})
    assert sys.separated
    rng = random.Random(62)
    for _ in range(25):
        p = torus_point(sys, tuple(random_torus(rng, 3).coords))
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        assert len(one_param_limits(sys, v, p)) <= 1
    part = forced_identifications(sys)
    assert all(len(c.orbits) == 1 for c in part.classes)
    kappa = comparison_morphism(sys, ex.target_fan)
    targets = list(kappa.orbit_assignment.values())
    assert len(targets) == len(set(targets))
    ok, _ = partition_matches_fibers(part, kappa)
    assert ok


def test_invalid_gluing_still_rejected(ex):
    # gluing along a cone that is not a common face is rejected outright
    with pytest.raises(GluingViolation):
        build_fan_system([ex.cones["tau1"], ex.cones["tau2"]], {(0, 1): ex.cones["rho4"]})


def test_punctured_plane_quotient_end_to_end():
    # the punctured plane (two rays in rank 2) maps onto the line by
    # (x1, x2) -> x1 * x2; the intermediate space is a doubled line whose
    # forced identifications again coincide with the comparison fibers
    source = build_fan(
        [Cone.from_generators([(1, 0)], 2), Cone.from_generators([(0, 1)], 2)]
    )
    pmat = IntMatrix([[1, 1]])
    assert invariance_check((1, -1), pmat)
    system, pi_tilde = project_prevariety(source, pmat)
    assert not system.separated
    assert len(system.charts) == 2 and system.charts[0] == system.charts[1]
    line = build_fan([ray1()])
    kappa = comparison_morphism(system, line)
    from toriq.morphisms import complement_codim, image_constructible

    img = image_constructible(kappa)
    assert img.absent == ()  # the image is everything here
    assert complement_codim(img) is None
    part = forced_identifications(system)
    assert len(part.classes) == 2
    merged = next(c for c in part.classes if len(c.orbits) == 2)
    assert merged.subtorus == Sublattice.full(1)
    ok, _ = partition_matches_fibers(part, kappa)
    assert ok
    # factorization through the doubled line
    rng = random.Random(63)
    pi = toric_morphism(pmat, source, line)
    for _ in range(25):
        x = TorusElement((Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(1, 9), rng.randint(1, 9))))
        assert kappa.apply(pi_tilde.apply(x)) == pi.apply(x)


# ---------------------------------------------------------------------------
# the theorem on P^n charts glued along the torus only


def torus_glued_projective_space(n):
    charts = projective_space_charts(n)
    return build_fan_system(charts), build_fan(charts)


@pytest.mark.parametrize(
    "n, classes, events", [(2, 7, 3), (3, 15, 10), (4, 31, 25), (5, 63, 56), (6, 127, 119)]
)
def test_partition_matches_fibers_on_torus_glued_projective_space(n, classes, events):
    system, fan = torus_glued_projective_space(n)
    part = forced_identifications(system)
    assert (len(part.classes), len(part.events)) == (classes, events)
    ok, report = partition_matches_fibers(part, comparison_morphism(system, fan))
    assert ok, [entry for entry in report if not entry[1]]


def test_event_order_on_torus_glued_p3():
    system, _ = torus_glued_projective_space(3)
    part = forced_identifications(system)
    a, b, c, m = (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)
    expected = [
        ((-1, -1, -1), [(0, (m,)), (1, (m,)), (2, (m,))]),
        ((-1, -1, 0), [(0, (m, c)), (1, (m, c))]),
        ((-1, 0, -1), [(0, (m, b)), (2, (m, b))]),
        ((0, -1, -1), [(1, (m, a)), (2, (m, a))]),
        ((0, 0, 1), [(0, (c,)), (1, (c,)), (3, (c,))]),
        ((0, 1, 0), [(0, (b,)), (2, (b,)), (3, (b,))]),
        ((0, 1, 1), [(0, (c, b)), (3, (c, b))]),
        ((1, 0, 0), [(1, (a,)), (2, (a,)), (3, (a,))]),
        ((1, 0, 1), [(1, (c, a)), (3, (c, a))]),
        ((1, 1, 0), [(2, (b, a)), (3, (b, a))]),
    ]
    torus = [(0, ())]
    assert [
        (e.vector, [(o.chart, o.cone.rays) for o in e.source_orbits],
         [(o.chart, o.cone.rays) for o in e.limit_orbits])
        for e in part.events
    ] == [(v, torus, limits) for v, limits in expected]


def test_test_vectors_match_all_meets_oracle(ex):
    rng = random.Random(77)
    systems = [ex.system, *(torus_glued_projective_space(n)[0] for n in (2, 3))]
    systems += [random_fan(rng, max_rank=3) for _ in range(20)]
    systems += random_torus_glued_systems(rng, 60 - len(systems))
    new_faces = 0
    for system in systems:
        assert _test_vectors(system) == all_meets_test_vectors(system)
        new_faces += any(
            not (system.meet(i, j).is_face_of(system.charts[i])
                 or system.meet(i, j).is_face_of(system.charts[j]))
            for i in range(len(system.charts)) for j in range(i + 1, len(system.charts))
        )
    assert new_faces > 5


def test_forced_identifications_match_dict_oracle():
    # the fixpoint on orbit ids with the version-memoised skip test against
    # the fixpoint keyed by OrbitIndex that reruns the skip test every step
    rng = random.Random(79)
    systems = [torus_glued_projective_space(n)[0] for n in (2, 3, 4)]
    systems += [random_fan(rng, max_rank=3) for _ in range(20)]
    systems += random_torus_glued_systems(rng, 60)
    partial = partial_p3_gluings()
    assert len(partial) == 13
    merged = 0
    for system in systems + partial:
        part, expected = forced_identifications(system), dict_forced_identifications(system)
        assert [(c.orbits, c.subtorus.basis) for c in part.classes] == [
            (c.orbits, c.subtorus.basis) for c in expected.classes
        ]
        assert part.events == expected.events
        merged += any(len(c.orbits) > 1 for c in part.classes)
    assert merged > 20  # the random fans are separated and merge nothing


def merged_and_replaced(part):
    """Two tampered copies of a partition: its first two classes merged, and
    its first class's subtorus replaced."""
    a, b, *rest = part.classes
    orbits = tuple(sorted(a.orbits + b.orbits, key=OrbitIndex.sort_key))
    merged = IdentClass(orbits, (a.subtorus + b.subtorus).saturate())
    full = Sublattice.full(part.system.rank)
    other = a.orbits[0].cone.span_lattice if a.subtorus == full else full
    return [
        IdentificationPartition(part.system, (merged, *rest), part.events),
        IdentificationPartition(part.system, (IdentClass(a.orbits, other), b, *rest), part.events),
    ]


def test_partition_matches_fibers_match_piece_oracle(ex):
    # the comparison by one fiber equation per target orbit against the one
    # that builds every fiber piece and its representative point
    rng = random.Random(83)
    point_fan = Fan([Cone.zero(0)])
    p1 = build_fan([ray1(), Cone.from_generators([(-1,)], 1)])
    plane, _ = project_prevariety(
        build_fan([Cone.from_generators([(1, 0)], 2), Cone.from_generators([(0, 1)], 2)]),
        IntMatrix([[1, 1]]),
    )
    p3 = torus_glued_projective_space(3)[1]
    cases = [(ex.system, ex.kappa), (plane, comparison_morphism(plane, build_fan([ray1()])))]
    for n in (2, 3, 4, 5):
        system, fan = torus_glued_projective_space(n)
        cases.append((system, comparison_morphism(system, fan)))
    for _ in range(20):
        fan = random_fan(rng, max_rank=3)
        for system in (fan, FanSystem(fan.maximal_cones)):
            cases.append((system, comparison_morphism(system, fan)))
    for system in random_torus_glued_systems(rng, 20):
        n = system.rank
        cases.append((system, toric_morphism(IntMatrix([], n), system, point_fan)))
        row = IntMatrix([[rng.randint(-2, 2) for _ in range(n)]], n)
        try:
            cases.append((system, toric_morphism(row, system, p1)))
        except IncompatibleMorphism:
            pass
    cases += [(system, comparison_morphism(system, p3)) for system in partial_p3_gluings()]
    checks = [(forced_identifications(system), kappa) for system, kappa in cases]
    # tampered inputs: a collapsing morphism, merged classes, a replaced subtorus
    for part, kappa in checks[:6]:
        checks += [(bad, kappa) for bad in merged_and_replaced(part)]
    checks.append((checks[0][0], toric_morphism(IntMatrix([], 3), ex.system, point_fan)))
    passed = []
    for part, kappa in checks:
        got = partition_matches_fibers(part, kappa)
        assert got == piece_partition_matches_fibers(part, kappa)
        passed.append(got[0])
    # the example, the plane, P^2-P^5 and the random fans pass; so do the
    # partial P^3 gluings, and every tampered input fails
    assert all(passed[:46]) and not any(passed[-13:])
    assert sum(passed) == 59 and passed.count(False) > 30
