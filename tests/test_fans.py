import itertools
import random

import pytest

import toriq.cones
from toriq.cones import Cone
from toriq.fans import (
    Fan,
    FanSystem,
    FanViolation,
    GluingViolation,
    build_fan,
    build_fan_system,
    minimal_cone_containing,
)

from _oracles import (
    dd_transitivity_failure,
    projective_space_charts,
    random_fan,
    scan_minimal_cone_containing,
    scan_orbit_of_cone,
    unmemoised,
)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def cone(*gens, rank=3):
    return Cone.from_generators(list(gens), rank)


# ---------------------------------------------------------------------------
# fans


def test_two_chart_fan_cone_count(ex):
    # each 2-dimensional maximal cone contributes 4 faces; the origin is shared
    fan = ex.source_fan
    assert len(fan.maximal_cones) == 2
    face_sets = [set(c.faces()) for c in fan.maximal_cones]
    assert len(face_sets[0]) == 4 and len(face_sets[1]) == 4
    assert face_sets[0] & face_sets[1] == {Cone.zero(4)}
    assert len(fan.all_cones) == 7


def test_affine_space_fan_cone_count(ex):
    assert len(ex.target_fan.all_cones) == 8


def test_fan_violation_on_interior_ray():
    with pytest.raises(FanViolation) as err:
        build_fan([cone((1, 0), (0, 1), rank=2), cone((1, 1), rank=2)])
    assert err.value.indices == (0, 1)


def test_fan_violation_names_the_first_bad_pair():
    square = cone((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
    cases = [
        # the meet is a face of the second cone only
        ([cone((1, 0), (0, 1), rank=2), cone((1, 1), rank=2)], (0, 1)),
        # the meet is half the square, cut along its diagonal: its rays are
        # rays of the square, but it is a face of neither cone
        ([cone(E1), square, cone((1, 0, 1), (-1, 0, 1), (0, -1, -1))], (1, 2)),
        # the meet is the first cone, a ray through the square's interior
        ([cone(E3), cone(E1, E2), square], (0, 2)),
    ]
    for cones, (i, j) in cases:
        with pytest.raises(FanViolation) as err:
            build_fan(cones)
        assert err.value.indices == (i, j)
        assert str(err.value) == f"cones {i} and {j} do not intersect in a common face"


def test_fan_drops_redundant_face_cones():
    sigma = cone(E1, E2)
    fan = build_fan([sigma, cone(E1)])
    assert fan.maximal_cones == (sigma,)
    assert cone(E1) in fan.all_cones


def test_fan_rejects_non_pointed():
    with pytest.raises(ValueError):
        build_fan([cone((1, 0), (-1, 0), rank=2)])


def test_minimal_cone_containing_ray(ex):
    rho4 = ex.cones["rho4"]
    assert minimal_cone_containing(ex.target_fan, rho4) == ex.cones["tau1"]


def test_minimal_cone_containing_outside(ex):
    assert minimal_cone_containing(ex.target_fan, (-1, 0, 0)) is None


def test_minimal_cone_containing_vector(ex):
    got = minimal_cone_containing(ex.source_fan, (0, 0, 1, 1))
    assert got == ex.cones["sigma2"]


def test_minimal_cone_uniqueness_random():
    # vectors, fan cones and cones spanned inside a maximal cone, against
    # the scan over every fan cone
    rng = random.Random(31)
    found = {"vector": 0, "cone": 0, "none": 0}
    for _ in range(15):
        fan = random_fan(rng)
        targets = [tuple(rng.randint(-4, 4) for _ in range(fan.rank)) for _ in range(10)]
        targets += fan.all_cones
        for c in fan.maximal_cones:
            combos = [tuple(map(sum, zip(*rng.sample(c.rays, rng.randint(1, len(c.rays))))))
                      for _ in range(2)]
            targets.append(Cone.from_generators(combos, fan.rank))
        for target in targets:
            got = fan.minimal_cone_containing(target)
            assert got == scan_minimal_cone_containing(fan, target)
            if isinstance(target, Cone):
                hosts = [c for c in fan.all_cones if c.contains_cone(target)]
            else:
                hosts = [c for c in fan.all_cones if c.contains_point(target)]
            if got is None:
                assert not hosts
                found["none"] += 1
            else:
                # every fan cone holding the target holds the smallest one
                assert all(c.contains_cone(got) for c in hosts)
                found["cone" if isinstance(target, Cone) else "vector"] += 1
    assert min(found.values()) > 10


# ---------------------------------------------------------------------------
# fan systems


def test_glued_system_is_non_separated(ex):
    assert not ex.system.separated
    assert len(ex.system.orbits()) == 7


def test_single_chart_system_is_separated(ex):
    sys = build_fan_system([ex.cones["delta"]])
    assert sys.separated
    assert len(sys.orbits()) == 8


def test_full_intersection_gluing_is_separated(ex):
    tau1, rho3 = ex.cones["tau1"], ex.cones["rho3"]
    sys = build_fan_system([tau1, rho3], {(0, 1): Cone.zero(3)})
    assert sys.separated  # tau1 and rho3 intersect only in the origin


def test_gluing_must_be_common_face(ex):
    # rho4 is a face of tau2 but lies in the relative interior of tau1
    with pytest.raises(GluingViolation):
        build_fan_system([ex.cones["tau1"], ex.cones["tau2"]], {(0, 1): ex.cones["rho4"]})


def test_gluing_a_chart_pair_under_both_keys_is_rejected(ex):
    tau1, tau2, zero = ex.cones["tau1"], ex.cones["tau2"], Cone.zero(3)
    # a lone (j, i) key glues the pair; given next to (i, j), neither wins
    assert FanSystem([tau1, tau2], {(1, 0): zero}) == ex.system
    for g in (zero, ex.cones["rho4"]):
        with pytest.raises(GluingViolation, match="charts 0, 1 are glued more than once"):
            FanSystem([tau1, tau2], {(0, 1): zero, (1, 0): g})


def test_gluing_transitivity_check():
    ray = Cone.from_generators([(1,)], 1)
    zero = Cone.zero(1)
    with pytest.raises(GluingViolation):
        FanSystem([ray, ray, ray], {(0, 1): ray, (1, 2): ray, (0, 2): zero})


def test_transitivity_check_matches_ordered_triple_oracle():
    # P^3 charts glued along the full intersections of 1-3 chart pairs
    rays = [E1, E2, E3, (-1, -1, -1)]
    gens = [[r for r in rays if r != skip] for skip in rays]
    charts = [cone(*g) for g in gens]
    pairs = list(itertools.combinations(range(4), 2))
    subsets = [c for k in (1, 2, 3) for c in itertools.combinations(pairs, k)]
    accepted = 0
    for chosen in subsets:
        gluing = {(i, j): cone(*(r for r in gens[i] if r in gens[j])) for i, j in chosen}
        expected = dd_transitivity_failure(charts, gluing)
        if expected is None:
            FanSystem(charts, gluing)
            accepted += 1
        else:
            with pytest.raises(GluingViolation) as err:
                FanSystem(charts, gluing)
            assert str(err.value) == expected
    assert (len(subsets), accepted) == (41, 13)


def test_fan_runs_no_transitivity_check(monkeypatch):
    # a fan is glued along its own meets, so the check cannot fail and
    # tests no ray; the chart system over the same charts and gluing runs
    # it, and an intransitive gluing still fails there
    tests = []
    contains_point = Cone.contains_point

    def counting(self, v):
        tests.append(v)
        return contains_point(self, v)

    monkeypatch.setattr(Cone, "contains_point", counting)
    fan = Fan(projective_space_charts(5))
    assert len(fan.charts) == 6 and tests == []
    FanSystem(fan.charts, fan.gluing)
    assert tests
    ray, zero = Cone.from_generators([(1,)], 1), Cone.zero(1)
    with pytest.raises(GluingViolation, match="not transitive across charts 0, 1, 2"):
        FanSystem([ray, ray, ray], {(0, 1): ray, (1, 2): ray, (0, 2): zero})


def test_separated_system_to_fan_and_back(ex):
    tau1, rho3 = ex.cones["tau1"], ex.cones["rho3"]
    sys = build_fan_system([tau1, rho3], {(0, 1): Cone.zero(3)})
    fan = sys.as_fan()
    assert set(fan.maximal_cones) == {tau1, rho3}
    assert set(fan.charts) == set(sys.charts)
    assert fan.separated


def test_fan_and_system_share_each_chart_pair_meet(monkeypatch):
    # a fan and a chart system over the same charts read one memoised meet
    # per chart pair, whichever is built first: the second runs no DD pass
    passes = []
    dd = toriq.cones._double_description

    def counting(*args):
        passes.append(args)
        return dd(*args)

    monkeypatch.setattr(toriq.cones, "_double_description", counting)
    rays = [E1, E2, E3, (-1, -1, -1)]
    pairs = list(itertools.combinations(range(4), 2))
    for system_first in (False, True):
        with unmemoised():
            charts = [cone(*(r for r in rays if r != skip)) for skip in rays]
            passes.clear()
            system = FanSystem(charts)
            early = [system.meet(i, j) for i, j in pairs] if system_first else []
            fan = Fan(charts)
            meets = early or [system.meet(i, j) for i, j in pairs]
            assert len(passes) == 6
            at = fan.charts.index
            assert all(meet is fan.gluing_cone(at(charts[i]), at(charts[j]))
                       for meet, (i, j) in zip(meets, pairs))


def test_non_separated_system_has_no_fan(ex):
    with pytest.raises(ValueError):
        ex.system.as_fan()


# ---------------------------------------------------------------------------
# orbit bookkeeping


def test_shared_torus_orbit(ex):
    sys = ex.system
    zero = Cone.zero(3)
    assert sys.orbit(0, zero) == sys.orbit(1, zero)


def test_unshared_face_orbits_are_distinct(ex):
    sys = ex.system
    rho4 = ex.cones["rho4"]
    orbit_rho4 = sys.orbit(1, rho4)
    for face in ex.cones["tau1"].faces():
        assert sys.orbit(0, face) != orbit_rho4


def test_orbit_requires_face_of_chart(ex):
    with pytest.raises(ValueError):
        ex.system.orbit(0, ex.cones["rho3"])  # rho3 is not a face of tau1
    with pytest.raises(ValueError):
        # rho4 lies inside tau1 set-theoretically but is not a face of it,
        # so no orbit of chart 0 is indexed by it
        ex.system.orbit(0, ex.cones["rho4"])


def test_doubled_line_orbits():
    ray = Cone.from_generators([(1,)], 1)
    doubled = FanSystem([ray, ray], {(0, 1): Cone.zero(1)})
    assert not doubled.separated
    assert len(doubled.orbits()) == 3  # shared torus, two distinct ray orbits
    assert doubled.orbit(0, ray) != doubled.orbit(1, ray)
    with pytest.raises(ValueError):
        doubled.orbit_of_cone(ray)  # ambiguous across the two charts


def test_orbit_of_cone_lookup(ex):
    sys = ex.system
    assert sys.orbit_of_cone(ex.cones["rho4"]).chart == 1
    with pytest.raises(ValueError):
        sys.orbit_of_cone(ex.cones["delta"])


def orbit_or_error(lookup, sys, cone):
    try:
        return lookup(sys, cone)
    except ValueError as err:
        return str(err)


def test_orbit_of_cone_matches_scan_oracle(ex):
    rng = random.Random(31)
    ray = Cone.from_generators([(1,)], 1)
    systems = [ex.system, FanSystem([ray, ray]), ex.target_fan]
    for _ in range(20):
        fan = random_fan(rng, max_rank=3)
        systems += [fan, FanSystem(fan.maximal_cones)]
    for sys in systems:
        n = sys.rank
        probes = [f for chart in sys.charts for f in chart.faces()]
        # a chart's own non-face, a cone with lineality, a cone of another rank
        probes += [Cone.from_generators([(1,) * n], n), Cone.full(n), Cone.zero(n + 1)]
        for cone in probes:
            got = orbit_or_error(FanSystem.orbit_of_cone, sys, cone)
            assert got == orbit_or_error(scan_orbit_of_cone, sys, cone)


def test_system_equivalence_under_permutation(ex):
    tau1, tau2 = ex.cones["tau1"], ex.cones["tau2"]
    zero = Cone.zero(3)
    a = FanSystem([tau1, tau2], {(0, 1): zero})
    b = FanSystem([tau2, tau1], {(0, 1): zero})
    assert a != b
    assert a.is_equivalent(b)


def test_system_equivalence_permutes_only_equal_charts():
    # twelve distinct rank-2 charts around the origin: only the identity
    # renumbering maps each chart to an equal one, so comparing the
    # torus-glued system with its fan tries one renumbering, not 12!
    rays = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1),
            (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -1)]
    charts = [Cone.from_generators([a, b], 2) for a, b in zip(rays, rays[1:] + rays[:1])]
    fan = Fan(charts)
    assert len(fan.charts) == 12 and fan.charts != tuple(charts)
    assert not FanSystem(charts).is_equivalent(fan)
    assert FanSystem(fan.charts, fan.gluing).is_equivalent(FanSystem(charts, {
        (charts.index(fan.charts[i]), charts.index(fan.charts[j])): g
        for (i, j), g in fan.gluing.items()
    }))
    # repeated charts still need renumberings within their group
    ray, zero = Cone.from_generators([(1,)], 1), Cone.zero(1)
    a = FanSystem([ray, ray, ray, zero], {(0, 1): ray})
    b = FanSystem([zero, ray, ray, ray], {(2, 3): ray})
    assert a.is_equivalent(b) and b.is_equivalent(a)
    assert not a.is_equivalent(FanSystem([zero, ray, ray, ray], {(1, 2): zero}))
    assert not a.is_equivalent(FanSystem([ray, ray, ray, ray], {(0, 1): ray}))


def test_fan_is_its_own_separated_chart_system(ex):
    for fan in (ex.source_fan, ex.target_fan):
        assert isinstance(fan, FanSystem) and fan.separated
        assert fan.charts == fan.maximal_cones
        assert all(fan.gluing_cone(i, j) == fan.charts[i].intersect(fan.charts[j])
                   for i, j in fan.gluing)
        system = FanSystem(fan.charts, fan.gluing)
        # equality keeps the types apart; equivalence compares charts and
        # gluing, so a system is equivalent to the fan over its glued charts
        assert system != fan and fan != system
        assert system.is_equivalent(fan) and fan.is_equivalent(system)
    # up to renumbering the charts
    tau1, rho3 = ex.cones["tau1"], ex.cones["rho3"]
    assert Fan([tau1, rho3]).charts == (rho3, tau1)
    assert FanSystem([tau1, rho3]).is_equivalent(Fan([tau1, rho3]))


def test_rank_zero_fan():
    fan = Fan([Cone.zero(0)])
    assert len(fan.all_cones) == 1
    assert len(fan.orbits()) == 1
