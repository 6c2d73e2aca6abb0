import random
from fractions import Fraction

import pytest

from toriq.cones import Cone, dual_cone, semigroup_generators
from toriq.points import (
    OrbitPoint,
    ToricPoint,
    TorusElement,
    act,
    distinguished_point,
    evaluate_character,
    torus_point,
)

from _oracles import dd_face_from_values, random_cone, random_torus


# ---------------------------------------------------------------------------
# torus elements


def test_torus_rejects_zero():
    with pytest.raises(ValueError):
        TorusElement((1, 0, 2))


def test_torus_character_values():
    t = TorusElement((2, 3, 5))
    assert t.chi((1, 1, 0)) == 6
    assert t.chi((0, 0, -1)) == Fraction(1, 5)
    assert t.chi((0, 0, 0)) == 1


def test_one_parameter_subgroup():
    lam = TorusElement.one_parameter((1, 1, 0), Fraction(1, 4))
    assert lam.coords == (Fraction(1, 4), Fraction(1, 4), 1)


def test_torus_group_ops():
    t = TorusElement((2, Fraction(1, 3)))
    assert (t * t.inverse()).coords == (1, 1)


# ---------------------------------------------------------------------------
# distinguished points


def test_distinguished_origin(ex):
    p = distinguished_point(ex.target_fan, ex.cones["delta"])
    toric = p.as_toric()
    assert all(toric.evaluate(u) == 0 for u in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_distinguished_torus_unit(ex):
    p = distinguished_point(ex.target_fan, Cone.zero(3))
    toric = p.as_toric()
    assert all(toric.evaluate(u) == 1 for u in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_distinguished_in_second_chart(ex):
    p = distinguished_point(ex.system, ex.cones["rho4"])
    assert p.orbit.chart == 1
    assert p.orbit.cone == ex.cones["rho4"]


def test_distinguished_unknown_cone(ex):
    with pytest.raises(ValueError):
        distinguished_point(ex.target_fan, ex.cones["sigma1"])


# ---------------------------------------------------------------------------
# the torus action


def test_identity_action(ex):
    p = distinguished_point(ex.target_fan, ex.cones["rho3"])
    assert act(TorusElement.identity(3), p) == p


def test_action_on_torus_point(ex):
    p = torus_point(ex.target_fan, (1, 1, 1))
    q = act(TorusElement((2, 3, 5)), p)
    assert q.coset.coords == (2, 3, 5)


def test_action_on_boundary_point(ex):
    p = distinguished_point(ex.target_fan, ex.cones["rho3"]).as_toric()
    q = act(TorusElement((2, 3, 5)), p)
    values = q.value_map()
    assert values[(1, 0, 0)] == 2
    assert values[(0, 1, 0)] == 3
    assert values[(0, 0, 1)] == 0


def test_character_of_translated_torus_point(ex):
    p = torus_point(ex.target_fan, (1, 1, 1))
    q = act(TorusElement((2, 3, 5)), p)
    assert evaluate_character(q.as_toric(), (1, 1, 0)) == 6


def test_evaluate_outside_dual_cone(ex):
    p = distinguished_point(ex.target_fan, ex.cones["delta"]).as_toric()
    with pytest.raises(ValueError):
        p.evaluate((-1, 0, 0))


# ---------------------------------------------------------------------------
# semigroup-homomorphism points


def test_toric_point_roundtrip(ex):
    p = act(TorusElement((2, 3, 5)), distinguished_point(ex.system, ex.cones["rho4"]))
    toric = p.as_toric()
    rebuilt = ToricPoint.from_values(toric.chart, toric.value_map())
    assert rebuilt == toric
    assert rebuilt.face == ex.cones["rho4"]


def test_from_values_face_matches_dd_route():
    # the face read off the chart's face masks against the chart meet the
    # perp of the nonzero characters, built by description passes, on random
    # pointed charts and on a half-plane with a line
    rng = random.Random(53)
    half_plane = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, -1, 0)], 3)
    cases = [(half_plane, Cone.from_generators([(0, 1, 0), (0, -1, 0)], 3)), (half_plane, half_plane)]
    while len(cases) < 120:
        chart = random_cone(rng, max_rank=3, entry_bound=2)
        if chart.is_pointed:
            cases += [(chart, face) for face in chart.faces()]
    for chart, face in cases:
        p = ToricPoint.from_orbit(chart, face, random_torus(rng, chart.ambient))
        got = ToricPoint.from_values(chart, p.value_map())
        nonzero = [u for u, x in p.values if x != 0]
        assert got.face == dd_face_from_values(chart, nonzero) == face
        assert got == p and got.coset == p.coset


def test_toric_point_multiplicativity(ex):
    chart = ex.cones["tau2"]
    gens = semigroup_generators(dual_cone(chart))
    p = act(TorusElement((2, 3, 5)), distinguished_point(ex.system, ex.cones["rho4"]))
    toric = p.as_toric()
    values = toric.value_map()
    for u1 in gens:
        for u2 in gens:
            u3 = tuple(a + b for a, b in zip(u1, u2))
            if u3 in values:
                assert values[u1] * values[u2] == values[u3]


def test_toric_point_bad_vanishing_set(ex):
    chart = ex.cones["tau1"]
    gens = semigroup_generators(dual_cone(chart))
    values = {u: Fraction(1) for u in gens}
    values[(1, 0, 0)] = Fraction(0)  # x1 = 0, x2 != 0 is fine
    ToricPoint.from_values(chart, values)
    bad = {u: Fraction(1) for u in gens}
    bad[(0, 0, 1)] = Fraction(0)  # kills one unit of an invertible pair
    with pytest.raises(ValueError):
        ToricPoint.from_values(chart, bad)


def test_toric_point_inconsistent_values(ex):
    chart = ex.cones["tau1"]
    gens = semigroup_generators(dual_cone(chart))
    bad = {u: Fraction(1) for u in gens}
    bad[(0, 0, 1)] = Fraction(2)
    bad[(0, 0, -1)] = Fraction(3)  # product of inverses must be 1
    with pytest.raises(ValueError):
        ToricPoint.from_values(chart, bad)


# ---------------------------------------------------------------------------
# equality and equivariance


def test_orbit_point_equality_modulo_isotropy(ex):
    tau1 = ex.cones["tau1"]
    a = act(TorusElement((2, 3, 5)), distinguished_point(ex.system, tau1))
    b = act(TorusElement((7, 11, 5)), distinguished_point(ex.system, tau1))
    c = act(TorusElement((2, 3, 7)), distinguished_point(ex.system, tau1))
    assert a == b  # differ by the isotropy subtorus of tau1
    assert a != c
    assert hash(a) == hash(b)


def test_character_equivariance_random(ex):
    rng = random.Random(41)
    spaces = [ex.target_fan, ex.system]
    for _ in range(100):
        space = rng.choice(spaces)
        orbit = rng.choice(list(space.orbits()))
        p = OrbitPoint.make(space, orbit, random_torus(rng, 3))
        chart_id = p.realizations()[0][0]
        chart = space.charts[chart_id]
        toric = p.as_toric(chart_id)
        t = random_torus(rng, 3)
        translated = act(t, toric)
        u = rng.choice(list(semigroup_generators(dual_cone(chart))))
        assert translated.evaluate(u) == t.chi(u) * toric.evaluate(u)
