"""No computation leaves a reference cycle behind.

Lattices and cones are memoised by value with weak references, so an equal
lattice or cone is built once while any copy is alive.  That is only
deterministic if every object dies with the computation that built it, by
reference counting alone: a cycle (a cone whose face table holds the cone
itself, or a lattice and its perp that refer to each other) would keep its
members alive until the next garbage collection, and later work would reuse
them or not depending on when the collector last ran.  With the collector
off, each test runs a whole computation, drops it, and then asks the
collector how many unreachable objects it finds: there must be none.
"""

import gc

import pytest

from toriq.cones import Cone, semigroup_generators
from toriq.example import build_example
from toriq.fans import Fan, FanSystem
from toriq.separation import (
    comparison_morphism,
    forced_identifications,
    partition_matches_fibers,
)


def unreachable_after(work) -> int:
    """Objects the collector finds unreachable once ``work`` has returned,
    with no collection while it ran."""
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


def check_quotient(system, fan) -> None:
    kappa = comparison_morphism(system, fan)
    part = forced_identifications(system)
    ok, _ = partition_matches_fibers(part, kappa)
    assert ok


def worked_example() -> None:
    ex = build_example()
    check_quotient(ex.system, ex.target_fan)


def torus_glued_p4() -> None:
    rays = [tuple(int(i == j) for j in range(4)) for i in range(4)] + [(-1,) * 4]
    charts = [
        Cone.from_generators([r for k, r in enumerate(rays) if k != skip], 4)
        for skip in range(5)
    ]
    check_quotient(FanSystem(charts), Fan(charts))


def half_square_pair() -> None:
    # two charts whose meet is half the square, cut along its diagonal: its
    # rays are rays of the square, but it is a face of neither chart, so it
    # is built from generators and memoised as the charts' meet
    square = Cone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    half = Cone.from_generators([(1, 0, 1), (-1, 0, 1), (0, -1, -1)], 3)
    system = FanSystem([square, half])
    meet = system.meet(0, 1)
    assert not (meet.is_face_of(square) or meet.is_face_of(half))
    assert half.intersect(square) is meet
    assert forced_identifications(system).events


def cone_queries() -> None:
    # the queries of one operation of the cones benchmark workload
    c = Cone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 2)], 3)
    other = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    meet = c.intersect(other)
    located = [c.classify(p) for p in ((0, 0, 1), (1, 0, 1), (2, 0, 1), (1, 1, 2))]
    faces = c.faces()
    assert c.dual().dual() == c and c.contains_cone(meet)
    assert len(faces) == 10 and sum(loc.is_relint for loc in located) == 1
    assert semigroup_generators(c.dual())


@pytest.mark.parametrize(
    "work", [worked_example, torus_glued_p4, half_square_pair, cone_queries]
)
def test_computation_leaves_no_reference_cycle(work):
    assert unreachable_after(work) == 0
