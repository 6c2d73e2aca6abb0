"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (or the whole suite); the
`verify-example` CLI command reports the same end-to-end checks.
"""

import random
import time

from toriq.cones import dual_cone, semigroup_generators
from toriq.intlinalg import (
    IntMatrix,
    Sublattice,
    hermite_normal_form,
    invariant_factors,
    kernel_saturated,
    smith_normal_form,
)
from toriq.morphisms import (
    complement_codim,
    fiber_pieces,
    image_constructible,
    one_param_limits,
)
from toriq.points import TorusElement, act, distinguished_point, torus_point
from toriq.separation import (
    forced_identifications,
    invariance_check,
    partition_matches_fibers,
    verify_example,
)

from _oracles import (
    box,
    decomposes_in_monoid,
    det,
    random_cone,
    random_fan,
    random_point,
    random_torus,
)


def report(n, name, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {n}: {name}", flush=True)
    assert passed


def test_criterion_1_image_reproduction(ex):
    start = time.monotonic()
    img = image_constructible(ex.pi)
    elapsed = time.monotonic() - start
    passed = (
        set(img.present) == set(ex.expected_present)
        and set(img.absent) == set(ex.expected_absent)
        and elapsed < 1.0
    )
    report(1, f"image orbit decomposition reproduced in {elapsed:.3f}s", passed)


def test_criterion_2_fiber_reproduction(ex):
    rng = random.Random(20260809)
    translations = [TorusElement.identity(3)]
    translations += [random_torus(rng, 3) for _ in range(10)]
    ok = True
    tau1, rho4, tau2, delta = (
        ex.cones["tau1"],
        ex.cones["rho4"],
        ex.cones["tau2"],
        ex.cones["delta"],
    )
    plane = Sublattice.from_rows(3, [(1, 0, 0), (0, 1, 0)])
    for t in translations:
        # over a torus point: one singleton piece on the torus orbit
        pieces = fiber_pieces(ex.kappa, act(t, torus_point(ex.target_fan, (1, 1, 1))))
        ok = ok and len(pieces) == 1 and pieces[0].is_single_point
        ok = ok and pieces[0].representative == act(t, torus_point(ex.system, (1, 1, 1)))
        # over the three ray orbits: singleton pieces with the ray isotropy
        for name in ("rho1", "rho2", "rho3"):
            c = ex.cones[name]
            pieces = fiber_pieces(ex.kappa, act(t, distinguished_point(ex.target_fan, c)))
            ok = ok and len(pieces) == 1
            piece = pieces[0]
            ok = ok and piece.orbit.cone == c and piece.is_single_point
            ok = ok and piece.subtorus == c.span_lattice
            ok = ok and piece.representative == act(t, distinguished_point(ex.system, c))
        # over the collapsed orbit: two pieces swept by the coordinate plane
        pieces = fiber_pieces(ex.kappa, act(t, distinguished_point(ex.target_fan, tau1)))
        ok = ok and len(pieces) == 2
        ok = ok and {p.orbit.cone for p in pieces} == {tau1, rho4}
        ok = ok and all(p.subtorus == plane for p in pieces)
        for p in pieces:
            ok = ok and p.contains(act(t, distinguished_point(ex.system, p.orbit.cone)))
        # over the deep point: one whole-torus piece
        pieces = fiber_pieces(ex.kappa, distinguished_point(ex.target_fan, delta))
        ok = ok and len(pieces) == 1
        ok = ok and pieces[0].orbit.cone == tau2
        ok = ok and pieces[0].subtorus == Sublattice.full(3)
    report(2, "all four fiber shapes at 11 translations", ok)


def test_criterion_3_limit_reproduction(ex):
    t = TorusElement((2, 3, 5))
    p = act(t, torus_point(ex.system, (1, 1, 1)))
    limits = one_param_limits(ex.system, (1, 1, 0), p)
    expected = {
        act(t, distinguished_point(ex.system, ex.cones["tau1"])),
        act(t, distinguished_point(ex.system, ex.cones["rho4"])),
    }
    ok = len(limits) == 2 and set(limits) == expected
    q = act(t, torus_point(ex.target_fan, (1, 1, 1)))
    fan_limits = one_param_limits(ex.target_fan, (1, 1, 0), q)
    ok = ok and len(fan_limits) == 1
    ok = ok and fan_limits[0] == act(t, distinguished_point(ex.target_fan, ex.cones["tau1"]))
    rng = random.Random(3)
    fans = [random_fan(rng, max_rank=3) for _ in range(10)]
    samples = 0
    while samples < 100:
        fan = fans[samples % len(fans)]
        point = random_point(rng, fan)
        v = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
        ok = ok and len(one_param_limits(fan, v, point)) <= 1
        samples += 1
    report(3, "two-point limit set, separated uniqueness on 100 samples", ok)


def test_criterion_4_theorem_check(ex):
    start = time.monotonic()
    part = forced_identifications(ex.system)
    matched, _ = partition_matches_fibers(part, ex.kappa)
    rep = verify_example()
    elapsed = time.monotonic() - start
    ok = matched and rep.passed and len(rep.checks) == 7 and elapsed < 5.0
    report(4, f"partition equals fibers; 7/7 checks in {elapsed:.2f}s", ok)


def test_criterion_5_invariance_and_factorization(ex):
    ok = invariance_check(ex.weight, ex.lattice_map)
    kernel = kernel_saturated(ex.lattice_map)
    ok = ok and kernel.rank == 1 and kernel.basis == (ex.weight,)
    rng = random.Random(5)
    for _ in range(100):
        x = random_point(rng, ex.source_fan)
        via_system = ex.kappa.apply(ex.pi_tilde.apply(x))
        direct = ex.pi.apply(x)
        ok = ok and via_system == direct
        # exact character-level equality on the target chart
        chart_id = direct.realizations()[0][0]
        chart = ex.target_fan.charts[chart_id]
        a = via_system.as_toric(chart_id)
        b = direct.as_toric(chart_id)
        for u in semigroup_generators(dual_cone(chart)):
            ok = ok and a.evaluate(u) == b.evaluate(u)
    report(5, "invariant weight spans the kernel; factorization on 100 points", ok)


def test_criterion_6_codimension(ex):
    codim = complement_codim(image_constructible(ex.pi))
    report(6, f"complement codimension {codim}", codim == 2)


def test_criterion_7_property_suites():
    ok = True
    rng = random.Random(7)
    # dual-dual identity on 200 random cones
    for _ in range(200):
        c = random_cone(rng, max_rank=4, entry_bound=5)
        ok = ok and dual_cone(dual_cone(c)) == c
    # face-lattice closure
    for _ in range(15):
        c = random_cone(rng, max_rank=3, entry_bound=3)
        if not c.is_pointed:
            continue
        fs = c.faces()
        for f in fs:
            ok = ok and all(g in fs for g in f.faces())
            ok = ok and all(f.intersect(g) in fs for g in fs)
    # HNF / SNF transforms stay unimodular, Smith chain divides
    for _ in range(60):
        r, s = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(s)] for _ in range(r)], s)
        h, u = hermite_normal_form(m)
        ok = ok and (u @ m) == h and abs(det(u)) == 1
        d, u2, v2 = smith_normal_form(m)
        ok = ok and (u2 @ m @ v2) == d
        ok = ok and abs(det(u2)) == 1 and abs(det(v2)) == 1
        chain = list(invariant_factors(m))
        ok = ok and all(b % a == 0 for a, b in zip(chain, chain[1:]))
    # semigroup generator completeness against box enumeration
    for _ in range(8):
        c = random_cone(rng, max_rank=2, entry_bound=4)
        gens = list(semigroup_generators(c))
        for v in box(c.ambient, 4):
            if c.contains_point(v):
                ok = ok and decomposes_in_monoid(tuple(v), gens, 4)
    report(7, "dual-dual, face closure, normal forms, semigroup completeness", ok)
