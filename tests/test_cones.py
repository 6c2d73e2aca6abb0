import itertools
import random

import pytest

from toriq.cones import (
    Cone,
    classify_point,
    cone_canonical,
    dual_cone,
    faces,
    image_cone,
    intersect,
    semigroup_generators,
)
from toriq.intlinalg import IntMatrix, dot

from _oracles import box, brute_faces, brute_in_cone, decomposes_in_monoid, fm_inequalities, fm_contains, random_cone

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
P = IntMatrix([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]])


def tau1():
    return Cone.from_generators([E1, E2], 3)


def tau2():
    return Cone.from_generators([E3, (1, 1, 0)], 3)


def delta():
    return Cone.from_generators([E1, E2, E3], 3)


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_removes_duplicates_and_non_extreme():
    c = cone_canonical([(1, 0), (1, 0), (2, 0), (0, 1)], 2)
    assert c.rays == ((0, 1), (1, 0))
    assert set(c.facet_normals) == {(0, 1), (1, 0)}


def test_canonical_image_chart_cone():
    c = cone_canonical([E3, (1, 1, 0)], 3)
    assert len(c.rays) == 2 and c.dim == 2
    assert c == tau2()


def test_canonical_line():
    c = cone_canonical([(1, 0), (-1, 0)], 2)
    assert c.rays == ()
    assert c.lineality.rank == 1
    assert not c.is_pointed


def test_zero_cone_from_empty_generators():
    c = cone_canonical([], 3)
    assert c.dim == 0 and c.rays == () and c.lineality.rank == 0
    assert c == Cone.zero(3)


def test_non_extreme_interior_ray_dropped():
    c = cone_canonical([(1, 0), (1, 1), (0, 1)], 2)
    assert c.rays == ((0, 1), (1, 0))


def test_equality_is_structural():
    a = cone_canonical([(2, 0, 0), E2], 3)
    b = cone_canonical([E2, E1, (1, 1, 0)], 3)
    assert a == b
    assert hash(a) == hash(b)


def test_canonical_form_independent_of_presentation():
    rng = random.Random(10)
    for _ in range(40):
        c = random_cone(rng, max_rank=3, entry_bound=4)
        gens = list(c.generators())
        rng.shuffle(gens)
        scales = [rng.randint(1, 3) for _ in gens]
        scaled = [tuple(s * x for x in g) for s, g in zip(scales, gens)]
        redundant = scaled + [
            tuple(a + b for a, b in zip(scaled[i], scaled[j]))
            for i in range(len(scaled))
            for j in range(i, min(i + 2, len(scaled)))
        ]
        assert cone_canonical(redundant, c.ambient) == c


# ---------------------------------------------------------------------------
# duality


def test_orthant_self_dual():
    c = cone_canonical([(1, 0), (0, 1)], 2)
    assert dual_cone(c) == c


def test_dual_of_non_full_cone_has_lineality():
    d = dual_cone(tau1())
    assert d.rays == ((0, 1, 0), (1, 0, 0))
    assert d.lineality.basis == ((0, 0, 1),)


def test_dual_of_skew_cone():
    c = cone_canonical([(1, 2), (2, 1)], 2)
    d = dual_cone(c)
    assert set(d.rays) == {(2, -1), (-1, 2)}


def test_dual_brute_force_box():
    rng = random.Random(11)
    for _ in range(30):
        c = random_cone(rng, max_rank=3, entry_bound=3)
        d = dual_cone(c)
        gens = c.generators()
        for u in box(c.ambient, 3):
            expected = all(dot(u, g) >= 0 for g in gens)
            assert d.contains_point(u) == expected


def test_dual_dual_identity():
    rng = random.Random(12)
    for _ in range(200):
        c = random_cone(rng, max_rank=4, entry_bound=5)
        assert dual_cone(dual_cone(c)) == c


def test_fourier_motzkin_cross_check():
    rng = random.Random(13)
    for _ in range(25):
        rank = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(1, 4))
        ]
        c = cone_canonical(gens, rank)
        ineqs = fm_inequalities([g for g in gens if any(g)], rank)
        for v in box(rank, 3):
            assert c.contains_point(v) == fm_contains(ineqs, v)


# ---------------------------------------------------------------------------
# faces


def test_faces_of_octant():
    fs = faces(delta())
    assert len(fs) == 8
    by_dim = {}
    for f in fs:
        by_dim.setdefault(f.dim, []).append(f)
    assert len(by_dim[0]) == 1 and len(by_dim[1]) == 3
    assert len(by_dim[2]) == 3 and len(by_dim[3]) == 1
    assert Cone.from_generators([E1, E2], 3) in fs


def test_faces_of_zero_cone():
    assert faces(Cone.zero(2)) == (Cone.zero(2),)


def test_faces_of_image_chart():
    fs = faces(tau2())
    expected = {
        Cone.zero(3),
        cone_canonical([E3], 3),
        cone_canonical([(1, 1, 0)], 3),
        tau2(),
    }
    assert set(fs) == expected


def test_faces_ordering():
    fs = faces(delta())
    dims = [f.dim for f in fs]
    assert dims == sorted(dims)


def test_faces_match_facet_subset_enumeration():
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        c = random_cone(rng)
        if c.is_pointed:
            assert c.faces() == brute_faces(c)
            checked += 1
    assert checked >= 50


def test_faces_reject_lineality():
    c = cone_canonical([(1, 0), (-1, 0)], 2)
    with pytest.raises(ValueError):
        faces(c)


def test_face_lattice_closure():
    rng = random.Random(14)
    for _ in range(20):
        c = random_cone(rng, max_rank=3, entry_bound=3)
        if not c.is_pointed:
            continue
        fs = faces(c)
        for f in fs:
            for g in faces(f):
                assert g in fs
        for a in fs:
            for b in fs:
                assert intersect(a, b) in fs


# ---------------------------------------------------------------------------
# classification


def test_classify_on_face():
    loc = classify_point(delta(), (1, 1, 0))
    assert loc.kind == "on_face"
    assert loc.face == tau1()


def test_classify_relint_of_ray():
    rho4 = cone_canonical([(1, 1, 0)], 3)
    assert classify_point(rho4, (1, 1, 0)).is_relint
    assert classify_point(rho4, (3, 3, 0)).is_relint
    assert classify_point(rho4, (1, 2, 0)).is_outside


def test_classify_outside_coordinate_cone():
    sigma1 = cone_canonical([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    assert classify_point(sigma1, (0, 0, 1, 0)).is_outside


def test_classify_rank_mismatch():
    with pytest.raises(ValueError):
        classify_point(delta(), (1, 0))


def test_classify_consistency_random():
    rng = random.Random(15)
    for _ in range(40):
        c = random_cone(rng, max_rank=3, entry_bound=3)
        v = tuple(rng.randint(-4, 4) for _ in range(c.ambient))
        loc = classify_point(c, v)
        inside = c.contains_point(v)
        if loc.is_outside:
            assert not inside
        else:
            assert inside
        if loc.kind == "on_face":
            assert loc.face.contains_point(v)
            assert classify_point(loc.face, v).is_relint
            assert loc.face != c


# ---------------------------------------------------------------------------
# intersection and images


def test_intersect_image_charts():
    rho4 = cone_canonical([(1, 1, 0)], 3)
    assert intersect(tau1(), tau2()) == rho4


def test_intersect_idempotent():
    c = tau2()
    assert intersect(c, c) == c


def test_intersect_disjoint_supports():
    a = cone_canonical([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    b = cone_canonical([(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    assert intersect(a, b) == Cone.zero(4)


def test_intersect_brute_force():
    rng = random.Random(16)
    for _ in range(20):
        a = random_cone(rng, max_rank=3, entry_bound=3)
        b = Cone.from_generators(
            [tuple(rng.randint(-3, 3) for _ in range(a.ambient)) for _ in range(3)],
            a.ambient,
        )
        meet = intersect(a, b)
        for v in box(a.ambient, 2):
            assert meet.contains_point(v) == (a.contains_point(v) and b.contains_point(v))


def test_image_cone_charts():
    sigma1 = cone_canonical([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    sigma2 = cone_canonical([(0, 0, 1, 0), (0, 0, 0, 1)], 4)
    assert image_cone(P, sigma1) == tau1()
    assert image_cone(P, sigma2) == tau2()


def test_image_cone_identity():
    assert image_cone(IntMatrix.identity(3), delta()) == delta()


def test_image_cone_contains_images():
    rng = random.Random(17)
    for _ in range(20):
        c = random_cone(rng, max_rank=3, entry_bound=3)
        m = IntMatrix(
            [[rng.randint(-2, 2) for _ in range(c.ambient)] for _ in range(rng.randint(1, 3))],
            c.ambient,
        )
        img = image_cone(m, c)
        for coeffs in itertools.product(range(3), repeat=min(len(c.generators()), 3)):
            v = [0] * c.ambient
            for x, g in zip(coeffs, c.generators()):
                v = [a + x * b for a, b in zip(v, g)]
            assert img.contains_point(m.apply(tuple(v)))


# ---------------------------------------------------------------------------
# semigroup generators


def test_semigroup_dual_of_chart():
    gens = semigroup_generators(dual_cone(tau1()))
    assert set(gens) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)}


def test_semigroup_smooth_cone():
    assert semigroup_generators(cone_canonical([(1, 0), (0, 1)], 2)) == ((0, 1), (1, 0))


def test_semigroup_singular_cone():
    gens = semigroup_generators(cone_canonical([(1, 0), (1, 2)], 2))
    assert set(gens) == {(1, 0), (1, 1), (1, 2)}


def test_semigroup_completeness_brute_force():
    rng = random.Random(18)
    cones = [
        dual_cone(tau1()),
        dual_cone(tau2()),
        cone_canonical([(1, 0), (1, 3)], 2),
        cone_canonical([(2, 1), (1, 2)], 2),
    ]
    for _ in range(10):
        cones.append(random_cone(rng, max_rank=3, entry_bound=2))
    for c in cones:
        gens = list(semigroup_generators(c))
        for v in box(c.ambient, 4 if c.ambient <= 2 else 3):
            if not c.contains_point(v):
                continue
            assert decomposes_in_monoid(tuple(v), gens, 4), (c, v)


def test_semigroup_generators_lie_in_cone():
    rng = random.Random(19)
    for _ in range(15):
        c = random_cone(rng, max_rank=3, entry_bound=3)
        for g in semigroup_generators(c):
            assert c.contains_point(g)


def test_cone_membership_against_fm_oracle():
    rng = random.Random(20)
    for _ in range(15):
        rank = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randint(1, 4))
        ]
        c = cone_canonical(gens, rank)
        nonzero = [g for g in gens if any(g)]
        for v in box(rank, 2):
            assert c.contains_point(v) == brute_in_cone(nonzero, tuple(v), rank)
