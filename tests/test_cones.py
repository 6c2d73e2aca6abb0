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

from _oracles import (
    box,
    brute_faces,
    brute_in_cone,
    dd_face_from_tight,
    dd_intersect,
    dd_is_face_of,
    decomposes_in_monoid,
    fm_contains,
    fm_inequalities,
    random_cone,
    unmemoised,
)

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
    for n in range(5):
        with unmemoised():
            z, c = Cone.zero(n), cone_canonical([], n)
        assert (z.rays, z.lineality, z.facet_normals, z.span_perp) == (
            c.rays, c.lineality, c.facet_normals, c.span_perp
        )


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


def _pointed_cones(seed, count):
    """Pointed random cones of rank 2-5, simplicial or not."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = random_cone(rng, max_rank=5)
        if c.ambient >= 2 and c.is_pointed:
            out.append(c)
    return out


def _with_line(rng, c):
    """The cone c plus a random line, so it has lineality (or is not pointed)."""
    line = tuple(rng.randint(-1, 1) for _ in range(c.ambient))
    return Cone.from_generators(c.rays + (line, tuple(-x for x in line)), c.ambient)


def _fields(c):
    return (c.ambient, c.rays, c.lineality, c.facet_normals, c.span_perp)


def test_faces_built_from_ray_sets_match_from_generators():
    cones = _pointed_cones(41, 300)
    assert sum(len(c.rays) > c.dim for c in cones) >= 30
    checked = 0
    for c in cones:
        for f in c.faces():
            with unmemoised():
                built = Cone.from_generators(f.rays, c.ambient)
            assert _fields(f) == _fields(built)
            checked += 1
            loc = c.classify(f.relint_point())
            if f == c:
                assert loc.is_relint
                continue
            tight = [u for u in c.facet_normals if all(dot(u, r) == 0 for r in f.rays)]
            assert _fields(loc.face) == _fields(dd_face_from_tight(c, tight)) == _fields(f)
    assert checked >= 2000


def test_classify_face_matches_dd_oracle():
    rng = random.Random(42)
    on_face = {True: 0, False: 0}
    cones = [random_cone(rng, max_rank=4, entry_bound=3) for _ in range(200)]
    cones += [_with_line(rng, c) for c in _pointed_cones(45, 200)]
    for c in cones:
        # a sum of some rays, moved along the lineality space
        picked = rng.sample(c.rays, rng.randint(0, len(c.rays)))
        moves = [tuple(rng.randint(-2, 2) * x for x in b) for b in c.lineality.basis]
        v = tuple(map(sum, zip((0,) * c.ambient, *picked, *moves)))
        loc = c.classify(v)
        if loc.kind == "on_face":
            tight = [u for u in c.facet_normals if dot(u, v) == 0]
            assert _fields(loc.face) == _fields(dd_face_from_tight(c, tight))
            on_face[c.is_pointed] += 1
    assert on_face[True] >= 50 and on_face[False] >= 10


def test_faces_of_cones_with_lineality_are_ray_masks():
    # the canonical rays are reduced modulo the lineality space, so every
    # face mask is a face: built from its mask, it matches the face rebuilt
    # from generators by two description passes; with few facets, every
    # set of facets cuts out a face that has a mask
    rng = random.Random(47)
    checked = 0
    for c in (_with_line(rng, d) for d in _pointed_cones(47, 60)):
        with unmemoised():
            faces = {m: c._face(m) for m in c.face_masks}
        for m, face in faces.items():
            tight = [u for u, z in zip(c.facet_normals, c.incidence) if z & m == m]
            assert _fields(face) == _fields(dd_face_from_tight(c, tight))
            assert face.lineality == c.lineality and face.is_face_of(c)
            checked += 1
        if len(c.facet_normals) <= 4:
            subsets = itertools.chain.from_iterable(
                itertools.combinations(c.facet_normals, k)
                for k in range(len(c.facet_normals) + 1)
            )
            brute = {dd_face_from_tight(c, t).key() for t in subsets}
            assert brute == {f.key() for f in faces.values()}
    assert checked >= 300


def test_is_face_of_matches_dd_oracle():
    rng = random.Random(43)
    seen = {}

    def check(kind, a, b):
        got = a.is_face_of(b)
        assert got == dd_is_face_of(a, b), (kind, a, b)
        seen.setdefault(kind, set()).add(got)

    for c in _pointed_cones(43, 60):
        n = c.ambient
        for f in c.faces():
            check("face", f, c)
            if f.dim >= 2:
                p = f.relint_point()
                check("contained", Cone.from_generators([p], n), c)
                check("contained", Cone.from_generators([p, f.rays[0]], n), c)
        other = Cone.from_generators(
            [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)], n
        )
        check("other", other, c)
        check("other", c, other)
    for c in (_with_line(rng, d) for d in _pointed_cones(44, 30)):
        n = c.ambient
        lines = [x for b in c.lineality.basis for x in (b, tuple(-y for y in b))]
        check("lineality", c, c)
        check("lineality", Cone.from_generators(lines, n), c)
        for r in c.rays:
            check("lineality", Cone.from_generators([r] + lines, n), c)
            check("lineality", Cone.from_generators([r], n), c)
    # ray subsets that are no face: opposite rays of a square cone, and the
    # rays of a cone over a pentagon that skip a vertex
    square = Cone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    for pair in ([(1, 0, 1), (-1, 0, 1)], [(0, 1, 1), (0, -1, 1)]):
        check("subset", Cone.from_generators(pair, 3), square)
    pentagon = Cone.from_generators(
        [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)], 3
    )
    for skip in range(5):
        check("subset", Cone.from_generators(pentagon.rays[:skip] + pentagon.rays[skip + 1:], 3),
              pentagon)
    # the zero cone is a face of every cone, itself included
    zero, ray = Cone.zero(3), Cone.from_generators([(1, 0, 1)], 3)
    for other in (zero, ray, square):
        check("zero", zero, other)
    check("zero", ray, zero)
    for a, b in ((zero, Cone.zero(2)), (Cone.from_generators([(1, 0)], 2), square)):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError):
                x.is_face_of(y)
            with pytest.raises(ValueError):
                dd_is_face_of(x, y)
    assert seen["face"] == {True}
    assert seen["contained"] == seen["subset"] == {False}
    assert seen["zero"] == {True, False}
    assert seen["other"] == {True, False}
    assert seen["lineality"] == {True, False}


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


@unmemoised()
def test_meet_is_computed_once_while_alive(monkeypatch):
    # the meet is memoised under both operands' keys: the second order reads
    # it with no description pass, and empty memos run the pass again; the
    # test starts from empty memos, as a meet that another test keeps alive
    # would answer the first call
    from toriq import cones

    passes = []
    dd = cones._double_description

    def counting(*args):
        passes.append(args)
        return dd(*args)

    monkeypatch.setattr(cones, "_double_description", counting)
    square = Cone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    half = Cone.from_generators([(1, 0, 1), (-1, 0, 1), (0, -1, -1)], 3)
    pairs = [(tau1(), tau2()), (delta(), tau2()), (square, half)]
    for a, b in pairs:
        passes.clear()
        meet = a.intersect(b)
        first = len(passes)
        assert b.intersect(a) is meet and a.intersect(b) is meet
        assert len(passes) == first >= 1
        with unmemoised():
            assert a.intersect(b) == meet
        assert len(passes) == 2 * first
        assert _fields(meet) == _fields(dd_intersect(a, b))


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


def test_intersect_matches_dd_oracle():
    # one description pass, and a meet that is a face of a pointed operand
    # is that operand's face-table entry; intersect(b, a) reads b's table first
    rng = random.Random(46)
    seen = {}

    def check(kind, a, b):
        for x, y in ((a, b), (b, a)):
            meet = intersect(x, y)
            assert _fields(meet) == _fields(dd_intersect(x, y)), (kind, x, y)
            host = next((c for c in (x, y) if c.is_pointed and dd_is_face_of(meet, c)), None)
            assert host is None or any(meet is f for f in host.faces()), (kind, x, y)
            seen.setdefault(kind, set()).add(host is not None)
        assert intersect(a, b) == intersect(b, a)

    for c in _pointed_cones(46, 60):
        n = c.ambient
        other = Cone.from_generators(
            [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)], n
        )
        check("pointed", c, other)
        check("pointed", c, Cone.from_generators(c.rays[1:] + other.rays[:1], n))
        f = rng.choice(c.faces())
        check("face", c, f)
        check("lower", c, Cone.from_generators(f.rays + other.rays[:1], n))
        check("lines", c, _with_line(rng, other))
        check("lines", _with_line(rng, c), _with_line(rng, other))
    # the diagonal of a square cone: rays of the square, but no face of it
    square = Cone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    diagonal = Cone.from_generators([(1, 0, 1), (-1, 0, 1)], 3)
    plane = Cone.from_generators([(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)], 3)
    check("diagonal", square, diagonal)
    check("diagonal", square, plane)
    assert intersect(square, plane) == diagonal
    assert not dd_is_face_of(diagonal, square)
    assert seen["face"] == {True} and seen["diagonal"] == {True, False}
    assert seen["pointed"] == seen["lower"] == seen["lines"] == {True, False}


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
