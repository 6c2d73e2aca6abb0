"""How many double description (DD) passes the quotient check runs.

Faces of a pointed cone are built from their ray masks, each chart-pair
intersection is computed once, and a morphism maps each face by its
relative-interior point and looks the target face up by its ray mask, so
none of these steps may rebuild a cone.  A point given by its character
values finds its face in the chart's face table, and the test vectors are
read off face masks, so no face of a chart-pair intersection is built.  The
identification fixpoint tests lattice containment only after an event
changed a lattice, never for a class that has had none, and the fiber
comparison reads one fiber lattice per target orbit as a perp, solving no
torus equation and building no point.

An intersection is one DD pass, run once while its meet is alive, so a fan
and a chart system over the same charts share each chart pair's meet; a
meet that is a face of a pointed operand is read off that operand's face
table.  A face is built on the
first lookup of its mask, once per cone, and an orbit index or a fan builds
one face per orbit or per distinct ray set.  A cone is its own full face,
and a face equal to a live cone (a face shared by several charts, say) is
that cone, found by its key before its orthogonal lattice is computed.
Lattices are memoised the same way: ``Sublattice.perp`` runs one saturated
kernel per distinct live input, and a kernel is one Hermite elimination,
with no Smith normal form.  A lattice basis comes from the bare-row
Hermite elimination, which builds no transform.  A cone built from
generators takes one description pass, and a pass pairs each inserted row
with each line and ray once.

The pins are exact counts; each test's comment gives the larger count of
the code that rebuilt meets, built every face of every chart, built each
equal face and lattice again, solved a torus equation per fiber lattice,
ran two description passes per cone, or read each kernel off a Smith normal
form and then ran a Hermite elimination on its columns, so each pin fails
on that code.  The memos
hold their values weakly, so a lattice or cone that another test keeps
alive would answer a lookup; each test starts from empty memos, and this
module also runs on its own.
"""

from fractions import Fraction

import pytest

from toriq import cones, intlinalg, morphisms
from toriq.cones import Cone
from toriq.fans import Fan, FanSystem
from toriq.intlinalg import Sublattice
from toriq.morphisms import ToricMorphism
from toriq.points import ToricPoint, TorusElement
from toriq.separation import (
    comparison_morphism,
    forced_identifications,
    partition_matches_fibers,
)

from _oracles import projective_space_charts, unmemoised, value_map


@pytest.fixture(autouse=True)
def fresh_memos():
    # the pins count the work of a test's own objects only: an equal lattice
    # or cone that another test keeps alive would otherwise answer a lookup
    with unmemoised():
        yield


@pytest.fixture
def calls(monkeypatch):
    counts = dict.fromkeys(("dd", "intersect", "face", "snf", "hnf", "hermite", "kernel", "elim"), 0)

    def counting(key, f):
        def wrapped(*args):
            counts[key] += 1
            return f(*args)
        return wrapped

    def kernel(m, kernel_saturated=intlinalg.kernel_saturated):
        # "elim": the eliminations (Hermite or Smith) a kernel runs
        before = counts["hermite"] + counts["snf"]
        out = kernel_saturated(m)
        counts["kernel"] += 1
        counts["elim"] += counts["hermite"] + counts["snf"] - before
        return out

    monkeypatch.setattr(cones, "_double_description", counting("dd", cones._double_description))
    monkeypatch.setattr(Cone, "intersect", counting("intersect", Cone.intersect))
    monkeypatch.setattr(Cone, "_face_of_mask", counting("face", Cone._face_of_mask))
    monkeypatch.setattr(intlinalg, "smith_normal_form",
                        counting("snf", intlinalg.smith_normal_form))
    monkeypatch.setattr(intlinalg, "hermite_normal_form",
                        counting("hnf", intlinalg.hermite_normal_form))
    monkeypatch.setattr(intlinalg, "_hermite", counting("hermite", intlinalg._hermite))
    monkeypatch.setattr(intlinalg, "kernel_saturated", kernel)
    return counts


def test_faces_run_no_dd_pass(calls):
    # a non-simplicial rank-4 cone over a square pyramid, and a simplicial one
    pyramid = Cone.from_generators(
        [(1, 1, 0, 1), (1, -1, 0, 1), (-1, 1, 0, 1), (-1, -1, 0, 1), (0, 0, 1, 1)], 4
    )
    simplex = projective_space_charts(4)[0]
    calls["dd"] = 0
    assert (len(pyramid.faces()), len(simplex.faces())) == (20, 16)
    for f in pyramid.faces():
        f.faces()
    assert calls["dd"] == 0


def test_faces_of_a_cone_with_lineality_run_no_dd_pass(calls):
    # the cone over a square times a line: the faces are ray masks of the reduced
    # rays, so locating a point's face and testing faces (a diagonal wedge
    # is none, nor is a pointed cone) take no description pass; rebuilding
    # each located face from generators and each tested one from the facet
    # normals tight on it made 14 DD passes
    square = [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)]
    line = [(0, 0, 0, 1), (0, 0, 0, -1)]
    wedge = Cone.from_generators(square + line, 4)
    diagonal = Cone.from_generators([square[0], square[2]] + line, 4)
    edge = Cone.from_generators([square[0]], 4)
    # four edges, two facets and the line, then two interior points
    points = square + [(1, 1, 2, 5), (-1, 1, 2, 0), (0, 0, 0, 3), (0, 0, 4, 0), (1, 1, 3, -2)]
    calls["dd"] = 0
    located = [wedge.classify(p) for p in points]
    assert [loc.kind for loc in located] == ["on_face"] * 7 + ["relint"] * 2
    assert len({loc.face for loc in located[:7]}) == 7
    assert all(loc.face.is_face_of(wedge) for loc in located[:7])
    assert not diagonal.is_face_of(wedge) and not edge.is_face_of(wedge)
    assert calls["dd"] == 0


def test_fan_meets_read_off_the_face_tables(calls):
    # 5 cones, 10 meets, 31 distinct cones; the 5 charts are their own full
    # faces, so 26 faces are looked up and 25 have a perp to compute (the
    # zero cone's is the full lattice), one kernel and one elimination each;
    # building each chart again as its own full face made 31 face builds and
    # 30 kernels, three DD passes per meet and every face of every cone built
    # made 30 DD passes, 80 face builds and 95 kernels, and reading each
    # kernel off a Smith normal form made 50 eliminations for the 25
    charts = projective_space_charts(4)
    calls.update(dd=0, intersect=0, face=0, kernel=0, elim=0)
    fan = Fan(charts)
    assert len(fan.all_cones) == 31 and calls["intersect"] == 10
    assert (calls["dd"], calls["face"], calls["kernel"], calls["elim"]) == (10, 26, 25, 25)


def test_fan_system_and_identifications_meet_each_chart_pair_once(calls):
    # building each chart again as its own full face, and every lattice
    # once per copy, made 15 face builds and 25 kernels; rebuilding each
    # meet and every chart face made 18 DD passes and 32 face builds; the
    # perp of a full-rank lattice is zero with no kernel, and running one
    # there too and reading each kernel off a Smith normal form made 30
    # eliminations for 15 kernels
    charts = projective_space_charts(3)
    calls.update(dd=0, intersect=0, face=0, kernel=0, elim=0)
    system = Fan(charts)
    part = forced_identifications(system)
    assert system.separated and len(part.classes) == 15
    assert calls["intersect"] == 6
    assert (calls["dd"], calls["face"], calls["kernel"], calls["elim"]) == (6, 11, 14, 14)


def test_orbit_index_builds_one_face_per_orbit(calls):
    # torus-glued P^3: 29 orbits, 4 of them the charts themselves, and 10
    # distinct nonzero proper faces, so one kernel and one elimination each;
    # building each chart again as its own full face, and a face shared by
    # several charts once per chart, made 29 face builds and 28 kernels,
    # building every face of every chart made 32 face builds, and reading
    # each kernel off a Smith normal form made 20 eliminations
    charts = projective_space_charts(3)
    calls.update(dd=0, face=0, kernel=0, elim=0)
    system = FanSystem(charts)
    assert len(system.orbits()) == 29
    assert (calls["dd"], calls["face"], calls["kernel"], calls["elim"]) == (0, 25, 10, 10)


def test_comparison_morphism_builds_no_cone(calls):
    charts = projective_space_charts(3)
    system, fan = FanSystem(charts), Fan(charts)
    calls["dd"] = 0
    kappa = comparison_morphism(system, fan)
    assert len(kappa.orbit_assignment) == 29
    assert calls["dd"] == 0


def test_non_identity_morphism_builds_no_cone(calls, ex):
    pi = ex.pi
    calls["dd"] = 0
    rebuilt = ToricMorphism(pi.matrix, pi.source, pi.target)
    assert calls["dd"] == 0
    assert rebuilt.orbit_assignment == pi.orbit_assignment


def test_comparison_morphism_scans_no_face(monkeypatch):
    charts = projective_space_charts(3)
    system, fan = FanSystem(charts), Fan(charts)
    scans = []
    faces = Cone.faces

    def counting_faces(self):
        scans.append(self)
        return faces(self)

    monkeypatch.setattr(Fan, "minimal_cone_containing", lambda *args: scans.append(args))
    monkeypatch.setattr(Cone, "faces", counting_faces)
    comparison_morphism(system, fan)
    assert scans == []


def test_from_values_on_a_pointed_chart_runs_no_dd_pass(calls):
    # a full-dimensional chart: its dual is pointed, so the dual's Hilbert
    # basis runs no description pass either
    chart = projective_space_charts(3)[0]
    ray = chart.faces()[1]
    toric = ToricPoint.from_orbit(chart, ray, TorusElement((2, 3, 5)))
    calls["dd"] = 0
    rebuilt = ToricPoint.from_values(chart, value_map(toric))
    assert calls["dd"] == 0
    assert rebuilt == toric and rebuilt.face == ray and ray.dim == 1


def test_identification_builds_no_face_of_a_chart_pair_meet(monkeypatch):
    # two overlapping charts glued along the torus: their meet is a face of
    # neither, and its face masks give the test vectors
    charts = [Cone.from_generators(g, 2) for g in ([(1, 0), (1, 2)], [(0, 1), (1, 1)])]
    system = FanSystem(charts)
    meet = system.meet(0, 1)
    assert not (meet.is_face_of(charts[0]) or meet.is_face_of(charts[1]))
    built = []
    face_of_mask = Cone._face_of_mask

    def counting(self, mask):
        built.append(self)
        return face_of_mask(self, mask)

    monkeypatch.setattr(Cone, "_face_of_mask", counting)
    part = forced_identifications(system)
    assert len(part.events) > 0
    assert built == []


def count_containment_tests(monkeypatch, system):
    tests = []
    contains = Sublattice.contains

    def counting_contains(self, v):
        tests.append(v)
        return contains(self, v)

    monkeypatch.setattr(Sublattice, "contains", counting_contains)
    part = forced_identifications(system)
    return part, len(tests)


def test_identification_tests_lattices_only_after_events(monkeypatch):
    # torus-glued P^4: 31 classes, 25 events; rerunning the skip test at
    # every step made 7,050 containment tests, and testing a class that
    # never had an event (a singleton whose limit face contains its own
    # face) made 325
    part, tests = count_containment_tests(monkeypatch, FanSystem(projective_space_charts(4)))
    assert (len(part.classes), len(part.events)) == (31, 25)
    assert tests == 305


def test_identification_on_a_fan_tests_no_lattice(monkeypatch):
    # the fan of P^4: every class stays a singleton with no event, so every
    # step has one target class and is skipped untested; testing each
    # (class, target) pair once made 325 containment tests
    part, tests = count_containment_tests(monkeypatch, Fan(projective_space_charts(4)))
    assert (len(part.classes), len(part.events)) == (31, 0)
    assert tests == 0


def test_fiber_comparison_solves_no_torus_equation(monkeypatch):
    # torus-glued P^4 over its fan: 31 target orbits, whose fiber lattices
    # are the perps of their span_perp lattices, which the orbit cones'
    # span lattices already hold; solving one torus equation per target
    # orbit made 31 solves and 31 Smith normal forms, building every fiber
    # piece with its representative point made 183 coset reductions and
    # 242 Smith normal forms, and a separate saturated preimage per class
    # made 87
    charts = projective_space_charts(4)
    system, fan = FanSystem(charts), Fan(charts)
    kappa = comparison_morphism(system, fan)
    part = forced_identifications(system)
    counts = {"coset_reduce": 0, "solve": 0, "snf": 0}

    def counting(key, f):
        def wrapped(*args):
            counts[key] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(Sublattice, "coset_reduce", counting("coset_reduce", Sublattice.coset_reduce))
    monkeypatch.setattr(morphisms, "solve_torus_equation", counting("solve", morphisms.solve_torus_equation))
    monkeypatch.setattr(intlinalg, "smith_normal_form", counting("snf", intlinalg.smith_normal_form))
    ok, _ = partition_matches_fibers(part, kappa)
    assert ok and len(set(kappa.orbit_assignment.values())) == 31
    assert counts == {"coset_reduce": 0, "solve": 0, "snf": 0}


def test_quotient_check_on_torus_glued_p4(calls):
    # the whole check: a chart system and a fan over the same 5 charts, the
    # comparison morphism, the identifications and the fiber comparison; the
    # system reads the fan's 10 chart-pair meets, so 10 DD passes and 36
    # kernels run, one Hermite elimination each, and no Smith normal form;
    # computing each meet for the fan and again for the system, and solving
    # one torus equation per target orbit, made 20 DD passes and 68 Smith
    # normal forms, and running a kernel for the perp of a full-rank lattice
    # and reading each kernel off a Smith normal form made 37 Smith normal
    # forms and 74 eliminations for 37 kernels.  Every lattice
    # basis comes from the bare-row Hermite elimination, so no Hermite
    # transform is built; running ``hermite_normal_form`` and dropping its
    # transform made 157
    charts = projective_space_charts(4)
    calls.update(dd=0, intersect=0, face=0, snf=0, hnf=0, kernel=0, elim=0)
    system, fan = FanSystem(charts), Fan(charts)
    kappa = comparison_morphism(system, fan)
    part = forced_identifications(system)
    ok, _ = partition_matches_fibers(part, kappa)
    assert ok and (len(part.classes), len(part.events)) == (31, 25)
    assert (calls["dd"], calls["kernel"], calls["elim"]) == (10, 36, 36)
    assert (calls["snf"], calls["hnf"]) == (0, 0)


def test_description_pass_pairs_each_row_once(monkeypatch):
    # a P^4 chart from its 4 generators: one description pass, which pairs
    # each inserted generator with each current line and ray once (4 + 3 +
    # 2 + 1 lines, 0 + 1 + 2 + 3 rays: 16 dot products), then the rays are
    # read off its 4 facet normals with one dot product per (facet normal,
    # generator) pair, 16 more.  A second pass from the facet normals back
    # to the rays made 32 dot products inside description passes, and
    # recomputing each pairing per coordinate of every new line and ray,
    # and again for the sign test, made 126 over those two passes
    count = {"dd": 0, "all": 0}
    dot, dd = cones.dot, cones._double_description

    def counting_dot(a, b):
        count["all"] += 1
        return dot(a, b)

    def counting_dd(*args):
        before = count["all"]
        out = dd(*args)
        count["dd"] += count["all"] - before
        return out

    rays = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]
    monkeypatch.setattr(cones, "dot", counting_dot)
    monkeypatch.setattr(cones, "_double_description", counting_dd)
    chart = Cone.from_generators(rays, 4)
    assert len(chart.facet_normals) == 4 and chart.dim == 4
    assert (count["dd"], count["all"] - count["dd"]) == (16, 16)


def test_from_generators_runs_one_dd_pass_per_miss(calls):
    # a pointed cone, a cone with a line, a cone spanning a hyperplane and
    # the cyclic cone over 10 points: one description pass each, from the
    # generators to the facet normals, with the rays read off it; the same
    # generators in another order, scaled or repeated find the memoised
    # cone with no pass.  Two passes per cone, the second from the facet
    # normals back to the rays, made 8
    gens = [
        [(1, 0, 0), (0, 1, 0), (1, 1, 3)],
        [(1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 3)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
        [tuple(t**i for i in range(6)) for t in range(1, 11)],
    ]
    calls["dd"] = 0
    built = [Cone.from_generators(g, len(g[0])) for g in gens]
    assert [c.lineality.rank for c in built[:3]] == [0, 1, 0]
    assert [c.dim for c in built] == [3, 3, 2, 6]
    assert calls["dd"] == 4
    again = [Cone.from_generators([tuple(2 * x for x in v) for v in g[::-1]] + g, len(g[0]))
             for g in gens]
    assert all(a is b for a, b in zip(again, built)) and calls["dd"] == 4


def test_second_call_reads_the_cache(monkeypatch):
    # the warm per-object caches that repeated queries rely on: a second
    # call does no work and returns the identical object
    counts = {"face": 0, "hilbert": 0, "snf": 0}

    def counting(key, f):
        def wrapped(*args):
            counts[key] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(Cone, "_face_of_mask", counting("face", Cone._face_of_mask))
    monkeypatch.setattr(cones, "_hilbert_basis_pointed",
                        counting("hilbert", cones._hilbert_basis_pointed))
    monkeypatch.setattr(intlinalg, "smith_normal_form",
                        counting("snf", intlinalg.smith_normal_form))
    c = Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 3)], 3)
    d, face = c.dual(), Cone.from_generators([(1, 0, 0), (1, 1, 3)], 3)
    lattice, t = face.span_lattice, (Fraction(2), Fraction(3), Fraction(5))
    first = (c.faces(), cones.semigroup_generators(d), lattice, lattice.coset_reduce(t))
    assert counts["face"] and counts["hilbert"] and counts["snf"]
    counts.update(face=0, hilbert=0, snf=0)
    second = (c.faces(), cones.semigroup_generators(d), face.span_lattice,
              face.span_lattice.coset_reduce(t))
    assert counts == {"face": 0, "hilbert": 0, "snf": 0}
    # faces() builds a new tuple of the same face objects on each call
    assert all(a is b for a, b in zip(first[0], second[0]))
    assert first[1] is second[1] and first[2] is second[2]
    assert first[3] == second[3]
