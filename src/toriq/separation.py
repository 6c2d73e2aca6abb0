"""Separation-forced identifications on glued toric charts.

Any morphism from a non-separated chart system to a separated space must
take equal values on distinct limit points of a single curve.  Starting from
one class per orbit, two closure rules are applied to a fixpoint:

  R1: for a test vector v, the limits of one translated orbit family may
      land on several distinct orbits (across charts); all those limit
      orbits get identified with the same translation parameter.

  R2: whenever the family of a class has a limit along v, the image of the
      limit family depends on the translation only through the class's
      subtorus, so that subtorus propagates into the limit class.

A merge sets the class subtorus lattice to the saturation of the sum of the
participating lattices and the isotropy lattices of all member orbits.  The
resulting partition is compared against the fibers of a comparison morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cones import Cone, image_cone
from .fans import Fan, FanSystem, OrbitIndex
from .intlinalg import (
    IntMatrix,
    IntVec,
    Sublattice,
    is_zero_vec,
    kernel_saturated,
    primitive,
)
from .morphisms import (
    ToricMorphism,
    complement_codim,
    fiber_lattice,
    fiber_pieces,
    image_constructible,
    limit_table,
    one_param_limits,
    orbit_limit_targets,  # noqa: F401  re-exported; perfbench's tracer patches this alias
    toric_morphism,
)
from .points import TorusElement, act, distinguished_point
from .scene import Scene


# ---------------------------------------------------------------------------
# constructions


def project_prevariety(source: Fan, pmat: IntMatrix) -> tuple[FanSystem, ToricMorphism]:
    """Charts are the images of the maximal cones, glued along the images of
    the pairwise intersections; returns the glued system and the induced
    morphism onto it."""
    charts = []
    for sigma in source.maximal_cones:
        img = image_cone(pmat, sigma)
        if not img.is_pointed:
            raise ValueError(f"image of {sigma!r} is not pointed")
        charts.append(img)
    gluing = {ij: image_cone(pmat, meet) for ij, meet in source.gluing.items()}
    system = FanSystem(charts, gluing)
    return system, toric_morphism(pmat, source, system)


def comparison_morphism(system: FanSystem, target: Fan) -> ToricMorphism:
    """The identity-lattice morphism from a chart system to an ambient fan."""
    if system.rank != target.rank:
        raise ValueError("system and fan live in different ranks")
    return toric_morphism(IntMatrix.identity(system.rank), system, target)


def invariance_check(weight: Sequence[int], pmat: IntMatrix) -> bool:
    """Does the one-parameter action with this weight vector die under pmat?"""
    return is_zero_vec(pmat.apply(tuple(weight)))


# ---------------------------------------------------------------------------
# identification partition


@dataclass(frozen=True)
class MergeEvent:
    """One effective application of a closure rule."""

    vector: IntVec
    source_orbits: tuple[OrbitIndex, ...]
    limit_orbits: tuple[OrbitIndex, ...]


@dataclass(frozen=True)
class IdentClass:
    """A class of orbits identified along the subtorus T_K: points (a, t) and
    (b, t') coincide iff both orbits are members and t' * t^-1 lies in T_K."""

    orbits: tuple[OrbitIndex, ...]
    subtorus: Sublattice


@dataclass(frozen=True)
class IdentificationPartition:
    system: FanSystem
    classes: tuple[IdentClass, ...]
    events: tuple[MergeEvent, ...]

    def class_of(self, orbit: OrbitIndex) -> IdentClass:
        for cls in self.classes:
            if orbit in cls.orbits:
                return cls
        raise KeyError(f"orbit {orbit!r} is not part of the partition")

    def same_class(self, a: OrbitIndex, b: OrbitIndex) -> bool:
        return self.class_of(a) is self.class_of(b)


def _test_vectors(system: FanSystem) -> tuple[IntVec, ...]:
    """One primitive relative-interior representative per face of every
    chart and of every pairwise chart intersection, read off the face masks.
    A meet that is a face of one of its charts adds no face, so its faces
    are skipped."""
    charts = system.charts
    cones = list(charts)
    for i in range(len(charts)):
        for j in range(i + 1, len(charts)):
            meet = system.meet(i, j)
            if not (meet.is_face_of(charts[i]) or meet.is_face_of(charts[j])):
                cones.append(meet)
    return tuple(sorted({primitive(c.mask_point(m)) for c in cones for m in c.face_masks if m}))


def forced_identifications(system: FanSystem) -> IdentificationPartition:
    """Fixpoint of the closure rules, starting from singleton classes with
    the orbit isotropy lattices.

    The fixpoint runs on orbit ids (positions in ``system.orbits()``, which
    is sorted by ``OrbitIndex.sort_key``), so ``root_of``, ``members`` and
    ``lattice`` are lists and id order is orbit order.  The limit orbits of
    an (orbit, v) pair do not depend on the classes, so they are tabulated
    once by ``limit_table`` from the charts' incidence masks; a merge joins
    the rows of the merged classes, so a step reads its class's limits with
    one lookup; a cell with one limit id finds its class with one
    ``root_of`` lookup.  Each sweep visits the classes by their smallest
    orbit and the vectors in lexicographic order, which fixes the events.  A
    step with one target class whose lattice already contains the source
    class's lattice changes nothing and is skipped; every other step merges
    classes or grows a lattice, and is recorded as an event.  A class with
    no event yet (version 0) is a singleton whose lattice is its orbit's
    span lattice, and each limit face contains the orbit's face, so its
    one-target steps are skipped with no test.  A class lattice changes only
    at its events, each of which bumps the class's version, so any other
    skip test is remembered by (source, version, target, version) and reruns
    only after an event (semi-naive evaluation).
    """
    orbits = system.orbits()
    vectors = _test_vectors(system)
    # per class root, per vector: the sorted limit ids of the class's members
    limits = limit_table(system, vectors)
    root_of = list(range(len(orbits)))
    members = [[o] for o in root_of]  # empty once merged into another class
    # a class lattice always contains the isotropy lattices of its members
    lattice = [o.cone.span_lattice for o in orbits]
    version = [0] * len(orbits)
    contains: dict[tuple[int, int, int, int], bool] = {}
    events: list[MergeEvent] = []
    changed = True
    while changed:
        changed = False
        for root in [r for r, ms in enumerate(members) if ms]:
            for k, v in enumerate(vectors):
                root = root_of[root]
                limit_ids = limits[root][k]
                if not limit_ids:
                    continue
                targets = ([root_of[limit_ids[0]]] if len(limit_ids) == 1
                           else sorted({root_of[g] for g in limit_ids}))
                new_root = targets[0]
                if len(targets) == 1:
                    if not version[root]:
                        continue
                    key = (root, version[root], new_root, version[new_root])
                    if key not in contains:
                        contains[key] = all(map(lattice[new_root].contains, lattice[root].basis))
                    if contains[key]:
                        continue
                merged = lattice[root]
                for r in targets:
                    merged = merged + lattice[r]
                source = tuple(orbits[o] for o in members[root])
                for r in targets[1:]:
                    for o in members[r]:
                        root_of[o] = new_root
                    members[new_root] += members[r]
                    members[r] = []
                members[new_root].sort()
                if len(targets) > 1:
                    rows = zip(*(limits[r] for r in targets))
                    limits[new_root] = [tuple(sorted(set().union(*col))) for col in rows]
                lattice[new_root] = merged.saturate()
                version[new_root] += 1
                events.append(MergeEvent(v, source, tuple(orbits[g] for g in limit_ids)))
                changed = True
    classes = tuple(
        IdentClass(tuple(orbits[o] for o in ms), lattice[root])
        for root, ms in enumerate(members) if ms
    )
    return IdentificationPartition(system, classes, tuple(events))


# ---------------------------------------------------------------------------
# comparison with fibers


def partition_matches_fibers(
    part: IdentificationPartition, kappa: ToricMorphism
) -> tuple[bool, list[tuple[str, bool, str]]]:
    """Do the classes coincide with the fibers of the comparison morphism?

    Checks, per class: a single target orbit, and the class subtorus equal to
    the fiber lattice over it.  Checks, per fiber over a distinguished point:
    the piece list realizes exactly one class, with matching subtorus
    lattices.  The fiber over the distinguished point of gamma's orbit has
    one piece per source orbit sent to gamma, and every piece's subtorus is
    ``fiber_lattice(kappa, gamma)``, the kernel of ``fiber_equation`` at the
    identity coset (every target of that equation is 1, so it always has a
    solution).  That lattice is read once per target orbit for both checks
    as a perp, with no equation solved, and no piece and no representative
    point is built.
    """
    # compared as chart systems: a fan is the system over its charts and gluing
    if FanSystem.key(kappa.source) != FanSystem.key(part.system):
        raise ValueError("partition and morphism have different sources")
    report: list[tuple[str, bool, str]] = []
    ok = True
    class_by_orbits = {cls.orbits: cls for cls in part.classes}
    # source orbits in orbit order, which is the order of a class's members
    fibers: dict[OrbitIndex, list[OrbitIndex]] = {}
    for orbit, target in kappa.orbit_assignment.items():
        fibers.setdefault(target, []).append(orbit)
    lattice = {g: fiber_lattice(kappa, g) for g in fibers}
    for cls in part.classes:
        label = "class " + "+".join(_orbit_tag(o) for o in cls.orbits)
        targets = {kappa.orbit_assignment[o] for o in cls.orbits}
        if len(targets) != 1:
            ok = False
            report.append((label, False, "members map to several target orbits"))
            continue
        gamma = next(iter(targets))
        good = cls.subtorus == lattice[gamma]
        ok = ok and good
        report.append(
            (label, good,
             f"subtorus {'matches' if good else 'differs from'} fiber lattice over {_orbit_tag(gamma)}")
        )
    for target, sources in sorted(fibers.items(), key=lambda kv: kv[0].sort_key()):
        label = f"fiber over {_orbit_tag(target)}"
        cls = class_by_orbits.get(tuple(sources))
        if cls is None:
            ok = False
            report.append((label, False, "fiber pieces do not form one class"))
            continue
        good = lattice[target] == cls.subtorus
        ok = ok and good
        report.append(
            (label, good,
             "piece subtori match the class" if good else "piece subtori differ from the class")
        )
    return ok, report


def _orbit_tag(o: OrbitIndex) -> str:
    return f"(chart {o.chart}, rays {list(o.cone.rays)})"


# ---------------------------------------------------------------------------
# end-to-end verification of the built-in example


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_example(scene: Scene | None = None) -> VerificationReport:
    """Run the full pipeline on the built-in quotient example and report the
    seven structural checks; ``scene`` is the built-in scene already loaded,
    if the caller has it."""
    from . import example

    ex = example.build_example(scene)
    checks: list[CheckResult] = []

    # 1. invariance of the quotient map under the given one-parameter action
    inv = invariance_check(ex.weight, ex.lattice_map)
    kernel = kernel_saturated(ex.lattice_map)
    want_kernel = Sublattice.from_rows(ex.lattice_map.ncols, [ex.weight])
    inv_ok = inv and kernel == want_kernel
    checks.append(
        CheckResult(
            "invariance",
            inv_ok,
            "weight is killed by the lattice map and spans its saturated kernel"
            if inv_ok
            else "weight fails invariance or does not span the kernel",
        )
    )

    # the quotient pipeline; chart numbering follows the built-in system
    projected, _pi_tilde = project_prevariety(ex.source_fan, ex.lattice_map)
    system = ex.system
    kappa = comparison_morphism(system, ex.target_fan)
    pipeline_ok = projected.is_equivalent(system)

    # 2. constructible image
    img = image_constructible(ex.pi)
    img_kappa = image_constructible(kappa)
    present = set(img.present)
    absent = set(img.absent)
    img_ok = (
        pipeline_ok
        and present == set(ex.expected_present)
        and absent == set(ex.expected_absent)
        and set(img_kappa.present) == present
        and set(img_kappa.absent) == absent
    )
    checks.append(
        CheckResult(
            "image",
            img_ok,
            f"{len(present)} orbits present, {len(absent)} absent, equal for both morphisms"
            if img_ok
            else "image orbit sets differ from the expected decomposition",
        )
    )

    # 3. the four fiber shapes, at several translations
    failed = None
    for t in (
        TorusElement.identity(3),
        TorusElement((2, 3, 5)),
        TorusElement(("1/2", 7, -3)),
    ):
        shape = _check_fibers(ex, system, kappa, t)
        if shape is not None:
            failed = f"fiber over {shape} differs from the expected shape at translation {t!r}"
            break
    checks.append(
        CheckResult(
            "fibers",
            failed is None,
            failed or "all four fiber shapes reproduced at several translations",
        )
    )

    # 4. the two-limit computation
    t = TorusElement((2, 3, 5))
    v = ex.limit_vector
    p0 = act(t, distinguished_point(system, Cone.zero(3)))
    lims = one_param_limits(system, v, p0)
    expected = {
        act(t, distinguished_point(system, ex.cones["tau1"])),
        act(t, distinguished_point(system, ex.cones["rho4"])),
    }
    q0 = act(t, distinguished_point(ex.target_fan, Cone.zero(3)))
    lims_fan = one_param_limits(ex.target_fan, v, q0)
    lim_ok = (
        set(lims) == expected
        and len(lims) == 2
        and len(lims_fan) == 1
        and lims_fan[0] == act(t, distinguished_point(ex.target_fan, ex.cones["tau1"]))
    )
    checks.append(
        CheckResult(
            "limits",
            lim_ok,
            "two limit points in the glued system, one in the separated target"
            if lim_ok
            else "limit sets differ from the expected points",
        )
    )

    # 5. codimension of the complement of the image
    codim = complement_codim(img)
    codim_ok = codim == 2
    checks.append(
        CheckResult(
            "codimension",
            codim_ok,
            f"complement of the image has codimension {codim}",
        )
    )

    # 6. the forced identification partition
    part = forced_identifications(system)
    part_ok = _partition_signature(part) == ex.expected_partition
    checks.append(
        CheckResult(
            "identifications",
            part_ok,
            f"{len(part.classes)} classes with the expected subtorus lattices"
            if part_ok
            else "partition differs from the expected class list",
        )
    )

    # 7. classes versus fibers
    match_ok, report = partition_matches_fibers(part, kappa)
    checks.append(
        CheckResult(
            "quotient-comparison",
            match_ok,
            "identification classes coincide with the comparison fibers"
            if match_ok
            else "classes and fibers disagree at "
            + next(label for label, good, _ in report if not good),
        )
    )
    return VerificationReport(tuple(checks))


def _check_fibers(ex, system: FanSystem, kappa: ToricMorphism, t: TorusElement) -> str | None:
    """The first fiber shape (zero, rho1-rho3, tau1, delta) that differs
    from the expected one at translation t, or None."""
    target = ex.target_fan
    zero = Cone.zero(3)

    pieces = fiber_pieces(kappa, act(t, distinguished_point(target, zero)))
    if not (
        len(pieces) == 1
        and pieces[0].orbit.cone == zero
        and pieces[0].is_single_point
        and pieces[0].representative == act(t, distinguished_point(system, zero))
    ):
        return "zero"

    for name in ("rho1", "rho2", "rho3"):
        ray = ex.cones[name]
        pieces = fiber_pieces(kappa, act(t, distinguished_point(target, ray)))
        if not (
            len(pieces) == 1
            and pieces[0].orbit.cone == ray
            and pieces[0].is_single_point
            and pieces[0].subtorus == ray.span_lattice
            and pieces[0].representative == act(t, distinguished_point(system, ray))
        ):
            return name

    tau1 = ex.cones["tau1"]
    pieces = fiber_pieces(kappa, act(t, distinguished_point(target, tau1)))
    if not (
        len(pieces) == 2
        and {p.orbit.cone for p in pieces} == {tau1, ex.cones["rho4"]}
        and all(p.subtorus == tau1.span_lattice for p in pieces)
        and all(p.contains(act(t, distinguished_point(system, p.orbit.cone))) for p in pieces)
    ):
        return "tau1"

    delta = ex.cones["delta"]
    pieces = fiber_pieces(kappa, distinguished_point(target, delta))
    if not (
        len(pieces) == 1
        and pieces[0].orbit.cone == ex.cones["tau2"]
        and pieces[0].subtorus == Sublattice.full(3)
        and pieces[0].contains(act(t, distinguished_point(system, ex.cones["tau2"])))
    ):
        return "delta"
    return None


def _partition_signature(part: IdentificationPartition):
    """Hashable summary of a partition: member cones and subtorus bases."""
    return tuple(
        sorted(
            (
                tuple(sorted((o.chart, o.cone.rays) for o in cls.orbits)),
                cls.subtorus.basis,
            )
            for cls in part.classes
        )
    )
