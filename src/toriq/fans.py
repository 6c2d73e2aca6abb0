"""Fan systems and fans.

A ``FanSystem`` is a list of pointed chart cones together with an explicit
gluing face for every pair of charts; when a gluing face is smaller than the
set-theoretic intersection of the charts the glued space is a non-separated
prevariety.  A ``Fan`` is the separated case: a finite collection of
pointed cones closed under faces and intersecting pairwise in common faces,
which is the system of its maximal cones glued along their full pairwise
intersections.  So ``Fan`` is a ``FanSystem`` whose charts are its maximal
cones, and every orbit query reads the same chart system.

Orbits are indexed by (chart, face) pairs; two pairs denote the same orbit
exactly when the face is contained in the gluing cone of the chart pair.
Each orbit has an integer id, its position in ``FanSystem.orbits()``, and
in every chart that realizes it a face is its ray mask: every orbit lookup
reads the one index from ids to (chart, mask) pairs and back.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from .cones import Cone
from .frozen import Frozen
from .intlinalg import vec

# 7!: seven copies of one chart take about 0.15 s to compare
MAX_RENUMBERINGS = 5040


class FanViolation(ValueError):
    """Two cones of a would-be fan do not intersect in a common face."""

    def __init__(self, i: int, j: int, message: str | None = None):
        self.indices = (i, j)
        super().__init__(
            message
            or f"cones {i} and {j} do not intersect in a common face"
        )


class GluingViolation(ValueError):
    """A gluing cone is not a common face of its two charts, or the gluing
    data is not transitively consistent."""


class OrbitIndex(Frozen):
    """Canonical label of a torus orbit: a chart id and a face of that chart."""

    _fields = ("chart", "cone")

    def __init__(self, chart: int, cone: Cone):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "cone", cone)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.chart, self.cone) == (other.chart, other.cone)
        return NotImplemented

    def __hash__(self):
        return hash((self.chart, self.cone))

    def sort_key(self):
        return (self.cone.dim, self.chart, self.cone.key())


class FanSystem:
    """Pointed affine charts glued along explicit common faces."""

    def __init__(
        self,
        charts: Sequence[Cone],
        gluing: Mapping[tuple[int, int], Cone] | None = None,
        rank: int | None = None,
    ):
        charts = tuple(charts)
        if not charts and rank is None:
            raise ValueError("rank required for an empty system")
        self.rank = charts[0].ambient if rank is None else rank
        for c in charts:
            if c.ambient != self.rank:
                raise ValueError("charts live in different ranks")
            if not c.is_pointed:
                raise ValueError("chart cones must be pointed")
        self.charts = charts
        zero = Cone.zero(self.rank)
        table: dict[tuple[int, int], Cone] = {}
        gluing = dict(gluing or {})
        for i, j in list(gluing):
            if i > j:
                if (j, i) in gluing:
                    raise GluingViolation(f"charts {j}, {i} are glued more than once")
                gluing[(j, i)] = gluing.pop((i, j))
        for i in range(len(charts)):
            for j in range(i + 1, len(charts)):
                g = gluing.pop((i, j), zero)
                if not (g.is_face_of(charts[i]) and g.is_face_of(charts[j])):
                    raise GluingViolation(
                        f"gluing cone for charts {i}, {j} is not a common face"
                    )
                table[(i, j)] = g
        if gluing:
            raise GluingViolation(f"gluing refers to unknown chart pairs: {sorted(gluing)}")
        self.gluing = table
        self._meets: dict[tuple[int, int], Cone] = {}
        self._check_transitive()
        self._build_orbits()

    def _check_transitive(self) -> None:
        """Is g_ij meet g_jk, the face of chart j on their common rays, inside
        g_ik?  The test is symmetric in i and k, and the first failing ordered
        triple has i < k, so only those run."""
        m = len(self.charts)
        for i in range(m):
            for j in range(m):
                for k in range(i + 1, m):
                    if j in (i, k):
                        continue
                    common = set(self.gluing_cone(i, j).rays) & set(self.gluing_cone(j, k).rays)
                    if not all(map(self.gluing_cone(i, k).contains_point, common)):
                        raise GluingViolation(
                            f"gluing not transitive across charts {i}, {j}, {k}"
                        )

    @cached_property
    def separated(self) -> bool:
        """Is every gluing cone the full intersection of its two charts?"""
        return all(g == self.meet(i, j) for (i, j), g in self.gluing.items())

    def meet(self, i: int, j: int) -> Cone:
        """The intersection of charts i and j, kept once per pair; equal
        charts share it while it is alive (``Cone.intersect`` is memoised)."""
        key = (min(i, j), max(i, j))
        if key not in self._meets:
            self._meets[key] = self.charts[i].intersect(self.charts[j])
        return self._meets[key]

    def gluing_cone(self, i: int, j: int) -> Cone:
        if i == j:
            return self.charts[i]
        return self.gluing[(min(i, j), max(i, j))]

    def _build_orbits(self) -> None:
        """Number the orbits: an orbit's id is its position in ``orbits()``.

        A face f of chart i is the same orbit in every chart j whose gluing
        cone with i holds f's rays.  Gluing cones are faces of both charts
        and transitive, so this is already an equivalence; the orbit is
        represented in its first chart.  In chart j the face is its ray mask
        (bit k for ``charts[j].rays[k]``), and ``orbit_masks`` and
        ``orbit_of_mask`` map ids to (chart, mask) pairs and back: they are
        the one orbit index every lookup reads.
        """
        m = len(self.charts)
        glued = [[set(self.gluing_cone(i, j).rays) for j in range(m)] for i in range(m)]
        found = []
        for i, chart in enumerate(self.charts):
            for mask in chart.face_masks:
                rays = chart._rays_of(mask)
                js = [j for j in range(m) if glued[i][j].issuperset(rays)]
                if js[0] == i:
                    masks = [(j, self.charts[j].mask_of(rays)) for j in js]
                    found.append(((chart._mask_dims[mask], i, rays), mask, masks))
        found.sort()  # (dim, chart, rays) is the order of OrbitIndex.sort_key
        self._orbits = tuple(OrbitIndex(i, self.charts[i]._face(m)) for (_, i, _), m, _ in found)
        self.orbit_id = {o: n for n, o in enumerate(self._orbits)}
        self.orbit_masks = tuple(tuple(masks) for _, _, masks in found)
        self.orbit_of_mask: list[dict[int, int]] = [{} for _ in range(m)]
        for n, masks in enumerate(self.orbit_masks):
            for j, mask in masks:
                self.orbit_of_mask[j][mask] = n

    # -- orbit bookkeeping ---------------------------------------------------

    def _id_in_chart(self, chart: int, face: Cone) -> int | None:
        """The orbit id of a face of the chart, looked up by its ray mask;
        None when there is no such chart or the cone is not a face of it."""
        if chart not in range(len(self.charts)) or face.ambient != self.rank:
            return None
        mask = self.charts[chart].mask_of(face.rays) if face.is_pointed else None
        return None if mask is None else self.orbit_of_mask[chart].get(mask)

    def orbit(self, chart: int, face: Cone) -> OrbitIndex:
        """Canonical orbit index of a face of the given chart."""
        n = self._id_in_chart(chart, face)
        if n is None:
            raise ValueError(f"cone is not a face of chart {chart}")
        return self._orbits[n]

    def orbits(self) -> tuple[OrbitIndex, ...]:
        return self._orbits

    def realizations(self, orbit: OrbitIndex) -> tuple[tuple[int, Cone], ...]:
        """All (chart id, face) pairs denoting this orbit."""
        return tuple((j, orbit.cone) for j, _ in self.orbit_masks[self.orbit_id[orbit]])

    def orbit_of_cone(self, cone: Cone) -> OrbitIndex:
        """The unique orbit whose cone equals the given one; error if absent
        or ambiguous (distinct unglued copies)."""
        hits = {self._id_in_chart(i, cone) for i in range(len(self.charts))} - {None}
        if not hits:
            raise ValueError("no orbit with the given cone")
        if len(hits) > 1:
            raise ValueError("several distinct orbits share this cone; "
                             "specify the chart")
        return self._orbits[hits.pop()]

    # -- identity ------------------------------------------------------------

    def key(self):
        return (
            "system",
            self.rank,
            tuple(c.key() for c in self.charts),
            tuple(sorted((ij, g.key()) for ij, g in self.gluing.items())),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FanSystem) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        tag = "separated" if self.separated else "non-separated"
        return f"FanSystem(rank={self.rank}, charts={len(self.charts)}, {tag})"

    def as_fan(self) -> "Fan":
        """Convert a separated system to the fan with the same cones."""
        if not self.separated:
            raise ValueError("only separated systems define a fan")
        return Fan(self.charts)

    def is_equivalent(self, other: "FanSystem") -> bool:
        """Equality up to renumbering the charts.  A renumbering maps each
        chart to an equal one, so the charts are grouped by ``Cone.key()``
        and only renumberings within a group (repeated charts) are tried.
        More than ``MAX_RENUMBERINGS`` of them is a ``ValueError``, raised
        before any is tried."""
        import itertools

        if not isinstance(other, FanSystem):
            return False
        if self.rank != other.rank or len(self.charts) != len(other.charts):
            return False
        groups: dict = {}
        for side, space in enumerate((self, other)):
            for i, c in enumerate(space.charts):
                groups.setdefault(c.key(), ([], []))[side].append(i)
        if any(len(mine) != len(theirs) for mine, theirs in groups.values()):
            return False
        count = prod(factorial(len(t)) for _, t in groups.values())
        if count > MAX_RENUMBERINGS:
            raise ValueError(
                f"comparing up to renumbering needs {count} renumberings of equal charts, "
                f"more than the limit of {MAX_RENUMBERINGS}"
            )
        n = len(self.charts)
        mine = [i for m, _ in groups.values() for i in m]
        for choice in itertools.product(*(itertools.permutations(t) for _, t in groups.values())):
            perm = dict(zip(mine, itertools.chain(*choice)))
            if all(
                other.gluing_cone(perm[i], perm[j]) == self.gluing_cone(i, j)
                for i in range(n)
                for j in range(i + 1, n)
            ):
                return True
        return False


class Fan(FanSystem):
    """A fan: pointed cones closed under faces, pairwise meeting in faces.
    As a chart system its charts are the maximal cones, glued along their
    pairwise intersections."""

    def __init__(self, maximal_cones: Iterable[Cone]):
        cones = list(maximal_cones)
        if not cones:
            raise ValueError("a fan needs at least one cone")
        rank = cones[0].ambient
        for c in cones:
            if c.ambient != rank:
                raise ValueError("cones live in different ranks")
            if not c.is_pointed:
                raise ValueError("fan cones must be pointed")
        meets: dict[frozenset[Cone], Cone] = {}
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                meet = cones[i].intersect(cones[j])
                if not (meet.is_face_of(cones[i]) and meet.is_face_of(cones[j])):
                    raise FanViolation(i, j)
                meets[frozenset((cones[i], cones[j]))] = meet
        # a cone lies in another iff it is their meet
        maximal = [
            c
            for i, c in enumerate(cones)
            if not any(j != i and cones[j] != c and meets[frozenset((c, cones[j]))] == c
                       for j in range(len(cones)))
        ]
        # keep one copy of exact duplicates
        seen: dict = {}
        for c in maximal:
            seen.setdefault(c.key(), c)
        self.maximal_cones = tuple(
            sorted(seen.values(), key=lambda c: (c.dim, c.rays))
        )
        first: dict = {}  # one (cone, mask) per distinct ray set
        for c in self.maximal_cones:
            for mask in c.face_masks:
                first.setdefault(c._rays_of(mask), (c, mask))
        faces = (c._face(mask) for c, mask in first.values())
        self.all_cones = tuple(sorted(faces, key=lambda c: (c.dim, c.rays)))
        charts = self.maximal_cones
        gluing = {
            (i, j): meets[frozenset((a, b))]
            for i, a in enumerate(charts)
            for j, b in enumerate(charts[i + 1:], i + 1)
        }
        super().__init__(charts, gluing, rank=rank)

    def _check_transitive(self) -> None:
        """No check runs: a fan is glued along its own meets, so the rays
        common to g_ij = sigma_i meet sigma_j and g_jk lie in sigma_i meet
        sigma_k = g_ik, and the test cannot fail."""

    def meet(self, i: int, j: int) -> Cone:
        """A fan is glued along full intersections: the meet is the gluing
        cone."""
        return self.gluing_cone(i, j)

    # -- queries --------------------------------------------------------------

    def contains_cone(self, c: Cone) -> bool:
        return any(c == f for f in self.all_cones)

    def minimal_cone_containing(self, target: Cone | Sequence[int]) -> Cone | None:
        """The unique smallest fan cone containing the target, or None.  Fan
        cones meet in common faces, so it is the smallest face of the first
        maximal cone that holds the target, read off the face mask of the
        target's relative-interior point."""
        if isinstance(target, Cone):
            point = target.relint_point()
            hosts = (c for c in self.maximal_cones if c.contains_cone(target))
        else:
            point = vec(target)
            hosts = (c for c in self.maximal_cones if c.contains_point(point))
        host = next(hosts, None)
        return None if host is None else host._face(host.face_mask(point))

    def support_contains(self, v: Sequence[int]) -> bool:
        v = vec(v)
        return any(c.contains_point(v) for c in self.maximal_cones)

    # -- identity --------------------------------------------------------------

    def key(self):
        return ("fan", self.rank, tuple(c.key() for c in self.maximal_cones))

    def __eq__(self, other) -> bool:
        return isinstance(other, Fan) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Fan(rank={self.rank}, maximal={len(self.maximal_cones)}, cones={len(self.all_cones)})"


def build_fan(max_cones: Iterable[Cone]) -> Fan:
    return Fan(max_cones)


def build_fan_system(
    charts: Sequence[Cone],
    gluing: Mapping[tuple[int, int], Cone] | None = None,
) -> FanSystem:
    return FanSystem(charts, gluing)


def minimal_cone_containing(fan: Fan, target: Cone | Sequence[int]) -> Cone | None:
    return fan.minimal_cone_containing(target)


def system_view(space: FanSystem) -> FanSystem:
    """The space itself: a fan is already its own chart system.  The
    benchmark workloads in ``perfbench/`` still call it."""
    return space
