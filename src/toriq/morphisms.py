"""Toric morphisms: images, fibers, one-parameter limits, codimension.

A toric morphism is induced by an integer lattice map carrying every source
cone into some target cone.  Points move by pushing coset representatives
through the induced torus homomorphism; orbits move to the orbit of the
minimal target cone containing the image cone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cones import Cone
from .fans import Fan, FanSystem, OrbitIndex
from .frozen import Frozen
from .intlinalg import (
    CosetSolution,
    Inconsistent,
    IntMatrix,
    IntVec,
    NoRationalPoint,
    Sublattice,
    apply_exponent_matrix,
    dot,
    invariant_factors,
    solve_torus_equation,
    vec,
)
from .points import OrbitPoint, ToricPoint, TorusElement


class IncompatibleMorphism(ValueError):
    """A source cone's image is not contained in any target cone."""

    def __init__(self, cone: Cone, message: str | None = None):
        self.cone = cone
        super().__init__(message or f"no target cone contains the image of {cone!r}")


class PartialCover(ValueError):
    """A source orbit maps onto a proper subset of its target orbit."""

    def __init__(self, orbit: OrbitIndex):
        self.orbit = orbit
        super().__init__(
            f"orbit of {orbit.cone!r} covers its target orbit only partially"
        )


class ToricMorphism:
    """A lattice map together with compatible source and target spaces."""

    def __init__(
        self,
        matrix: IntMatrix,
        source: FanSystem,
        target: FanSystem,
    ):
        if matrix.ncols != source.rank or matrix.nrows != target.rank:
            raise ValueError(
                f"lattice map is {matrix.nrows}x{matrix.ncols}; expected "
                f"{target.rank}x{source.rank}"
            )
        self.matrix = matrix
        self.source = source
        self.target = target
        self.chart_assignment: list[int] = []
        for chart in source.charts:
            images = [matrix.apply(g) for g in chart.generators()]
            pick = next(
                (j for j, tc in enumerate(target.charts) if all(map(tc.contains_point, images))),
                None,
            )
            if pick is None:
                raise IncompatibleMorphism(chart)
            self.chart_assignment.append(pick)
        # the minimal target face containing the image of a source face is the
        # smallest face of its target chart holding the image of the source
        # face's relative-interior point; both faces are ray masks
        self.orbit_assignment: dict[OrbitIndex, OrbitIndex] = {}
        for orbit, reals in zip(source.orbits(), source.orbit_masks):
            targets = set()
            for i, mask in reals:
                j = self.chart_assignment[i]
                p = matrix.apply(source.charts[i].mask_point(mask))
                targets.add(target.orbit_of_mask[j][target.charts[j].face_mask(p)])
            if len(targets) > 1:
                raise IncompatibleMorphism(
                    orbit.cone, "chart realizations assign the orbit to different targets"
                )
            self.orbit_assignment[orbit] = target.orbits()[targets.pop()]

    def __repr__(self) -> str:
        return f"ToricMorphism({self.matrix.nrows}x{self.matrix.ncols})"

    # -- action on points ----------------------------------------------------

    def push_torus(self, t: TorusElement) -> TorusElement:
        return TorusElement(apply_exponent_matrix(self.matrix, t.coords))

    def _as_source_point(self, p) -> OrbitPoint:
        if isinstance(p, OrbitPoint):
            if p.space != self.source:
                raise ValueError("point does not live on the morphism's source")
            return p
        src = self.source
        if isinstance(p, TorusElement):
            orbit = src.orbit(0, Cone.zero(src.rank))
            return OrbitPoint.make(src, orbit, p)
        if isinstance(p, ToricPoint):
            chart_id = next(
                (i for i, c in enumerate(src.charts) if c == p.chart), None
            )
            if chart_id is None:
                raise ValueError("chart of the point is not a chart of the source")
            orbit = src.orbit(chart_id, p.face)
            return OrbitPoint.make(src, orbit, p.coset)
        raise TypeError(f"cannot interpret {type(p).__name__} as a source point")

    def apply(self, p) -> OrbitPoint:
        """Image of a point; characters pull back along the lattice map."""
        p = self._as_source_point(p)
        tgt_orbit = self.orbit_assignment[p.orbit]
        return OrbitPoint.make(self.target, tgt_orbit, self.push_torus(p.coset))

    # -- orbit-level structure -------------------------------------------------

    def cone_assignment(self, sigma: Cone | OrbitIndex) -> Cone:
        """The minimal target cone containing the image of a source cone."""
        orbit = sigma if isinstance(sigma, OrbitIndex) else self.source.orbit_of_cone(sigma)
        return self.orbit_assignment[orbit].cone

    def orbit_image(self, sigma: Cone | OrbitIndex) -> tuple[OrbitIndex, bool]:
        """Target orbit of a source orbit, and whether the orbit map is onto.

        Surjectivity of the induced map of quotient lattices
        N / sat(span sigma) -> N' / sat(span gamma) is decided by its Smith
        normal form.
        """
        orbit = sigma if isinstance(sigma, OrbitIndex) else self.source.orbit_of_cone(sigma)
        tgt_orbit = self.orbit_assignment[orbit]
        tgt_span = tgt_orbit.cone.span_lattice
        if tgt_span.rank == tgt_span.ambient:
            return tgt_orbit, True
        lift = orbit.cone.span_lattice.lift_matrix()
        induced = tgt_span.quotient_matrix() @ self.matrix @ lift
        factors = invariant_factors(induced)
        covered = len(factors) == induced.nrows and all(f == 1 for f in factors)
        return tgt_orbit, covered


class ConstructibleOrbitSet(Frozen):
    """An orbit-constructible subset of a toric variety: which orbits of the
    ambient fan are present and which are absent."""

    _fields = ("fan", "present", "absent")

    def __init__(self, fan: Fan, present: tuple[Cone, ...], absent: tuple[Cone, ...]):
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "present", present)
        object.__setattr__(self, "absent", absent)


def toric_morphism(
    matrix: IntMatrix, source: FanSystem, target: FanSystem
) -> ToricMorphism:
    return ToricMorphism(matrix, source, target)


def apply_morphism(m: ToricMorphism, p) -> OrbitPoint:
    return m.apply(p)


def orbit_image(m: ToricMorphism, sigma: Cone | OrbitIndex) -> tuple[OrbitIndex, bool]:
    return m.orbit_image(sigma)


def image_constructible(m: ToricMorphism) -> ConstructibleOrbitSet:
    """The image as a union of target orbits; every source orbit must map
    onto its target orbit."""
    if not isinstance(m.target, Fan):
        raise ValueError("constructible images are computed for fan targets")
    present: set[Cone] = set()
    for orbit in m.source.orbits():
        tgt_orbit, covered = m.orbit_image(orbit)
        if not covered:
            raise PartialCover(orbit)
        present.add(tgt_orbit.cone)
    absent = [c for c in m.target.all_cones if c not in present]

    def order(c: Cone):
        return (c.dim, c.rays)

    return ConstructibleOrbitSet(
        m.target, tuple(sorted(present, key=order)), tuple(sorted(absent, key=order))
    )


def complement_codim(s: ConstructibleOrbitSet) -> int | None:
    """Codimension of the complement of the orbit set; None when nothing is
    absent (the infinity marker).  The orbit of a cone gamma has dimension
    n - dim(gamma), so its codimension is dim(gamma)."""
    if not s.absent:
        return None
    return min(c.dim for c in s.absent)


# ---------------------------------------------------------------------------
# one-parameter limits


def orbit_limit_targets(
    space: FanSystem, orbit: OrbitIndex, v: Sequence[int]
) -> tuple[OrbitIndex, ...]:
    """Orbits of the limits of the translated family lambda_v(s) * t * x,
    for x on the given orbit; the coset is carried along unchanged.

    In a chart sigma containing the orbit's cone gamma, the limit exists iff
    v pairs nonnegatively with the dual face sigma^vee meet gamma^perp: v is
    orthogonal to sigma^perp, and no facet normal vanishing on gamma pairs
    negatively with v.  The limit orbit is cut out by the tight ones.  Each
    realization runs ``_chart_limits``, the kernel of ``limit_table``, on
    its own face mask, so no cone is built.
    """
    v = vec(v)
    if len(v) != space.rank:
        raise ValueError("vector rank mismatch")
    found = set()
    for i, mask in space.orbit_masks[space.orbit_id[orbit]]:
        found.update(_chart_limits(space, i, (mask,), (v,))[mask][0])
    return tuple(space.orbits()[t] for t in sorted(found))


def limit_table(space: FanSystem, vectors: Sequence[IntVec]) -> list[list[tuple[int, ...]]]:
    """``orbit_limit_targets`` as sorted orbit ids, ``table[orbit id][vector
    index]``, from one ``_chart_limits`` run per chart.  An orbit realized in
    one chart (most orbits) takes its row as it is; others join their rows."""
    rows = [_chart_limits(space, i, masks, vectors) for i, masks in enumerate(space.orbit_of_mask)]
    table = []
    for reals in space.orbit_masks:
        own = [rows[i][mask] for i, mask in reals]
        table.append(own[0] if len(own) == 1 else
                     [tuple(sorted({g for cell in col for g in cell})) for col in zip(*own)])
    return table


def _chart_limits(space: FanSystem, i: int, masks, vectors) -> dict[int, list[tuple[int, ...]]]:
    """Per face mask of chart i, per vector v: the limit orbit's id as a
    1-tuple, or () when there is no limit.  A face's co-mask has bit b when
    ``incidence[b]`` contains the face's mask: those facet normals span its
    dual face.  With the masks of the normals pairing negatively (``neg``)
    and to zero (``zero``) with v, a limit exists iff co-mask & neg == 0, and
    its face is the AND of the incidence masks over co-mask & zero, memoised
    per vector on that int."""
    chart, of_mask = space.charts[i], space.orbit_of_mask[i]
    incidence, full = chart.incidence, (1 << len(chart.rays)) - 1
    rows = {m: [] for m in masks}
    cells = [(rows[m].append, sum([1 << b for b, z in enumerate(incidence) if z & m == m]))
             for m in masks]
    for v in vectors:
        if any([dot(l, v) for l in chart.span_perp.basis]):  # v leaves the chart's span
            for add, _ in cells:
                add(())
            continue
        neg = zero = 0
        for b, u in enumerate(chart.facet_normals):
            x = dot(u, v)
            if x < 0:
                neg |= 1 << b
            elif x == 0:
                zero |= 1 << b
        limit: dict[int, tuple[int, ...]] = {-1: ()}  # key -1: no limit
        for add, comask in cells:
            tight = -1 if comask & neg else comask & zero
            if tight not in limit:
                face = full
                for b, z in enumerate(incidence):
                    if tight >> b & 1:
                        face &= z
                limit[tight] = (of_mask[face],)
            add(limit[tight])
    return rows


def one_param_limits(
    space: FanSystem, v: Sequence[int], p: OrbitPoint
) -> tuple[OrbitPoint, ...]:
    """All limit points of s -> lambda_v(s) * p as s -> 0, deduplicated
    across charts.  Empty when no chart admits a limit; for a fan the result
    has at most one element."""
    if p.space != space:
        raise ValueError("point does not live on the given space")
    targets = orbit_limit_targets(space, p.orbit, v)
    return tuple(OrbitPoint.make(space, t, p.coset) for t in targets)


# ---------------------------------------------------------------------------
# fibers


class ParametricCoset(Frozen):
    """Defining data of a fiber piece with no rational representative: the
    monomial system cutting it out, plus the kernel lattice."""

    _fields = ("orbit", "exponents", "target", "kernel")

    def __init__(self, orbit: OrbitIndex, exponents: IntMatrix,
                 target: tuple[Fraction, ...], kernel: Sublattice):
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "kernel", kernel)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.orbit, self.exponents, self.target, self.kernel)
                    == (other.orbit, other.exponents, other.target, other.kernel))
        return NotImplemented

    def __hash__(self):
        return hash((self.orbit, self.exponents, self.target, self.kernel))


class FiberPiece(Frozen):
    """One irreducible piece of a fiber: the sweep of a representative by the
    subtorus T_K; K always contains the isotropy lattice of the orbit."""

    _fields = ("orbit", "subtorus", "representative")

    def __init__(self, orbit: OrbitIndex, subtorus: Sublattice,
                 representative: OrbitPoint | ParametricCoset):
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "subtorus", subtorus)
        object.__setattr__(self, "representative", representative)

    @property
    def is_single_point(self) -> bool:
        return self.subtorus == self.orbit.cone.span_lattice

    def contains(self, p: OrbitPoint) -> bool:
        if not isinstance(self.representative, OrbitPoint):
            raise ValueError("piece has no rational representative")
        if p.orbit != self.orbit:
            return False
        ratio = p.coset * self.representative.coset.inverse()
        return self.subtorus.in_subtorus(ratio.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiberPiece):
            return NotImplemented
        if self.orbit != other.orbit or self.subtorus != other.subtorus:
            return False
        a, b = self.representative, other.representative
        if isinstance(a, OrbitPoint) and isinstance(b, OrbitPoint):
            ratio = a.coset * b.coset.inverse()
            return self.subtorus.in_subtorus(ratio.coords)
        return a == b

    def __hash__(self) -> int:
        return hash((self.orbit, self.subtorus.basis))


def fiber_equation(
    m: ToricMorphism, gamma: OrbitIndex, coset: TorusElement
) -> tuple[IntMatrix, tuple[Fraction, ...], CosetSolution | NoRationalPoint | Inconsistent]:
    """The coset equation of the fiber over the point of gamma's orbit with
    this coset: chi^u(m(t)) == chi^u(coset) for the characters u vanishing
    on span(gamma).  Returns its exponent matrix, its targets and its
    solution; the equation is the same for every source orbit over gamma,
    and the solution's kernel is the subtorus of every fiber piece."""
    char_basis = gamma.cone.span_perp.basis
    exponents = IntMatrix(char_basis, m.matrix.nrows) @ m.matrix
    targets = tuple(coset.chi(u) for u in char_basis)
    return exponents, targets, solve_torus_equation(exponents, targets)


def fiber_lattice(m: ToricMorphism, gamma: OrbitIndex) -> Sublattice:
    """The subtorus of every fiber piece over gamma's orbit: the saturated
    kernel of the exponent matrix of ``fiber_equation``, which is the perp of
    its rows.  It does not depend on the point, and no equation is solved;
    for an identity lattice map the rows are ``span_perp(gamma)``, so the
    perp is gamma's ``span_lattice``, returned with no elimination."""
    if m.matrix == IntMatrix.identity(m.matrix.ncols):
        return gamma.cone.span_lattice
    rows = (IntMatrix(gamma.cone.span_perp.basis, m.matrix.nrows) @ m.matrix).rows
    return Sublattice.from_rows(m.matrix.ncols, rows).perp()


def fiber_pieces(m: ToricMorphism, y: OrbitPoint) -> tuple[FiberPiece, ...]:
    """The fiber of a toric morphism over a rational target point, as a
    disjoint union of subtorus-coset pieces, one per source orbit over y's
    orbit when ``fiber_equation`` is solvable.  All pieces share one
    representative coset, reduced modulo the solution's kernel once; an
    orbit outside the image solves nothing."""
    if y.space != m.target:
        raise ValueError("target point does not live on the morphism's target")
    orbits = [o for o, g in m.orbit_assignment.items() if g == y.orbit]
    if not orbits:
        return ()
    exponents, targets, sol = fiber_equation(m, y.orbit, y.coset)
    if isinstance(sol, Inconsistent):
        return ()
    if isinstance(sol, NoRationalPoint):
        return tuple(
            FiberPiece(o, sol.kernel, ParametricCoset(o, exponents, targets, sol.kernel))
            for o in orbits
        )
    rep = TorusElement(sol.kernel.coset_reduce(sol.representative))
    return tuple(FiberPiece(o, sol.kernel, OrbitPoint.make(m.source, o, rep)) for o in orbits)
