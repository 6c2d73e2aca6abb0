"""Exact rational points of toric (pre)varieties and torus actions.

A point is modeled either as an ``OrbitPoint`` (an orbit index plus a torus
coset representative, canonical modulo the isotropy subtorus) or as a
``ToricPoint`` (a semigroup homomorphism on the dual semigroup generators of
one affine chart, with zero values allowed).  The two views convert into
each other exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .cones import Cone, semigroup_generators
from .fans import FanSystem, OrbitIndex
from .frozen import Frozen
from .intlinalg import (
    CosetSolution,
    IntMatrix,
    IntVec,
    dot,
    solve_torus_equation,
    vec,
)

Rational = Fraction | int | str


def _fraction(x: Rational) -> Fraction:
    return Fraction(x)


class TorusElement(Frozen):
    """A rational point of the torus (Q*)^n; all coordinates nonzero."""

    def __init__(self, coords: Sequence[Rational]):
        vals = tuple(_fraction(x) for x in coords)
        if any(x == 0 for x in vals):
            raise ValueError("torus coordinates must be nonzero")
        object.__setattr__(self, "coords", vals)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.coords,) == (other.coords,)
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    @classmethod
    def identity(cls, rank: int) -> "TorusElement":
        return cls((Fraction(1),) * rank)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return TorusElement(tuple(a * b for a, b in zip(self.coords, other.coords)))

    def inverse(self) -> "TorusElement":
        return TorusElement(tuple(1 / a for a in self.coords))

    def chi(self, u: Sequence[int]) -> Fraction:
        """Character value chi^u(t) = prod t_i^{u_i}."""
        out = Fraction(1)
        for e, x in zip(vec(u), self.coords, strict=True):
            if e:
                out *= x**e
        return out

    def __repr__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


class OrbitPoint(Frozen):
    """A rational point given by its orbit and a canonical coset representative.

    Two points are equal exactly when they lie on the same orbit and their
    coset representatives differ by an element of the isotropy subtorus; the
    representative stored here is already reduced modulo that subtorus, so
    equality is structural.
    """

    def __init__(self, space: FanSystem, orbit: OrbitIndex, coset: TorusElement):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "coset", coset)

    @classmethod
    def make(
        cls, space: FanSystem, orbit: OrbitIndex, coset: TorusElement | Sequence[Rational]
    ) -> "OrbitPoint":
        if not isinstance(coset, TorusElement):
            coset = TorusElement(coset)
        iso = orbit.cone.span_lattice
        reduced = TorusElement(iso.coset_reduce(coset.coords))
        return cls(space, orbit, reduced)

    @property
    def isotropy(self):
        """The saturated cocharacter lattice of the stabilizer subtorus."""
        return self.orbit.cone.span_lattice

    def key(self):
        return (self.space.key(), self.orbit.chart, self.orbit.cone.key(), self.coset.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrbitPoint) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"OrbitPoint(chart={self.orbit.chart}, cone_rays={list(self.orbit.cone.rays)}, t={self.coset})"

    def translated(self, t: TorusElement) -> "OrbitPoint":
        return OrbitPoint.make(self.space, self.orbit, t * self.coset)

    def realizations(self) -> tuple[tuple[int, Cone], ...]:
        return self.space.realizations(self.orbit)

    def as_toric(self, chart_id: int | None = None) -> "ToricPoint":
        """The point as a semigroup homomorphism on one of its charts."""
        reals = self.realizations()
        if chart_id is None:
            chart_id = reals[0][0]
        if all(i != chart_id for i, _ in reals):
            raise ValueError(f"point does not lie in chart {chart_id}")
        return ToricPoint.from_orbit(self.space.charts[chart_id], self.orbit.cone, self.coset)

    def evaluate(self, u: Sequence[int], chart_id: int | None = None) -> Fraction:
        return self.as_toric(chart_id).evaluate(u)


class ToricPoint(Frozen):
    """A point of one affine chart as a map on dual semigroup generators.

    Invariants: values are multiplicative (value(u1) * value(u2) = value(u3)
    whenever u1 + u2 = u3), and the vanishing set is the complement of
    gamma^perp for a unique face gamma of the chart (the orbit of the point).
    """

    def __init__(self, chart: Cone, values: tuple[tuple[IntVec, Fraction], ...],
                 face: Cone, coset: TorusElement):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "coset", coset)

    @classmethod
    def from_orbit(cls, chart: Cone, face: Cone, coset: TorusElement) -> "ToricPoint":
        gens = semigroup_generators(chart.dual())
        span = face.span_lattice
        vals = []
        for u in gens:
            if all(dot(u, b) == 0 for b in span.basis):
                vals.append((u, coset.chi(u)))
            else:
                vals.append((u, Fraction(0)))
        reduced = TorusElement(span.coset_reduce(coset.coords))
        return cls(chart, tuple(sorted(vals)), face, reduced)

    @classmethod
    def from_values(
        cls, chart: Cone, mapping: Mapping[Sequence[int], Rational]
    ) -> "ToricPoint":
        gens = semigroup_generators(chart.dual())
        values = {vec(u): _fraction(x) for u, x in mapping.items()}
        if set(values) != set(gens):
            raise ValueError("values must be given exactly on the dual semigroup generators")
        nonzero = sorted(u for u, x in values.items() if x != 0)
        # characters of the dual semigroup always cut out a face
        face = chart._face_from_tight(nonzero)
        span = face.span_lattice
        for u, x in values.items():
            on_perp = all(dot(u, b) == 0 for b in span.basis)
            if on_perp != (x != 0):
                raise ValueError("vanishing set is not the complement of a face's perp")
        if nonzero:
            sol = solve_torus_equation(
                IntMatrix(nonzero, chart.ambient),
                tuple(values[u] for u in nonzero),
            )
            if not isinstance(sol, CosetSolution):
                raise ValueError("values are not multiplicatively consistent over Q")
            coset = TorusElement(span.coset_reduce(sol.representative))
        else:
            coset = TorusElement.identity(chart.ambient)
        vals = tuple(sorted(values.items()))
        return cls(chart, vals, face, coset)

    def evaluate(self, u: Sequence[int]) -> Fraction:
        """Value of the character u on the point; u must lie in the chart's
        dual cone (it then decomposes in the dual semigroup)."""
        u = vec(u)
        if not self.chart.dual().contains_point(u):
            raise ValueError("character lies outside the dual cone of the chart")
        span = self.face.span_lattice
        if any(dot(u, b) != 0 for b in span.basis):
            return Fraction(0)
        return self.coset.chi(u)

    def translated(self, t: TorusElement) -> "ToricPoint":
        vals = {u: t.chi(u) * x for u, x in self.values}
        new_coset = TorusElement(
            self.face.span_lattice.coset_reduce((t * self.coset).coords)
        )
        return ToricPoint(self.chart, tuple(sorted(vals.items())), self.face, new_coset)

    def key(self):
        return (self.chart.key(), self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, ToricPoint) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        vals = ", ".join(f"{u}:{x}" for u, x in self.values)
        return f"ToricPoint({vals})"


# ---------------------------------------------------------------------------
# top-level operations


def distinguished_point(
    space: FanSystem, cone: Cone, chart_id: int | None = None
) -> OrbitPoint:
    """The distinguished point of the orbit of the given cone (coset = 1)."""
    if chart_id is None:
        orbit = space.orbit_of_cone(cone)
    else:
        orbit = space.orbit(chart_id, cone)
    return OrbitPoint.make(space, orbit, TorusElement.identity(space.rank))


def torus_point(space: FanSystem, coords: Sequence[Rational]) -> OrbitPoint:
    """The point of the dense torus with the given coordinates."""
    orbit = space.orbit(0, Cone.zero(space.rank))
    return OrbitPoint.make(space, orbit, TorusElement(coords))


def act(t: TorusElement, p: OrbitPoint | ToricPoint):
    """Translate a point by a torus element."""
    return p.translated(t)


def evaluate_character(p: ToricPoint | OrbitPoint, u: Sequence[int]) -> Fraction:
    return p.evaluate(u)
