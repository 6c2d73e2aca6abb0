"""Rational polyhedral cones in canonical form.

The single geometric engine is an incremental double description method:
inserting one inequality at a time into a (rays, lines) description, where
each ray keeps an int mask of the rows it is tight at, and two rays are
adjacent iff no third ray's mask holds their common mask.  Canonical form of
a cone is its sorted primitive extreme rays (reduced modulo the lineality
space) together with the saturated HNF basis of the lineality lattice, which
makes equality and hashing structural.

A cone built from generators takes one description pass, generators ->
inequalities, which gives the facet normals (the canonical extreme rays of
the dual cone), and the rays are read off it (see ``from_generators``).
Duality is then a pure swap of the stored data.  A face of any cone is a
ray mask: every face holds the lineality space, and the canonical rays are
already reduced modulo it, so they are the rays of the pointed quotient.
The faces are the intersections of facet incidence masks (Kaibel-Pfetsch),
and the smallest face holding a point is the AND of the masks of the facet
normals tight there.  A face is built from its mask with no description
pass (its facets are read off the parent's facet normals and a per-mask
dimension table), on the first lookup of its mask, and once per mask.  A
cone is a face of another iff their lineality lattices are equal and its
rays are the rays of a face mask, so that test is a lookup.  An
intersection starts from one cone's own description (its rays, their masks
read off ``incidence``, and its lines) and inserts only the other cone's
rows; a meet that is a face of a pointed operand is read off that operand's
face table, and any other meet is canonicalised from generators.

Equal cones are built once while any copy is alive.  ``_CONES``, a
``WeakValueDictionary``, maps ``Cone.key()`` to the live cone with that key,
``(rank, sorted primitive generators)`` to the cone they generate, and
``("meet",)`` plus the two operands' sorted keys to their intersection: a
``from_generators`` call with a known generator set returns the cone with no
description pass, a new cone is swapped for a live equal one, a face is
looked up by its key before its orthogonal lattice is computed, and an
intersection of two cones whose meet is alive runs no description pass.  So
a face shared by several charts, a fan's copy of a system's chart, a chart
pair's meet built by both a fan and a chart system, and each cone's lattices
are computed once per check.  The memo holds its values weakly and
adds no reference to any cone, so a cone lives exactly as long as a caller
keeps it.  No cone may reach itself: a face table never holds the cone it
belongs to (its full mask is the cone itself), and ``faces()`` builds its
tuple on each call.  A cycle would keep a cone alive until the next garbage
collection, and later work would reuse it or not depending on when the
collector last ran.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .intlinalg import (
    IntMatrix,
    IntVec,
    Sublattice,
    dot,
    is_zero_vec,
    lattice_points_in_box,
    primitive,
    rank_of_rows,
    reduce_each_mod_span,
    vec,
    vec_neg,
    vec_sub,
)


# ---------------------------------------------------------------------------
# double description


def _combine(alpha: int, x: IntVec, beta: int, y: IntVec) -> IntVec:
    """primitive(alpha * x - beta * y)."""
    return primitive(tuple(alpha * s - beta * t for s, t in zip(x, y)))


def _double_description(
    rank: int,
    ineqs: Sequence[IntVec],
    eqs: Sequence[IntVec],
    start: tuple[Sequence[IntVec], Sequence[int], Sequence[IntVec], int] | None = None,
) -> tuple[list[IntVec], list[IntVec]]:
    """Rays and lines of {x : <a,x> >= 0 for a in ineqs, <b,x> = 0 for b in eqs}.

    Equalities are inserted first (as inequality pairs), then inequalities in
    the given order, into ``start`` (rays, their masks, lines, count of rows
    processed), by default the whole space; bit i of a ray's mask is set when
    the ray is tight at processed row i.  Rays in the result are extreme;
    lines span the lineality space (the returned basis need not be
    saturated).  Each insertion pairs the new row with each current line and
    ray once, and builds every new line and ray from those values.  Two rays
    are adjacent iff no third ray's mask holds their common mask (Fukuda &
    Prodon, 1996), which first needs at least rank(processed) - 2 bits.
    """
    rays, masks, lines, done = start or ([], [], IntMatrix.identity(rank).rows, 0)
    lines, bit = list(lines), 1 << done

    def insert(a: IntVec) -> None:
        nonlocal rays, masks, lines, bit
        if is_zero_vec(a):
            return
        line_values = [dot(a, l) for l in lines]
        split = next((i for i, v in enumerate(line_values) if v != 0), None)
        if split is not None:
            l0, al0 = lines.pop(split), line_values.pop(split)
            if al0 < 0:
                l0, al0 = vec_neg(l0), -al0
            lines = [_combine(al0, l, v, l0) for l, v in zip(lines, line_values)]
            rays = [_combine(al0, r, dot(a, r), l0) for r in rays] + [l0]
            masks = [z | bit for z in masks] + [bit - 1]
        else:
            values = [dot(a, r) for r in rays]
            if any(v < 0 for v in values):
                least = rank - len(lines) - 2
                pos = [(r, v, z) for r, v, z in zip(rays, values, masks) if v > 0]
                neg = [(r, v, z) for r, v, z in zip(rays, values, masks) if v < 0]
                new = [(r, z) for r, _, z in pos]
                new += [(r, z | bit) for r, v, z in zip(rays, values, masks) if v == 0]
                for rp, vp, zp in pos:
                    for rn, vn, zn in neg:
                        both = zp & zn
                        if both.bit_count() >= least and sum(both & z == both for z in masks) < 3:
                            new.append((_combine(vp, rn, vn, rp), both | bit))
                rays, masks = [r for r, _ in new], [z for _, z in new]
            else:
                masks = [z | bit if v == 0 else z for z, v in zip(masks, values)]
        bit <<= 1

    for b in eqs:
        if not is_zero_vec(b):
            insert(tuple(b))
            insert(vec_neg(b))
    for a in ineqs:
        insert(tuple(a))
    return rays, lines


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True, eq=False)
class Cone:
    """A rational polyhedral cone in canonical form.

    ``rays`` are the primitive extreme rays reduced modulo the lineality
    space and sorted; ``lineality`` is the saturated lattice of the lineality
    space; ``facet_normals`` are the canonical extreme rays of the dual cone
    (inequalities <u, x> >= 0); ``span_perp`` is the saturated lattice
    orthogonal to the span of the cone.
    """

    ambient: int
    rays: tuple[IntVec, ...]
    lineality: Sublattice
    facet_normals: tuple[IntVec, ...]
    span_perp: Sublattice

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Iterable[Sequence[int]], rank: int) -> "Cone":
        """cone(generators), by one description pass to the facet normals: L
        is the perp of the facet normals and the dual lineality basis, and a
        generator is a ray iff its tight facet normals and that basis have
        rank n - dim L - 1."""
        gens: list[IntVec] = []
        for g in generators:
            g = vec(g)
            if len(g) != rank:
                raise ValueError(f"generator of length {len(g)} in rank {rank}")
            if not is_zero_vec(g):
                gens.append(primitive(g))
        key = (rank, tuple(sorted(set(gens))))
        cone = _CONES.get(key)
        if cone is None:
            rays_d, lines_d = _double_description(rank, key[1], [])
            dual_lin = Sublattice.from_rows(rank, lines_d).saturate()
            facets = _canonical_rays(rays_d, dual_lin)
            lin = Sublattice.from_rows(rank, facets + dual_lin.basis).perp()
            rays = [
                g for g in key[1]
                if rank_of_rows([u for u in facets if dot(u, g) == 0] + list(dual_lin.basis))
                == rank - lin.rank - 1
            ]
            cone = _canonical(cls(rank, _canonical_rays(rays, lin), lin, facets, dual_lin))
            _CONES[key] = cone
        return cone

    @classmethod
    def zero(cls, rank: int) -> "Cone":
        return cls(rank, (), Sublattice.zero(rank), (), Sublattice.full(rank))

    @classmethod
    def full(cls, rank: int) -> "Cone":
        basis = IntMatrix.identity(rank).rows
        return cls.from_generators(list(basis) + [vec_neg(b) for b in basis], rank)

    # -- identity -----------------------------------------------------------

    def key(self):
        return (self.ambient, self.rays, self.lineality.basis)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cone) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        parts = [f"rays={list(self.rays)}"]
        if self.lineality.rank:
            parts.append(f"lines={list(self.lineality.basis)}")
        return f"Cone({self.ambient}; {', '.join(parts)})"

    # -- basic geometry -----------------------------------------------------

    @cached_property
    def span_lattice(self) -> Sublattice:
        """Saturated lattice spanned by the cone (the isotropy lattice N_sigma)."""
        return self.span_perp.perp()

    @property
    def dim(self) -> int:
        return self.ambient - self.span_perp.rank

    @property
    def is_pointed(self) -> bool:
        return self.lineality.rank == 0

    def dual(self) -> "Cone":
        return Cone(
            self.ambient,
            self.facet_normals,
            self.span_perp,
            self.rays,
            self.lineality,
        )

    def generators(self) -> tuple[IntVec, ...]:
        """Rays plus +/- lineality basis: a generating set of the cone."""
        out = list(self.rays)
        for b in self.lineality.basis:
            out.append(b)
            out.append(vec_neg(b))
        return tuple(out)

    def contains_point(self, v: Sequence[int]) -> bool:
        v = vec(v)
        if len(v) != self.ambient:
            raise ValueError("rank mismatch")
        if any(dot(b, v) != 0 for b in self.span_perp.basis):
            return False
        return all(dot(u, v) >= 0 for u in self.facet_normals)

    def contains_cone(self, other: "Cone") -> bool:
        if other.ambient != self.ambient:
            raise ValueError("rank mismatch")
        return all(self.contains_point(g) for g in other.generators())

    def relint_point(self) -> IntVec:
        """A canonical lattice point in the relative interior (sum of rays)."""
        return self.mask_point((1 << len(self.rays)) - 1)

    def classify(self, v: Sequence[int]) -> "PointClassification":
        v = vec(v)
        if len(v) != self.ambient:
            raise ValueError("rank mismatch")
        if any(dot(b, v) != 0 for b in self.span_perp.basis):
            return PointClassification.outside()
        values = [dot(u, v) for u in self.facet_normals]
        if any(x < 0 for x in values):
            return PointClassification.outside()
        if all(values):
            return PointClassification.relint()
        return PointClassification.on_face(self._face(self.face_mask(v)))

    # -- faces as ray masks: bit k stands for rays[k] -------------------------

    def _zero_mask(self, u: Sequence[int]) -> int:
        """The rays on which the dual vector u vanishes."""
        return sum(1 << k for k, r in enumerate(self.rays) if dot(u, r) == 0)

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Per facet normal, the rays it vanishes on."""
        return tuple(map(self._zero_mask, self.facet_normals))

    def face_mask(self, v: Sequence[int]) -> int:
        """The smallest face holding the point v of this cone: the AND of the
        ``incidence`` masks of the facet normals tight at v."""
        mask = (1 << len(self.rays)) - 1
        for u, z in zip(self.facet_normals, self.incidence):
            if dot(u, v) == 0:
                mask &= z
        return mask

    @cached_property
    def face_masks(self) -> frozenset[int]:
        """The masks of all faces: the intersections of facet incidence
        masks (Kaibel-Pfetsch).  Mask 0 is the lineality space, the smallest
        face."""
        masks = {(1 << len(self.rays)) - 1}
        for z in self.incidence:
            masks |= {m & z for m in masks}
        return frozenset(masks)

    def mask_point(self, mask: int) -> IntVec:
        """A lattice point in the relative interior of the face with this
        mask: the sum of its rays."""
        return tuple(map(sum, zip((0,) * self.ambient, *self._rays_of(mask))))

    def _rays_of(self, mask: int) -> tuple[IntVec, ...]:
        return tuple(r for k, r in enumerate(self.rays) if mask >> k & 1)

    @cached_property
    def _bit(self) -> dict[IntVec, int]:
        """Per ray, its bit in a mask."""
        return {r: 1 << k for k, r in enumerate(self.rays)}

    def mask_of(self, rays: Iterable[IntVec]) -> int | None:
        """The mask of these rays; None when one is not a ray of this cone."""
        bit, mask = self._bit, 0
        for r in rays:
            if r not in bit:
                return None
            mask |= bit[r]
        return mask

    @cached_property
    def _mask_dims(self) -> dict[int, int]:
        """Per face mask, the dimension of its face modulo the lineality
        space (the rank of its canonical rays)."""
        return {m: rank_of_rows(self._rays_of(m)) for m in self.face_masks}

    def _face_of_mask(self, mask: int) -> "Cone":
        """The face of this cone with the given ray mask, built with no
        description pass; it has this cone's lineality.  A facet of the face
        is cut out by every parent facet normal whose zero set on the face's
        rays has dimension one less."""
        rays, dims = self._rays_of(mask), self._mask_dims
        lin = self.lineality.basis
        face = _CONES.get((self.ambient, rays, lin))
        if face is not None:
            return face
        span_perp = Sublattice.from_rows(self.ambient, rays + lin).perp()
        normals = [
            u for u, z in zip(self.facet_normals, self.incidence)
            if dims[mask & z] == dims[mask] - 1
        ]
        return _canonical(Cone(
            self.ambient, rays, self.lineality, _canonical_rays(normals, span_perp), span_perp
        ))

    @cached_property
    def _faces_by_mask(self) -> dict[int, "Cone"]:
        """Face mask -> proper face; a face is built on the first lookup of
        its mask."""
        return {}

    def _face(self, mask: int) -> "Cone":
        """The face with this mask.  The full mask gives the cone itself,
        which the face table never holds: no cone may reach itself."""
        if mask == (1 << len(self.rays)) - 1:
            return self
        table = self._faces_by_mask
        if mask not in table:
            table[mask] = self._face_of_mask(mask)
        return table[mask]

    def faces(self) -> tuple["Cone", ...]:
        """All faces of a pointed cone, ordered by (dim, generators), the
        cone itself last; one cone is built per proper face mask.  The tuple
        is built on each call, as it holds the cone itself."""
        if not self.is_pointed:
            raise ValueError("face enumeration requires a pointed cone")
        return tuple(sorted(map(self._face, self.face_masks), key=lambda c: (c.dim, c.rays)))

    def _face_from_tight(self, tight: Sequence[IntVec]) -> "Cone":
        """The face on which the dual vectors ``tight`` vanish.  They are
        nonnegative on the cone, so it is the face whose rays are those on
        which their sum vanishes."""
        total = tuple(map(sum, zip((0,) * self.ambient, *tight)))
        return self._face(self._zero_mask(total))

    @cached_property
    def _semigroup(self) -> tuple[IntVec, ...]:
        """The generators of ``semigroup_generators``, kept with the cone."""
        lin = self.lineality
        if self.dim == 0:
            return ()
        if lin.rank == 0:
            return tuple(sorted(_hilbert_basis_pointed(self)))
        qmat = lin.quotient_matrix()
        cbar = Cone.from_generators([qmat.apply(r) for r in self.rays], qmat.nrows)
        lift = lin.lift_matrix()
        lifted = [lin.reduce(lift.apply(h)) for h in _hilbert_basis_pointed(cbar)]
        extra = [x for b in lin.basis for x in (b, vec_neg(b))]
        return tuple(sorted(set(lifted + extra)))

    def is_face_of(self, other: "Cone") -> bool:
        """Is this cone a face of ``other``?  A face is a ray mask with the
        same lineality: the lineality lattices must be equal, this cone's
        rays must be rays of ``other``, and their mask must be in
        ``other.face_masks``, so no dot product is taken."""
        if self.ambient != other.ambient:
            raise ValueError("rank mismatch")
        if self.lineality != other.lineality:
            return False
        mask = other.mask_of(self.rays)
        return mask is not None and mask in other.face_masks

    def intersect(self, other: "Cone") -> "Cone":
        """The intersection, by one description pass (see ``_meet``), once
        while it is alive: ``_CONES`` holds it under
        ``("meet",)`` plus the operands' sorted keys, so ``a.intersect(b)``
        is ``b.intersect(a)``.  A meet that is a face of a pointed operand
        (and so pointed, with canonical rays) is that operand's face from its
        face table."""
        if self.ambient != other.ambient:
            raise ValueError("rank mismatch")
        key = ("meet",) + tuple(sorted((self.key(), other.key())))
        meet = _CONES.get(key)
        if meet is None:
            meet = _CONES[key] = self._meet(other)
        return meet

    def _meet(self, other: "Cone") -> "Cone":
        """Cut this cone's own description, pointed or not, by the other's
        rows: a ray's mask has bit i for facet normal i, then one bit per
        ``span_perp`` row, set on every ray."""
        nf, eq = len(self.facet_normals), self.span_perp.rank
        masks = [
            sum(1 << i for i, z in enumerate(self.incidence) if z >> k & 1) | ((1 << eq) - 1) << nf
            for k in range(len(self.rays))
        ]
        start = (list(self.rays), masks, self.lineality.basis, nf + eq)
        rays, lines = _double_description(
            self.ambient, other.facet_normals, other.span_perp.basis, start
        )
        for c in (x for x in (self, other) if x.is_pointed):
            mask = c.mask_of(rays)
            if mask is not None and mask in c.face_masks:
                return c._face(mask)
        gens = rays + [x for l in lines for x in (l, vec_neg(l))]
        return Cone.from_generators(gens, self.ambient)


@dataclass(frozen=True)
class PointClassification:
    """Location of a point relative to a cone: outside, on a proper face, or
    in the relative interior.  ``face`` carries the minimal containing face."""

    kind: str
    face: Cone | None = None

    @classmethod
    def outside(cls) -> "PointClassification":
        return cls("outside")

    @classmethod
    def relint(cls) -> "PointClassification":
        return cls("relint")

    @classmethod
    def on_face(cls, face: Cone) -> "PointClassification":
        return cls("on_face", face)

    @property
    def is_outside(self) -> bool:
        return self.kind == "outside"

    @property
    def is_relint(self) -> bool:
        return self.kind == "relint"


# Cone.key() -> the live cone with that key, (rank, sorted primitive
# generators) -> the cone they generate, and ("meet", key, key) -> the
# intersection of the cones with those sorted keys; values are held weakly
_CONES: "weakref.WeakValueDictionary[tuple, Cone]" = weakref.WeakValueDictionary()


def _canonical(cone: Cone) -> Cone:
    """The live cone equal to this one, registering it when there is none."""
    return _CONES.setdefault(cone.key(), cone)


def _canonical_rays(rays: Iterable[IntVec], lineality: Sublattice) -> tuple[IntVec, ...]:
    reduced = reduce_each_mod_span(rays, lineality.basis)
    return tuple(sorted({r for r in reduced if not is_zero_vec(r)}))


# ---------------------------------------------------------------------------
# top-level operations


def cone_canonical(generators: Iterable[Sequence[int]], rank: int) -> Cone:
    return Cone.from_generators(generators, rank)


def dual_cone(c: Cone) -> Cone:
    return c.dual()


def faces(c: Cone) -> tuple[Cone, ...]:
    return c.faces()


def classify_point(c: Cone, v: Sequence[int]) -> PointClassification:
    return c.classify(v)


def intersect(a: Cone, b: Cone) -> Cone:
    return a.intersect(b)


def image_cone(p: IntMatrix, c: Cone) -> Cone:
    """The cone generated by the images of the generators under p."""
    if p.ncols != c.ambient:
        raise ValueError("matrix columns must match the cone's rank")
    gens = [p.apply(g) for g in c.generators()]
    return Cone.from_generators(gens, p.nrows)


def semigroup_generators(c: Cone) -> tuple[IntVec, ...]:
    """A finite generating set of the monoid C intersect Z^n.

    For a pointed cone this is the Hilbert basis; with lineality it is a
    Hilbert basis of the pointed quotient (lifted) together with +/- a basis
    of the lineality lattice.
    """
    return c._semigroup


def _hilbert_basis_pointed(c: Cone) -> list[IntVec]:
    """Hilbert basis of a pointed cone by bounded enumeration.

    Every irreducible element lies in {sum lambda_i r_i : lambda_i in [0, 1]},
    so candidates are drawn from the coordinate bounding box of that zonotope
    and sieved for irreducibility.
    """
    if c.dim == 0:
        return []
    n = c.ambient
    lo = [sum(min(0, r[j]) for r in c.rays) for j in range(n)]
    hi = [sum(max(0, r[j]) for r in c.rays) for j in range(n)]
    candidates = [
        x
        for x in lattice_points_in_box(lo, hi)
        if not is_zero_vec(x) and c.contains_point(x)
    ]
    basis = []
    for x in candidates:
        reducible = any(
            y != x and c.contains_point(vec_sub(x, y)) for y in candidates
        )
        if not reducible:
            basis.append(x)
    return basis
