"""Independent oracles and generators used by the test suite.

These deliberately avoid the library's own canonicalization paths: minors
for Smith diagonals, Gaussian elimination for kernels, Fourier-Motzkin for
inequality descriptions, and bounded enumeration for semigroup membership.
"""

from __future__ import annotations

import itertools
import weakref
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from toriq import cones, intlinalg
from toriq.cones import Cone, image_cone
from toriq.fans import Fan, FanSystem, GluingViolation, OrbitIndex
from toriq.intlinalg import (
    IntMatrix,
    Sublattice,
    apply_exponent_matrix,
    bezout_2x2,
    dot,
    is_zero_vec,
    kernel_saturated,
    primitive,
    rank_of_rows,
    reduce_mod_span,
    smith_normal_form,
    vec,
    vec_neg,
)
from toriq.morphisms import IncompatibleMorphism, fiber_pieces, orbit_limit_targets
from toriq.points import OrbitPoint, TorusElement
from toriq.separation import IdentClass, IdentificationPartition, MergeEvent, _test_vectors


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 when there are none or all vanish)."""
    g = 0
    rows = range(m.nrows)
    cols = range(m.ncols)
    for rsel in itertools.combinations(rows, k):
        for csel in itertools.combinations(cols, k):
            sub = IntMatrix([[m.rows[i][j] for j in csel] for i in rsel], k)
            g = gcd(g, det(sub))
    return g


def two_list_hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form (H, U) with U @ m == H, eliminating on
    H and applying each row operation again to a separate transform U."""
    r, c = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    piv_row = 0
    pivots: list[tuple[int, int]] = []
    for col in range(c):
        if piv_row >= r:
            break
        sel = next((i for i in range(piv_row, r) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[piv_row], a[sel] = a[sel], a[piv_row]
        u[piv_row], u[sel] = u[sel], u[piv_row]
        for i in range(piv_row + 1, r):
            if a[i][col] == 0:
                continue
            g, x, y, p, q = bezout_2x2(a[piv_row][col], a[i][col])
            a[piv_row], a[i] = (
                [x * s + y * t for s, t in zip(a[piv_row], a[i])],
                [-q * s + p * t for s, t in zip(a[piv_row], a[i])],
            )
            u[piv_row], u[i] = (
                [x * s + y * t for s, t in zip(u[piv_row], u[i])],
                [-q * s + p * t for s, t in zip(u[piv_row], u[i])],
            )
        if a[piv_row][col] < 0:
            a[piv_row] = [-x for x in a[piv_row]]
            u[piv_row] = [-x for x in u[piv_row]]
        pivots.append((piv_row, col))
        piv_row += 1
    for prow, pcol in pivots:
        p = a[prow][pcol]
        for i in range(prow):
            q = a[i][pcol] // p
            if q != 0:
                a[i] = [s - q * t for s, t in zip(a[i], a[prow])]
                u[i] = [s - q * t for s, t in zip(u[i], u[prow])]
    return IntMatrix(a, c), IntMatrix(u, r)


def rational_nullspace(rows: list[tuple[int, ...]], ncols: int) -> list[tuple[int, ...]]:
    """Kernel basis over Q by plain Gaussian elimination, cleared to integers."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -work[i][c]
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in v]
        g = 0
        for x in ints:
            g = gcd(g, x)
        basis.append(tuple(x // g for x in ints) if g > 1 else tuple(ints))
    return basis


def in_rational_span(v: tuple[int, ...], rows) -> bool:
    """Is v in the Q-span of the rows?  That span is the orthogonal
    complement of the rows' rational nullspace."""
    return all(dot(v, k) == 0 for k in rational_nullspace(list(rows), len(v)))


def contains_rational(lattice: Sublattice, v: tuple[int, ...]) -> bool:
    """Membership of v in the Q-span of the lattice."""
    return in_rational_span(v, lattice.basis)


def is_saturated(lattice: Sublattice) -> bool:
    """A lattice of rank r is saturated iff its r x r minors have gcd 1."""
    return lattice.rank == 0 or minor_gcd(lattice.matrix(), lattice.rank) == 1


# ---------------------------------------------------------------------------
# Fourier-Motzkin


def fm_inequalities(generators: list[tuple[int, ...]], rank: int) -> list[tuple[int, ...]]:
    """Inequality description of cone(generators) by Fourier-Motzkin
    elimination of the coefficient variables from
    { (lam, x) : x = sum lam_i g_i, lam >= 0 }."""
    k = len(generators)
    n = rank
    total = k + n
    system: list[tuple[int, ...]] = []
    for i in range(k):
        row = [0] * total
        row[i] = 1
        system.append(tuple(row))
    # equalities x_j - sum lam_i g_i[j] = 0 as inequality pairs
    for j in range(n):
        row = [0] * total
        for i in range(k):
            row[i] = -generators[i][j]
        row[k + j] = 1
        system.append(tuple(row))
        system.append(tuple(-x for x in row))
    for var in range(k):
        system = _fm_eliminate(system, var)
    out = []
    for row in system:
        trimmed = row[k:]
        if any(x != 0 for x in trimmed):
            g = 0
            for x in trimmed:
                g = gcd(g, x)
            out.append(tuple(x // g for x in trimmed) if g > 1 else trimmed)
    return sorted(set(out))


def _fm_eliminate(system: list[tuple[int, ...]], var: int) -> list[tuple[int, ...]]:
    zero = [r for r in system if r[var] == 0]
    pos = [r for r in system if r[var] > 0]
    neg = [r for r in system if r[var] < 0]
    combos = []
    for p in pos:
        for q in neg:
            combo = tuple(p[var] * b - q[var] * a for a, b in zip(p, q))
            g = 0
            for x in combo:
                g = gcd(g, x)
            if g > 1:
                combo = tuple(x // g for x in combo)
            combos.append(combo)
    return sorted(set(zero + combos))


def fm_contains(ineqs: list[tuple[int, ...]], v: tuple[int, ...]) -> bool:
    return all(sum(a * b for a, b in zip(row, v)) >= 0 for row in ineqs)


# ---------------------------------------------------------------------------
# brute-force helpers


def box(rank: int, bound: int):
    return itertools.product(range(-bound, bound + 1), repeat=rank)


def brute_in_cone(generators: list[tuple[int, ...]], v: tuple[int, ...], rank: int) -> bool:
    """Membership via Fourier-Motzkin (independent of the cone engine)."""
    return fm_contains(fm_inequalities(generators, rank), v)


def decomposes_in_monoid(
    point: tuple[int, ...], gens: list[tuple[int, ...]], bound: int
) -> bool:
    """Exhaustive search for a nonnegative integer combination of gens
    equal to point, restricted to intermediate values in a safe box."""
    limit = bound + sum(max(abs(x) for x in g) if g else 0 for g in gens)
    seen = set()
    stack = [point]
    while stack:
        cur = stack.pop()
        if all(x == 0 for x in cur):
            return True
        if cur in seen:
            continue
        seen.add(cur)
        for g in gens:
            nxt = tuple(a - b for a, b in zip(cur, g))
            if all(abs(x) <= limit for x in nxt) and nxt not in seen:
                stack.append(nxt)
    return False


# ---------------------------------------------------------------------------
# faces, face tests, gluing checks and limits built with description passes


@contextmanager
def unmemoised():
    """Run with empty lattice and cone memos, restored afterwards.  A cone
    built inside is computed, never swapped for an equal live cone of the
    code under test, so comparing its facet normals and ``span_perp`` with
    that cone's compares two computations; it is not found from outside."""
    saved = cones._CONES, intlinalg._PERPS
    cones._CONES, intlinalg._PERPS = weakref.WeakValueDictionary(), weakref.WeakValueDictionary()
    try:
        yield
    finally:
        cones._CONES, intlinalg._PERPS = saved


@unmemoised()
def brute_faces(c: Cone) -> tuple[Cone, ...]:
    """Faces of a pointed cone: one cone built per subset of its facets."""
    found = {}
    normals = c.facet_normals
    for mask in range(1 << len(normals)):
        chosen = [u for i, u in enumerate(normals) if mask >> i & 1]
        rays = [r for r in c.rays if all(dot(u, r) == 0 for u in chosen)]
        face = Cone.from_generators(rays, c.ambient)
        found[face.key()] = face
    return tuple(sorted(found.values(), key=lambda f: (f.dim, f.rays)))


@unmemoised()
def dd_face_from_tight(c: Cone, tight) -> Cone:
    """The face of c on which the given facet normals vanish, built from its
    generators (rays and +/- lineality basis) by two description passes."""
    gens = [r for r in c.rays if all(dot(u, r) == 0 for u in tight)]
    for b in c.lineality.basis:
        gens += [b, tuple(-x for x in b)]
    return Cone.from_generators(gens, c.ambient)


def from_inequalities(inequalities, equalities, rank: int) -> Cone:
    """The cone {x : <a,x> >= 0, <b,x> = 0} in canonical form: one description
    pass to its rays and lines, then ``Cone.from_generators``."""
    ineqs = sorted({primitive(vec(a)) for a in inequalities if not is_zero_vec(vec(a))})
    rays, lines = cones._double_description(rank, ineqs, [vec(b) for b in equalities])
    return Cone.from_generators(rays + lines + [vec_neg(l) for l in lines], rank)


@unmemoised()
def dd_face_from_values(chart: Cone, nonzero) -> Cone:
    """The face of a chart on which the given characters of its dual
    semigroup vanish: the chart meet their perp, by description passes."""
    return from_inequalities(
        chart.facet_normals, list(chart.span_perp.basis) + list(nonzero), chart.ambient
    )


@unmemoised()
def dd_intersect(a: Cone, b: Cone) -> Cone:
    """The intersection of two cones from both cones' facet normals and
    ``span_perp`` bases, by three description passes."""
    return from_inequalities(
        a.facet_normals + b.facet_normals, a.span_perp.basis + b.span_perp.basis, a.ambient
    )


def dd_is_face_of(a: Cone, b: Cone) -> bool:
    """Is a a face of b?  a must lie in b and equal the face of b cut out by
    the normals of b that vanish on a, built by ``dd_face_from_tight``."""
    if not b.contains_cone(a):
        return False
    tight = [u for u in b.facet_normals if all(dot(u, g) == 0 for g in a.generators())]
    return dd_face_from_tight(b, tight) == a


def dd_transitivity_failure(charts, gluing) -> str | None:
    """The first ordered chart triple (i, j, k) whose gluing cones fail
    g_ij meet g_jk inside g_ik, with one ``intersect`` per triple, as the
    ``GluingViolation`` message; None when every triple passes.  Missing
    pairs are glued along the zero cone."""
    zero = Cone.zero(charts[0].ambient)

    def g(i, j):
        return gluing.get((min(i, j), max(i, j)), zero)

    for i, j, k in itertools.permutations(range(len(charts)), 3):
        if not g(i, k).contains_cone(g(i, j).intersect(g(j, k))):
            return f"gluing not transitive across charts {i}, {j}, {k}"
    return None


def dd_limit_targets(space, orbit: OrbitIndex, vectors) -> list[tuple[OrbitIndex, ...]]:
    """Limit orbits of lambda_v on an orbit, per vector v, from the dual
    face sigma^vee meet gamma^perp built as a cone in every realizing chart
    (once per chart, for all the vectors)."""
    perp = from_inequalities([], orbit.cone.rays, space.rank)
    dual_faces = [(i, space.charts[i].dual().intersect(perp)) for i, _ in space.realizations(orbit)]
    out = []
    for v in vectors:
        found = set()
        for chart_id, dual_face in dual_faces:
            if any(dot(l, v) != 0 for l in dual_face.lineality.basis):
                continue
            if any(dot(r, v) < 0 for r in dual_face.rays):
                continue
            tight = [r for r in dual_face.rays if dot(r, v) == 0]
            rays = [r for r in space.charts[chart_id].rays if all(dot(u, r) == 0 for u in tight)]
            found.add(space.orbit(chart_id, Cone.from_generators(rays, space.rank)))
        out.append(tuple(sorted(found, key=OrbitIndex.sort_key)))
    return out


# ---------------------------------------------------------------------------
# orbit maps and test vectors by scanning faces


def scan_orbit_of_cone(sys, cone: Cone) -> OrbitIndex:
    """The orbit whose cone equals the given one, by scanning every
    realization of every orbit."""
    hits = {o for o in sys.orbits() for _i, f in sys.realizations(o) if f == cone}
    if not hits:
        raise ValueError("no orbit with the given cone")
    if len(hits) > 1:
        raise ValueError("several distinct orbits share this cone; specify the chart")
    return hits.pop()


def _minimal_containing(cones, sub: Cone) -> Cone:
    return min((c for c in cones if c.contains_cone(sub)), key=lambda c: (c.dim, c.rays))


def scan_minimal_cone_containing(fan: Fan, target) -> Cone | None:
    """The smallest cone of the fan containing a cone or a vector, by testing
    every fan cone; None when none does."""
    if isinstance(target, Cone):
        hosts = [c for c in fan.all_cones if c.contains_cone(target)]
    else:
        hosts = [c for c in fan.all_cones if c.contains_point(target)]
    return min(hosts, key=lambda c: (c.dim, c.rays), default=None)


def scan_orbit_assignment(matrix: IntMatrix, source, target) -> dict:
    """The orbit assignment of a toric morphism from image cones: each source
    face's image is built as a cone, and the smallest target cone containing
    it is found by testing every fan cone (a ``Fan`` target) or every face of
    the assigned chart (a chart system) with ``contains_cone``.  Raises
    ``IncompatibleMorphism`` with the morphism's messages."""
    assignment = []
    for chart in source.charts:
        img = image_cone(matrix, chart)
        pick = next((j for j, tc in enumerate(target.charts) if tc.contains_cone(img)), None)
        if pick is None:
            raise IncompatibleMorphism(chart)
        assignment.append(pick)
    out = {}
    for orbit in source.orbits():
        found = set()
        for i, face in source.realizations(orbit):
            img = image_cone(matrix, face)
            if isinstance(target, Fan):
                found.add(scan_orbit_of_cone(target, _minimal_containing(target.all_cones, img)))
            else:
                j = assignment[i]
                found.add(target.orbit(j, _minimal_containing(target.charts[j].faces(), img)))
        if len(found) > 1:
            raise IncompatibleMorphism(
                orbit.cone, "chart realizations assign the orbit to different targets"
            )
        out[orbit] = found.pop()
    return out


def all_meets_test_vectors(system) -> tuple[tuple[int, ...], ...]:
    """Primitive relative-interior points of every face of every chart and
    of every pairwise chart intersection."""
    cones = [f for chart in system.charts for f in chart.faces()]
    for i, j in itertools.combinations(range(len(system.charts)), 2):
        cones += system.charts[i].intersect(system.charts[j]).faces()
    return tuple(sorted({primitive(c.relint_point()) for c in cones if c.dim > 0}))


# ---------------------------------------------------------------------------
# the identification fixpoint keyed by OrbitIndex objects


def dict_forced_identifications(system):
    """The closure-rule fixpoint on dicts keyed by ``OrbitIndex``: limits
    from one ``orbit_limit_targets`` call per (orbit, v), classes sorted by
    ``OrbitIndex.sort_key``, and the skip test (one target class whose
    lattice contains the source class's lattice) rerun at every step."""
    orbits = system.orbits()
    vectors = _test_vectors(system)
    limits = {(o, v): orbit_limit_targets(system, o, v) for o in orbits for v in vectors}
    root_of = {o: o for o in orbits}
    members = {o: [o] for o in orbits}
    lattice = {o: o.cone.span_lattice for o in orbits}
    events = []
    changed = True
    while changed:
        changed = False
        for root in sorted(members, key=OrbitIndex.sort_key):
            for v in vectors:
                root = root_of[root]
                found = {g for o in members[root] for g in limits[o, v]}
                limit_orbits = tuple(sorted(found, key=OrbitIndex.sort_key))
                if not limit_orbits:
                    continue
                targets = sorted({root_of[g] for g in limit_orbits}, key=OrbitIndex.sort_key)
                new_root = targets[0]
                k_class = lattice[root]
                if len(targets) == 1 and all(map(lattice[new_root].contains, k_class.basis)):
                    continue
                merged = k_class
                for r in targets:
                    merged = merged + lattice[r]
                merged = merged.saturate()
                source = tuple(members[root])
                for r in targets[1:]:
                    for o in members[r]:
                        root_of[o] = new_root
                    members[new_root] += members.pop(r)
                members[new_root].sort(key=OrbitIndex.sort_key)
                lattice[new_root] = merged
                events.append(MergeEvent(v, source, limit_orbits))
                changed = True
    classes = sorted(
        (IdentClass(tuple(ms), lattice[root]) for root, ms in members.items()),
        key=lambda c: c.orbits[0].sort_key(),
    )
    return IdentificationPartition(system, tuple(classes), tuple(events))


# ---------------------------------------------------------------------------
# the fiber comparison through fiber pieces and representative points


def quotient_saturated_preimage(m: IntMatrix, target: Sublattice) -> Sublattice:
    """{v : m @ v in the Q-span of target} as the saturated kernel of the
    quotient projection by the saturated target, composed with m."""
    sat = target.saturate()
    if sat.rank == target.ambient:
        return Sublattice.full(m.ncols)
    return kernel_saturated(sat.quotient_matrix() @ m)


def piece_partition_matches_fibers(part, kappa):
    """The classes-versus-fibers comparison that builds the fiber pieces,
    with their representative points, over each target orbit's
    distinguished point."""
    def tag(o):
        return f"(chart {o.chart}, rays {list(o.cone.rays)})"

    if FanSystem.key(kappa.source) != FanSystem.key(part.system):
        raise ValueError("partition and morphism have different sources")
    report = []
    ok = True
    class_by_orbits = {cls.orbits: cls for cls in part.classes}
    for cls in part.classes:
        label = "class " + "+".join(tag(o) for o in cls.orbits)
        targets = {kappa.orbit_assignment[o] for o in cls.orbits}
        if len(targets) != 1:
            ok = False
            report.append((label, False, "members map to several target orbits"))
            continue
        gamma = next(iter(targets))
        expected = quotient_saturated_preimage(kappa.matrix, gamma.cone.span_lattice)
        good = cls.subtorus == expected
        ok = ok and good
        report.append(
            (label, good,
             f"subtorus {'matches' if good else 'differs from'} fiber lattice over {tag(gamma)}")
        )
    fibers = {}
    for orbit, target in kappa.orbit_assignment.items():
        fibers.setdefault(target, set()).add(orbit)
    for target, sources in sorted(fibers.items(), key=lambda kv: kv[0].sort_key()):
        label = f"fiber over {tag(target)}"
        y = OrbitPoint.make(kappa.target, target, TorusElement.identity(kappa.matrix.nrows))
        pieces = fiber_pieces(kappa, y)
        piece_orbits = tuple(sorted((p.orbit for p in pieces), key=OrbitIndex.sort_key))
        cls = class_by_orbits.get(piece_orbits)
        if cls is None or set(piece_orbits) != sources:
            ok = False
            report.append((label, False, "fiber pieces do not form one class"))
            continue
        good = all(p.subtorus == cls.subtorus for p in pieces)
        ok = ok and good
        report.append(
            (label, good,
             "piece subtori match the class" if good else "piece subtori differ from the class")
        )
    return ok, report


# ---------------------------------------------------------------------------
# the geometry kernel's former routes: description passes with the rank
# adjacency test, two passes per cone, meets from both cones' facet normals,
# and kernels read off a Smith normal form


def rank_test_double_description(rank: int, ineqs, eqs) -> tuple[list, list]:
    """Rays and lines of {x : <a,x> >= 0 for a in ineqs, <b,x> = 0 for b in
    eqs}, inserted as ``cones._double_description`` inserts them into the
    whole space, with the algebraic adjacency test: a positive and a
    negative ray are adjacent iff the processed rows tight at both have rank
    two less than all processed rows."""
    rays: list = []
    lines: list = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    processed: list = []

    def insert(a) -> None:
        nonlocal rays, lines
        if is_zero_vec(a):
            return
        line_values = [dot(a, l) for l in lines]
        split = next((i for i, v in enumerate(line_values) if v != 0), None)
        if split is not None:
            l0, al0 = lines.pop(split), line_values.pop(split)
            if al0 < 0:
                l0, al0 = vec_neg(l0), -al0
            lines = [cones._combine(al0, l, v, l0) for l, v in zip(lines, line_values)]
            rays = [cones._combine(al0, r, dot(a, r), l0) for r in rays] + [l0]
        else:
            values = [dot(a, r) for r in rays]
            if any(v < 0 for v in values):
                rank_proc = rank_of_rows(processed)
                pos = [(r, v) for r, v in zip(rays, values) if v > 0]
                neg = [(r, v) for r, v in zip(rays, values) if v < 0]
                new_rays = [r for r, _ in pos] + [r for r, v in zip(rays, values) if v == 0]
                seen = set(new_rays)
                tight = {r: [p for p in processed if dot(p, r) == 0] for r, _ in pos + neg}
                for rp, vp in pos:
                    for rn, vn in neg:
                        common = [p for p in tight[rp] if dot(p, rn) == 0]
                        if rank_of_rows(common) == rank_proc - 2:
                            c = cones._combine(vp, rn, vn, rp)
                            if c not in seen:
                                seen.add(c)
                                new_rays.append(c)
                rays = new_rays
        processed.append(a)

    for b in eqs:
        if not is_zero_vec(b):
            insert(tuple(b))
            insert(vec_neg(b))
    for a in ineqs:
        insert(tuple(a))
    return rays, lines


def snf_kernel_saturated(m: IntMatrix) -> Sublattice:
    """The saturated kernel {v : m @ v == 0} read off U @ m @ V == D: the
    columns of V at the zero diagonal entries of D."""
    d, _, v = smith_normal_form(m)
    cols = [v.column(j) for j in range(v.ncols) if j >= d.nrows or d.rows[j][j] == 0]
    return Sublattice.from_rows(v.ncols, cols)


def _snf_saturate(rank: int, rows) -> Sublattice:
    """The saturated lattice of the rows' Q-span, as a perp of a perp."""
    lattice = Sublattice.from_rows(rank, rows)
    if not lattice.basis:
        return lattice
    perp = snf_kernel_saturated(lattice.matrix())
    if not perp.basis:
        return Sublattice.full(rank)
    return snf_kernel_saturated(perp.matrix())


def _reduced_rays(rays, lineality: Sublattice) -> tuple:
    """Sorted distinct nonzero ``reduce_mod_span`` images, one echelon form
    per ray."""
    reduced = {reduce_mod_span(r, lineality.basis) for r in rays}
    return tuple(sorted(r for r in reduced if not is_zero_vec(r)))


def two_pass_cone(generators, rank: int) -> Cone:
    """cone(generators) in canonical form by two rank-test description
    passes, generators to facet normals and facet normals back to rays, with
    lattices saturated through Smith normal forms.  The cone is built
    directly, so no memo answers for it or holds it."""
    gens = sorted({primitive(vec(g)) for g in generators if not is_zero_vec(vec(g))})
    rays_d, lines_d = rank_test_double_description(rank, gens, [])
    dual_lin = _snf_saturate(rank, lines_d)
    facets = _reduced_rays(rays_d, dual_lin)
    rays_p, lines_p = rank_test_double_description(rank, facets, dual_lin.basis)
    lin = _snf_saturate(rank, lines_p)
    return Cone(rank, _reduced_rays(rays_p, lin), lin, facets, dual_lin)


def from_scratch_meet(a: Cone, b: Cone) -> Cone:
    """a meet b by one rank-test description pass over the whole space on
    both cones' sorted facet normals, with both orthogonal lattices as
    equalities, canonicalised by ``two_pass_cone``."""
    ineqs = sorted(set(a.facet_normals + b.facet_normals))
    eqs = a.span_perp.basis + b.span_perp.basis
    rays, lines = rank_test_double_description(a.ambient, ineqs, eqs)
    return two_pass_cone(rays + [x for l in lines for x in (l, vec_neg(l))], a.ambient)


def canonical_fields(c: Cone) -> tuple:
    """The four canonical fields of a cone."""
    return c.rays, c.lineality, c.facet_normals, c.span_perp


def cyclic_cone_generators(k: int) -> list:
    """The generators (1, t, ..., t^5), t = 1..k, of the cone over the cyclic
    5-polytope with k vertices: k rays and 2 * C(k - 3, 2) facets."""
    return [tuple(t**i for i in range(6)) for t in range(1, k + 1)]


# ---------------------------------------------------------------------------
# queries on library values that nothing in the library asks


def class_of(part: IdentificationPartition, orbit: OrbitIndex) -> IdentClass:
    """The class of a partition that holds the orbit."""
    for cls in part.classes:
        if orbit in cls.orbits:
            return cls
    raise KeyError(f"orbit {orbit!r} is not part of the partition")


def same_class(part: IdentificationPartition, a: OrbitIndex, b: OrbitIndex) -> bool:
    return class_of(part, a) is class_of(part, b)


def satisfied_by(sol, t) -> bool:
    """Does the torus point t solve the system of a ``NoRationalPoint``?"""
    return apply_exponent_matrix(sol.exponents, t) == sol.target


def contains_coset(coset, t: TorusElement) -> bool:
    """Does the torus element t solve the system of a ``ParametricCoset``?"""
    return apply_exponent_matrix(coset.exponents, t.coords) == coset.target


def one_parameter(v, s) -> TorusElement:
    """The value lambda_v(s) of the one-parameter subgroup with exponent v."""
    s = Fraction(s)
    if s == 0:
        raise ValueError("parameter must be nonzero")
    return TorusElement(tuple(s**e for e in vec(v)))


def value_map(p) -> dict:
    """A ``ToricPoint``'s values as a dict from character to value."""
    return dict(p.values)


# ---------------------------------------------------------------------------
# random generators


def random_cone(rng, max_rank: int = 4, entry_bound: int = 5) -> Cone:
    rank = rng.randint(1, max_rank)
    k = rng.randint(0, max_rank + 1)
    gens = [
        tuple(rng.randint(-entry_bound, entry_bound) for _ in range(rank))
        for _ in range(k)
    ]
    return Cone.from_generators(gens, rank)


def random_unimodular(rng, n: int) -> IntMatrix:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.randint(-2, 2)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 2:
            m[i] = [-a for a in m[i]]
    return IntMatrix(m, n)


_FAN_PATTERNS = {
    1: [
        [[(1,)]],
        [[(1,)], [(-1,)]],
    ],
    2: [
        [[(1, 0), (0, 1)]],
        [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]],
        [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)]],
        [[(1, 0), (1, 2)], [(1, 2), (-1, 1)]],
    ],
    3: [
        [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]],
        [[(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, -1)]],
        [[(1, 0, 0), (0, 1, 0)], [(0, 0, 1)]],
        [[(1, 0, 0), (0, 1, 0), (1, 1, 2)]],
    ],
}


def random_fan(rng, max_rank: int = 3) -> Fan:
    rank = rng.randint(1, max_rank)
    pattern = rng.choice(_FAN_PATTERNS[rank])
    u = random_unimodular(rng, rank)
    cones = [Cone.from_generators([u.apply(g) for g in gens], rank) for gens in pattern]
    return Fan(cones)


def projective_space_charts(n: int) -> list[Cone]:
    """The n + 1 maximal cones of the fan of P^n, over e_1, ..., e_n and
    -(e_1 + ... + e_n)."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return [
        Cone.from_generators([r for k, r in enumerate(rays) if k != skip], n)
        for skip in range(n + 1)
    ]


def random_torus_glued_systems(rng, count):
    """Systems of 2-3 random pointed charts glued along the torus only,
    whose chart meets need not be faces of either chart."""
    systems = []
    while len(systems) < count:
        n = rng.randint(2, 3)
        charts = [
            Cone.from_generators(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n + 1))], n
            )
            for _ in range(rng.randint(2, 3))
        ]
        if all(c.is_pointed for c in charts):
            systems.append(FanSystem(charts))
    return systems


def partial_p3_gluings():
    """Every transitive gluing of the P^3 charts along the full
    intersections of 1-3 chart pairs."""
    charts = projective_space_charts(3)
    pairs = list(itertools.combinations(range(4), 2))
    systems = []
    for k in (1, 2, 3):
        for chosen in itertools.combinations(pairs, k):
            gluing = {(i, j): charts[i].intersect(charts[j]) for i, j in chosen}
            try:
                systems.append(FanSystem(charts, gluing))
            except GluingViolation:
                pass
    return systems


def random_rational(rng, bound: int = 9) -> Fraction:
    sign = rng.choice([1, -1])
    return Fraction(sign * rng.randint(1, bound), rng.randint(1, bound))


def random_torus(rng, rank: int, bound: int = 9):
    from toriq.points import TorusElement

    return TorusElement(tuple(random_rational(rng, bound) for _ in range(rank)))


def random_point(rng, space):
    """A random rational point: random orbit, random coset."""
    from toriq.points import OrbitPoint

    orbit = rng.choice(list(space.orbits()))
    return OrbitPoint.make(space, orbit, random_torus(rng, space.rank))
