"""The four seeded workloads of the toriq benchmark.

Every generator takes the seed (through a ``random.Random``), lives here and
imports nothing from the repository's tests; the program only receives the
generated inputs.  Each workload yields rounds of operations.  An operation
is a callable that does the timed work and a check that validates its
result outside the clock.

Operations call the library through module attributes (``ts.forced_...``)
at call time, so the tracer's replacements are seen.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from toriq import cli as tcli
from toriq import cones as tc
from toriq import fans as tf
from toriq import morphisms as tm
from toriq import points as tp
from toriq import scene as tsc
from toriq import separation as ts

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# shared generators


def signed_permutation(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A seeded element of the hyperoctahedral group, as integer rows; it
    keeps coordinates in {-1, 0, 1}, so seeds change the input but not the
    size of the numbers the kernel works with."""
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(
        tuple(rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)) for i in range(n)
    )


def apply(mat, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in mat)


def unit(i: int, n: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def projective_space_cones(n: int) -> list[list[tuple[int, ...]]]:
    """Maximal cones of the fan of P^n, as raw generator lists."""
    rays = [unit(i, n) for i in range(n)] + [tuple(-1 for _ in range(n))]
    return [[r for k, r in enumerate(rays) if k != skip] for skip in range(n + 1)]


def p1_squared_cones() -> list[list[tuple[int, ...]]]:
    return [[(sx, 0), (0, sy)] for sx in (1, -1) for sy in (1, -1)]


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))


# ---------------------------------------------------------------------------
# quotient: the paper's construction end to end


@dataclass(frozen=True)
class QuotientInput:
    label: str
    rank: int
    charts: tuple
    gluing: tuple  # ((i, j), raw generators of the gluing cone)
    fan: tuple
    classes: int  # expected class count


@dataclass(frozen=True)
class SceneQuotientInput:
    label: str
    path: str
    system: str
    fan: str
    classes: int


def transformed(label, mat, charts, gluing, fan, classes) -> QuotientInput:
    def tr(cones):
        return tuple(tuple(apply(mat, g) for g in c) for c in cones)

    return QuotientInput(
        label, len(mat), tr(charts),
        tuple((ij, tuple(apply(mat, g) for g in gens)) for ij, gens in gluing),
        tr(fan), classes,
    )


def full_gluing(charts, pairs):
    """Glue along full intersections: for a simplicial fan this is the cone
    on the common rays."""
    return tuple(((i, j), tuple(r for r in charts[i] if r in charts[j])) for i, j in pairs)


def partial_p3_gluings(rng: random.Random) -> dict[int, list[tuple]]:
    """Seeded P^3 gluings along full intersections of some chart pairs.

    Every subset of 1, 2 or 3 chart pairs is validated, in a seeded order, by
    constructing the FanSystem only (gluings must be transitive); the valid
    ones are returned by size.  Validating all of them, rather than drawing
    until enough pass, keeps the set-up work the same on every seed.
    """
    charts = projective_space_cones(3)
    pairs = list(itertools.combinations(range(4), 2))
    candidates = [list(c) for k in (1, 2, 3) for c in itertools.combinations(pairs, k)]
    rng.shuffle(candidates)
    valid: dict[int, list[tuple]] = {1: [], 2: [], 3: []}
    for chosen in candidates:
        gluing = full_gluing(charts, chosen)
        cones = [tc.Cone.from_generators(c, 3) for c in charts]
        glue = {ij: tc.Cone.from_generators(g, 3) for ij, g in gluing}
        try:
            tf.FanSystem(cones, glue)
        except tf.GluingViolation:
            continue
        valid[len(chosen)].append(gluing)
    return valid


def run_quotient(inp) -> tuple[bool, int]:
    if isinstance(inp, SceneQuotientInput):
        scene = tsc.load_scene(str(ROOT / inp.path))
        system = scene.systems[inp.system]
        fan = scene.fans[inp.fan]
    else:
        n = inp.rank
        charts = [tc.Cone.from_generators(g, n) for g in inp.charts]
        gluing = {ij: tc.Cone.from_generators(g, n) for ij, g in inp.gluing}
        system = tf.FanSystem(charts, gluing)
        fan = tf.Fan([tc.Cone.from_generators(g, n) for g in inp.fan])
    kappa = ts.comparison_morphism(system, fan)
    part = ts.forced_identifications(system)
    ok, _report = ts.partition_matches_fibers(part, kappa)
    return ok, len(part.classes)


class Quotient:
    """Build a non-separated system from raw generators, then check that the
    forced identifications are the fibers of the comparison morphism."""

    name = "quotient"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.min_ops = 21
        self._round0: list[Op] = []

    def setup(self) -> None:
        # validation of the partial gluings is part of input generation
        self._partials = partial_p3_gluings(random.Random(f"{self.seed}/partial"))
        self._round0 = self.round(0)

    def inputs(self, r: int) -> list:
        rng = random.Random(f"{self.seed}/quotient/{r}")
        out: list = []
        p2, p3, p4 = (projective_space_cones(n) for n in (2, 3, 4))
        m2, m3, m4 = (signed_permutation(rng, n) for n in (2, 3, 4))
        all2, all3, all4 = (list(itertools.combinations(range(n + 1), 2)) for n in (2, 3, 4))
        out.append(transformed("torus-P2", m2, p2, (), p2, 7))
        out.append(transformed("fan-P2", m2, p2, full_gluing(p2, all2), p2, 7))
        out.append(transformed("p1xp1-torus", signed_permutation(rng, 2),
                               p1_squared_cones(), (), p1_squared_cones(), 9))
        out.append(SceneQuotientInput("example", "scenes/example.json", "Ytilde", "C3", 6))
        out.append(SceneQuotientInput("doubled-line", "scenes/punctured-plane.json",
                                      "DoubledLine", "Line", 2))
        if not self.smoke:
            out.append(transformed("torus-P3", m3, p3, (), p3, 15))
            for size, gluings in sorted(self._partials.items()):
                gluing = rng.choice(gluings)
                out.append(transformed(f"partial-P3-{size}pairs", m3, p3, gluing, p3, 15))
            out.append(transformed("fan-P3", m3, p3, full_gluing(p3, all3), p3, 15))
            out.append(transformed("fan-P4", m4, p4, full_gluing(p4, all4), p4, 31))
        rng.shuffle(out)
        return out

    def round(self, r: int) -> list[Op]:
        if r == 0 and self._round0:
            return self._round0
        ops = []
        for inp in self.inputs(r):
            expected = inp.classes
            ops.append(Op(
                inp.label,
                lambda inp=inp: run_quotient(inp),
                lambda res, expected=expected: res[0] is True and res[1] == expected,
            ))
        return ops

    def sizes(self) -> dict:
        return {
            "ops_per_round": len(self._round0),
            "inputs": sorted(op.kind for op in self._round0),
            "valid_partial_gluings": {k: len(v) for k, v in self._partials.items()},
        }


# ---------------------------------------------------------------------------
# queries: reads against structures that already exist


@dataclass(frozen=True)
class Query:
    kind: str
    morphism: str
    orbit: int
    coords: tuple
    v: tuple


class Queries:
    """Mixed fiber, limit, apply and chart round-trip queries at random
    rational translations, against prebuilt morphisms with warm caches."""

    name = "queries"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.per_pair = 4 if smoke else 167  # 12 pairs: 2,004 queries
        self.min_ops = 21

    def setup(self) -> None:
        rng = random.Random(f"{self.seed}/queries")
        p3 = projective_space_cones(3)
        mat = signed_permutation(rng, 3)
        raw = [[apply(mat, g) for g in c] for c in p3]
        system = tf.FanSystem([tc.Cone.from_generators(g, 3) for g in raw], {})
        fan = tf.Fan([tc.Cone.from_generators(g, 3) for g in raw])
        scene = tsc.load_scene(str(ROOT / "scenes/example.json"))
        self.morphisms = {
            "torus-P3": ts.comparison_morphism(system, fan),
            "pi": scene.morphisms["pi"],
            "kappa": scene.morphisms["kappa"],
        }
        # every (kind, morphism) pair gets the same number of queries, spread
        # evenly over the orbits, so the mix and its median do not move with
        # the seed; the seed picks translations, vectors and the order
        self.queries = []
        for kind in ("fiber", "limits", "apply", "toric"):
            for name, m in sorted(self.morphisms.items()):
                space = tf.system_view(m.target if kind == "fiber" else m.source)
                first = rng.randrange(len(space.orbits()))
                for j in range(self.per_pair):
                    self.queries.append(Query(
                        kind, name, (first + j) % len(space.orbits()),
                        tuple(random_fraction(rng) for _ in range(space.rank)),
                        tuple(rng.randint(-2, 2) for _ in range(space.rank)),
                    ))
        rng.shuffle(self.queries)
        self._ops = [self._op(q) for q in self.queries]
        # warm-up pass: fills the per-object caches the timed stream reads
        for op in self._ops:
            op.run()

    def _point(self, q: Query, target: bool):
        m = self.morphisms[q.morphism]
        space = m.target if target else m.source
        orbit = tf.system_view(space).orbits()[q.orbit]
        return tp.OrbitPoint.make(space, orbit, tp.TorusElement(q.coords))

    def _op(self, q: Query) -> Op:
        m = self.morphisms[q.morphism]
        if q.kind == "fiber":
            def run():
                y = self._point(q, True)
                return y, tm.fiber_pieces(m, y)

            def check(res):
                y, pieces = res
                return all(
                    m.apply(p.representative) == y
                    for p in pieces
                    if isinstance(p.representative, tp.OrbitPoint)
                )
        elif q.kind == "limits":
            def run():
                p = self._point(q, False)
                return p, tm.one_param_limits(m.source, q.v, p)

            def check(res):
                p, limits = res
                orbits = tm.orbit_limit_targets(m.source, p.orbit, q.v)
                return len(limits) == len(orbits) and all(x.orbit in orbits for x in limits)
        elif q.kind == "apply":
            def run():
                p = self._point(q, False)
                return p, m.apply(p)

            def check(res):
                p, y = res
                return y.orbit == m.orbit_assignment[p.orbit] and any(
                    piece.orbit == p.orbit and piece.contains(p)
                    for piece in tm.fiber_pieces(m, y)
                    if isinstance(piece.representative, tp.OrbitPoint)
                )
        else:
            def run():
                p = self._point(q, False)
                chart_point = p.as_toric()
                values = {u: chart_point.evaluate(u) for u, _ in chart_point.values}
                return chart_point, tp.ToricPoint.from_values(chart_point.chart, values)

            def check(res):
                a, b = res
                return a == b and a.face == b.face and a.coset == b.coset
        return Op(f"{q.kind}-{q.morphism}", run, check)

    def round(self, r: int) -> list[Op]:
        return self._ops

    def sizes(self) -> dict:
        kinds: dict[str, int] = {}
        for q in self.queries:
            kinds[q.kind] = kinds.get(q.kind, 0) + 1
        return {"queries_per_round": len(self.queries), "kinds": kinds,
                "morphisms": sorted(self.morphisms)}


# ---------------------------------------------------------------------------
# cones: the geometry kernel on inputs that share no work


# faces() runs two DD passes per subset of facets, so its cost doubles with
# every facet; the cap bounds the length of one round.
FACET_CAP = 8
SMOKE_FACET_CAP = 5
RANKS = (3, 4, 5)
DETERMINANTS = (2, 3, 5, 8, 13)
SMOKE_DETERMINANTS = (2, 3)


# vertices of a lattice octagon; any three or more of them are in convex position
OCTAGON = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))


def polytope(rng: random.Random, dim: int, facets: int) -> list[tuple[int, ...]]:
    """Vertices of a seeded lattice polytope with exactly `facets` facets:
    a polygon on the octagon's vertices, then pyramids (one more facet) and
    prisms (two more facets) over lower-dimensional ones."""
    if dim == 2:
        return [OCTAGON[i] for i in sorted(rng.sample(range(8), facets))]
    builds = []
    if facets - 1 >= dim and (dim > 3 or facets - 1 <= 8):
        builds.append("pyramid")
    if facets - 2 >= dim and (dim > 3 or facets - 2 <= 8):
        builds.append("prism")
    if rng.choice(builds) == "pyramid":
        base = polytope(rng, dim - 1, facets - 1)
        return [v + (0,) for v in base] + [(0,) * (dim - 1) + (1,)]
    base = polytope(rng, dim - 1, facets - 2)
    return [v + (h,) for v in base for h in (0, 1)]


def ladder_cone(rng: random.Random, rank: int, facets: int) -> tuple:
    """Raw generators of a pointed cone of the given rank with exactly
    `facets` facets: the cone over a seeded polytope at height 1."""
    return tuple(v + (1,) for v in polytope(rng, rank - 1, facets))


def shear(rng: random.Random, n: int):
    """Signed permutation times one elementary shear with coefficient +-1."""
    mat = [list(row) for row in signed_permutation(rng, n)]
    i, j = rng.sample(range(n), 2)
    c = rng.choice((1, -1))
    mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return tuple(tuple(row) for row in mat)


def sheared(rng: random.Random, gens) -> tuple:
    mat = shear(rng, len(gens[0]))
    return tuple(sorted(apply(mat, g) for g in gens))


def run_cone(gens, other, points, rank):
    c = tc.Cone.from_generators(gens, rank)
    d = c.dual()
    meet = c.intersect(tc.Cone.from_generators(other, rank))
    located = [c.classify(p) for p in points]
    fs = c.faces() if c.is_pointed else ()
    return c, d, meet, located, fs


def check_cone(res, other, points, rank, facets=None) -> bool:
    """`facets`, known from the polytope's construction, is checked when given."""
    c, d, meet, located, fs = res
    o = tc.Cone.from_generators(other, rank)
    return (
        (facets is None or len(c.facet_normals) == facets)
        and d.dual() == c
        and c.contains_cone(meet) and o.contains_cone(meet)
        and all(f.is_face_of(c) for f in fs)
        and all(loc.is_outside == (not c.contains_point(p)) for loc, p in zip(located, points))
    )


def run_hilbert(gens):
    c = tc.Cone.from_generators(gens, 3)
    return c, tc.semigroup_generators(c.dual())


def check_hilbert(res) -> bool:
    c, basis = res
    d = c.dual()
    members = set(basis)
    return (
        len(members) == len(basis)
        and all(d.contains_point(h) for h in basis)
        and all(r in members for r in d.rays)
    )


class Cones:
    """Distinct cones of rank 3-5 on a facet-count ladder: build, dual,
    intersect, classify and faces; and Hilbert bases of duals of simplicial
    rank-3 cones on a determinant ladder."""

    name = "cones"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.facet_cap = SMOKE_FACET_CAP if smoke else FACET_CAP
        self.determinants = SMOKE_DETERMINANTS if smoke else DETERMINANTS
        self.min_ops = 21
        self._seen: set = set()
        # built once: regenerating it later would draw other fresh cones
        self._round0: list[Op] = []

    def setup(self) -> None:
        self.ladder = [(rank, f) for rank in RANKS for f in range(rank, self.facet_cap + 1)]
        self._round0 = self.round(0)

    def _fresh(self, draw) -> tuple:
        """A generator list that no earlier operation used."""
        while True:
            gens = draw()
            if gens not in self._seen:
                self._seen.add(gens)
                return gens

    def round(self, r: int) -> list[Op]:
        if r == 0 and self._round0:
            return self._round0
        rng = random.Random(f"{self.seed}/cones/{r}")
        ops = []
        for rank, f in self.ladder:
            # a new polytope and unimodular map per round: no two operations
            # share a cone, and a run averages over many combinatorial types
            base = ladder_cone(rng, rank, f)
            gens = self._fresh(lambda: sheared(rng, base))
            # a second cone to intersect with: random generators and a line
            line = tuple(rng.randint(-1, 1) for _ in range(rank))
            if not any(line):
                line = unit(0, rank)
            other = [tuple(-x for x in line), line] + [
                tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rank - 1)
            ]
            points = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(4)]
            points += [gens[0], tuple(map(sum, zip(*gens)))]
            ops.append(Op(
                f"cone-r{rank}-f{f}",
                lambda g=gens, o=other, p=points, n=rank: run_cone(g, o, p, n),
                lambda res, o=other, p=points, n=rank, f=f: check_cone(res, o, p, n, f),
            ))
            if f == rank:
                # a non-pointed cone of the same rank: the ladder cone plus a line
                gens_l = tuple(gens) + (tuple(-x for x in gens[0]),)
                ops.append(Op(
                    f"cone-r{rank}-lineality",
                    lambda g=gens_l, o=other, p=points, n=rank: run_cone(g, o, p, n),
                    lambda res, o=other, p=points, n=rank: check_cone(res, o, p, n),
                ))
        for det in self.determinants:
            # w = (a, det - a, det) with a prime to det: the box the Hilbert
            # basis search scans depends on det alone.  The orientation stays
            # fixed, because the search's cost also depends on the order it
            # visits the box in: a signed permutation of one d = 8 cone took
            # anywhere from 30 ms to 0.8 s.  So these few cones repeat.
            a = rng.choice([a for a in range(det) if math.gcd(a, det) == 1])
            gens = (unit(0, 3), unit(1, 3), (a, det - a, det))
            ops.append(Op(f"hilbert-d{det}", lambda g=gens: run_hilbert(g), check_hilbert))
        return ops

    def sizes(self) -> dict:
        return {
            "ops_per_round": len(self._round0),
            "ranks": list(RANKS),
            "facet_ladder": [[rank, f] for rank, f in self.ladder],
            "facet_cap": self.facet_cap,
            "determinant_ladder": list(self.determinants),
        }


# ---------------------------------------------------------------------------
# cli: what a command-line user waits for


EXAMPLE_COMMANDS = (
    ("example-verify-example", ["verify-example"]),
    ("example-identify", ["identify", "--system", "Ytilde"]),
    ("example-fibers", ["fibers", "--morphism", "kappa", "--point", "tau1@2,3,5"]),
    ("example-limits", ["limits", "--system", "Ytilde", "--v", "1,1,0", "--point", "torus:2,3,5"]),
    ("example-image", ["image", "--morphism", "pi"]),
    ("example-faces", ["faces", "--cone", "delta"]),
)
PLANE_COMMANDS = (
    ("plane-identify", ["identify", "--system", "DoubledLine"]),
    ("plane-fibers", ["fibers", "--morphism", "fold", "--point", "halfline"]),
    ("plane-limits", ["limits", "--system", "DoubledLine", "--v", "1", "--point", "torus:3"]),
)


def cli_commands() -> list[tuple[str, list[str]]]:
    out = [(name, ["--format", "json", *args]) for name, args in EXAMPLE_COMMANDS]
    out += [
        (name, ["--scene", "scenes/punctured-plane.json", "--format", "json", *args])
        for name, args in PLANE_COMMANDS
    ]
    return out


def subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(argv: list[str]) -> tuple[int, bytes, int]:
    """Exit code, stdout and peak RSS (KiB) of one `python -m toriq` run."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "toriq", *argv],
        cwd=ROOT, env=subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        # toriq writes at most one error line to stderr, far below a pipe buffer
        out = proc.stdout.read()
        proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def run_in_process(argv: list[str]) -> tuple[int, bytes, int]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = tcli.main(argv)
    return code, buf.getvalue().encode(), 0


class Cli:
    """`python -m toriq --format json ...` subprocesses, one at a time."""

    name = "cli"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.min_ops = 21
        self.peak_child_kib = 0
        self.in_process = False

    def setup(self) -> None:
        self.commands = cli_commands()
        self.expected = {
            name: (EXPECTED_DIR / f"{name}.json").read_bytes() for name, _ in self.commands
        }

    def _run(self, argv):
        if self.in_process:
            return run_in_process(argv)
        code, out, rss = run_subprocess(argv)
        self.peak_child_kib = max(self.peak_child_kib, rss)
        return code, out, rss

    def round(self, r: int) -> list[Op]:
        order = list(self.commands)
        random.Random(f"{self.seed}/cli/{r}").shuffle(order)
        return [
            Op(
                name,
                lambda argv=argv: self._run(argv),
                lambda res, name=name: res[0] == 0 and res[1] == self.expected[name],
            )
            for name, argv in order
        ]

    def sizes(self) -> dict:
        return {"commands_per_round": len(self.commands),
                "commands": [name for name, _ in self.commands]}


WORKLOADS = {w.name: w for w in (Quotient, Queries, Cones, Cli)}
