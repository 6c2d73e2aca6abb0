"""The geometry kernel against its former routes, for exact equality.

``tests/_oracles.py`` keeps the routes the kernel replaced: description
passes with the algebraic rank adjacency test, cones built by two passes
(generators to facet normals and back), meets by one pass over the whole
space on both cones' facet normals, and saturated kernels read off a Smith
normal form.  The kernel must give the same objects: description passes the
same ray and line lists in the same order, cones the same four canonical
fields, meets the same cones, and kernels the same lattices.  Every check
runs under ``unmemoised()``, so no live cone or lattice of another test
answers for a computation.
"""

import random

import pytest

from toriq import cones
from toriq.cones import Cone
from toriq.intlinalg import IntMatrix, kernel_saturated

from _oracles import (
    canonical_fields,
    cyclic_cone_generators,
    from_scratch_meet,
    rank_test_double_description,
    snf_kernel_saturated,
    two_pass_cone,
    unmemoised,
)


@pytest.fixture(autouse=True)
def fresh_memos():
    with unmemoised():
        yield


def random_rows(rng, rank, count, bound=3):
    return [tuple(rng.randint(-bound, bound) for _ in range(rank)) for _ in range(count)]


def random_generators(rng, rank):
    """Generators with the cases a canonical form must absorb: a line
    (a generator and its negative), repeated and scaled generators, and a
    cone inside a hyperplane or a smaller subspace (its span cut out by
    equalities)."""
    gens = random_rows(rng, rank, rng.randint(0, rank + 3))
    if gens and rng.random() < 0.3:
        g = rng.choice(gens)
        gens.append(tuple(-x for x in g))
    if gens and rng.random() < 0.3:
        g = rng.choice(gens)
        gens += [g, tuple(2 * x for x in g)]
    if rank > 1 and rng.random() < 0.3:
        # into the span of fewer than rank random vectors
        basis = random_rows(rng, rank, rng.randint(1, rank - 1))
        gens = [
            tuple(sum(c * b[j] for c, b in zip(g, basis)) for j in range(rank)) for g in gens
        ]
    rng.shuffle(gens)
    return gens


def test_description_passes_give_the_rank_test_lists():
    rng = random.Random(17)
    for _ in range(4000):
        rank = rng.randint(1, 5)
        ineqs = random_rows(rng, rank, rng.randint(0, rank + 4), bound=rng.choice((1, 3)))
        if ineqs and rng.random() < 0.3:
            ineqs.append(tuple(-x for x in rng.choice(ineqs)))
        if ineqs and rng.random() < 0.3:
            ineqs.append(rng.choice(ineqs))
        eqs = random_rows(rng, rank, rng.choice((0, 0, 1, 2)))
        got = cones._double_description(rank, ineqs, eqs)
        assert got == rank_test_double_description(rank, ineqs, eqs), (rank, ineqs, eqs)


def test_one_pass_cones_give_the_two_pass_fields():
    rng = random.Random(23)
    for _ in range(2000):
        rank = rng.randint(1, 5)
        gens = random_generators(rng, rank)
        got = Cone.from_generators(gens, rank)
        assert canonical_fields(got) == canonical_fields(two_pass_cone(gens, rank)), gens


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_zero_and_full_cones_give_the_two_pass_fields(rank):
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    full = units + [tuple(-x for x in u) for u in units]
    assert canonical_fields(Cone.from_generators([], rank)) == canonical_fields(
        two_pass_cone([], rank)
    ) == canonical_fields(Cone.zero(rank))
    assert canonical_fields(Cone.full(rank)) == canonical_fields(two_pass_cone(full, rank))


@pytest.mark.parametrize("k, facets", [(10, 42), (14, 110), (18, 210)])
def test_cyclic_cones_give_the_two_pass_fields(k, facets):
    gens = cyclic_cone_generators(k)
    got = Cone.from_generators(gens, 6)
    assert (len(got.rays), len(got.facet_normals)) == (k, facets)
    assert canonical_fields(got) == canonical_fields(two_pass_cone(gens, 6))


def test_meets_give_the_from_scratch_cones():
    # pointed and non-pointed operands, lower-dimensional ones, and an
    # operand met with itself or an equal copy
    rng = random.Random(29)
    for _ in range(1000):
        rank = rng.randint(1, 4)
        a = Cone.from_generators(random_generators(rng, rank), rank)
        if rng.random() < 0.15:
            b = a if rng.random() < 0.5 else Cone.from_generators(a.generators()[::-1], rank)
        else:
            b = Cone.from_generators(random_generators(rng, rank), rank)
        meet = a.intersect(b)
        assert meet is b.intersect(a)
        assert canonical_fields(meet) == canonical_fields(from_scratch_meet(a, b)), (a, b)


def test_meets_of_cones_with_lineality():
    rng = random.Random(31)
    for _ in range(500):
        rank = rng.randint(2, 4)
        a, b = (
            Cone.from_generators(random_generators(rng, rank) + [g, tuple(-x for x in g)], rank)
            for g in random_rows(rng, rank, 2)
        )
        meet = a.intersect(b)
        assert meet is b.intersect(a)
        assert canonical_fields(meet) == canonical_fields(from_scratch_meet(a, b)), (a, b)


KERNEL_CASES = [
    IntMatrix((), 3),  # no rows: the whole lattice
    IntMatrix([(), ()], 0),  # no columns: the zero lattice of Z^0
    IntMatrix([(2, -4, 6, 0)]),  # 1 x n
    IntMatrix([(3,), (0,), (-6,)]),  # n x 1
    IntMatrix([(1, 2, 3), (2, 4, 6), (0, 0, 0)]),  # rank-deficient
    IntMatrix([(2, 0, 0), (0, 2, 0)]),  # rows spanning a non-saturated lattice
    IntMatrix([(2, 4, 6), (3, 6, 9)]),  # rank 1, non-saturated
    IntMatrix([(0, 0), (0, 0)]),
    IntMatrix([(1, 0), (0, 1)]),
]


@pytest.mark.parametrize("m", KERNEL_CASES, ids=range(len(KERNEL_CASES)))
def test_kernel_cases_give_the_smith_form_lattice(m):
    assert kernel_saturated(m) == snf_kernel_saturated(m)


def test_random_kernels_give_the_smith_form_lattice():
    rng = random.Random(37)
    for _ in range(1500):
        r, c = rng.randint(0, 4), rng.randint(0, 5)
        rows = random_rows(rng, c, r, bound=rng.choice((1, 5)))
        if r > 2 and rng.random() < 0.4:
            # a combination of two rows, so the rank drops
            rows[2] = tuple(2 * x - 3 * y for x, y in zip(rows[0], rows[1]))
        if rows and rng.random() < 0.3:
            rows = [tuple(rng.choice((2, 3)) * x for x in row) for row in rows]
        m = IntMatrix(rows, c)
        assert kernel_saturated(m) == snf_kernel_saturated(m), m
