import random
from fractions import Fraction

import pytest

from toriq.intlinalg import (
    CosetSolution,
    Inconsistent,
    IntMatrix,
    NoRationalPoint,
    Sublattice,
    apply_exponent_matrix,
    dot,
    hermite_normal_form,
    integer_nth_root,
    invariant_factors,
    is_zero_vec,
    kernel_saturated,
    monomial_value,
    primitive,
    rank_of_rows,
    reduce_mod_span,
    smith_normal_form,
    solve_torus_equation,
)

from _oracles import (
    contains_rational,
    det,
    is_saturated,
    minor_gcd,
    rational_nullspace,
    two_list_hermite_normal_form,
)

P = IntMatrix([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]])


def random_matrix(rng, max_dim=5, bound=9):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)], c)


# ---------------------------------------------------------------------------
# Hermite normal form


def test_hnf_identity():
    m = IntMatrix.identity(3)
    h, u = hermite_normal_form(m)
    assert h == m and u == m


def test_hnf_single_column():
    m = IntMatrix([[2], [4]])
    h, u = hermite_normal_form(m)
    assert h.rows == ((2,), (0,))
    assert (u @ m) == h
    assert abs(det(u)) == 1


def test_hnf_zero_matrix():
    m = IntMatrix([[0, 0], [0, 0]])
    h, _ = hermite_normal_form(m)
    assert h.rows == ((0, 0), (0, 0))


def test_hnf_shape_properties():
    rng = random.Random(101)
    for _ in range(150):
        m = random_matrix(rng)
        h, u = hermite_normal_form(m)
        assert (u @ m) == h
        assert abs(det(u)) == 1
        assert (u.inverse_unimodular() @ h) == m  # exact reconstruction
        # echelon with positive pivots, entries above a pivot in [0, pivot)
        last_pivot = -1
        for row in h.rows:
            pivot = next((j for j, x in enumerate(row) if x != 0), None)
            if pivot is None:
                continue
            assert pivot > last_pivot
            assert row[pivot] > 0
            last_pivot = pivot
        for i, row in enumerate(h.rows):
            pivot = next((j for j, x in enumerate(row) if x != 0), None)
            if pivot is None:
                continue
            for above in range(i):
                assert 0 <= h.rows[above][pivot] < row[pivot]


def hnf_ladder(rng):
    """Random matrices of every shape up to 5 x 5, and the shapes an
    elimination mishandles first: zero rows and columns, rank deficiency,
    negative leading entries, single rows and single columns."""
    shapes = [(1, c) for c in range(1, 6)] + [(r, 1) for r in range(1, 6)]
    shapes += [(r, c) for r in range(1, 6) for c in range(1, 6)] * 4
    for r, c in shapes:
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        yield IntMatrix(rows, c)
        if r > 1:
            # a zero row, a row repeated with a multiple, and rank one
            yield IntMatrix(rows[:-1] + [[0] * c], c)
            yield IntMatrix(rows[:-1] + [[-3 * x for x in rows[0]]], c)
            yield IntMatrix([[k * x for x in rows[0]] for k in range(-r // 2, r - r // 2)], c)
        # a zero column, and a negative leading entry
        yield IntMatrix([[0] + row[1:] for row in rows], c)
        yield IntMatrix([[-abs(row[0]) - 1] + row[1:] for row in rows], c)
    yield IntMatrix.zero(3, 4)


def test_hnf_matches_the_two_list_elimination():
    # the transform carried as extra columns gives the same (H, U) as
    # applying each row operation again to a separate transform, and the
    # bare-row elimination of ``Sublattice.from_rows`` keeps the same basis
    rng = random.Random(141)
    count = 0
    for m in hnf_ladder(rng):
        h, u = hermite_normal_form(m)
        assert (h, u) == two_list_hermite_normal_form(m), m
        kept = tuple(r for r in h.rows if not is_zero_vec(r))
        assert Sublattice.from_rows(m.ncols, m.rows).basis == kept, m
        count += 1
    assert count > 500


def test_hnf_of_empty_and_degenerate_shapes():
    h, u = hermite_normal_form(IntMatrix([], 3))
    assert (h.rows, h.ncols, u.rows, u.ncols) == ((), 3, (), 0)
    assert Sublattice.from_rows(3, []).basis == ()
    assert Sublattice.from_rows(2, [(0, 0), (0, 0)]).basis == ()
    assert Sublattice.from_rows(2, [(-2, 4), (3, -6)]).basis == ((1, -2),)
    with pytest.raises(ValueError):
        Sublattice.from_rows(2, [(1, 2, 3)])


# ---------------------------------------------------------------------------
# vector leaves


def test_dot_rejects_vectors_of_different_lengths():
    assert dot((1, -2, 3), (4, 5, 6)) == 12
    assert dot((), ()) == 0
    for a, b in [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (1,))]:
        with pytest.raises(ValueError):
            dot(a, b)


def test_primitive_keeps_orientation():
    assert primitive(()) == ()
    assert primitive((0, 0, 0)) == (0, 0, 0)
    assert primitive((-4, 6, 0)) == (-2, 3, 0)
    assert primitive((-3, -6)) == (-1, -2)
    assert primitive((0, -5)) == (0, -1)
    assert primitive((-6,)) == (-1,) and primitive((0,)) == (0,)
    assert primitive([2, -1]) == (2, -1)
    assert isinstance(primitive([4, 2]), tuple) and isinstance(primitive([3, 2]), tuple)


def test_is_zero_vec_on_ints_and_fractions():
    assert is_zero_vec(()) and is_zero_vec((0, 0)) and not is_zero_vec((0, -1))
    assert is_zero_vec((Fraction(0), Fraction(0, 5)))
    assert not is_zero_vec((Fraction(0), Fraction(1, 3)))


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    m = IntMatrix.identity(4)
    d, u, v = smith_normal_form(m)
    assert d == m and u == m and v == m


def test_snf_diag_2_3():
    m = IntMatrix([[2, 0], [0, 3]])
    d, u, v = smith_normal_form(m)
    assert d.rows == ((1, 0), (0, 6))
    assert (u @ m @ v) == d
    # oracle: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
    assert minor_gcd(m, 1) == 1
    assert minor_gcd(m, 2) == 6


def test_snf_quotient_map_is_surjective():
    d, u, v = smith_normal_form(P)
    assert d.rows == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert (u @ P @ v) == d
    # oracle: gcds of k x k minors
    assert minor_gcd(P, 1) == 1
    assert minor_gcd(P, 2) == 1
    assert minor_gcd(P, 3) == 1


def test_snf_properties_random():
    rng = random.Random(202)
    for _ in range(100):
        m = random_matrix(rng, max_dim=4)
        d, u, v = smith_normal_form(m)
        assert (u @ m @ v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d.rows[i][i] for i in range(min(m.nrows, m.ncols))]
        for i, x in enumerate(diag):
            assert x >= 0
            for j in range(m.ncols):
                if j != i and i < m.nrows:
                    assert d.rows[i][j] == 0
        chain = [x for x in diag if x != 0]
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0
        # the diagonal products match the minor gcds
        prod = 1
        for k, x in enumerate(chain, start=1):
            prod *= x
            assert minor_gcd(m, k) == prod


# ---------------------------------------------------------------------------
# kernels and sublattices


def test_kernel_of_quotient_map():
    k = kernel_saturated(P)
    assert k.rank == 1
    assert k.basis == ((1, 1, 0, -1),)


def test_kernel_trivial_and_full():
    assert kernel_saturated(IntMatrix.identity(3)).rank == 0
    k = kernel_saturated(IntMatrix([[0, 0]]))
    assert k == Sublattice.full(2)


def test_kernel_against_gaussian_oracle():
    rng = random.Random(303)
    for _ in range(80):
        m = random_matrix(rng, max_dim=4, bound=6)
        k = kernel_saturated(m)
        for b in k.basis:
            assert all(x == 0 for x in m.apply(b))
        oracle = rational_nullspace(list(m.rows), m.ncols)
        assert len(oracle) == k.rank
        for v in oracle:
            assert contains_rational(k, v)
        assert all(f == 1 for f in invariant_factors(k.matrix())) or k.rank == 0


def test_sublattice_basis_independent_of_presentation():
    rng = random.Random(107)
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rows = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)]
        lat = Sublattice.from_rows(n, rows)
        # mix the generators by an invertible integer change of basis
        mixed = list(rows)
        for _ in range(6):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                c = rng.randint(-2, 2)
                mixed[i] = tuple(a + c * b for a, b in zip(mixed[i], mixed[j]))
        assert Sublattice.from_rows(n, mixed) == lat


def test_sublattice_canonical_equality():
    a = Sublattice.from_rows(3, [(1, 0, 0), (0, 1, 0)])
    b = Sublattice.from_rows(3, [(1, 1, 0), (1, -1, 0)])
    c = Sublattice.from_rows(3, [(2, 0, 0), (0, 1, 0)])
    assert a != b  # index-2 sublattice of the same span
    assert b.saturate() == a
    assert c != a and c.saturate() == a
    assert not is_saturated(c) and is_saturated(a)


def test_sublattice_membership():
    lat = Sublattice.from_rows(3, [(2, 0, 0), (0, 1, 0)])
    assert lat.contains((2, 5, 0))
    assert not lat.contains((1, 0, 0))
    assert contains_rational(lat, (1, 0, 0))
    assert not contains_rational(lat, (0, 0, 1))


def test_coset_reduction():
    lat = Sublattice.from_rows(3, [(1, 0, 0), (0, 1, 0)])
    reduced = lat.coset_reduce((Fraction(2), Fraction(3), Fraction(5)))
    assert reduced == (1, 1, 5)
    assert lat.in_subtorus((Fraction(7), Fraction(-2), Fraction(1)))
    assert not lat.in_subtorus((Fraction(1), Fraction(1), Fraction(2)))


def test_coset_reduction_skew_lattice():
    lat = Sublattice.from_rows(3, [(1, 1, 0)])
    t = (Fraction(2), Fraction(3), Fraction(5))
    reduced = lat.coset_reduce(t)
    # the reduction differs from t by an element of the subtorus
    ratio = tuple(a / b for a, b in zip(t, reduced))
    assert lat.in_subtorus(ratio)
    # and is idempotent
    assert lat.coset_reduce(reduced) == reduced


def test_reduce_mod_span():
    basis = ((1, -1, 0),)
    assert reduce_mod_span((1, 0, 0), basis) == (0, 1, 0)
    assert reduce_mod_span((2, -2, 0), basis) == (0, 0, 0)


def test_rank_and_span_against_nullspace_oracle():
    rng = random.Random(202)
    for _ in range(150):
        m = random_matrix(rng)
        kernel = rational_nullspace(list(m.rows), m.ncols)
        assert rank_of_rows(m.rows) == m.ncols - len(kernel)
        combo = [0] * m.ncols
        for row in m.rows:
            c = rng.randint(-3, 3)
            combo = [x + c * y for x, y in zip(combo, row)]
        assert is_zero_vec(reduce_mod_span(combo, m.rows))
        v = tuple(rng.randint(-9, 9) for _ in range(m.ncols))
        assert is_zero_vec(reduce_mod_span(v, m.rows)) == all(dot(v, k) == 0 for k in kernel)


def test_reduce_mod_span_negative_pivot_keeps_orientation():
    # (1,1,1) - 1/2 (2,-1,-3) - 1/2 (0,0,5) = (0, 3/2, 0): the ray (0, 1, 0)
    for first in ((2, -1, -3), (-2, 1, 3)):
        assert reduce_mod_span((1, 1, 1), (first, (0, 0, 5))) == (0, 1, 0)
    rng = random.Random(203)
    for _ in range(100):
        m = random_matrix(rng, max_dim=4)
        h, _ = hermite_normal_form(m)
        rows = [r for r in h.rows if any(r)]
        flipped = [tuple(-x for x in r) if rng.random() < 0.5 else r for r in rows]
        v = tuple(rng.randint(-9, 9) for _ in range(m.ncols))
        assert reduce_mod_span(v, flipped) == reduce_mod_span(v, rows)


def test_inverse_unimodular_rejects_determinant_two():
    for m in (IntMatrix([[2, 0], [0, 1]]), IntMatrix([[1, 1], [1, -1]])):
        assert abs(det(m)) == 2
        with pytest.raises(ValueError, match="not unimodular"):
            m.inverse_unimodular()


def test_sublattice_contains_is_zero_reduction():
    rng = random.Random(204)
    for _ in range(100):
        m = random_matrix(rng, max_dim=4, bound=5)
        lat = Sublattice.from_rows(m.ncols, m.rows)
        member = [0] * m.ncols
        for b in lat.basis:
            c = rng.randint(-4, 4)
            member = [x + c * y for x, y in zip(member, b)]
        v = tuple(rng.randint(-9, 9) for _ in range(m.ncols))
        assert lat.contains(member) and lat.reduce(member) == (0,) * m.ncols
        assert lat.contains(v) == (lat.reduce(v) == (0,) * m.ncols)
        # the reduction is a canonical representative of the coset v + L
        shifted = tuple(x + y for x, y in zip(v, member))
        assert lat.reduce(shifted) == lat.reduce(v)
        assert lat.contains(tuple(x - y for x, y in zip(v, lat.reduce(v))))


def test_lift_matrix_is_a_section_of_the_quotient():
    for rows in ([(1, 1, 0)], [(1, 0, 0), (0, 1, 0)], [(1, 2, 3)], [], IntMatrix.identity(3).rows):
        lat = Sublattice.from_rows(3, rows).saturate()
        q = 3 - lat.rank
        assert (lat.quotient_matrix() @ lat.lift_matrix()) == IntMatrix.identity(q)


def test_quotient_structure_rejects_unsaturated_lattice():
    lat = Sublattice.from_rows(2, [(2, 0)])
    for use in (lambda: lat.coset_reduce((Fraction(2), Fraction(3))), lat.quotient_matrix):
        with pytest.raises(ValueError, match="^quotient structure requires a saturated lattice$"):
            use()
    assert lat.saturate().quotient_matrix().nrows == 1


# ---------------------------------------------------------------------------
# monomial equations


def test_solve_identity_map():
    sol = solve_torus_equation(IntMatrix([[1]]), (Fraction(4),))
    assert isinstance(sol, CosetSolution)
    assert sol.representative == (4,)
    assert sol.kernel.rank == 0


def test_solve_product_equation():
    sol = solve_torus_equation(IntMatrix([[1, 1]]), (Fraction(6),))
    assert isinstance(sol, CosetSolution)
    a, b = sol.representative
    assert a * b == 6
    assert sol.kernel.basis == ((1, -1),)


def test_solve_square_root_of_two():
    sol = solve_torus_equation(IntMatrix([[2]]), (Fraction(2),))
    assert isinstance(sol, NoRationalPoint)
    # oracle: rational-root test for t^2 = 2
    assert integer_nth_root(2, 2) is None
    assert not sol.satisfied_by((Fraction(3, 2),))
    assert sol.kernel.rank == 0


def test_solve_sign_cases():
    assert isinstance(
        solve_torus_equation(IntMatrix([[2]]), (Fraction(-4),)), Inconsistent
    )
    sol = solve_torus_equation(IntMatrix([[3]]), (Fraction(8),))
    assert isinstance(sol, CosetSolution) and sol.representative == (2,)
    sol = solve_torus_equation(IntMatrix([[3]]), (Fraction(-8),))
    assert isinstance(sol, CosetSolution) and sol.representative == (-2,)
    assert isinstance(
        solve_torus_equation(IntMatrix([[3]]), (Fraction(2),)), NoRationalPoint
    )


def test_solve_torsion_components():
    sol = solve_torus_equation(IntMatrix([[2]]), (Fraction(4),))
    assert isinstance(sol, CosetSolution)
    solutions = {sol.representative[0]}
    for tw in sol.torsion:
        solutions.add(sol.representative[0] * tw[0])
    assert solutions == {2, -2}


def test_solve_rejects_zero_target():
    with pytest.raises(ValueError):
        solve_torus_equation(IntMatrix([[1]]), (Fraction(0),))


def test_solve_inconsistent_rank_deficient():
    # s1 * s2 = 2 and s1 * s2 = 3 cannot both hold
    m = IntMatrix([[1, 1], [1, 1]])
    sol = solve_torus_equation(m, (Fraction(2), Fraction(3)))
    assert isinstance(sol, Inconsistent)


def test_solution_coset_satisfies_equations():
    rng = random.Random(404)
    for _ in range(100):
        m = random_matrix(rng, max_dim=3, bound=3)
        base = tuple(
            Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(m.ncols)
        )
        target = apply_exponent_matrix(m, base)
        sol = solve_torus_equation(m, target)
        assert isinstance(sol, CosetSolution)  # target comes from an actual point
        # a kernel-subtorus element: prod over basis of lambda_b(2)^c
        coeffs = [rng.randint(-3, 3) for _ in sol.kernel.basis]
        element = [Fraction(1)] * m.ncols
        for c, b in zip(coeffs, sol.kernel.basis):
            for i in range(m.ncols):
                element[i] *= Fraction(2) ** (c * b[i])
        point = tuple(r * e for r, e in zip(sol.representative, element))
        assert apply_exponent_matrix(m, point) == tuple(target)


def test_solver_kernel_is_the_saturated_kernel():
    rng = random.Random(406)
    kinds = set()
    for _ in range(150):
        m = random_matrix(rng, max_dim=3, bound=4)
        target = tuple(
            Fraction(rng.choice((1, 2, 3, 4, 9)), rng.choice((1, 4))) for _ in range(m.nrows)
        )
        sol = solve_torus_equation(m, target)
        kinds.add(type(sol))
        if not isinstance(sol, Inconsistent):
            assert sol.kernel == kernel_saturated(m)
    assert kinds == {CosetSolution, NoRationalPoint, Inconsistent}


# ---------------------------------------------------------------------------
# matrices


def test_det_and_inverse():
    rng = random.Random(505)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)], n)
        # permutation-expansion oracle
        import itertools

        oracle = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = 1
            for i in range(n):
                term *= m.rows[i][perm[i]]
            oracle += sign * term
        assert det(m) == oracle
        if abs(det(m)) == 1:
            inv = m.inverse_unimodular()
            assert (m @ inv) == IntMatrix.identity(n)
