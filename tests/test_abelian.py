from __future__ import annotations

import random
import time
from fractions import Fraction

from coxmap.abelian import (
    IntMatrix,
    cokernel,
    feasible_lexmin,
    hermite_normal_form,
    rational_vector,
    saturated_kernel,
    smith_normal_form,
    solve_rational,
)
from lp_reference import fourier_motzkin_lexmin, nonneg_lexmin


def check_snf(a: IntMatrix) -> None:
    snf = smith_normal_form(a)
    assert (snf.u @ a @ snf.v).entries == snf.d.entries
    assert abs(snf.u.det()) == 1
    assert abs(snf.v.det()) == 1
    diag = snf.diagonal
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # trailing zeros after a zero are fine
        if diag[i] == 0:
            assert diag[i + 1] == 0
    for i in range(min(a.rows, a.cols)):
        for j in range(min(a.rows, a.cols)):
            if i != j:
                assert snf.d[i, j] == 0


def test_snf_diag_2_3():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    snf = smith_normal_form(a)
    check_snf(a)
    assert snf.diagonal == (1, 6)


def test_snf_identity_and_zero():
    check_snf(IntMatrix.identity(3))
    assert smith_normal_form(IntMatrix.identity(3)).diagonal == (1, 1, 1)
    z = IntMatrix.zero(2, 3)
    check_snf(z)
    assert smith_normal_form(z).diagonal == (0, 0)


def test_snf_empty_shapes():
    for a in (IntMatrix.from_rows([], cols=3), IntMatrix.from_rows([[], []], cols=0)):
        snf = smith_normal_form(a)
        assert (snf.u @ a @ snf.v).entries == snf.d.entries


def test_snf_random():
    rng = random.Random(7)
    for _ in range(250):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        )
        check_snf(a)


def test_hnf_examples():
    h = hermite_normal_form(IntMatrix.from_rows([[2, 4], [1, 3]]))
    assert h.entries == ((1, 1), (0, 2))
    # determined by the row lattice, not the generators given
    h2 = hermite_normal_form(IntMatrix.from_rows([[1, 3], [2, 4], [3, 7]]))
    assert h2.entries == h.entries
    assert hermite_normal_form(IntMatrix.zero(2, 2)).rows == 0


def test_cokernel_projective_plane_pairing():
    # rays (1,0), (0,1), (-1,-1) paired against the character lattice
    a = IntMatrix.from_rows([[1, 0], [0, 1], [-1, -1]])
    g = cokernel(a)
    assert g.free_rank == 1 and g.torsion == ()
    assert g.quotient_map.entries == ((1, 1, 1),)
    assert all(g.element(e).free == (1,) for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1]))


def test_cokernel_quarter_plane_quotient():
    # columns (1,1) and (0,2): Z^2 / span = Z/2 with both generators mapping to 1
    a = IntMatrix.from_rows([[1, 0], [1, 2]])
    g = cokernel(a)
    assert g.free_rank == 0 and g.torsion == (2,)
    assert g.element([1, 0]).torsion == (1,)
    assert g.element([0, 1]).torsion == (1,)
    assert g.element([1, 1]).is_zero


def test_cokernel_zero_matrix():
    g = cokernel(IntMatrix.zero(3, 2))
    assert g.free_rank == 3 and g.torsion == ()
    assert g.quotient_map.entries == IntMatrix.identity(3).entries


def test_cokernel_random_soundness():
    # the quotient map must kill the column span and hit every generator
    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(0, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        g = cokernel(a)
        for j in range(cols):
            assert g.element(a.col(j)).is_zero
        # order of the torsion part matches the Smith invariants
        diag = smith_normal_form(a).diagonal
        assert g.torsion == tuple(d for d in diag if d >= 2)
        assert g.free_rank == rows - sum(1 for d in diag if d != 0)


def test_group_element_arithmetic():
    g = cokernel(IntMatrix.from_rows([[1, 0], [1, 2]]))
    x = g.element([1, 0])
    assert (x + x).is_zero
    assert (-x).torsion == (1,)
    assert x.scale(3).torsion == (1,)
    assert not x.is_zero


def test_saturated_kernel_examples():
    a = IntMatrix.from_rows([[1, 1, 1]])
    k = saturated_kernel(a)
    assert k.entries == ((1, 0, -1), (0, 1, -1))
    # saturation: kernel of [[2, 2]] contains (1, -1), not only (2, -2)
    k2 = saturated_kernel(IntMatrix.from_rows([[2, 2]]))
    assert k2.entries == ((1, -1),)
    k3 = saturated_kernel(IntMatrix.zero(0, 2))
    assert k3.entries == ((1, 0), (0, 1))


def test_saturated_kernel_random():
    rng = random.Random(13)
    for _ in range(200):
        rows = rng.randint(0, 3)
        cols = rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        k = saturated_kernel(a)
        for i in range(k.rows):
            assert all(x == 0 for x in a.apply(k.row(i)))
        # rank check
        snf = smith_normal_form(a)
        rank = sum(1 for d in snf.diagonal if d != 0)
        assert k.rows == cols - rank


def test_solve_rational_plain():
    a = IntMatrix.from_rows([[1, 2], [0, 1]])
    sol = solve_rational(a, [3, 1])
    assert sol is not None
    x, null = sol
    assert x == (1, 1)
    assert null == ()
    assert solve_rational(IntMatrix.from_rows([[1, 1], [1, 1]]), [0, 1]) is None


def test_solve_rational_free_variables_zero():
    a = IntMatrix.from_rows([[1, 1, 0]])
    x, null = solve_rational(a, [2])
    assert x == (2, 0, 0)
    assert len(null) == 2


def test_solve_rational_nonneg_examples():
    # columns (0,1) and (-1,-1); the unique solution of A x = (-1, 0) is (1, 1)
    a = IntMatrix.from_rows([[0, -1], [1, -1]])
    assert feasible_lexmin(a, [-1, 0]) == (1, 1)
    # b = 0 gives the lexicographically smallest solution, 0
    assert feasible_lexmin(a, [0, 0]) == (0, 0)
    assert feasible_lexmin(IntMatrix.from_rows([[1]]), [-1]) is None


def test_solve_rational_nonneg_lexmin():
    # x + y = 2 has many nonneg solutions; lex-min is (0, 2)
    a = IntMatrix.from_rows([[1, 1]])
    assert feasible_lexmin(a, [2]) == (0, 2)


def test_feasible_lexmin_strict_system():
    # the reference on inequalities: m with <m, (1,0)> >= 1 and <m, (0,1)> >= 1
    # is unbounded below, and its lex-min is capped at the bound itself
    ineqs = [
        ([Fraction(-1), Fraction(0)], Fraction(-1)),
        ([Fraction(0), Fraction(-1)], Fraction(-1)),
    ]
    assert fourier_motzkin_lexmin(ineqs, 2) == (1, 1)
    assert fourier_motzkin_lexmin([([Fraction(1)], Fraction(-1)), ([Fraction(-1)], Fraction(0))], 1) is None
    assert fourier_motzkin_lexmin([], 0) == ()


def test_nonneg_solve_matches_fourier_motzkin_lexmin():
    rng = random.Random(17)
    feasible = 0
    for _ in range(600):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        b = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2))) for _ in range(rows)]
        expected = nonneg_lexmin(a, b)
        sol = feasible_lexmin(a, b)
        assert sol == expected, (a, b)
        feasible += sol is not None
    assert feasible >= 100


def test_nonneg_solve_on_cones_over_polygons():
    # rays (i, i^2 - k i, 1) lie over the vertices of a convex k-gon; the
    # point is their sum, inside the cone
    for k in (8, 13, 20):
        rays = [(i, i * i - k * i, 1) for i in range(k)]
        a = IntMatrix.from_rows([[ray[d] for ray in rays] for d in range(3)])
        b = [sum(ray[d] for ray in rays) for d in range(3)]
        start = time.perf_counter()
        x = feasible_lexmin(a, b)
        elapsed = time.perf_counter() - start
        assert x is not None
        assert all(v >= 0 for v in x) and list(a.apply(x)) == b
        # a vertex of the feasible region: at most rank-many nonzeros
        assert sum(1 for v in x if v) <= 3
        assert elapsed < 1.0, (k, elapsed)


def test_rational_vector_builder():
    assert rational_vector(["1/2", 3]) == (Fraction(1, 2), Fraction(3))
