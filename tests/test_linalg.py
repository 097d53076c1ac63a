import random
from fractions import Fraction

import pytest

from truncpoisson import Matrix, SubspaceBasis, column_space, nullspace, rref, solve
from truncpoisson.linalg import EchelonAccumulator

from oracles import independent_rank


def random_matrix(rng, rows, cols, span=6):
    return Matrix.from_rows(
        [[Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    )


def test_rref_identity():
    red, pivots, rank = rref(Matrix.identity(2))
    assert rank == 2
    assert pivots == (0, 1)
    assert red == Matrix.identity(2)


def test_rref_zero_matrix():
    red, pivots, rank = rref(Matrix.zero(3, 3))
    assert rank == 0
    assert pivots == ()


def test_rref_proportional_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    red, pivots, rank = rref(m)
    assert rank == 1
    assert red == Matrix.from_rows([[1, 2], [0, 0]])


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        red = rref(m).reduced
        again = rref(red)
        assert again.reduced == red


def test_rref_entries_canonical():
    rng = random.Random(12)
    m = random_matrix(rng, 5, 7)
    red = rref(m).reduced
    for row in red.data:
        for x in row:
            assert isinstance(x, Fraction)
            assert x.denominator > 0  # lowest terms is a Fraction construction invariant


def test_nullspace_identity_empty():
    assert nullspace(Matrix.identity(3)).dim == 0


def test_nullspace_zero_matrix_full():
    basis = nullspace(Matrix.zero(2, 3))
    assert basis.dim == 3
    assert basis.vectors == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


def test_nullspace_single_relation():
    basis = nullspace(Matrix.from_rows([[1, 1]]))
    assert basis.dim == 1
    v = basis.vectors[0]
    assert v[0] * Fraction(-1) == v[1]  # proportional to (1, -1)


def test_nullspace_exact_and_rank_nullity():
    rng = random.Random(13)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        basis = nullspace(m)
        assert rref(m).rank + basis.dim == cols
        for v in basis.vectors:
            assert all(x == 0 for x in m.apply(v))


def test_subspace_basis_is_reduced_echelon():
    rng = random.Random(14)
    for _ in range(15):
        vecs = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(rng.randint(1, 4))]
        basis = SubspaceBasis.from_vectors(5, vecs)
        assert list(basis.pivots) == sorted(basis.pivots)
        for r, p in enumerate(basis.pivots):
            assert basis.vectors[r][p] == 1
            for r2 in range(basis.dim):
                if r2 != r:
                    assert basis.vectors[r2][p] == 0


def test_column_space_identity():
    basis = column_space(Matrix.identity(2))
    assert basis.vectors == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_column_space_zero():
    assert column_space(Matrix.zero(3, 2)).dim == 0


def test_column_space_single_column():
    basis = column_space(Matrix.from_rows([[1], [2]]))
    assert basis.dim == 1
    assert basis.vectors[0] == (Fraction(1), Fraction(2))


def test_column_space_matches_independent_rank():
    rng = random.Random(15)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert column_space(m).dim == independent_rank(m.data)


def test_solve_consistent_and_inconsistent():
    m = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    x = solve(m, [2, 3, 5])
    assert x == (Fraction(2), Fraction(3))
    assert solve(m, [2, 3, 6]) is None


def test_matmul_matches_apply():
    rng = random.Random(16)
    a = random_matrix(rng, 4, 3)
    b = random_matrix(rng, 3, 5)
    prod = a @ b
    for j in range(5):
        assert prod.column(j) == a.apply(b.column(j))


def test_echelon_accumulator_filters_dependent():
    acc = EchelonAccumulator(3)
    assert acc.add([1, 1, 0])
    assert not acc.add([2, 2, 0])
    assert acc.add([0, 0, 1])
    assert acc.rank == 2


def test_matrix_immutable():
    m = Matrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
