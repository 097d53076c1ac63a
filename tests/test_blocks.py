"""The weight-block engines against the dense elimination they replaced.

dense_homology below is the dense algorithm over the full boundary matrices:
reduced-echelon images and kernels, non-pivot monomials in degree 0, kernel
vectors of b1 sieved greedily against Im(b2) in degree 1, the kernel of b2
in degree 2.  The block engine must reproduce it exactly, representatives
included, on every integer twist of a box around the lines where block
ranks drop (alpha = -l, beta = k), and on a generic rational twist.
"""

from fractions import Fraction

import pytest

from truncpoisson import (
    ChainElement,
    TruncParams,
    TwistParams,
    cohomology,
    column_space,
    delta0_matrix,
    delta1_matrix,
    euler_dims,
    homology,
    nullspace,
    partial1_matrix,
    partial2_matrix,
)
from truncpoisson.chain import omega1_indices
from truncpoisson.linalg import EchelonAccumulator

from oracles import independent_rank


def dense_homology(p: TruncParams, t: TwistParams):
    b1, b2 = partial1_matrix(p, t), partial2_matrix(p, t)
    im1, ker1 = column_space(b1), nullspace(b1)
    im2, ker2 = column_space(b2), nullspace(b2)
    pivots = set(im1.pivots)
    reps0 = tuple(
        ChainElement(p, 0, {ij: Fraction(1)})
        for n, ij in enumerate(p.monomials())
        if n not in pivots
    )
    sieve = EchelonAccumulator(len(omega1_indices(p)), seed=im2.vectors)
    reps1 = tuple(ChainElement.from_vector(p, 1, v) for v in ker1.vectors if sieve.add(v))
    reps2 = tuple(ChainElement.from_vector(p, 2, v) for v in ker2.vectors)
    dims = (p.dim - im1.dim, ker1.dim - im2.dim, ker2.dim)
    assert dims == (len(reps0), len(reps1), len(reps2))
    return dims, (im1.dim, im2.dim), (reps0, reps1, reps2)


def integer_twist_box(p: TruncParams):
    """Every integer twist in [-b-1, 2] x [-2, a+1]."""
    for alpha in range(-p.b - 1, 3):
        for beta in range(-2, p.a + 2):
            yield TwistParams(alpha, beta)


@pytest.mark.parametrize("a", range(2, 7))
@pytest.mark.parametrize("b", range(2, 7))
def test_block_homology_equals_dense(a, b):
    p = TruncParams(a, b)
    for t in [*integer_twist_box(p), TwistParams(Fraction(1, 2), Fraction(-3, 4))]:
        rep = homology(p, t)
        assert (rep.dims, rep.ranks, rep.representatives) == dense_homology(p, t), (a, b, t)
        bare = homology(p, t, include_reps=False)
        assert (bare.dims, bare.ranks, bare.representatives) == (rep.dims, rep.ranks, None)


def test_block_cohomology_ranks_equal_dense():
    for a in range(2, 13):
        for b in range(2, 13):
            p = TruncParams(a, b)
            chi = euler_dims(p)
            rank0 = independent_rank(delta0_matrix(p).data)
            rank1 = independent_rank(delta1_matrix(p).data)
            reports = [cohomology(p, k) for k in range(3)]
            assert [r.coboundary_rank for r in reports] == [0, rank0, rank1], (a, b)
            assert [r.cocycle_dim for r in reports] == [chi.chi0 - rank0, chi.chi1 - rank1, chi.chi2], (a, b)
