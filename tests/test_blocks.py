"""The closed-form engines against the block evaluation and the dense elimination.

Three paths give the same homology.  homology reads its answer off the
weights whose blocks carry classes.  block_homology below is the per-weight
block evaluation it replaced: it works out both b1 entries at every weight
and counts a class block wherever both vanish.  dense_homology is the dense
algorithm over the full boundary matrices: reduced-echelon images and
kernels, non-pivot monomials in degree 0, kernel vectors of b1 sieved
greedily against Im(b2) in degree 1, the kernel of b2 in degree 2.  They
must agree exactly, representatives included, on every integer twist of a
box around the lines where block ranks drop (alpha = -l, beta = k), and on
rational twists.  The cohomology ranks are checked the same three ways.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncpoisson import (
    AlgebraElement,
    ChainElement,
    Derivation,
    TruncParams,
    TwistParams,
    cohomology,
    column_space,
    duality_report,
    euler_dims,
    hamiltonian,
    homology,
    normalize_one_cocycle,
    nullspace,
)
from truncpoisson import cochain
from truncpoisson.chain import DX, DY
from truncpoisson.linalg import EchelonAccumulator

import dense
from dense import chain_from_vector
from oracles import independent_rank


def block_homology(p: TruncParams, alpha, beta):
    """Evaluate b1 = (-(l+alpha), k-beta) at every weight (k, l), k outermost.

    A block where an entry is nonzero adds to both ranks (b2 exists when
    k, l >= 1) and carries nothing; a block where both vanish carries one
    class per basis element, listed in basis order.  alpha and beta may be
    ints or Fractions.
    """
    rank1 = rank2 = 0
    h0 = h1 = h2 = 0
    reps0, reps1_dx, reps1_dy, reps2 = [], [], [], []
    one = Fraction(1)
    for k in range(p.a):
        for l in range(p.b):
            e_dx = -(l + alpha) if k else 0  # absent at k = 0
            e_dy = k - beta if l else 0  # absent at l = 0
            if e_dx or e_dy:
                rank1 += 1
                rank2 += bool(k and l)
                continue
            h0 += 1
            h1 += bool(k) + bool(l)
            h2 += bool(k and l)
            reps0.append(ChainElement(p, 0, {(k, l): one}))
            if k:
                reps1_dx.append(ChainElement(p, 1, {(k - 1, l, DX): one}))
            if l:
                reps1_dy.append(ChainElement(p, 1, {(k, l - 1, DY): one}))
            if k and l:
                reps2.append(ChainElement(p, 2, {(k - 1, l - 1): one}))
    reps = (tuple(reps0), tuple(reps1_dx + reps1_dy), tuple(reps2))
    return (h0, h1, h2), (rank1, rank2), reps


def block_cohomology_ranks(p: TruncParams) -> tuple[int, int]:
    """Count the weight blocks where delta_0 and delta_1 have a nonzero entry."""
    rank0 = rank1 = 0
    for _, _, d0, d1 in cochain._blocks(p, product(range(p.a), range(p.b))):
        rank0 += any(d0)
        rank1 += any(d1)
    return rank0, rank1


def closed_form(p: TruncParams, t: TwistParams):
    rep = homology(p, t)
    return rep.dims, rep.ranks, rep.representatives


def dense_homology(p: TruncParams, t: TwistParams):
    b1, b2 = dense.partial1_matrix(p, t), dense.partial2_matrix(p, t)
    im1, ker1 = column_space(b1), nullspace(b1)
    im2, ker2 = column_space(b2), nullspace(b2)
    pivots = set(im1.pivots)
    reps0 = tuple(
        ChainElement(p, 0, {ij: Fraction(1)})
        for n, ij in enumerate(p.monomials())
        if n not in pivots
    )
    sieve = EchelonAccumulator(len(dense.omega1_indices(p)), seed=im2.vectors)
    reps1 = tuple(chain_from_vector(p, 1, v) for v in ker1.vectors if sieve.add(v))
    reps2 = tuple(chain_from_vector(p, 2, v) for v in ker2.vectors)
    dims = (p.dim - im1.dim, ker1.dim - im2.dim, ker2.dim)
    assert dims == (len(reps0), len(reps1), len(reps2))
    return dims, (im1.dim, im2.dim), (reps0, reps1, reps2)


def integer_box(p: TruncParams):
    """Every integer (alpha, beta) in [-b-1, 2] x [-2, a+1]."""
    return product(range(-p.b - 1, 3), range(-2, p.a + 2))


def integer_twist_box(p: TruncParams):
    return (TwistParams(alpha, beta) for alpha, beta in integer_box(p))


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
            rank0 = independent_rank(dense.delta0_matrix(p).data)
            rank1 = independent_rank(dense.delta1_matrix(p).data)
            assert block_cohomology_ranks(p) == (rank0, rank1), (a, b)
            reports = [cohomology(p, k) for k in range(3)]
            assert [r.coboundary_rank for r in reports] == [0, rank0, rank1], (a, b)
            assert [r.cocycle_dim for r in reports] == [chi.chi0 - rank0, chi.chi1 - rank1, chi.chi2], (a, b)


def test_closed_form_homology_equals_block_evaluation():
    for a in range(2, 13):
        for b in range(2, 13):
            p = TruncParams(a, b)
            for alpha, beta in integer_box(p):
                t = TwistParams(alpha, beta)
                assert closed_form(p, t) == block_homology(p, alpha, beta), (a, b, t)


RATIONALS = st.fractions(min_value=-14, max_value=14, max_denominator=6)


@st.composite
def twisted_instances(draw, largest=12):
    """A size in 2..largest and a rational twist, often on a rank-drop line alpha = -l or beta = k."""
    p = TruncParams(draw(st.integers(2, largest)), draw(st.integers(2, largest)))
    alpha = draw(st.one_of(st.integers(-p.b, 1).map(Fraction), RATIONALS))
    beta = draw(st.one_of(st.integers(-1, p.a).map(Fraction), RATIONALS))
    return p, TwistParams(alpha, beta)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(twisted_instances())
def test_closed_form_homology_equals_block_evaluation_at_rational_twists(instance):
    p, t = instance
    assert closed_form(p, t) == block_homology(p, t.alpha, t.beta)
    bare = homology(p, t, include_reps=False)
    assert (bare.dims, bare.ranks, bare.representatives) == (*closed_form(p, t)[:2], None)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(twisted_instances(largest=5))
def test_closed_form_homology_equals_dense_at_rational_twists(instance):
    p, t = instance
    assert closed_form(p, t) == dense_homology(p, t)


def test_no_command_scans_all_weight_blocks(monkeypatch):
    """At a = b = 10**5 a scan of all ab blocks would not finish; the closed forms need none."""

    def refuse(*args):
        raise AssertionError("walked the weight blocks")

    monkeypatch.setattr(cochain, "_blocks", refuse)
    a = b = 10**5
    p = TruncParams(a, b)
    assert [cohomology(p, k).dimension for k in range(4)] == [2, 2, 1, 0]
    expected = {
        TwistParams.trivial(): (a + b - 1, a + b - 2, 0),
        TwistParams.nakayama(p): (2, 2, 1),
        TwistParams(0, a - 1): (a, a - 1, 0),
        TwistParams(1 - b, 0): (b, b - 1, 0),
        TwistParams(Fraction(1, 2), Fraction(-3, 4)): (1, 0, 0),
    }
    for t, dims in expected.items():
        rep = homology(p, t, include_reps=False)
        assert rep.dims == dims, t
        assert rep.ranks == (a * b - dims[0], (a - 1) * (b - 1) - dims[2]), t
    report = duality_report(p)
    assert report.nakayama_duality_holds and report.poincare_duality_fails
    assert (report.euler_cochain, report.euler_chain) == (1, 1)

    monkeypatch.undo()
    x, y = AlgebraElement.gen_x(p), AlgebraElement.gen_y(p)
    lam = x * x * y + y * y * y
    d = Derivation.basis_d(p, 1, 0).scale(3) + hamiltonian(lam)
    res = normalize_one_cocycle(d)
    assert (res.c10, res.c01, res.potential) == (3, 0, lam)
