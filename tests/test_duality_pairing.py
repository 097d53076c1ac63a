"""The duality of the paper as a perfect pairing of complexes, at the trivial cochain twist.

eps, the Frobenius form of A = C[X,Y]/(X^a, Y^b), is the coefficient of
X^(a-1) Y^(b-1).  It pairs the cochains with the chains, degree by degree:

    <lam, m>                         = eps(lam*m)
    <D, m dX> = eps(m*D(X)),  <D, m dY> = eps(m*D(Y))
    <B, m dX^dY>                     = eps(m*B(X,Y))

On the monomial bases each pairing is a permutation matrix, and the
coboundary of the cochains (values in A) is the exact adjoint of the
boundary of the chains with values in A_nu, nu = (1-b, a-1):
<delta phi, c> = <phi, boundary_nu c> on every basis pair, with no sign.
nu is minus the coordinates of the modular derivation (b-1) v - (a-1) w of
(A, eps), since eps({X, u}) = (b-1) eps(X*u) and eps({Y, u}) = -(a-1)
eps(Y*u); at the trivial twist the adjoint identity fails.  So HP^k(A) is
dual to HP_k(A; A_nu), and the pairing of cohomology's representatives with
those of homology(p, nu) shows it class by class.

Only the package's operators are used: hamiltonian and delta1_apply for
delta, chain.boundary, bracket and multiply.
"""

from fractions import Fraction

import pytest

from truncpoisson import (
    AlgebraElement,
    Biderivation,
    ChainElement,
    Derivation,
    TruncParams,
    TwistParams,
    bracket,
    cohomology,
    homology,
    multiply,
)
from truncpoisson.chain import DX, DY, boundary
from truncpoisson.cochain import delta1_apply, hamiltonian

import dense

SIZES = [TruncParams(a, b) for a in range(2, 7) for b in range(2, 7)]
IDS = [f"{p.a}x{p.b}" for p in SIZES]


def eps(u: AlgebraElement) -> Fraction:
    """The Frobenius form: the coefficient of X^(a-1) Y^(b-1)."""
    return u.coefficient(u.params.a - 1, u.params.b - 1)


def values(phi) -> list:
    """A cochain's values: [lam] in degree 0, [D(X), D(Y)] in degree 1, [B(X, Y)] in degree 2."""
    if isinstance(phi, Derivation):
        return [phi.dx, phi.dy]
    return [phi.value] if isinstance(phi, Biderivation) else [phi]


def coefficients(c: ChainElement) -> list:
    """A chain's coefficients: [m] in degrees 0 and 2, [m_X, m_Y] of m_X dX + m_Y dY in degree 1."""
    if c.degree != 1:
        return [AlgebraElement(c.params, c.coeffs)]
    by_form = {DX: {}, DY: {}}
    for (i, j, f), x in c.coeffs.items():
        by_form[f][(i, j)] = x
    return [AlgebraElement(c.params, by_form[DX]), AlgebraElement(c.params, by_form[DY])]


def pairing(phi, parts: list) -> Fraction:
    """<phi, c> for the chain c with coefficients(c) = parts."""
    return sum((eps(multiply(m, v)) for m, v in zip(parts, values(phi))), Fraction(0))


def cochain_basis(p: TruncParams, k: int) -> list:
    if k == 0:
        return [AlgebraElement.monomial(p, i, j) for i, j in p.monomials()]
    if k == 1:
        return dense.chi1_basis(p)
    return [Biderivation.basis_f(p, i, j) for i in range(1, p.a) for j in range(1, p.b)]


def chain_basis(p: TruncParams, k: int) -> list:
    return [ChainElement(p, k, {key: 1}) for key in dense.chain_basis(p, k)]


def is_permutation_matrix(rows: list) -> bool:
    square = all(len(row) == len(rows) for row in rows)
    unit = [0] * (len(rows) - 1) + [1]
    return square and all(sorted(line) == unit for line in [*rows, *zip(*rows)])


def adjoint_mismatches(p: TruncParams, t: TwistParams):
    """Yield the basis pairs (phi, c) where <delta phi, c> != <phi, boundary_t c>, in degrees 0 and 1."""
    for k, delta in ((0, hamiltonian), (1, delta1_apply)):
        chains = [(c, coefficients(c), coefficients(boundary(t, c))) for c in chain_basis(p, k + 1)]
        for phi in cochain_basis(p, k):
            image = delta(phi)
            yield from ((phi, c) for c, parts, boundary_parts in chains
                        if pairing(image, parts) != pairing(phi, boundary_parts))


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_each_pairing_is_a_permutation_matrix_on_the_monomial_bases(p):
    for k in range(3):
        chains = [coefficients(c) for c in chain_basis(p, k)]
        assert is_permutation_matrix([[pairing(phi, c) for c in chains] for phi in cochain_basis(p, k)]), k


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_coboundary_is_the_adjoint_of_the_boundary_at_nu(p):
    assert list(adjoint_mismatches(p, TwistParams.nakayama(p))) == []


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_adjoint_identity_fails_at_the_trivial_twist(p):
    assert next(adjoint_mismatches(p, TwistParams.trivial()), None)


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_representatives_pair_as_a_permutation_matrix(p):
    chain_reps = homology(p, TwistParams.nakayama(p)).representatives
    for k in range(3):
        cochain_reps = cohomology(p, k).representatives
        chains = [coefficients(c) for c in chain_reps[k]]
        assert is_permutation_matrix([[pairing(phi, c) for c in chains] for phi in cochain_reps]), k


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_modular_derivation_is_b_minus_1_v_minus_a_minus_1_w(p):
    x, y = AlgebraElement.gen_x(p), AlgebraElement.gen_y(p)
    for u in cochain_basis(p, 0):
        assert eps(bracket(x, u)) == (p.b - 1) * eps(multiply(x, u)), u
        assert eps(bracket(y, u)) == -(p.a - 1) * eps(multiply(y, u)), u
