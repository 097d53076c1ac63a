"""The dense reference: basis coordinates and operator matrices, for the tests only.

The package computes on sparse coefficient maps and builds no matrix; the
tests check its closed forms against dense elimination over the matrices
built here.  Each basis order is written once, below, and every matrix
column is the coordinate vector of the image of one basis element under
the package's own sparse operator: hamiltonian, or the kernels
_delta1_into, _boundary1_into and _boundary2_into run on {key: 1}.

    algebra, 0-chains   X^i Y^j in row-major order (i outermost)
    derivations         d_{i,j} (X |-> X^i Y^j), i >= 1, then d'_{i,j} (Y |-> X^i Y^j), j >= 1
    biderivations       f_{i,j} (X^Y |-> X^i Y^j), i, j >= 1
    1-chains            X^i Y^j dX, i <= a-2, then X^i Y^j dY, j <= b-2
    2-chains            X^i Y^j dX^dY, i <= a-2, j <= b-2

Within a block the exponents (i, j) run in lex order.
"""

from fractions import Fraction

from truncpoisson import AlgebraElement, Biderivation, ChainElement, Derivation, TruncParams, TwistParams
from truncpoisson.algebra import euler_dims
from truncpoisson.chain import DX, DY, _boundary1_into, _boundary2_into, omega2_indices, omega_dims
from truncpoisson.cochain import _delta1_into, chi1_index_pairs, hamiltonian
from truncpoisson.linalg import Matrix


def monomials(p: TruncParams) -> list[tuple[int, int]]:
    return list(p.monomials())


def omega1_indices(p: TruncParams) -> list[tuple[int, int, str]]:
    idx = [(i, j, DX) for i in range(p.a - 1) for j in range(p.b)]
    return idx + [(i, j, DY) for i in range(p.a) for j in range(p.b - 1)]


def chain_basis(p: TruncParams, degree: int) -> list:
    return (monomials, omega1_indices, omega2_indices)[degree](p)


def chi1_basis(p: TruncParams) -> list[Derivation]:
    d_pairs, dprime_pairs = chi1_index_pairs(p)
    basis = [Derivation.basis_d(p, i, j) for i, j in d_pairs]
    return basis + [Derivation.basis_dprime(p, i, j) for i, j in dprime_pairs]


def _maps(x) -> list:
    """x's coefficient maps, one per block of its basis (see _bases)."""
    if isinstance(x, Derivation):
        return [x.dx.coeffs, x.dy.coeffs]
    return [x.value.coeffs if isinstance(x, Biderivation) else x.coeffs]


def _bases(x) -> list:
    """The basis keys of each of x's coefficient maps, which give its coordinates in order."""
    p = x.params
    if isinstance(x, AlgebraElement):
        return [monomials(p)]
    if isinstance(x, ChainElement):
        return [chain_basis(p, x.degree)]
    if isinstance(x, Derivation):
        return list(chi1_index_pairs(p))
    if isinstance(x, Biderivation):
        return [[(i, j) for i in range(1, p.a) for j in range(1, p.b)]]
    raise TypeError(f"no basis for {x!r}")


def to_vector(x) -> tuple[Fraction, ...]:
    """The coordinates of an element, derivation, biderivation or chain in its basis."""
    return tuple(Fraction(coeffs.get(key, 0)) for coeffs, keys in zip(_maps(x), _bases(x)) for key in keys)


def chain_from_vector(p: TruncParams, degree: int, v) -> ChainElement:
    keys = chain_basis(p, degree)
    if len(v) != len(keys):
        raise ValueError("vector length does not match the form basis")
    return ChainElement(p, degree, dict(zip(keys, v)))


def _matrix(images: list, rows: int) -> Matrix:
    """The matrix whose columns are the coordinates of the images, which share one basis.

    Each column is filled from its image's nonzero coefficients, as
    Fractions (linalg's elimination divides with /), over one shared
    Fraction(0), and the basis's rows are numbered once: no column is
    written out in full, and no entry is read twice.
    """
    zero = Fraction(0)
    data = [[zero] * len(images) for _ in range(rows)]
    row_of, start = [], 0
    for keys in _bases(images[0]) if images else ():
        row_of.append({key: r for r, key in enumerate(keys, start)})
        start += len(keys)
    for col, x in enumerate(images):
        for coeffs, index in zip(_maps(x), row_of):
            for key, c in coeffs.items():
                data[index[key]][col] = Fraction(c)
    return Matrix._make(rows, len(images), tuple(map(tuple, data)))


def delta0_matrix(p: TruncParams) -> Matrix:
    """delta_0 from the monomials to the derivations."""
    images = [hamiltonian(AlgebraElement.monomial(p, i, j)) for i, j in p.monomials()]
    return _matrix(images, euler_dims(p).chi1)


def delta1_value(d: Derivation) -> AlgebraElement:
    """delta_1(d) evaluated on X^Y, by the kernel _delta1_into."""
    value: dict = {}
    _delta1_into(value, d.params, d.dx.coeffs, d.dy.coeffs)
    return AlgebraElement(d.params, value)


def delta1_matrix(p: TruncParams) -> Matrix:
    """delta_1 from the derivations to the biderivations."""
    return _matrix([Biderivation(p, delta1_value(d)) for d in chi1_basis(p)], euler_dims(p).chi2)


def boundary_map(p: TruncParams, degree: int, z, alpha, beta, scale: int = 1) -> dict:
    """scale * the boundary at the twist (alpha, beta) / scale of the degree-1 or 2 chain with coefficient map z.

    The kernels work on the pair of a 1-chain's dX and dY parts, maps on
    (i, j); here the 1-form keys (i, j, dX) and (i, j, dY) are split off or
    put back.
    """
    parts: tuple = ({}, {})
    if degree == 1:
        for (i, j, f), c in z.items():
            parts[f == DY][(i, j)] = c
        out: dict = {}
        _boundary1_into(out, p, alpha, beta, scale, *parts)
        return out
    _boundary2_into(*parts, p, alpha, beta, scale, z)
    return {(i, j, f): c for f, part in zip((DX, DY), parts) for (i, j), c in part.items()}


def partial1_matrix(p: TruncParams, t: TwistParams) -> Matrix:
    """The boundary from the 1-chains to the 0-chains."""
    images = [ChainElement(p, 0, boundary_map(p, 1, {key: 1}, t.alpha, t.beta)) for key in omega1_indices(p)]
    return _matrix(images, p.dim)


def partial2_matrix(p: TruncParams, t: TwistParams) -> Matrix:
    """The boundary from the 2-chains to the 1-chains."""
    images = [ChainElement(p, 1, boundary_map(p, 2, {key: 1}, t.alpha, t.beta)) for key in omega2_indices(p)]
    return _matrix(images, omega_dims(p)[1])
