"""The duality of the paper as a perfect pairing of complexes, at every twist.

eps, the Frobenius form of A = C[X,Y]/(X^a, Y^b), is the coefficient of
X^(a-1) Y^(b-1).  It pairs the cochains with the chains, degree by degree:

    <lam, m>                         = eps(lam*m)
    <D, m dX> = eps(m*D(X)),  <D, m dY> = eps(m*D(Y))
    <B, m dX^dY>                     = eps(m*B(X,Y))

On the monomial bases each pairing is a permutation matrix: it pairs the
basis element at (i, j) with the one of the same form at (a-1-i, b-1-j).
Let A_t be A with the twist t = (alpha, beta): {X, m}_t = (l + alpha) X*m
and {Y, m}_t = -(k - beta) Y*m for m = X^k Y^l.  The coboundary of the
cochains with values in A_t is the exact adjoint of the boundary of the
chains with values in A_(nu-t), nu = (1-b, a-1): <delta_t phi, c> =
<phi, boundary_(nu-t) c> on every basis pair, with no sign.  Block by
block, the cochain block of t at (k, l), delta_0 = (l + alpha, -(k - beta))
and delta_1 = (k - beta, l + alpha), has the entries of the chain block of
nu - t at (a-1-k, b-1-l); at t = 0 they are (l, -k) and (k, l).  Only where
2t = nu are the chains of t adjoint to the cochains of t.  nu is minus the
coordinates of the modular derivation (b-1) v - (a-1) w of (A, eps), since
eps({X, u}) = (b-1) eps(X*u) and eps({Y, u}) = -(a-1) eps(Y*u).  So HP^k(A)
is dual to HP_k(A; A_nu), and the pairing of cohomology's representatives
with those of homology(p, nu) shows it class by class.

Cochains and chains are coefficient maps on the basis keys: (i, j) for a
monomial, a biderivation f_{i,j} and a 2-chain, and (i, j, dX) or (i, j, dY)
for a derivation d_{i,j} or d'_{i,j} and for a 1-chain.  The twisted
coboundaries are built here on algebra._shift_into and agree at t = 0 with
hamiltonian and the kernel _delta1_into; the boundary runs the package's
kernels through dense.boundary_map.
"""

import functools
import random
from fractions import Fraction

import pytest

from truncpoisson import AlgebraElement, Biderivation, Derivation, TruncParams, TwistParams, bracket, cohomology
from truncpoisson import homology, multiply
from truncpoisson.algebra import _shift_into
from truncpoisson.chain import DX, DY
from truncpoisson.cochain import chi1_index_pairs, hamiltonian

import dense

SIZES = [TruncParams(a, b) for a in range(2, 7) for b in range(2, 7)]
IDS = [f"{p.a}x{p.b}" for p in SIZES]


def eps(u: AlgebraElement) -> Fraction:
    """The Frobenius form: the coefficient of X^(a-1) Y^(b-1)."""
    return u.coefficient(u.params.a - 1, u.params.b - 1)


def reflect(p: TruncParams, key: tuple) -> tuple:
    return (p.a - 1 - key[0], p.b - 1 - key[1], *key[2:])


def cochain_keys(p: TruncParams, k: int) -> list:
    if k == 0:
        return list(p.monomials())
    if k == 1:
        d_pairs, dprime_pairs = chi1_index_pairs(p)
        return [(i, j, DX) for i, j in d_pairs] + [(i, j, DY) for i, j in dprime_pairs]
    return [(i, j) for i in range(1, p.a) for j in range(1, p.b)]


def keyed(x) -> dict:
    """The coefficient map of an element, derivation, biderivation or chain on the keys above."""
    if isinstance(x, Derivation):
        return {(i, j, f): c for f, v in ((DX, x.dx), (DY, x.dy)) for (i, j), c in v.coeffs.items()}
    return dict((x.value if isinstance(x, Biderivation) else x).coeffs)


def by_form(p: TruncParams, x: dict) -> dict:
    """x as one element per form: () alone in degrees 0 and 2, (dX,) and (dY,) in degree 1."""
    parts: dict = {}
    for key, c in x.items():
        parts.setdefault(key[2:], {})[key[:2]] = c
    return {form: AlgebraElement(p, m) for form, m in parts.items()}


def pairing(phi: dict, c: dict) -> Fraction:
    """<phi, c> for the cochain and chain as by_form gives them."""
    return sum((eps(multiply(m, phi[form])) for form, m in c.items() if form in phi), Fraction(0))


def coboundary(p: TruncParams, t: TwistParams, k: int, phi: dict) -> dict:
    """delta_t of the degree-k cochain phi, k = 0 or 1, as two shifts with the entries above."""
    if k == 0:
        dx: dict = {}
        dy: dict = {}
        _shift_into(dx, p, phi, "X", t.alpha, 1)
        _shift_into(dy, p, phi, "Y", t.beta, -1)
        return {(i, j, f): c for f, m in ((DX, dx), (DY, dy)) for (i, j), c in m.items()}
    value: dict = {}
    _shift_into(value, p, {key[:2]: c for key, c in phi.items() if key[2] == DY}, "X", t.alpha - 1, 1)
    _shift_into(value, p, {key[:2]: c for key, c in phi.items() if key[2] == DX}, "Y", -t.beta - 1, 1)
    return value


def twists(p: TruncParams) -> list:
    """The integer box, where a block entry of t or of nu - t vanishes, nu / 2, and seeded rationals."""
    rng = random.Random(f"twists:{p.a}:{p.b}")
    r, s = (Fraction(rng.randint(-20, 20), rng.randint(2, 7)) for _ in range(2))
    box = [TwistParams(alpha, beta) for alpha in range(1 - p.b, 1) for beta in range(p.a)]
    half_nu = TwistParams(Fraction(1 - p.b, 2), Fraction(p.a - 1, 2))
    return box + [TwistParams(0, r), TwistParams(s, 0), TwistParams(r, s), half_nu]


def nu_minus(p: TruncParams, t: TwistParams) -> TwistParams:
    return TwistParams(1 - p.b - t.alpha, p.a - 1 - t.beta)


@functools.lru_cache(maxsize=None)
def coboundaries(p: TruncParams, t: TwistParams) -> dict:
    """delta_t of each basis cochain of degree 0 and 1: {(k, key): image}."""
    return {(k, key): coboundary(p, t, k, {key: 1}) for k in (0, 1) for key in cochain_keys(p, k)}


@functools.lru_cache(maxsize=None)
def boundaries(p: TruncParams, s: TwistParams) -> dict:
    """boundary_s of each basis chain of degree 1 and 2: {(k, key): image}."""
    keys = [(k, key) for k in (1, 2) for key in dense.chain_basis(p, k)]
    return {(k, key): dense.boundary_map(p, k, {key: 1}, s.alpha, s.beta) for k, key in keys}


def adjoint_mismatches(p: TruncParams, t: TwistParams, s: TwistParams) -> list:
    """The basis pairs (phi, c) in degrees 0 and 1 where <delta_t phi, c> != <phi, boundary_s c>.

    The pairing is the reflection (tested below), so <delta_t phi, c> is the
    coefficient of delta_t phi at reflect(c), and <phi, boundary_s c> that
    of boundary_s c at reflect(phi).
    """
    left = {(k, phi, reflect(p, e)): x for (k, phi), image in coboundaries(p, t).items() for e, x in image.items()}
    right = {(k - 1, reflect(p, e), c): y for (k, c), image in boundaries(p, s).items() for e, y in image.items()}
    return [pair for pair in left.keys() | right.keys() if left.get(pair) != right.get(pair)]


def is_permutation_matrix(rows: list) -> bool:
    square = all(len(row) == len(rows) for row in rows)
    unit = [0] * (len(rows) - 1) + [1]
    return square and all(sorted(line) == unit for line in [*rows, *zip(*rows)])


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_each_pairing_is_a_permutation_matrix_on_the_monomial_bases(p):
    for k in range(3):
        chains = [(key, by_form(p, {key: 1})) for key in dense.chain_basis(p, k)]
        for phi in cochain_keys(p, k):
            form = by_form(p, {phi: 1})
            assert [pairing(form, c) for _, c in chains] == [int(key == reflect(p, phi)) for key, _ in chains], phi


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_the_twisted_coboundaries_at_zero_are_the_packages(p):
    t = TwistParams.trivial()
    for i, j in p.monomials():
        assert coboundary(p, t, 0, {(i, j): 1}) == keyed(hamiltonian(AlgebraElement.monomial(p, i, j)))
    for d in dense.chi1_basis(p):
        assert coboundary(p, t, 1, keyed(d)) == keyed(dense.delta1_value(d))


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_coboundary_of_t_is_the_adjoint_of_the_boundary_of_nu_minus_t(p):
    for t in twists(p):
        assert adjoint_mismatches(p, t, nu_minus(p, t)) == [], t


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_boundary_of_t_is_adjoint_to_the_coboundary_of_t_only_where_2t_is_nu(p):
    for t in twists(p):
        assert (adjoint_mismatches(p, t, t) == []) == (t == nu_minus(p, t)), t


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_cochain_block_of_t_is_the_chain_block_of_nu_minus_t_reflected(p):
    for t in twists(p):
        delta, chain = coboundaries(p, t), boundaries(p, nu_minus(p, t))
        for k, l in p.monomials():
            d, dprime, f = (k + 1, l, DX), (k, l + 1, DY), (k + 1, l + 1)
            delta0 = tuple(delta[0, (k, l)].get(e, 0) for e in (d, dprime))
            delta1 = tuple(delta.get((1, e), {}).get(f, 0) for e in (d, dprime))
            has_d, has_dprime = k <= p.a - 2, l <= p.b - 2
            assert delta0 == (l + t.alpha if has_d else 0, -(k - t.beta) if has_dprime else 0)
            assert delta1 == ((k - t.beta, l + t.alpha) if has_d and has_dprime else (0, 0))
            kk, ll = p.a - 1 - k, p.b - 1 - l
            forms = (kk - 1, ll, DX), (kk, ll - 1, DY)
            b1 = tuple(chain.get((1, e), {}).get((kk, ll), 0) for e in forms)
            b2 = tuple(chain.get((2, (kk - 1, ll - 1)), {}).get(e, 0) for e in forms)
            assert (delta0, delta1) == (b1, b2), (t, k, l)


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_representatives_pair_as_a_permutation_matrix(p):
    chain_reps = homology(p, TwistParams.nakayama(p)).representatives
    for k in range(3):
        chains = [by_form(p, keyed(c)) for c in chain_reps[k]]
        rows = [[pairing(by_form(p, keyed(phi)), c) for c in chains] for phi in cohomology(p, k).representatives]
        assert is_permutation_matrix(rows), k


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_modular_derivation_is_b_minus_1_v_minus_a_minus_1_w(p):
    x, y = AlgebraElement.gen_x(p), AlgebraElement.gen_y(p)
    for i, j in p.monomials():
        u = AlgebraElement.monomial(p, i, j)
        assert eps(bracket(x, u)) == (p.b - 1) * eps(multiply(x, u)), u
        assert eps(bracket(y, u)) == -(p.a - 1) * eps(multiply(y, u)), u
