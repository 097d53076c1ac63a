"""Contraction of twisted chains by cochains: HP_*(A_t) as a module over HP^*, at every twist.

A cochain P of degree |P| contracts a chain into one of degree |P| lower:

    by a function f:      each form's coefficient m -> f*m, in every degree
    by a derivation D:    m dX + n dY -> m*D(X) + n*D(Y),   m dX^dY -> m*D(X) dY - m*D(Y) dX
    by a biderivation B:  m dX^dY -> m*B(X, Y)

written here on the package's multiply, with the terms off the form basis
dropped: X^(a-1) dX and Y^(b-1) dY are zero forms, since d(X^a) = a X^(a-1)
dX, and X^(a-1) D(X) = 0 for every derivation, so the contraction is well
defined on them.  For a cocycle P, iota_P is a chain map of degree -|P| for
the boundary at every twist t = (alpha, beta):

    boundary_t . iota_P = (-1)^|P| iota_P . boundary_t.

The twist adds to the boundary the contraction by the derivation V = -alpha
X d/dX - beta Y d/dY, read off the block entries -(l+alpha) and k-beta, and
contractions graded-commute, so the identity at t = 0 carries to every t.
So HP_*(A_t) is a module over the ring HP^*, whose classes 1, t, v, w, m
are cohomology's representatives; the boundary is tests/dense.boundary_map,
the package's kernels.  dim M_k - dim (I*M)_k, with I spanned by t, v, w and
m, counts the module's generators in degree k.  At the Nakayama twist nu =
(1-b, a-1), where HP_k(A_nu) is dual to HP^k, the counts are (1, 0, 1): the
dual of the ring is generated by the duals of its socle t and m.

Under tests/test_duality_pairing.py's pairing of cochains with chains, cup
and contraction are adjoint: <Q cup P, c> = (-1)^(|P||Q|) <Q, iota_P c>.
So at nu, where the pairing of cohomology's and homology's representatives
is a permutation matrix, contraction by a class acts on the dual basis of
HP_*(A_nu) by the transpose of the product by that class in HP^*.
"""

import random
from fractions import Fraction

import pytest

from truncpoisson import AlgebraElement, Biderivation, Derivation, TruncParams, TwistParams, cohomology, cup
from truncpoisson import fibre_product_table, homology, multiply
from truncpoisson.chain import DX, DY
from truncpoisson.cochain import chi1_index_pairs, cochain_degree, hamiltonian

import dense
from test_duality_pairing import by_form, cochain_keys, keyed, pairing

SIZES = [TruncParams(a, b) for a in range(2, 6) for b in range(2, 6)]
IDS = [f"{p.a}x{p.b}" for p in SIZES]
RATIONAL = TwistParams(Fraction(1, 3), Fraction(-2, 5))


def named_twists(p: TruncParams) -> dict:
    return {
        "trivial": TwistParams.trivial(),
        "nakayama": TwistParams.nakayama(p),
        "rational": RATIONAL,
        "x_line": TwistParams(0, 1),
        "y_line": TwistParams(1 - p.b, 0),
    }


def box(p: TruncParams) -> list:
    """The integer twists alpha in [1-b, 0], beta in [0, a-1]: where the entries -(l+alpha) and k-beta vanish."""
    return [TwistParams(alpha, beta) for alpha in range(1 - p.b, 1) for beta in range(p.a)]


def contract(P, k: int, z: dict) -> dict:
    """iota_P of the degree-k chain with coefficient map z: a chain map of degree k - |P|, {} below 0."""
    p, d = P.params, cochain_degree(P)
    if k < d:
        return {}
    split: dict = {}
    for key, c in z.items():
        split.setdefault(key[2] if k == 1 else "", {})[key[:2]] = c
    part = {form: AlgebraElement(p, m) for form, m in split.items()}
    zero = AlgebraElement.zero(p)
    if d == 0:
        images = {form: multiply(P, u) for form, u in part.items()}
    elif d == 2:
        images = {"": multiply(part.get("", zero), P.value)}
    elif k == 1:
        images = {"": multiply(part.get(DX, zero), P.dx) + multiply(part.get(DY, zero), P.dy)}
    else:
        u = part.get("", zero)
        images = {DY: multiply(u, P.dx), DX: -multiply(u, P.dy)}
    basis = set(dense.chain_basis(p, k - d))
    keyed = {(*ij, form) if k - d == 1 else ij: c for form, u in images.items() for ij, c in u.coeffs.items()}
    return {key: c for key, c in keyed.items() if key in basis}


def contractions(P) -> list:
    """iota_P of each basis chain, by degree: [{key: image}] for the degrees 0, 1 and 2."""
    return [{key: contract(P, k, {key: 1}) for key in dense.chain_basis(P.params, k)} for k in range(3)]


def axpy(u: dict, c, v: dict) -> dict:
    """u + c*v, without zeros."""
    out = dict(u)
    for key, x in v.items():
        y = out.get(key, 0) + c * x
        if y:
            out[key] = y
        else:
            out.pop(key, None)
    return out


def apply(images: dict, z: dict) -> dict:
    """The linear map with the basis images `images` applied to the map z."""
    out: dict = {}
    for key, c in z.items():
        out = axpy(out, c, images.get(key, {}))
    return out


def kernel(images: dict) -> list:
    """A basis of the kernel of the linear map sending each basis key to its image, by sparse elimination."""
    rows, basis = {}, []
    for key, image in images.items():
        v, pre = image, {key: 1}
        for pivot, (row, row_pre) in rows.items():
            if v.get(pivot):
                c = -v[pivot]
                v, pre = axpy(v, c, row), axpy(pre, c, row_pre)
        if v:
            pivot = next(iter(v))
            c = Fraction(1) / v[pivot]
            rows[pivot] = ({e: c * x for e, x in v.items()}, {e: c * x for e, x in pre.items()})
        else:
            basis.append(pre)
    return basis


def rank(vectors: list) -> int:
    """The rank of the span of the maps: the images of the identity, less the kernel."""
    return len(vectors) - len(kernel(dict(enumerate(vectors))))


class Complex:
    """The twisted chains of one size and twist, each degree's boundary and contractions as basis images."""

    def __init__(self, p: TruncParams, t: TwistParams):
        self.basis = [dense.chain_basis(p, k) for k in range(3)]
        self.boundary = [{}] + [
            {key: dense.boundary_map(p, k, {key: 1}, t.alpha, t.beta) for key in self.basis[k]} for k in (1, 2)
        ]

    def graded_commutator(self, P, iota: list) -> list:
        """The basis chains (k, c) where boundary(iota_P c) != (-1)^|P| iota_P(boundary c); iota is contractions(P)."""
        d, bad = cochain_degree(P), []
        for k in range(3):
            lower = self.boundary[k - d] if k >= d else {}
            for key in self.basis[k]:
                left = apply(lower, iota[k][key])
                right = apply(iota[k - 1], self.boundary[k][key]) if k else {}
                if left != {e: (-1) ** d * c for e, c in right.items()}:
                    bad.append((k, key))
        return bad

    def generator_counts(self, ideal: list) -> tuple:
        """dim M_k - dim (I*M)_k for k = 0, 1, 2: M the homology, I spanned by the cocycles in ideal."""
        contracted = [(P, contractions(P)) for P in ideal]
        cycles = [[{key: 1} for key in self.basis[0]]] + [kernel(self.boundary[k]) for k in (1, 2)]
        boundaries = [list(self.boundary[k + 1].values()) if k < 2 else [] for k in range(3)]
        counts = []
        for k in range(3):
            spanned = list(boundaries[k])
            for P, iota in contracted:
                j = k + cochain_degree(P)
                spanned += [apply(iota[j], z) for z in cycles[j]] if j <= 2 else []
            counts.append(len(cycles[k]) - rank(spanned))
        return tuple(counts)


def moved(p: TruncParams) -> list:
    """v, w and m, each moved by a seeded coboundary: delta_0 of an element, delta_1 of a derivation."""
    rng = random.Random(f"calculus:{p.a}:{p.b}")

    def draw(keys) -> AlgebraElement:
        return AlgebraElement(p, {ij: rng.randint(-3, 3) for ij in keys})

    _, _, v, w, m = reps(p)
    shift = hamiltonian(draw(p.monomials()))
    D = Derivation(p, *map(draw, chi1_index_pairs(p)))
    return [
        Derivation(p, v.dx + shift.dx, v.dy + shift.dy),
        Derivation(p, w.dx - shift.dx, w.dy - shift.dy),
        Biderivation(p, m.value + dense.delta1_value(D)),
    ]


def reps(p: TruncParams) -> list:
    """The cocycles 1, t, v, w, m behind the five classes of HP^*."""
    return [x for k in range(3) for x in cohomology(p, k).representatives]


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_contraction_by_a_cocycle_graded_commutes_with_the_boundary_at_every_twist(p):
    # the box holds the trivial twist, nu, (0, 1) and (1-b, 0)
    cocycles = [(P, contractions(P)) for P in reps(p) + moved(p)]
    for t in [RATIONAL, *box(p)]:
        complex_ = Complex(p, t)
        for P, iota in cocycles:
            assert complex_.graded_commutator(P, iota) == [], (t, P)


@pytest.mark.parametrize("p", [p for p in SIZES if p.a >= 3], ids=[i for p, i in zip(SIZES, IDS) if p.a >= 3])
def test_contraction_by_a_non_cocycle_does_not_commute(p):
    # X -> X^2 is a derivation (X^(a-1) X^2 = 0) but not a Poisson one: it breaks the chain map at every twist
    square = Derivation(p, AlgebraElement.monomial(p, 2, 0), AlgebraElement.zero(p))
    iota = contractions(square)
    for name, t in named_twists(p).items():
        assert Complex(p, t).graded_commutator(square, iota) != [], name


@pytest.mark.parametrize("p", SIZES, ids=IDS)
def test_generator_counts_of_the_homology_module(p):
    a, b = p.a, p.b
    expected = {
        "nakayama": (1, 0, 1),
        "trivial": (1, a + b - 2, 0),
        "x_line": (1, a - 1, 0),
        "y_line": (1, b - 1, 0),
        "rational": (1, 0, 0),
    }
    ideal = reps(p)[1:]
    for name, t in named_twists(p).items():
        assert Complex(p, t).generator_counts(ideal) == expected[name], name


PAIRING_SIZES = [TruncParams(a, b) for a in range(2, 5) for b in range(2, 5)]
PAIRING_IDS = [f"{p.a}x{p.b}" for p in PAIRING_SIZES]


def pairing_table(p: TruncParams, k: int) -> dict:
    """{cochain key: {chain key: <e, c>}} on the degree-k bases, nonzero values: test_duality_pairing's pairing."""
    chains = [(c, by_form(p, {c: 1})) for c in dense.chain_basis(p, k)]
    return {e: {c: x for c, chain in chains if (x := pairing(by_form(p, {e: 1}), chain))} for e in cochain_keys(p, k)}


def transpose(table: dict) -> dict:
    """{chain key: {cochain key: <e, c>}} from pairing_table's {cochain key: {chain key: <e, c>}}."""
    out: dict = {}
    for e, row in table.items():
        for c, x in row.items():
            out.setdefault(c, {})[e] = x
    return out


def pair(table: dict, phi: dict, z: dict) -> Fraction:
    """<phi, z> for a cochain and a chain of one degree as keyed maps, from that degree's pairing_table."""
    return sum((x * z.get(c, 0) for c, x in apply(table, phi).items()), Fraction(0))


def basis_cochains(p: TruncParams) -> list:
    """The cochain bases by degree: the monomials, d_{i,j} and d'_{i,j}, and f_{i,j}."""
    return [
        [AlgebraElement.monomial(p, i, j) for i, j in p.monomials()],
        dense.chi1_basis(p),
        [Biderivation.basis_f(p, i, j) for i in range(1, p.a) for j in range(1, p.b)],
    ]


@pytest.mark.parametrize("p", PAIRING_SIZES, ids=PAIRING_IDS)
def test_cup_and_contraction_are_adjoint_under_the_pairing(p):
    """<Q cup P, c> = (-1)^(|P||Q|) <Q, iota_P c> for basis cochains P, Q with |P| + |Q| <= 2 and basis chains c.

    With a function f as P or Q, cup is the product by f and iota_f the
    product of each form's coefficient by f, so both sides are the same
    sum: eps(f*g*m) in degree 0, eps(m*f*D(X)) + eps(n*f*D(Y)) on m dX + n
    dY, and eps(m*f*B(X, Y)) on m dX^dY.  The sign is +.  With two
    derivations, c = m dX^dY: iota_P c = m P(X) dY - m P(Y) dX, so <Q,
    iota_P c> = eps(m*(P(X) Q(Y) - P(Y) Q(X))), while cup's convention
    (Q cup P)(X, Y) = Q(X) P(Y) - Q(Y) P(X) gives <Q cup P, c> the opposite
    value: the sign is -1 = (-1)^(1*1).  The pairing and the contraction
    take no twist, so this holds for the chains of A_nu as of every A_t.
    """
    basis = basis_cochains(p)
    tables = [pairing_table(p, k) for k in range(3)]
    by_chain = [transpose(table) for table in tables]
    for P in (P for degree in basis for P in degree):
        dp, iota = cochain_degree(P), contractions(P)
        for dq in range(3 - dp):
            k, sign = dp + dq, (-1) ** (dp * dq)
            # {q: {c: sign * <e_q, iota_P c>}} over the basis cochains e_q of degree dq
            right: dict = {}
            for c in dense.chain_basis(p, k):
                for q, x in apply(by_chain[dq], iota[k][c]).items():
                    right.setdefault(q, {})[c] = sign * x
            for Q in basis[dq]:
                (q,) = keyed(Q)
                assert apply(tables[k], keyed(cup(Q, P))) == right.get(q, {}), (P, Q)


@pytest.mark.parametrize("p", PAIRING_SIZES, ids=PAIRING_IDS)
def test_contraction_table_at_nu_is_the_transpose_of_the_ring_table(p):
    """iota of the class e_i on the dual of e_s is sum_l T[i][l][s] times the dual of e_l, T = fibre_product_table().

    The dual of e_s is the representative of homology(p, nu) that pairs to
    1 with e_s and to 0 with the other classes of its degree.  The
    coordinates of iota_(e_i) of it are read by the pairing, and its
    difference from their sum is checked to be a boundary at nu.  By the
    adjunction above, <e_l, iota_(e_i) c> = (-1)^(|e_i||e_l|) <e_l cup e_i,
    c>, which is T[l][i][s] up to that sign on the dual c of e_s, and
    T[i][l][s] by graded commutativity: contraction is the transpose of the
    product, under the pairing's permutation of the representatives.
    """
    nu, table = TwistParams.nakayama(p), fibre_product_table()
    classes = reps(p)
    degrees = [cochain_degree(e) for e in classes]
    tables = [pairing_table(p, k) for k in range(3)]
    boundary = Complex(p, nu).boundary
    boundaries = [list(boundary[k + 1].values()) if k < 2 else [] for k in range(3)]
    chain_reps = homology(p, nu).representatives
    picks = []
    for e, k in zip(classes, degrees):
        values = [pair(tables[k], keyed(e), keyed(h)) for h in chain_reps[k]]
        assert sorted(values) == [0] * (len(values) - 1) + [1], e
        picks.append((k, values.index(1)))
    assert len(set(picks)) == len(classes)  # a permutation of the representatives
    dual = [keyed(chain_reps[k][n]) for k, n in picks]
    for i, P in enumerate(classes):
        iota = contractions(P)
        for s, c in enumerate(dual):
            k = degrees[s] - degrees[i]
            z = apply(iota[degrees[s]], c) if k >= 0 else {}
            coordinates = [pair(tables[k], keyed(e), z) if degrees[l] == k else 0 for l, e in enumerate(classes)]
            assert coordinates == [table[i][l][s] for l in range(len(classes))], (i, s)
            rest = z
            for l, x in enumerate(coordinates):
                rest = axpy(rest, -x, dual[l])
            assert not rest or rank(boundaries[k] + [rest]) == rank(boundaries[k]), (i, s)
