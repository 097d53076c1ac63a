"""The Gerstenhaber side of HP*: the Schouten bracket of the five classes.

A multiderivation is written as a polynomial in two odd variables,
xi = d/dX and eta = d/dY: a function f, a derivation e*xi + g*eta, a
biderivation q*xi*eta.  The Schouten bracket is then one formula for every
pair of degrees,

    [P, Q] = sum over i of (P d/dxi_i) (d/dx_i Q) - (d/dx_i P) (d/dxi_i Q),

with the odd derivative taken from the right on P and from the left on Q,
the even one the partial derivative of the coefficients, and the products
through multiply.  It has degree -1, and [m, -] with m = XY xi*eta, the
Poisson bivector, is the package's coboundary, which fixes the signs; with
the package's cup it satisfies the Poisson rule of a Gerstenhaber algebra.

A bracket of cocycles is reduced to class coordinates through the dense
reference (tests/dense.py): one elimination over the degree's class
representatives, the coboundaries into that degree and the brackets.  No
package solve, such as cochain._normalize, is on the path.
"""

from functools import cache
from itertools import product

import pytest

import dense
from truncpoisson import AlgebraElement, Biderivation, Derivation, TruncParams, cup, hamiltonian
from truncpoisson.algebra import multiply
from truncpoisson.linalg import Matrix, rref

SIZES = [(a, b) for a in range(2, 9) for b in range(2, 9)]
LABELS = ("1", "t", "v", "w", "m")
DEGREES = dict(zip(LABELS, (0, 0, 1, 1, 2)))
# the odd monomials of each degree, in the order of the cochain's fields
ODD = {0: ((),), 1: ((0,), (1,)), 2: ((0, 1),)}


def representatives(p: TruncParams) -> dict:
    """The cocycles 1, X^(a-1) Y^(b-1), d_{1,0} = X xi, d'_{0,1} = Y eta and f_{1,1} = XY xi*eta."""
    return {
        "1": AlgebraElement.one(p),
        "t": AlgebraElement.monomial(p, p.a - 1, p.b - 1),
        "v": Derivation.basis_d(p, 1, 0),
        "w": Derivation.basis_dprime(p, 0, 1),
        "m": Biderivation.basis_f(p, 1, 1),
    }


def moved_representatives(p: TruncParams) -> dict:
    """The representatives of degree 1 and 2 moved by coboundaries, which their brackets then carry."""
    reps = representatives(p)
    reps["v"] -= hamiltonian(AlgebraElement.monomial(p, 1, 1))
    reps["w"] -= hamiltonian(AlgebraElement.gen_x(p))
    if p.a > 2:
        reps["m"] -= Biderivation(p, dense.delta1_value(Derivation.basis_d(p, 2, 0)))
    return reps


def basis_cochains(p: TruncParams) -> list:
    """The basis of every degree: the monomials, the d and d' and the f."""
    basis = [AlgebraElement.monomial(p, i, j) for i, j in p.monomials()] + dense.chi1_basis(p)
    return basis + [Biderivation.basis_f(p, i, j) for i in range(1, p.a) for j in range(1, p.b)]


def degree(x) -> int:
    return 0 if isinstance(x, AlgebraElement) else x.degree


def polyvector(x) -> dict:
    """x as {odd monomial: coefficient}, a monomial a sorted tuple of 0 (xi) and 1 (eta)."""
    if isinstance(x, AlgebraElement):
        return {(): x}
    if isinstance(x, Derivation):
        return {(0,): x.dx, (1,): x.dy}
    return {(0, 1): x.value}


def partial(u: AlgebraElement, i: int) -> AlgebraElement:
    """d/dX (i = 0) or d/dY (i = 1) of u."""
    out = {}
    for key, c in u.coeffs.items():
        if key[i]:
            lower = list(key)
            lower[i] -= 1
            out[tuple(lower)] = key[i] * c
    return AlgebraElement(u.params, out)


def odd_partial(P: dict, i: int, side: str) -> dict:
    """d/dxi_i of P, each odd variable xi_i moved to the left or to the right end before it is dropped."""
    out = {}
    for s, f in P.items():
        if i in s:
            k = s.index(i)
            moves = k if side == "left" else len(s) - 1 - k
            out[s[:k] + s[k + 1:]] = -f if moves % 2 else f
    return out


def add_product(out: dict, P: dict, Q: dict, sign: int):
    """out += sign * P Q, the odd monomials multiplied with the sign of their reordering."""
    for s, f in P.items():
        for t, g in Q.items():
            if set(s) & set(t):
                continue
            term = multiply(f, g)
            if sign * (-1) ** sum(i > j for i in s for j in t) < 0:
                term = -term
            u = tuple(sorted(s + t))
            out[u] = out[u] + term if u in out else term


def terms(z, sign: int = 1) -> dict:
    """sign * z as {(odd monomial, exponents): coefficient}; None, a bracket or product in degree -1 or 3, is {}."""
    if z is None:
        return {}
    return {(s, key): sign * c for s, f in polyvector(z).items() for key, c in f.coeffs.items()}


def schouten(x, y):
    """[x, y] as a cochain of degree |x| + |y| - 1, or None in degrees -1 and 3, where it must vanish."""
    p, P, Q = x.params, polyvector(x), polyvector(y)
    out: dict = {}
    for i in (0, 1):
        add_product(out, odd_partial(P, i, "right"), {s: partial(f, i) for s, f in Q.items()}, 1)
        add_product(out, {s: partial(f, i) for s, f in P.items()}, odd_partial(Q, i, "left"), -1)
    k = degree(x) + degree(y) - 1
    if k not in ODD:
        assert all(f.is_zero() for f in out.values()), (x, y)
        return None
    assert set(out) <= set(ODD[k]), (x, y)
    parts = [out.get(s, AlgebraElement.zero(p)) for s in ODD[k]]
    return parts[0] if k == 0 else (Derivation, Derivation, Biderivation)[k](p, *parts)


@cache
def coboundary(p: TruncParams, k: int) -> Matrix:
    """The dense delta_k from degree k to degree k + 1 (k = 0, 1)."""
    return (dense.delta0_matrix, dense.delta1_matrix)[k](p)


def is_cocycle(z) -> bool:
    k = degree(z)
    return k == 2 or not any(coboundary(z.params, k).apply(dense.to_vector(z)))


def class_vectors(p: TruncParams, k: int, cochains: list) -> list:
    """Each degree-k cocycle's class as its coordinates on LABELS, by one dense elimination.

    The columns are the degree's representatives, the coboundaries into
    degree k and the cochains.  The representatives are independent modulo
    the coboundaries, so they are the first pivots, and a cocycle's
    coordinates are its entries in their rows.  Their span is the cocycles,
    so a cochain that is no cocycle would be a pivot of its own, which is
    refused.
    """
    reps = representatives(p)
    labels = [x for x in LABELS if DEGREES[x] == k]
    left = [dense.to_vector(reps[x]) for x in labels]
    right = [dense.to_vector(z) for z in cochains]
    images = coboundary(p, k - 1).data if k else [()] * len(left[0])
    rows = tuple((*(v[r] for v in left), *image, *(v[r] for v in right)) for r, image in enumerate(images))
    n = len(rows[0]) - len(right)
    reduced, pivots, _ = rref(Matrix._make(len(rows), len(rows[0]), rows))
    assert pivots[: len(labels)] == tuple(range(len(labels))) and pivots[-1] < n, (p, k)
    columns = range(n, len(rows[0]))
    return [tuple(reduced.data[labels.index(x)][c] if x in labels else 0 for x in LABELS) for c in columns]


def class_table(p: TruncParams, reps: dict) -> dict:
    """{(x, y): the class of [x, y] on LABELS} for the cocycles reps[x], reps[y]; a bracket in degree -1 or 3 is 0.

    class_vectors refuses a bracket that is no cocycle.
    """
    brackets = {(x, y): schouten(reps[x], reps[y]) for x in reps for y in reps}
    table = {pair: (0,) * len(LABELS) for pair, z in brackets.items() if z is None}
    for k in ODD:
        pairs = [pair for pair, z in brackets.items() if z is not None and degree(z) == k]
        table.update(zip(pairs, class_vectors(p, k, [brackets[pair] for pair in pairs])))
    return table


def expected_table(p: TruncParams) -> dict:
    """[v, t] = (a-1) t and [w, t] = (b-1) t with their partners; every other bracket of classes is 0."""
    table = {(x, y): (0,) * len(LABELS) for x in LABELS for y in LABELS}
    for x, c in (("v", p.a - 1), ("w", p.b - 1)):
        table[x, "t"] = (0, c, 0, 0, 0)
        table["t", x] = (0, -c, 0, 0, 0)
    return table


def test_the_bracket_with_the_poisson_bivector_is_the_coboundary():
    for a, b in [(2, 2), (3, 4), (5, 3)]:
        p = TruncParams(a, b)
        m = representatives(p)["m"]
        for i, j in p.monomials():
            f = AlgebraElement.monomial(p, i, j)
            assert schouten(m, f) == hamiltonian(f), (a, b, i, j)
        for d in dense.chi1_basis(p):
            assert schouten(m, d) == Biderivation(p, dense.delta1_value(d)), (a, b, d)


def test_the_only_nonzero_brackets_of_classes_are_v_and_w_on_t_and_the_modular_class_brackets_all_to_0():
    for a, b in SIZES:
        p = TruncParams(a, b)
        modular = Derivation(p, AlgebraElement.monomial(p, 1, 0, b - 1), AlgebraElement.monomial(p, 0, 1, 1 - a))
        table = class_table(p, {**representatives(p), "modular": modular})
        assert {pair: table[pair] for pair in expected_table(p)} == expected_table(p), (a, b)
        assert all(table["modular", x] == table[x, "modular"] == (0,) * len(LABELS) for x in LABELS), (a, b)


def test_the_bracket_of_classes_does_not_depend_on_the_representatives():
    for a, b in [(2, 2), (2, 8), (8, 2), (3, 4), (5, 3), (8, 8)]:
        p = TruncParams(a, b)
        assert class_table(p, moved_representatives(p)) == expected_table(p), (a, b)


@cache
def basis_brackets(a: int, b: int) -> tuple:
    """(|x|, |y|, [x, y], [y, x]) for every pair of basis cochains x, y at (a, b), the brackets as terms."""
    basis = basis_cochains(TruncParams(a, b))
    return tuple((degree(x), degree(y), terms(schouten(x, y)), terms(schouten(y, x))) for x in basis for y in basis)


def antisymmetry_failures(brackets: tuple, flipped=None) -> list:
    """The degrees (|x|, |y|) of the pairs where [x, y] != -(-1)^((|x|-1)(|y|-1)) [y, x].

    With flipped an ordered pair of degrees, the bracket's sign is flipped
    on the pairs of those degrees first.
    """
    def signed(k: int, l: int, z: dict, sign: int = 1) -> dict:
        return {key: (-sign if (k, l) == flipped else sign) * c for key, c in z.items()}

    return [
        (k, l) for k, l, xy, yx in brackets if signed(k, l, xy) != signed(l, k, yx, -((-1) ** ((k - 1) * (l - 1))))
    ]


@pytest.mark.parametrize("a, b", [(2, 2), (3, 3)])
def test_graded_antisymmetry_on_every_pair_of_basis_cochains(a, b):
    assert antisymmetry_failures(basis_brackets(a, b)) == []


def test_a_sign_flipped_on_one_pair_of_degrees_breaks_graded_antisymmetry():
    # negative control: at 3x3 every pair of distinct degrees has a nonzero bracket, so the test above tells
    # the Schouten signs from a bracket off by a sign on one of them; a flip on a pair of equal degrees
    # changes both sides of the identity, which holds on
    for flipped in product(range(3), repeat=2):
        broken = antisymmetry_failures(basis_brackets(3, 3), flipped)
        assert bool(broken) == (flipped[0] != flipped[1]), flipped


def cup_or_none(y, z):
    """y cup z, or None when a factor is None or the product lands in degree 3."""
    if y is None or z is None or degree(y) + degree(z) > 2:
        return None
    return cup(y, z)


POISSON_RULE_CASES = {
    "basis at 2x2": lambda: basis_cochains(TruncParams(2, 2)),
    "moved representatives at 3x3": lambda: list(moved_representatives(TruncParams(3, 3)).values()),
    "moved representatives at 2x4": lambda: list(moved_representatives(TruncParams(2, 4)).values()),
}


@pytest.mark.parametrize("case", POISSON_RULE_CASES)
def test_the_poisson_rule(case):
    # [x, y cup z] = [x, y] cup z + (-1)^((|x|-1)|y|) y cup [x, z], with the package's cup
    elements = POISSON_RULE_CASES[case]()
    for x in elements:
        for y in elements:
            xy, sign = schouten(x, y), (-1) ** ((degree(x) - 1) * degree(y))
            for z in elements:
                right = terms(cup_or_none(xy, z))
                for key, c in terms(cup_or_none(y, schouten(x, z)), sign).items():
                    right[key] = right.get(key, 0) + c
                yz = cup_or_none(y, z)
                left = terms(schouten(x, yz) if yz is not None else None)
                assert left == {key: c for key, c in right.items() if c}, (x, y, z)


def test_the_bracket_with_a_non_cocycle_leaves_the_cocycles():
    for a, b in [(3, 2), (3, 3), (4, 7), (8, 8)]:  # X^2 xi needs a > 2
        p = TruncParams(a, b)
        d = Derivation.basis_d(p, 2, 0)  # X^2 xi, whose delta_1 is X^2 Y xi*eta
        v = representatives(p)["v"]
        bracket = schouten(d, v)
        assert bracket == Derivation(p, AlgebraElement.monomial(p, 2, 0, -1), AlgebraElement.zero(p)), (a, b)
        assert is_cocycle(v) and not is_cocycle(d) and not is_cocycle(bracket), (a, b)
        with pytest.raises(AssertionError):
            class_vectors(p, 1, [bracket])

