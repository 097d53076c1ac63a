"""The quantum complete intersection Lambda_q = k<x,y>/(x^a, y^b, xy - q yx), over the rationals.

The paper's theorem has a Hochschild side (Bergh–Erdmann): C[X,Y]/(X^a, Y^b)
with {X, Y} = XY is the semi-classical limit of Lambda_q at q = 1.  This
module holds degrees 0 and 1 of it, weight by weight: the centre
HH^0(Lambda_q), HH_0 with coefficients twisted by a diagonal automorphism
sigma, and HH^1(Lambda_q) as derivations modulo inner ones.  It shares no
code with the package.

An element is a dict {(i, j): Fraction} on the normal words x^i y^j,
0 <= i < a, 0 <= j < b, without zero coefficients, and q is a nonzero
rational.  Words multiply by y^j x^k = q^(-jk) x^k y^j.
"""

from fractions import Fraction
from functools import lru_cache

X = {(1, 0): Fraction(1)}
Y = {(0, 1): Fraction(1)}


def multiply(a: int, b: int, q, u: dict, v: dict) -> dict:
    """u * v in Lambda_q."""
    q, out = Fraction(q), {}
    for (i, j), c in u.items():
        for (k, l), d in v.items():
            if i + k < a and j + l < b:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d * q ** (-j * k)
    return {key: c for key, c in out.items() if c}


def commutator(a: int, b: int, q, u: dict, v: dict) -> dict:
    """[u, v] = u v - v u in Lambda_q."""
    uv, vu = multiply(a, b, q, u, v), multiply(a, b, q, v, u)
    out = {key: uv.get(key, 0) - vu.get(key, 0) for key in uv.keys() | vu.keys()}
    return {key: c for key, c in out.items() if c}


def weight_entries(a: int, b: int, q, i: int, j: int) -> tuple[Fraction, Fraction]:
    """The block of z -> ([x, z], [y, z]) at the weight (i, j).

    That is, the coefficient of [x, x^i y^j] at x^(i+1) y^j and of [y, x^i y^j]
    at x^i y^(j+1): each commutator is checked to have no term at any other word.
    """
    word = {(i, j): Fraction(1)}
    entries = []
    for g, shifted in ((X, (i + 1, j)), (Y, (i, j + 1))):
        c = commutator(a, b, q, g, word)
        assert c.keys() <= {shifted}, (a, b, q, i, j, c)
        entries.append(c.get(shifted, Fraction(0)))
    return entries[0], entries[1]


def centre(a: int, b: int, q) -> list[tuple[int, int]]:
    """The words that span the centre of Lambda_q, found weight by weight.

    x and y generate Lambda_q, so the centre is the kernel of z -> ([x, z],
    [y, z]).  The map sends each word to the words one step right and one step
    up, and distinct words to distinct ones, so its kernel is spanned by the
    words whose two block entries vanish.
    """
    return [(i, j) for i in range(a) for j in range(b) if weight_entries(a, b, q, i, j) == (0, 0)]


@lru_cache(maxsize=None)
def _sides(a: int, b: int, q, u: str, i: int, j: int) -> tuple[Fraction, Fraction]:
    """The coefficients of u z and of z u at z's word one step along u, for z = x^i y^j; u is "x" or "y".

    Each product is checked to have no term at any other word; a coefficient
    is 0 where the shifted word is truncated.
    """
    g, word = {"x": X, "y": Y}[u], {(i, j): Fraction(1)}
    shifted = (i + 1, j) if u == "x" else (i, j + 1)
    left, right = multiply(a, b, q, g, word), multiply(a, b, q, word, g)
    assert left.keys() | right.keys() <= {shifted}, (a, b, q, u, i, j, left, right)
    return left.get(shifted, Fraction(0)), right.get(shifted, Fraction(0))


@lru_cache(maxsize=None)
def twisted_entry(a: int, b: int, q, u: str, s: int, i: int, j: int) -> Fraction:
    """The coefficient of u z - z sigma(u) at z's word one step along u, for z = x^i y^j and sigma(u) = q^s u."""
    left, right = _sides(a, b, q, u, i, j)
    return left - Fraction(q) ** s * right


def twisted_hh0(a: int, b: int, q, m: int, n: int) -> list[tuple[int, int]]:
    """The words x^k y^l at whose weight HH_0(Lambda_q, Lambda_sigma) is nonzero, for sigma(x) = q^m x, sigma(y) = q^n y.

    HH_0(Lambda_q, Lambda_sigma) = Lambda / span{u z - z sigma(u)}.  The
    generators suffice for u, since u v z - z sigma(u v) is
    u (v z) - (v z) sigma(u) + v (z sigma(u)) - (z sigma(u)) sigma(v), and
    the words for z.  Each such image is a multiple of one word, one step
    right or one step up of z, so the span is spanned by the words that a
    nonzero image reaches, and the quotient has dimension 1 at the weight of
    each other word and 0 elsewhere.
    """
    return [
        (k, l)
        for k in range(a)
        for l in range(b)
        if not (k and twisted_entry(a, b, q, "x", m, k - 1, l)) and not (l and twisted_entry(a, b, q, "y", n, k, l - 1))
    ]


def word(a: int, b: int, i: int, j: int) -> dict:
    """The word x^i y^j as an element: {} where an exponent is negative or truncated away."""
    return {(i, j): Fraction(1)} if 0 <= i < a and 0 <= j < b else {}


def _sum(a: int, b: int, q, products) -> dict:
    """The sum of the products u v w over the triples (u, v, w) in Lambda_q."""
    out = {}
    for u, v, w in products:
        for key, c in multiply(a, b, q, multiply(a, b, q, u, v), w).items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def apply_derivation(a: int, b: int, q, dx: dict, dy: dict, i: int, j: int) -> dict:
    """D(x^i y^j) by the Leibniz rule, for the derivation D with D(x) = dx, D(y) = dy."""
    on_x = [(word(a, b, k, 0), dx, word(a, b, i - 1 - k, j)) for k in range(i)]
    return _sum(a, b, q, on_x + [(word(a, b, i, k), dy, word(a, b, 0, j - 1 - k)) for k in range(j)])


def relation_images(a: int, b: int, q, dx: dict, dy: dict) -> list[dict]:
    """The images of the relations x^a, y^b and xy - q yx under the derivation of k<x,y> with D(x) = dx, D(y) = dy.

    A derivation of the free algebra into Lambda_q descends to Lambda_q
    exactly when it sends each relation to 0.
    """
    one, minus_q = word(a, b, 0, 0), {(0, 0): -Fraction(q)}
    return [
        _sum(a, b, q, [(word(a, b, k, 0), dx, word(a, b, a - 1 - k, 0)) for k in range(a)]),
        _sum(a, b, q, [(word(a, b, 0, k), dy, word(a, b, 0, b - 1 - k)) for k in range(b)]),
        _sum(a, b, q, [(dx, Y, one), (X, dy, one), (minus_q, dy, X), (minus_q, Y, dx)]),
    ]


def _rank(rows: list) -> int:
    """The rank of a matrix of at most two columns, given by its rows."""
    rows = [row for row in rows if any(row)]
    if len(rows[0] if rows else ()) < 2:
        return int(bool(rows))
    return 2 if any(u[0] * v[1] != u[1] * v[0] for u in rows for v in rows) else 1


def hh1(a: int, b: int, q) -> dict:
    """{weight (u, v): dim HH^1(Lambda_q) there}, over the weights where it is nonzero.

    HH^1 is the derivations modulo the inner ones, and both split by weight.
    A derivation of weight (u, v) sends x to a multiple of x^(1+u) y^v and
    y to one of x^u y^(1+v), so it has at most two unknowns, and the
    relations' images are linear in them.  The inner derivations of weight
    (u, v) are the multiples of [z, -] for z = x^u y^v: a line, unless z is
    truncated away or central.
    """
    dims = {}
    for u in range(-1, a):
        for v in range(-1, b):
            unknowns = [(dx, dy) for dx, dy in ((word(a, b, 1 + u, v), {}), ({}, word(a, b, u, 1 + v))) if dx or dy]
            images = [relation_images(a, b, q, dx, dy) for dx, dy in unknowns]
            keys = [(r, key) for r in range(3) for key in sorted({k for image in images for k in image[r]})]
            rows = [tuple(image[r].get(key, 0) for image in images) for r, key in keys]
            z = word(a, b, u, v)
            inner = int(bool(commutator(a, b, q, z, X) or commutator(a, b, q, z, Y)))
            if len(unknowns) - _rank(rows) - inner:
                dims[(u, v)] = len(unknowns) - _rank(rows) - inner
    return dims
