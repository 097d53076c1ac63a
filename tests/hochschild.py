"""The quantum complete intersection Lambda_q = k<x,y>/(x^a, y^b, xy - q yx), over the rationals.

The paper's theorem has a Hochschild side (Bergh–Erdmann): C[X,Y]/(X^a, Y^b)
with {X, Y} = XY is the semi-classical limit of Lambda_q at q = 1.  This
module holds degree 0 of it, weight by weight: the centre HH^0(Lambda_q),
and HH_0 with coefficients twisted by a diagonal automorphism sigma.  It
shares no code with the package.

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
