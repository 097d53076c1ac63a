"""Degree 0 of the paper's theorem from the Hochschild side: the centre of Lambda_q against HP^0.

tests/hochschild.py builds Lambda_q = k<x,y>/(x^a, y^b, xy - q yx) on its own.
At every weight (i, j) the commutators with the generators are

    [x, x^i y^j] = (1 - q^(-j)) x^(i+1) y^j,    [y, x^i y^j] = (q^(-i) - 1) x^i y^(j+1),

while the Poisson brackets are {X, X^i Y^j} = j X^(i+1) Y^j and
{Y, X^i Y^j} = -i X^i Y^(j+1).  Each Hochschild entry is (q - 1) times a
q-integer up to a power of q, and that q-integer at q = 1 is the Poisson
entry: the dictionary between the two sides, weight by weight.  For q not a
root of unity the centre is span{1, x^(a-1) y^(b-1)}, of the dimension of
HP^0; at the roots of unity q = 1 and q = -1 it is larger.

HH_0 twisted by sigma(x) = q^m x, sigma(y) = q^n y has at each weight (k, l)
the entries 1 - q^(m-l) (from x^(k-1) y^l) and q^(-k) - q^n (from
x^k y^(l-1)), which vanish for q not a root of unity exactly where the
twisted Poisson boundary (-(l + alpha), k - beta) does at (alpha, beta) =
(-m, -n).  So HH_0 and HP_0 at that twist have classes at the same weights.

HH^1, derivations modulo inner ones, lives for q not a root of unity at
weight (0, 0) alone, spanned by x d/dx and y d/dy, which act on the top
word x^(a-1) y^(b-1) by a-1 and b-1: the brackets [v, t] = (a-1) t and
[w, t] = (b-1) t of HP* (tests/test_gerstenhaber.py).
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from hochschild import (
    X,
    Y,
    apply_derivation,
    centre,
    commutator,
    hh1,
    multiply,
    relation_images,
    twisted_hh0,
    weight_entries,
)
from truncpoisson import TruncParams, TwistParams, cohomology, homology
from truncpoisson.algebra import _bracket_into

GENERIC_Q = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2))
SIZES = [(a, b) for a in range(2, 9) for b in range(2, 9)]


def q_integer(n: int, q) -> Fraction:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    return sum((Fraction(q) ** k for k in range(n)), Fraction(0))


def poisson_entries(a: int, b: int, i: int, j: int) -> tuple[Fraction, Fraction]:
    """The coefficient of {X, X^i Y^j} at X^(i+1) Y^j and of {Y, X^i Y^j} at X^i Y^(j+1), from _bracket_into."""
    p, entries = TruncParams(a, b), []
    for g, shifted in (((1, 0), (i + 1, j)), ((0, 1), (i, j + 1))):
        out = {}
        _bracket_into(out, p, {g: Fraction(1)}, {(i, j): Fraction(1)})
        assert out.keys() <= {shifted}, out
        entries.append(out.get(shifted, Fraction(0)))
    return entries[0], entries[1]


def test_words_multiply_by_the_q_commutation_rule():
    q = Fraction(3)
    assert multiply(4, 4, q, Y, X) == {(1, 1): 1 / q}
    assert multiply(4, 4, q, {(0, 2): Fraction(1)}, {(3, 1): Fraction(1)}) == {(3, 3): q ** -6}
    assert multiply(4, 4, q, {(2, 0): Fraction(1)}, {(2, 1): Fraction(1)}) == {}  # x^4 = 0
    # associativity on words, the relation's consistency check
    words = [{(i, j): Fraction(1)} for i in range(3) for j in range(3)]
    for u in words:
        for v in words:
            for w in words:
                assert multiply(5, 5, q, multiply(5, 5, q, u, v), w) == multiply(5, 5, q, u, multiply(5, 5, q, v, w))


@pytest.mark.parametrize("q", [*GENERIC_Q, Fraction(1), Fraction(-1)], ids=str)
def test_commutators_with_the_generators_at_every_weight(q):
    a, b = 5, 4
    for i in range(a):
        for j in range(b):
            word = {(i, j): Fraction(1)}
            x_side = {(i + 1, j): 1 - q ** -j} if i + 1 < a else {}
            y_side = {(i, j + 1): q ** -i - 1} if j + 1 < b else {}
            assert commutator(a, b, q, X, word) == {k: c for k, c in x_side.items() if c}, (i, j)
            assert commutator(a, b, q, Y, word) == {k: c for k, c in y_side.items() if c}, (i, j)


@pytest.mark.parametrize("q", GENERIC_Q, ids=str)
def test_each_entry_is_q_minus_1_times_a_q_integer_that_is_the_poisson_entry_at_q_1(q):
    for a, b in [(2, 2), (3, 5), (6, 4)]:
        for i in range(a):
            for j in range(b):
                hx, hy = weight_entries(a, b, q, i, j)
                px, py = poisson_entries(a, b, i, j)
                if i + 1 < a:
                    assert hx == (q - 1) * q ** -j * q_integer(j, q) and px == q_integer(j, 1) == j
                else:
                    assert hx == px == 0
                if j + 1 < b:
                    assert hy == (q - 1) * q ** -i * -q_integer(i, q) and py == -q_integer(i, 1) == -i
                else:
                    assert hy == py == 0


@pytest.mark.parametrize("q", GENERIC_Q, ids=str)
def test_centre_at_generic_q_is_one_and_the_top_word_the_dimension_of_hp0(q):
    for a, b in SIZES:
        words = centre(a, b, q)
        assert words == [(0, 0), (a - 1, b - 1)], (a, b)
        assert len(words) == cohomology(TruncParams(a, b), 0, include_reps=False).dimension == 2


def test_centre_grows_at_the_roots_of_unity():
    # negative controls: at q = 1 the algebra is commutative, and at q = -1 the even weights commute
    for a, b in SIZES:
        assert len(centre(a, b, 1)) == a * b, (a, b)
    assert len(centre(2, 2, -1)) == 2
    assert centre(3, 3, -1) == [(0, 0), (0, 2), (1, 2), (2, 0), (2, 1), (2, 2)]


@lru_cache(maxsize=None)
def poisson_h0_weights(a: int, b: int, m: int, n: int) -> list[tuple[int, int]]:
    """The weights of the degree-0 classes of Poisson homology at the twist (-m, -n), computed once."""
    reps = homology(TruncParams(a, b), TwistParams(-m, -n)).representatives[0]
    return sorted(key for rep in reps for key in rep.coeffs)


def twist_box(a: int, b: int):
    return [(m, n) for m in range(-a - 1, a + 2) for n in range(-b - 1, b + 2)]


@pytest.mark.parametrize("q", GENERIC_Q, ids=str)
def test_twisted_hh0_at_generic_q_has_the_weights_of_hp0_at_the_twist(q):
    for a in range(2, 7):
        for b in range(2, 7):
            for m, n in twist_box(a, b):
                assert twisted_hh0(a, b, q, m, n) == poisson_h0_weights(a, b, m, n), (a, b, m, n)
            # the Nakayama automorphism (m, n) = (b-1, 1-a): the h0 of the Nakayama twist
            nakayama = homology(TruncParams(a, b), TwistParams.nakayama(TruncParams(a, b))).dims[0]
            assert len(twisted_hh0(a, b, q, b - 1, 1 - a)) == nakayama == 2, (a, b)


def keeps_poisson_weights_at_q_minus_1(a: int, b: int, m: int, n: int) -> bool:
    """The twists at which HH_0 at q = -1 has the weights of HP_0: found by the test below, over its sizes.

    At a = 2 they are (m, 0) with m 0 or odd, at b = 2 (0, n) with n 0 or
    odd, and (1, -1) while a, b <= 3.
    """
    return (
        (a == 2 and n == 0 and (m == 0 or m % 2 == 1))
        or (b == 2 and m == 0 and (n == 0 or n % 2 == 1))
        or (a <= 3 and b <= 3 and (m, n) == (1, -1))
    )


def test_twisted_hh0_at_the_roots_of_unity_leaves_poisson():
    # negative controls: at q = 1 sigma is the identity and the algebra commutative, so HH_0 is all
    # of it; at q = -1 the entries vanish by parity, l = m and k = n mod 2, so HH_0 leaves Poisson's
    # weights at every twist but those keeps_poisson_weights_at_q_minus_1 names
    for a in range(2, 7):
        for b in range(2, 7):
            for m, n in twist_box(a, b):
                assert len(twisted_hh0(a, b, 1, m, n)) == a * b, (a, b, m, n)
                words = twisted_hh0(a, b, -1, m, n)
                parity = [
                    (k, l) for k in range(a) for l in range(b) if (not k or (l - m) % 2 == 0) and (not l or (k - n) % 2 == 0)
                ]
                assert words == parity, (a, b, m, n)
                same = words == poisson_h0_weights(a, b, m, n)
                assert same == keeps_poisson_weights_at_q_minus_1(a, b, m, n), (a, b, m, n)


@pytest.mark.parametrize("q", GENERIC_Q, ids=str)
def test_hh1_at_generic_q_is_x_d_dx_and_y_d_dy_acting_on_the_socle_by_a_1_and_b_1(q):
    # HH^1 as derivations modulo inner ones, weight by weight: all of it at weight (0, 0), where it is
    # spanned by x d/dx and y d/dy, of the dimension of HP^1; on the top word x^(a-1) y^(b-1), which
    # spans the socle and with 1 the centre, they act by a-1 and b-1, as v and w act on t
    for a in range(2, 7):
        for b in range(2, 7):
            assert hh1(a, b, q) == {(0, 0): 2} and cohomology(TruncParams(a, b), 1).dimension == 2, (a, b)
            assert relation_images(a, b, q, X, {}) == relation_images(a, b, q, {}, Y) == [{}, {}, {}]
            assert apply_derivation(a, b, q, X, {}, a - 1, b - 1) == {(a - 1, b - 1): a - 1}, (a, b)
            assert apply_derivation(a, b, q, {}, Y, a - 1, b - 1) == {(a - 1, b - 1): b - 1}, (a, b)


def test_hh1_grows_at_q_1():
    # negative control: at q = 1 the algebra is commutative, no derivation is inner, and HH^1 is every
    # derivation, b(a-1) + a(b-1) of them, not 2
    for a in range(2, 7):
        for b in range(2, 7):
            assert sum(hh1(a, b, 1).values()) == b * (a - 1) + a * (b - 1) > 2, (a, b)
