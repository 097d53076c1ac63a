"""The paper's theorem from the Hochschild side: HH^*(Lambda_q) against HP^*, degree by degree.

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

Every degree comes from the minimal bimodule resolution (Bergh–Erdmann), whose
cochains split by weight into blocks of at most two coordinates: for q not
a root of unity HH^0..6 = (2, 2, 1, 0, 0, 0, 0), at the weights of the five
classes 1, t, v, w, m of HP^*.  In degrees 0 and 1 the blocks agree weight
by weight with the centre and with HH^1 as derivations modulo inner ones,
which tests/hochschild.py computes without the resolution.  At the roots of
unity q = 1 and q = -1 the dimensions grow with the degree.  At every
weight with both coordinates >= 0, each entry of delta^1 and delta^2 is
(q - 1) times the Poisson entry of delta_0 or delta_1 there, to first
order at q = 1: the dictionary in degrees 0 and 1, taken exactly at the
dual number q = 1 + eps.  The normalized bar complex, split by weight and
built apart from the resolution, gives the same dimensions weight by weight.
"""

from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest

from hochschild import (
    X,
    Y,
    apply_derivation,
    bar_hh,
    centre,
    coboundary_block,
    commutator,
    coordinates,
    frobenius_form,
    hh,
    hh1,
    multiply,
    nakayama_exponents,
    nakayama_scalars,
    q_integer,
    relation_images,
    resolution_weights,
    twisted_hh0,
    weight_entries,
    word,
)
from truncpoisson import TruncParams, TwistParams, cohomology, homology
from truncpoisson.algebra import _bracket_into
from truncpoisson.cochain import _delta1_into

GENERIC_Q = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2))
SIZES = [(a, b) for a in range(2, 9) for b in range(2, 9)]


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
            # at the Nakayama automorphism, derived from the Frobenius form: the h0 of the Nakayama twist
            nakayama = homology(TruncParams(a, b), TwistParams.nakayama(TruncParams(a, b))).dims[0]
            assert len(twisted_hh0(a, b, q, *nakayama_exponents(a, b, q))) == nakayama == 2, (a, b)


def test_the_nakayama_automorphism_of_the_frobenius_form_is_the_nakayama_twist():
    # nu(x^i y^j) = q^((b-1)i - (a-1)j) x^i y^j: nu(x) = q^(b-1) x and nu(y) = q^(1-a) y, whose
    # exponents (m, n) are the Nakayama twist (1-b, a-1) under the degree-0 dictionary (alpha, beta) = (-m, -n)
    for q in GENERIC_Q:
        for a in range(2, 7):
            for b in range(2, 7):
                nu = nakayama_scalars(a, b, q)
                words = {(i, j): word(a, b, i, j) for i in range(a) for j in range(b)}
                assert nu == {(i, j): q ** ((b - 1) * i - (a - 1) * j) for i, j in words}, (q, a, b)
                for u, u_word in words.items():
                    nu_u = {u: nu[u]}
                    for v_word in words.values():
                        uv, v_nu_u = multiply(a, b, q, u_word, v_word), multiply(a, b, q, v_word, nu_u)
                        assert frobenius_form(a, b, uv) == frobenius_form(a, b, v_nu_u), (q, a, b, u, v_word)
                m, n = nakayama_exponents(a, b, q)
                assert (m, n) == (b - 1, 1 - a)
                assert TwistParams(-m, -n) == TwistParams.nakayama(TruncParams(a, b))
    # at q = 1 the algebra is commutative, and eps(u v) = eps(v u): nu is the identity
    for a in range(2, 7):
        for b in range(2, 7):
            assert set(nakayama_scalars(a, b, 1).values()) == {1}, (a, b)


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


RESOLUTION_SIZES = [(a, b) for a in range(2, 7) for b in range(2, 7)]


@pytest.mark.parametrize("q", [*GENERIC_Q, Fraction(1), Fraction(-1)], ids=str)
def test_the_resolution_is_a_complex_of_blocks_of_at_most_two_coordinates(q):
    # delta^(n+1) . delta^n = 0 on every block for n <= 5: two steps in one direction leave the box,
    # and the two mixed steps cancel by the sign (-1)^i
    for a, b in RESOLUTION_SIZES:
        for n in range(1, 6):
            for w in resolution_weights(a, b, n):
                assert len(coordinates(a, b, n, w)) <= 2, (a, b, n, w)
                outer, inner = coboundary_block(a, b, q, n + 1, w), coboundary_block(a, b, q, n, w)
                columns = zip(*inner)  # empty where degree n - 1 has no coordinate at w
                assert not any(sum(map(mul, row, column)) for column in columns for row in outer), (a, b, n, w)


@pytest.mark.parametrize("q", GENERIC_Q, ids=str)
def test_hh_at_generic_q_is_five_dimensional_at_the_weights_of_the_five_classes(q):
    # 1 and t in degree 0 at the weights (0, 0) and (a-1, b-1), v and w in degree 1 and m in degree 2 at (0, 0)
    for a, b in RESOLUTION_SIZES:
        assert hh(a, b, q, 6) == [{(0, 0): 1, (a - 1, b - 1): 1}, {(0, 0): 2}, {(0, 0): 1}, {}, {}, {}, {}], (a, b)


@pytest.mark.parametrize("q", [*GENERIC_Q, Fraction(1), Fraction(-1)], ids=str)
def test_hh0_and_hh1_of_the_resolution_are_the_centre_and_the_outer_derivations(q):
    # delta^1 at the weight of a word is ([y, z], [x, z]): its rows are e_{0,1}, then e_{1,0}
    for a, b in RESOLUTION_SIZES:
        for i in range(a):
            for j in range(b):
                hx, hy = weight_entries(a, b, q, i, j)
                rows = tuple((e,) for e, present in ((hy, j + 1 < b), (hx, i + 1 < a)) if present)
                assert coboundary_block(a, b, q, 1, (i, j)) == rows, (a, b, i, j)
        h0, h1 = hh(a, b, q, 1)
        assert h0 == dict.fromkeys(centre(a, b, q), 1), (a, b)
        assert h1 == hh1(a, b, q), (a, b)


def test_hh_grows_with_the_degree_at_the_roots_of_unity():
    # negative controls: at q = 1 the algebra is commutative, and at q = -1 the even weights commute
    assert [sum(d.values()) for d in hh(3, 4, 1, 6)] == [12, 17, 23, 29, 35, 41, 47]
    assert [sum(d.values()) for d in hh(2, 3, -1, 6)] == [3, 3, 4, 5, 6, 7, 8]


class Dual(tuple):
    """x + y*eps over the rationals, with eps^2 = 0: the scalars that coboundary_block needs.

    For a Laurent polynomial E in q, E(1 + eps) = E(1) + E'(1) eps.  So where
    E(1) = 0, the eps part is E(q) / (q - 1) at q = 1, exactly.
    """

    def __new__(cls, x, y=0):
        return super().__new__(cls, (Fraction(x), Fraction(y)))

    @staticmethod
    def of(z) -> "Dual":
        return z if isinstance(z, Dual) else Dual(z)

    def __add__(self, other):
        o = Dual.of(other)
        return Dual(self[0] + o[0], self[1] + o[1])

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self[0], -self[1])

    def __sub__(self, other):
        return self + -Dual.of(other)

    def __rsub__(self, other):
        return Dual.of(other) + -self

    def __mul__(self, other):
        o = Dual.of(other)
        return Dual(self[0] * o[0], self[0] * o[1] + self[1] * o[0])

    __rmul__ = __mul__

    def __pow__(self, e: int):
        # (x + y eps)^e = x^e + e x^(e-1) y eps, for every int e when x != 0
        x, y = self
        return Dual(x**e, e * x ** (e - 1) * y)


def poisson_block(a: int, b: int, n: int, k: int, l: int) -> dict:
    """The Poisson delta_0 (n = 1) or delta_1 (n = 2) at the weight (k, l), from the package's kernels.

    Keyed (row, column) by the resolution's coordinates: e_{0,0} is the
    monomial X^k Y^l, e_{1,0} the derivation d_{k+1,l} (coordinate 1) and
    e_{0,1} the derivation d'_{k,l+1} (coordinate 0), e_{1,1} the
    biderivation f_{k+1,l+1} (coordinate 1), each present where its exponents
    are in the box.
    """
    has_d, has_dprime = k + 1 < a, l + 1 < b
    if n == 1:
        x_entry, y_entry = poisson_entries(a, b, k, l)
        return {**({(1, 0): x_entry} if has_d else {}), **({(0, 0): y_entry} if has_dprime else {})}
    block, p = {}, TruncParams(a, b)
    for column, dx, dy, present in ((1, {(k + 1, l): 1}, {}, has_d), (0, {}, {(k, l + 1): 1}, has_dprime)):
        if present and has_d and has_dprime:
            value: dict = {}
            _delta1_into(value, p, dx, dy)
            block[(1, column)] = value.get((k + 1, l + 1), 0)
    return block


def test_degree_0_and_1_entries_over_q_minus_1_are_the_poisson_entries_at_q_1():
    """The dictionary: at a weight (k, l) >= 0, delta^1 and delta^2 are (q - 1) times delta_0 and delta_1 at q = 1.

    At q = 1 + eps, q^(-l) = 1 - l eps and q^(-k) = 1 - k eps.  delta^1 reads
    e_{0,0} into e_{1,0} with 1 - q^(-l) = l eps and into e_{0,1} with
    q^(-k) - 1 = -k eps: delta_0 = (l, -k), the brackets {X, X^k Y^l} and
    {Y, X^k Y^l}, with the sign of the commutators [x, z] and [y, z].
    delta^2 reads e_{0,1} into e_{1,1} with 1 - q^(-l) = l eps, and e_{1,0}
    with (-1)^1 (q^(-k) - 1) = k eps: the resolution's sign (-1)^i makes
    delta_1 = (k, l), as _delta1_into has it, with no sign left over.  The
    entries [a] and [b] occur only at weights with a negative coordinate,
    and there they are a and b at q = 1: no dictionary holds for them.
    """
    one_plus_eps = Dual(1, 1)
    for a in range(2, 7):
        for b in range(2, 7):
            for n in (1, 2):
                for w in sorted(resolution_weights(a, b, n)):
                    rows, columns = coordinates(a, b, n, w), coordinates(a, b, n - 1, w)
                    block = coboundary_block(a, b, one_plus_eps, n, w)
                    entries = {(i, j): x for i, row in zip(rows, block) for j, x in zip(columns, row)}
                    at_1 = {x[0] for x in entries.values()} - {0}
                    if min(w) >= 0:
                        k, l = w
                        expected = {(1, 0): l, (0, 0): -k} if n == 1 else {(1, 1): k, (1, 0): l}
                        poisson = poisson_block(a, b, n, k, l)
                        assert poisson == {key: e for key, e in expected.items() if key in poisson}, (a, b, n, w)
                        assert at_1 == set() and {key: x[1] for key, x in entries.items()} == poisson, (a, b, n, w)
                    else:
                        # [a] reads e_{1,0} into e_{2,0} at (-1, l), [b] e_{0,1} into e_{0,2} at (k, -1)
                        control = {a} if w[0] == -1 else {b} if w[1] == -1 else set()
                        assert at_1 == (control if n == 2 and max(w) >= 0 else set()), (a, b, n, w)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(1), Fraction(-1)], ids=str)
def test_the_bar_complex_gives_the_resolutions_dims_weight_by_weight(q):
    """HH^n from the normalized bar complex equals the resolution's, weight by weight, at (2,2) for n <= 3 and (2,3) for n <= 2.

    The bar complex grows like (ab - 1)^n * ab, so these are the sizes that
    run in a fraction of a second; the totals at (2,2) are (2, 2, 1, 0) at
    q = 2 and the roots of unity's (4, 4, 5, 6) at q = 1 and (2, 4, 6, 8) at
    q = -1.
    """
    for a, b, top in [(2, 2, 3), (2, 3, 2)]:
        assert bar_hh(a, b, q, top) == hh(a, b, q, top), (a, b)
    totals = {Fraction(2): [2, 2, 1, 0], Fraction(1): [4, 4, 5, 6], Fraction(-1): [2, 4, 6, 8]}
    assert [sum(dims.values()) for dims in bar_hh(2, 2, q, 3)] == totals[q]
