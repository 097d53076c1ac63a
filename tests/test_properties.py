"""Property tests of the element kernels.

Sums, differences and products are compared with plain-dict references,
the bracket with the Leibniz-expansion oracle, and every result is checked
for the clean-coefficient invariant (nonzero Fraction values at in-bound
keys).  The accumulating kernels give equal maps on int maps and on the
same maps as Fractions.  Examples are derandomized so that runs are
reproducible.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from truncpoisson import AlgebraElement, TruncParams, bracket, multiply, parse_element, render_element
from truncpoisson.algebra import _bracket_into, _multiply_into

from oracles import leibniz_bracket_monomial

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def element_pairs(draw):
    """Two random rational elements over the same random (a, b)."""
    p = TruncParams(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    keys = st.tuples(st.integers(0, p.a - 1), st.integers(0, p.b - 1))
    coeffs = st.dictionaries(keys, RATIONALS, max_size=8)
    return AlgebraElement(p, draw(coeffs)), AlgebraElement(p, draw(coeffs))


def assert_clean(u: AlgebraElement):
    for (i, j), c in u.coeffs.items():
        assert type(c) is Fraction and c != 0
        assert 0 <= i < u.params.a and 0 <= j < u.params.b


def nonzero(out: dict) -> dict:
    return {k: c for k, c in out.items() if c}


def ref_combine(u: dict, v: dict, sign: int) -> dict:
    return nonzero({k: u.get(k, 0) + sign * v.get(k, 0) for k in set(u) | set(v)})


def ref_multiply(p: TruncParams, u: dict, v: dict) -> dict:
    out = {}
    for (i, j), c in u.items():
        for (k, l), d in v.items():
            if i + k < p.a and j + l < p.b:
                out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
    return nonzero(out)


def oracle_bracket(p: TruncParams, u: dict, v: dict) -> dict:
    """Bilinear extension of the Leibniz oracle, summed in a plain dict."""
    out = {}
    for ij, c in u.items():
        for kl, d in v.items():
            for key, e in leibniz_bracket_monomial(p, ij, kl).coeffs.items():
                out[key] = out.get(key, 0) + c * d * e
    return nonzero(out)


@PROPERTY
@given(element_pairs())
def test_sum_and_difference_match_dict_reference(pair):
    u, v = pair
    for result, sign in ((u + v, 1), (u - v, -1)):
        assert_clean(result)
        assert dict(result.coeffs) == ref_combine(dict(u.coeffs), dict(v.coeffs), sign)
    assert (u - u).is_zero()
    assert_clean(-u)
    assert (u + (-u)).is_zero()


@PROPERTY
@given(element_pairs())
def test_multiply_matches_dict_reference(pair):
    u, v = pair
    product = multiply(u, v)
    assert_clean(product)
    assert dict(product.coeffs) == ref_multiply(u.params, dict(u.coeffs), dict(v.coeffs))


@PROPERTY
@given(element_pairs())
def test_bracket_matches_leibniz_oracle(pair):
    u, v = pair
    result = bracket(u, v)
    assert_clean(result)
    assert dict(result.coeffs) == oracle_bracket(u.params, dict(u.coeffs), dict(v.coeffs))


@PROPERTY
@given(element_pairs())
def test_render_parse_round_trip_on_random_elements(pair):
    for u in pair:
        assert parse_element(u.params, render_element(u)) == u


@st.composite
def int_maps(draw):
    """A random (a, b) and three maps of nonzero ints on in-bound keys."""
    p = TruncParams(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    keys = st.tuples(st.integers(0, p.a - 1), st.integers(0, p.b - 1))
    coeffs = st.dictionaries(keys, st.integers(-20, 20).filter(bool), max_size=8)
    return p, draw(coeffs), draw(coeffs), draw(coeffs)


def as_fractions(m: dict) -> dict:
    return {k: Fraction(c) for k, c in m.items()}


@PROPERTY
@given(int_maps(), st.sampled_from((1, -1)))
def test_kernels_agree_on_int_and_fraction_maps(maps, sign):
    p, start, u, v = maps
    for kernel in (_multiply_into, _bracket_into):
        on_ints, on_fractions = dict(start), as_fractions(start)
        kernel(on_ints, p, u, v, sign)
        kernel(on_fractions, p, as_fractions(u), as_fractions(v), sign)
        assert on_ints == on_fractions
        assert all(type(c) is int and c for c in on_ints.values())
        assert all(type(c) is Fraction and c for c in on_fractions.values())
