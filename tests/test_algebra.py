import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncpoisson import (
    AlgebraElement,
    ChainElement,
    TruncParams,
    TwistParams,
    bracket,
    cohomology,
    euler_dims,
    homology,
    multiply,
    render_element,
)
from truncpoisson import checks
from truncpoisson.reporting import homology_bundle, render
from truncpoisson.algebra import _bracket_into, _frac, _multiply_into, _shift_into

from oracles import bracket_with_x, bracket_with_y, evaluate_element, leibniz_bracket_monomial, per_term_sum
from twist_grammar import TWIST_ENTRIES


def random_element(p, rng, terms=4):
    coeffs = {}
    for _ in range(terms):
        coeffs[(rng.randrange(p.a), rng.randrange(p.b))] = Fraction(
            rng.randint(-9, 9), rng.randint(1, 9)
        )
    return AlgebraElement(p, coeffs)


def test_params_validation():
    with pytest.raises(ValueError):
        TruncParams(1, 4)
    with pytest.raises(ValueError):
        TruncParams(3, 0)


# A bound or an exponent that is no int is refused, by name, before any computation.
def test_params_refuse_a_float_bound():
    with pytest.raises(ValueError, match=r"got \(3\.0, 3\)"):
        cohomology(TruncParams(3.0, 3), 1)


def test_params_refuse_a_fractional_bound():
    with pytest.raises(ValueError, match=r"got \(2\.5, 3\)"):
        homology(TruncParams(2.5, 3), TwistParams.trivial())


def test_params_refuse_a_string_bound():
    with pytest.raises(ValueError, match=r"got \('3', 3\)"):
        TruncParams("3", 3)


def test_element_refuses_a_fractional_exponent_as_a_chain_does():
    p = TruncParams(3, 3)
    with pytest.raises(ValueError, match=r"got \(1\.5, 0\)"):
        AlgebraElement(p, {(1.5, 0): 1})
    with pytest.raises(ValueError, match=r"\(1\.5, 0\)"):
        ChainElement(p, 0, {(1.5, 0): 1})
    with pytest.raises(ValueError, match=r"got \(0, -1\)"):
        AlgebraElement(p, {(0, -1): 1})


def test_element_truncates_a_key_at_its_bound_away():
    # X^a = 0 and Y^b = 0: a key exactly at a bound is truncated, as one past it is
    p = TruncParams(3, 4)
    top = AlgebraElement.monomial(p, 2, 3)
    assert AlgebraElement(p, {(3, 0): 1, (0, 4): 2, (3, 4): 3, (2, 3): 1}) == top
    assert AlgebraElement.monomial(p, 3, 0).is_zero() and AlgebraElement.monomial(p, 0, 4).is_zero()


def test_a_number_times_an_element_scales_it_from_either_side():
    p = TruncParams(3, 3)
    u = AlgebraElement(p, {(1, 0): 1, (0, 2): Fraction(-1, 2)})
    assert 2 * u == u * 2 == u.scale(2) == AlgebraElement(p, {(1, 0): 2, (0, 2): -1})
    assert str(Fraction(1, 2) * u) == "1/2*X - 1/4*Y^2"
    assert (0 * u).is_zero() and -1 * u == -u


def test_elements_over_equal_but_distinct_params_combine():
    # the parameters are compared by value: two equal TruncParams objects are one algebra
    p, q = TruncParams(3, 4), TruncParams(3, 4)
    x, y = AlgebraElement.gen_x(p), AlgebraElement.gen_y(q)
    assert p is not q and x + y == AlgebraElement(p, {(1, 0): 1, (0, 1): 1})
    assert y - x == AlgebraElement(p, {(1, 0): -1, (0, 1): 1})
    assert multiply(x, y) == bracket(x, y) == AlgebraElement.monomial(p, 1, 1)
    with pytest.raises(ValueError, match="mismatched algebra parameters"):
        x + AlgebraElement.gen_y(TruncParams(4, 3))


def _read_or_none(make):
    try:
        return make()
    except ValueError:
        return None


# The library reads rationals given as text as --twist does, on every supported Python.
def test_library_twists_and_coefficients_read_the_twist_grammar():
    p = TruncParams(3, 3)
    wrong = []
    for entry, value in TWIST_ENTRIES:
        got = (
            _read_or_none(lambda: TwistParams(entry, 0).alpha),
            _read_or_none(lambda: TwistParams(0, entry).beta),
            _read_or_none(lambda: AlgebraElement(p, {(1, 0): entry}).coefficient(1, 0)),
            _read_or_none(lambda: ChainElement(p, 0, {(1, 0): entry}).coeffs[(1, 0)]),
        )
        if got != (value,) * 4:
            wrong.append(f"{entry!r}: got {got}, want {value}")
    assert wrong == []


@pytest.mark.parametrize(
    "make",
    [
        lambda p: TwistParams(0.1, 0),
        lambda p: TwistParams(0, 0.1),
        lambda p: AlgebraElement(p, {(1, 0): 0.1}),
        lambda p: AlgebraElement.monomial(p, 1, 0, 0.1),
        lambda p: AlgebraElement.gen_x(p).scale(0.1),
        lambda p: ChainElement(p, 0, {(1, 0): 0.1}),
    ],
    ids=["alpha", "beta", "coefficient", "monomial", "scale", "chain coefficient"],
)
def test_library_refuses_a_float_rational_by_its_value(make):
    with pytest.raises(ValueError, match=r"float 0\.1$"):
        make(TruncParams(3, 3))


@pytest.mark.parametrize(
    "make",
    [
        lambda p: TwistParams("1/0", 0),
        lambda p: TwistParams(0, " 0 / 0 "),
        lambda p: AlgebraElement(p, {(1, 0): "1/0"}),
        lambda p: ChainElement(p, 0, {(1, 0): "-3/0"}),
    ],
    ids=["alpha", "beta", "coefficient", "chain coefficient"],
)
def test_library_refuses_a_zero_denominator_with_a_value_error(make):
    with pytest.raises(ValueError, match="zero denominator"):
        make(TruncParams(3, 3))


# An exact rational is an int where it is an integer by construction and a Fraction otherwise.
def test_frac_keeps_an_int_and_reads_anything_else_into_a_fraction():
    for n in (0, 1, -3, 10**40):
        assert _frac(n) is n
    for flag in (True, False):
        assert type(_frac(flag)) is Fraction and _frac(flag) == flag
    inputs = [Fraction(2, 4), Fraction(6, 3), Decimal("-0.25"), "7", "3/6", *(entry for entry, _ in TWIST_ENTRIES)]
    for x in inputs:
        value = _read_or_none(lambda: _frac(x))
        assert value is None or type(value) is Fraction, (x, value)
    for x in (1.0, 0.5, float("nan")):
        with pytest.raises(ValueError, match="float"):
            _frac(x)
    with pytest.raises(ValueError, match="zero denominator"):
        _frac("1/0")


def test_values_built_from_ints_and_from_fractions_are_equal():
    p = TruncParams(3, 4)
    assert TwistParams(0, 0) == TwistParams.trivial() == TwistParams(Fraction(0), Fraction(0))
    assert TwistParams.nakayama(p) == TwistParams(Fraction(1 - p.b), Fraction(p.a - 1))
    for alpha, beta in [(0, 0), (1 - p.b, p.a - 1), (-1, 2), (2, -5)]:
        ints, fractions = TwistParams(alpha, beta), TwistParams(Fraction(alpha), Fraction(beta))
        assert (type(ints.alpha), type(fractions.alpha)) == (int, Fraction)
        assert ints == fractions and hash(ints) == hash(fractions)
        assert homology(p, ints) == homology(p, fractions)
        assert render(homology_bundle(p, ints), "json") == render(homology_bundle(p, fractions), "json")
    coeffs = {(0, 0): 2, (1, 2): -1, (2, 3): 5}
    u, v = AlgebraElement(p, coeffs), AlgebraElement(p, {key: Fraction(c) for key, c in coeffs.items()})
    assert u == v and str(u) == str(v) and hash(tuple(u.coeffs.items())) == hash(tuple(v.coeffs.items()))
    x = AlgebraElement.gen_x(p)
    assert multiply(u, u) == multiply(v, v) and bracket(u, x) == bracket(v, x)


def test_multiply_truncation_relation():
    for a, b in [(2, 2), (3, 5), (4, 2)]:
        p = TruncParams(a, b)
        x = AlgebraElement.gen_x(p)
        top = AlgebraElement.monomial(p, a - 1, 0)
        assert multiply(x, top).is_zero()


def test_multiply_identity():
    rng = random.Random(1)
    p = TruncParams(3, 4)
    one = AlgebraElement.one(p)
    for _ in range(10):
        u = random_element(p, rng)
        assert multiply(one, u) == u
        assert multiply(u, one) == u


def test_multiply_square_at_2_2():
    p = TruncParams(2, 2)
    s = AlgebraElement.gen_x(p) + AlgebraElement.gen_y(p)
    assert multiply(s, s) == AlgebraElement.monomial(p, 1, 1, 2)


def test_multiply_mismatched_params():
    u = AlgebraElement.gen_x(TruncParams(2, 2))
    v = AlgebraElement.gen_x(TruncParams(2, 3))
    with pytest.raises(ValueError):
        multiply(u, v)


def test_bracket_of_generators():
    p = TruncParams(3, 3)
    assert bracket(AlgebraElement.gen_x(p), AlgebraElement.gen_y(p)) == AlgebraElement.monomial(p, 1, 1)


def test_bracket_antisymmetry():
    rng = random.Random(2)
    p = TruncParams(4, 3)
    for _ in range(10):
        u = random_element(p, rng)
        v = random_element(p, rng)
        assert bracket(u, u).is_zero()
        assert bracket(u, v) == -bracket(v, u)


def test_bracket_x2y_xy_frozen_value():
    # oracle: iterated Leibniz expansion of {X^2*Y, X*Y}, frozen to X^3*Y^2
    p = TruncParams(4, 4)
    via_oracle = leibniz_bracket_monomial(p, (2, 1), (1, 1))
    assert via_oracle == AlgebraElement.monomial(p, 3, 2)
    u = AlgebraElement.monomial(p, 2, 1)
    v = AlgebraElement.monomial(p, 1, 1)
    assert bracket(u, v) == via_oracle


def test_bracket_matches_leibniz_oracle_on_all_pairs():
    # the closed-form (il - jk) rule is derived; validate it pairwise
    for a, b in [(2, 2), (2, 4), (3, 3), (4, 3), (5, 5)]:
        p = TruncParams(a, b)
        for ij, kl in product(p.monomials(), repeat=2):
            lhs = bracket(AlgebraElement.monomial(p, *ij), AlgebraElement.monomial(p, *kl))
            assert lhs == leibniz_bracket_monomial(p, ij, kl), (a, b, ij, kl)


def test_bracket_reproduces_generator_rules():
    p = TruncParams(5, 4)
    for (i, j) in p.monomials():
        m = AlgebraElement.monomial(p, i, j)
        assert bracket(m, AlgebraElement.gen_x(p)) == bracket_with_x(m)
        assert bracket(m, AlgebraElement.gen_y(p)) == bracket_with_y(m)


def test_bracket_lands_in_ideal_xy():
    rng = random.Random(3)
    for a, b in [(2, 2), (3, 4), (5, 3)]:
        p = TruncParams(a, b)
        for _ in range(10):
            w = bracket(random_element(p, rng), random_element(p, rng))
            assert all(i >= 1 and j >= 1 for (i, j) in w.coeffs)


def test_jacobi_identity_all_triples():
    # every instance with a,b <= 6, every basis triple
    for a in range(2, 7):
        for b in range(2, 7):
            p = TruncParams(a, b)
            monos = [AlgebraElement.monomial(p, i, j) for (i, j) in p.monomials()]
            for e in monos:
                for f in monos:
                    ef = bracket(e, f)
                    for g in monos:
                        total = (
                            bracket(e, bracket(f, g))
                            + bracket(f, bracket(g, e))
                            + bracket(g, ef)
                        )
                        assert total.is_zero()


def test_jacobi_check_fails_on_a_broken_bracket_kernel(monkeypatch):
    """check_jacobi fails once the structure constant i*l - j*k becomes i*l - j*k + i*k.

    Both paths skip a product whose inner constant is zero: the bracket
    table reads it as a zero factor and the per-pair loop skips the outer
    bracket of an empty inner one.  This control shows that the skip cannot
    hide a broken kernel on either path: the table under full enumeration
    (3x3) and under sampling (6x6 and 9x9), the per-pair loop at 11x12,
    past the table's size rule.  A size with a = 2 could not show the skew,
    since i*k = 0 for every pair in bounds.
    """

    def skewed(out, p, u, v):
        for (i, j), c in u.items():
            for (k, l), d in v.items():
                s = i * l - j * k + i * k
                if s and i + k < p.a and j + l < p.b:
                    _multiply_into(out, p, {(0, 0): 1}, {(i + k, j + l): c * d * s})

    sizes = [(3, 3), (6, 6), (9, 9), (11, 12)]
    assert TruncParams(3, 3).dim <= checks.JACOBI_FULL_LIMIT < TruncParams(6, 6).dim
    assert TruncParams(9, 9).dim ** 2 <= 3 * checks.JACOBI_SAMPLES < TruncParams(11, 12).dim ** 2
    monkeypatch.setattr(checks, "_bracket_into", skewed)
    for a, b in sizes:
        assert not checks.check_jacobi(TruncParams(a, b)).passed
    monkeypatch.undo()
    assert all(checks.check_jacobi(TruncParams(a, b)).passed for a, b in sizes)


def test_jacobi_bracket_table_holds_every_pair_bracket(monkeypatch):
    """_bracket_table's entry (v, w) is the coefficient of a fresh {v, w}, and its padding is zeros.

    At 3x3 and 5x6 (full enumeration), 8x8 and 11x11 (sampled; 11x11 is the
    largest square on the table path) every entry of row v is compared with
    _bracket_into of {v: 1} and {w: 1} alone: the coefficient at v + w, or
    0 when that bracket is empty.  Each row ends in dim zeros.

    Two kernels that write each term one Y step too far make the table path
    fail.  One writes past the box, to (i + k, b) when j + l = b - 1: that
    key is left after the row's pops, so the table is None.  The other is
    Y * {,} truncated to the box, itself a Poisson bracket in two variables,
    so the Jacobi identity holds for it: the per-pair path (11x12) and
    check_leibniz pass it, and only delta_complex and cocycle_normalization
    catch it.  Its keys are all in the box, each the key of the column one
    Y step over, so the pops leave nothing; the table then reads its
    constants against the wrong pairs, and the cyclic sums fail.
    """
    for a, b in [(3, 3), (5, 6), (8, 8), (11, 11)]:
        p = TruncParams(a, b)
        monomials = list(p.monomials())
        n = len(monomials)
        assert n * n <= 3 * checks.JACOBI_SAMPLES
        rows = checks._bracket_table(p, monomials)
        assert len(rows) == n
        for (i, j), row in zip(monomials, rows):
            assert len(row) == 2 * n and row[n:] == [0] * n
            for (k, l), entry in zip(monomials, row):
                fresh = {}
                _bracket_into(fresh, p, {(i, j): 1}, {(k, l): 1})
                assert entry == fresh.get((i + k, j + l), 0) and len(fresh) <= 1

    def past_the_box(out, p, u, v):
        for (i, j), c in u.items():
            for (k, l), d in v.items():
                s = i * l - j * k
                if s and i + k < p.a and j + l < p.b:  # a box one taller keeps the terms past p's
                    _multiply_into(out, TruncParams(p.a, p.b + 1), {(0, 0): 1}, {(i + k, j + l + 1): c * d * s})

    def y_times_bracket(out, p, u, v):
        for (i, j), c in u.items():
            for (k, l), d in v.items():
                s = i * l - j * k
                if s and i + k < p.a and j + l + 1 < p.b:
                    _multiply_into(out, p, {(0, 0): 1}, {(i + k, j + l + 1): c * d * s})

    for a, b in [(3, 3), (5, 6), (8, 8), (11, 11)]:
        p = TruncParams(a, b)
        monomials = list(p.monomials())
        monkeypatch.setattr(checks, "_bracket_into", past_the_box)
        assert checks._bracket_table(p, monomials) is None
        assert not checks.check_jacobi(p).passed
        monkeypatch.setattr(checks, "_bracket_into", y_times_bracket)
        assert checks._bracket_table(p, monomials) is not None
        assert not checks.check_jacobi(p).passed
        monkeypatch.undo()


@st.composite
def kernel_maps(draw):
    """A random (a, b), a kind (int or Fraction) and three maps of nonzero values of that kind.

    The values include 1, so the kernels' skipped product by a unit
    coefficient is taken as often as the general product.
    """
    p = TruncParams(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    kind = draw(st.sampled_from((int, Fraction)))
    values = st.integers(-3, 3).filter(bool)
    if kind is Fraction:
        values = values.map(Fraction) | st.fractions(-3, 3, max_denominator=6).filter(bool)
    keys = st.tuples(st.integers(0, p.a - 1), st.integers(0, p.b - 1))
    maps = st.dictionaries(keys, values, max_size=8)
    return p, kind, draw(maps), draw(maps), draw(maps)


def negated(m: dict) -> dict:
    return {k: -c for k, c in m.items()}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kernel_maps())
def test_algebra_kernels_add_in_place_like_a_per_term_sum(maps):
    """_multiply_into and _bracket_into update out as the naive sum of their terms would.

    A key missing from out takes its term, a present one the sum, and a
    cancelled key is gone; adding the terms of -u and v restores out, so
    from an empty out it is empty again.  Values keep the inputs' kind.
    """
    p, kind, start, u, v = maps
    constants = {_multiply_into: lambda i, j, k, l: 1, _bracket_into: lambda i, j, k, l: i * l - j * k}
    for kernel, constant in constants.items():
        terms = [
            ((i + k, j + l), constant(i, j, k, l) * c * d)
            for (i, j), c in u.items()
            for (k, l), d in v.items()
            if i + k < p.a and j + l < p.b
        ]
        for before in (start, {}):
            out = dict(before)
            kernel(out, p, u, v)
            assert out == per_term_sum(before, terms)
            assert all(type(c) is kind and c for c in out.values())
            kernel(out, p, negated(u), v)
            assert out == before


@st.composite
def shift_cases(draw):
    """kernel_maps' (a, b), kind and two maps, with a step, an entry and a nonzero constant c.

    The step is any in-box exponent pair, and the entry's three numbers are
    drawn apart, so both exponents may weigh in.  The entry and c are ints,
    which the differentials pass on int and Fraction maps alike, or, on
    Fraction maps, also Fractions, as a rational twist gives; the small
    range makes an entry's value 1 and a c of 1 common.
    """
    p, kind, start, m, _ = draw(kernel_maps())
    numbers = st.integers(-3, 3)
    if kind is Fraction:
        numbers = numbers | st.fractions(-3, 3, max_denominator=4)
    step = (draw(st.integers(0, p.a - 1)), draw(st.integers(0, p.b - 1)))
    entry = (draw(numbers), draw(numbers), draw(numbers))
    return p, kind, start, m, step, entry, draw(numbers.filter(bool))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(shift_cases())
def test_shift_kernel_adds_in_place_like_a_per_term_sum(case):
    """_shift_into updates out as the naive sum of its terms.

    The term d X^k Y^l of m gives c * (e0 + e1*k + e2*l) * d at
    (k + di, l + dj), if that key is in the box.  A cancelled key is gone;
    the shift by -c restores out, so from an empty out it is empty again.
    Values keep the map's kind, also where c or the entry's value is 1.
    """
    p, kind, start, m, step, entry, c = case
    (di, dj), (e0, e1, e2) = step, entry
    terms = [
        ((k + di, l + dj), c * (e0 + e1 * k + e2 * l) * d)
        for (k, l), d in m.items()
        if k + di < p.a and l + dj < p.b
    ]
    for before in (start, {}):
        out = dict(before)
        _shift_into(out, p, m, step, entry, c)
        assert out == per_term_sum(before, terms)
        assert all(type(v) is kind and v for v in out.values())
        _shift_into(out, p, m, step, entry, -c)
        assert out == before


def test_shift_kernel_takes_a_term_as_it_is_at_a_factor_of_1():
    """A Fraction entry value or c equal to 1 leaves an int term an int; any other factor multiplies it."""
    one, p = Fraction(1), TruncParams(4, 3)
    out = {}
    _shift_into(out, p, {(1, 0): 2, (2, 1): 3, (3, 2): 5}, (0, 1), (0, one, 0), one)
    assert out == {(1, 1): 2, (2, 2): 6} and [type(v) for v in out.values()] == [int, Fraction]
    _shift_into(out, p, {(1, 1): 4}, (0, 0), (1, 0, 0), Fraction(1, 2))
    assert out == {(1, 1): 4, (2, 2): 6} and type(out[(1, 1)]) is Fraction


def test_leibniz_check_fails_on_a_non_derivation_bracket_kernel(monkeypatch):
    """check_leibniz fails once the structure constant i*l - j*k becomes i*l - j*k + i*j*l.

    The added term is not linear in (i, j), so the bracket is no longer a
    derivation of the product in its first argument; the + i*k skew of the
    Jacobi control is linear and would still satisfy the Leibniz rule.
    """

    def skewed(out, p, u, v):
        for (i, j), c in u.items():
            for (k, l), d in v.items():
                s = i * l - j * k + i * j * l
                if s and i + k < p.a and j + l < p.b:
                    _multiply_into(out, p, {(0, 0): 1}, {(i + k, j + l): c * d * s})

    sizes = [(3, 3), (8, 8)]
    monkeypatch.setattr(checks, "_bracket_into", skewed)
    for a, b in sizes:
        assert not checks.check_leibniz(TruncParams(a, b)).passed
    monkeypatch.undo()
    assert all(checks.check_leibniz(TruncParams(a, b)).passed for a, b in sizes)


def test_leibniz_rule_random_triples():
    rng = random.Random(4)
    for a, b in [(2, 2), (3, 4), (6, 5)]:
        p = TruncParams(a, b)
        for _ in range(15):
            u, v, w = (random_element(p, rng) for _ in range(3))
            assert bracket(multiply(u, v), w) == multiply(u, bracket(v, w)) + multiply(bracket(u, w), v)


def test_euler_dims_values():
    assert euler_dims(TruncParams(2, 2)) == (4, 4, 1)
    assert euler_dims(TruncParams(2, 3)) == (6, 7, 2)


def test_euler_dims_alternating_sum_is_one():
    for a in range(2, 12):
        for b in range(2, 12):
            c0, c1, c2 = euler_dims(TruncParams(a, b))
            assert c0 - c1 + c2 == 1


def test_render_spec_example():
    p = TruncParams(4, 4)
    u = AlgebraElement(p, {(2, 1): Fraction(3), (1, 0): Fraction(1, 2)})
    assert render_element(u) == "3*X^2*Y + 1/2*X"


def test_render_parse_round_trip():
    rng = random.Random(5)
    p = TruncParams(5, 6)
    assert evaluate_element(p, "0") == AlgebraElement.zero(p)
    for _ in range(40):
        u = random_element(p, rng, terms=rng.randint(0, 6))
        assert evaluate_element(p, render_element(u)) == u


def test_elements_truncate_eagerly():
    p = TruncParams(2, 2)
    u = AlgebraElement(p, {(5, 0): Fraction(1), (1, 1): Fraction(2)})
    assert u == AlgebraElement.monomial(p, 1, 1, 2)


def test_element_refuses_a_key_that_is_not_a_pair():
    p = TruncParams(3, 3)
    for key in (5, "ab", None):
        with pytest.raises(ValueError, match=re.escape(f"exponents must be nonnegative integers, got {key!r}")):
            AlgebraElement(p, {key: 1})


def test_element_refuses_a_key_with_three_exponents():
    p = TruncParams(3, 3)
    for key in ((1, 2, 3), (0, 0, 0), (1,)):
        with pytest.raises(ValueError, match=re.escape(f"exponents must be nonnegative integers, got {key!r}")):
            AlgebraElement(p, {key: 1})
