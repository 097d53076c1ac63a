"""Property tests of the element kernels.

Sums, differences and products are compared with plain-dict references,
the bracket with the Leibniz-expansion oracle, and every result is checked
for the clean-coefficient invariant (nonzero Fraction values at in-bound
keys).  The accumulating kernels give equal maps on int maps and on the
same maps as Fractions.  The boundary and delta_1 kernels, run on int maps
with the denominators cleared, give the scaled results of the same kernels
on Fractions, and the closed-form cocycle test keeps its answer.  The
report writers give the bytes of json.dumps(indent=2) and csv.writer, or
raise their errors.  Examples are derandomized so that runs are
reproducible.
"""

import csv
import io
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncpoisson import (
    AlgebraElement,
    ChainElement,
    Derivation,
    TruncParams,
    TwistParams,
    bracket,
    hamiltonian,
    is_poisson_derivation,
    multiply,
    render_element,
)
from truncpoisson.algebra import _bracket_into, _multiply_into, _shift_into
from truncpoisson.chain import omega2_indices
from truncpoisson.cochain import _cocycle_maps, _delta1_into, _normalize, chi1_index_pairs
from truncpoisson.reporting import CheckResult, ReportBundle, to_csv, to_json

import dense
from oracles import evaluate_element, is_cocycle_by_weights, leibniz_bracket_monomial

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
        assert evaluate_element(u.params, render_element(u)) == u


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
    """Each kernel gives equal values on int maps and on their Fraction copies, of each kind.

    _shift_into takes int entries on both, as _delta1_into does, and a
    unit coefficient on the first map, whose term must still be a Fraction.
    """
    p, start, u, v = maps
    with_unit = {**u, (0, 0): 1}
    runs = (
        (lambda out, u, v: _multiply_into(out, p, u, v), {k: sign * c for k, c in u.items()}, v),
        (lambda out, u, v: _bracket_into(out, p, *((u, v) if sign > 0 else (v, u))), u, v),
        (lambda out, m, _: _shift_into(out, p, m, (1, 0), (sign, 0, -2)), with_unit, v),
        (lambda out, m, _: _shift_into(out, p, m, (0, 1), (3, sign, 0)), with_unit, v),
    )
    for kernel, x, y in runs:
        on_ints, on_fractions = dict(start), as_fractions(start)
        kernel(on_ints, x, y)
        kernel(on_fractions, as_fractions(x), as_fractions(y))
        assert on_ints == on_fractions
        assert all(type(c) is int and c for c in on_ints.values())
        assert all(type(c) is Fraction and c for c in on_fractions.values())


NONZERO_INTS = st.integers(-20, 20).filter(bool)


@st.composite
def twisted_chains(draw):
    """A random (a, b), a rational twist and an int chain map of degree 1 or 2."""
    p = TruncParams(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    t = TwistParams(draw(RATIONALS), draw(RATIONALS))
    degree = draw(st.sampled_from((1, 2)))
    keys = st.sampled_from(dense.omega1_indices(p) if degree == 1 else omega2_indices(p))
    return p, t, degree, draw(st.dictionaries(keys, NONZERO_INTS, max_size=8))


@PROPERTY
@given(twisted_chains())
def test_boundary_kernel_at_scale_is_scaled_boundary(case):
    p, t, degree, z = case
    scale = math.lcm(t.alpha.denominator, t.beta.denominator)
    out = dense.boundary_map(p, degree, z, int(t.alpha * scale), int(t.beta * scale), scale)
    expected = dense.boundary_map(p, degree, ChainElement(p, degree, z).coeffs, t.alpha, t.beta)
    assert out == {key: scale * c for key, c in expected.items()}
    assert all(type(c) is int and c for c in out.values())


@st.composite
def derivations(draw):
    """A random rational derivation over a random (a, b); about half are cocycles."""
    p = TruncParams(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    if draw(st.booleans()):
        monomials = st.sampled_from(list(p.monomials()))
        potential = AlgebraElement(p, draw(st.dictionaries(monomials, RATIONALS, max_size=6)))
        c10, c01, h = draw(RATIONALS), draw(RATIONALS), hamiltonian(potential)
        return Derivation(p, AlgebraElement.monomial(p, 1, 0, c10) + h.dx, AlgebraElement.monomial(p, 0, 1, c01) + h.dy)
    d_pairs, dprime_pairs = chi1_index_pairs(p)
    dx = draw(st.dictionaries(st.sampled_from(d_pairs), RATIONALS, max_size=8))
    dy = draw(st.dictionaries(st.sampled_from(dprime_pairs), RATIONALS, max_size=8))
    return Derivation(p, AlgebraElement(p, dx), AlgebraElement(p, dy))


def cleared(d: Derivation) -> tuple[int, dict, dict]:
    """The lcm L of d's denominators and L times d's value maps, as int maps."""
    scale = math.lcm(1, *(c.denominator for v in (d.dx, d.dy) for c in v.coeffs.values()))
    dx, dy = ({key: int(scale * c) for key, c in v.coeffs.items()} for v in (d.dx, d.dy))
    return scale, dx, dy


@PROPERTY
@given(derivations())
def test_delta1_kernel_on_cleared_maps_is_scaled_delta1(d):
    scale, dx, dy = cleared(d)
    value: dict = {}
    _delta1_into(value, d.params, dx, dy)
    assert value == {key: scale * c for key, c in dense.delta1_value(d).coeffs.items()}
    assert all(type(c) is int and c for c in value.values())


@PROPERTY
@given(derivations())
def test_cocycle_test_on_cleared_maps_agrees_with_is_poisson_derivation(d):
    _, dx, dy = cleared(d)
    assert (_normalize(d.params, dx, dy) is not None) == is_poisson_derivation(d)


@st.composite
def derivation_maps(draw):
    """(p, dx, dy): the value maps of a derivation, all int or all Fraction, drawn block by block.

    Each drawn weight (k, l) gets its component (dx_{k+1,l}, dy_{k,l+1})
    as one of: an X-part only, a Y-part only, both, or a cancelling pair
    (l*t, -k*t) with k*dx + l*dy = 0.  Terms on truncated basis elements
    are left out, so the weights with k = a-1 or l = b-1, which have no
    delta_1 entry, carry one part; weight (0, l) puts pure-Y terms in dy
    and weight (k, 0) pure-X terms in dx.
    """
    p = TruncParams(draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    values = (st.integers(-12, 12) if draw(st.booleans()) else RATIONALS).filter(bool)
    weights = st.tuples(st.integers(0, p.a - 1), st.integers(0, p.b - 1))
    dx, dy = {}, {}
    for k, l in draw(st.lists(weights, max_size=8, unique=True)):
        kind = draw(st.sampled_from(("x", "y", "both", "cancel")))
        if kind == "cancel":
            t = draw(values)
            x, y = l * t, -k * t
        else:
            x = draw(values) if kind != "y" else 0
            y = draw(values) if kind != "x" else 0
        if x and k <= p.a - 2:
            dx[(k + 1, l)] = x
        if y and l <= p.b - 2:
            dy[(k, l + 1)] = y
    return p, dx, dy


@PROPERTY
@given(derivation_maps())
def test_cocycle_test_agrees_with_the_weight_set_oracle(maps):
    p, dx, dy = maps
    assert (_normalize(p, dx, dy) is not None) == is_cocycle_by_weights(p, dx, dy)


@PROPERTY
@given(derivation_maps())
def test_normalize_kernel_solves_exactly_the_cocycles(maps):
    """_normalize refuses exactly the non-cocycles and its answer rebuilds d.

    On int maps it gives the answer it gives on the same maps as Fractions:
    the potential holds Fractions either way, and c10 and c01 are the
    maps' own values.
    """
    p, dx, dy = maps
    fx, fy = ({key: Fraction(c) for key, c in m.items()} for m in (dx, dy))
    exact = _normalize(p, fx, fy)
    assert (exact is None) == (not is_cocycle_by_weights(p, dx, dy))
    if exact is not None:
        c10, c01, potential = exact
        assert all(type(c) is Fraction and c for c in potential.values())
        d = Derivation(p, AlgebraElement(p, fx), AlgebraElement(p, fy))
        normal = Derivation(p, *(AlgebraElement(p, m) for m in _cocycle_maps(p, c10, c01, {})))
        assert d - hamiltonian(AlgebraElement(p, potential)) == normal
    solved = _normalize(p, dx, dy)
    assert solved == exact
    if solved is not None:
        assert solved[:2] == (dx.get((1, 0), 0), dy.get((0, 1), 0))
        assert all(type(c) is Fraction for c in solved[2].values())


# Strings json writes as they are, and strings it escapes or that csv quotes.
PLAIN_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'))
ODD_TEXT = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\t", "\r", "\n", "\r\n", ",", "", "é", "\U0001F600"])
TEXT = st.one_of(PLAIN_TEXT, st.lists(st.one_of(PLAIN_TEXT, ODD_TEXT), max_size=4).map("".join), st.text(max_size=6))
JSON_LEAVES = st.one_of(TEXT, st.integers(), st.integers(-(10**40), 10**40), st.booleans(), st.none())
# leaves and keys that only json.dumps writes (floats, non-str keys) or refuses (Fractions, sets)
FALLBACK_LEAVES = st.one_of(st.floats(allow_nan=True), RATIONALS, st.just({1}))
FALLBACK_KEYS = st.one_of(st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False), st.just((1, 2)))


def json_documents(leaves, keys):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=20,
    )


def outcome(write):
    """write()'s text, or the type and message of what it raised."""
    try:
        return write()
    except Exception as error:  # any error: the writers must raise what json and csv raise
        return type(error), str(error)


def bundle_of(payload) -> ReportBundle:
    return ReportBundle("x", {"a": 2}, payload, (), (), (CheckResult("c", True, "d"),))


def table_of(headers, rows) -> SimpleNamespace:
    """A stand-in with a bundle's headers and rows: to_csv reads nothing else, and its rows may be ragged."""
    return SimpleNamespace(headers=headers, rows=rows)


@PROPERTY
@given(json_documents(JSON_LEAVES, TEXT))
def test_to_json_writes_the_bytes_of_json_dumps(payload):
    bundle = bundle_of(payload)
    assert to_json(bundle) == json.dumps(bundle.envelope(), indent=2) + "\n"


@PROPERTY
@given(json_documents(st.one_of(JSON_LEAVES, FALLBACK_LEAVES), st.one_of(TEXT, FALLBACK_KEYS)))
def test_to_json_hands_other_values_to_json_dumps(payload):
    bundle = bundle_of(payload)
    assert outcome(lambda: to_json(bundle)) == outcome(lambda: json.dumps(bundle.envelope(), indent=2) + "\n")


def test_to_json_containers_and_leaves():
    payload = {"": [], "e": {}, "t": (), "n": [None, True, False, -0, -(10**30)], "s": ["", "a b"], "l": [[[]], [{}]]}
    bundle = bundle_of(payload)
    assert to_json(bundle) == json.dumps(bundle.envelope(), indent=2) + "\n"
    assert outcome(lambda: to_json(bundle_of({"f": Fraction(1, 2)}))) == (
        TypeError, "Object of type Fraction is not JSON serializable"
    )


CSV_FIELDS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), RATIONALS)


def csv_writer_text(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


@PROPERTY
@given(st.lists(TEXT, max_size=4).map(tuple), st.lists(st.lists(CSV_FIELDS, max_size=4).map(tuple), max_size=5))
def test_to_csv_writes_the_bytes_of_csv_writer(headers, rows):
    table = table_of(headers, tuple(rows))
    assert outcome(lambda: to_csv(table)) == outcome(lambda: csv_writer_text(headers, rows))


def test_to_csv_quoting_and_empty_rows():
    headers = ("a,b", 'say "hi"', "two\nlines", "")
    rows = (("",), (None,), (), ("", ""), (None, None), (1, True, None, Fraction(-1, 2), "x"))
    # csv quotes a CR or not by Python version, and 3.10's refuses a NUL, so a table with either goes to csv itself
    for more in ((), (("cr\r", "crlf\r\n"),), (("\0",),)):
        table = table_of(headers, rows + more)
        try:
            expected = csv_writer_text(headers, rows + more)
        except csv.Error:
            with pytest.raises(csv.Error):
                to_csv(table)
        else:
            assert to_csv(table) == expected
    assert to_csv(table_of(("h",), (("",), ("",)))) == 'h\n""\n""\n'
