import random
import re
from fractions import Fraction

import pytest

from truncpoisson import (
    AlgebraElement,
    ChainElement,
    TruncParams,
    TwistParams,
    bracket,
    duality_report,
    homology,
    multiply,
    omega_dims,
)
from truncpoisson import chain, checks
from truncpoisson.chain import DX, DXDY, DY, omega2_indices
from truncpoisson.checks import check_boundary_complex, random_twist

import dense
from dense import chain_from_vector, to_vector


def count_basis_directly(a, b):
    # counting oracle: enumerate the form bases one index at a time
    deg0 = [(i, j) for i in range(a) for j in range(b)]
    deg1 = [(i, j, "dX") for i in range(a - 1) for j in range(b)]
    deg1 += [(i, j, "dY") for i in range(a) for j in range(b - 1)]
    deg2 = [(i, j) for i in range(a - 1) for j in range(b - 1)]
    return (len(deg0), len(deg1), len(deg2))


def test_omega_dims_against_counting_oracle():
    assert omega_dims(TruncParams(2, 2)) == count_basis_directly(2, 2) == (4, 4, 1)
    assert omega_dims(TruncParams(2, 3)) == count_basis_directly(2, 3) == (6, 7, 2)
    for a in range(2, 9):
        for b in range(2, 9):
            p = TruncParams(a, b)
            assert omega_dims(p) == count_basis_directly(a, b)
            assert len(dense.omega1_indices(p)) == omega_dims(p)[1]
            assert len(omega2_indices(p)) == omega_dims(p)[2]


def test_omega_dims_alternating_sum():
    for a in range(2, 12):
        for b in range(2, 12):
            d0, d1, d2 = omega_dims(TruncParams(a, b))
            assert d0 - d1 + d2 == 1


def module_bracket(t, m, g):
    """{m, g} in the twisted module: the boundary of m dg, by the degree-1 kernel."""
    out: dict = {}
    chain._boundary1_into(out, m.params, t.alpha, t.beta, 1, *((m.coeffs, {}) if g == "X" else ({}, m.coeffs)))
    return AlgebraElement(m.params, out)


def test_module_bracket_trivial_twist_is_intrinsic():
    t = TwistParams.trivial()
    for a, b in [(2, 2), (4, 3), (3, 5)]:
        p = TruncParams(a, b)
        x, y = AlgebraElement.gen_x(p), AlgebraElement.gen_y(p)
        for (i, j) in p.monomials():
            m = AlgebraElement.monomial(p, i, j)
            assert module_bracket(t, m, "X") == bracket(m, x)
            assert module_bracket(t, m, "Y") == bracket(m, y)


def test_module_bracket_nakayama_formula():
    for a, b in [(2, 2), (4, 5)]:
        p = TruncParams(a, b)
        t = TwistParams.nakayama(p)
        for (i, j) in p.monomials():
            m = AlgebraElement.monomial(p, i, j)
            expected = AlgebraElement(p, {(i + 1, j): Fraction(-(j - b + 1))}) if i + 1 < a else AlgebraElement.zero(p)
            assert module_bracket(t, m, "X") == expected
            expected = AlgebraElement(p, {(i, j + 1): Fraction(i - a + 1)}) if j + 1 < b else AlgebraElement.zero(p)
            assert module_bracket(t, m, "Y") == expected


def test_module_bracket_truncates_at_top_x_power():
    rng = random.Random(31)
    p = TruncParams(3, 4)
    for _ in range(10):
        t = random_twist(rng)
        for j in range(p.b):
            m = AlgebraElement.monomial(p, p.a - 1, j)
            assert module_bracket(t, m, "X").is_zero()


def test_module_bracket_leibniz():
    # {m*u, g} = m*{u,g} + {m,g}_t*u with the intrinsic bracket in the middle
    p = TruncParams(3, 4)
    rng = random.Random(32)
    x, y = AlgebraElement.gen_x(p), AlgebraElement.gen_y(p)
    for _ in range(5):
        t = random_twist(rng)
        for (i, j) in p.monomials():
            for (k, l) in p.monomials():
                m = AlgebraElement.monomial(p, i, j)
                u = AlgebraElement.monomial(p, k, l)
                for g, gen in (("X", x), ("Y", y)):
                    lhs = module_bracket(t, multiply(m, u), g)
                    rhs = multiply(m, bracket(u, gen)) + multiply(module_bracket(t, m, g), u)
                    assert lhs == rhs


PARTIAL1_2_2_TRIVIAL_IMAGES = ["0", "-X*Y", "0", "X*Y"]
PARTIAL1_2_2_NAKAYAMA_IMAGES = ["X", "0", "-Y", "0"]


def test_partial1_hand_images_at_2_2():
    p = TruncParams(2, 2)
    for t, expected in (
        (TwistParams.trivial(), PARTIAL1_2_2_TRIVIAL_IMAGES),
        (TwistParams.nakayama(p), PARTIAL1_2_2_NAKAYAMA_IMAGES),
    ):
        m = dense.partial1_matrix(p, t)
        rendered = [
            chain_from_vector(p, 0, m.column(c)).render() for c in range(m.cols)
        ]
        assert rendered == expected


def test_partial1_ranks_at_2_2():
    p = TruncParams(2, 2)
    from truncpoisson.linalg import column_space

    triv = column_space(dense.partial1_matrix(p, TwistParams.trivial()))
    assert triv.dim == 1
    assert triv.vectors[0] == to_vector(AlgebraElement.monomial(p, 1, 1))
    nak = column_space(dense.partial1_matrix(p, TwistParams.nakayama(p)))
    assert nak.dim == 2
    assert nak.vectors == (
        to_vector(AlgebraElement.gen_y(p)),
        to_vector(AlgebraElement.gen_x(p)),
    ) or nak.vectors == (
        to_vector(AlgebraElement.gen_x(p)),
        to_vector(AlgebraElement.gen_y(p)),
    )


def closed_form_partial2(p, t, z):
    # oracle: X^iY^j dX^dY |-> -(j+alpha+1) X^(i+1)Y^j (x) dY - (i-beta+1) X^i Y^(j+1) (x) dX
    coeffs = {}
    for (i, j), c in z.coeffs.items():
        for key, e in (((i + 1, j, DY), -(j + t.alpha + 1)), ((i, j + 1, DX), -(i - t.beta + 1))):
            coeffs[key] = coeffs.get(key, 0) + c * e
    return ChainElement(p, 1, coeffs)


def closed_form_partial1(p, t, z):
    # oracle: X^iY^j dX |-> -(j+alpha) X^(i+1)Y^j,  X^iY^j dY |-> (i-beta) X^iY^(j+1)
    coeffs = {}
    for (i, j, form), c in z.coeffs.items():
        key, e = ((i + 1, j), -(j + t.alpha)) if form == DX else ((i, j + 1), i - t.beta)
        coeffs[key] = coeffs.get(key, 0) + c * e
    return ChainElement(p, 0, coeffs)


def random_chain(p, degree, rng):
    keys = dense.omega1_indices(p) if degree == 1 else omega2_indices(p)
    return ChainElement(
        p, degree, {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in keys}
    )


def test_partial2_matches_closed_form():
    rng = random.Random(33)
    for a, b in [(2, 2), (3, 4), (5, 3), (4, 4)]:
        p = TruncParams(a, b)
        twists = [TwistParams.trivial(), TwistParams.nakayama(p)]
        twists += [random_twist(rng) for _ in range(10)]
        for t in twists:
            m = dense.partial2_matrix(p, t)
            for c, (i, j) in enumerate(omega2_indices(p)):
                expected = closed_form_partial2(p, t, ChainElement(p, 2, {(i, j): 1}))
                assert m.column(c) == to_vector(expected), (a, b, t, i, j)
    # the sparse operator on whole chains, at every integer twist of the box
    # where the block ranks drop
    for a in range(2, 6):
        for b in range(2, 6):
            p = TruncParams(a, b)
            for alpha in range(-b - 1, 3):
                for beta in range(-2, a + 2):
                    t = TwistParams(alpha, beta)
                    for _ in range(2):
                        z2, z1 = random_chain(p, 2, rng), random_chain(p, 1, rng)
                        image2 = dense.boundary_map(p, 2, z2.coeffs, t.alpha, t.beta)
                        assert image2 == closed_form_partial2(p, t, z2).coeffs, (a, b, t)
                        image1 = dense.boundary_map(p, 1, z1.coeffs, t.alpha, t.beta)
                        assert image1 == closed_form_partial1(p, t, z1).coeffs, (a, b, t)


def test_partial2_nakayama_kills_top_form():
    for a, b in [(2, 2), (4, 5), (6, 3)]:
        p = TruncParams(a, b)
        m = dense.partial2_matrix(p, TwistParams.nakayama(p))
        col = omega2_indices(p).index((a - 2, b - 2))
        assert all(x == 0 for x in m.column(col))


def test_partial2_trivial_and_shifted_at_2_2():
    p = TruncParams(2, 2)
    m = dense.partial2_matrix(p, TwistParams.trivial())
    img = chain_from_vector(p, 1, m.column(0))
    assert img.coeffs == {(1, 0, DY): Fraction(-1), (0, 1, DX): Fraction(-1)}
    from truncpoisson.linalg import column_space, nullspace

    assert column_space(m).dim == 1
    m2 = dense.partial2_matrix(p, TwistParams(Fraction(-2), Fraction(2)))
    img2 = chain_from_vector(p, 1, m2.column(0))
    assert img2.coeffs == {(1, 0, DY): Fraction(1), (0, 1, DX): Fraction(1)}
    assert nullspace(m2).dim == 0


def test_boundary_complex_property():
    rng = random.Random(34)
    for a in range(2, 13):
        for b in range(2, 13):
            p = TruncParams(a, b)
            for t in (TwistParams.trivial(), TwistParams.nakayama(p)):
                assert (dense.partial1_matrix(p, t) @ dense.partial2_matrix(p, t)).is_zero()
    for a, b in [(2, 2), (3, 4), (5, 3), (4, 4)]:
        p = TruncParams(a, b)
        for _ in range(50):
            t = random_twist(rng)
            assert (dense.partial1_matrix(p, t) @ dense.partial2_matrix(p, t)).is_zero()


def test_boundary_check_evaluates_its_rational_twists_at_their_scale(monkeypatch):
    """A degree-2 kernel that drops the scale from the products by X and Y fails the check.

    The mutant's entries have the constants -alpha - 1 and beta - 1 where
    _boundary2_into's have -alpha - scale and beta - scale.  At an integer
    twist the scale is 1, so the mutation changes nothing and every integer
    twist still passes; only the random rational twists, cleared of their
    denominators, can expose it.
    """

    def unscaled(on_dx, on_dy, p, alpha, beta, scale, z):
        chain._shift_into(on_dy, p, z, (1, 0), (-alpha - 1, 0, -scale))
        chain._shift_into(on_dx, p, z, (0, 1), (beta - 1, -scale, 0))

    def boundary_squared(p, alpha, beta, e):
        on_dx, on_dy, twice = {}, {}, {}
        unscaled(on_dx, on_dy, p, alpha, beta, 1, {e: 1})
        chain._boundary1_into(twice, p, alpha, beta, 1, on_dx, on_dy)
        return twice

    sizes = [(2, 2), (3, 4), (5, 3), (4, 6)]
    monkeypatch.setattr(checks, "_boundary2_into", unscaled)
    for a, b in sizes:
        p = TruncParams(a, b)
        for alpha in range(-b - 1, 3):
            for beta in range(-2, a + 2):
                assert not any(boundary_squared(p, alpha, beta, e) for e in omega2_indices(p))
        assert not check_boundary_complex(p).passed
    monkeypatch.undo()
    assert all(check_boundary_complex(TruncParams(a, b)).passed for a, b in sizes)


def test_trace_dimension_untwisted():
    for a in range(2, 9):
        for b in range(2, 9):
            p = TruncParams(a, b)
            assert homology(p, TwistParams.trivial()).dims[0] == a + b - 1


def test_untwisted_2_2_dims_frozen():
    # rank oracle on the hand-checked 4x4 / 4x1 boundaries
    rep = homology(TruncParams(2, 2), TwistParams.trivial())
    assert rep.dims == (3, 2, 0)
    assert rep.ranks == (1, 1)


def test_nakayama_dims():
    for a in range(2, 9):
        for b in range(2, 9):
            p = TruncParams(a, b)
            rep = homology(p, TwistParams.nakayama(p))
            assert rep.dims == (2, 2, 1)
            assert [c.render() for c in rep.representatives[0]] == [
                "1",
                str(AlgebraElement.monomial(p, a - 1, b - 1)),
            ]
            assert [c.render() for c in rep.representatives[2]] == [
                ChainElement(p, 2, {(a - 2, b - 2): Fraction(1)}).render()
            ]


def test_vanishing_regime_twist():
    for a in range(2, 9):
        for b in range(2, 9):
            p = TruncParams(a, b)
            rep = homology(p, TwistParams(Fraction(-b), Fraction(a)))
            assert rep.dims == (1, 0, 0)


def test_homology_euler_for_random_twists():
    rng = random.Random(35)
    for a, b in [(2, 2), (3, 4), (5, 5)]:
        p = TruncParams(a, b)
        for _ in range(10):
            h0, h1, h2 = homology(p, random_twist(rng)).dims
            assert h0 - h1 + h2 == 1


def test_homology_representatives_are_cycles():
    p = TruncParams(3, 4)
    for t in (TwistParams.trivial(), TwistParams.nakayama(p)):
        rep = homology(p, t)
        b1 = dense.partial1_matrix(p, t)
        b2 = dense.partial2_matrix(p, t)
        for c in rep.representatives[1]:
            assert all(x == 0 for x in b1.apply(to_vector(c)))
        for c in rep.representatives[2]:
            assert all(x == 0 for x in b2.apply(to_vector(c)))


def test_duality_report_2_2():
    rep = duality_report(TruncParams(2, 2))
    assert rep.nakayama_duality_holds
    assert rep.poincare_duality_fails
    assert rep.euler_cochain == rep.euler_chain == 1
    assert [c.nakayama_homology_dim for c in rep.comparisons] == [2, 2, 1]


def test_duality_report_4_5_poincare_failure():
    rep = duality_report(TruncParams(4, 5))
    by_degree = {c.degree: c for c in rep.comparisons}
    assert by_degree[2].trivial_homology_dim == 8  # HP_0 untwisted = a+b-1
    assert by_degree[2].cohomology_dim == 1
    assert not by_degree[2].poincare_match


def test_duality_report_7_2_matches_every_degree():
    rep = duality_report(TruncParams(7, 2))
    assert all(c.nakayama_match for c in rep.comparisons)


def test_chain_element_validation():
    p = TruncParams(2, 2)
    with pytest.raises(ValueError):
        ChainElement(p, 1, {(1, 0, DX): Fraction(1)})  # dX exponent out of range
    with pytest.raises(ValueError):
        ChainElement(p, 2, {(1, 1): Fraction(1)})
    for degree in (-1, 3):
        with pytest.raises(ValueError, match="^chain degree must be 0, 1 or 2$"):
            ChainElement(p, degree, {})


# The keys on the far edge of each degree's basis at (a, b) = (3, 4), each key
# one past a bound, and keys of the wrong shape.
EDGE_KEYS = {0: [(2, 3)], 1: [(1, 3, DX), (2, 2, DY)], 2: [(1, 2)]}
OFF_BY_ONE_KEYS = {
    0: [(3, 0), (0, 4), (-1, 0), (0, -1)],
    1: [(2, 0, DX), (0, 4, DX), (3, 0, DY), (0, 3, DY), (-1, 0, DX), (0, -1, DY)],
    2: [(2, 0), (0, 3), (-1, 0), (0, -1)],
}
MISSHAPEN_KEYS = {
    0: [(0,), (0, 0, 0), (0, 0, DX)],
    1: [(0, 0), (0, 0, DX, 0), (0, 0, DXDY), (0, 0, "dZ"), (0, Fraction(0), DX), "garbage"],
    2: [(0,), (0, 0, 0), (0, 0, DXDY), (0, 0.0), range(2), "00"],
}


def test_chain_element_refuses_every_key_off_its_basis():
    p = TruncParams(3, 4)
    for degree, keys in EDGE_KEYS.items():
        assert ChainElement(p, degree, {key: 1 for key in keys}).coeffs.keys() == set(keys)
    for degree in (0, 1, 2):
        for key in OFF_BY_ONE_KEYS[degree] + MISSHAPEN_KEYS[degree]:
            with pytest.raises(ValueError, match=f"invalid degree-{degree} form index"):
                ChainElement(p, degree, {key: 1})


def test_chain_element_refuses_a_malformed_key_with_a_zero_coefficient():
    p = TruncParams(3, 4)
    for degree, key in ((1, "garbage"), (2, (7, 7)), (0, (3, 0)), (1, (0, 0, DX, 0))):
        with pytest.raises(ValueError, match=re.escape(f"invalid degree-{degree} form index {key!r}")):
            ChainElement(p, degree, {key: 0})


def test_chain_render_orders_terms_by_decreasing_key_at_every_degree():
    p = TruncParams(3, 3)
    cases = (
        (0, {(0, 0): 1, (2, 1): -2, (1, 2): Fraction(1, 2)}, "-2*X^2*Y + 1/2*X*Y^2 + 1"),
        (1, {(0, 1, DY): 3, (1, 0, DX): 1, (1, 0, DY): -1, (0, 2, DX): 1}, "-X*dY + X*dX + Y^2*dX + 3*Y*dY"),
        (2, {(0, 0): 1, (1, 1): -1, (0, 1): 2}, "-X*Y*dX^dY + 2*Y*dX^dY + dX^dY"),
    )
    for degree, coeffs, text in cases:
        assert ChainElement(p, degree, coeffs).render() == text


def test_chain_element_render_and_vectors():
    p = TruncParams(3, 3)
    c = ChainElement(p, 1, {(1, 1, DX): Fraction(2), (0, 1, DY): Fraction(-1, 2)})
    assert c.render() == "2*X*Y*dX - 1/2*Y*dY"
    assert repr(c) == "ChainElement(deg=1: 2*X*Y*dX - 1/2*Y*dY)"
    assert repr(ChainElement(p, 2, {})) == "ChainElement(deg=2: 0)"
    assert chain_from_vector(p, 1, to_vector(c)) == c
