import inspect
import math
import random
from fractions import Fraction

import pytest

from truncpoisson import (
    AlgebraElement,
    Biderivation,
    Derivation,
    TruncParams,
    cohomology,
    cup,
    hamiltonian,
    is_poisson_derivation,
    multiply,
    normalize_one_cocycle,
    ring_table,
)
from truncpoisson import chain, checks, cochain
from truncpoisson.chain import TwistParams, omega2_indices
from truncpoisson.checks import (
    _below,
    _random_derivation_maps,
    random_rational,
    random_twist,
)
from truncpoisson.algebra import _bracket_into, _multiply_into, _shift_into
from truncpoisson.cochain import fibre_product_table
from truncpoisson.linalg import Matrix, column_space, solve

import dense
from dense import to_vector
from oracles import (
    delta1_oracle,
    disjoint_union,
    independent_rank,
    random_cocycle,
    random_derivation,
    random_element,
)


def test_chi1_basis_2_2_order():
    p = TruncParams(2, 2)
    labels = [d.label() for d in dense.chi1_basis(p)]
    assert labels == ["d_{1,0}", "d_{1,1}", "d'_{0,1}", "d'_{1,1}"]


def test_cochain_labels_render_signed_sums():
    p = TruncParams(3, 4)
    d = Derivation(
        p, AlgebraElement(p, {(1, 0): Fraction(1, 2), (2, 1): -3}), AlgebraElement(p, {(0, 1): -1})
    )
    assert d.label() == "1/2*d_{1,0} - 3*d_{2,1} - d'_{0,1}"
    f = Biderivation(p, AlgebraElement(p, {(1, 1): -1, (2, 2): Fraction(2, 3)}))
    assert f.label() == "-f_{1,1} + 2/3*f_{2,2}"
    assert Derivation.basis_dprime(p, 2, 3).label() == "d'_{2,3}"
    assert Biderivation.basis_f(p, 2, 3).label() == "f_{2,3}"
    zero = AlgebraElement.zero(p)
    assert Derivation(p, zero, zero).label() == "0" and Biderivation(p, zero).label() == "0"


def test_chi1_basis_counts():
    assert len(dense.chi1_basis(TruncParams(2, 3))) == 7
    for a, b in [(2, 2), (3, 5), (6, 4)]:
        p = TruncParams(a, b)
        assert len(dense.chi1_basis(p)) == b * (a - 1) + a * (b - 1)


def test_chi1_basis_satisfies_derivation_constraints():
    p = TruncParams(3, 4)
    xa1 = AlgebraElement.monomial(p, p.a - 1, 0)
    yb1 = AlgebraElement.monomial(p, 0, p.b - 1)
    for d in dense.chi1_basis(p):
        assert multiply(xa1, d.dx).is_zero()
        assert multiply(yb1, d.dy).is_zero()


def test_derivation_constructor_rejects_bad_values():
    p = TruncParams(2, 2)
    with pytest.raises(ValueError):
        Derivation(p, AlgebraElement.monomial(p, 0, 1), AlgebraElement.zero(p))
    with pytest.raises(ValueError):
        Derivation(p, AlgebraElement.zero(p), AlgebraElement.monomial(p, 1, 0))


def test_cochains_subtract_only_cochains_of_their_own_class():
    p = TruncParams(3, 4)
    d, f, one = Derivation.basis_d(p, 1, 0), Biderivation.basis_f(p, 1, 1), AlgebraElement.one(p)
    for x, y in [(d, f), (f, d), (d, one), (f, one)]:
        with pytest.raises(TypeError):
            x - y


def test_cochain_arithmetic_is_component_wise():
    p = TruncParams(3, 4)
    d, g, f = Derivation.basis_d(p, 1, 0), Derivation.basis_dprime(p, 0, 1), Biderivation.basis_f(p, 1, 1)
    assert repr(d - g) == "Derivation(d_{1,0} - d'_{0,1})" and d - (d - g) == g
    assert repr(g - d) == "Derivation(-d_{1,0} + d'_{0,1})" and repr(f - f) == "Biderivation(0)"
    assert not (f - f).value.coeffs and not (d - d).dx.coeffs
    assert [cochain.cochain_degree(x) for x in (AlgebraElement.one(p), d, f)] == [0, 1, 2]
    with pytest.raises(TypeError, match="not a cochain"):
        cochain.cochain_degree(Fraction(1))


def test_hamiltonian_of_constants_is_zero():
    for a, b in [(2, 2), (4, 3)]:
        p = TruncParams(a, b)
        zero = Derivation(p, AlgebraElement.zero(p), AlgebraElement.zero(p))
        assert hamiltonian(AlgebraElement.one(p)) == zero
        assert hamiltonian(AlgebraElement.monomial(p, a - 1, b - 1)) == zero


def test_hamiltonian_of_x_at_2_2():
    # d(X) = {X,X} = 0 and d(Y) = {Y,X} = -X*Y, straight from the generator rule
    p = TruncParams(2, 2)
    d = hamiltonian(AlgebraElement.gen_x(p))
    assert d.dx.is_zero()
    assert d.dy == AlgebraElement.monomial(p, 1, 1, -1)


HAND_DELTA0_2_2 = [
    [0, 0, 0, 0],  # d_{1,0} never appears in a hamiltonian at (2,2)
    [0, 1, 0, 0],  # {X, Y} = X*Y contributes to d_{1,1}
    [0, 0, 0, 0],
    [0, 0, -1, 0],  # {Y, X} = -X*Y contributes to d'_{1,1}
]


def test_delta0_matches_hand_matrix_at_2_2():
    p = TruncParams(2, 2)
    assert dense.delta0_matrix(p) == Matrix.from_rows(HAND_DELTA0_2_2)
    assert independent_rank(HAND_DELTA0_2_2) == 2


def test_delta0_zero_columns_for_centre():
    for a, b in [(2, 2), (3, 4), (5, 3)]:
        p = TruncParams(a, b)
        m = dense.delta0_matrix(p)
        assert all(x == 0 for x in m.column(dense.monomials(p).index((0, 0))))
        assert all(x == 0 for x in m.column(dense.monomials(p).index((a - 1, b - 1))))


def test_delta0_rank_is_ab_minus_2():
    for a in range(2, 8):
        for b in range(2, 8):
            p = TruncParams(a, b)
            assert column_space(dense.delta0_matrix(p)).dim == a * b - 2


def test_delta1_zero_at_2_2():
    assert dense.delta1_matrix(TruncParams(2, 2)).is_zero()


def test_delta1_rank_counts_nontrivial_constraints():
    # each nontrivial constraint row touches its own unknowns, so the rank is
    # the number of (i,j) pairs with (i,j) != (1,1)
    for a, b in [(2, 3), (3, 3), (4, 6), (6, 2)]:
        p = TruncParams(a, b)
        expected = (a - 1) * (b - 1) - 1
        assert independent_rank(dense.delta1_matrix(p).data) == expected
    assert independent_rank(dense.delta1_matrix(TruncParams(2, 3)).data) == 1


def test_delta_complex_property():
    for a in range(2, 13):
        for b in range(2, 13):
            p = TruncParams(a, b)
            assert (dense.delta1_matrix(p) @ dense.delta0_matrix(p)).is_zero()


X_MAP, Y_MAP = {(1, 0): 1}, {(0, 1): 1}
# delta_1's four convention terms, one pass each: {X, d(Y)}, -{Y, d(X)} as
# {d(X), Y}, -d(X)*Y and -X*d(Y).
DELTA1_TERMS = [
    lambda value, p, dx, dy: _bracket_into(value, p, X_MAP, dy),
    lambda value, p, dx, dy: _bracket_into(value, p, dx, Y_MAP),
    lambda value, p, dx, dy: _multiply_into(value, p, Y_MAP, dx, -1),
    lambda value, p, dx, dy: _multiply_into(value, p, X_MAP, dy, -1),
]
# Mutants of the shift kernels: (the checks name patched, the mutant).
SHIFT_MUTANTS = {
    "delta1_const_0_on_dy": ("_delta1_into", lambda value, p, dx, dy: (
        _shift_into(value, p, dy, "X", 0, 1), _shift_into(value, p, dx, "Y", -1, 1))),
    "delta1_slope_2_on_dx": ("_delta1_into", lambda value, p, dx, dy: (
        _shift_into(value, p, dy, "X", -1, 1), _shift_into(value, p, dx, "Y", -1, 2))),
    "delta1_dy_pass_only": ("_delta1_into", lambda value, p, dx, dy: _shift_into(value, p, dy, "X", -1, 1)),
    "delta1_dx_pass_only": ("_delta1_into", lambda value, p, dx, dy: _shift_into(value, p, dx, "Y", -1, 1)),
    "boundary2_beta_flipped": ("_boundary2_into", lambda on_dx, on_dy, p, alpha, beta, scale, z: (
        _shift_into(on_dy, p, z, "X", -alpha - scale, -scale),
        _shift_into(on_dx, p, z, "Y", -beta - scale, -scale))),
}
CHECKS_OF = {
    "_delta1_into": (checks.check_delta_complex, checks.check_predicate_agreement),
    "_boundary2_into": (checks.check_boundary_complex,),
}


@pytest.mark.parametrize("dropped", [*range(4), *SHIFT_MUTANTS])
def test_delta_complex_check_fails_when_delta1_drops_a_term(monkeypatch, dropped):
    """The verify checks that run a differential's kernel fail on each mutant of it.

    An int dropped is one of delta_1's four convention terms, which cancel
    on d = hamiltonian(m) only all together.  The named mutants change a
    constant or a slope of the shifts, or drop one shift, of _delta1_into or
    _boundary2_into.  Each delta_1 mutant fails check_delta_complex and
    check_predicate_agreement, the boundary mutant check_boundary_complex;
    the kernels as they are pass all three.
    """
    if dropped in SHIFT_MUTANTS:
        name, mutant = SHIFT_MUTANTS[dropped]
    else:
        name = "_delta1_into"

        def mutant(value, p, dx, dy):
            for k, term in enumerate(DELTA1_TERMS):
                if k != dropped:
                    term(value, p, dx, dy)

    sizes = [(3, 3), (8, 8)]
    monkeypatch.setattr(checks, name, mutant)
    for a, b in sizes:
        assert not any(check(TruncParams(a, b)).passed for check in CHECKS_OF[name])
    monkeypatch.undo()
    for a, b in sizes:
        assert all(check(TruncParams(a, b)).passed for check in CHECKS_OF[name])


def scaled_twist(t: TwistParams) -> tuple[int, int, int]:
    """(D*alpha, D*beta, D) with D = lcm(den alpha, den beta), as check_boundary_complex scales a twist."""
    scale = math.lcm(t.alpha.denominator, t.beta.denominator)
    return int(t.alpha * scale), int(t.beta * scale), scale


@pytest.mark.parametrize("mutant", [None, "boundary2_beta_flipped"])
def test_boundary_check_batch_is_the_union_of_its_forms(monkeypatch, mutant):
    """The maps of the sum of all basis 2-forms are the per-form maps, key-disjoint, side by side.

    At the four grid twists and at rational twists with scale > 1, for
    2 <= a, b <= 8: the dX part, the dY part and the composite of the sum
    equal the union of each form's own, and no two forms share a key.  With
    the kernels as they are the composites are empty, so the mutant with
    beta's sign flipped, whose composites are not, repeats the test.
    """
    if mutant:
        monkeypatch.setattr(checks, *SHIFT_MUTANTS[mutant])
    rational = [TwistParams(Fraction(1, 2), Fraction(-2, 3)), TwistParams(Fraction(-7, 4), 3),
                TwistParams(5, Fraction(9, 7)), TwistParams(Fraction(-3, 5), Fraction(5, 6))]
    nonzero = 0
    for a in range(2, 9):
        for b in range(2, 9):
            p = TruncParams(a, b)
            forms = omega2_indices(p)
            grid = [TwistParams(0, 0), TwistParams(1 - b, a - 1), TwistParams(0, a - 1), TwistParams(1 - b, 0)]
            for t in grid + rational:
                alpha, beta, scale = scaled_twist(t)
                assert all(type(x) is int for x in (alpha, beta)) and (scale > 1) == (t in rational)
                batched = checks._boundary_complex_maps(p, alpha, beta, scale, {e: 1 for e in forms})
                single = [checks._boundary_complex_maps(p, alpha, beta, scale, {e: 1}) for e in forms]
                for k in range(3):
                    assert batched[k] == disjoint_union(maps[k] for maps in single)
                nonzero += bool(batched[2])
    assert bool(nonzero) == bool(mutant)


@pytest.mark.parametrize("mutant", [None, "delta1_const_0_on_dy"])
def test_delta_check_batch_is_the_union_of_its_monomials(monkeypatch, mutant):
    """({X, m}, {Y, m}, delta_1) of the sum of all monomials are the per-monomial maps side by side.

    For 2 <= a, b <= 8, each of the three maps of the sum equals the union of
    each monomial's own, and no two monomials share a key.  The value is
    empty with the kernels as they are, so a delta_1 mutant, whose value is
    not, repeats the test.
    """
    if mutant:
        monkeypatch.setattr(checks, *SHIFT_MUTANTS[mutant])
    nonzero = 0
    for a in range(2, 9):
        for b in range(2, 9):
            p = TruncParams(a, b)
            batched = checks._delta_complex_maps(p, {ij: 1 for ij in p.monomials()})
            single = [checks._delta_complex_maps(p, {ij: 1}) for ij in p.monomials()]
            for k in range(3):
                assert batched[k] == disjoint_union(maps[k] for maps in single)
            nonzero += bool(batched[2])
    assert bool(nonzero) == bool(mutant)


def shift_off_at(weight):
    """_shift_into with the one term it writes at the key weight off by one."""

    def mutant(out, p, m, g, const, slope):
        for (i, j), c in m.items():
            e, key, inside = (j, (i + 1, j), i < p.a - 1) if g == "X" else (i, (i, j + 1), j < p.b - 1)
            w = const + slope * e
            if w and inside:
                out[key] = out.get(key, 0) + c * w + (key == weight)
                if not out[key]:
                    del out[key]

    return mutant


def test_complex_checks_fail_on_a_term_off_at_one_weight(monkeypatch):
    """A shift kernel that is wrong at one weight alone fails both batched complex checks.

    The weight (k, l) has k, l >= 2, so a term lands there in delta_1's and
    in boundary's passes.  In the sum of all basis elements that term comes
    from one monomial or form only, and no other one's term can cancel it.
    """
    for a, b in [(3, 3), (4, 5), (8, 8), (9, 4)]:
        p = TruncParams(a, b)
        for weight in {(2, 2), (a - 1, b - 1), (a - 1, 2), (2, b - 1)}:
            mutant = shift_off_at(weight)
            monkeypatch.setattr(cochain, "_shift_into", mutant)
            monkeypatch.setattr(chain, "_shift_into", mutant)
            assert not checks.check_delta_complex(p).passed
            assert not checks.check_boundary_complex(p).passed
            monkeypatch.undo()
        monkeypatch.setattr(cochain, "_shift_into", shift_off_at(None))
        monkeypatch.setattr(chain, "_shift_into", shift_off_at(None))
        assert checks.check_delta_complex(p).passed and checks.check_boundary_complex(p).passed
        monkeypatch.undo()


def test_canonical_one_cocycles_in_kernel():
    for a, b in [(2, 2), (4, 5)]:
        p = TruncParams(a, b)
        d1 = dense.delta1_matrix(p)
        for d in (Derivation.basis_d(p, 1, 0), Derivation.basis_dprime(p, 0, 1)):
            assert all(x == 0 for x in d1.apply(to_vector(d)))


def test_is_poisson_derivation_examples():
    p = TruncParams(2, 3)
    assert is_poisson_derivation(Derivation.basis_d(p, 1, 0))
    assert is_poisson_derivation(Derivation(p, AlgebraElement.zero(p), AlgebraElement.zero(p)))
    assert not is_poisson_derivation(Derivation.basis_dprime(p, 0, 2))


def test_random_derivation_equals_from_vector_of_the_same_draws():
    """Coordinates in basis order and RNG consumption those of Fraction(n, d) draws."""
    for a, b in [(2, 2), (2, 5), (3, 4), (6, 3)]:
        p = TruncParams(a, b)
        rng, twin = random.Random(f"draws:{a}:{b}"), random.Random(f"draws:{a}:{b}")
        n = b * (a - 1) + a * (b - 1)
        for _ in range(30):
            d = random_derivation(p, rng)
            draws = [Fraction(twin.randint(-9, 9), twin.randint(1, 9)) for _ in range(n)]
            assert to_vector(d) == tuple(draws)
            for value in (d.dx, d.dy):
                assert all(type(c) is Fraction and c for c in value.coeffs.values())
        assert rng.random() == twin.random()


DRAW_SIZES = [(2, 2), (2, 5), (7, 3), (9, 9)]


def assert_int_draws(m: dict, keys) -> None:
    """Values are nonzero ints in [-256, 256), at keys from keys: what the kernels take."""
    assert m.keys() <= set(keys)
    assert all(type(c) is int and c and -256 <= c < 256 for c in m.values())


def test_random_map_draws_nonzero_ints_at_monomials():
    for a, b in DRAW_SIZES:
        p = TruncParams(a, b)
        rng, twin = checks._rng(p, "map"), checks._rng(p, "map")
        for _ in range(60):
            m = checks._random_map(p, rng.getrandbits)
            assert_int_draws(m, p.monomials())
            assert m == checks._random_map(p, twin.getrandbits)


def test_random_derivation_maps_draw_nonzero_ints_at_the_pairs_passed():
    for a, b in DRAW_SIZES:
        p = TruncParams(a, b)
        pairs = cochain.chi1_index_pairs(p)
        rng, twin = checks._rng(p, "derivation"), checks._rng(p, "derivation")
        for _ in range(30):
            maps = _random_derivation_maps(rng.getrandbits, *pairs)
            assert len(maps) == 2
            for m, keys in zip(maps, pairs):
                assert_int_draws(m, keys)
            assert maps == _random_derivation_maps(twin.getrandbits, *pairs)


def test_verify_details_print_the_draws_it_makes(monkeypatch):
    """run_verify at 8x8 draws what the sample-count constants say, and its details print them.

    check_euler draws one random twist beside the boundary check's.
    """
    counts = {name: 0 for name in ("random_twist", "_random_map", "_random_derivation_maps")}

    def spy(name):
        draw = getattr(checks, name)

        def counted(*args):
            counts[name] += 1
            return draw(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(checks, name, spy(name))
    details = {r.name: r.detail for r in checks.run_verify(TruncParams(8, 8))}
    assert counts == {
        "random_twist": checks.BOUNDARY_RANDOM_TWISTS + 1,
        "_random_map": 3 * checks.LEIBNIZ_TRIPLES + checks.NORMALIZATION_COCYCLES,
        "_random_derivation_maps": checks.PREDICATE_RANDOM_DERIVATIONS,
    }
    assert details["boundary_complex"] == "boundary1 . boundary2 = 0 for 52 twists"
    assert details["leibniz_rule"] == "25 random triples"
    assert details["cocycle_predicate_matches_kernel"] == "basis + 100 random derivations"
    assert details["cocycle_normalization"] == "20 synthesized cocycles"


def test_verify_draws_keep_the_randint_and_choice_streams(monkeypatch):
    """verify's rational, twist and Jacobi draws make the getrandbits calls of their randint/choice forms.

    Each comparison ends with rng.random() == twin.random(), so the two
    streams are also consumed to the same point.
    """
    for n in (1, 2, 9, 19, 36, 81, 90):
        rng, twin, choices = (random.Random(f"below:{n}") for _ in range(3))
        for _ in range(200):
            r = _below(rng.getrandbits, n)
            assert r == twin.randrange(n) == choices.choice(range(n))
        assert rng.random() == twin.random() == choices.random()

    def old_rational(rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    rng, twin = random.Random("rational"), random.Random("rational")
    for _ in range(200):
        assert random_rational(rng) == old_rational(twin)
    assert rng.random() == twin.random()

    rng, twin = random.Random("twist"), random.Random("twist")
    for _ in range(100):
        assert random_twist(rng) == TwistParams(old_rational(twin), old_rational(twin))
    assert rng.random() == twin.random()

    for a, b in [(2, 2), (3, 5), (7, 4)]:
        p = TruncParams(a, b)
        rng, twin = random.Random(f"element:{a}:{b}"), random.Random(f"element:{a}:{b}")
        for _ in range(50):
            coeffs = {}
            for _ in range(4):
                coeffs[(twin.randrange(a), twin.randrange(b))] = old_rational(twin)
            assert random_element(p, rng) == AlgebraElement(p, coeffs)
        assert rng.random() == twin.random()

    # 6x6, 9x4 and 5x13 read the bracket table; 11x12 brackets each sampled pair
    for a, b in [(6, 6), (9, 4), (5, 13), (11, 12)]:
        p = TruncParams(a, b)
        assert p.dim > checks.JACOBI_FULL_LIMIT
        monomials = list(p.monomials())
        for run in (checks._jacobi_draws, checks.check_jacobi):
            seeded = checks._rng(p, "jacobi")
            twin = checks._rng(p, "jacobi")
            monkeypatch.setattr(checks, "_rng", lambda p, tag: seeded)
            drawn = run(p)
            monkeypatch.undo()
            choices = [twin.choice(monomials) for _ in range(3 * checks.JACOBI_SAMPLES)]
            if run is checks._jacobi_draws:
                assert [monomials[k] for k in drawn] == choices
            assert seeded.random() == twin.random()


def test_is_poisson_derivation_agrees_with_kernel():
    for a, b in [(2, 3), (3, 4), (4, 3)]:
        p = TruncParams(a, b)
        rng = random.Random(f"predicate:{a}:{b}")
        d1 = dense.delta1_matrix(p)
        for d in dense.chi1_basis(p) + [random_derivation(p, rng) for _ in range(100)]:
            in_kernel = all(x == 0 for x in d1.apply(to_vector(d)))
            assert is_poisson_derivation(d) == in_kernel


def test_cohomology_dimensions_and_reps():
    for a, b in [(2, 2), (3, 4), (5, 3)]:
        p = TruncParams(a, b)
        r0, r1, r2 = (cohomology(p, k) for k in range(3))
        assert (r0.dimension, r1.dimension, r2.dimension) == (2, 2, 1)
        assert r0.representatives == (
            AlgebraElement.one(p),
            AlgebraElement.monomial(p, a - 1, b - 1),
        )
        assert r1.representatives == (
            Derivation.basis_d(p, 1, 0),
            Derivation.basis_dprime(p, 0, 1),
        )
        assert r2.representatives == (Biderivation.basis_f(p, 1, 1),)
        for r in (r0, r1, r2):
            assert r.dimension == r.cocycle_dim - r.coboundary_rank


def test_cohomology_without_reps_keeps_dims_and_ranks():
    for a in range(2, 9):
        for b in range(2, 9):
            p = TruncParams(a, b)
            for k in range(4):
                full, bare = cohomology(p, k), cohomology(p, k, include_reps=False)
                assert bare == full._replace(representatives=()), (a, b, k)
                assert len(full.representatives) == full.dimension


def test_cohomology_vanishes_above_degree_2():
    p = TruncParams(3, 3)
    for k in (3, 4, 7):
        r = cohomology(p, k)
        assert r.dimension == 0
        assert r.representatives == ()


def test_normalize_already_normal():
    p = TruncParams(3, 4)
    res = normalize_one_cocycle(Derivation.basis_d(p, 1, 0))
    assert (res.c10, res.c01) == (1, 0)
    assert res.potential.is_zero()


def test_normalize_coboundary_to_zero():
    rng = random.Random(22)
    for a, b in [(2, 2), (4, 3)]:
        p = TruncParams(a, b)
        for _ in range(10):
            d = hamiltonian(random_element(p, rng))
            res = normalize_one_cocycle(d)
            assert (res.c10, res.c01) == (0, 0)
            assert d == hamiltonian(res.potential)


def test_normalize_recovers_synthesized_coefficients():
    # oracle: solve d - c10*d10 - c01*d01 in Im(delta0) by elimination
    for a, b in [(2, 2), (3, 4), (5, 5)]:
        p = TruncParams(a, b)
        rng = random.Random(f"norm:{a}:{b}")
        d0 = dense.delta0_matrix(p)
        d10 = to_vector(Derivation.basis_d(p, 1, 0))
        d01 = to_vector(Derivation.basis_dprime(p, 0, 1))
        system = Matrix.from_rows(
            [(d10[i], d01[i]) + row for i, row in enumerate(d0.data)]
        )
        for _ in range(20):
            d, c10, c01 = random_cocycle(p, rng)
            via_elimination = solve(system, to_vector(d))
            assert via_elimination is not None
            assert via_elimination[:2] == (c10, c01)
            res = normalize_one_cocycle(d)
            assert (res.c10, res.c01) == (c10, c01)
            assert to_vector(res.potential) == via_elimination[2:]
            normal = Derivation(p, AlgebraElement.monomial(p, 1, 0, res.c10), AlgebraElement.monomial(p, 0, 1, res.c01))
            assert d - hamiltonian(res.potential) == normal


def test_normalize_rejects_non_cocycle():
    p = TruncParams(2, 3)
    with pytest.raises(ValueError):
        normalize_one_cocycle(Derivation.basis_dprime(p, 0, 2))


def test_normalize_gives_an_int_cocycle_its_fractional_potential():
    # d_{1,2} = delta_0(Y^2/2) at (3, 4): the solve on int maps answers as on Fraction maps
    p = TruncParams(3, 4)
    solved = cochain._normalize(p, {(1, 2): 1}, {})
    assert solved == cochain._normalize(p, {(1, 2): Fraction(1)}, {}) == (0, 0, {(0, 2): Fraction(1, 2)})
    assert is_poisson_derivation(Derivation.basis_d(p, 1, 2))


# Mutants of _normalize, each one edit of its source: (text, replacement).
NORMALIZE_MUTANTS = {
    "class_block_dropped": ("return dx.get((1, 0), 0), dy.get((0, 1), 0), potential", "return 0, 0, potential"),
    "wrong_part_divided": ("Fraction(x, e) if e else Fraction(y, f)", "Fraction(y, e) if e else Fraction(x, f)"),
    "block_test_skipped": ("if x * f != y * e:", "if False:"),
    "block_test_entries_swapped": ("if x * f != y * e:", "if x * e != y * f:"),
    "potential_sign_flipped": ("Fraction(x, e) if e else Fraction(y, f)", "-Fraction(x, e) if e else -Fraction(y, f)"),
}


@pytest.mark.parametrize("mutant", [None, *NORMALIZE_MUTANTS])
def test_normalization_check_fails_on_each_mutant_of_its_kernel(monkeypatch, mutant):
    """check_normalization fails when _normalize drops the class block, divides the wrong part,
    skips or swaps its block test or flips the potential's sign; the source as it is (None) passes."""
    source = inspect.getsource(cochain._normalize)
    if mutant is not None:
        text, replacement = NORMALIZE_MUTANTS[mutant]
        assert source.count(text) == 1
        source = source.replace(text, replacement)
    namespace = dict(vars(cochain))
    # compiled as the module is, so the annotations stay strings
    exec("from __future__ import annotations\n" + source, namespace)
    monkeypatch.setattr(checks, "_normalize", namespace["_normalize"])
    results = [checks.check_normalization(TruncParams(a, b)).passed for a, b in [(3, 3), (4, 7), (8, 8)]]
    assert results == [mutant is None] * 3


def test_normalization_check_and_normalize_one_cocycle_run_one_kernel(monkeypatch):
    kernel = cochain._normalize
    assert checks._normalize is kernel
    calls = []

    def spy(p, dx, dy):
        calls.append(type(next(iter(dx.values()))))
        return kernel(p, dx, dy)

    monkeypatch.setattr(checks, "_normalize", spy)
    monkeypatch.setattr(cochain, "_normalize", spy)
    p = TruncParams(4, 5)
    assert checks.check_normalization(p).passed
    n = checks.NORMALIZATION_COCYCLES
    assert calls == [int] * (n + 1)  # the cocycles and the refused d_{2,0} + d'_{0,2}
    res = normalize_one_cocycle(Derivation.basis_d(p, 1, 0) - hamiltonian(AlgebraElement.monomial(p, 1, 2, -1)))
    assert calls[n + 1:] == [int] and (res.c10, res.c01) == (1, 0)


def test_cup_d10_d01_is_f11():
    for a, b in [(2, 2), (4, 5)]:
        p = TruncParams(a, b)
        prod = cup(Derivation.basis_d(p, 1, 0), Derivation.basis_dprime(p, 0, 1))
        assert prod == Biderivation.basis_f(p, 1, 1)


def test_cup_top_monomial_annihilates_d10():
    for a, b in [(2, 2), (3, 4)]:
        p = TruncParams(a, b)
        top = AlgebraElement.monomial(p, a - 1, b - 1)
        prod = cup(top, Derivation.basis_d(p, 1, 0))
        assert prod.dx.is_zero() and prod.dy.is_zero()


def test_cup_self_product_of_one_cochain_vanishes():
    rng = random.Random(23)
    p = TruncParams(4, 4)
    for _ in range(10):
        d = random_derivation(p, rng)
        assert cup(d, d).value.is_zero()


def test_cup_unit_is_identity():
    p = TruncParams(3, 3)
    one = AlgebraElement.one(p)
    d = Derivation.basis_d(p, 1, 0)
    f = Biderivation.basis_f(p, 1, 1)
    assert cup(one, d) == d
    assert cup(d, one) == d
    assert cup(one, f) == f


def test_cup_degree_overflow_raises():
    p = TruncParams(2, 2)
    with pytest.raises(ValueError):
        cup(Biderivation.basis_f(p, 1, 1), Derivation.basis_d(p, 1, 0))


def test_cup_well_defined_on_classes():
    # changing a 1-cocycle by a coboundary changes a degree-2 product by Im(delta1)
    for a, b in [(2, 2), (3, 4)]:
        p = TruncParams(a, b)
        rng = random.Random(f"cupwd:{a}:{b}")
        d1 = dense.delta1_matrix(p)
        d0 = dense.delta0_matrix(p)
        for _ in range(10):
            z, _, _ = random_cocycle(p, rng)
            zp, _, _ = random_cocycle(p, rng)
            lam = random_element(p, rng)
            shifted = cup(z - hamiltonian(-lam), zp) - cup(z, zp)
            assert solve(d1, to_vector(shifted)) is not None
            # a central element times a coboundary stays a coboundary
            centre = AlgebraElement.monomial(p, a - 1, b - 1, Fraction(rng.randint(-3, 3)))
            shifted1 = cup(centre, hamiltonian(lam))
            assert solve(d0, to_vector(shifted1)) is not None


def test_f11_is_not_a_coboundary():
    for a in range(2, 7):
        for b in range(2, 7):
            p = TruncParams(a, b)
            target = to_vector(Biderivation.basis_f(p, 1, 1))
            assert solve(dense.delta1_matrix(p), target) is None


def test_delta1_kernel_matches_matrix():
    rng = random.Random(24)
    p = TruncParams(4, 3)
    m = dense.delta1_matrix(p)
    for _ in range(10):
        d = random_derivation(p, rng)
        assert to_vector(Biderivation(p, dense.delta1_value(d))) == m.apply(to_vector(d))


def test_delta1_kernel_matches_generator_oracle():
    rng = random.Random(25)
    for a, b in [(2, 2), (2, 5), (3, 3), (4, 3), (3, 7), (6, 6)]:
        p = TruncParams(a, b)
        for _ in range(10):
            d = random_derivation(p, rng)
            assert dense.delta1_value(d) == delta1_oracle(d)


def test_ring_table_matches_reference():
    for a, b in [(2, 2), (5, 3)]:
        p = TruncParams(a, b)
        table = ring_table(p)
        assert table.matches_reference()


def test_ring_table_identities():
    p = TruncParams(3, 4)
    table = ring_table(p)
    zero = tuple(Fraction(0) for _ in range(5))
    m_coord = (Fraction(0),) * 4 + (Fraction(1),)
    labels = table.basis_labels
    product = {(x, y): table.products[i][j] for i, x in enumerate(labels) for j, y in enumerate(labels)}
    assert product["v", "w"] == m_coord
    assert product["w", "v"] == tuple(-c for c in m_coord)
    assert product["t", "t"] == zero
    for other in ("v", "w", "m"):
        assert product["t", other] == zero
    assert product["v", "v"] == zero
    assert product["w", "w"] == zero
    for label in ("1", "t", "v", "w", "m"):
        expected = [Fraction(0)] * 5
        expected[labels.index(label)] = Fraction(1)
        assert product["1", label] == tuple(expected)


@pytest.mark.parametrize(
    "extra",
    [
        lambda p: AlgebraElement.gen_x(p),  # degree 0, outside the representatives' blocks
        lambda p: Derivation.basis_d(p, 2, 1),  # degree 1, off the line delta_0 = (1, -1)
    ],
)
def test_ring_table_rejects_a_product_outside_the_span(monkeypatch, extra):
    import truncpoisson.cochain as cochain

    real_cup = cochain.cup

    def off_span_cup(x, y):
        z = real_cup(x, y)
        e = extra(z.params)
        return z - e if type(z) is type(e) else z

    monkeypatch.setattr(cochain, "cup", off_span_cup)
    with pytest.raises(RuntimeError, match="leaves the span of coboundaries and representatives"):
        ring_table(TruncParams(4, 4))


def test_fibre_product_table_shape():
    ref = fibre_product_table()
    assert len(ref) == 5 and all(len(row) == 5 for row in ref)
