"""Named structural and theorem checks, aggregated by the verify command.

Every check is exact (rational arithmetic, equality not tolerance) and
deterministic: randomized checks draw from an RNG seeded by the instance
parameters, so repeated runs produce identical output.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain, product

from .algebra import TruncParams, _bracket_into, _multiply_into, euler_dims
from .chain import TwistParams, _boundary1_into, _boundary2_into, homology, omega2_indices, omega_dims
from .cochain import _delta1_into, _normalize, chi1_index_pairs, cohomology, ring_table
from .reporting import CheckResult

# Full Jacobi enumeration is cubic in the algebra dimension; past this bound
# the verify command samples triples instead (still exact, still seeded).
JACOBI_FULL_LIMIT = 30
JACOBI_SAMPLES = 5000
# The other sampled checks' draw counts.  Their int coefficients are each
# getrandbits(9) - 256 with the zeros dropped: 511 nonzero values in [-256, 256).
BOUNDARY_RANDOM_TWISTS = 50
LEIBNIZ_TRIPLES = 25
PREDICATE_RANDOM_DERIVATIONS = 100
NORMALIZATION_COCYCLES = 20


def _rng(p: TruncParams, tag: str) -> random.Random:
    return random.Random(f"truncpoisson:{tag}:{p.a}:{p.b}")


def _below(getrandbits, n: int) -> int:
    """A uniform int in [0, n), from the same getrandbits calls as randrange(n) and choice.

    This is random.Random._randbelow: getrandbits(n.bit_length()) until the
    draw falls below n.  Calling it directly skips randint's and randrange's
    argument handling and keeps every seeded stream as it was.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_rational(rng: random.Random) -> Fraction:
    """n/d with n in [-9, 9] and d in [1, 9].

    The draws make the same getrandbits calls as rng.randint(-9, 9)
    followed by rng.randint(1, 9), so the stream matches the randint form.
    """
    getrandbits = rng.getrandbits
    return Fraction(_below(getrandbits, 19) - 9, 1 + _below(getrandbits, 9))


def _random_map(p: TruncParams, getrandbits) -> dict:
    """A random element's int map: four values at uniform keys, a key drawn again taking the later one."""
    m = {(_below(getrandbits, p.a), _below(getrandbits, p.b)): getrandbits(9) - 256 for _ in range(4)}
    return {ij: c for ij, c in m.items() if c}


def _random_derivation_maps(getrandbits, d_pairs: list, dprime_pairs: list) -> list[dict]:
    """A random derivation's [dx, dy] int maps: one value at each key of chi1_index_pairs(p)."""
    return [{ij: c for ij in pairs if (c := getrandbits(9) - 256)} for pairs in (d_pairs, dprime_pairs)]


def random_twist(rng: random.Random) -> TwistParams:
    return TwistParams(random_rational(rng), random_rational(rng))


def _delta_complex_maps(p: TruncParams, m: dict) -> tuple[dict, dict, dict]:
    """({X, m}, {Y, m}, delta_1 of that derivation): delta_0 and then delta_1 of the int map m."""
    dx: dict = {}
    dy: dict = {}
    _bracket_into(dx, p, {(1, 0): 1}, m)
    _bracket_into(dy, p, {(0, 1): 1}, m)
    value: dict = {}
    _delta1_into(value, p, dx, dy)
    return dx, dy, value


def check_delta_complex(p: TruncParams) -> CheckResult:
    """delta_1(hamiltonian(m)) = 0 for every basis monomial m, in one pass on int maps.

    hamiltonian(m) is the derivation with values {X, m} and {Y, m}; they are
    built with _bracket_into and fed to delta_1's kernel _delta1_into,
    the same kernels those functions run, here on integers.  So the check
    composes two different kernels: brackets, then shifts.

    It runs them once, on the sum of all monomials {ij: 1 for every ij}.
    That is exact, because every step moves a term from (i, j) to (i+1, j)
    or to (i, j+1): X^i Y^j writes (i+1, j) in {X, m} and (i, j+1) in
    {Y, m}, and delta_1 takes both of those to (i+1, j+1).  So no two
    monomials share a key at either stage, and the maps of the sum are the
    per-monomial maps side by side, with the same integer products and sums
    term for term.  Its delta_1 is zero exactly when every monomial's is.
    """
    value = _delta_complex_maps(p, {ij: 1 for ij in p.monomials()})[2]
    return CheckResult("delta_complex", not value, "delta1 . delta0 = 0")


def _boundary_complex_maps(p: TruncParams, alpha, beta, scale: int, z: dict) -> tuple[dict, dict, dict]:
    """(dX part, dY part, boundary_1 of those): boundary_2 and then boundary_1 of the 2-chain z, at scale."""
    on_dx: dict = {}
    on_dy: dict = {}
    _boundary2_into(on_dx, on_dy, p, alpha, beta, scale, z)
    twice: dict = {}
    _boundary1_into(twice, p, alpha, beta, scale, on_dx, on_dy)
    return on_dx, on_dy, twice


def check_boundary_complex(p: TruncParams) -> CheckResult:
    """boundary(t, boundary(t, e)) = 0 for every basis 2-form e: a proof for every twist.

    In boundary's general formula the twist enters only through the module
    brackets, {m, X} with entries -(j + alpha) and {m, Y} with entries
    (i - beta); the products by X and Y are twist-free.  So a 2-form's
    boundary has alpha-affine coefficients on dY and beta-affine ones on dX,
    and the degree-1 boundary multiplies each by the other generator's
    bracket: every coefficient of boundary(t, boundary(t, e)) is a sum of
    (alpha-affine) * (beta-affine) products, in span{1, alpha, beta,
    alpha*beta}.  Such a polynomial that vanishes on a grid {alpha0, alpha1}
    x {beta0, beta1} with alpha0 != alpha1 and beta0 != beta1 is zero.
    Trivial (0, 0), Nakayama (1-b, a-1) and the last two twists, replaced
    by (0, a-1) and (1-b, 0) after all random draws, form that grid (a, b
    >= 2); the other random twists stay as spot checks.

    Every twist runs in integer arithmetic.  With D = lcm(den alpha, den
    beta), boundary's kernels _boundary2_into and _boundary1_into, given the
    integers D*alpha and D*beta and the scale D, compute D * boundary(t, .)
    exactly: each is two shifts whose entries are D times boundary's,
    -(D*j + D*alpha) on m*X and (D*i - D*beta) on m*Y in degree 1, and
    -(D*j + D*alpha + D) on m*X and -(D*i - D*beta + D) on m*Y in degree 2,
    the last D being the twist-free product by X or Y.  Applied in turn to
    the int map {e: 1}, the first writing the (dX, dY) pair the second
    reads, they give D^2 * boundary(t, boundary(t, e)), which is zero
    exactly when the boundary of the boundary is, since D >= 1.

    Each twist runs the two kernels once, on the sum of all basis forms
    {e: 1 for every e}.  That is exact, because every shift moves a term
    from (i, j) to (i+1, j) or to (i, j+1): the form at (i, j) writes
    (i+1, j) on dY and (i, j+1) on dX, and the degree-1 kernel takes both
    of those to (i+1, j+1).  So no two forms share a key at either stage,
    and the maps of the sum are the per-form maps side by side, with the
    same integer products and sums term for term.  Its composite is zero
    exactly when every form's is.  The loop over the twists stops at the
    first nonzero composite.
    """
    rng = _rng(p, "boundary")
    twists = [TwistParams.trivial(), TwistParams.nakayama(p)]
    twists += [random_twist(rng) for _ in range(BOUNDARY_RANDOM_TWISTS)]
    twists[-2:] = [TwistParams(0, p.a - 1), TwistParams(1 - p.b, 0)]
    scaled = []
    for t in twists:
        scale = math.lcm(t.alpha.denominator, t.beta.denominator)
        alpha = t.alpha.numerator * (scale // t.alpha.denominator)
        beta = t.beta.numerator * (scale // t.beta.denominator)
        scaled.append((alpha, beta, scale))
    forms = {e: 1 for e in omega2_indices(p)}
    ok = not any(_boundary_complex_maps(p, *twist, forms)[2] for twist in scaled)
    return CheckResult("boundary_complex", ok, f"boundary1 . boundary2 = 0 for {len(twists)} twists")


def _bracket_table(p: TruncParams, monomials: list) -> list[list[int]] | None:
    """Every monomial pair's structure constant s(v, w), in rows of ints: one kernel call per row v.

    Row v = (i, j) brackets {(i, j): 1} with the sum of all n monomials.
    Distinct columns w = (k, l) land on distinct keys (i + k, j + l), so the
    map holds each pair's 1 * s(v, w) side by side; each in-box key is
    popped into its column, and a column out of the box reads 0.  A key
    left after the pops is off the grading or out of the box, and the table
    is None.  Each row's n entries, in monomial order, end in n zeros.
    """
    a, b = p.a, p.b
    every = dict.fromkeys(monomials, 1)
    padding = [0] * len(monomials)
    rows = []
    for i, j in monomials:
        row: dict = {}
        _bracket_into(row, p, {(i, j): 1}, every)
        entries = [row.pop((i + k, j + l), 0) if i + k < a and j + l < b else 0 for k, l in monomials]
        if row:
            return None
        rows.append(entries + padding)
    return rows


def check_jacobi(p: TruncParams) -> CheckResult:
    """The Jacobi identity on every monomial triple, or on JACOBI_SAMPLES seeded ones.

    The sampled triples are _jacobi_draws(p) taken three at a time: the
    same triples as rng.choice(monomials).  All three terms of
    {e,{f,g}} + {f,{g,e}} + {g,{e,f}} land on the monomial e + f + g, each
    the integer product s(v, w) * s(u, v + w) over the rotations (u, v, w),
    so the loop stops at the first triple whose sum of products is nonzero.

    While n^2 <= 3 * JACOBI_SAMPLES, that is, while the table has no more
    entries than the samples' inner brackets (every full enumeration and
    every n <= 122), the constants come from _bracket_table, and a table
    that fails its guard fails the check.  Indices are row-major, i*b + j,
    and a nonzero s(v, w) was read from an in-box key, so the index v + w
    is {v, w}'s monomial and row u's entry v + w is s(u, v + w).  When
    s(v, w) is zero the product is zero whatever that entry reads, and
    v + w <= 2n - 2 stays within the row's n zeros.

    Past that the table would cost n^2 (6.25 million entries at 50x50), so
    each rotation brackets its pair with _bracket_into and, unless that is
    zero, u with it into one total map.
    """
    monomials = list(p.monomials())
    n = len(monomials)
    if n <= JACOBI_FULL_LIMIT:
        triples = product(range(n), repeat=3)
        detail = f"all {n ** 3} monomial triples"
    else:
        draws = iter(_jacobi_draws(p))
        triples = zip(draws, draws, draws)
        detail = f"{JACOBI_SAMPLES} sampled monomial triples"
    ok = True
    if n * n <= 3 * JACOBI_SAMPLES:
        rows = _bracket_table(p, monomials)
        if rows is None:
            ok = False
        else:
            for e, f, g in triples:
                ce, cf, cg = rows[e], rows[f], rows[g]
                if cf[g] * ce[f + g] + cg[e] * cf[g + e] + ce[f] * cg[e + f]:
                    ok = False
                    break
    else:
        maps = [{ij: 1} for ij in monomials]
        total: dict = {}  # empty again whenever the loop goes on
        for e, f, g in triples:
            me, mf, mg = maps[e], maps[f], maps[g]
            # the rotations (u, v, w), unrolled; {u, 0} = 0, and most monomial pairs bracket to zero
            inner: dict = {}
            _bracket_into(inner, p, mf, mg)
            if inner:
                _bracket_into(total, p, me, inner)
            inner = {}
            _bracket_into(inner, p, mg, me)
            if inner:
                _bracket_into(total, p, mf, inner)
            inner = {}
            _bracket_into(inner, p, me, mf)
            if inner:
                _bracket_into(total, p, mg, inner)
            if total:
                ok = False
                break
    return CheckResult("jacobi_identity", ok, detail)


def _jacobi_draws(p: TruncParams) -> list[int]:
    """check_jacobi's 3 * JACOBI_SAMPLES sampled monomial indices, in draw order.

    _below(getrandbits, dim), inlined: the same indices as rng.choice(monomials).
    """
    n = p.dim
    k = n.bit_length()
    getrandbits = _rng(p, "jacobi").getrandbits
    draws = []
    for _ in range(3 * JACOBI_SAMPLES):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        draws.append(r)
    return draws


def check_leibniz(p: TruncParams) -> CheckResult:
    """{uv, w} = u{v,w} + {u,w}v on LEIBNIZ_TRIPLES seeded triples of random int maps.

    Each element is a _random_map.  The products and brackets run through
    _multiply_into and _bracket_into, the kernels of multiply and bracket,
    in exact integer arithmetic.
    """
    getrandbits = _rng(p, "leibniz").getrandbits
    ok = True
    for _ in range(LEIBNIZ_TRIPLES):
        u, v, w = (_random_map(p, getrandbits) for _ in range(3))
        uv: dict = {}
        vw: dict = {}
        uw: dict = {}
        _multiply_into(uv, p, u, v)
        _bracket_into(vw, p, v, w)
        _bracket_into(uw, p, u, w)
        difference: dict = {}
        _bracket_into(difference, p, uv, w)
        _multiply_into(difference, p, u, vw, -1)
        _multiply_into(difference, p, uw, v, -1)
        if difference:
            ok = False
            break
    return CheckResult("leibniz_rule", ok, f"{LEIBNIZ_TRIPLES} random triples")


def check_predicate_agreement(p: TruncParams) -> CheckResult:
    """is_poisson_derivation(d) == (delta_1(d) == 0) on the basis and random derivations.

    Both sides run through kernels that share no code, _normalize (the block
    solve) and _delta1_into, on int maps: the basis derivations as {ij: 1}
    and PREDICATE_RANDOM_DERIVATIONS seeded _random_derivation_maps.
    """
    getrandbits = _rng(p, "predicate").getrandbits
    d_pairs, dprime_pairs = chi1_index_pairs(p)
    derivations = chain(  # one at a time, each dropped once checked
        (({ij: 1}, {}) for ij in d_pairs),
        (({}, {ij: 1}) for ij in dprime_pairs),
        (_random_derivation_maps(getrandbits, d_pairs, dprime_pairs)
         for _ in range(PREDICATE_RANDOM_DERIVATIONS)),
    )
    ok = True
    for dx, dy in derivations:
        value: dict = {}
        _delta1_into(value, p, dx, dy)
        if (_normalize(p, dx, dy) is None) != bool(value):
            ok = False
            break
    return CheckResult(
        "cocycle_predicate_matches_kernel", ok, f"basis + {PREDICATE_RANDOM_DERIVATIONS} random derivations"
    )


def _cocycle_maps(p: TruncParams, c10, c01, m: dict) -> tuple[dict, dict]:
    """The value maps of c10*d_{1,0} + c01*d'_{0,1} + delta_0(m), built with _bracket_into.

    delta_0(m) = hamiltonian(m) has the values {X, m} and {Y, m}, neither of
    which has a term at X or at Y, so c10 and c01 stay where they are put.
    """
    dx = {(1, 0): c10} if c10 else {}
    dy = {(0, 1): c01} if c01 else {}
    _bracket_into(dx, p, {(1, 0): 1}, m)
    _bracket_into(dy, p, {(0, 1): 1}, m)
    return dx, dy


def check_normalization(p: TruncParams) -> CheckResult:
    """NORMALIZATION_COCYCLES seeded cocycles normalize back to their class coordinates and rebuild.

    Each draw is the int coefficients c10 and c01 and then an int map m
    (_random_map).  The cocycle c10*d_{1,0} + c01*d'_{0,1} +
    delta_0(m) has int value maps, built with _bracket_into.  _normalize,
    the solve of normalize_one_cocycle, divides them exactly: the
    potential it finds differs from m only by the constant and the top
    monomial, which delta_0 kills, so each quotient is a coefficient of m,
    as a Fraction.  So it must return (c10, c01) and a potential whose
    cocycle, built again, is the input.
    The derivation d_{2,0} + d'_{0,2}, its terms kept as far as the bounds
    allow, has k*dx_{k+1,l} + l*dy_{k,l+1} = 1 at the weights (1, 0) and
    (0, 1).  So it is no cocycle, and _normalize must refuse it, unless
    a = b = 2, when it is 0.
    """
    getrandbits = _rng(p, "normalize").getrandbits
    ok = True
    for _ in range(NORMALIZATION_COCYCLES):
        c10 = getrandbits(9) - 256
        c01 = getrandbits(9) - 256
        dx, dy = _cocycle_maps(p, c10, c01, _random_map(p, getrandbits))
        solved = _normalize(p, dx, dy)
        if solved is None or solved[:2] != (c10, c01) or _cocycle_maps(p, *solved) != (dx, dy):
            ok = False
            break
    dx = {(2, 0): 1} if p.a > 2 else {}
    dy = {(0, 2): 1} if p.b > 2 else {}
    ok = ok and (_normalize(p, dx, dy) is None) == bool(dx or dy)
    return CheckResult("cocycle_normalization", ok, f"{NORMALIZATION_COCYCLES} synthesized cocycles")


def check_euler(p: TruncParams) -> CheckResult:
    rng = _rng(p, "euler")
    chi = euler_dims(p)
    omg = omega_dims(p)
    co = [cohomology(p, k, include_reps=False).dimension for k in range(3)]
    oks = [
        chi.chi0 - chi.chi1 + chi.chi2 == 1,
        omg[0] - omg[1] + omg[2] == 1,
        co[0] - co[1] + co[2] == 1,
    ]
    for t in (TwistParams.trivial(), TwistParams.nakayama(p), random_twist(rng)):
        h = homology(p, t, include_reps=False).dims
        oks.append(h[0] - h[1] + h[2] == 1)
    return CheckResult("euler_characteristics", all(oks), "cochain, form and homology complexes")


def check_ring_table(p: TruncParams) -> CheckResult:
    ok = ring_table(p).matches_reference()
    return CheckResult("ring_table_matches_reference", ok, "5x5 cup table vs reference ring")


def check_twisted_duality(p: TruncParams) -> CheckResult:
    co = tuple(cohomology(p, k, include_reps=False).dimension for k in range(3))
    nak = homology(p, TwistParams.nakayama(p), include_reps=False).dims
    return CheckResult(
        "twisted_duality_dims", co == nak, f"cohomology {co} vs twisted homology {nak}"
    )


def check_duality_failure(p: TruncParams) -> CheckResult:
    h0 = homology(p, TwistParams.trivial(), include_reps=False).dims[0]
    hp2 = cohomology(p, 2, include_reps=False).dimension
    ok = h0 == p.a + p.b - 1 and h0 >= 3 and hp2 == 1 and h0 != hp2
    return CheckResult(
        "poincare_duality_failure", ok, f"dim HP_0 = {h0} vs dim HP^2 = {hp2}"
    )


def run_verify(p: TruncParams) -> list[CheckResult]:
    """All structural and theorem checks for one instance, in a fixed order."""
    return [
        check_delta_complex(p),
        check_boundary_complex(p),
        check_jacobi(p),
        check_leibniz(p),
        check_predicate_agreement(p),
        check_normalization(p),
        check_euler(p),
        check_ring_table(p),
        check_twisted_duality(p),
        check_duality_failure(p),
    ]
