"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything is checked with exact rational equality.  Shared per-instance
data for the 2..10 grid is computed once per module.
"""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from truncpoisson import (
    AlgebraElement,
    Biderivation,
    Derivation,
    TruncParams,
    TwistParams,
    bracket,
    cohomology,
    cup,
    euler_dims,
    hamiltonian,
    homology,
    is_poisson_derivation,
    multiply,
    normalize_one_cocycle,
    omega_dims,
    ring_table,
    solve,
)
from truncpoisson.checks import random_twist

import dense
from dense import to_vector
from oracles import random_cocycle, random_derivation, random_element

GRID = [(a, b) for a in range(2, 11) for b in range(2, 11)]
SMALL_GRID = [(a, b) for a in range(2, 7) for b in range(2, 7)]


def report(num, ok, desc):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def grid_data():
    data = {}
    for (a, b) in GRID:
        p = TruncParams(a, b)
        data[(a, b)] = {
            "params": p,
            "cohomology": [cohomology(p, k) for k in range(4)],
            "ring_matches": ring_table(p).matches_reference(),
            "nakayama_dims": homology(p, TwistParams.nakayama(p)).dims,
            "trivial_dims": homology(p, TwistParams.trivial()).dims,
        }
    return data


def test_criterion_1_cohomology_dimensions(grid_data):
    ok = True
    for (a, b), d in grid_data.items():
        dims = tuple(r.dimension for r in d["cohomology"][:3])
        ok = ok and dims == (2, 2, 1) and d["cohomology"][3].dimension == 0
        ok = ok and cohomology(d["params"], 5).dimension == 0
    report(1, ok, "dims(HP^0..2) = (2,2,1) and HP^k = 0 for k >= 3, all 2 <= a,b <= 10")


def test_criterion_2_centre_basis(grid_data):
    ok = True
    for (a, b), d in grid_data.items():
        p = d["params"]
        expected = (AlgebraElement.one(p), AlgebraElement.monomial(p, a - 1, b - 1))
        ok = ok and d["cohomology"][0].representatives == expected
    report(2, ok, "HP^0 representatives are exactly {1, X^(a-1)Y^(b-1)}")


def test_criterion_3_cocycle_condition_equivalence():
    ok = True
    for (a, b) in SMALL_GRID:
        p = TruncParams(a, b)
        d1 = dense.delta1_matrix(p)
        rng = random.Random(f"acceptance3:{a}:{b}")
        derivations = dense.chi1_basis(p) + [random_derivation(p, rng) for _ in range(100)]
        for d in derivations:
            in_kernel = not any(d1.apply(to_vector(d)))
            if is_poisson_derivation(d) != in_kernel:
                ok = False
    report(3, ok, "coefficient predicate == Ker(delta1) on basis + 100 random derivations, (a,b) in 2..6")


def test_criterion_4_normalization_identity():
    ok = True
    for (a, b) in SMALL_GRID:
        p = TruncParams(a, b)
        rng = random.Random(f"acceptance4:{a}:{b}")
        d10 = Derivation.basis_d(p, 1, 0)
        d01 = Derivation.basis_dprime(p, 0, 1)
        for _ in range(100):
            d, c10, c01 = random_cocycle(p, rng)
            res = normalize_one_cocycle(d)
            recon = d10.scale(res.c10) + d01.scale(res.c01) + hamiltonian(res.potential)
            if (res.c10, res.c01) != (c10, c01) or recon != d:
                ok = False
    report(4, ok, "normalization reconstructs 100 synthesized cocycles per instance, (a,b) in 2..6")


def test_criterion_5_ring_isomorphism(grid_data):
    ok = True
    for (a, b), d in grid_data.items():
        p = d["params"]
        ok = ok and d["ring_matches"]
        cochain_level = cup(Derivation.basis_d(p, 1, 0), Derivation.basis_dprime(p, 0, 1))
        ok = ok and cochain_level == Biderivation.basis_f(p, 1, 1)
    report(5, ok, "cup table equals the reference ring and d10 cup d01 = f11 at cochain level, 2..10")


def test_criterion_6_f11_not_exact(grid_data):
    ok = True
    for (a, b), d in grid_data.items():
        p = d["params"]
        target = to_vector(Biderivation.basis_f(p, 1, 1))
        ok = ok and solve(dense.delta1_matrix(p), target) is None
    report(6, ok, "delta1(P)(X^Y) = X*Y has no solution, all 2 <= a,b <= 10")


def test_criterion_7_trace_lemma(grid_data):
    ok = all(d["trivial_dims"][0] == a + b - 1 for (a, b), d in grid_data.items())
    report(7, ok, "dim HP_0(trivial twist) = a+b-1, all 2 <= a,b <= 10")


def test_criterion_8_twisted_duality(grid_data):
    ok = True
    for (a, b), d in grid_data.items():
        codims = tuple(r.dimension for r in d["cohomology"][:3])
        ok = ok and d["nakayama_dims"] == codims == (2, 2, 1)
    report(8, ok, "HP_k(twisted) = HP^k = (2,2,1) degreewise, all 2 <= a,b <= 10")


def test_criterion_9_duality_failure(grid_data):
    ok = True
    for (a, b), d in grid_data.items():
        h0 = d["trivial_dims"][0]
        hp2 = d["cohomology"][2].dimension
        ok = ok and h0 >= 3 and hp2 == 1 and h0 != hp2
    report(9, ok, "dim HP_0(trivial) >= 3 != 1 = dim HP^2 on the whole grid")


def test_criterion_10_twist_regime():
    ok = True
    for a in range(2, 9):
        for b in range(2, 9):
            p = TruncParams(a, b)
            dims = homology(p, TwistParams(Fraction(-b), Fraction(a))).dims
            ok = ok and dims == (1, 0, 0)
    report(10, ok, "twist (-b, a) gives dim HP_0 = 1 and HP_2 = 0, all 2 <= a,b <= 8")


def test_criterion_11_complex_and_structure_properties():
    ok = True
    # coboundary complex on the 2..12 grid
    for a in range(2, 13):
        for b in range(2, 13):
            p = TruncParams(a, b)
            if not (dense.delta1_matrix(p) @ dense.delta0_matrix(p)).is_zero():
                ok = False
    # boundary complex for 50 random twists on representative instances
    rng = random.Random("acceptance11")
    for (a, b) in [(2, 2), (3, 4), (5, 3), (4, 4)]:
        p = TruncParams(a, b)
        for _ in range(50):
            t = random_twist(rng)
            if not (dense.partial1_matrix(p, t) @ dense.partial2_matrix(p, t)).is_zero():
                ok = False
    # Jacobi on all monomial triples for a,b <= 5
    for a in range(2, 6):
        for b in range(2, 6):
            p = TruncParams(a, b)
            monos = [AlgebraElement.monomial(p, i, j) for (i, j) in p.monomials()]
            for e, f, g in product(monos, repeat=3):
                total = bracket(e, bracket(f, g)) + bracket(f, bracket(g, e)) + bracket(g, bracket(e, f))
                if not total.is_zero():
                    ok = False
    # Leibniz on random triples
    for (a, b) in [(2, 2), (4, 5), (6, 3)]:
        p = TruncParams(a, b)
        for _ in range(25):
            u, v, w = (random_element(p, rng) for _ in range(3))
            if bracket(multiply(u, v), w) != multiply(u, bracket(v, w)) + multiply(bracket(u, w), v):
                ok = False
    # Euler characteristics of both complexes
    for a in range(2, 11):
        for b in range(2, 11):
            p = TruncParams(a, b)
            c0, c1, c2 = euler_dims(p)
            o0, o1, o2 = omega_dims(p)
            if c0 - c1 + c2 != 1 or o0 - o1 + o2 != 1:
                ok = False
    report(11, ok, "delta.delta = 0, boundary.boundary = 0 (50 twists), Jacobi, Leibniz, Euler = 1")


def _run(argv, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "truncpoisson", *argv], capture_output=True, env=full_env
    )


def test_criterion_12_determinism():
    verify_args = ["verify", "-a", "2", "-b", "3"]
    sweep_args = ["sweep", "-a", "2..5", "-b", "2..5", "--kind", "homology", "--twist", "trivial"]
    v1, v2 = _run(verify_args), _run(verify_args)
    s1, s2 = _run(sweep_args), _run(sweep_args)
    s3 = _run(sweep_args, env={"TRUNCPOISSON_THREADS": "3"})
    ok = (
        v1.returncode == v2.returncode == 0
        and v1.stdout == v2.stdout
        and s1.returncode == s2.returncode == s3.returncode == 0
        and s1.stdout == s2.stdout == s3.stdout
        and len(v1.stdout) > 0
        and len(s1.stdout) > 0
    )
    report(12, ok, "verify and sweep produce byte-identical output across runs and thread counts")
