"""Independent oracles used by the tests.

These deliberately avoid the library's closed-form bracket and its
Gauss-Jordan: the bracket oracle expands products one generator at a time
using only the two generator rules, the delta_1 oracle evaluates the
convention's four terms with those rules and multiply, and the rank oracle
is a separate textbook forward elimination.  The per-term sum is the plain
dict reference for the kernels that add into a map in place.  The element
evaluator reads a rendering back as a sum of products of X, Y and Fraction
numbers, computed with the package's multiply and + and -, not with its
renderer.
random_element and random_derivation draw Fraction elements and
derivations from random_rational, the draw behind verify's twists;
random_cocycle synthesizes the Fraction cocycles that the tests normalize.
is_cocycle_by_weights tests the delta_1 entries (k, l) on the set of
weights a derivation reaches, where the package's _normalize tests each
component against delta_0 as it walks the maps.  The argv oracle is the argparse parser that
the command line used before its table-driven parser, kept verbatim
around the same value converters.
Agreement between library and oracle is the point of the tests, so nothing
here may call the code path it checks.
"""

import argparse
import re
from fractions import Fraction

from truncpoisson import AlgebraElement, Derivation, TruncParams, cli, hamiltonian, multiply
from truncpoisson.checks import random_rational
from truncpoisson.cochain import chi1_index_pairs


def bracket_with_x(m: AlgebraElement) -> AlgebraElement:
    """{m, X} from the generator rule {X^i Y^j, X} = -j X^(i+1) Y^j."""
    p = m.params
    out = {}
    for (i, j), c in m.coeffs.items():
        if j and i + 1 < p.a:
            out[(i + 1, j)] = out.get((i + 1, j), Fraction(0)) - j * c
    return AlgebraElement(p, out)


def bracket_with_y(m: AlgebraElement) -> AlgebraElement:
    """{m, Y} from the generator rule {X^i Y^j, Y} = i X^i Y^(j+1)."""
    p = m.params
    out = {}
    for (i, j), c in m.coeffs.items():
        if i and j + 1 < p.b:
            out[(i, j + 1)] = out.get((i, j + 1), Fraction(0)) + i * c
    return AlgebraElement(p, out)


def leibniz_bracket_monomial(p: TruncParams, ij, kl) -> AlgebraElement:
    """{e_ij, e_kl} by peeling generators off the second factor with Leibniz.

    {u, X*w} = {u, X}*w + X*{u, w}, recursing until the second factor is a
    generator or the unit.  Only the two generator rules above are used.
    """
    u = AlgebraElement.monomial(p, *ij)
    k, l = kl
    if k == 0 and l == 0:
        return AlgebraElement.zero(p)
    if (k, l) == (1, 0):
        return bracket_with_x(u)
    if (k, l) == (0, 1):
        return bracket_with_y(u)
    if k > 0:
        head = AlgebraElement.gen_x(p)
        rest = (k - 1, l)
    else:
        head = AlgebraElement.gen_y(p)
        rest = (k, l - 1)
    rest_elem = AlgebraElement.monomial(p, *rest)
    first = bracket_with_x(u) if k > 0 else bracket_with_y(u)
    return multiply(first, rest_elem) + multiply(head, leibniz_bracket_monomial(p, ij, rest))


def delta1_oracle(d) -> AlgebraElement:
    """delta_1(d)(X^Y) = {X, d(Y)} - {Y, d(X)} - d(X)*Y - X*d(Y).

    The brackets with a generator come from the generator rules by
    antisymmetry: {X, m} = -{m, X} and -{Y, m} = {m, Y}.  multiply and the
    sums are checked on their own against plain-dict references in
    test_properties.py.
    """
    p = d.params
    x, y = AlgebraElement.gen_x(p), AlgebraElement.gen_y(p)
    return bracket_with_y(d.dx) - bracket_with_x(d.dy) - multiply(d.dx, y) - multiply(x, d.dy)


def evaluate_element(p: TruncParams, text: str) -> AlgebraElement:
    """The element a rendering such as "3*X^2*Y - 1/2*X" names, evaluated by the package's X, Y, +, - and *."""
    gens, total = {"X": AlgebraElement.gen_x(p), "Y": AlgebraElement.gen_y(p)}, AlgebraElement.zero(p)
    for sign, term in re.findall(r"(-?)\s*([^\s+-]+)", text):
        u = AlgebraElement.one(p)
        for name, _, exp in (factor.partition("^") for factor in term.split("*")):
            for _ in range(int(exp or 1)):
                u = u * gens[name] if name in gens else u * Fraction(name)
        total = total - u if sign else total + u
    return total


def per_term_sum(start: dict, terms) -> dict:
    """start plus every (key, term), summed one term at a time, zeros dropped at the end."""
    total = dict(start)
    for key, term in terms:
        total[key] = total.get(key, 0) + term
    return {key: c for key, c in total.items() if c}


def disjoint_union(maps) -> dict:
    """The union of maps whose key sets are pairwise disjoint; a shared key fails the test."""
    union = {}
    for m in maps:
        assert not union.keys() & m.keys()
        union.update(m)
    return union


def random_element(p: TruncParams, rng, terms: int = 4) -> AlgebraElement:
    """terms random_rational values at random keys (i, j), each value drawn before its key."""
    coeffs = {}
    for _ in range(terms):
        coeffs[(rng.randrange(p.a), rng.randrange(p.b))] = random_rational(rng)
    return AlgebraElement(p, coeffs)


def random_derivation(p: TruncParams, rng) -> Derivation:
    """The derivation whose coordinates are euler_dims(p).chi1 random_rational draws, in basis order."""
    values = [
        AlgebraElement(p, {ij: random_rational(rng) for ij in pairs}) for pairs in chi1_index_pairs(p)
    ]
    return Derivation(p, *values)


def random_cocycle(p: TruncParams, rng) -> tuple[Derivation, Fraction, Fraction]:
    """A synthesized cocycle c10*d_{1,0} + c01*d'_{0,1} + delta_0(random_element), with c10 and c01."""
    c10 = random_rational(rng)
    c01 = random_rational(rng)
    h = hamiltonian(random_element(p, rng))
    dx, dy = AlgebraElement.monomial(p, 1, 0, c10) + h.dx, AlgebraElement.monomial(p, 0, 1, c01) + h.dy
    return Derivation(p, dx, dy), c10, c01


def is_cocycle_by_weights(p: TruncParams, dx, dy) -> bool:
    """k*dx_{k+1,l} + l*dy_{k,l+1} = 0 at every weight (k, l) in the set of those dx and dy reach.

    Only the weights with k <= a-2 and l <= b-2 have a delta_1 entry.
    """
    weights = {(i - 1, j) for (i, j) in dx} | {(i, j - 1) for (i, j) in dy}
    return all(
        not k * dx.get((k + 1, l), 0) + l * dy.get((k, l + 1), 0)
        for (k, l) in weights
        if k <= p.a - 2 and l <= p.b - 2
    )


def independent_rank(rows) -> int:
    """Textbook forward elimination, separate from the library's rref.

    Only entries that are not Fractions already are converted, and the row
    update skips the zero entries of the pivot row.
    """
    work = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        for r in range(rank + 1, len(work)):
            if work[r][c]:
                factor = work[r][c] / top[c]
                work[r] = [x - factor * y if y else x for x, y in zip(work[r], top)]
        rank += 1
    return rank


def _argparse_type(convert):
    """A cli value converter that reports its ValueError as argparse's type error."""

    def wrapped(s):
        try:
            return convert(s)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return wrapped


ab_value = _argparse_type(cli.ab_value)
range_value = _argparse_type(cli.range_value)
twist_value = _argparse_type(cli.twist_value)


# From here to the end: the argparse command line, verbatim.
def _add_instance_args(sub: argparse.ArgumentParser):
    sub.add_argument("-a", type=ab_value, required=True, help="X-exponent bound (at least 2)")
    sub.add_argument("-b", type=ab_value, required=True, help="Y-exponent bound (at least 2)")


def _add_format_arg(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--format", choices=("json", "csv", "markdown"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncpoisson",
        description="Exact Poisson (co)homology of truncated polynomial algebras in two variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coh = sub.add_parser("cohomology", help="cohomology dimensions and representatives")
    _add_instance_args(p_coh)
    _add_format_arg(p_coh)
    p_coh.add_argument(
        "--no-representatives", action="store_true", help="omit representative labels"
    )

    p_hom = sub.add_parser("homology", help="twisted homology dimensions and representatives")
    _add_instance_args(p_hom)
    _add_format_arg(p_hom)
    p_hom.add_argument(
        "--twist", type=twist_value, default="trivial",
        help="trivial | nakayama | ALPHA,BETA (rationals)",
    )
    p_hom.add_argument(
        "--no-representatives", action="store_true", help="omit representative labels"
    )

    p_ring = sub.add_parser("ring", help="cup-product table of the five basis classes")
    _add_instance_args(p_ring)
    _add_format_arg(p_ring)

    p_dual = sub.add_parser("duality", help="degreewise duality comparisons")
    _add_instance_args(p_dual)
    _add_format_arg(p_dual)

    p_sweep = sub.add_parser("sweep", help="tabulate dimensions over parameter ranges")
    p_sweep.add_argument("-a", type=range_value, required=True, help="a range: N or LO..HI")
    p_sweep.add_argument("-b", type=range_value, required=True, help="b range: N or LO..HI")
    p_sweep.add_argument(
        "--kind", choices=("cohomology", "homology"), default="cohomology", help="what to sweep"
    )
    p_sweep.add_argument(
        "--twist", type=twist_value, help="twist for homology sweeps"
    )
    _add_format_arg(p_sweep)

    p_ver = sub.add_parser("verify", help="run every structural and theorem check")
    _add_instance_args(p_ver)
    _add_format_arg(p_ver)

    return parser
