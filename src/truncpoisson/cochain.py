"""The multiderivation cochain complex and its cohomology.

chi^0 is the algebra itself, chi^1 its derivations, chi^2 the skew
biderivations; everything vanishes above degree 2 because the algebra has two
generators.  This module applies the coboundaries to sparse cochains,
computes the cohomology spaces with canonical representatives, normalizes
1-cocycles constructively, and assembles the cup-product ring table.  The cocycles
behind the five classes 1, t, v, w, m are built in one function,
_class_representatives, which the reports take them from, and the value
maps of c10*d_{1,0} + c01*d'_{0,1} + delta_0(m) in one, _cocycle_maps,
behind hamiltonian and normalize_one_cocycle's recheck.  One
function reads a derivation's blocks: _normalize, the solve behind
normalize_one_cocycle, which is also the cocycle test of
is_poisson_derivation and of ring_table's degree-1 products.  Both run on
int or Fraction value maps, and verify's checks run them on int maps.
Derivation and Biderivation share their subtraction, component-wise on
their value fields, through the private base _Cochain.

The complex splits by weight.  X^k Y^l, d_{k+1,l}, d'_{k,l+1} and
f_{k+1,l+1} all have weight (k, l), and every coboundary preserves it, so
for each (k, l) in [0, a-1] x [0, b-1] there is one block

    X^k Y^l  --delta_0 = (l, -k)-->  (d_{k+1,l}, d'_{k,l+1})  --delta_1 = (k, l)-->  f_{k+1,l+1}

with scalar entries; an entry is absent when its basis element is truncated
away (d needs k <= a-2, d' needs l <= b-2, f needs both).  So delta_0
vanishes only at (0, 0) and (a-1, b-1), and delta_1, present on the
(a-1)(b-1) blocks with k <= a-2 and l <= b-2, only at (0, 0): cohomology
takes rank delta_0 = ab - 2 and rank delta_1 = (a-1)(b-1) - 1 as closed
forms.  At every weight but (0, 0) a derivation's component is a cocycle
exactly when it is a multiple of delta_0, that is, exact, so _normalize
visits only the blocks in the support of its cochain and tests and solves
each in one step.  verify checks the complex on int value maps through
_cocycle_maps and _delta1_into, the builders of delta_0 and delta_1.

Conventions (fixed once, verified by the delta.delta = 0 and cup
well-definedness tests):

    delta_0(f)       : X |-> {X, f},  Y |-> {Y, f}
    delta_1(d)(X^Y)  : {X, d(Y)} - {Y, d(X)} - d(X)*Y - X*d(Y)
"""

from __future__ import annotations

from itertools import chain

from .algebra import (
    AlgebraElement,
    TruncParams,
    _Record,
    _Value,
    _bracket_into,
    _render_sum,
    _shift_into,
    euler_dims,
    multiply,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Mapping, Union

    from .algebra import Vector

    Cochain = Union[AlgebraElement, "Derivation", "Biderivation"]


def chi1_index_pairs(p: TruncParams) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Exponent pairs indexing the derivation basis: the X-block then the Y-block."""
    d_pairs = [(i, j) for i in range(1, p.a) for j in range(p.b)]
    dprime_pairs = [(i, j) for i in range(p.a) for j in range(1, p.b)]
    return d_pairs, dprime_pairs


class _Cochain(_Value):
    """The base of the cochains of degree `degree` >= 1: params, then AlgebraElement values.

    Subtraction works component-wise on the value fields and rebuilds
    through the subclass's checking constructor.  A cochain subtracts only
    a cochain of its own class; any other operand is a TypeError.
    """

    __slots__ = ()

    def _parts(self) -> tuple:
        return self._values()[1:]

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__class__(self.params, *map(AlgebraElement.__sub__, self._parts(), other._parts()))

    def __repr__(self):
        return f"{type(self).__name__}({self.label()})"


class Derivation(_Cochain):
    """A derivation, determined by its values on the generators.

    The value on X can have no pure-Y terms and the value on Y no pure-X
    terms (X^{a-1}*dx = Y^{b-1}*dy = 0), which the constructor enforces.
    """

    __slots__ = ("params", "dx", "dy")
    degree = 1

    def __new__(cls, params: TruncParams, dx: AlgebraElement, dy: AlgebraElement):
        if dx.params != params or dy.params != params:
            raise ValueError("derivation values carry mismatched parameters")
        if any(i == 0 for (i, _) in dx.coeffs):
            raise ValueError("value on X has a pure-Y term; not a derivation")
        if any(j == 0 for (_, j) in dy.coeffs):
            raise ValueError("value on Y has a pure-X term; not a derivation")
        return cls._make(params, dx, dy)

    @classmethod
    def basis_d(cls, params: TruncParams, i: int, j: int) -> "Derivation":
        """The derivation X |-> X^i Y^j, Y |-> 0 (requires i >= 1)."""
        return cls(params, AlgebraElement.monomial(params, i, j), AlgebraElement.zero(params))

    @classmethod
    def basis_dprime(cls, params: TruncParams, i: int, j: int) -> "Derivation":
        """The derivation X |-> 0, Y |-> X^i Y^j (requires j >= 1)."""
        return cls(params, AlgebraElement.zero(params), AlgebraElement.monomial(params, i, j))

    def label(self) -> str:
        """Short name: 'd_{i,j}' / \"d'_{i,j}\" for basis vectors, else a sum of them."""
        terms = [(c, f"d_{{{i},{j}}}") for (i, j), c in sorted(self.dx.coeffs.items())]
        terms += [(c, f"d'_{{{i},{j}}}") for (i, j), c in sorted(self.dy.coeffs.items())]
        return _render_sum(terms)


class Biderivation(_Cochain):
    """A skew biderivation, determined by its value on X^Y.

    The value must lie in the ideal generated by X*Y (no pure-X and no
    pure-Y terms).
    """

    __slots__ = ("params", "value")
    degree = 2

    def __new__(cls, params: TruncParams, value: AlgebraElement):
        if value.params != params:
            raise ValueError("biderivation value carries mismatched parameters")
        if any(i == 0 or j == 0 for (i, j) in value.coeffs):
            raise ValueError("biderivation value must lie in the ideal generated by X*Y")
        return cls._make(params, value)

    @classmethod
    def basis_f(cls, params: TruncParams, i: int, j: int) -> "Biderivation":
        return cls(params, AlgebraElement.monomial(params, i, j))

    def label(self) -> str:
        """Short name: 'f_{i,j}' for basis vectors, else a sum of them."""
        return _render_sum((c, f"f_{{{i},{j}}}") for (i, j), c in sorted(self.value.coeffs.items()))


def cochain_degree(x: Cochain) -> int:
    if isinstance(x, _Cochain):
        return x.degree
    if isinstance(x, AlgebraElement):
        return 0
    raise TypeError(f"not a cochain: {x!r}")


def hamiltonian(lam: AlgebraElement) -> Derivation:
    """The derivation f |-> {f, lam}; image of lam under delta_0."""
    p = lam.params
    return Derivation(p, *(AlgebraElement._clean(p, m) for m in _cocycle_maps(p, 0, 0, lam.coeffs)))


def _cocycle_maps(p: TruncParams, c10, c01, m: Mapping) -> tuple[dict, dict]:
    """The value maps of c10*d_{1,0} + c01*d'_{0,1} + delta_0(m), built with _bracket_into.

    delta_0(m) has the values {X, m} and {Y, m}, neither of which has a
    term at X or at Y, so c10 and c01 stay where they are put.  Like the
    algebra kernels it runs on int or Fraction maps without zeros.
    """
    dx = {(1, 0): c10} if c10 else {}
    dy = {(0, 1): c01} if c01 else {}
    _bracket_into(dx, p, {(1, 0): 1}, m)
    _bracket_into(dy, p, {(0, 1): 1}, m)
    return dx, dy


def _delta1_into(value: dict, p: TruncParams, dx: Mapping, dy: Mapping):
    """value += delta_1(d)(X^Y) for the derivation d with value maps dx = d(X), dy = d(Y).

    The kernel of delta_1, two shifts.  {X, d(Y)} - X*d(Y) takes
    X^i Y^j in d(Y) to (j - 1) X^(i+1) Y^j, and -{Y, d(X)} - d(X)*Y takes
    X^i Y^j in d(X) to (i - 1) X^i Y^(j+1): the block entries l and k at
    the weight (k, l) of the target's f_{k+1,l+1}.  Like the algebra kernels
    it runs on int or Fraction maps without zeros, and is linear in (dx, dy).
    """
    _shift_into(value, p, dy, (1, 0), (-1, 0, 1))
    _shift_into(value, p, dx, (0, 1), (-1, 1, 0))


def is_poisson_derivation(d: Derivation) -> bool:
    """Whether d respects the bracket, i.e. is a 1-cocycle: whether _normalize solves it.

    Only the weights in the support of d are visited.  Agrees with
    Ker delta_1 (tested).
    """
    return _normalize(d.params, d.dx.coeffs, d.dy.coeffs) is not None


RING_LABELS = ("1", "t", "v", "w", "m")
RING_DEGREES = (0, 0, 1, 1, 2)


def _class_representatives(p: TruncParams) -> tuple[Cochain, ...]:
    """The cocycles 1, X^(a-1) Y^(b-1), d_{1,0}, d'_{0,1}, f_{1,1} behind the classes RING_LABELS.

    They are the basis elements of the weight-(0, 0) block, where every
    entry vanishes, and the top monomial, whose block has no delta_0 entry.
    """
    return (
        AlgebraElement.one(p),
        AlgebraElement.monomial(p, p.a - 1, p.b - 1),
        Derivation.basis_d(p, 1, 0),
        Derivation.basis_dprime(p, 0, 1),
        Biderivation.basis_f(p, 1, 1),
    )


class CohomologyReport(_Record):
    """Dimensions, ranks and canonical representatives for one degree."""

    __slots__ = ()
    params: TruncParams
    degree: int
    dimension: int
    representatives: tuple
    coboundary_rank: int
    cocycle_dim: int


def cohomology(p: TruncParams, k: int, include_reps: bool = True) -> CohomologyReport:
    """Cohomology in degree k, with canonical representatives when include_reps is true.

    The ranks come from the block table in the module docstring:
    rank delta_0 = ab - 2 and rank delta_1 = (a-1)(b-1) - 1, and every
    biderivation is a cocycle, so the dimensions are (2, 2, 1) for every
    (a, b).  The representatives are the degree-k ones of
    _class_representatives; without include_reps the report's
    representatives are ().  Degrees >= 3 yield structurally empty reports.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k >= 3:
        return CohomologyReport(p, k, 0, (), 0, 0)

    rank0 = p.dim - 2
    rank1 = (p.a - 1) * (p.b - 1) - 1
    chi = euler_dims(p)
    rank, cocycle_dim = ((0, chi.chi0 - rank0), (rank0, chi.chi1 - rank1), (rank1, chi.chi2))[k]
    reps = ()
    if include_reps:
        reps = tuple(x for x, deg in zip(_class_representatives(p), RING_DEGREES) if deg == k)
    return CohomologyReport(p, k, cocycle_dim - rank, reps, rank, cocycle_dim)


class NormalizedCocycle(_Record):
    __slots__ = ()
    c10: Fraction
    c01: Fraction
    potential: AlgebraElement


def _normalize(p: TruncParams, dx: Mapping, dy: Mapping):
    """(c10, c01, potential map) of the 1-cocycle with value maps dx = d(X), dy = d(Y), or None.

    The solve of normalize_one_cocycle and the package's one cocycle test, on
    int or Fraction maps without zeros: d - delta_0(potential) = c10*d_{1,0} +
    c01*d'_{0,1}, with c10, c01 the component of d at weight (0, 0) (0 where
    absent).  It visits the weight (k, l) != (0, 0) of each key of dx, then
    of dy, once.  There the component (x, y) is a cocycle exactly when it is
    q times delta_0 = (e, f) = (l, -k), a truncated entry being 0 (d needs
    k <= a-2, d' needs l <= b-2): it is Ker delta_1 where delta_1 = (k, l)
    exists, and where it does not one entry is truncated and e or f is not.
    delta_0 vanishes only at (0, 0) and (a-1, b-1), which no derivation
    reaches.  So x*f == y*e is the test, without a division, and the first
    weight that fails answers None; past it, q = x/e (y/f where e = 0) is
    the potential's coefficient of X^k Y^l, a Fraction on int maps too.
    """
    last_d, last_dprime = p.a - 2, p.b - 2
    potential, Fraction = {}, None  # fractions is imported at the first division: ring's products make none
    for k, l in chain(((i - 1, j) for i, j in dx), ((i, j - 1) for i, j in dy)):  # lazily: a failure ends the walk
        if (k, l) in potential or not (k or l):
            continue
        x, y = dx.get((k + 1, l), 0), dy.get((k, l + 1), 0)
        e, f = l if k <= last_d else 0, -k if l <= last_dprime else 0
        if x * f != y * e:
            return None
        if Fraction is None:
            from fractions import Fraction
        potential[(k, l)] = Fraction(x, e) if e else Fraction(y, f)
    return dx.get((1, 0), 0), dy.get((0, 1), 0), potential


def normalize_one_cocycle(d: Derivation) -> NormalizedCocycle:
    """Split a 1-cocycle into its class coordinates and an exact part.

    Returns (c10, c01, potential) with

        d - delta_0(potential) = c10 * d_{1,0} + c01 * d'_{0,1}

    exactly, from the solve _normalize on d's value maps (its docstring
    has the argument), and raises ValueError when d is not a cocycle.  The
    potential has no constant and no top monomial term.  The identity is
    checked once more on the value maps; a failure there raises RuntimeError.
    """
    from fractions import Fraction

    p = d.params
    solved = _normalize(p, d.dx.coeffs, d.dy.coeffs)
    if solved is None:
        raise ValueError("input derivation is not a cocycle")
    if _cocycle_maps(p, *solved) != (d.dx.coeffs, d.dy.coeffs):
        raise RuntimeError("cocycle normalization failed to reach the normal form")
    return NormalizedCocycle(Fraction(solved[0]), Fraction(solved[1]), AlgebraElement._clean(p, solved[2]))


def cup(x: Cochain, y: Cochain) -> Cochain:
    """Cup product at cochain level; defined for total degree <= 2.

    Degree 0 acts by multiplication of values; in degree 1 x 1 the product of
    d and d' evaluates on X^Y as d(X)*d'(Y) - d(Y)*d'(X).  Products of total
    degree >= 3 land in a zero space and are rejected here; class-level
    tables treat them as zero.
    """
    dp, dq = cochain_degree(x), cochain_degree(y)
    if dp > dq:
        # only mixed degrees reach this; degree 0 commutes with everything
        return cup(y, x)
    if dp == 0:
        if dq == 0:
            return multiply(x, y)
        return y.__class__(y.params, *(multiply(x, u) for u in y._parts()))
    if dp == 1 and dq == 1:
        value = multiply(x.dx, y.dy) - multiply(x.dy, y.dx)
        return Biderivation(x.params, value)
    raise ValueError(f"cup product of degrees {dp} and {dq} lands in a zero space")


class RingTable(_Record):
    """All 25 products of the five cohomology classes, in class coordinates."""

    __slots__ = ()
    params: TruncParams
    basis_labels: tuple[str, ...]
    degrees: tuple[int, ...]
    products: tuple[tuple[Vector, ...], ...]

    def matches_reference(self) -> bool:
        """Whether the computed table equals the reference ring's table."""
        return self.products == fibre_product_table()


def fibre_product_table() -> tuple[tuple[Vector, ...], ...]:
    """Multiplication table of the five-dimensional reference ring.

    The ring is spanned by 1, t (degree 0), v, w (degree 1), m (degree 2)
    with t*t = 0, t annihilating v, w, m, v*v = w*w = 0, v*w = m = -w*v and
    everything of total degree above 2 equal to zero.
    """
    n = len(RING_LABELS)
    zero = (0,) * n

    def unit(k: int, s: int = 1) -> Vector:
        return tuple(s if i == k else 0 for i in range(n))

    table = [[zero] * n for _ in range(n)]
    for k in range(n):
        table[0][k] = unit(k)
        table[k][0] = unit(k)
    table[2][3] = unit(4)
    table[3][2] = unit(4, -1)
    return tuple(tuple(row) for row in table)


def ring_table(p: TruncParams) -> RingTable:
    """Compute the cup-product table of the five basis classes.

    Each product is computed at cochain level and reduced to class
    coordinates by its degree.  Nothing maps into C^0, so a degree-0 product
    may have terms only at 1 and X^(a-1) Y^(b-1), and those are its
    coordinates.  A degree-1 product goes through _normalize, whose c10 and
    c01 are its v and w coordinates; a product that is no cocycle is refused
    there.  A degree-2 product's m coordinate is its f_{1,1} coefficient,
    since every other biderivation weight (k, l) has delta_1 = (k, l) != 0
    and so lies in the image.  Graded commutativity is enforced (a violation
    would be an internal bug); whether the table equals the reference ring
    is reported by matches_reference().
    """
    reps = _class_representatives(p)
    n = len(RING_LABELS)

    def class_coords(z: Cochain) -> Vector:
        deg = cochain_degree(z)
        if deg == 0:
            top = (p.a - 1, p.b - 1)
            stray = z.coeffs.keys() - {(0, 0), top}  # nothing maps into C^0
            coords = None if stray else (z.coefficient(0, 0), z.coefficient(*top), 0, 0, 0)
        elif deg == 1:
            solved = _normalize(p, z.dx.coeffs, z.dy.coeffs)
            coords = solved and (0, 0, solved[0], solved[1], 0)
        else:
            coords = (0, 0, 0, 0, z.value.coefficient(1, 1))
        if coords is None:
            raise RuntimeError("cup product leaves the span of coboundaries and representatives")
        return coords

    zero = (0,) * n
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            if RING_DEGREES[i] + RING_DEGREES[j] > 2:
                row.append(zero)
            else:
                row.append(class_coords(cup(reps[i], reps[j])))
        table.append(tuple(row))
    products = tuple(table)

    for i in range(n):
        for j in range(n):
            sign = -1 if (RING_DEGREES[i] * RING_DEGREES[j]) % 2 else 1
            if products[i][j] != tuple(sign * c for c in products[j][i]):
                raise RuntimeError("cup table violates graded commutativity")
    return RingTable(p, RING_LABELS, RING_DEGREES, products)
