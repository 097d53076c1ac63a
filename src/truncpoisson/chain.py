"""Kaehler forms, diagonal twist modules, and Poisson homology.

The chain complex lives on the differential forms of the truncated algebra:
degree 0 is the algebra, degree 1 is spanned by X^i Y^j dX (i <= a-2) and
X^i Y^j dY (j <= b-2), degree 2 by X^i Y^j dX^dY (i <= a-2, j <= b-2); the
torsion from X^a = Y^b = 0 is what caps the exponents.  Coefficients come
from a twisted module: the algebra itself as a space, with external bracket

    {X^i Y^j, X} = -(j + alpha) X^(i+1) Y^j
    {X^i Y^j, Y} =  (i - beta)  X^i Y^(j+1)

for rational twist parameters (alpha, beta).  (0, 0) recovers the intrinsic
bracket; (1-b, a-1) is the distinguished twist that restores degreewise
duality with the cohomology.

The complex splits by weight.  X^k Y^l, X^(k-1) Y^l dX, X^k Y^(l-1) dY and
X^(k-1) Y^(l-1) dX^dY all have weight (k, l), and every boundary preserves
it, at every twist, so for each (k, l) in [0, a-1] x [0, b-1] there is one
block

    X^k Y^l  <--b1 = (-(l+alpha), k-beta)--  (X^(k-1) Y^l dX, X^k Y^(l-1) dY)
             <--b2 = (-(k-beta), -(l+alpha))--  X^(k-1) Y^(l-1) dX^dY

with scalar entries; an entry is absent when its form is (dX needs k >= 1,
dY needs l >= 1, dX^dY needs both).  Both entries of b1 vanish only at
(0, 0), on the row k = 0 when beta = 0, on the column l = 0 when alpha = 0,
and at (beta, -alpha) when beta is an integer in [1, a-1] and -alpha one in
[1, b-1]; homology reads its answer off that list of weights.  The
boundary, m dg |-> {m, g} and m dX^dY |-> {m,X} dY - {m,Y} dX - m d(X*Y),
applies each entry as one shift (algebra._shift_into) of a form's map m
on (i, j), the entry (e0, e1, e2) of value e0 + e1*i + e2*j: b1 is
(-alpha, 0, -1) on m*X from dX and (-beta, 1, 0) on m*Y from dY, and b2
(-alpha-1, 0, -1) on m*X into dY and (beta-1, -1, 0) on m*Y into dX.
verify checks the complex on sparse int chains through its two kernels,
each twist's denominators cleared: _boundary2_into writes a 2-chain's
boundary as the pair of its dX and dY parts, and _boundary1_into reads that
pair as it is, so no 1-form key (i, j, dX) is built on the way.
"""

from __future__ import annotations

from types import MappingProxyType

from .algebra import (
    TruncParams,
    _Record,
    _Value,
    _frac,
    _render_monomial,
    _render_sum,
    _shift_into,
)
from .cochain import cohomology

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Mapping, Optional

DX, DY, DXDY = "dX", "dY", "dX^dY"


class TwistParams(_Value):
    """Diagonal twist (alpha, beta) of any rationals, each read by algebra._frac: an int or a Fraction."""

    __slots__ = ("alpha", "beta")

    def __new__(cls, alpha, beta):
        return cls._make(_frac(alpha), _frac(beta))

    @classmethod
    def trivial(cls) -> "TwistParams":
        return cls(0, 0)

    @classmethod
    def nakayama(cls, p: TruncParams) -> "TwistParams":
        """The twist (1-b, a-1) induced by the Nakayama automorphism."""
        return cls(1 - p.b, p.a - 1)


def omega2_indices(p: TruncParams) -> list[tuple[int, int]]:
    return [(i, j) for i in range(p.a - 1) for j in range(p.b - 1)]


def omega_dims(p: TruncParams) -> tuple[int, int, int]:
    """Dimensions of the form spaces: ab, (a-1)b + a(b-1), (a-1)(b-1)."""
    a, b = p.a, p.b
    return (a * b, (a - 1) * b + a * (b - 1), (a - 1) * (b - 1))


def _is_form_index(p: TruncParams, degree: int, key) -> bool:
    """Whether key indexes the degree-`degree` form basis, checked without listing it."""
    if degree == 1:
        if not (isinstance(key, tuple) and len(key) == 3 and key[2] in (DX, DY)):
            return False
        bounds = (p.a - 1, p.b) if key[2] == DX else (p.a, p.b - 1)
    elif isinstance(key, tuple) and len(key) == 2:
        bounds = (p.a, p.b) if degree == 0 else (p.a - 1, p.b - 1)
    else:
        return False
    return all(isinstance(e, int) and 0 <= e < n for e, n in zip(key, bounds))


class ChainElement(_Value):
    """A chain: coefficients over the form basis of one degree."""

    __slots__ = ("params", "degree", "coeffs")

    def __new__(cls, params: TruncParams, degree: int, coeffs: Mapping):
        if degree not in (0, 1, 2):
            raise ValueError("chain degree must be 0, 1 or 2")
        clean = {}
        for key, c in coeffs.items():
            if not _is_form_index(params, degree, key):
                raise ValueError(f"invalid degree-{degree} form index {key!r}")
            c = _frac(c)
            if c:
                clean[key] = c
        return cls._make(params, degree, MappingProxyType(clean))

    def render(self) -> str:
        """The chain as a signed sum, its terms in decreasing key order, as render_element orders them."""
        terms = []
        for key in sorted(self.coeffs, reverse=True):
            mono = _render_monomial(key[0], key[1])
            form = key[2] if self.degree == 1 else DXDY if self.degree == 2 else ""
            terms.append((self.coeffs[key], f"{mono}*{form}" if mono and form else mono or form))
        return _render_sum(terms)

    def __repr__(self):
        return f"ChainElement(deg={self.degree}: {self.render()})"


def _boundary1_into(out: dict, p: TruncParams, alpha, beta, scale: int, z_dx: Mapping, z_dy: Mapping):
    """out += scale * boundary at the twist (alpha, beta) / scale of the 1-chain z_dx dX + z_dy dY.

    The degree-1 kernel of the boundary, at scale 1 and the twist itself:
    out += {z_dx, X} + {z_dy, Y}, the block entries -(l+alpha) and
    k-beta as shifts.  z_dx and z_dy are the chain's dX and dY parts as maps
    without zeros on (i, j), the pair that _boundary2_into writes, and out
    is a map on the monomials.  Given an integer scale D with D*alpha and
    D*beta integers, it runs on int maps in integer arithmetic, with the
    entries -(D*j + D*alpha) and (D*i - D*beta).
    """
    _shift_into(out, p, z_dx, (1, 0), (-alpha, 0, -scale))
    _shift_into(out, p, z_dy, (0, 1), (-beta, scale, 0))


def _boundary2_into(on_dx: dict, on_dy: dict, p: TruncParams, alpha, beta, scale: int, z: Mapping):
    """(on_dx, on_dy) += scale * boundary at the twist (alpha, beta) / scale of the 2-chain z.

    The degree-2 kernel of the boundary: on_dy += {m,X} - m*X and on_dx +=
    -{m,Y} - m*Y, the dY and dX parts of the boundary of m dX^dY, each a map
    on (i, j).  Each part is one shift, the block entry -(l+alpha) or
    -(k-beta) at the weight (i+1, j+1): -(D*j + D*alpha + D) on m*X and
    -(D*i - D*beta + D) on m*Y at an integer scale D, as _boundary1_into.
    z is a map without zeros on the 2-form indices (i, j).
    """
    _shift_into(on_dy, p, z, (1, 0), (-alpha - scale, 0, -scale))
    _shift_into(on_dx, p, z, (0, 1), (beta - scale, -scale, 0))


class HomologyReport(_Record):
    """Dimensions, boundary ranks and representatives of one twisted complex."""

    __slots__ = ()
    params: TruncParams
    twist: TwistParams
    dims: tuple[int, int, int]
    ranks: tuple[int, int]
    representatives: Optional[tuple[tuple[ChainElement, ...], ...]]

    def __new__(cls, params, twist, dims, ranks, representatives):
        h0, h1, h2 = dims
        if h0 - h1 + h2 != 1:
            raise RuntimeError(f"homology dims {dims} break the Euler identity")
        return super().__new__(cls, params, twist, dims, ranks, representatives)


def homology(p: TruncParams, t: TwistParams, include_reps: bool = True) -> HomologyReport:
    """Twisted Poisson homology, read off the weights whose blocks carry classes.

    A block where b1 has a nonzero entry is exact: b2 = (-(k-beta), -(l+alpha))
    is then nonzero too whenever dX^dY exists, so Ker(b1) is the line Im(b2).
    A block where b1 vanishes (listed in the module docstring) carries one
    class per basis element.  With r, c and i the sizes of the row, column
    and interior parts of that list, dims = (1 + r + c + i, r + c + 2i, i)
    and ranks = (ab - h0, (a-1)(b-1) - h2).  The representatives are those
    basis elements, weights in lex order and dX forms before dY forms, as the
    dense reduced-echelon computation gives them; they are built only when
    include_reps is true, otherwise the report's representatives are None.
    """
    row = p.b - 1 if not t.beta else 0
    column = p.a - 1 if not t.alpha else 0
    ki, li = t.beta, -t.alpha
    inner = int(ki.denominator == li.denominator == 1 and 0 < ki < p.a and 0 < li < p.b)
    dims = (1 + row + column + inner, row + column + 2 * inner, inner)
    ranks = (p.dim - dims[0], (p.a - 1) * (p.b - 1) - inner)
    if not include_reps:
        return HomologyReport(p, t, dims, ranks, None)
    weights = [(0, 0), *((0, j) for j in range(1, row + 1))]
    weights += [(i, 0) for i in range(1, column + 1)]
    if inner:
        weights.append((int(ki), int(li)))
    # _make without the constructor's checks: the cap row builds 360001 chains here
    make = ChainElement._make
    reps0 = tuple(make(p, 0, MappingProxyType({w: 1})) for w in weights)
    reps1 = [make(p, 1, MappingProxyType({(k - 1, l, DX): 1})) for k, l in weights if k]
    reps1 += [make(p, 1, MappingProxyType({(k, l - 1, DY): 1})) for k, l in weights if l]
    reps2 = tuple(make(p, 2, MappingProxyType({(k - 1, l - 1): 1})) for k, l in weights if k and l)
    return HomologyReport(p, t, dims, ranks, (reps0, tuple(reps1), reps2))


class DegreeComparison(_Record):
    __slots__ = ()
    degree: int
    cohomology_dim: int
    nakayama_homology_dim: int
    nakayama_match: bool
    complement_degree: int
    trivial_homology_dim: int
    poincare_match: bool


class DualityReport(_Record):
    """Degreewise duality data: the twisted match and the untwisted failure."""

    __slots__ = ()
    params: TruncParams
    comparisons: tuple[DegreeComparison, ...]
    euler_cochain: int
    euler_chain: int
    nakayama_duality_holds: bool
    poincare_duality_fails: bool


def duality_report(p: TruncParams) -> DualityReport:
    """Compare cohomology with twisted and untwisted homology in each degree.

    The twisted homology (at the (1-b, a-1) twist) must match the cohomology
    degree by degree; the naive pairing of degree k against untwisted degree
    2-k must fail at the ends, and both complexes have Euler characteristic 1.
    """
    codims = [cohomology(p, k, include_reps=False).dimension for k in range(3)]
    nak = homology(p, TwistParams.nakayama(p), include_reps=False).dims
    triv = homology(p, TwistParams.trivial(), include_reps=False).dims
    comparisons = []
    for k in range(3):
        comparisons.append(
            DegreeComparison(
                degree=k,
                cohomology_dim=codims[k],
                nakayama_homology_dim=nak[k],
                nakayama_match=codims[k] == nak[k],
                complement_degree=2 - k,
                trivial_homology_dim=triv[2 - k],
                poincare_match=codims[k] == triv[2 - k],
            )
        )
    euler_cochain = codims[0] - codims[1] + codims[2]
    euler_chain = triv[0] - triv[1] + triv[2]
    return DualityReport(
        params=p,
        comparisons=tuple(comparisons),
        euler_cochain=euler_cochain,
        euler_chain=euler_chain,
        nakayama_duality_holds=all(c.nakayama_match for c in comparisons),
        poincare_duality_fails=not all(c.poincare_match for c in comparisons),
    )
