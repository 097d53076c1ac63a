"""The truncated polynomial Poisson algebra in two variables.

C[X,Y] modulo (X^a, Y^b), with monomial basis X^i Y^j (0 <= i < a,
0 <= j < b) and the Poisson bracket generated by {X, Y} = X*Y.  Elements
carry exact rational coefficients and are truncated eagerly, so equality is
coefficientwise.  The closed-form monomial bracket used here,

    {X^i Y^j, X^k Y^l} = (i*l - j*k) X^(i+k) Y^(j+l),

is validated in the test suite against an independent Leibniz-expansion
oracle built only from the brackets with the two generators.

Clean-coefficient invariant: an element's coefficient map holds only
nonzero exact rationals at keys (i, j) with 0 <= i < a and 0 <= j < b: ints
where they are integers by construction, else Fractions, which compare,
hash and print as the equal ints do, so only a value that needs a Fraction
imports fractions.  The public constructor establishes it from arbitrary
input; the arithmetic kernel adds its terms into out in place, a new key
taking the term as it is and a present key the sum, dropped as soon as it
cancels.  So the results are wrapped by AlgebraElement._clean without
re-checking.

The kernel: each operator the package applies sends a term d X^k Y^l to
X^(k+di) Y^(l+dj) times a scalar affine in (k, l), and _shift_into, the one
arithmetic loop, adds c * (e0 + e1*k + e2*l) * d there for a step (di, dj),
an entry (e0, e1, e2) and a constant c.  The product by c X^i Y^j is the
shift by (i, j) with the entry (1, 0, 0), the bracket with it the entry
(0, -j, i), + and - the shifts by (0, 0) with the entries 1 and -1, and
each block entry of the differentials (tables in the chain and cochain
docstrings) one shift.  The kernel accepts exact rational maps, int or
Fraction values, nonzero and at in-bound keys, and int or Fraction entries
and constants.  An entry of 1, or a c of 1, takes the term as it is, so the
term keeps the map's kind.  verify runs its Jacobi, Leibniz, delta1 .
delta0, boundary, cocycle-predicate and normalization checks on int maps
through this kernel: their random elements, derivations and cocycles are
drawn as ints, and each twist as the integers (D*alpha, D*beta, D).

Values: the parameters, the elements, the cochains, the chains and the
dense matrices subclass _Value.  Their fields are their __slots__, set once
by _Value._make after the public constructor has validated its input; any
later write or delete raises AttributeError.  A value equals only a value of
its own class with equal fields, hashes by its fields (so elements, whose
coefficient maps are read-only MappingProxyType views, are unhashable) and
pickles by its fields, a coefficient map travelling as its dict.
"""

from __future__ import annotations

import re
from operator import itemgetter
from types import MappingProxyType

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Iterator, Mapping, Union

    Vector = tuple[Union[int, Fraction], ...]

# Python's default limit on int <-> str conversion; a rational read from text must print.
TWIST_MAX_DIGITS = 4300

_EXPONENT = r"[eE]([-+]?\d+)\s*\Z"  # compiled on first use, by re's cache


def _frac(x) -> Union[int, Fraction]:
    """x as an exact rational: the reader of every twist entry and coefficient given from outside.

    An int comes back as it is, and anything else as a Fraction (a bool
    too), so fractions is imported only for a value that is not an int.
    A float is refused with a ValueError, since its binary value is rarely
    the decimal it was written as.  Text is read in Python 3.12's Fraction
    grammar on every supported Python: an '_' between two digits (new in
    3.11) and the whitespace around '/' (new in 3.12) are dropped first,
    which leaves the 3.10 grammar.  A zero denominator is a ValueError, and
    a numerator or denominator past TWIST_MAX_DIGITS digits an OverflowError.
    Fraction would build 10**exp for a decimal exponent before reducing.
    Here the mantissa is parsed with the exponent's digits zeroed (the same
    grammar, so exactly the same inputs parse), and 10**exp is built only
    when |exp| is small enough for the result to fit: past that bound the
    reduced numerator or denominator exceeds the limit whatever the mantissa.
    """
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise ValueError(f"need an exact rational, not the float {x!r}")
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x
    if not isinstance(x, str):
        return Fraction(x)
    s = re.sub(r"\s*/\s*", "/", re.sub(r"(?<=\d)_(?=\d)", "", x))
    m = re.search(_EXPONENT, s)
    try:
        value = Fraction(s if m is None else s[: m.start(1)] + re.sub(r"\d", "0", m[1]) + s[m.end(1):])
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    if m is not None:
        exp = int(m[1])
        if value:
            if abs(exp) > TWIST_MAX_DIGITS + value.numerator.bit_length() + value.denominator.bit_length():
                raise OverflowError(f"more than {TWIST_MAX_DIGITS} digits in numerator or denominator")
            value *= Fraction(10) ** exp
    if max(abs(value.numerator), value.denominator) >= 10**TWIST_MAX_DIGITS:
        raise OverflowError(f"more than {TWIST_MAX_DIGITS} digits in numerator or denominator")
    return value


class _Record(tuple):
    """The base of the immutable records: a tuple whose fields are the subclass's annotations.

    class Name(_Record) with __slots__ = () and one annotation per field, in
    order, declares a record (what typing.NamedTuple gives, at a fraction of
    its cost): it equals the plain tuple of its values, constructs from
    positional or keyword arguments, and has _fields, _asdict, _replace, a
    repr naming its fields and pickling.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        for i, field in enumerate(cls._fields):
            setattr(cls, field, property(itemgetter(i)))
        if cls.__doc__ is None:
            cls.__doc__ = f"{cls.__name__}({', '.join(cls._fields)})"

    def __new__(cls, *args, **kwargs):
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, cls._fields[len(args):]))
            except KeyError as missing:
                raise TypeError(f"{cls.__name__}() missing argument {missing}") from None
            if kwargs:
                raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments ({len(args)} given)")
        return tuple.__new__(cls, args)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in zip(self._fields, self))})"

    def __getnewargs__(self):
        return tuple(self)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def _replace(self, **changes):
        new = type(self)(*map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return new


class _Value:
    """The base of the immutable value classes: the fields are the subclass's __slots__."""

    __slots__ = ()

    @classmethod
    def _make(cls, *values):
        """Trusted constructor: the value with these fields, in __slots__ order, taken as they are."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        values = tuple(dict(v) if type(v) is MappingProxyType else v for v in self._values())
        return (_load, (self.__class__, values))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


def _load(cls, values: tuple) -> _Value:
    """Unpickle a _Value: a dict field is a coefficient map, read-only again once loaded."""
    return cls._make(*(MappingProxyType(v) if type(v) is dict else v for v in values))


class TruncParams(_Value):
    """Exponent bounds (a, b): X^a = 0 and Y^b = 0, both at least 2."""

    __slots__ = ("a", "b")

    def __new__(cls, a: int, b: int):
        if not (isinstance(a, int) and isinstance(b, int) and a >= 2 and b >= 2):
            raise ValueError(f"need two integers a,b ≥ 2, got ({a!r}, {b!r})")
        return cls._make(a, b)

    @property
    def dim(self) -> int:
        return self.a * self.b

    def monomials(self) -> Iterator[tuple[int, int]]:
        """All basis exponent pairs in row-major order (i outermost)."""
        for i in range(self.a):
            for j in range(self.b):
                yield (i, j)


_ZERO = 0


class AlgebraElement(_Value):
    """A linear combination of basis monomials, stored sparsely without zeros."""

    __slots__ = ("params", "coeffs")

    def __new__(cls, params: TruncParams, coeffs: Mapping[tuple[int, int], Fraction]):
        clean: dict[tuple[int, int], Fraction] = {}
        a, b = params.a, params.b
        for key, c in coeffs.items():
            if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(e, int) and e >= 0 for e in key)):
                raise ValueError(f"exponents must be nonnegative integers, got {key!r}")
            i, j = key
            c = _frac(c)
            if c and i < a and j < b:
                clean[(i, j)] = c
        return cls._make(params, MappingProxyType(clean))

    @classmethod
    def _clean(cls, params: TruncParams, coeffs: dict) -> "AlgebraElement":
        """Wrap a coefficient dict that already satisfies the clean-coefficient invariant."""
        return cls._make(params, MappingProxyType(coeffs))

    @classmethod
    def zero(cls, params: TruncParams) -> "AlgebraElement":
        return cls(params, {})

    @classmethod
    def monomial(cls, params: TruncParams, i: int, j: int, coeff=1) -> "AlgebraElement":
        return cls(params, {(i, j): _frac(coeff)})

    @classmethod
    def one(cls, params: TruncParams) -> "AlgebraElement":
        return cls.monomial(params, 0, 0)

    @classmethod
    def gen_x(cls, params: TruncParams) -> "AlgebraElement":
        return cls.monomial(params, 1, 0)

    @classmethod
    def gen_y(cls, params: TruncParams) -> "AlgebraElement":
        return cls.monomial(params, 0, 1)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j), _ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_params(self, other: "AlgebraElement"):
        if self.params is not other.params and self.params != other.params:
            raise ValueError(f"mismatched algebra parameters {self.params} vs {other.params}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_params(other)
        out = dict(self.coeffs)
        _shift_into(out, self.params, other.coeffs, (0, 0), (1, 0, 0))
        return AlgebraElement._clean(self.params, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_params(other)
        out = dict(self.coeffs)
        _shift_into(out, self.params, other.coeffs, (0, 0), (-1, 0, 0))
        return AlgebraElement._clean(self.params, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._clean(self.params, {k: -c for k, c in self.coeffs.items()})

    def scale(self, s) -> "AlgebraElement":
        s = _frac(s)
        if not s:
            return AlgebraElement._clean(self.params, {})
        return AlgebraElement._clean(self.params, {k: s * c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __repr__(self):
        return f"AlgebraElement({self.params.a},{self.params.b}: {render_element(self)})"

    def __str__(self):
        return render_element(self)


def _shift_into(out: dict, p: TruncParams, m: Mapping, step: tuple, entry: tuple, c=1):
    """out += c * (e0 + e1*k + e2*l) * d X^(k+di) Y^(l+dj) over the terms d X^k Y^l of m, truncated to p.

    The one arithmetic loop, for step = (di, dj) >= 0 and entry = (e0, e1,
    e2); m has no zeros.  A factor of 1, the entry's value or c, is not
    multiplied in, so it leaves the term's kind as it is.
    """
    (di, dj), (e0, e1, e2) = step, entry
    a, b = p.a - di, p.b - dj
    unit = c == 1
    for (k, l), d in m.items():
        if k < a and l < b and (w := e0 + e1 * k + e2 * l):
            term = d if w == 1 else d * w
            if not unit:
                term = c * term
            key = (k + di, l + dj)
            old = out.get(key)
            if old is not None and not (term := old + term):
                del out[key]
            else:
                out[key] = term


def _multiply_into(out: dict, p: TruncParams, u: Mapping, v: Mapping):
    """out += u*v for exact rational maps u, v without zeros: a shift of v by each term c X^i Y^j of u."""
    for ij, c in u.items():
        _shift_into(out, p, v, ij, (1, 0, 0), c)


def _bracket_into(out: dict, p: TruncParams, u: Mapping, v: Mapping):
    """out += {u, v} for exact rational maps u, v without zeros: v shifted by each term c X^i Y^j of u, (i*l - j*k)."""
    for (i, j), c in u.items():
        _shift_into(out, p, v, (i, j), (0, -j, i), c)


def multiply(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Truncated product: e_ij * e_kl = e_{i+k,j+l}, zero past the bounds."""
    u._check_params(v)
    out: dict[tuple[int, int], Fraction] = {}
    _multiply_into(out, u.params, u.coeffs, v.coeffs)
    return AlgebraElement._clean(u.params, out)


def bracket(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Poisson bracket, the bilinear extension of (il - jk) e_{i+k,j+l}."""
    u._check_params(v)
    out: dict[tuple[int, int], Fraction] = {}
    _bracket_into(out, u.params, u.coeffs, v.coeffs)
    return AlgebraElement._clean(u.params, out)


class EulerDims(_Record):
    __slots__ = ()
    chi0: int
    chi1: int
    chi2: int


def euler_dims(p: TruncParams) -> EulerDims:
    """Dimensions of the multiderivation spaces: ab, b(a-1)+a(b-1), (a-1)(b-1)."""
    return EulerDims(p.a * p.b, p.b * (p.a - 1) + p.a * (p.b - 1), (p.a - 1) * (p.b - 1))


# Plain-text rendering, e.g. "3*X^2*Y + 1/2*X".

def _render_monomial(i: int, j: int) -> str:
    parts = []
    if i == 1:
        parts.append("X")
    elif i:
        parts.append(f"X^{i}")
    if j == 1:
        parts.append("Y")
    elif j:
        parts.append(f"Y^{j}")
    return "*".join(parts)


def _render_sum(terms) -> str:
    """Render (coefficient, body) pairs as "c*body + body - c*body", or "0" if there are none.

    Coefficients are nonzero and exact; an empty body is the unit term.  A
    coefficient of +-1 shows only its sign, read off its numerator and
    denominator, so the common unit terms cost no Fraction arithmetic.
    """
    chunks = []
    for c, body in terms:
        n, d = c.numerator, c.denominator
        if d != 1 or (n != 1 and n != -1) or not body:
            mag = str(abs(c))
            body = f"{mag}*{body}" if body else mag
        if chunks:
            chunks.append(f"- {body}" if n < 0 else f"+ {body}")
        else:
            chunks.append(f"-{body}" if n < 0 else body)
    return " ".join(chunks) or "0"


def render_element(u: AlgebraElement) -> str:
    return _render_sum((u.coeffs[ij], _render_monomial(*ij)) for ij in sorted(u.coeffs, reverse=True))

