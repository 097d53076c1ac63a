"""Exact rational linear algebra.

Dense matrices over ``fractions.Fraction`` with elimination and kernel
primitives.  No command uses them: the (co)homology engines work block by
block and the verify checks apply the differentials to sparse elements.
No module of the package imports this one: it is the elimination behind the
tests' dense reference, whose operator builders are in tests/dense.py, and
perfbench times it.  Everything is exact: ranks are true ranks,
equality means equality.  Pivoting is deterministic (first nonzero entry in
column order), so reduced forms and subspace bases are reproducible byte for
byte.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import _Record, _Value, _frac

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Optional, Sequence

    from .algebra import Vector


def as_vector(entries: Iterable) -> Vector:
    """The entries, each read by algebra._frac, as Fractions: the elimination divides with /."""
    return tuple(Fraction(x) if type(x) is int else x for x in map(_frac, entries))


class Matrix(_Value):
    """Dense matrix of rationals, stored as a tuple of Fraction row tuples."""

    __slots__ = ("rows", "cols", "data")

    def __new__(cls, rows: int, cols: int, data: Sequence[Sequence]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"data does not match shape {rows}x{cols}")
        return cls._make(rows, cols, tuple(as_vector(r) for r in data))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        return cls(nrows, ncols, rows)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        z = Fraction(0)
        return cls(rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Matrix":
        if not self.data:
            return Matrix.zero(self.cols, self.rows)
        return Matrix._make(self.cols, self.rows, tuple(zip(*self.data)))

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product; skips zero entries (our matrices are sparse)."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        vv = as_vector(v)
        out = []
        for row in self.data:
            s = Fraction(0)
            for a, x in zip(row, vv):
                if a and x:
                    s += a * x
            out.append(s)
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = Fraction(0)
        out = [[zero] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            acc = out[i]
            for k, a in enumerate(row):
                if not a:
                    continue
                brow = other.data[k]
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        return Matrix._make(self.rows, other.cols, tuple(tuple(r) for r in out))


class RrefResult(_Record):
    __slots__ = ()
    reduced: Matrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row-echelon form by rational Gauss-Jordan.

    Pivot selection is the first row with a nonzero entry, in column order,
    which makes the output deterministic for golden tests.
    """
    rows = [list(r) for r in m.data]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv if x else x for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RrefResult(Matrix._make(nrows, ncols, tuple(tuple(row) for row in rows)), tuple(pivots), r)


class SubspaceBasis(_Value):
    """Canonical (reduced-echelon) basis of a subspace of Q^n.

    The stored vectors are the nonzero rows of the unique RREF of any
    spanning set, so two equal subspaces always compare equal.
    """

    __slots__ = ("ambient_dim", "vectors", "pivots")

    def __new__(cls, ambient_dim: int, vectors: Sequence[Vector], pivots: Sequence[int]):
        return cls._make(ambient_dim, tuple(as_vector(v) for v in vectors), tuple(pivots))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Sequence]) -> "SubspaceBasis":
        vecs = [as_vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient_dim")
        if not vecs:
            return cls(ambient_dim, (), ())
        red, piv, rank = rref(Matrix.from_rows(vecs))
        return cls._make(ambient_dim, red.data[:rank], piv)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim})"


def nullspace(m: Matrix) -> SubspaceBasis:
    """Canonical basis of {v : m v = 0}; dimension = cols - rank."""
    red, piv, rank = rref(m)
    pivot_set = set(piv)
    free = [c for c in range(m.cols) if c not in pivot_set]
    raw = []
    zero, one = Fraction(0), Fraction(1)
    for f in free:
        v = [zero] * m.cols
        v[f] = one
        for r, p in enumerate(piv):
            v[p] = -red.data[r][f]
        raw.append(tuple(v))
    if not raw:
        return SubspaceBasis(m.cols, (), ())
    red2, piv2, rank2 = rref(Matrix._make(len(raw), m.cols, tuple(raw)))
    return SubspaceBasis._make(m.cols, red2.data[:rank2], piv2)


def column_space(m: Matrix) -> SubspaceBasis:
    """Canonical basis of the image (span of the columns)."""
    if m.cols == 0:
        return SubspaceBasis(m.rows, (), ())
    red, piv, rank = rref(m.transpose())
    return SubspaceBasis._make(m.rows, red.data[:rank], piv)


class EchelonAccumulator:
    """Incremental row-echelon sieve for independence tests.

    add() reduces a vector against the rows seen so far and keeps it only if
    a nonzero remainder survives, so a stream of vectors is filtered to an
    independent subfamily in one pass.
    """

    __slots__ = ("width", "_rows")

    def __init__(self, width: int, seed: Iterable = ()):
        self.width = width
        self._rows: dict[int, Vector] = {}
        for v in seed:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, v: Sequence) -> bool:
        w = list(as_vector(v))
        for p, row in self._rows.items():
            f = w[p]
            if f:
                w = [x - f * y if y else x for x, y in zip(w, row)]
        for p, x in enumerate(w):
            if x:
                if x != 1:
                    w = [y / x if y else y for y in w]
                self._rows[p] = tuple(w)
                return True
        return False


def solve(m: Matrix, rhs: Sequence) -> Optional[Vector]:
    """One exact solution of m x = rhs, or None if the system is inconsistent.

    Free variables are set to zero, so the returned solution is deterministic.
    """
    b = as_vector(rhs)
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    aug = Matrix._make(m.rows, m.cols + 1, tuple(row + (b[i],) for i, row in enumerate(m.data)))
    red, piv, rank = rref(aug)
    if piv and piv[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for r, p in enumerate(piv):
        x[p] = red.data[r][m.cols]
    return tuple(x)
