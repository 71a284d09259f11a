"""Exact rational dense linear algebra.

Everything here runs over :class:`fractions.Fraction`, no floats.  Reduction is
fraction-free inside (rows are cleared to integers and eliminated by
cross-multiplication with gcd trimming), with pivots normalized to 1 at the
end.  Pivot choice is deterministic: leftmost column first, then smallest row
index.  Since reduced row-echelon form is unique for a given row space, every
Subspace stores a canonical basis and subspace equality is value equality.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence


class AmbientMismatch(ValueError):
    """Two subspaces of different ambient dimensions were combined."""


class NotSquare(ValueError):
    """A square matrix was required."""


@dataclass(frozen=True)
class RationalMatrix:
    rows: int
    cols: int
    entries: tuple[Fraction, ...]  # row-major

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(e if isinstance(e, Fraction) else Fraction(e) for e in self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]], cols: Optional[int] = None) -> RationalMatrix:
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = cols if cols is not None else 0
        if cols is not None and width != cols:
            raise ValueError(f"rows of length {width} do not match cols={cols}")
        flat = tuple(x for row in rows for x in row)
        return cls(len(rows), width, flat)

    @classmethod
    def identity(cls, n: int) -> RationalMatrix:
        return cls(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> RationalMatrix:
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> RationalMatrix:
        return RationalMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: RationalMatrix) -> RationalMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.transpose()
        flat = []
        for i in range(self.rows):
            left = self.row(i)
            for j in range(other.cols):
                right = ot.row(j)
                flat.append(sum((a * b for a, b in zip(left, right) if a and b), Fraction(0)))
        return RationalMatrix(self.rows, other.cols, tuple(flat))

    def __sub__(self, other: RationalMatrix) -> RationalMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}"
            )
        return RationalMatrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def apply(self, vector: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        if len(vector) != self.cols:
            raise ValueError(f"vector of length {len(vector)} against {self.cols} columns")
        vec = [Fraction(v) for v in vector]
        return tuple(
            sum((a * b for a, b in zip(self.row(i), vec) if a and b), Fraction(0))
            for i in range(self.rows)
        )

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.at(i, j) == self.at(j, i) for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def rref(self) -> tuple[RationalMatrix, tuple[int, ...]]:
        reduced, pivots = _rref(self.to_rows(), self.cols)
        return RationalMatrix.from_rows(reduced, cols=self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise NotSquare(f"determinant of a {self.rows}x{self.cols} matrix")
        return _bareiss_det(self.to_rows())

    def inverse(self) -> RationalMatrix:
        if self.rows != self.cols:
            raise NotSquare(f"inverse of a {self.rows}x{self.cols} matrix")
        n = self.rows
        aug = [list(self.row(i)) + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
        reduced, pivots = _rref(aug, 2 * n)
        if list(pivots[:n]) != list(range(n)) or len(pivots) < n:
            raise ValueError("matrix is singular")
        return RationalMatrix.from_rows([row[n:] for row in reduced[:n]], cols=n)


def stack_rows(matrices: Iterable[RationalMatrix], cols: Optional[int] = None) -> RationalMatrix:
    mats = list(matrices)
    widths = {m.cols for m in mats if m.rows}
    if len(widths) > 1:
        raise ValueError(f"mixed column counts {sorted(widths)}")
    width = widths.pop() if widths else (cols if cols is not None else 0)
    rows: list[list[Fraction]] = []
    for m in mats:
        rows.extend(m.to_rows())
    return RationalMatrix.from_rows(rows, cols=width)


# ---------------------------------------------------------------------------
# elimination cores


def integer_row(row: Sequence[Fraction]) -> list[int]:
    """Primitive integer multiple of a rational row: denominators and common factors cleared."""
    scale = lcm(*(c.denominator for c in row)) if row else 1
    out = [c.numerator * (scale // c.denominator) for c in row]
    g = gcd(*out)
    if g > 1:
        out = [v // g for v in out]
    return out

def _rref(rows: list[list[Fraction]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Canonical reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    work = [integer_row(r) for r in rows]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(cols):
        src = next((r for r in range(pivot_row, len(work)) if work[r][col]), None)
        if src is None:
            continue
        work[pivot_row], work[src] = work[src], work[pivot_row]
        pivot = work[pivot_row]
        pval = pivot[col]
        for r in range(len(work)):
            if r == pivot_row or not work[r][col]:
                continue
            rval = work[r][col]
            row = [pval * a - rval * b for a, b in zip(work[r], pivot)]
            g = gcd(*row)
            work[r] = [v // g for v in row] if g > 1 else row
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(work):
            break
    reduced: list[list[Fraction]] = []
    for r, col in enumerate(pivots):
        pval = work[r][col]
        reduced.append([Fraction(v, pval) for v in work[r]])
    return reduced, pivots


def _bareiss_det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    work: list[list[int]] = []
    for row in rows:
        denom = lcm(*(c.denominator for c in row)) if row else 1
        work.append([int(c * denom) for c in row])
        scale *= denom
    sign = 1
    prev = 1
    for k in range(n - 1):
        src = next((r for r in range(k, n) if work[r][k]), None)
        if src is None:
            return Fraction(0)
        if src != k:
            work[k], work[src] = work[src], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * pivot - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = pivot
    return Fraction(sign * work[n - 1][n - 1]) / scale


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A linear subspace stored via its unique reduced row-echelon basis."""

    ambient_dim: int
    basis: RationalMatrix

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise AmbientMismatch(
                f"basis rows of length {self.basis.cols} in ambient dimension {self.ambient_dim}"
            )

    @classmethod
    def span(cls, ambient_dim: int, vectors: Sequence[Sequence[Fraction | int]]) -> Subspace:
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        reduced, _ = _rref([[Fraction(x) for x in v] for v in vectors], ambient_dim)
        return cls(ambient_dim, RationalMatrix.from_rows(reduced, cols=ambient_dim))

    @classmethod
    def coordinate(cls, ambient_dim: int, indices: Iterable[int]) -> Subspace:
        """Span of the unit vectors at the given coordinates; canonical as built."""
        picked = sorted(set(indices))
        if picked and (picked[0] < 0 or picked[-1] >= ambient_dim):
            raise AmbientMismatch(f"coordinates {picked} in ambient dimension {ambient_dim}")
        zero, one = Fraction(0), Fraction(1)
        rows = [[one if j == k else zero for j in range(ambient_dim)] for k in picked]
        return cls(ambient_dim, RationalMatrix.from_rows(rows, cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, RationalMatrix.from_rows([], cols=ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, RationalMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self) -> list[list[Fraction]]:
        return self.basis.to_rows()

    def contains(self, vector: Sequence[Fraction | int]) -> bool:
        if len(vector) != self.ambient_dim:
            raise AmbientMismatch(
                f"vector of length {len(vector)} in ambient dimension {self.ambient_dim}"
            )
        v = [Fraction(x) for x in vector]
        for row in self.basis.to_rows():
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is not None and v[lead]:
                coeff = v[lead]
                v = [a - coeff * b for a, b in zip(v, row)]
        return not any(v)


def kernel_basis(m: RationalMatrix) -> Subspace:
    """Canonical basis of the right kernel { x : m x = 0 }."""
    reduced, pivots = _rref(m.to_rows(), m.cols)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    vectors = []
    for f in free_cols:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        vectors.append(v)
    return Subspace.span(m.cols, vectors)


def greedy_picks(rows: Sequence[Sequence[int]], width: int) -> tuple[list[int], dict[int, list[int]]]:
    """Greedy picks of integer rows by their first ``width`` entries.

    Row k is picked when its first ``width`` entries leave the span of those
    of the earlier picks, so earlier rows win: the deterministic complement
    rule.  Entries past ``width`` ride along through the elimination: for
    each row k not picked, the second result maps k to those entries of a
    combination of rows[k] (coefficient nonzero) and earlier rows whose first
    ``width`` entries vanish.  Fraction-free with gcd trimming: all in int.
    """
    echelon: dict[int, list[int]] = {}  # leading column -> reduced row
    leads: list[int] = []  # sorted
    picks: list[int] = []
    rests: dict[int, list[int]] = {}
    for k, row in enumerate(rows):
        v = list(row)
        for col in leads:
            if v[col]:
                pivot = echelon[col]
                p, a = pivot[col], v[col]
                v = [p * x - a * y for x, y in zip(v, pivot)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        lead = next((j for j in range(width) if v[j]), None)
        if lead is None:
            rests[k] = v[width:]
        else:
            picks.append(k)
            echelon[lead] = v
            insort(leads, lead)
    return picks, rests
