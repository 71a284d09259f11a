"""Exact rational linear algebra on integer numerators.

A :class:`RationalMatrix` stores int numerators, row-major, over one positive
common denominator kept in lowest terms, so equal matrices have equal fields.
Products, differences, transposes and symmetry checks run in ``int``;
``Fraction`` values appear only in the views (``entries``, ``row`` and
``to_rows``) and in the scalar result of ``det``.  The one product, ``@``,
walks the left operand's nonzeros: each row of A B sums B's rows at that
row's nonzeros, so a sparse block basis times a Gram costs its nonzeros, not
its width.

Every exact elimination goes through one fraction-free echelon, ``_echelon``:
integer rows are reduced in turn against the pivot rows found so far, by
cross-multiplication, and trimmed by their gcd after each step.  It gives the
rank, and carries the scale each row picks up, from which ``det`` follows.
A back-substitution over its pivot rows gives the canonical reduced
row-echelon form behind ``rref``, ``inverse``, ``kernel_basis`` and
``Subspace.span``; the kernel takes one echelon, on the columns in reverse
order.  Pivots are the leftmost columns; since reduced row-echelon form is
unique for a given row space, every Subspace stores a canonical basis and
subspace equality is value equality.

``rank_mod_p`` is the one elimination outside the rationals: the rank modulo
a fixed prime, a lower bound for the rank over the rationals, for the
pairing certificate, which falls back to the exact routines when it comes
up short.
It packs each row into one int, a residue per 80-bit slot, so a reduction
step is one big-integer multiply-add and the reduction modulo the prime
waits until the row is unpacked to find its lead.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence

from ._value import Value


class AmbientMismatch(ValueError):
    """Two subspaces of different ambient dimensions were combined."""


class NotSquare(ValueError):
    """A square matrix was required."""


def _clear(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Integer numerators of rational values over their least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


class RationalMatrix(Value):
    """Matrix of the rationals ``num[i * cols + j] / den``.

    ``den`` is positive and shares no factor with every numerator; input that
    does is divided through on construction.
    """

    rows: int
    cols: int
    num: tuple[int, ...]  # row-major
    den: int

    def __init__(self, rows: int, cols: int, num: Iterable[int], den: int = 1) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        num = tuple(num)
        if len(num) != rows * cols:
            raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(num)}")
        if not set(map(type, num)) <= {int}:
            raise ValueError("numerators must be integers")
        if type(den) is not int or den <= 0:
            raise ValueError(f"denominator must be a positive integer, got {den!r}")
        g = gcd(den, *num)
        if g > 1:
            num = tuple(x // g for x in num)
            den //= g
        super().__init__(rows, cols, num, den)

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
        num, den = _clear([x for row in rows for x in row])
        return cls(len(rows), width, tuple(num), den)

    @classmethod
    def from_int_rows(cls, rows: Sequence[Sequence[int]], cols: int, den: int = 1) -> RationalMatrix:
        """The matrix of integer rows, all divided by ``den``."""
        return cls(len(rows), cols, tuple(x for row in rows for x in row), den)

    @classmethod
    def identity(cls, n: int) -> RationalMatrix:
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """Row-major values."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.int_row(i))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def int_row(self, i: int) -> tuple[int, ...]:
        """Numerators of row i, over ``den``."""
        return self.num[i * self.cols : (i + 1) * self.cols]

    def int_rows(self) -> list[tuple[int, ...]]:
        return [self.int_row(i) for i in range(self.rows)]

    def transpose(self) -> RationalMatrix:
        c = self.cols
        return RationalMatrix(
            c, self.rows, tuple(x for j in range(c) for x in self.num[j::c]), self.den
        )

    def __matmul__(self, other: RationalMatrix) -> RationalMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        c, rows = other.cols, other.int_rows()
        flat: list[int] = []
        for row in self.int_rows():
            values = [0] * c
            for j, x in enumerate(row):
                if x:
                    values = [v + x * y for v, y in zip(values, rows[j])]
            flat.extend(values)
        return RationalMatrix(self.rows, c, flat, self.den * other.den)

    def __sub__(self, other: RationalMatrix) -> RationalMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}"
            )
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        flat = tuple(a * x - b * y for x, y in zip(self.num, other.num))
        return RationalMatrix(self.rows, self.cols, flat, den)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.num == self.transpose().num

    def rref(self) -> tuple[RationalMatrix, tuple[int, ...]]:
        return _rref(self.int_rows(), self.cols)

    def rank(self) -> int:
        return len(_echelon(self.int_rows(), self.cols)[0])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise NotSquare(f"determinant of a {self.rows}x{self.cols} matrix")
        n = self.rows
        pivots, _, (grown, trimmed) = _echelon(self.int_rows(), n)
        if len(pivots) < n:
            return Fraction(0)
        # the picked rows, reordered by leading column, are triangular
        leads = list(pivots)
        inversions = sum(a > b for i, a in enumerate(leads) for b in leads[i + 1 :])
        diagonal = prod(row[col] for col, row in pivots.items())
        return Fraction((-1) ** inversions * diagonal * trimmed, grown * self.den**n)

    def inverse(self) -> RationalMatrix:
        if self.rows != self.cols:
            raise NotSquare(f"inverse of a {self.rows}x{self.cols} matrix")
        n = self.rows
        augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.int_rows())]
        pivots = _echelon(augmented, n)[0]
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        # [N | I] reduces to [I | N^-1], and the inverse of N / den is den * N^-1
        inv = _normalized(_back_substitute(pivots), n, 2 * n)
        return RationalMatrix(n, n, tuple(self.den * x for x in inv.num), inv.den)


def stack_rows(matrices: Iterable[RationalMatrix], cols: Optional[int] = None) -> RationalMatrix:
    mats = list(matrices)
    widths = {m.cols for m in mats if m.rows}
    if len(widths) > 1:
        raise ValueError(f"mixed column counts {sorted(widths)}")
    width = widths.pop() if widths else (cols if cols is not None else 0)
    den = lcm(*(m.den for m in mats))
    flat = tuple(x * (den // m.den) for m in mats for x in m.num)
    return RationalMatrix(sum(m.rows for m in mats), width, flat, den)


# ---------------------------------------------------------------------------
# the echelon


def _echelon(
    rows: Iterable[Sequence[int]], width: int
) -> tuple[dict[int, list[int]], list[int], tuple[int, int]]:
    """Fraction-free row echelon of integer rows by their first ``width`` entries.

    Each row in turn is reduced against the pivot rows found so far, by
    increasing leading column, with ``v <- p*v - a*pivot`` and a gcd trim after
    every step.  It becomes a pivot row when one of its first ``width`` entries
    survives; entries past ``width`` ride along.  Returns

    * the pivot rows by leading column, in the order they were picked;
    * the indices of the picked rows;
    * (grown, trimmed): the product over the picked rows of the factor the
      reduction multiplied each by is grown / trimmed.
    """
    pivots: dict[int, list[int]] = {}
    leads: list[int] = []  # sorted
    picks: list[int] = []
    grown = trimmed = 1
    for k, row in enumerate(rows):
        v = list(row)
        up = down = 1
        for col in leads:
            a = v[col]
            if a:
                pivot = pivots[col]
                p = pivot[col]
                v = [p * x - a * y for x, y in zip(v, pivot)]
                g = gcd(*v) or 1
                if g > 1:
                    v = [x // g for x in v]
                up, down = up * p, down * g
                h = gcd(up, down)
                up, down = up // h, down // h
        lead = next((j for j in range(width) if v[j]), None)
        if lead is not None:
            picks.append(k)
            pivots[lead] = v
            insort(leads, lead)
            grown, trimmed = grown * up, trimmed * down
    return pivots, picks, (grown, trimmed)


def _back_substitute(pivots: dict[int, list[int]]) -> list[tuple[int, list[int]]]:
    """Pivot rows cleared at every other leading column, as (lead, row) by lead."""
    done: list[tuple[int, list[int]]] = []  # decreasing lead
    for col in sorted(pivots, reverse=True):
        v = pivots[col]
        for c, row in done:
            a = v[c]
            if a:
                p = row[c]
                v = [p * x - a * y for x, y in zip(v, row)]
                g = gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        done.append((col, v))
    done.reverse()
    return done


def _normalized(reduced: list[tuple[int, list[int]]], lo: int, hi: int) -> RationalMatrix:
    """Columns lo..hi of the reduced rows, each divided by its leading entry."""
    den = lcm(*(row[col] for col, row in reduced))
    flat = tuple(x * (den // row[col]) for col, row in reduced for x in row[lo:hi])
    return RationalMatrix(len(reduced), hi - lo, flat, den)


def _rref(rows: Iterable[Sequence[int]], cols: int) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Canonical reduced row-echelon form of integer rows, and its pivot columns."""
    reduced = _back_substitute(_echelon(rows, cols)[0])
    return _normalized(reduced, 0, cols), tuple(col for col, _ in reduced)


# ---------------------------------------------------------------------------
# subspaces


class Subspace(Value):
    """A linear subspace stored via its unique reduced row-echelon basis."""

    ambient_dim: int
    basis: RationalMatrix

    def __init__(self, ambient_dim: int, basis: RationalMatrix) -> None:
        if basis.cols != ambient_dim:
            raise AmbientMismatch(
                f"basis rows of length {basis.cols} in ambient dimension {ambient_dim}"
            )
        super().__init__(ambient_dim, basis)

    @classmethod
    def span(cls, ambient_dim: int, vectors: Sequence[Sequence[Fraction | int]]) -> Subspace:
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        return cls(ambient_dim, _rref((_clear(v)[0] for v in vectors), ambient_dim)[0])

    @classmethod
    def coordinate(cls, ambient_dim: int, indices: Iterable[int]) -> Subspace:
        """Span of the unit vectors at the given coordinates; canonical as built."""
        picked = sorted(set(indices))
        if picked and (picked[0] < 0 or picked[-1] >= ambient_dim):
            raise AmbientMismatch(f"coordinates {picked} in ambient dimension {ambient_dim}")
        rows = [[int(j == k) for j in range(ambient_dim)] for k in picked]
        return cls(ambient_dim, RationalMatrix.from_int_rows(rows, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows


# the largest prime below 2**30: every residue is one CPython digit, and a
# product of two fits in one machine word
PRIME = 1073741789


# a packed row keeps one residue per slot of this many bits, ten bytes
_SLOT = 80
# the most pivot rows a packed row is reduced against; see rank_mod_p
_MAX_PIVOTS = 1 << 19


def rank_mod_p(rows: Iterable[Sequence[int]]) -> int:
    """Rank of integer rows reduced modulo ``PRIME``.

    A minor that is nonzero modulo the prime is nonzero over the integers, so
    this never exceeds the rank over the rationals.  Each row is reduced
    against the pivot rows found so far, by increasing leading column.

    Rows are packed: one int holds the residue of column j in its 80-bit slot
    j.  A pivot row is scaled to lead with 1 and holds p - y, reduced modulo
    p, for each of its residues y, so clearing a column whose slot holds a
    modulo p is the one multiply-add ``v += a * pivot``.  Slots never go
    negative, and their reduction modulo p waits until the row is unpacked,
    once, to find its lead.  A slot starts below p and each step adds at most
    (p - 1)^2, so after k steps it holds less than p + k (p - 1)^2 <
    2^30 + k 2^60.  That is below 2^80 for k <= 2^19, so no slot carries into
    the next while a row meets at most 2^19 pivots; the function raises
    rather than reduce a row against more.
    """
    p, slot = PRIME, _SLOT
    mask, size = (1 << slot) - 1, slot // 8
    pivots: dict[int, int] = {}  # packed, by leading column
    leads: list[int] = []  # sorted
    for row in rows:
        if len(leads) > _MAX_PIVOTS:
            raise OverflowError(f"packed rows meet at most {_MAX_PIVOTS} pivots")
        residues = [x % p for x in row]
        v = _pack(residues, size)
        for col in leads:
            a = (v >> col * slot & mask) % p
            if a:
                v += a * pivots[col]
        packed = v.to_bytes(len(residues) * size, "little")
        residues = [
            int.from_bytes(packed[i : i + size], "little") % p for i in range(0, len(packed), size)
        ]
        lead = next((j for j, x in enumerate(residues) if x), None)
        if lead is not None:
            scale = p - pow(residues[lead], -1, p)
            pivots[lead] = _pack([x * scale % p for x in residues], size)
            insort(leads, lead)
    return len(leads)


def _pack(values: Sequence[int], size: int) -> int:
    """One int holding values[j] in bytes j * size onward; each value fits in size bytes."""
    return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in values), "little")


def kernel_basis(m: RationalMatrix) -> Subspace:
    """Canonical basis of the right kernel { x : m x = 0 }."""
    return _kernel(m.int_rows(), m.cols)


def _kernel(rows: Iterable[Sequence[int]], n: int) -> Subspace:
    """Canonical basis of the vectors x of length n with row . x = 0 for every integer row.

    One echelon on the columns in reverse order: read back in the original
    order, each free column's vector leads at that column and is zero at every
    other free column, which is already the kernel's reduced row-echelon form.
    """
    reduced, pivots = _rref((row[::-1] for row in rows), n)
    pivot_rows = reduced.int_rows()
    vectors = []
    for f in sorted(set(range(n)) - set(pivots), reverse=True):
        # x_f = 1 and x_p = -reduced[i][f] at the pivot p of each row i, times den, reversed
        v = [0] * n
        v[f] = reduced.den
        for p, row in zip(pivots, pivot_rows):
            v[p] = -row[f]
        vectors.append(v[::-1])
    return Subspace(n, RationalMatrix.from_int_rows(vectors, n, reduced.den))
