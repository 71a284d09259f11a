"""The Fraction elimination routines, kept as independent oracles.

``_rref`` and ``_bareiss_det`` are the dense routines the library ran before
its integer echelon: ``_rref`` clears each row to integers and eliminates by
cross-multiplication in a leftmost-column Gauss-Jordan sweep, and
``_bareiss_det`` is Bareiss's fraction-free determinant with exact division
by the previous pivot.  ``_kernel`` is the kernel the library took before it
read the canonical basis off one echelon on the reversed columns: a forward
``_rref``, one vector per free column, and a second ``_rref`` of those.  The
properties below hold the library's one echelon (``rref``, ``det``,
``inverse``, ``Subspace.span``, ``kernel_basis``) against them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfcalc.linalg import RationalMatrix, Subspace, kernel_basis
from hopfcalc.structure import HopfStructure
from hopfcalc.trees import DecorationSet, ForestAlgebra


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


def _kernel(rows: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    """Canonical basis of the right kernel: x_f = 1 at a free column f, solved at the pivots."""
    reduced, pivots = _rref(rows, cols)
    vectors = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for p, row in zip(pivots, reduced):
            v[p] = -row[f]
        vectors.append(v)
    return _rref(vectors, cols)[0]


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
# properties

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


@st.composite
def matrices(draw, square: bool = False, max_size: int = 5) -> RationalMatrix:
    rows = draw(st.integers(0, max_size))
    cols = rows if square else draw(st.integers(0, max_size))
    values = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return RationalMatrix.from_rows([values[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols)


@st.composite
def singular_matrices(draw, max_size: int = 5) -> RationalMatrix:
    """Square matrices whose last row is a rational combination of the others."""
    n = draw(st.integers(1, max_size))
    rows = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(n - 1)]
    coeffs = draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1))
    last = [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
    at = draw(st.integers(0, n - 1))
    return RationalMatrix.from_rows(rows[:at] + [last] + rows[at:], cols=n)


def oracle_rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    reduced, pivots = _rref(m.to_rows(), m.cols)
    return RationalMatrix.from_rows(reduced, cols=m.cols), tuple(pivots)


@settings(deadline=None, max_examples=80)
@given(matrices())
def test_rref_equals_oracle(m):
    assert m.rref() == oracle_rref(m)
    assert m.rank() == len(oracle_rref(m)[1])
    assert Subspace.span(m.cols, m.to_rows()).basis == oracle_rref(m)[0]


def assert_kernel_equals_oracle(m: RationalMatrix) -> None:
    k = kernel_basis(m)
    assert k.basis == RationalMatrix.from_rows(_kernel(m.to_rows(), m.cols), cols=m.cols)
    assert m @ k.basis.transpose() == RationalMatrix(m.rows, k.dim, (0,) * (m.rows * k.dim))
    assert k.dim == m.cols - len(oracle_rref(m)[1])


@settings(deadline=None, max_examples=120)
@given(matrices(max_size=7))
@example(RationalMatrix(0, 0, ()))
def test_kernel_basis_equals_oracle(m):
    assert_kernel_equals_oracle(m)


@pytest.mark.parametrize("letters, top", [((("a", 1),), 6), ((("a", 1), ("b", 2)), 5)], ids=["a1", "a1b2"])
def test_primitive_kernels_equal_oracle(letters, top):
    structure = HopfStructure(ForestAlgebra(DecorationSet(letters)))
    for n in range(1, top + 1):
        assert_kernel_equals_oracle(structure.reduced_matrix(n))


@settings(deadline=None, max_examples=60)
@given(matrices(), st.data())
def test_rref_invariant_under_row_permutation_and_scaling(m, data):
    rows = m.to_rows()
    order = data.draw(st.permutations(range(m.rows)))
    scales = data.draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
            min_size=m.rows,
            max_size=m.rows,
        )
    )
    moved = RationalMatrix.from_rows([[s * x for x in rows[k]] for k, s in zip(order, scales)], cols=m.cols)
    assert moved.rref() == m.rref()


@settings(deadline=None, max_examples=80)
@given(st.one_of(matrices(square=True), singular_matrices()))
def test_det_equals_bareiss_oracle(m):
    assert m.det() == _bareiss_det(m.to_rows())


@settings(deadline=None, max_examples=80)
@given(st.one_of(matrices(square=True), singular_matrices()))
def test_inverse_times_matrix_is_identity(m):
    if _bareiss_det(m.to_rows()) == 0:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            m.inverse()
    else:
        assert m.inverse() @ m == RationalMatrix.identity(m.rows)
        assert m @ m.inverse() == RationalMatrix.identity(m.rows)
