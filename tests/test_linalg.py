from __future__ import annotations

import os
import random
import subprocess
import sys
from bisect import insort
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfcalc import linalg
from hopfcalc.linalg import (
    AmbientMismatch,
    NotSquare,
    RationalMatrix,
    PRIME,
    Subspace,
    kernel_basis,
    rank_mod_p,
    stack_rows,
)
from test_span_oracle import contains, full_space, zero_space

M = RationalMatrix.from_rows


def random_matrix(rng: random.Random, rows: int, cols: int, rational: bool = False) -> RationalMatrix:
    def entry():
        if rational:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return Fraction(rng.randint(-4, 4))

    return M([[entry() for _ in range(cols)] for _ in range(rows)])


def cofactor_det(m: RationalMatrix) -> Fraction:
    """Independent determinant by Laplace expansion, for small sizes."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m.row(0)[0]
    total = Fraction(0)
    rows = m.to_rows()
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = M([[row[k] for k in range(n) if k != j] for row in rows[1:]])
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


# ---------------------------------------------------------------------------
# RationalMatrix basics


def test_matrix_validation():
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, (Fraction(1),))
    with pytest.raises(ValueError):
        M([[1, 2], [3]])


@pytest.mark.parametrize("den", [0, -3])
def test_nonpositive_denominator_raises(den):
    with pytest.raises(ValueError, match="denominator"):
        RationalMatrix(1, 2, (1, 2), den)


def test_wrong_entry_count_raises():
    with pytest.raises(ValueError, match="needs 4 entries, got 3"):
        RationalMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="needs 0 entries"):
        RationalMatrix(0, 3, (1,), 2)


def test_non_integer_numerators_raise():
    with pytest.raises(ValueError, match="integers"):
        RationalMatrix(1, 1, (Fraction(1, 2),))


def test_construction_normalizes_to_lowest_terms():
    m = RationalMatrix(1, 3, (2, 4, -6), 4)
    assert (m.num, m.den) == ((1, 2, -3), 2)
    assert m == M([[Fraction(1, 2), 1, Fraction(-3, 2)]])
    assert RationalMatrix(2, 1, (0, 0), 5) == RationalMatrix(2, 1, (0, 0))
    assert RationalMatrix(2, 1, (0, 0), 5).den == 1
    assert RationalMatrix(0, 0, (), 7).den == 1
    assert M([[Fraction(2, 6), Fraction(4, 3)]]).den == 3


def test_storage_invariants_hold_under_optimize():
    script = (
        "from hopfcalc.linalg import RationalMatrix as R\n"
        "for args in ((1, 1, (1,), 0), (1, 1, (1,), -1), (2, 2, (1,))):\n"
        "    try:\n"
        "        R(*args)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {args}')\n"
        "print(R(1, 2, (3, 6), 9).den)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "3\n"


def test_matmul_examples():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert a @ M([[1], [1]]) == M([[3], [7]])
    with pytest.raises(ValueError):
        a @ M([[1], [2], [3]])


@st.composite
def matmul_operands(draw) -> tuple[RationalMatrix, RationalMatrix]:
    """Two conformable matrices whose rows are all zero, all nonzero or mixed."""
    nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
    entry = st.one_of(st.just(Fraction(0)), nonzero)

    def matrix(rows: int, cols: int) -> RationalMatrix:
        row = st.one_of(
            st.just([Fraction(0)] * cols),
            st.lists(nonzero, min_size=cols, max_size=cols),
            st.lists(entry, min_size=cols, max_size=cols),
        )
        return M(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)

    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    return matrix(rows, inner), matrix(inner, cols)


@settings(max_examples=300, deadline=None)
@given(matmul_operands())
@example((M([], cols=3), M([[1, 2], [3, 4], [5, 6]])))  # no rows
@example((M([[1, 2], [3, 4]]), M([[], []], cols=0)))  # no columns
@example((M([[], []], cols=0), M([], cols=3)))  # inner dimension 0
@example((M([[0, 0], [Fraction(1, 2), Fraction(-2, 3)]]), M([[Fraction(3, 4), 5], [0, Fraction(1, 7)]])))
def test_matmul_matches_fraction_triple_loop(operands):
    a, b = operands
    x, y = a.to_rows(), b.to_rows()
    want = [
        [sum((x[i][k] * y[k][j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product.to_rows() == want


def test_is_symmetric_matches_the_transpose():
    rng = random.Random(7)
    seen = set()
    for _ in range(400):
        rows = rng.randint(0, 5)
        cols = rows if rng.random() < 0.7 else rng.randint(0, 5)
        m = random_matrix(rng, rows, cols, rational=rng.random() < 0.5)
        if rows == cols and rng.random() < 0.6:
            num = list((m @ m.transpose()).num)  # symmetric, until one entry moves
            if rows > 1 and rng.random() < 0.3:
                i, j = rng.sample(range(rows), 2)
                num[i * rows + j] += 1
            m = RationalMatrix(rows, cols, num, rng.randint(1, 3))
        want = m.rows == m.cols and m.num == m.transpose().num
        assert m.is_symmetric() == want
        seen.add((want, m.rows == m.cols))
    assert seen == {(True, True), (False, True), (False, False)}
    for m in (RationalMatrix(0, 0, ()), RationalMatrix(1, 1, (5,)), M([[1, 2]]), M([[1], [1]])):
        assert m.is_symmetric() == (m.rows == m.cols)


def test_rref_canonical_and_deterministic():
    reduced, pivots = M([[0, 2, 4], [1, 1, 1], [1, 3, 5]]).rref()
    assert pivots == (0, 1)
    assert reduced.to_rows() == [[1, 0, -1], [0, 1, 2]]
    again, _ = M([[1, 3, 5], [1, 1, 1], [0, 2, 4]]).rref()
    assert again == reduced  # same row space, same canonical form


def test_det_examples_and_oracle():
    assert M([[1, 1], [1, 1]]).det() == 0
    assert M([[0, 1], [1, 0]]).det() == -1
    assert RationalMatrix.identity(4).det() == 1
    rng = random.Random(3)
    for _ in range(25):
        m = random_matrix(rng, 4, 4, rational=True)
        assert m.det() == cofactor_det(m)
    with pytest.raises(NotSquare):
        M([[1, 2]]).det()


def test_inverse_and_solve():
    a = M([[2, 1], [1, 1]])
    assert (a @ a.inverse()) == RationalMatrix.identity(2)
    x = a.inverse() @ M([[1], [0]])
    assert a @ x == M([[1], [0]])
    with pytest.raises(ValueError):
        M([[1, 1], [1, 1]]).inverse()
    rng = random.Random(5)
    for _ in range(10):
        m = random_matrix(rng, 5, 5)
        if m.det() == 0:
            continue
        rhs = random_matrix(rng, 5, 3)
        assert m @ (m.inverse() @ rhs) == rhs


def test_stack_rows():
    s = stack_rows([M([[1, 2]]), M([[3, 4]]), RationalMatrix.from_rows([], cols=2)])
    assert s.to_rows() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        stack_rows([M([[1, 2]]), M([[1, 2, 3]])])


# ---------------------------------------------------------------------------
# kernels


def test_kernel_examples():
    assert kernel_basis(RationalMatrix(2, 2, (0,) * 4)) == full_space(2)
    assert kernel_basis(RationalMatrix.identity(3)) == zero_space(3)
    k = kernel_basis(M([[1, 1], [2, 2]]))
    assert k.dim == 1
    assert contains(k, [1, -1])


def test_rank_nullity_randomized():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, rational=True)
        k = kernel_basis(m)
        assert m.rank() + k.dim == cols
        assert m @ k.basis.transpose() == RationalMatrix(rows, k.dim, (0,) * (rows * k.dim))


def test_rank_mod_p_examples():
    assert rank_mod_p([]) == 0
    assert rank_mod_p([[0, 0], [0, 0]]) == 0
    assert rank_mod_p([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    # a multiple of the prime vanishes: the rank modulo p may fall short, never exceed
    assert rank_mod_p([[PRIME, 0], [0, 1]]) == 1
    assert rank_mod_p([[1, 1], [1, 1 + PRIME]]) == 1
    assert rank_mod_p([[2 * PRIME + 3, -5], [7, PRIME - 1]]) == 2


def oracle_rank_mod_p(rows) -> int:
    """Rank modulo PRIME by the per-entry elimination the packed rows replaced."""
    p = PRIME
    pivots: dict[int, list[int]] = {}  # by leading column; each row starts there
    leads: list[int] = []  # sorted
    for row in rows:
        v = [x % p for x in row]
        for col in leads:
            a = v[col]
            if a:
                v[col:] = [(x - a * y) % p for x, y in zip(v[col:], pivots[col])]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], -1, p)
            pivots[lead] = [x * inv % p for x in v[lead:]]
            insort(leads, lead)
    return len(leads)


BOUND = 2 * PRIME**2
MOD_P_ENTRIES = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([PRIME, -PRIME, PRIME - 1, 1 - PRIME, BOUND, -BOUND]),
    st.integers(-BOUND, BOUND),
)


@st.composite
def mod_p_rows(draw) -> list[list[int]]:
    """Rows with entries in [-2p^2, 2p^2], some of them dependent modulo p, shuffled."""
    cols = draw(st.integers(0, 9), label="cols")
    rows = draw(st.lists(st.lists(MOD_P_ENTRIES, min_size=cols, max_size=cols), max_size=9))
    weights = st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows))
    for w in draw(st.lists(weights, max_size=4), label="dependent rows"):
        # a combination of the rows so far, moved by multiples of p and kept in range
        combo = [sum(c * row[j] for c, row in zip(w, rows)) % PRIME for j in range(cols)]
        shifts = draw(st.lists(st.integers(-2 * PRIME, 2 * PRIME - 1), min_size=cols, max_size=cols))
        rows.append([x + k * PRIME for x, k in zip(combo, shifts)])
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(mod_p_rows())
@example([])
@example([[], [], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[PRIME - 1] * 6] * 7)
@example([[PRIME - 1] * 3 for _ in range(9)])
@example([[PRIME - 1] * 9 for _ in range(2)])
@example([[PRIME - 1 if j >= i else 1 for j in range(9)] for i in range(9)])
def test_rank_mod_p_matches_per_entry_oracle(rows):
    assert all(-BOUND <= x <= BOUND for row in rows for x in row)
    assert rank_mod_p(rows) == oracle_rank_mod_p(rows)


def test_rank_mod_p_raises_past_its_pivot_bound(monkeypatch):
    # a packed row meets at most _MAX_PIVOTS pivots; the check is a raise, so it holds under -O
    monkeypatch.setattr(linalg, "_MAX_PIVOTS", 2)
    assert rank_mod_p(RationalMatrix.identity(3).int_rows()) == 3
    with pytest.raises(OverflowError):
        rank_mod_p(RationalMatrix.identity(4).int_rows())


def test_rank_mod_p_equals_exact_rank_on_small_entries():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, rows, cols)
        assert rank_mod_p(m.int_rows()) == m.rank()


# ---------------------------------------------------------------------------
# subspaces and greedy picks


def test_subspace_canonical_equality():
    a = Subspace.span(3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.span(3, [[1, 0, -1], [2, 3, 1]])
    assert a == b
    assert a.basis == b.basis
    assert contains(a, [1, 2, 1])
    assert not contains(a, [0, 0, 1])
    with pytest.raises(AmbientMismatch):
        Subspace.span(3, [[1, 0]])
    with pytest.raises(AmbientMismatch):
        contains(a, [1, 0])


def test_matrix_subtraction():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[0, 1], [1, 0]])
    assert (a - b).to_rows() == [[1, 1], [2, 4]]
    with pytest.raises(ValueError):
        a - RationalMatrix.identity(3)
