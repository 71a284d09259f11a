"""FQSym, the Malvenuto-Reutenauer algebra of permutations: a second free and cofree Hopf
algebra, built here from its definition and sharing no code with the forests.

Its degree-n basis is the n! permutations.  F_s F_t sums F_w over the shuffles w of s with
t shifted up by |s|, and the coproduct of F_w sums F_std(w_1..w_i) (x) F_std(w_i+1..w_n)
over the cuts of w, where std replaces each letter by its rank.  The primitives are the
kernel of the reduced coproduct and the indecomposables the quotient by the products, so
both count n! minus a rank.  In a free and cofree algebra with dimensions r both counts are
p = p_from_r(r), and s_from_p(p) is the catalog's generator row.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial

import pytest

from hopfcalc.catalog import entry_by_name
from hopfcalc.linalg import RationalMatrix
from hopfcalc.series import SeriesProfile, p_from_r, s_from_p

# every rank is exact, so each count below is proved, the top degree too
TOP = 6


def _std(word: tuple[int, ...]) -> tuple[int, ...]:
    order = sorted(word)
    return tuple(order.index(v) + 1 for v in word)


def _shuffles(s: tuple[int, ...], t: tuple[int, ...]):
    """The permutations w of F_s F_t, one per shuffle."""
    n, shifted = len(s) + len(t), tuple(v + len(s) for v in t)
    for places in combinations(range(n), len(s)):
        left, right = iter(s), iter(shifted)
        yield tuple(next(left) if k in places else next(right) for k in range(n))


def _rank(rows: list[list[int]], cols: int) -> int:
    return RationalMatrix.from_int_rows(rows, cols).rank() if rows else 0


def _counts(n: int) -> tuple[int, int]:
    """Primitive and indecomposable counts at degree n."""
    basis = list(permutations(range(1, n + 1)))
    index = {w: k for k, w in enumerate(basis)}
    # the reduced coproduct, one row per F_w: a 1 at each of its n - 1 cuts
    cuts: dict[tuple, int] = {}
    places = [
        [cuts.setdefault((_std(w[:i]), _std(w[i:])), len(cuts)) for i in range(1, n)]
        for w in basis
    ]
    coproduct = [[int(c in columns) for c in range(len(cuts))] for columns in places]
    # the products F_s F_t with s and t of positive degree, one row each
    products = []
    for i in range(1, n):
        for s in permutations(range(1, i + 1)):
            for t in permutations(range(1, n - i + 1)):
                row = [0] * len(basis)
                for w in _shuffles(s, t):
                    row[index[w]] += 1
                products.append(row)
    size = len(basis)
    return size - _rank(coproduct, len(cuts)), size - _rank(products, size)


@pytest.fixture(scope="module")
def counts() -> list[tuple[int, int]]:
    return [_counts(n) for n in range(1, TOP + 1)]


def test_shuffle_product_and_standardization_by_hand():
    assert sorted(_shuffles((1,), (1,))) == [(1, 2), (2, 1)]
    assert sorted(_shuffles((2, 1), (1,))) == [(2, 1, 3), (2, 3, 1), (3, 2, 1)]
    assert _std((5, 2, 9)) == (2, 1, 3)


def test_primitive_and_generator_counts_match_the_series(counts):
    r = SeriesProfile.make("R", [factorial(n) for n in range(1, TOP + 1)])
    p = [int(c) for c in p_from_r(r).coeffs]
    # the indecomposable permutations, counted by hand
    assert p == [1, 1, 3, 13, 71, 461]
    assert [primitive for primitive, _ in counts] == p
    assert [generators for _, generators in counts] == p


def test_generator_series_matches_the_catalog_row(counts):
    p = SeriesProfile.make("P", [primitive for primitive, _ in counts])
    s = [int(c) for c in s_from_p(p).coeffs]
    assert s == [1, 1, 2, 10, 55, 377]
    assert tuple(s) == entry_by_name("FQSym").s_row()[:TOP]
