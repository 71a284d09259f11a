"""FQSym, the Malvenuto-Reutenauer algebra of permutations: a second free and cofree Hopf
algebra, built here from its definition and sharing no code with the forests.

Its degree-n basis is the n! permutations.  F_s F_t sums F_w over the shuffles w of s with
t shifted up by |s|, and the coproduct of F_w sums F_std(w_1..w_i) (x) F_std(w_i+1..w_n)
over the cuts of w, where std replaces each letter by its rank.  The primitives are the
kernel of the reduced coproduct and the indecomposables the quotient by the products, so
both count n! minus a rank.  In a free and cofree algebra with dimensions r both counts are
p = p_from_r(r), and s_from_p(p) is the catalog's generator row.

FQSym is self-dual: <F_s, F_t> = 1 when t = s^-1 and 0 otherwise is a Hopf pairing
(Malvenuto & Reutenauer, J. Algebra 177, 1995; Duchamp, Hivert & Thibon, Int. J. Algebra
Comput. 12, 2002), checked here on basis triples without the forest pairing's code.
"""

from __future__ import annotations

from collections import Counter
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


def _inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(w)
    for k, v in enumerate(w, 1):
        inverse[v - 1] = k
    return tuple(inverse)


def _pairing_mismatches(partner, top: int) -> tuple[int, int]:
    """Mismatched and all basis triples (a, b, c) with |a| + |b| = |c| <= top.

    Under <F_s, F_t> = [t == partner(s)], F_a F_b pairs with F_c as the number of shuffles
    of a and b equal to partner(c), and F_a (x) F_b with the coproduct of F_c only through
    its cut at |a|; a triple mismatches where the two differ.  Degree 0 is the empty
    permutation, so a or b may be the unit.
    """
    bad = total = 0
    for n in range(1, top + 1):
        for i in range(n + 1):
            for a in permutations(range(1, i + 1)):
                for b in permutations(range(1, n - i + 1)):
                    product = Counter(_shuffles(a, b))
                    for c in permutations(range(1, n + 1)):
                        left = product[partner(c)]
                        right = a == partner(_std(c[:i])) and b == partner(_std(c[i:]))
                        bad += left != right
                        total += 1
    return bad, total


def test_self_duality_on_every_basis_triple():
    assert _inverse((2, 3, 1)) == (3, 1, 2)
    assert _pairing_mismatches(_inverse, 5) == (0, 39084)
    # the pairing without the inverse is not a Hopf pairing, so the check can fail
    assert _pairing_mismatches(lambda w: w, 3)[0] > 0
