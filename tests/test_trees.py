from __future__ import annotations

import itertools
import random
import subprocess
import sys
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfcalc.linalg import RationalMatrix
from hopfcalc.series import SeriesProfile, r_from_d
from hopfcalc.structure import HopfStructure
from hopfcalc.trees import (
    DecorationSet,
    DegreeZeroInput,
    Forest,
    ForestAlgebra,
    Tree,
    parse_forest,
    parse_tree,
)
from test_cli import child_env
from test_span_oracle import unit

DOT = parse_forest("a[]")
LADDER2 = parse_forest("a[a[]]")
LADDER3 = parse_forest("a[a[a[]]]")
TWO_DOTS = parse_forest("a[] a[]")
CHERRY = parse_forest("a[a[] a[]]")


def terms_as_strings(terms):
    return {(l.encode(), r.encode()): c for (l, r), c in terms.items()}


def admissible_cuts(tree: Tree) -> list[tuple[tuple[Tree, ...], tuple[Tree, ...]]]:
    """(left trees, right trees) for every admissible cut of a tree and the total cut.

    Vertices are numbered in depth-first order; a cut is a set of non-root
    vertices, each losing the edge to its parent, none below another one.
    """
    labels, kids, above, subtree = [], [], [], []

    def visit(t: Tree, ancestors: frozenset) -> int:
        v = len(labels)
        labels.append(t.decoration)
        kids.append([])
        above.append(ancestors)
        subtree.append(t)
        kids[v] = [visit(c, ancestors | {v}) for c in t.children]
        return v

    visit(tree, frozenset())

    def trunk(v: int, cut: set) -> Tree:
        return Tree(labels[v], tuple(trunk(c, cut) for c in kids[v] if c not in cut))

    out = [((tree,), ())]
    for size in range(len(labels)):
        for cut in itertools.combinations(range(1, len(labels)), size):
            if not any(above[v] & set(cut) for v in cut):
                out.append((tuple(subtree[v] for v in cut), (trunk(0, set(cut)),)))
    return out


def definition_coproduct(forest: Forest) -> dict:
    """The coproduct from the definition: a forest takes the product over its trees."""
    out: dict = {}
    for parts in itertools.product(*(admissible_cuts(t) for t in forest.trees)):
        left = Forest(tuple(t for pruned, _ in parts for t in pruned))
        right = Forest(tuple(t for _, kept in parts for t in kept))
        out[(left, right)] = out.get((left, right), 0) + 1
    return out


# ---------------------------------------------------------------------------
# decorations, parsing, serialization


def test_decoration_set_validation():
    with pytest.raises(ValueError):
        DecorationSet(())
    with pytest.raises(ValueError):
        DecorationSet((("a", 1), ("a", 2)))
    with pytest.raises(ValueError):
        DecorationSet((("a", 0),))
    with pytest.raises(ValueError):
        DecorationSet((("a b", 1),))
    for degree in (1.7, 2.0, True, "2"):
        with pytest.raises(ValueError):
            DecorationSet((("a", degree),))
    d = DecorationSet((("a", 1), ("b", 3)))
    assert d.degree_of("b") == 3
    assert d.degree_counts(4) == [1, 0, 1, 0]
    with pytest.raises(KeyError):
        d.degree_of("c")


def test_decoration_json_round_trip():
    d = DecorationSet((("a", 1), ("b", 2)))
    assert DecorationSet.from_json(d.to_json()) == d
    with pytest.raises(ValueError):
        DecorationSet.from_json("{}")
    with pytest.raises(ValueError):
        DecorationSet.from_json('[{"label": "a"}]')


def test_encode_parse_round_trip():
    assert DOT.encode() == "a[]"
    assert CHERRY.encode() == "a[a[] a[]]"
    assert Forest().encode() == "1"
    assert parse_forest("1") == Forest()
    assert parse_forest("") == Forest()
    alg = ForestAlgebra()
    for n in range(6):
        for f in alg.basis(n):
            assert parse_forest(f.encode()) == f
    assert parse_tree("a[a[] a[a[]]]").encode() == "a[a[] a[a[]]]"
    for bad in ("a", "a[", "a[] ]", "2[a[]]", "a[]extra"):
        with pytest.raises(ValueError):
            parse_tree(bad)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_match_series_oracle():
    cases = [
        (DecorationSet.default(), 7),
        (DecorationSet((("a", 1), ("b", 1))), 5),
        (DecorationSet((("a", 1), ("b", 2))), 5),
    ]
    for decorations, top in cases:
        alg = ForestAlgebra(decorations)
        d = SeriesProfile.make("D", decorations.degree_counts(top))
        want = [int(c) for c in r_from_d(d).coeffs]
        assert [alg.dim(n) for n in range(1, top + 1)] == want
        assert alg.basis(0) == (Forest(),)


def test_enumeration_canonical_order_frozen():
    alg = ForestAlgebra()
    assert [f.encode() for f in alg.basis(2)] == ["a[] a[]", "a[a[]]"]
    assert [f.encode() for f in alg.basis(3)] == [
        "a[] a[] a[]",
        "a[] a[a[]]",
        "a[a[] a[]]",
        "a[a[]] a[]",
        "a[a[a[]]]",
    ]
    for n in range(6):
        basis = alg.basis(n)
        assert len(set(basis)) == len(basis)
        assert [f.encode() for f in basis] == sorted(f.encode() for f in basis)
        for i, f in enumerate(basis):
            assert alg.index(f) == i


def test_index_on_a_fresh_algebra_places_the_forest():
    f = parse_forest("a[a[]] a[]")
    assert ForestAlgebra().index(f) == ForestAlgebra().basis(3).index(f) == 3


def test_index_rejects_foreign_forest():
    alg = ForestAlgebra()
    with pytest.raises(KeyError):
        alg.index(parse_forest("b[]"))  # wrong alphabet entirely
    with pytest.raises(KeyError):
        alg.degree(parse_forest("b[]"))


def test_coproduct_rejects_a_foreign_letter_and_registers_nothing():
    alg = ForestAlgebra()
    # a[] is a valid tree below the foreign root; a second call must not find b[a[]] half-numbered
    for _ in range(2):
        with pytest.raises(KeyError, match="'b'"):
            alg.coproduct_terms(parse_forest("b[a[]]"))
    fresh = ForestAlgebra()
    for n in range(1, 4):
        assert alg.dim(n) == fresh.dim(n)
        assert alg.basis(n) == fresh.basis(n)


# ---------------------------------------------------------------------------
# product


def test_product_laws():
    assert Forest() * LADDER2 == LADDER2
    assert LADDER2 * Forest() == LADDER2
    assert DOT * DOT == TWO_DOTS
    assert DOT * DOT != LADDER2
    a, b, c = DOT, LADDER2, CHERRY
    assert (a * b) * c == a * (b * c)
    assert a * b != b * a
    alg = ForestAlgebra()
    assert alg.degree(b * c) == alg.degree(b) + alg.degree(c)


# ---------------------------------------------------------------------------
# coproduct


def test_coproduct_hand_examples():
    alg = ForestAlgebra()
    assert terms_as_strings(alg.coproduct_terms(DOT)) == {("a[]", "1"): 1, ("1", "a[]"): 1}
    assert terms_as_strings(alg.coproduct_terms(LADDER2)) == {
        ("a[a[]]", "1"): 1,
        ("1", "a[a[]]"): 1,
        ("a[]", "a[]"): 1,
    }
    assert terms_as_strings(alg.coproduct_terms(TWO_DOTS)) == {
        ("a[] a[]", "1"): 1,
        ("1", "a[] a[]"): 1,
        ("a[]", "a[]"): 2,
    }
    # cherry: cutting either edge prunes a dot; cutting both prunes a 2-dot forest
    assert terms_as_strings(alg.coproduct_terms(CHERRY)) == {
        ("a[a[] a[]]", "1"): 1,
        ("1", "a[a[] a[]]"): 1,
        ("a[]", "a[a[]]"): 2,
        ("a[] a[]", "a[]"): 1,
    }
    assert alg.coproduct_terms(Forest()) == {(Forest(), Forest()): 1}


def test_cut_branch_order_is_depth_first():
    # root with two children, left child has its own child: pruning the deep
    # leaf and the right child must list the deep leaf first
    f = parse_forest("a[a[a[]] a[]]")
    alg = ForestAlgebra()
    terms = terms_as_strings(alg.coproduct_terms(f))
    assert terms[("a[] a[]", "a[a[]]")] == 1  # deep leaf then right child
    assert ("a[] a[]", "a[a[]]") in terms


def test_coproduct_tensor_family_shape():
    alg = ForestAlgebra()
    column = alg.reduced_table(3)[alg.index(CHERRY)]
    # dot (x) ladder twice, two dots (x) dot once
    assert column == {
        1: ((alg.index(DOT), alg.index(LADDER2), 2),),
        2: ((alg.index(TWO_DOTS), alg.index(DOT), 1),),
    }
    assert alg.reduced_table(1) == ({},)


def test_grading_structural_assert():
    alg = ForestAlgebra()
    for n in range(1, 6):
        for column in alg.reduced_table(n):
            assert set(column) <= set(range(1, n))
            for i, terms in column.items():
                assert all(a < alg.dim(i) and b < alg.dim(n - i) for a, b, _ in terms)
    # a term off the grading must stop the table, also under python -O
    broken = ForestAlgebra()
    dot = broken._forest_keys(1)[0]
    broken._coproduct = lambda key: {(dot, dot): 1}
    with pytest.raises(RuntimeError, match="grading"):
        broken.reduced_table(3)


GRADING_FAULT = """\
import sys
from hopfcalc.trees import ForestAlgebra
broken = ForestAlgebra()
dot = broken._forest_keys(1)[0]
broken._coproduct = lambda key: {(dot, dot): 1}
try:
    broken.reduced_table(3)
except RuntimeError as exc:
    print(sys.flags.optimize, exc)
"""


def test_grading_assert_under_optimize(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", GRADING_FAULT],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "1 coproduct of 'a[] a[] a[]' breaks the grading at 'a[]' (x) 'a[]'\n"
    )


def test_grading_assert_catches_a_full_degree_left_factor():
    # the left factor is on the position map, but the degrees sum to n + 1
    for n in (2, 3, 4):
        broken = ForestAlgebra()
        top, dot = broken._forest_keys(n)[-1], broken._forest_keys(1)[0]
        broken._coproduct = lambda key: {(top, dot): 1}
        with pytest.raises(RuntimeError, match="grading"):
            broken.reduced_table(n)


def test_coproduct_matches_definition_through_degree_6():
    alg = ForestAlgebra()
    for n in range(7):
        for f in alg.basis(n):
            assert alg.coproduct_terms(f) == definition_coproduct(f)


@settings(max_examples=30, deadline=None)
@given(
    degrees=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    n=st.integers(1, 5),
)
def test_coproduct_matches_definition_random_decorations(degrees, n):
    decorations = DecorationSet(tuple(zip("abc", degrees)))
    # the forest count from the series keeps the enumeration small
    r = r_from_d(SeriesProfile.make("D", decorations.degree_counts(n)))
    assume(r.coeff(n) <= 300)
    alg = ForestAlgebra(decorations)
    for f in alg.basis(n):
        assert alg.coproduct_terms(f) == definition_coproduct(f)


def test_coproduct_of_a_wide_forest_loops_over_its_trees():
    # a recursion on the number of trees would need about 100 frames here
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    wide = Forest(DOT.trees * 100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        terms = ForestAlgebra().coproduct_terms(wide)
    finally:
        sys.setrecursionlimit(limit)
    assert terms == {
        (Forest(DOT.trees * k), Forest(DOT.trees * (100 - k))): comb(100, k) for k in range(101)
    }


def test_counit_law():
    # (eps x id) Delta = id = (id x eps) Delta; eps kills positive degrees
    alg = ForestAlgebra()
    for n in range(5):
        for f in alg.basis(n):
            terms = alg.coproduct_terms(f)
            left_unit = {r: c for (l, r), c in terms.items() if not l.trees}
            right_unit = {l: c for (l, r), c in terms.items() if not r.trees}
            assert left_unit == {f: 1}
            assert right_unit == {f: 1}


def coassociativity_holds(alg: ForestAlgebra, f: Forest) -> bool:
    left = {}
    for (x, y), c in alg.coproduct_terms(f).items():
        for (a, b), d in alg.coproduct_terms(x).items():
            key = (a, b, y)
            left[key] = left.get(key, 0) + c * d
    right = {}
    for (x, y), c in alg.coproduct_terms(f).items():
        for (a, b), d in alg.coproduct_terms(y).items():
            key = (x, a, b)
            right[key] = right.get(key, 0) + c * d
    left = {k: v for k, v in left.items() if v}
    right = {k: v for k, v in right.items() if v}
    return left == right


def compatibility_holds(alg: ForestAlgebra, f: Forest, g: Forest) -> bool:
    """The coproduct of f g is the product of the coproducts of f and g."""
    composed: dict = {}
    for (a, b), c in alg.coproduct_terms(f).items():
        for (x, y), d in alg.coproduct_terms(g).items():
            key = (a * x, b * y)
            composed[key] = composed.get(key, 0) + c * d
    return alg.coproduct_terms(f * g) == {k: v for k, v in composed.items() if v}


def test_coassociativity_exhaustive_low_degree():
    alg = ForestAlgebra()
    for n in range(5):
        for f in alg.basis(n):
            assert coassociativity_holds(alg, f)


def test_bialgebra_compatibility_low_degree():
    alg = ForestAlgebra()
    for i in range(1, 4):
        for j in range(1, 5 - i):
            for f in alg.basis(i):
                for g in alg.basis(j):
                    assert compatibility_holds(alg, f, g)


@settings(max_examples=30, deadline=None)
@given(degrees=st.lists(st.integers(1, 3), min_size=2, max_size=3), data=st.data())
def test_coassociativity_and_compatibility_random_decorations(degrees, data):
    decorations = DecorationSet(tuple(zip("abc", degrees)))
    # the forest count from the series keeps the enumeration small
    r = r_from_d(SeriesProfile.make("D", decorations.degree_counts(6)))
    small = [n for n in range(1, 7) if 0 < r.coeff(n) <= 300]
    alg = ForestAlgebra(decorations)

    def forest(n: int) -> Forest:
        return data.draw(st.sampled_from(alg.basis(n)), label=f"degree-{n} forest")

    n = data.draw(st.sampled_from(small), label="degree")
    assert coassociativity_holds(alg, forest(n))
    # the lowest letter degree is at most 3, so both draws have a choice
    i = data.draw(st.sampled_from([m for m in small if m <= 3]), label="left degree")
    j = data.draw(st.sampled_from([m for m in small if i + m <= 6]), label="right degree")
    assert compatibility_holds(alg, forest(i), forest(j))


# ---------------------------------------------------------------------------
# reduced and iterated forms


def test_reduced_coproduct_examples():
    alg = ForestAlgebra()

    def reduced(forest: Forest) -> dict:
        terms = alg.coproduct_terms(forest).items()
        return {(l.encode(), r.encode()): c for (l, r), c in terms if l.trees and r.trees}

    assert reduced(DOT) == {}
    assert reduced(LADDER2) == {("a[]", "a[]"): 1}
    assert reduced(LADDER3) == {("a[]", "a[a[]]"): 1, ("a[a[]]", "a[]"): 1}
    # the same terms over basis indices
    dot, ladder2 = alg.index(DOT), alg.index(LADDER2)
    assert alg.reduced_table(1)[dot] == {}
    assert alg.reduced_table(2)[ladder2] == {1: ((dot, dot, 1),)}
    assert alg.reduced_table(3)[alg.index(LADDER3)] == {
        1: ((dot, ladder2, 1),),
        2: ((ladder2, dot, 1),),
    }
    with pytest.raises(DegreeZeroInput):
        alg.reduced_table(0)


def test_reduced_matrix_is_linear():
    alg = ForestAlgebra()
    reduced = HopfStructure(alg).reduced_matrix(2)
    x = [3 * a - b for a, b in zip(unit(alg, LADDER2), unit(alg, TWO_DOTS))]
    column = RationalMatrix.from_rows([[v] for v in x])
    assert (reduced @ column).to_rows() == [[1]]  # dot (x) dot: 3*1 - 2
    assert (reduced @ RationalMatrix(2, 1, (0, 0))).to_rows() == [[0]]


@settings(max_examples=40, deadline=None)
@given(
    degrees=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    n=st.integers(1, 5),
)
def test_reduced_table_maps_back_to_reduced_coproduct_terms(degrees, n):
    decorations = DecorationSet(tuple(zip("abc", degrees)))
    # the forest count from the series keeps the enumeration small
    r = r_from_d(SeriesProfile.make("D", decorations.degree_counts(n)))
    assume(r.coeff(n) <= 300)
    alg = ForestAlgebra(decorations)
    for forest, column in zip(alg.basis(n), alg.reduced_table(n)):
        mapped = [
            ((alg.basis(i)[a], alg.basis(n - i)[b]), c)
            for i, terms in column.items()
            for a, b, c in terms
        ]
        # the definition's cuts, without the empty and the total cut
        want = {
            (left, right): c
            for (left, right), c in definition_coproduct(forest).items()
            if left.trees and right.trees
        }
        assert dict(mapped) == want and len(mapped) == len(want)


def product_table(alg: ForestAlgebra, i: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Index of each product of basis forests, found by position in the basis tuple."""
    target = alg.basis(i + j)
    return tuple(tuple(target.index(f * g) for g in alg.basis(j)) for f in alg.basis(i))


def test_products_match_forest_concatenation_through_degree_6():
    alg = ForestAlgebra()
    for n in range(7):
        for i in range(n + 1):
            assert alg.products(i, n - i) == product_table(alg, i, n - i)


@settings(max_examples=30, deadline=None)
@given(
    degrees=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    n=st.integers(1, 5),
)
def test_products_match_forest_concatenation_random_decorations(degrees, n):
    decorations = DecorationSet(tuple(zip("abc", degrees)))
    r = r_from_d(SeriesProfile.make("D", decorations.degree_counts(n)))
    assume(r.coeff(n) <= 300)
    alg = ForestAlgebra(decorations)
    for i in range(n + 1):
        assert alg.products(i, n - i) == product_table(alg, i, n - i)


def tree_degree(decorations: DecorationSet, tree: Tree) -> int:
    return decorations.degree_of(tree.decoration) + sum(
        tree_degree(decorations, c) for c in tree.children
    )


def first_trees_oracle(alg: ForestAlgebra, n: int) -> tuple[tuple[int, int, int], ...]:
    """(i, a, b) per degree-n basis forest, read off its Forest object by position in the bases."""
    out = []
    for f in alg.basis(n):
        head, rest = Forest(f.trees[:1]), Forest(f.trees[1:])
        i = tree_degree(alg.decorations, f.trees[0])
        out.append((i, alg.basis(i).index(head), alg.basis(n - i).index(rest)))
    return tuple(out)


def assert_first_trees_match_forests(alg: ForestAlgebra, n: int) -> None:
    assert alg.first_trees(n) == first_trees_oracle(alg, n)
    assert [alg.degree(f) for f in alg.basis(n)] == [n] * alg.dim(n)
    trees, multi = HopfStructure(alg).coordinates(n)
    assert trees == [k for k, f in enumerate(alg.basis(n)) if len(f.trees) == 1]
    assert multi == [k for k, f in enumerate(alg.basis(n)) if len(f.trees) > 1]


def test_first_trees_match_forests_through_degree_6():
    alg = ForestAlgebra()
    for n in range(1, 7):
        assert_first_trees_match_forests(alg, n)
    assert alg.first_trees(2) == ((1, 0, 0), (2, 1, 0))  # dot . dot, then the ladder itself
    with pytest.raises(ValueError):
        alg.first_trees(0)


@settings(max_examples=30, deadline=None)
@given(
    degrees=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    n=st.integers(1, 5),
)
def test_first_trees_match_forests_random_decorations(degrees, n):
    decorations = DecorationSet(tuple(zip("abc", degrees)))
    r = r_from_d(SeriesProfile.make("D", decorations.degree_counts(n)))
    assume(r.coeff(n) <= 300)
    assert_first_trees_match_forests(ForestAlgebra(decorations), n)


# ---------------------------------------------------------------------------
# randomized degree 5-6 checks


def test_coassociativity_and_compatibility_random_degree_5_6():
    alg = ForestAlgebra()
    rng = random.Random(67)
    for _ in range(10):
        n = rng.choice((5, 6))
        f = rng.choice(alg.basis(n))
        assert coassociativity_holds(alg, f)
    for _ in range(10):
        i = rng.randint(1, 3)
        j = rng.randint(max(1, 5 - i), 6 - i)
        f = rng.choice(alg.basis(i))
        g = rng.choice(alg.basis(j))
        assert compatibility_holds(alg, f, g)
