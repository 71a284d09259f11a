from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from hopfcalc.cli import main
from hopfcalc.linalg import RationalMatrix, Subspace, kernel_basis, stack_rows
from hopfcalc.series import SeriesProfile, p_from_r, s_from_r
from hopfcalc.structure import DegreeDecomposition, FreenessError, HopfStructure
from hopfcalc.trees import DecorationSet, DegreeZeroInput, ForestAlgebra, parse_forest
from test_span_oracle import full_space, oracle_decomposition, span_ops, unit_rows

TOP = 5


@pytest.fixture(scope="module")
def hs() -> HopfStructure:
    return HopfStructure()


def expected_series(alg: ForestAlgebra, top: int):
    r = SeriesProfile.make("R", [alg.dim(n) for n in range(1, top + 1)])
    p = [int(c) for c in p_from_r(r).coeffs]
    s = [int(c) for c in s_from_r(r).coeffs]
    return p, s


def test_reduced_matrix_degree_2_frozen(hs):
    m = hs.reduced_matrix(2)
    # single row: the pair (dot, dot); columns in basis order (2 dots, ladder)
    assert (m.rows, m.cols) == (1, 2)
    assert m.to_rows() == [[2, 1]]
    assert hs.primitives(2).basis.to_rows() == [[1, -2]]


def test_reduced_matrix_shapes(hs):
    alg = hs.algebra
    for n in (1, 2, 3, 4):
        m = hs.reduced_matrix(n)
        assert m.cols == alg.dim(n)
        assert m.rows == sum(alg.dim(i) * alg.dim(n - i) for i in range(1, n))
    # the counts perfbench's self-check expects of the degree-6 layer
    m = hs.reduced_matrix(6)
    assert (m.rows, m.cols, sum(1 for x in m.num if x)) == (165, 132, 1976)
    with pytest.raises(ValueError):
        hs.reduced_matrix(0)


@pytest.mark.parametrize(
    "decorations, top",
    [
        ((("a", 1),), 7),
        ((("a", 1), ("b", 2)), 5),
        ((("a", 1), ("b", 1)), 4),
        ((("a", 1), ("b", 1), ("c", 1)), 3),
    ],
    ids=["a1-d7", "a1b2-d5", "a1b1-d4", "a1b1c1-d3"],
)
def test_primitives_match_the_dense_kernel(decorations, top):
    # primitives read the reduced table row by row; the dense matrix is the oracle
    structure = HopfStructure(ForestAlgebra(DecorationSet(decorations)))
    for n in range(1, top + 1):
        assert structure.primitives(n) == kernel_basis(structure.reduced_matrix(n)), n


@pytest.mark.parametrize(
    "argv, decorations, want",
    [
        (
            ("nck", "verify", "--max-degree", "6"),
            None,
            "e724451e1bd02743c847ee06aef7a01652662a17327baace8990fe3c6d52cd2f",
        ),
        (
            ("nck", "verify", "--max-degree", "5"),
            '[{"label":"a","degree":1},{"label":"b","degree":2}]',
            "5e57c8a38c8d8f72f9fc8cc66ad93645e10c8b78bd43223fb445cfadc26a84dc",
        ),
        (
            ("pairing", "verify", "--max-degree", "5"),
            None,
            "11b5553bf6799f422fe05d950fab4bdcc9e73463328ba0cfdf55d3eeb7426d99",
        ),
        (
            ("pairing", "adapt", "--max-degree", "5"),
            None,
            "56a2ecb360a018e87144516e0c237c39de70a50648fc22f869057b1b0a180f28",
        ),
    ],
    ids=["nck-verify-d6", "nck-verify-a1b2-d5", "pairing-verify-d5", "pairing-adapt-d5"],
)
def test_commands_never_build_the_dense_reduced_matrix(
    argv, decorations, want, tmp_path, capsys, monkeypatch
):
    def refuse(*_):
        raise AssertionError("a command built the dense reduced-coproduct matrix")

    monkeypatch.delenv("HOPF_CAP", raising=False)
    monkeypatch.setattr(HopfStructure, "reduced_matrix", refuse)
    if decorations is not None:
        path = tmp_path / "decorations.json"
        path.write_text(decorations)
        argv += ("--decorations", str(path))
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_primitive_dims_match_series(hs):
    p, _ = expected_series(hs.algebra, TOP)
    assert [hs.primitives(n).dim for n in range(1, TOP + 1)] == p[:TOP]
    assert p[:5] == [1, 1, 2, 5, 14]
    with pytest.raises(ValueError):
        hs.primitives(0)


def test_decomposables_dims_and_freeness(hs):
    alg = hs.algebra
    assert len(hs.decomposables(1)) == 0
    assert unit_rows(2, hs.decomposables(2)).basis.to_rows() == [[1, 0]]  # the two-dot forest
    assert len(hs.decomposables(4)) == 9  # total 14 minus 5 single trees
    for n in range(1, TOP + 1):
        multi = [
            [Fraction(1 if i == k else 0) for i in range(alg.dim(n))]
            for k, f in enumerate(alg.basis(n))
            if len(f.trees) >= 2
        ]
        assert unit_rows(alg.dim(n), hs.decomposables(n)) == Subspace.span(alg.dim(n), multi)


def test_decomposables_raise_when_products_miss_a_forest(monkeypatch):
    hs2 = HopfStructure()
    alg = hs2.algebra
    ladder = alg.index(parse_forest("a[a[]]"))
    products = alg.products
    # the product a[]·a[] lands on the ladder, so no product hits the two-dot forest
    monkeypatch.setattr(
        alg, "products", lambda i, j: ((ladder,),) if (i, j) == (1, 1) else products(i, j)
    )
    with pytest.raises(FreenessError, match="a\\[\\] a\\[\\]"):
        hs2.decomposables(2)


def test_primitive_count_check(hs):
    for n in range(1, TOP + 1):
        assert hs.degree_report(n)["primitive_count_ok"] is True
        assert hs.primitives(n).dim == hs.algebra.dim(n) - len(hs.decomposables(n))
    dims = hs.degree_report(3)["dims"]
    assert (dims["primitives"], hs.algebra.dim(3), dims["decomposables"]) == (2, 5, 3)


def test_bracket_space_examples(hs):
    assert hs.bracket_space(2).dim == 0  # [dot, dot] = 0
    assert hs.bracket_space(3).dim == 1
    with pytest.raises(ValueError):
        hs.bracket_space(1)


def test_bracket_space_equals_core(hs):
    for n in range(2, TOP + 1):
        assert hs.degree_report(n)["bracket_matches_core"] is True
        assert hs.bracket_space(n) == hs.decomposition(n).core
    assert (hs.bracket_space(4).dim, hs.degree_report(4)["dims"]["core"]) == (2, 2)


def direct_sum_holds(a: Subspace, b: Subspace, whole: Subspace) -> bool:
    parts = span_ops(a, b)
    return parts.intersection.dim == 0 and parts.sum == whole


def test_decomposition_invariants(hs):
    alg = hs.algebra
    _, s = expected_series(alg, TOP)
    for n in range(1, TOP + 1):
        split = hs.decomposition(n)
        whole = full_space(alg.dim(n))
        dec, comp, residual = (
            unit_rows(alg.dim(n), block)
            for block in (split.decomposables, split.decomposable_complement, split.residual)
        )
        assert split.core == span_ops(split.primitives, dec).intersection
        assert direct_sum_holds(split.core, comp, dec)
        assert direct_sum_holds(split.core, split.primitive_generators, split.primitives)
        spanned = span_ops(split.primitives, dec).sum
        assert direct_sum_holds(spanned, residual, whole)
        assert residual.dim == split.core.dim
        assert split.primitive_generators.dim == s[n - 1]
        stacked = stack_rows(
            [split.core.basis, comp.basis, split.primitive_generators.basis, residual.basis],
            cols=alg.dim(n),
        )
        assert stacked.rank() == alg.dim(n)
    assert s[:5] == [1, 1, 1, 3, 7]


@pytest.mark.parametrize(
    "decorations, top",
    [((("a", 1),), 6), ((("a", 1), ("b", 2)), 5), ((("a", 2), ("b", 3), ("c", 1)), 4)],
    ids=["a1-d6", "a1b2-d5", "a2b3c1-d4"],
)
def test_decomposition_matches_span_ops_oracle(decorations, top):
    fast = HopfStructure(ForestAlgebra(DecorationSet(decorations)))
    slow = HopfStructure(fast.algebra)
    for n in range(1, top + 1):
        got, want = fast.decomposition(n), oracle_decomposition(slow, n)
        for field in (
            "primitives",
            "decomposables",
            "core",
            "decomposable_complement",
            "primitive_generators",
            "residual",
        ):
            assert getattr(got, field) == getattr(want, field), (n, field)
        assert got == want


def test_decomposition_degree_7_digest():
    # the span_ops oracle is too slow at degree 7; the blocks are pinned by a digest instead
    structure = HopfStructure()
    split, dim = structure.decomposition(7), structure.algebra.dim(7)
    comp, residual = unit_rows(dim, split.decomposable_complement), unit_rows(dim, split.residual)
    blocks = (split.core, comp, split.primitive_generators, residual)
    digest = hashlib.sha256(repr([(b.basis.num, b.basis.den) for b in blocks]).encode()).hexdigest()
    assert digest == "ef63bc33da488c83bc813eca278f1e9232c58ed42b377e19ff7cbaa7fc68fd89"


@pytest.mark.parametrize(
    "decorations, top", [((("a", 1),), 6), ((("a", 1), ("b", 2)), 5)], ids=["a1-d6", "a1b2-d5"]
)
def test_coordinate_blocks_are_index_tuples(decorations, top):
    structure = HopfStructure(ForestAlgebra(DecorationSet(decorations)))
    for n in range(1, top + 1):
        split, dim = structure.decomposition(n), structure.algebra.dim(n)
        trees, multi = structure.coordinates(n)
        blocks = (split.decomposables, split.decomposable_complement, split.residual)
        for block in blocks:
            assert type(block) is tuple and list(block) == sorted(set(block)), n
        assert split.decomposables == tuple(multi) == structure.decomposables(n)
        assert set(split.decomposable_complement) <= set(multi)
        assert set(split.residual) <= set(trees)
        assert set(split.residual).isdisjoint(split.decomposables)
        assert len(split.residual) == split.core.dim
        stacked = stack_rows(
            [
                split.core.basis,
                unit_rows(dim, split.decomposable_complement).basis,
                split.primitive_generators.basis,
                unit_rows(dim, split.residual).basis,
            ],
            cols=dim,
        )
        # the four blocks are a basis: a square stack of full rank
        assert stacked.rows == dim and stacked.rank() == dim, n


def test_decomposition_frozen_small_degrees(hs):
    d1 = hs.decomposition(1).dims()
    assert (d1["core"], d1["decomposable_complement"], d1["primitive_generators"], d1["residual"]) == (0, 0, 1, 0)
    d2 = hs.decomposition(2).dims()
    assert (d2["core"], d2["decomposable_complement"], d2["primitive_generators"], d2["residual"]) == (0, 1, 1, 0)
    d4 = hs.decomposition(4).dims()
    assert d4["primitive_generators"] == 3
    with pytest.raises(ValueError):
        hs.decomposition(0)


def test_residual_rows_are_unit_vectors(hs):
    # the residual complement is picked greedily from canonical unit vectors,
    # so its echelon basis is a set of unit vectors, one per index in range
    for n in range(1, TOP + 1):
        for row in unit_rows(hs.algebra.dim(n), hs.decomposition(n).residual).basis.to_rows():
            assert sorted(row) == [0] * (len(row) - 1) + [1]


def test_degree_report_shape(hs):
    report = hs.degree_report(3)
    assert report["degree"] == 3
    assert report["primitive_count_ok"] is True
    assert report["bracket_matches_core"] is True
    assert report["residual_matches_core"] is True
    assert report["dims"]["primitives"] == 2
    assert "bracket_matches_core" not in hs.degree_report(1)


def without_row(space: Subspace | tuple[int, ...], r: int) -> Subspace | tuple[int, ...]:
    if isinstance(space, tuple):
        return space[:r] + space[r + 1 :]
    rows = space.basis.int_rows()
    kept = rows[:r] + rows[r + 1 :]
    return Subspace(space.ambient_dim, RationalMatrix.from_int_rows(kept, space.ambient_dim, space.basis.den))


@pytest.mark.parametrize(
    "block, flagged",
    [("residual", {"residual_matches_core"}), ("core", {"residual_matches_core", "bracket_matches_core"})],
)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_degree_report_flags_a_dropped_block_row(n, block, flagged, monkeypatch):
    # a generator row replaced by a core row goes unflagged: no key reads the generators
    structure = HopfStructure()
    split = structure.decomposition(n)
    flags = ("primitive_count_ok", "residual_matches_core", "bracket_matches_core")
    assert all(structure.degree_report(n)[key] for key in flags)
    for r in (0, split.dims()[block] - 1):
        blocks = {
            "primitives": split.primitives,
            "decomposables": split.decomposables,
            "core": split.core,
            "decomposable_complement": split.decomposable_complement,
            "primitive_generators": split.primitive_generators,
            "residual": split.residual,
        }
        blocks[block] = without_row(blocks[block], r)
        faulty = DegreeDecomposition(split.degree, **blocks)
        monkeypatch.setattr(structure, "decomposition", lambda degree, faulty=faulty: faulty)
        report = structure.degree_report(n)
        assert {key for key in flags if not report[key]} == flagged


@pytest.mark.parametrize(
    "layer, method, args, error",
    [
        ("algebra", "_tree_numbers", (4,), None),
        ("algebra", "_forest_keys", (4,), None),
        ("algebra", "basis", (4,), None),
        ("algebra", "reduced_table", (4,), None),
        ("algebra", "products", (1, 3), None),
        ("algebra", "first_trees", (4,), None),
        ("structure", "primitives", (4,), None),
        ("structure", "decomposables", (4,), None),
        ("structure", "bracket_space", (4,), None),
        ("structure", "decomposition", (4,), None),
        ("algebra", "reduced_table", (0,), DegreeZeroInput),
        ("algebra", "first_trees", (0,), ValueError),
        ("structure", "primitives", (0,), ValueError),
        ("structure", "decomposition", (0,), ValueError),
    ],
)
def test_memo_keeps_results_and_not_failures(layer, method, args, error):
    structure = HopfStructure()
    call = getattr({"algebra": structure.algebra, "structure": structure}[layer], method)
    if error is None:
        assert call(*args) is call(*args)
        return
    for _ in range(2):
        with pytest.raises(error):
            call(*args)


def test_determinism_across_instances(hs):
    other = HopfStructure(ForestAlgebra())
    for n in range(1, 5):
        assert other.decomposition(n) == hs.decomposition(n)


def test_two_decoration_structure_smoke():
    hs2 = HopfStructure(ForestAlgebra(DecorationSet((("a", 1), ("b", 1)))))
    p, s = expected_series(hs2.algebra, 3)
    assert [hs2.algebra.dim(n) for n in range(1, 4)] == [2, 8, 40]
    for n in range(1, 4):
        split = hs2.decomposition(n)
        assert split.primitives.dim == p[n - 1]
        assert split.primitive_generators.dim == s[n - 1]
        assert len(split.residual) == split.core.dim
        report = hs2.degree_report(n)
        assert report["primitive_count_ok"]
        if n >= 2:
            assert report["bracket_matches_core"]
