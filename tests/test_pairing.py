from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import assume, given, settings, strategies

from hopfcalc import linalg, pairing
from hopfcalc.linalg import RationalMatrix, Subspace, kernel_basis, rank_mod_p, stack_rows
from hopfcalc.pairing import (
    AdaptedBasis,
    DegenerateBaseForm,
    OrthogonalityCheck,
    PairingCheck,
    PairingReport,
    PairingState,
    _certified,
    _check_multiplicativity,
    _check_shapes,
    _forced_products,
    adapt_complement,
    build_pairing,
    check_primitive_orthogonality,
    verify_hopf_pairing,
)
from hopfcalc.structure import DegreeDecomposition, HopfStructure
from hopfcalc.trees import DecorationSet, ForestAlgebra, parse_forest
from test_span_oracle import span_ops, unit_rows

TOP = 5


def _row_block(m: RationalMatrix, lo: int, hi: int) -> RationalMatrix:
    """Rows lo..hi of m."""
    return RationalMatrix(hi - lo, m.cols, m.num[lo * m.cols : hi * m.cols], m.den)


def oracle_extend_degree(
    state: PairingState, n: int, split: DegreeDecomposition, form: RationalMatrix
) -> None:
    """The degree-n Gram solved against the whole four-block basis.

    This is the construction the tree-block solve replaced: it inverts the
    dense block basis B = [core; m; h; w] and the conditions matrix, and
    reads the Gram as B^-1 times the functionals of the basis rows.
    """
    dim = state.structure.algebra.dim(n)
    # structure.decomposables guarantees its rows are the multi-tree unit
    # vectors in basis order, and that core and complement rows live on them
    _, multi = state.structure.coordinates(n)
    forced = _forced_products(state, n)
    core, m_mat = split.core.basis, unit_rows(dim, split.decomposable_complement).basis
    h_mat, w_mat = split.primitive_generators.basis, unit_rows(dim, split.residual).basis
    b_inv = stack_rows([core, m_mat, h_mat, w_mat], cols=dim).inverse()
    h_offset = core.rows + m_mat.rows

    # a core or complement row x pairs as the sum of x[k] times forced row k
    cm = stack_rows([core, m_mat], cols=dim)
    cm_multi = RationalMatrix.from_int_rows(
        [[row[k] for k in multi] for row in cm.int_rows()], len(multi), cm.den
    )
    parts = [cm_multi @ forced]
    # primitive generator a pairs as form[a] on the generator block of the
    # basis and vanishes on the rest: rows of b_inv's generator columns
    parts.append(form @ _row_block(b_inv.transpose(), h_offset, h_offset + h_mat.rows))
    if w_mat.rows:
        conditions = stack_rows([unit_rows(dim, split.decomposables).basis, h_mat, w_mat], cols=dim)
        on_units = _row_block(conditions.inverse().transpose(), 0, len(multi))
        # <w, t . rest> = <coproduct of w, t (x) rest> is forced row k times w,
        # as the lower Grams are symmetric; w vanishes on both generator blocks
        parts.append(w_mat @ forced.transpose() @ on_units)

    functionals = stack_rows(parts, cols=dim)
    state.gram[n] = b_inv @ functionals


def oracle_tree_block_degree(
    state: PairingState, n: int, split: DegreeDecomposition, form: RationalMatrix
) -> None:
    """The degree-n Gram by the general tree-block solve the closed form replaced.

    The rows at the multi-tree forests are forced, and by symmetry so are the
    tree rows at multi-tree columns: G0 is the Gram with those and a zero tree
    block.  The generators H = [h; w] must pair as diag(form, 0).  On the tree
    coordinates H is a square invertible Y, so the tree block is
    -Y^-1 (H G0 H^T - diag(form, 0)) Y^-T, from two dense products with G0 and
    a tree x tree inverse.
    """
    trees, multi = state.structure.coordinates(n)
    forced = _forced_products(state, n)
    dim = forced.cols
    rows = [[0] * dim for _ in range(dim)]
    for k, row in zip(multi, forced.int_rows()):
        rows[k] = list(row)
        for j in trees:
            rows[j][k] = row[j]
    g0 = RationalMatrix.from_int_rows(rows, dim, forced.den)
    residual = unit_rows(dim, split.residual).basis
    gens = stack_rows([split.primitive_generators.basis, residual], cols=dim)
    t, s = len(trees), form.rows
    wanted = [list(row) + [0] * (t - s) for row in form.int_rows()] + [[0] * t] * (t - s)
    excess = gens @ g0 @ gens.transpose() - RationalMatrix.from_int_rows(wanted, t, form.den)
    y_inv = RationalMatrix.from_int_rows(
        [[row[j] for j in trees] for row in gens.int_rows()], t, gens.den
    ).inverse()
    block = y_inv @ excess @ y_inv.transpose()
    rows = [[0] * dim for _ in range(dim)]
    for i, row in zip(trees, block.int_rows()):
        for j, x in zip(trees, row):
            rows[i][j] = x
    state.gram[n] = g0 - RationalMatrix.from_int_rows(rows, dim, block.den)


def assert_closed_form_facts(state: PairingState, n: int) -> None:
    """The three facts behind the closed-form tree block, at degree n.

    The forced rows F vanish on the primitive generators h, the residual rows
    are unit vectors at tree coordinates, and h on the other tree coordinates
    is a square invertible h_L.
    """
    trees, _ = state.structure.coordinates(n)
    split = state.structure.decomposition(n)
    h = split.primitive_generators.basis
    assert not any((h @ _forced_products(state, n).transpose()).num)
    residual = unit_rows(h.cols, split.residual).basis
    assert residual.den == 1
    leads = []
    for row in residual.int_rows():
        support = [j for j, x in enumerate(row) if x]
        assert len(support) == 1 and row[support[0]] == 1 and support[0] in trees
        leads.append(support[0])
    rest = [j for j in trees if j not in leads]
    h_l = RationalMatrix.from_int_rows(
        [[row[j] for j in rest] for row in h.int_rows()], len(rest), h.den
    )
    assert h_l.rows == h_l.cols and h_l.det() != 0


def oracle_grams(built: PairingState, extend=oracle_extend_degree) -> dict[int, RationalMatrix]:
    """Grams of an oracle construction with the structure and base forms of built."""
    state = PairingState(
        structure=built.structure,
        max_degree=built.max_degree,
        base_form=dict(built.base_form),
        gram={0: RationalMatrix.identity(1)},
    )
    for n in range(1, built.max_degree + 1):
        extend(state, n, built.structure.decomposition(n), built.base_form[n])
    return state.gram


def oracle_nondegeneracy(state: PairingState) -> PairingCheck:
    """Nondegeneracy by the exact determinant of every Gram, as before the certificate."""
    fail = _check_shapes(state)
    if fail is None:
        fail = next(
            ({"degree": n, "det": "0"} for n in range(state.max_degree + 1) if state.gram[n].det() == 0),
            None,
        )
    return PairingCheck("nondegeneracy", fail is None, fail)


def oracle_orthogonality(state: PairingState, n: int) -> OrthogonalityCheck:
    """Orthogonality by the exact kernel of the Gram rows at the multi-tree forests."""
    structure = state.structure
    _, multi = structure.coordinates(n)
    gram = state.gram[n]
    rows = RationalMatrix.from_int_rows([gram.int_row(i) for i in multi], gram.cols, gram.den)
    orthogonal = kernel_basis(rows)
    primitives = structure.primitives(n)
    return OrthogonalityCheck(n, orthogonal.dim, primitives.dim, orthogonal == primitives)


def assert_matches_oracle(state: PairingState) -> None:
    """The certificate path's report and orthogonality JSON equal the exact oracle's."""
    report = verify_hopf_pairing(state)
    assert report.checks[-1].name == "nondegeneracy"
    assert report == PairingReport(state.max_degree, report.checks[:-1] + (oracle_nondegeneracy(state),))
    for n in range(1, state.max_degree + 1):
        got = check_primitive_orthogonality(state, n).to_json()
        assert got == oracle_orthogonality(state, n).to_json()


@pytest.fixture(scope="module")
def state():
    return build_pairing(TOP)


def test_low_degree_grams_frozen(state):
    assert state.gram[0].to_rows() == [[1]]
    assert state.gram[1].to_rows() == [[1]]
    # basis order: two dots, then the ladder
    assert state.gram[2].to_rows() == [[2, 1], [1, Fraction(3, 4)]]
    alg = state.structure.algebra
    two_dots = alg.index(parse_forest("a[] a[]"))
    ladder = alg.index(parse_forest("a[a[]]"))
    assert state.gram[2].row(two_dots)[ladder] == 1


def test_gram_json_frozen(state):
    js = state.gram_json()
    assert js["0"] == [["1"]]
    assert js["2"] == [["2", "1"], ["1", "3/4"]]
    assert set(js) == {"0", "1", "2", "3", "4", "5"}


def test_gram_json_degree_5_digest(state):
    # recorded from the Fraction implementation; the integer core must match it byte for byte
    digest = hashlib.sha256(json.dumps(state.gram_json()).encode()).hexdigest()
    assert digest == "c16a4c09af48db900d511c676cde14c9b7be4673928d351991f381e477cc4a1b"


def test_verify_all_checks_pass(state):
    report = verify_hopf_pairing(state)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "unit-counit",
        "multiplicativity",
        "homogeneity",
        "symmetry",
        "nondegeneracy",
    ]
    js = report.to_json()
    assert js["pass"] is True
    assert all(c["counterexample"] is None for c in js["checks"])


def test_symmetry_and_nondegeneracy_per_degree(state):
    for n in range(TOP + 1):
        assert state.gram[n].is_symmetric()
        assert state.gram[n].det() != 0


def test_restriction_equals_base_form(state):
    for n in range(1, TOP + 1):
        assert state.generator_block(n).to_rows() == state.base_form[n].to_rows()


def dense_generator_block(state: PairingState, n: int) -> RationalMatrix:
    """H G H^T by Fraction loops over the entries, H the primitive-generator rows."""
    h = state.structure.decomposition(n).primitive_generators.basis.to_rows()
    g = state.gram[n].to_rows()
    hg = [
        [sum((x * row[j] for x, row in zip(hr, g)), Fraction(0)) for j in range(len(g))]
        for hr in h
    ]
    block = [[sum((x * y for x, y in zip(r, hr)), Fraction(0)) for hr in h] for r in hg]
    return RationalMatrix.from_rows(block, cols=len(h))


def test_generator_block_matches_dense_products(state):
    for n in range(1, TOP + 1):
        assert state.generator_block(n) == dense_generator_block(state, n)
    # off the base form as well: a Gram with fractions, no symmetry and no zeros
    faulty = build_pairing(TOP, structure=state.structure)
    for n in range(1, TOP + 1):
        dim = faulty.gram[n].cols
        faulty.gram[n] = RationalMatrix.from_rows(
            [[Fraction(3 * i - j * j + 1, 2 + (i + j) % 5) for j in range(dim)] for i in range(dim)]
        )
        block = faulty.generator_block(n)
        assert block == dense_generator_block(faulty, n)
        assert block != faulty.base_form[n]


@pytest.mark.parametrize("prime", [None, 2])
def test_generator_block_from_the_certificate_product(monkeypatch, prime):
    # under PRIME = 2 some ranks fall short and the exact checks decide, but P G is formed
    if prime is not None:
        monkeypatch.setattr(linalg, "PRIME", prime)
    products = []

    def logged(a, b, matmul=RationalMatrix.__matmul__):
        products.append(b)
        return matmul(a, b)

    monkeypatch.setattr(RationalMatrix, "__matmul__", logged)
    st = build_pairing(6)
    verdicts = []
    for n in range(1, 7):
        g, h = st.gram[n], st.structure.decomposition(n).primitive_generators.basis
        want = h @ g @ h.transpose()
        assert st.generator_block(n) == want
        products.clear()
        verdicts.append(_certified(st, n))
        # the certificate's one product by G leaves the block behind, so none follows
        assert st.generator_block(n) == want
        assert sum(b is g for b in products) == 1
    assert all(verdicts) if prime is None else not all(verdicts)


def test_generator_functionals_consistency(state):
    for n in range(1, TOP + 1):
        split, dim = state.structure.decomposition(n), state.structure.algebra.dim(n)
        residual = unit_rows(dim, split.residual).basis.to_rows()
        gens = split.primitive_generators.basis.to_rows() + residual
        funcs = RationalMatrix.from_rows(gens, cols=dim) @ state.gram[n]
        # generator functionals vanish on the residual block, and the
        # primitive-generator ones vanish on the decomposables too
        for i in range(funcs.rows):
            for w in residual:
                assert sum(a * b for a, b in zip(funcs.row(i), w)) == 0
        for i in range(split.primitive_generators.dim):
            for d in unit_rows(dim, split.decomposables).basis.to_rows():
                assert sum(a * b for a, b in zip(funcs.row(i), d)) == 0


def test_primitive_orthogonality(state):
    for n in range(1, TOP + 1):
        check = check_primitive_orthogonality(state, n)
        assert check.passed
        assert check.orthogonal_dim == check.primitive_dim
    js = check_primitive_orthogonality(state, 2).to_json()
    assert js == {
        "check": "primitive-orthogonality",
        "degree": 2,
        "orthogonal_dim": 1,
        "primitive_dim": 1,
        "pass": True,
    }


def test_adapt_complement_block_form(state):
    for n in range(1, TOP + 1):
        adapted = adapt_complement(state, n)
        assert isinstance(adapted, AdaptedBasis)
        assert adapted.block_pattern_ok()
        assert adapted.block_gram.is_symmetric()
        js = adapted.to_json()
        assert js["block_form_ok"] is True
        assert sum(js["block_dims"]) == state.structure.algebra.dim(n)


def test_adapt_preserves_spans(state):
    for n in (3, 4, 5):
        split = state.structure.decomposition(n)
        adapted = adapt_complement(state, n)
        dim = state.structure.algebra.dim(n)
        new_m = Subspace.span(dim, adapted.decomposable_complement_rows.to_rows())
        assert span_ops(split.core, new_m).sum == unit_rows(dim, split.decomposables)
        assert span_ops(split.core, new_m).intersection.dim == 0
        assert Subspace.span(dim, adapted.residual_rows.to_rows()) == unit_rows(dim, split.residual)
        blocks = (
            adapted.core_rows,
            adapted.decomposable_complement_rows,
            adapted.primitive_generator_rows,
            adapted.residual_rows,
        )
        assert stack_rows(blocks).rank() == dim


def test_adapt_is_noop_when_core_trivial(state):
    for n in (1, 2):
        split = state.structure.decomposition(n)
        adapted = adapt_complement(state, n)
        assert adapted.core_rows.rows == 0
        assert adapted.residual_rows.rows == 0
        dim = state.structure.algebra.dim(n)
        assert adapted.decomposable_complement_rows.to_rows() == (
            unit_rows(dim, split.decomposable_complement).basis.to_rows()
        )


# blocks in the order core, complement, generators, residual
ZERO_BLOCKS = [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 3)]
BLOCK_FAULTS = (
    [("zero", i, j) for i, j in ZERO_BLOCKS]
    + [("zero", j, i) for i, j in ZERO_BLOCKS if i != j]
    + [("identity", 0, 3), ("identity", 3, 0)]
    + [(kind, b, b) for b in (1, 2) for kind in ("asymmetric", "singular")]
)


@pytest.fixture(scope="module")
def adapted5(state):
    return adapt_complement(state, 5)


@pytest.mark.parametrize("kind, bi, bj", BLOCK_FAULTS)
def test_block_pattern_rejects_one_fault(adapted5, kind, bi, bj):
    assert adapted5.block_pattern_ok()
    sizes = adapted5.to_json()["block_dims"]
    assert min(sizes) >= 2  # every block at degree 5 has an off-diagonal entry
    edges = [sum(sizes[:k]) for k in range(5)]
    i, j = edges[bi], edges[bj]
    rows = adapted5.block_gram.to_rows()
    if kind == "zero":
        rows[i][edges[bj + 1] - 1] += 1  # first row, last column of the block
    elif kind == "identity":
        rows[i][j] += 1
    elif kind == "asymmetric":
        rows[i][j + 1] += 1
    else:
        # zero the block's first row and column: still symmetric, now singular
        for k in range(edges[bi], edges[bi + 1]):
            rows[i][k] = rows[k][j] = 0
    faulty = AdaptedBasis(
        adapted5.degree,
        adapted5.core_rows,
        adapted5.decomposable_complement_rows,
        adapted5.primitive_generator_rows,
        adapted5.residual_rows,
        block_gram=RationalMatrix.from_rows(rows),
    )
    assert not faulty.block_pattern_ok()


def oracle_block_pattern_ok(adapted: AdaptedBasis) -> bool:
    """The block form, tested on each block cut out of the block Gram as its own matrix.

    This is the check the one-pass row walk replaced.
    """
    c = adapted.core_rows.rows
    m = adapted.decomposable_complement_rows.rows
    s = adapted.primitive_generator_rows.rows
    w = adapted.residual_rows.rows
    if w != c:
        return False
    g = adapted.block_gram
    if (g.rows, g.cols) != (c + m + s + w, c + m + s + w):
        return False
    edges = [0, c, c + m, c + m + s, c + m + s + w]

    def block(bi: int, bj: int) -> RationalMatrix:
        lo, hi = edges[bj], edges[bj + 1]
        rows = [g.int_row(i)[lo:hi] for i in range(edges[bi], edges[bi + 1])]
        return RationalMatrix.from_int_rows(rows, hi - lo, g.den)

    for bi, bj in ZERO_BLOCKS:
        if any(block(bi, bj).num) or any(block(bj, bi).num):
            return False
    if block(0, 3) != RationalMatrix.identity(c) or block(3, 0) != RationalMatrix.identity(c):
        return False
    for bi in (1, 2):
        diag = block(bi, bi)
        if not diag.is_symmetric() or diag.rank() != diag.rows:
            return False
    return True


@pytest.fixture(scope="module")
def adapted_3_to_5(state):
    return {n: adapt_complement(state, n) for n in (3, 4, 5)}


def singular_congruence(block: list[list[Fraction]], u: list[int], k: int) -> RationalMatrix:
    """E^T B E for E = I - u e_k^T / u_k: still symmetric, and E u = 0 makes it singular."""
    d = len(block)
    rows = [[Fraction(p == q) for q in range(d)] for p in range(d)]
    for p in range(d):
        rows[p][k] -= Fraction(u[p], u[k])
    e = RationalMatrix.from_rows(rows)
    return e.transpose() @ RationalMatrix.from_rows(block) @ e


@pytest.mark.parametrize("fault", ["none", "entries", "asymmetric", "singular", "shape", "residual"])
@settings(deadline=None, max_examples=30)
@given(data=strategies.data())
def test_block_pattern_matches_oracle_under_a_fault(adapted_3_to_5, fault, data):
    adapted = adapted_3_to_5[data.draw(strategies.integers(3, 5), label="degree")]
    c, m, s, w = adapted.to_json()["block_dims"]
    rows, residual = adapted.block_gram.to_rows(), adapted.residual_rows
    if fault == "entries":  # one or two entries move, in any block and often at its edge
        edges = [0, c, c + m, c + m + s, len(rows)]
        ends = sorted({e for e in edges[:-1]} | {e - 1 for e in edges[1:]})
        coordinate = strategies.sampled_from(ends) | strategies.integers(0, len(rows) - 1)
        for _ in range(data.draw(strategies.integers(1, 2), label="entries")):
            i, j, delta = data.draw(strategies.tuples(coordinate, coordinate, RATIONALS.filter(bool)))
            rows[i][j] += delta
    elif fault in ("asymmetric", "singular"):  # in one of the two central diagonal blocks
        blocks = [(lo, hi) for lo, hi in [(c, c + m), (c + m, c + m + s)] if hi - lo >= 2]
        lo, hi = data.draw(strategies.sampled_from(blocks), label="block")
        index = strategies.integers(lo, hi - 1)
        if fault == "asymmetric":
            i = data.draw(index, label="row")
            j = data.draw(index.filter(lambda j: j != i), label="column")
            rows[i][j] += data.draw(RATIONALS.filter(bool), label="delta")
        else:
            size = hi - lo
            u = data.draw(strategies.lists(strategies.integers(-2, 2), min_size=size, max_size=size))
            k = data.draw(strategies.integers(0, size - 1), label="pivot")
            u[k] = u[k] or 1
            block = singular_congruence([row[lo:hi] for row in rows[lo:hi]], u, k)
            for a, values in enumerate(block.to_rows()):
                rows[lo + a][lo:hi] = values
    elif fault == "shape":
        cut = data.draw(strategies.sampled_from(["row", "column", "both", "grow"]), label="shape")
        if cut in ("row", "both"):
            rows.pop()
        if cut in ("column", "both"):
            rows = [row[:-1] for row in rows]
        if cut == "grow":
            rows = [row + [0] for row in rows] + [[0] * (len(rows) + 1)]
    elif fault == "residual":  # a residual count other than the core count
        grow = data.draw(strategies.booleans(), label="grow")
        if grow:
            residual = stack_rows([residual, _row_block(adapted.core_rows, 0, 1)])
        else:
            residual = _row_block(residual, 0, w - 1)
        if data.draw(strategies.booleans(), label="refit the Gram"):
            size = len(rows) + (1 if grow else -1)
            rows = [(row + [0])[:size] for row in rows[:size]] + [[0] * size] * grow
    faulty = AdaptedBasis(
        adapted.degree,
        adapted.core_rows,
        adapted.decomposable_complement_rows,
        adapted.primitive_generator_rows,
        residual,
        block_gram=RationalMatrix.from_rows(rows),
    )
    verdict = faulty.block_pattern_ok()
    assert verdict == oracle_block_pattern_ok(faulty)
    if fault == "none":
        assert verdict
    elif fault != "entries":
        assert not verdict


def test_fault_injection_zeroed_gram():
    st = build_pairing(2)
    st.gram[2] = RationalMatrix(2, 2, (0,) * 4)
    report = verify_hopf_pairing(st)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert not by_name["nondegeneracy"].passed
    assert by_name["nondegeneracy"].counterexample == {"degree": 2, "det": "0"}
    assert by_name["homogeneity"].passed  # shape is still right
    assert_matches_oracle(st)


def test_fault_injection_asymmetric_entry():
    st = build_pairing(2)
    st.gram[2] = RationalMatrix.from_rows([[2, 1], [0, Fraction(3, 4)]])
    report = verify_hopf_pairing(st)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["symmetry"].passed
    assert by_name["symmetry"].counterexample == {"degree": 2}


def test_fault_injection_wrong_product_value():
    st = build_pairing(2)
    st.gram[2] = RationalMatrix.from_rows([[2, 5], [5, Fraction(3, 4)]])
    report = verify_hopf_pairing(st)
    by_name = {c.name: c for c in report.checks}
    fail = by_name["multiplicativity"]
    assert not fail.passed
    assert fail.counterexample["identity"] == "product-left"
    assert fail.counterexample["z"] == "a[a[]]"
    assert fail.counterexample == {
        "identity": "product-left",
        "x": "a[]",
        "y": "a[]",
        "z": "a[a[]]",
        "got": "5",
        "want": "1",
    }


def test_fault_injection_mirrored_product_value():
    # the lower triangle is wrong only where <z, x y> reads it: the mirror fails
    st = build_pairing(2)
    st.gram[2] = RationalMatrix.from_rows([[2, 1], [0, Fraction(3, 4)]])
    by_name = {c.name: c for c in verify_hopf_pairing(st).checks}
    assert by_name["multiplicativity"].counterexample == {
        "identity": "product-right",
        "x": "a[]",
        "y": "a[]",
        "z": "a[a[]]",
        "got": "0",
        "want": "1",
    }


def test_fault_injection_null_multi_tree_forest():
    # the two-dots forest becomes a null vector: P G and M P^T stay as they were, but the
    # row at the multi-tree forest vanishes, so only the rank of M shows the fault
    st = build_pairing(2)
    st.gram[2] = RationalMatrix.from_rows([[0, 0], [0, Fraction(1, 4)]])
    by_name = {c.name: c for c in verify_hopf_pairing(st).checks}
    assert by_name["nondegeneracy"].counterexample == {"degree": 2, "det": "0"}
    check = check_primitive_orthogonality(st, 2)
    assert (check.orthogonal_dim, check.primitive_dim, check.passed) == (2, 1, False)
    assert_matches_oracle(st)


def test_fault_injection_null_primitive():
    # the primitive (1, -2) becomes a null vector through the tree block alone: M and
    # M P^T stay as they were, so only the rank of P G on the tree columns shows the fault
    st = build_pairing(2)
    st.gram[2] = RationalMatrix.from_rows([[2, 1], [1, Fraction(1, 2)]])
    by_name = {c.name: c for c in verify_hopf_pairing(st).checks}
    assert by_name["nondegeneracy"].counterexample == {"degree": 2, "det": "0"}
    assert check_primitive_orthogonality(st, 2).passed
    assert_matches_oracle(st)


def test_fault_injection_asymmetric_kernel():
    # P G vanishes at the multi-tree column, but the Gram's row there does not kill P
    st = build_pairing(2)
    st.gram[2] = RationalMatrix.from_rows([[2, 0], [1, 1]])
    by_name = {c.name: c for c in verify_hopf_pairing(st).checks}
    assert by_name["nondegeneracy"].passed
    check = check_primitive_orthogonality(st, 2)
    assert (check.orthogonal_dim, check.primitive_dim, check.passed) == (1, 1, False)
    assert_matches_oracle(st)


def test_fault_injection_missing_degree():
    st = build_pairing(2)
    del st.gram[1]
    report = verify_hopf_pairing(st)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["homogeneity"].passed
    assert by_name["homogeneity"].counterexample["degree"] == 1


def test_base_form_validation():
    with pytest.raises(DegenerateBaseForm):
        build_pairing(1, base_form={1: RationalMatrix(1, 1, (0,))})
    with pytest.raises(ValueError):
        build_pairing(1, base_form={1: RationalMatrix.identity(2)})
    with pytest.raises(ValueError):
        build_pairing(4, base_form={4: RationalMatrix.from_rows([[1]])})  # block is 3-dim
    asym = RationalMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        build_pairing(4, base_form={4: asym})
    with pytest.raises(ValueError):
        build_pairing(-1)
    # keys outside 1..2 were dropped unread, and True and 2.0 stood in for an int by equality
    eye = RationalMatrix.identity
    for stray in ({5: eye(3), 0: eye(7)}, {"2": eye(1)}, {True: eye(1)}, {2.0: eye(1)}):
        with pytest.raises(ValueError, match="not degrees in 1..2"):
            build_pairing(2, base_form=stray)


def test_custom_base_form():
    form = {
        1: RationalMatrix.from_rows([[2]]),
        4: RationalMatrix.from_rows([[1, 1, 0], [1, 2, 0], [0, 0, 1]]),
    }
    st = build_pairing(4, base_form=form)
    assert st.gram[1].to_rows() == [[2]]
    assert verify_hopf_pairing(st).passed
    for n in range(1, 5):
        assert st.generator_block(n).to_rows() == st.base_form[n].to_rows()
        assert check_primitive_orthogonality(st, n).passed
        assert adapt_complement(st, n).block_pattern_ok()


def test_determinism_across_builds(state):
    again = build_pairing(3)
    for n in range(4):
        assert again.gram[n] == state.gram[n]


@pytest.mark.parametrize(
    "letters, top",
    [((("a", 1),), 5), ((("a", 1), ("b", 2)), 5), ((("a", 1), ("b", 1)), 4)],
    ids=["a1-d5", "a1b2-d5", "a1b1-d4"],
)
def test_grams_equal_oracle(letters, top):
    built = build_pairing(top, structure=HopfStructure(ForestAlgebra(DecorationSet(letters))))
    assert built.gram == oracle_grams(built)


def test_two_decoration_pairing_smoke():
    structure = HopfStructure(ForestAlgebra(DecorationSet((("a", 1), ("b", 1)))))
    st = build_pairing(3, structure=structure)
    assert verify_hopf_pairing(st).passed
    for n in range(1, 4):
        assert check_primitive_orthogonality(st, n).passed
        assert adapt_complement(st, n).block_pattern_ok()
        assert st.generator_block(n).to_rows() == st.base_form[n].to_rows()


def test_degree_zero_build():
    st = build_pairing(0)
    assert st.gram == {0: RationalMatrix.identity(1)}
    assert verify_hopf_pairing(st).passed


RATIONALS = strategies.fractions(min_value=-3, max_value=3, max_denominator=5)


@strategies.composite
def base_forms(draw, sizes: dict[int, int]) -> dict[int, RationalMatrix]:
    """Symmetric nondegenerate forms L D L^T with rational entries, at some degrees."""
    forms = {}
    for n in draw(strategies.sets(strategies.sampled_from(sorted(sizes)), min_size=1)):
        k = sizes[n]
        lower = [[draw(RATIONALS) if j < i else Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        diag = [draw(RATIONALS.filter(bool)) for _ in range(k)]
        forms[n] = RationalMatrix.from_rows(
            [[sum(lower[i][t] * diag[t] * lower[j][t] for t in range(k)) for j in range(k)] for i in range(k)]
        )
    return forms


@settings(deadline=None, max_examples=12)
@given(base_forms({1: 1, 2: 1, 3: 1, 4: 3}))  # primitive-generator counts by degree
def test_pairing_axioms_for_random_base_forms(forms):
    built = build_pairing(4, base_form=forms)
    assert verify_hopf_pairing(built).passed
    for n in range(1, 5):
        assert built.generator_block(n) == built.base_form[n]
        assert check_primitive_orthogonality(built, n).passed
        assert adapt_complement(built, n).block_pattern_ok()
    for n, form in forms.items():
        assert built.base_form[n] == form
    assert built.gram == oracle_grams(built)
    assert all(_certified(built, n) for n in range(1, 5))
    assert_matches_oracle(built)


@pytest.mark.parametrize(
    "letters, top",
    [((("a", 1),), 6), ((("a", 1), ("b", 2)), 5), ((("a", 1), ("b", 1)), 5)],
    ids=["a1-d6", "a1b2-d5", "a1b1-d5"],
)
def test_grams_equal_tree_block_oracle(letters, top):
    built = build_pairing(top, structure=HopfStructure(ForestAlgebra(DecorationSet(letters))))
    for n in range(1, top + 1):
        assert_closed_form_facts(built, n)
    assert built.gram == oracle_grams(built, oracle_tree_block_degree)


@settings(deadline=None, max_examples=10)
@given(base_forms({1: 1, 2: 1, 3: 1, 4: 3, 5: 7}))  # primitive-generator counts by degree
def test_grams_equal_tree_block_oracle_for_random_base_forms(state, forms):
    built = build_pairing(TOP, base_form=forms, structure=state.structure)
    for n in range(1, TOP + 1):
        assert_closed_form_facts(built, n)
    assert built.gram == oracle_grams(built, oracle_tree_block_degree)


def perturbed(g: RationalMatrix, i: int, j: int, delta: Fraction) -> RationalMatrix:
    """g with delta added at (i, j) and at (j, i)."""
    rows = g.to_rows()
    rows[i][j] += delta
    if i != j:
        rows[j][i] += delta
    return RationalMatrix.from_rows(rows)


def times(g: RationalMatrix, x) -> list[Fraction]:
    """G x, through the product by a one-column matrix."""
    return [v for (v,) in (g @ RationalMatrix.from_rows([[a] for a in x])).to_rows()]


def with_null_vector(g: RationalMatrix, x) -> RationalMatrix:
    """G - (G x)(G x)^T / (x^T G x): symmetric, and G x = 0 afterwards."""
    gx = times(g, x)
    scale = sum(a * b for a, b in zip(x, gx))
    return g - RationalMatrix.from_rows([[a * b / scale for b in gx] for a in gx])


def weights(size: int):
    return strategies.lists(strategies.integers(-2, 2), min_size=size, max_size=size)


def combination(rows, coefficients) -> list:
    """The sum of coefficient times row."""
    return [sum(c * x for c, x in zip(coefficients, column)) for column in zip(*rows)]


def with_primitives(state: PairingState, n: int, rows) -> None:
    """Make the state's structure report the given rows as the degree-n primitive basis."""
    patched = Subspace(state.structure.algebra.dim(n), RationalMatrix.from_rows(rows))
    original = state.structure.primitives
    state.structure.primitives = lambda k: patched if k == n else original(k)


@pytest.mark.parametrize(
    "fault",
    ["zeroed-gram", "gram-pair", "gram-entry", "multi-tree-null", "primitive-null", "primitive-row"],
)
@settings(deadline=None, max_examples=10)
@given(forms=base_forms({1: 1, 2: 1, 3: 1, 4: 3}), data=strategies.data())
def test_certificate_matches_exact_oracle_under_a_fault(fault, forms, data):
    built = build_pairing(4, base_form=forms)
    n = data.draw(strategies.integers(2, 4), label="degree")
    g = built.gram[n]
    dim = g.cols
    coordinate = strategies.integers(0, dim - 1)
    if fault == "zeroed-gram":
        built.gram[n] = RationalMatrix(dim, dim, (0,) * dim**2)
    elif fault == "gram-pair":
        i, j, delta = data.draw(strategies.tuples(coordinate, coordinate, RATIONALS.filter(bool)))
        built.gram[n] = perturbed(g, i, j, delta)
    elif fault == "gram-entry":
        i, j, delta = data.draw(strategies.tuples(coordinate, coordinate, RATIONALS.filter(bool)))
        rows = g.to_rows()
        rows[i][j] += delta
        built.gram[n] = RationalMatrix.from_rows(rows)
    elif fault == "multi-tree-null":
        # a multi-tree forest's unit vector becomes a null vector: P G is unchanged
        _, multi = built.structure.coordinates(n)
        k = data.draw(strategies.sampled_from([k for k in multi if g.row(k)[k]]), label="forest")
        built.gram[n] = with_null_vector(g, [int(j == k) for j in range(dim)])
    elif fault == "primitive-null":
        # a primitive vector becomes a null vector: only the tree block moves, so M is unchanged
        rows = built.structure.primitives(n).basis.to_rows()
        x = combination(rows, data.draw(weights(len(rows))))
        assume(sum(a * b for a, b in zip(x, times(g, x))))
        built.gram[n] = with_null_vector(g, x)
    else:
        # an integer combination of the basis rows: zero, a repeat, a multiple or another
        # basis of the same span; optionally pushed off it at one coordinate
        rows = built.structure.primitives(n).basis.to_rows()
        r = data.draw(strategies.integers(0, len(rows) - 1), label="row")
        rows[r] = combination(rows, data.draw(weights(len(rows))))
        if data.draw(strategies.booleans(), label="off the span"):
            rows[r][data.draw(coordinate)] += 1
        with_primitives(built, n, rows)
    assert_matches_oracle(built)


def test_certificate_on_a_wrong_primitive():
    # (1, 0) is not orthogonal to the two-dots row (2, 1), though both ranks come out full
    st = build_pairing(2)
    with_primitives(st, 2, [[1, 0]])
    assert not _certified(st, 2)
    assert verify_hopf_pairing(st).passed
    check = check_primitive_orthogonality(st, 2)
    assert (check.orthogonal_dim, check.primitive_dim, check.passed) == (1, 1, False)
    assert_matches_oracle(st)


def test_certificate_on_another_basis_of_the_primitives():
    # the certificate still proves nondegeneracy, but the kernel's canonical basis is not P
    st = build_pairing(4)
    rows = st.structure.primitives(4).basis.to_rows()
    rows[0] = [x + y for x, y in zip(rows[0], rows[1])]
    with_primitives(st, 4, rows)
    assert _certified(st, 4)
    assert verify_hopf_pairing(st).passed
    check = check_primitive_orthogonality(st, 4)
    assert (check.orthogonal_dim, check.primitive_dim, check.passed) == (5, 5, False)
    assert_matches_oracle(st)


def test_certificate_verdict_follows_a_replaced_gram():
    st = build_pairing(3)
    assert verify_hopf_pairing(st).passed
    assert check_primitive_orthogonality(st, 3).passed
    st.gram[3] = RationalMatrix(5, 5, (0,) * 25)
    by_name = {c.name: c for c in verify_hopf_pairing(st).checks}
    assert by_name["nondegeneracy"].counterexample == {"degree": 3, "det": "0"}
    assert check_primitive_orthogonality(st, 3).to_json() == oracle_orthogonality(st, 3).to_json()
    assert not check_primitive_orthogonality(st, 3).passed
    st.gram[3] = build_pairing(3).gram[3]
    assert verify_hopf_pairing(st).passed
    assert check_primitive_orthogonality(st, 3).passed


def test_each_certificate_is_computed_once_per_gram_and_primitives(monkeypatch):
    ranks = []

    def counted(rows):
        ranks.append(1)
        return rank_mod_p(rows)

    monkeypatch.setattr(pairing, "rank_mod_p", counted)
    st = build_pairing(6)
    # the build ranks each degree's base form once
    assert len(ranks) == 6
    ranks.clear()
    # verify and the orthogonality checks share one certificate per degree: two ranks each
    assert verify_hopf_pairing(st).passed
    assert all(check_primitive_orthogonality(st, n).passed for n in range(1, 7))
    assert len(ranks) == 12
    assert verify_hopf_pairing(st).passed
    assert len(ranks) == 12
    built = st.gram[3]
    st.gram[3] = RationalMatrix(5, 5, (0,) * 25)
    by_name = {c.name: c for c in verify_hopf_pairing(st).checks}
    assert by_name["nondegeneracy"].counterexample == {"degree": 3, "det": "0"}
    assert len(ranks) == 13
    st.gram[3] = built
    assert verify_hopf_pairing(st).passed
    assert len(ranks) == 13
    rows = st.structure.primitives(4).basis.to_rows()
    rows[0] = [x + y for x, y in zip(rows[0], rows[1])]
    with_primitives(st, 4, rows)
    assert verify_hopf_pairing(st).passed
    assert len(ranks) == 15
    assert_matches_oracle(st)


# ---------------------------------------------------------------------------
# the block contraction against the per-entry scan it replaced


def _pair_terms(
    terms: Sequence[tuple[int, int, int]], left_row: Sequence[int], right_row: Sequence[int]
) -> int:
    """Sum of c * left_row[a] * right_row[b] over reduced-table terms (a, b, c)."""
    return sum(c * left_row[a] * right_row[b] for a, b, c in terms)


def oracle_forced_products(state: PairingState, n: int) -> RationalMatrix:
    """The forced rows at the multi-tree forests, one generator sum per entry."""
    alg = state.structure.algebra
    table = alg.reduced_table(n)
    rows = []
    for i, a, b in alg.first_trees(n):
        if i == n:
            continue
        left, right = state.gram[i], state.gram[n - i]
        lrow, rrow = left.int_row(a), right.int_row(b)
        values = tuple(_pair_terms(column.get(i, ()), lrow, rrow) for column in table)
        rows.append(RationalMatrix(1, len(table), values, left.den * right.den))
    return stack_rows(rows, cols=len(table))


def oracle_multiplicativity(state: PairingState) -> Optional[dict]:
    """First failing triple, scanned by degree, left degree, z, x, y and side, one sum each."""
    alg = state.structure.algebra
    lower = {n: state.gram[n] for n in range(1, state.max_degree)}
    views = {n: (g.int_rows(), g.transpose().int_rows()) for n, g in lower.items()}
    for k in range(2, state.max_degree + 1):
        gk, table = state.gram[k], alg.reduced_table(k)
        cols = gk.cols
        for i in range(1, k):
            scale = lower[i].den * lower[k - i].den
            xs, ys = alg.basis(i), alg.basis(k - i)
            products = alg.products(i, k - i)
            for iz, z in enumerate(alg.basis(k)):
                terms = table[iz].get(i, ())
                for ix, x in enumerate(xs):
                    for iy, y in enumerate(ys):
                        for side, identity in enumerate(("product-left", "product-right")):
                            want = _pair_terms(terms, views[i][side][ix], views[k - i][side][iy])
                            ixy = products[ix][iy]
                            got = gk.num[ixy * cols + iz] if side == 0 else gk.num[iz * cols + ixy]
                            if got * scale != want * gk.den:
                                return {
                                    "identity": identity,
                                    "x": x.encode(),
                                    "y": y.encode(),
                                    "z": z.encode(),
                                    "got": str(Fraction(got, gk.den)),
                                    "want": str(Fraction(want, scale)),
                                }
    return None


@pytest.mark.parametrize(
    "letters, top", [((("a", 1),), 6), ((("a", 1), ("b", 2)), 5)], ids=["a1-d6", "a1b2-d5"]
)
def test_forced_products_match_per_entry_oracle(letters, top):
    built = build_pairing(top, structure=HopfStructure(ForestAlgebra(DecorationSet(letters))))
    assert _check_multiplicativity(built) is None
    assert oracle_multiplicativity(built) is None
    for n in range(1, top + 1):
        assert _forced_products(built, n) == oracle_forced_products(built, n)


def test_forced_products_read_the_tree_rows_over_their_own_denominator(state):
    # the lower Grams' multi-tree rows over 3, their tree rows over 1: only the tree rows
    # lead a forest, and over their own denominator their numerators change by 3
    gram = dict(state.gram)
    for i in range(1, TOP):
        trees, _ = state.structure.coordinates(i)
        dim = gram[i].cols
        gram[i] = RationalMatrix.from_rows(
            [
                [Fraction(r * dim + c + 1, 1 if r in trees else 3) for c in range(dim)]
                for r in range(dim)
            ]
        )
    faulty = PairingState(state.structure, state.max_degree, dict(state.base_form), gram)
    assert any(gram[i].den == 3 for i in range(1, TOP))
    for n in range(2, TOP + 1):
        assert _forced_products(faulty, n) == oracle_forced_products(faulty, n)


@pytest.mark.parametrize("entries", [1, 2])
@settings(deadline=None, max_examples=60)
@given(data=strategies.data())
def test_multiplicativity_matches_per_entry_oracle_under_a_fault(state, entries, data):
    # entries of one Gram move: a lower Gram turns asymmetric, so the two sides differ, and
    # with two faults the scan order decides which triple is reported
    n = data.draw(strategies.integers(1, TOP), label="degree")
    g = state.gram[n]
    coordinate = strategies.integers(0, g.cols - 1)
    rows = g.to_rows()
    for _ in range(entries):
        i, j, delta = data.draw(strategies.tuples(coordinate, coordinate, RATIONALS.filter(bool)))
        rows[i][j] += delta
    gram = {**state.gram, n: RationalMatrix.from_rows(rows)}
    faulty = PairingState(state.structure, state.max_degree, dict(state.base_form), gram)
    assert _check_multiplicativity(faulty) == oracle_multiplicativity(faulty)


@pytest.mark.parametrize(
    "upper, identity", [(True, "product-right"), (False, "product-left")], ids=["upper", "lower"]
)
def test_multiplicativity_mirror_runs_on_an_asymmetric_lower_gram(upper, identity):
    # one tree x tree entry of the degree-3 Gram moves: no product reads it at degree 3, and
    # the top Gram stays as built, so degree 4 fails; above the diagonal the least failing
    # triple is one only the transposed pass sees
    st = build_pairing(4)
    first, second = st.structure.coordinates(3)[0]
    rows = st.gram[3].to_rows()
    rows[first if upper else second][second if upper else first] += 1
    st.gram[3] = RationalMatrix.from_rows(rows)
    assert st.gram[4].is_symmetric() and not st.gram[3].is_symmetric()
    got = _check_multiplicativity(st)
    assert got == oracle_multiplicativity(st)
    assert got["identity"] == identity


def test_multiplicativity_reports_the_first_triple_by_z_before_x():
    # two faults at degree 4 fail in one block, and the scan by z, then x, then y picks this
    # triple; a scan by x first picks another
    st = build_pairing(4)
    rows = st.gram[4].to_rows()
    rows[5][5] += 1
    rows[12][6] += 1
    st.gram[4] = RationalMatrix.from_rows(rows)
    want = {
        "identity": "product-left",
        "x": "a[a[a[]]]",
        "y": "a[]",
        "z": "a[a[] a[]] a[]",
        "got": "7/3",
        "want": "4/3",
    }
    assert oracle_multiplicativity(st) == want
    assert _check_multiplicativity(st) == want
