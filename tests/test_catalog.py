from __future__ import annotations

from pathlib import Path

import pytest

from hopfcalc.catalog import (
    CATALOG,
    TABLE_ORDER,
    _ints,
    entry_by_name,
    render_table,
)
from hopfcalc.pairing import build_pairing, check_primitive_orthogonality, verify_hopf_pairing
from hopfcalc.series import SeriesProfile, gate_free_cofree, gate_nck, p_from_r, r_from_s
from hopfcalc.structure import HopfStructure
from hopfcalc.trees import DecorationSet, ForestAlgebra

S_TABLE = {
    "H_NCK": (1, 1, 1, 3, 7, 24, 72, 242),
    "2-As(1)": (1, 1, 2, 8, 31, 141, 642, 3070),
    "FQSym": (1, 1, 2, 10, 55, 377, 2892, 25007),
    "NCQSym": (1, 2, 6, 39, 305, 2900, 31460, 385080),
    "PQSym": (1, 2, 9, 80, 901, 12564, 206476, 3918025),
    "H_UBP": (1, 2, 9, 86, 1083, 17621, 353420, 8553300),
    "H_DP": (1, 2, 12, 165, 3545, 116621, 5722481, 412795614),
    "RPi": (1, 3, 26, 467, 12518, 471215, 23728881, 1545184651),
}

D_TABLE = {
    "H_NCK": (1, 0, 0, 0, 0, 0, 0, 0),
    "2-As(1)": (1, 0, 1, 4, 17, 76, 353, 1688),
    "FQSym": (1, 0, 1, 6, 39, 284, 2305, 20682),
    "NCQSym": (1, 1, 4, 28, 240, 2384, 26832, 337168),
    "PQSym": (1, 1, 7, 66, 786, 11278, 189391, 3648711),
    "H_UBP": (1, 1, 7, 72, 962, 16135, 330624, 8117752),
    "H_DP": (1, 1, 10, 148, 3336, 112376, 5591196, 406621996),
    "RPi": (1, 2, 23, 432, 11929, 456094, 23186987, 1518898380),
}

R_CLOSED = {
    "H_NCK": (1, 2, 5, 14, 42, 132, 429, 1430),
    "FQSym": (1, 2, 6, 24, 120, 720, 5040, 40320),
    "NCQSym": (1, 3, 13, 75, 541, 4683, 47293, 545835),
    "PQSym": (1, 3, 16, 125, 1296, 16807, 262144, 4782969),
    "RPi": (1, 4, 36, 576, 14400, 518400, 25401600, 1625702400),
}

R_RECONSTRUCTED = {
    "2-As(1)": (1, 2, 6, 22, 90, 394, 1806, 8558),
    "H_UBP": (1, 3, 16, 131, 1496, 22482, 426833, 9934563),
    "H_DP": (1, 3, 19, 219, 4231, 130023, 6129859, 431723379),
}


def test_catalog_names_and_order():
    assert [e.name for e in CATALOG] == [
        "H_NCK",
        "2-As(1)",
        "FQSym",
        "NCQSym",
        "PQSym",
        "H_UBP",
        "H_DP",
        "RPi",
    ]


def test_closed_form_r_rows():
    for name, row in R_CLOSED.items():
        entry = entry_by_name(name)
        assert entry.r_coeffs == row
        assert "closed form" in entry.source


def test_reconstructed_r_rows():
    for name, row in R_RECONSTRUCTED.items():
        entry = entry_by_name(name)
        assert entry.r_coeffs == row
        assert "reconstructed" in entry.source


def test_reconstructed_r_rows_round_trip_their_generator_rows():
    # the stored rows are data: each is the series inverse of its entry's generator row
    for name in R_RECONSTRUCTED:
        entry = entry_by_name(name)
        assert _ints(r_from_s(SeriesProfile.make("S", S_TABLE[name]))) == entry.r_coeffs
        assert entry.s_row() == S_TABLE[name]


def test_s_rows_frozen():
    for entry in CATALOG:
        assert entry.s_row() == S_TABLE[entry.name], entry.name


def test_d_rows_frozen():
    for entry in CATALOG:
        assert entry.d_row() == D_TABLE[entry.name], entry.name


def test_all_entries_pass_both_gates():
    for entry in CATALOG:
        assert gate_free_cofree(entry.r_series()).passed, entry.name
        assert gate_nck(entry.r_series()).passed, entry.name


def golden_table(which: str) -> str:
    """Text of the reference CSV for the s or d table."""
    return (Path(__file__).parent / "data" / f"{which}_table.csv").read_text(encoding="ascii")


def test_render_matches_golden_byte_exact():
    for which in ("s", "d"):
        assert render_table(which) + "\n" == golden_table(which)


def test_render_table_shape():
    text = render_table("s", max_n=3)
    lines = text.split("\n")
    assert lines[0] == "name,n1,n2,n3"
    assert lines[1] == "H_NCK,1,1,1"
    assert len(lines) == 1 + len(CATALOG)
    assert render_table("d").split("\n")[8] == "RPi,1,2,23,432,11929,456094,23186987,1518898380"


def test_render_table_validation():
    with pytest.raises(ValueError):
        render_table("x")
    with pytest.raises(ValueError):
        render_table("s", max_n=0)
    with pytest.raises(ValueError):
        render_table("s", max_n=TABLE_ORDER + 1)
    with pytest.raises(KeyError):
        entry_by_name("nope")


def test_ints_rejects_non_integral_series():
    assert _ints(SeriesProfile.make("S", [1, 2])) == (1, 2)
    with pytest.raises(ValueError, match="coefficient 2"):
        _ints(SeriesProfile.make("S", [1, "1/2"]))


@pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
def test_entry_realized_as_a_tree_algebra(entry):
    # by R = 1 + D R^2 the tree algebra with d_n letters of degree n has the entry's dimensions;
    # the series give the expected counts, and the kernel and decomposition the counted ones
    top = max(n for n, r in enumerate(entry.r_coeffs, 1) if r <= 150)
    letters = [(f"x{n}_{k}", n) for n, d in enumerate(entry.d_row()[:top], 1) for k in range(d)]
    structure = HopfStructure(ForestAlgebra(DecorationSet(letters)))
    assert [structure.algebra.dim(n) for n in range(1, top + 1)] == list(entry.r_coeffs[:top])
    p = p_from_r(entry.r_series())
    for n in range(1, top + 1):
        split = structure.decomposition(n)
        assert split.primitives.dim == p.coeff(n), n
        assert split.primitive_generators.dim == entry.s_row()[n - 1], n
    # the paper's self-duality: the pairing is a nondegenerate Hopf pairing with the base form
    state = build_pairing(top, structure=structure)
    assert verify_hopf_pairing(state).passed
    for n in range(1, top + 1):
        assert check_primitive_orthogonality(state, n).passed, n
        assert state.generator_block(n) == state.base_form[n], n
