"""Exact calculus for graded connected free-and-cofree Hopf algebras.

Series conversions between dimension, primitive, generator, and decoration
counts; the Hopf algebra of decorated planar rooted forests with its cut
coproduct; degree-by-degree structure analysis; and the inductive
construction of a symmetric nondegenerate self-duality pairing.

The catalog names load with the package; its rows are data.  The series,
tree, matrix and pairing layers load on first use of one of their names
(PEP 562), so the series commands never import the tree layers, and the
pairing commands never import the series layer.
"""

from importlib import import_module

from .catalog import CATALOG, AlgebraCatalogEntry, entry_by_name, render_table

__version__ = "0.1.0"

# public name -> the submodule that defines it, imported on first use
_LAZY = {
    name: module
    for module, names in {
        "linalg": "RationalMatrix Subspace kernel_basis",
        "pairing": "AdaptedBasis DegenerateBaseForm PairingReport PairingState adapt_complement"
        " build_pairing check_primitive_orthogonality verify_hopf_pairing",
        "series": "GateVerdict NonIntegerExponent SeriesProfile convert d_from_r gate_free_cofree"
        " gate_nck p_from_r p_from_s r_from_d r_from_p r_from_s s_from_p s_from_r series_from_json"
        " series_to_json",
        "structure": "DegreeDecomposition HopfStructure",
        "trees": "DecorationSet DegreeZeroInput Forest ForestAlgebra Tree parse_forest parse_tree",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name in _LAZY.values():
        # importing a submodule binds it as an attribute of the package
        return import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})


__all__ = [
    "AdaptedBasis",
    "AlgebraCatalogEntry",
    "CATALOG",
    "DecorationSet",
    "DegenerateBaseForm",
    "DegreeDecomposition",
    "DegreeZeroInput",
    "Forest",
    "ForestAlgebra",
    "GateVerdict",
    "HopfStructure",
    "NonIntegerExponent",
    "PairingReport",
    "PairingState",
    "RationalMatrix",
    "SeriesProfile",
    "Subspace",
    "Tree",
    "adapt_complement",
    "build_pairing",
    "check_primitive_orthogonality",
    "convert",
    "d_from_r",
    "entry_by_name",
    "gate_free_cofree",
    "gate_nck",
    "kernel_basis",
    "p_from_r",
    "p_from_s",
    "parse_forest",
    "parse_tree",
    "r_from_d",
    "r_from_p",
    "r_from_s",
    "render_table",
    "s_from_p",
    "s_from_r",
    "series_from_json",
    "series_to_json",
    "verify_hopf_pairing",
]
