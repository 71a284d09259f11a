"""Exact calculus for graded connected free-and-cofree Hopf algebras.

Series conversions between dimension, primitive, generator, and decoration
counts; the Hopf algebra of decorated planar rooted forests with its cut
coproduct; degree-by-degree structure analysis; and the inductive
construction of a symmetric nondegenerate self-duality pairing.
"""

from .catalog import CATALOG, AlgebraCatalogEntry, entry_by_name, render_table
from .linalg import RationalMatrix, Subspace, kernel_basis
from .pairing import (
    AdaptedBasis,
    DegenerateBaseForm,
    PairingReport,
    PairingState,
    adapt_complement,
    build_pairing,
    check_primitive_orthogonality,
    verify_hopf_pairing,
)
from .series import (
    GateVerdict,
    NonIntegerExponent,
    SeriesProfile,
    convert,
    d_from_r,
    gate_free_cofree,
    gate_nck,
    p_from_r,
    p_from_s,
    r_from_d,
    r_from_p,
    r_from_s,
    s_from_p,
    s_from_r,
    series_from_json,
    series_to_json,
)
from .structure import DegreeDecomposition, HopfStructure
from .trees import (
    DecorationSet,
    DegreeZeroInput,
    Forest,
    ForestAlgebra,
    Tree,
    parse_forest,
    parse_tree,
)

__version__ = "0.1.0"

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
