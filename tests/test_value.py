"""Value semantics of the package's records: equality, hashing, read-only fields, repr."""

from __future__ import annotations

import copy
import types
from fractions import Fraction

import pytest

from hopfcalc.catalog import AlgebraCatalogEntry
from hopfcalc.linalg import AmbientMismatch, RationalMatrix, Subspace
from hopfcalc.pairing import AdaptedBasis, OrthogonalityCheck, PairingCheck, PairingReport, PairingState
from hopfcalc.series import GateVerdict, SeriesProfile
from hopfcalc.structure import DegreeDecomposition, HopfStructure
from hopfcalc.trees import DecorationSet, Forest, Tree

ONE = RationalMatrix.identity(1)
LINE, ZERO = Subspace(1, ONE), Subspace(1, RationalMatrix(0, 1, ()))

# class, keyword arguments (defaulted fields left out), one changed field,
# and arguments that the constructor must reject, with the exception
CASES = [
    (
        SeriesProfile,
        {"kind": "R", "order": 2, "coeffs": (1, 2)},
        ("coeffs", (1, 3)),
        ({"kind": "X", "order": 1, "coeffs": (1,)}, ValueError),
    ),
    (GateVerdict, {"passed": True}, ("first_failure", 3), None),
    (AlgebraCatalogEntry, {"name": "X", "r_coeffs": (1, 2), "source": "s"}, ("source", "t"), None),
    (
        RationalMatrix,
        {"rows": 1, "cols": 2, "num": (1, 2)},
        ("num", (1, 3)),
        ({"rows": 1, "cols": 1, "num": (1.5,)}, ValueError),
    ),
    (
        Subspace,
        {"ambient_dim": 1, "basis": ONE},
        ("basis", RationalMatrix(0, 1, ())),
        ({"ambient_dim": 2}, AmbientMismatch),
    ),
    (DecorationSet, {"entries": (("a", 1),)}, ("entries", (("b", 1),)), ({"entries": ()}, ValueError)),
    (Tree, {"decoration": "a"}, ("children", (Tree("a"),)), None),
    (Forest, {}, ("trees", (Tree("a"),)), None),
    (
        DegreeDecomposition,
        {
            "degree": 1,
            "primitives": LINE,
            "decomposables": (),
            "core": ZERO,
            "decomposable_complement": (),
            "primitive_generators": LINE,
            "residual": (),
        },
        ("degree", 2),
        None,
    ),
    (
        PairingState,
        {"structure": HopfStructure(), "max_degree": 0, "base_form": {}, "gram": {0: ONE}},
        ("gram", {0: RationalMatrix(1, 1, (0,))}),
        None,
    ),
    (PairingCheck, {"name": "symmetry", "passed": True}, ("counterexample", {"degree": 1}), None),
    (PairingReport, {"max_degree": 1, "checks": (PairingCheck("symmetry", True),)}, ("max_degree", 2), None),
    (
        OrthogonalityCheck,
        {"degree": 1, "orthogonal_dim": 1, "primitive_dim": 1, "passed": True},
        ("passed", False),
        None,
    ),
    (
        AdaptedBasis,
        {
            "degree": 1,
            "core_rows": RationalMatrix(0, 1, ()),
            "decomposable_complement_rows": RationalMatrix(0, 1, ()),
            "primitive_generator_rows": ONE,
            "residual_rows": RationalMatrix(0, 1, ()),
            "block_gram": ONE,
        },
        ("degree", 2),
        None,
    ),
]


@pytest.mark.parametrize("cls, kwargs, change, bad", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, kwargs, change, bad):
    value = cls(**kwargs)
    # each field is declared once, by its annotation; a default does not hide the slot
    assert cls.__slots__ == tuple(n for n in cls.__annotations__ if not n.startswith("_"))
    assert all(isinstance(vars(cls)[n], types.MemberDescriptorType) for n in cls.__slots__)
    assert not hasattr(value, "__dict__")
    for missing in kwargs:
        with pytest.raises(TypeError, match=f"'{missing}'"):
            cls(**{n: v for n, v in kwargs.items() if n != missing})
    with pytest.raises(TypeError, match="'unknown'"):
        cls(**kwargs, unknown=1)
    fields = tuple(getattr(value, name) for name in cls.__slots__)
    # positional construction with every field gives the same value as the defaults
    same = cls(*fields)
    assert same == value and not same != value
    assert copy.copy(value) == value
    name, new = change
    assert cls(**{**kwargs, name: new}) != value
    assert value != fields
    shown = ", ".join(f"{n}={getattr(value, n)!r}" for n in cls.__slots__)
    assert repr(value) == f"{cls.__name__}({shown})"
    if cls is PairingState:
        # its fields are dicts
        with pytest.raises(TypeError):
            hash(value)
        with pytest.raises(TypeError, match="'certificates'"):
            cls(**kwargs, certificates={})
    else:
        assert hash(same) == hash(value)
    with pytest.raises(AttributeError):
        setattr(value, name, new)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == getattr(same, name)
    if bad is not None:
        overrides, error = bad
        with pytest.raises(error):
            cls(**{**kwargs, **overrides})
