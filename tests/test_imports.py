"""The package's public names: the series, tree, matrix and pairing ones resolve on first use."""

from __future__ import annotations

import importlib
import types

import pytest

import hopfcalc

EAGER = dict.fromkeys(("CATALOG", "AlgebraCatalogEntry", "entry_by_name", "render_table"), "catalog")


def home(name: str) -> types.ModuleType:
    """The submodule that defines the public ``name``."""
    return importlib.import_module(f"hopfcalc.{hopfcalc._LAZY.get(name) or EAGER[name]}")


def test_dir_covers_all():
    assert set(hopfcalc.__all__) <= set(dir(hopfcalc))
    # every public name but the catalog's loads on first use
    assert set(hopfcalc._LAZY) == set(hopfcalc.__all__) - set(EAGER)


def test_public_names_are_their_submodules_objects():
    for name in hopfcalc.__all__:
        assert getattr(hopfcalc, name) is getattr(home(name), name), name
        assert name in vars(hopfcalc), name


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from hopfcalc import *", namespace)
    assert {name: namespace[name] for name in hopfcalc.__all__} == {
        name: getattr(hopfcalc, name) for name in hopfcalc.__all__
    }


@pytest.mark.parametrize("name", ["linalg", "pairing", "series", "structure", "trees"])
def test_submodules_resolve(name):
    module = getattr(hopfcalc, name)
    assert isinstance(module, types.ModuleType)
    assert module is importlib.import_module(f"hopfcalc.{name}")


def test_unknown_names_fail():
    assert not hasattr(hopfcalc, "nope")
    with pytest.raises(ImportError):
        from hopfcalc import nope  # noqa: F401
