"""Public names: every module's __all__ resolves, and the library layers
are re-exported at the package root."""

import importlib

import pytest

import weylgeom

LIBRARY = ("tensor_core", "curvature_algebra", "spectral", "chart_geometry", "models", "classifier")


@pytest.mark.parametrize("short", LIBRARY + ("cli",))
def test_every_public_name_resolves(short):
    mod = importlib.import_module(f"weylgeom.{short}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("short", LIBRARY)
def test_library_names_are_re_exported(short):
    mod = importlib.import_module(f"weylgeom.{short}")
    for name in mod.__all__:
        assert name in weylgeom.__all__, name
        assert getattr(weylgeom, name) is getattr(mod, name), name


def test_root_names_come_from_the_library():
    modules = [importlib.import_module(f"weylgeom.{short}") for short in LIBRARY]
    names = {name for mod in modules for name in mod.__all__}
    assert set(weylgeom.__all__) - names == {"__version__"}
