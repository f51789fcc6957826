"""Public names: every module's __all__ resolves, the library layers
are re-exported at the package root, and no module imports another's
private name."""

import ast
import importlib
import inspect
from pathlib import Path

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


def test_root_names_are_unique():
    assert len(weylgeom.__all__) == len(set(weylgeom.__all__))


@pytest.mark.parametrize("path", sorted(Path(weylgeom.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    # Relative imports, and absolute ones of the package, by their name.
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "weylgeom")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


# Public functions that no module of the package calls: the library's own
# entry points.  The list is exact, so a name that gains a caller leaves it.
ENTRY_POINTS = {
    "classify_act",
    "classify_chart",
    "recover_phi",
    "second_bianchi_residual",
    "christoffel",
    "unit_directions",
}


def _references(tree: ast.AST) -> set[str]:
    """Names read as an ast.Name or ast.Attribute, each outside any def of
    that same name, so a recursive call is not a caller."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        if isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_function_has_a_caller():
    # The __all__ counterpart of test_tiers.test_every_entry_is_read: an
    # import or a docstring mention is not a caller.
    src = Path(weylgeom.__file__).parent
    called = set().union(*(_references(ast.parse(p.read_text())) for p in src.glob("*.py")))
    uncalled = {
        name
        for short in LIBRARY
        for name in importlib.import_module(f"weylgeom.{short}").__all__
        if inspect.isfunction(getattr(weylgeom, name)) and name not in called
    }
    assert sorted(uncalled) == sorted(ENTRY_POINTS)
