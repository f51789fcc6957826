"""The threshold table: every entry pinned, and no threshold outside it."""

import ast
import re
import tokenize
from pathlib import Path

import weylgeom
from weylgeom import classifier, cli, tiers

SRC = Path(weylgeom.__file__).parent

# Every entry of the table with its value; a changed tier shows up here.
PINNED = {
    "SPEC_ALGEBRAIC": 1e-6,
    "SPEC_CHART": 1e-4,
    "FLAT_ALGEBRAIC": 1e-9,
    "FLAT_CHART": 1e-5,
    "EQ2A_ALGEBRAIC": 1e-8,
    "EQ2A_CHART": 1e-4,
    "RECON_ALGEBRAIC": 1e-8,
    "RECON_CHART": 1e-6,
    "CLUSTER": 1e-3,
    "NEAR_DEGENERATE": 0.5,
    "PIVOT_TIE": 1e-8,
    "VERIFY_BIANCHI_ANALYTIC": 1e-7,
    "VERIFY_BIANCHI_FD": 1e-4,
    "VERIFY_TRACE_ALGEBRAIC": 1e-9,
    "VERIFY_TRACE_CHART": 1e-5,
    "VERIFY_CONFORMAL": 1e-5,
    "VERIFY_KAHLER": 1e-3,
    "VERIFY_SYMMETRY": 1e-10,
    "VERIFY_RECONSTRUCTION": 1e-10,
    "MAX_DIMENSION": 32,
    "MAX_SAMPLES": 2**16,
    "INNER_PRODUCT_SYMMETRY": 1e-10,
    "CHART_METRIC_SYMMETRY": 1e-9,
    "EUCLIDEAN_FRAME": 1e-12,
    "SPECTRAL_FRAME": 1e-10,
    "HERMITIAN_INVARIANTS": 1e-10,
    "UNIT_DIRECTION": 1e-8,
    "JACOBI_SELF_ADJOINT": 1e-8,
    "DIRECTION_NORM_FLOOR": 1e-8,
    "GENERATOR_ADJOINT": 1e-8,
    "RICCI_CONTRACTION_SYMMETRY": 1e-6,
    "RICCI_FORM_SYMMETRY": 1e-8,
}

# Float literals in exponent form that are not thresholds, by file and
# source line.
ALLOWED = {
    ("chart_geometry.py", "DEFAULT_FD_STEP = 1e-4"),
}


def test_every_entry_is_pinned():
    table = {name: value for name, value in vars(tiers).items() if not name.startswith("_")}
    assert table == PINNED
    # Every threshold is a float but the dimension and sample guards, counts.
    counts = {name: type(value) for name, value in table.items() if type(value) is not float}
    assert counts == {"MAX_DIMENSION": int, "MAX_SAMPLES": int}


def _exponent_literals(path: Path):
    with path.open() as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NUMBER and re.search(r"\de-\d", tok.string, re.IGNORECASE):
                yield tok.start[0], tok.line.strip()


def test_no_threshold_literal_outside_the_table():
    found = [
        (path.name, lineno, line)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tiers.py"
        for lineno, line in _exponent_literals(path)
        if (path.name, line) not in ALLOWED
    ]
    assert found == []


def test_scan_sees_the_allowed_literal():
    # Guards the scan itself: it must find the one allowed literal.
    found = [line for _, line in _exponent_literals(SRC / "chart_geometry.py")]
    assert found == ["DEFAULT_FD_STEP = 1e-4"]


def test_table_is_a_leaf():
    # tensor_core, at the bottom of the import chain, reads the table.
    tree = ast.parse((SRC / "tiers.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_configs_read_the_table():
    for tol, tier in (
        (classifier.ToleranceConfig.algebraic(), "ALGEBRAIC"),
        (classifier.ToleranceConfig.chart(), "CHART"),
    ):
        assert (tol.spec_tol, tol.flat_tol, tol.eq2a_tol, tol.recon_tol) == tuple(
            getattr(tiers, f"{gate}_{tier}") for gate in ("SPEC", "FLAT", "EQ2A", "RECON")
        )
        assert tol.cluster_tol == tiers.CLUSTER
    assert cli.AnalysisConfig().cluster_tol == tiers.CLUSTER


def test_every_entry_is_read():
    # A threshold no module reads is dead; removing its last reader must
    # remove the entry too.  A mention in a docstring is not a read.
    read = {
        node.attr
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tiers.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "tiers"
    }
    table = {name for name in vars(tiers) if not name.startswith("_")}
    assert sorted(table - read) == []
