"""The package's public surface and the imports of its modules.

egsplines.__all__ is the contract: the paper's computations (the key
element and its parts, certification, expression in a basis, flow-up
bases and their check), the brute-force references they are tested
against, and ring construction, parsing and formatting.  Every module
uses each name it imports, checked on the syntax tree, since no linter
runs with the tests.
"""

import ast
from pathlib import Path

import egsplines

SURFACE = [
    "BasisCertificate",
    "Congruence",
    "FlowUpClass",
    "LabeledGraph",
    "NotInSpanError",
    "QQ",
    "RingDescriptor",
    "RingElement",
    "Spline",
    "SplineMatrix",
    "Trail",
    "TriangularBasis",
    "Verdict",
    "ZZ",
    "certify_basis",
    "classical_qg",
    "coprime_witness_matrices",
    "crt",
    "express_in_basis",
    "flow_up_basis",
    "format_element",
    "h_factor",
    "hermite_form",
    "is_spline",
    "key_element",
    "parse_element",
    "polynomial_ring",
    "qhat",
    "qhat_components",
    "spline_determinant",
    "trails_between",
    "verify_flow_up",
]

PACKAGE = Path(egsplines.__file__).resolve().parent


def test_all_is_the_chosen_surface():
    assert sorted(egsplines.__all__) == SURFACE
    for name in SURFACE:
        assert getattr(egsplines, name) is not None, name
    namespace = {}
    exec("from egsplines import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(SURFACE)


def _unused_imports(tree):
    """The names an import binds in tree that no other node reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_import_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    unused = {}
    for path in modules:
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if found:
            unused[path.name] = found
    assert unused == {}


def test_unused_import_is_found():
    tree = ast.parse("import math\nfrom typing import List, Optional\nx: List = math.pi\n")
    assert _unused_imports(tree) == [(2, "Optional")]
