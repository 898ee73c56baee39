"""The package's public surface, the imports of every module, and the
names of the test modules.

egsplines.__all__ is the contract: the paper's computations (the key
element and its parts, certification, expression in a basis, flow-up
bases and their check) and ring construction, parsing and formatting.
The references that the tests compare against live in tests/refs.py, not
in the package.  Every package and test module uses each name it imports,
checked on the syntax tree, since no linter runs with the tests.  No test
module shares its name with a bench module: the bench smoke test puts
bench/ on sys.path, and a test module of the same name imported first
would stand in for the bench's.
"""

import ast
from pathlib import Path

import egsplines
from egsplines import oracle, pid, rings

SURFACE = [
    "BasisCertificate",
    "FlowUpClass",
    "LabeledGraph",
    "NotInSpanError",
    "QQ",
    "RingDescriptor",
    "RingElement",
    "Spline",
    "SplineMatrix",
    "TriangularBasis",
    "Verdict",
    "ZZ",
    "certify_basis",
    "classical_qg",
    "coprime_witness_matrices",
    "express_in_basis",
    "flow_up_basis",
    "format_element",
    "h_factor",
    "is_spline",
    "key_element",
    "parse_element",
    "polynomial_ring",
    "qhat",
    "qhat_components",
    "spline_determinant",
    "verify_flow_up",
]

# test-only references: tests/refs.py holds them, the package must not
TEST_ONLY = [
    "Congruence",
    "IncompatibleCongruencesError",
    "Trail",
    "_require_euclidean",
    "crt",
    "hermite_form",
    "trails_between",
]

PACKAGE = Path(egsplines.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def test_all_is_the_chosen_surface():
    assert sorted(egsplines.__all__) == SURFACE
    for name in SURFACE:
        assert getattr(egsplines, name) is not None, name
    namespace = {}
    exec("from egsplines import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(SURFACE)
    for module in (rings, pid, oracle):
        assert [name for name in TEST_ONLY if hasattr(module, name)] == [], module.__name__


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
    package = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert len(package) >= 7 and len(tests) >= 15
    unused = {}
    for path in package + tests:
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if found:
            unused[f"{path.parent.name}/{path.name}"] = found
    assert unused == {}


def test_unused_import_is_found():
    tree = ast.parse("import math\nfrom typing import List, Optional\nx: List = math.pi\n")
    assert _unused_imports(tree) == [(2, "Optional")]


def test_no_test_module_shadows_a_bench_module():
    bench = {p.stem for p in BENCH.glob("*.py")}
    assert len(bench) >= 6
    assert sorted(p.stem for p in TESTS.glob("*.py") if p.stem in bench) == []
