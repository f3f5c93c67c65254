"""The package imports nothing outside the Python standard library, and the
tests nothing outside it but desknum, pytest, hypothesis and their own
pins and oracles modules."""

import ast
import pathlib
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "desknum"
MODULES = sorted(SRC.glob("*.py"))
TEST_FILES = sorted(TESTS.glob("*.py"))
TEST_IMPORTS = frozenset({"desknum", "pytest", "hypothesis", "pins", "oracles"})


def absolute_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_modules_found():
    assert len(MODULES) >= 12


def outside_stdlib(path, allowed=frozenset()):
    return [name for name in absolute_imports(path) if name.split(".")[0] not in sys.stdlib_module_names | allowed]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_stdlib_imports(path):
    outside = outside_stdlib(path)
    assert outside == [], f"{path.name} imports {outside}"


def test_test_files_found():
    assert {"oracles.py", "pins.py", "test_pins.py", "test_stdlib_only.py"} <= {p.name for p in TEST_FILES}


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_tests_import_only_the_allowed_modules(path):
    # the oracles judge desknum, so they import neither it nor a test runner
    outside = outside_stdlib(path, frozenset() if path.name == "oracles.py" else TEST_IMPORTS)
    assert outside == [], f"{path.name} imports {outside}"


def fsum_sites(path):
    """(enclosing function, line) of every name, attribute or import `fsum`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name == "fsum" and isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
            sites.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fsum_is_called_only_inside_the_gate(path):
    # every compensated sum goes through ndcore._fsum or ndcore._fsums,
    # which turn its overflow into NonFinite
    allowed = {"_fsum", "_fsums"} if path.name == "ndcore.py" else set()
    outside = [(func, line) for func, line in fsum_sites(path) if func not in allowed]
    assert outside == [], f"{path.name} names fsum outside the gate at {outside}"
    if path.name == "ndcore.py":
        assert {func for func, _ in fsum_sites(path)} == allowed
