"""The package imports nothing outside the Python standard library."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "desknum"
MODULES = sorted(SRC.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_stdlib_imports(path):
    outside = [
        name
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == [], f"{path.name} imports {outside}"
