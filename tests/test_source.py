"""Checks on the package source itself.

Integrity checks must raise typed ``MoltenDTError``s: ``python -O``
strips ``assert`` statements, so an assert in the package is a check
that silently stops running.
"""

import ast
from pathlib import Path

import moltendt

SOURCES = sorted(Path(moltendt.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
