"""Checks on the package source itself.

Integrity checks must raise typed ``MoltenDTError``s: ``python -O``
strips ``assert`` statements, so an assert in the package is a check
that silently stops running.  Every error class the package declares
must also be raised somewhere in it: a class that nothing raises promises
a check that does not exist.
"""

import ast
from pathlib import Path

import moltendt
from moltendt import errors

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


def _raised_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_class_is_raised():
    declared = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.MoltenDTError)
        and obj is not errors.MoltenDTError
    }
    assert declared
    raised = {
        name
        for path in SOURCES
        for name in _raised_names(ast.parse(path.read_text(), filename=str(path)))
    }
    assert not declared - raised, f"never raised: {sorted(declared - raised)}"
