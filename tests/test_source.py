"""Checks on the package source itself.

Integrity checks must raise typed ``MoltenDTError``s: ``python -O``
strips ``assert`` statements, so an assert in the package is a check
that silently stops running.  Every error class the package declares
must also be raised somewhere in it: a class that nothing raises promises
a check that does not exist.  No module imports a name it never reads, no
function imports anything or takes a parameter it never reads, and no
module-level private name goes unread in the package.  A module imports
another's private names exactly where ``PRIVATE_IMPORTS`` lists them.
The change log stays a readable size with each entry written once, and
``tools/code_lines.py`` counts only the lines that hold code.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import moltendt
from moltendt import errors

SOURCES = sorted(Path(moltendt.__file__).parent.glob("*.py"))
CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"
CODE_LINES_TOOL = CHANGES.parent / "tools" / "code_lines.py"


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


def _unused_imports(tree):
    """Names a module imports and never reads.  ``__future__`` imports and
    the names listed in ``__all__`` are exempt."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_package_has_no_unused_imports():
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in sorted(_unused_imports(ast.parse(path.read_text(), filename=str(path))))
    ]
    assert not found, f"unused imports in the package: {found}"


def test_package_imports_at_module_level():
    # an import inside a function runs on every call and hides an import
    # cycle between modules
    found = [
        f"{path.name}:{func.name}:{node.lineno}"
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not found, f"imports inside functions: {found}"


def _private_definitions(tree):
    """(name, node) for each module-level def, class or assignment whose
    name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(tree):
    """Counts of the names a tree reads, as a bare name or an attribute."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
    return reads


def test_every_private_name_is_read():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    reads = sum((_reads(tree) for tree in trees), Counter())
    defined = [
        (path.name, name, node)
        for path, tree in zip(SOURCES, trees)
        for name, node in _private_definitions(tree)
    ]
    assert defined
    # reads inside a name's own definition, a recursive call say, do not count
    unread = [
        f"{module}: {name}" for module, name, node in defined if reads[name] <= _reads(node)[name]
    ]
    assert not unread, f"private names the package never reads: {unread}"


# (importer, exporter, name) for the private names one package module
# imports from another: the shared int check, and the dimension key that the
# crystal walk counts by.
PRIVATE_IMPORTS = {
    *(
        (importer, "errors", "_check_int")
        for importer in ("crystal.py", "localization.py", "qspace.py")
    ),
    ("localization.py", "qspace", "_dim_key"),
    ("localization.py", "qspace", "_keyed"),
}


def _imports_between_modules(path, tree):
    """(importer, exporter, name) for each name imported from another
    package module, or read as an attribute of one imported whole."""
    whole = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    whole[a.asname or a.name] = a.name
                else:
                    yield path.name, node.module, a.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in whole:
            yield path.name, whole[node.value.id], node.attr


def test_modules_share_private_names_only_where_listed():
    found = {
        triple
        for path in SOURCES
        for triple in _imports_between_modules(path, ast.parse(path.read_text(), filename=str(path)))
        if triple[2].startswith("_") and not triple[2].startswith("__")
    }
    unlisted = sorted(found - PRIVATE_IMPORTS)
    assert not unlisted, f"private names imported from another module: {unlisted}"
    stale = sorted(PRIVATE_IMPORTS - found)
    assert not stale, f"listed private imports that no module makes: {stale}"


# (module, function, parameter) triples that may go unread.  The benchmark
# calls ``index`` with ``grading`` by position, so that parameter stays
# until the benchmark may change.
UNREAD_PARAMETERS = {("localization.py", "index", "grading")}


def _unread_parameters(tree):
    """(function, parameter) pairs of every ``def`` whose body never reads
    the parameter; a nested function's reads count for its encloser."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                name.id
                for stmt in node.body
                for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            for a in params:
                if a.arg not in read:
                    yield node.name, a.arg


def test_package_reads_every_parameter():
    found = {
        (path.name, func, param)
        for path in SOURCES
        for func, param in _unread_parameters(ast.parse(path.read_text(), filename=str(path)))
    }
    unread = sorted(found - UNREAD_PARAMETERS)
    assert not unread, f"unread parameters: {unread}"
    stale = sorted(UNREAD_PARAMETERS - found)
    assert not stale, f"exempt parameters that are now read or gone: {stale}"


def test_change_log_is_small_and_never_repeats_an_entry():
    text = CHANGES.read_text(encoding="utf-8")
    assert len(text.encode("utf-8")) < 1 << 20, "CHANGES.md is over 1 MB"
    entries = [line for line in text.splitlines() if line.strip()]
    repeated = sorted({line[:60] for line in entries if entries.count(line) > 1})
    assert not repeated, f"entries written more than once: {repeated}"


def _code_lines_tool():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_skip_docstrings_comments_and_blanks():
    plain = 'def f(x):\n    s = """a\n    b"""\n    return x + 1\n'
    noted = (
        '"""A module\ndocstring."""\n\n'
        'def f(x):\n    """Add one."""\n\n    # a comment\n'
        '    s = """a\n    b"""\n    return x + 1  # a trailing comment\n'
    )
    tool = _code_lines_tool()
    assert tool.code_lines(plain) == tool.code_lines(noted) == 4


def test_code_lines_total_is_the_sum_of_its_modules(capsys):
    tool = _code_lines_tool()
    tool.main(Path(moltendt.__file__).parent)
    *rows, (name, total) = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert name == "total"
    assert rows == [[p.stem, f"{tool.code_lines(p.read_text()):,}"] for p in SOURCES]
    assert int(total.replace(",", "")) == sum(int(n.replace(",", "")) for _, n in rows)
