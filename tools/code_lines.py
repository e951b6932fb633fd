"""Count the code lines of each module of ``src/moltendt``.

A code line holds at least one token that is neither a comment nor part
of a docstring; blank lines, comment lines and docstring lines do not
count.  A docstring is the string that opens a module, class or function
body.  Prints one line per module and the total.

Run from the repository root:  python3 tools/code_lines.py [package dir]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moltendt"
SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(package: Path) -> None:
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.stem:14} {n:6,}")
    print(f"{'total':14} {total:6,}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
