"""Print the code lines of every moprox module and their total.

Run from the repository root:

    python3 tools/code_lines.py

A code line is a line of src/moprox/*.py that holds part of a Python
statement. Blank lines, lines holding only a comment, and the lines of
module, class and function docstrings do not count. Every line a
multi-line statement spans counts, a multi-line string that is not a
docstring included. The figure is printed, not checked.

Exit codes: 0 figures printed, 2 moprox source not found.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "moprox"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    paths = sorted(SRC.glob("*.py"))
    if not paths:
        print(f"no moprox source under {SRC}", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name}: {count}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
