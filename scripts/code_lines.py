#!/usr/bin/env python3
"""Count the lines of code in each module of the ciaftp package.

A line counts when a token other than a comment, a line break or an
indentation change lies on it (``tokenize``; a token that spans lines, such
as a multi-line string, counts every line it spans), and it is no line of a
docstring (``ast``: the leading string statement of a module, class or
function).  So blank lines, comment lines and docstrings are left out.  It
prints one line per module of ``DIR/ciaftp``, in name order, and the total,
so that a change that claims to shrink the package can show by how much.

Usage:
    python scripts/code_lines.py
    python scripts/code_lines.py --src ../other/src
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of code in the module source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the ciaftp package")
    args = ap.parse_args()
    total = 0
    for path in sorted((args.src / "ciaftp").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
