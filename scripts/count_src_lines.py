"""Count the lines of the package source, in total and as code.

A code line holds at least one token outside comments and docstrings: a
blank line, a comment line or a docstring line is not code, and a string
that spans lines counts every line it covers. Docstrings are the leading
string statements of modules, classes and functions.

Usage: python scripts/count_src_lines.py [directory]  (default: src/graph_matern)

It prints one row per module, then the directory's totals.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """``(total, code)`` lines of the Python file at ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE and token.start[0] not in docstrings:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else Path(__file__).resolve().parents[1] / "src" / "graph_matern")
    rows = [(path.name, *count(path)) for path in sorted(root.glob("*.py"))]
    rows.append((f"{root.name}/ total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
