"""Print the physical lines and the code lines of each ``src/nnlif`` module,
and their totals, then one total line each for the ``tests`` and
``scripts`` directories of the checkout that holds this script.

A code line holds at least one token of code.  Blank lines, lines that
hold only a comment, and the lines of a docstring (a string that opens a
module, class or function body) are not code lines.

    python scripts/loc.py [package directory]

The directory defaults to ``src/nnlif`` next to this script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def total(name: str, paths) -> tuple[str, int, int]:
    """(name, physical lines, code lines) of the modules ``paths``."""
    counts = [count(path.read_text(encoding="utf-8")) for path in paths]
    return name, sum(c[0] for c in counts), sum(c[1] for c in counts)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    package = Path(argv[0]) if argv else root / "src" / "nnlif"
    rows = [total(path.name, [path]) for path in sorted(package.glob("*.py"))]
    rows.append(total("total", sorted(package.glob("*.py"))))
    rows += [total(f"{name}/", sorted((root / name).rglob("*.py"))) for name in ("tests", "scripts")]
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'physical':>8}  {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
