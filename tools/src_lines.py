"""Print the line count and the code-line count of every module of a package.

    python tools/src_lines.py [DIR]

DIR defaults to this checkout's ``src/qbstab``; every ``*.py`` file in it
(not in its subdirectories) is counted, in name order, then the totals.
``lines`` is what ``wc -l`` counts, the newline characters.  A code line is
a line that holds a token that is neither a comment nor part of a module,
class or function docstring: blank lines, comment lines and docstring lines
are not code lines, and a statement or a string literal that spans several
lines makes each of them one.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qbstab"
# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions, as ``tokenize`` gives them, of the
    docstrings of the module and of its classes and functions."""
    lines = source.split("\n")

    def position(line: int, byte: int) -> tuple[int, int]:
        # ast counts columns in UTF-8 bytes, tokenize in characters
        return line, len(lines[line - 1].encode()[:byte].decode())

    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            doc = first.value
            spans.append((position(doc.lineno, doc.col_offset),
                          position(doc.end_lineno, doc.end_col_offset)))
    return spans


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docs = _docstrings(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(lo <= tok.start and tok.end <= hi for lo, hi in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def table(directory: Path) -> list[tuple[str, int, int]]:
    """(name, lines, code lines) of every module in ``directory``, then the totals."""
    rows = [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted(directory.glob("*.py"))]
    return rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        raise SystemExit("usage: python tools/src_lines.py [DIR]")
    directory = Path(argv[0]) if argv else SRC
    if not directory.is_dir():
        raise SystemExit(f"src_lines: no directory {directory}")
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, lines, code in table(directory):
        print(f"{name:<16} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
