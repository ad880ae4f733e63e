"""Count the code lines and raw lines of each module of src/returndist.

A code line is a line that holds a token, less comment-only and blank
lines and the lines of module, class and function docstrings. Raw lines
are the file's lines as ``wc -l`` counts them. Prints one row per module
and a total, and sets no bound.

Run from the repository root: ``python tests/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "returndist"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token outside a docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def main() -> None:
    total_code = total_raw = 0
    print(f"{'module':<16} {'code':>5} {'raw':>5}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, raw = code_lines(source), source.count("\n")
        total_code += code
        total_raw += raw
        print(f"{path.name:<16} {code:>5} {raw:>5}")
    print(f"{'total':<16} {total_code:>5} {total_raw:>5}")


if __name__ == "__main__":
    main()
