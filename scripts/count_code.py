"""Count code-only lines: those holding a token that is not a comment,
blank-line filler or part of a docstring.

    python scripts/count_code.py PATH...

Prints the total over every ``*.py`` file named, or found under a
directory named. A line counts once however many tokens it holds, and
a multi-line string or bracket counts every line it spans; a docstring
(the first statement of a module, class or function, when it is a
string) counts none.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) or not body:
            continue
        first = body[0]
        if isinstance(first, ast.Expr) and isinstance(
            getattr(first, "value", None), ast.Constant
        ) and isinstance(first.value.value, str):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(paths: list[str]) -> int:
    total = 0
    for name in paths:
        path = Path(name)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        total += sum(code_lines(f.read_text()) for f in files)
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
