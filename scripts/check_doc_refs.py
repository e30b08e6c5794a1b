"""Check that the docs' backticked references name things that exist.

    python scripts/check_doc_refs.py [DOC...]

Reads ``README.md`` and ``docs/ARCHITECTURE.md`` (or the files named)
and resolves two kinds of backticked reference:

- a file path (a token with a ``/``, or a bare name with a file
  suffix), against the repo root or ``src/repro/``; a glob must match
  something, and a ``path::name`` test id must name a class or function
  defined in that file;
- a dotted ``repro.…`` name, by importing its longest module prefix
  and ``getattr`` for the rest.

Prints one line per reference that does not resolve, with its file
and line, and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/ARCHITECTURE.md")
BASES = (ROOT, ROOT / "src" / "repro")

_TICKED = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"[\w.*-]+(?:/[\w.*-]+)*/?")
_SUFFIXES = (".py", ".md", ".json", ".jsonl", ".txt", ".sh", ".cfg")
_DOTTED = re.compile(r"repro(?:\.\w+)+")


def _is_path(token: str) -> bool:
    if not _PATH.fullmatch(token) or token.startswith("."):
        return False
    return "/" in token or token.endswith(_SUFFIXES)


def _defined_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
    }


def check_path(token: str) -> str | None:
    """Why ``token`` (a path, glob or test id) does not resolve, or None."""
    path, *node = token.split("::")
    for base in BASES:
        if any(ch in path for ch in "*?["):
            if any(base.glob(path)):
                break
        elif (base / path).exists():
            break
    else:
        return f"no such path: {path}"
    if node:
        names = _defined_names(base / path)
        for part in node:
            if part.split("[")[0] not in names:
                return f"{path} defines no {part.split('[')[0]}"
    return None


def check_dotted(name: str) -> str | None:
    """Why ``repro.…`` ``name`` does not resolve, or None."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            try:
                obj = getattr(obj, attr)
            except AttributeError:
                return f"{'.'.join(parts[:cut])} has no {attr}"
        return None
    return f"cannot import {name}"


def check(doc: Path) -> list[str]:
    """One ``file:line: reason`` line per unresolved reference."""
    problems = []
    lines = doc.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        for ticked in _TICKED.findall(line):
            token = ticked.split()[0]
            dotted = _DOTTED.match(token)
            if dotted:
                why = check_dotted(dotted.group())
            elif _is_path(token.split("::")[0]):
                why = check_path(token)
            else:
                continue
            if why:
                problems.append(f"{doc}:{number}: `{ticked}`: {why}")
    return problems


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    docs = [Path(arg) for arg in argv] or [ROOT / doc for doc in DOCS]
    problems = [problem for doc in docs for problem in check(doc)]
    for problem in problems:
        print(problem)
    print(f"{len(problems)} unresolved reference(s) in {len(docs)} file(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
