"""Count the code lines of Python files, for claims that a change made less code.

Usage (from the repository root):

    python3 scripts/code_lines.py src/coexlink/*.py

A code line is a line spanned by some AST node other than the module itself,
less the lines of module, class and function docstrings.  So blank lines and
comments between statements do not count, while a call split over several
lines counts every line it spans (blank lines and comments inside a function
or class count too, since the definition spans them).  The script prints one
``count path`` line per file and then ``count total``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one file's ``source``."""
    spanned, docstrings = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
        if not isinstance(node, ast.Module) and hasattr(node, "lineno"):
            spanned.update(range(node.lineno, node.end_lineno + 1))
    return len(spanned - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
