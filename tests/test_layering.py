"""No module of the package imports an underscore name from a sibling module:
a helper two modules share is public in the lower one."""

import ast
from pathlib import Path

import coexlink

SOURCE = Path(coexlink.__file__).resolve().parent


def private_imports(text: str) -> list[tuple[int, str]]:
    """(line, name) of each ``from .x import _y`` in a module's source; an
    underscore module such as ``from . import _erf_tables`` is allowed."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_the_check_sees_private_imports():
    text = ("from . import _erf_tables\nfrom .dist import CoexistenceScenario\n"
            "from .per import (Modulation,\n    _validate_count)\nfrom numpy import _core\n")
    assert private_imports(text) == [(3, "_validate_count")]


def test_no_module_imports_a_private_name_from_a_sibling():
    found = [f"{path.name}:{line} imports {name}"
             for path in sorted(SOURCE.glob("*.py"))
             for line, name in private_imports(path.read_text(encoding="utf-8"))]
    assert found == []
