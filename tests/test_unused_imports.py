"""Every module under src/, tests/ and demos/ uses each name it imports.

No linter is a dependency of this project, so this check reads the syntax
tree with the standard library's ast.  Exempt: __init__.py, whose imports
are re-exports; ``from __future__`` imports; and imports on a line marked
``# noqa: F401``, which test_tracer_names checks against the tracer.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "demos")
                 for path in (ROOT / top).rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []  # (line, bound name)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported.append((alias.lineno, bound))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{line}: {name}" for line, name in sorted(imported) if name not in used]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from math import gcd, lcm as least\n"
              "from re import sub  # noqa: F401\n"
              "def f(x) -> int:\n"
              "    import sys\n"
              "    return gcd(x, os.sep)\n")
    assert unused_imports(source) == ["3: least", "6: sys"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
