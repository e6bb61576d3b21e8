"""Every module-level import in src/tumorlab is read in its module.

No linter runs on the package, so this check stands in for F401: a name
that a module imports at its top level and never reads fails it, unless
the import's line carries ``# noqa: F401`` followed by a reason.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tumorlab"
EXCUSED = re.compile(r"#\s*noqa: F401\s+\S")


def unread_imports(source):
    """(name, line) of each module-level import the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and not EXCUSED.search(lines[alias.lineno - 1]):
                    unread.append((name, alias.lineno))
    return unread


def test_the_check_finds_an_unread_import():
    source = ("import os\n"
              "from math import pi, sqrt  # noqa: F401\n"
              "from math import tau  # noqa: F401 (read by a caller)\n"
              "x = sqrt(2.0)\n")
    assert unread_imports(source) == [("os", 1), ("pi", 2)]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []
