"""Every module-level import under src/ and tests/ is used.

No linter runs on this repository, so this test is the check: each name a
top-level import statement binds must be read somewhere in its module (as
a name, or as the root of an attribute chain) or be listed in __all__.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests")
                 for path in (ROOT / top).rglob("*.py"))


def unused_imports(source):
    """Names bound by the top-level imports of source and never read."""
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read | exported]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import cmath\nimport numpy as np\nimport os.path\n"
              "from math import pi, tau\n__all__ = ['tau']\n"
              "def f():\n    return os.path.sep, pi\n")
    assert unused_imports(source) == ["cmath", "np"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_top_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []
