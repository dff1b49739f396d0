"""Every top-level function and class under src/ has a reader in src/.

A definition that only its own unit test calls is dead weight in the
library, so this test is the check: each name a top-level def or class
statement under src/ binds must be read somewhere in src/ outside that
definition, as a name or as an attribute (module.name).  An import alone
is not a read.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def unread_definitions(sources):
    """(module, name) of each top-level def or class in the
    {module: source} mapping that no code outside its own body reads."""
    defined = []
    readers = {}              # name -> the definitions its reads sit in
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owner = (module, node.name)
                defined.append(owner)
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    readers.setdefault(n.id, set()).add(owner)
                elif isinstance(n, ast.Attribute):
                    readers.setdefault(n.attr, set()).add(owner)
    return [d for d in defined if not readers.get(d[1], set()) - {d}]


def test_unread_definitions_are_found():
    sources = {
        "a": ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Unused:\n    pass\n"
              "def caller():\n    return used() + b.helper()\n"),
        "b": "from a import recursive\ndef helper():\n    return 2\n",
    }
    assert unread_definitions(sources) == [("a", "recursive"),
                                           ("a", "Unused"),
                                           ("a", "caller")]


def test_every_top_level_definition_is_read_in_src():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unread_definitions(sources) == []
