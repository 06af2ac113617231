"""Every name a meshpress module or test file imports is used in that
file, and every private helper is used somewhere in the package.

Each module under src/meshpress except the package's __init__.py, and
each file under tests/, is parsed with `ast`; a name bound by an import
statement must appear somewhere in the file as a name or in its
`__all__`. A leftover import fails here and the test id names its file
(`tests/` prefixed for a test file). A module-level function or class
whose name starts with `_` must be referenced (as a name, an attribute or
an imported name) by some code of src/meshpress outside its own
definition, so a helper orphaned by a refactor fails here too.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "meshpress"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that it never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "from .mesh import edge_key\n"
              "__all__ = ['edge_key']\n"
              "@dataclass\nclass A:\n    x: int = np.int64(0)\n")
    assert unused_imports(source) == ["os", "field"]


@pytest.mark.parametrize(
    "path", MODULES + TEST_FILES,
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private(sources: dict[str, str]) -> list[str]:
    """"module: name" for each module-level `_`-prefixed function or class
    of `sources` (file name -> text), dunders aside, that no code outside
    its own definition references."""
    defined, used = [], set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names |= {a.name for a in node.names}
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and stmt.name.startswith("_")
                    and not stmt.name.endswith("__")):
                defined.append((module, stmt.name))
                names.discard(stmt.name)
            used |= names
    return [f"{module}: {name}" for module, name in defined
            if name not in used]


def test_checker_finds_unused_private_names():
    sources = {
        "a.py": ("def _called():\n    pass\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Described:\n    \"\"\"Only text names _Described.\"\"\"\n"
                 "def _imported():\n    pass\n"
                 "def _via_attribute():\n    pass\n"
                 "def public():\n    return _called()\n"),
        "b.py": ("from . import a\nfrom .a import _imported\n"
                 "def __getattr__(name):\n    return a._via_attribute\n"),
    }
    assert unused_private(sources) == ["a.py: _recursive", "a.py: _Described"]


def test_no_unused_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_private(sources) == []
