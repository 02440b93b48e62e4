"""Every name a loopcoh module imports is used in that module, and every
function, method and class it defines is referenced somewhere in
loopcoh or its tests."""
import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "loopcoh"


def unused_imports(source):
    """Names bound by the imports of a module that it never uses as a
    Name; `from __future__ import ...` is skipped."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(n for n in imported if n not in used)


def test_the_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from .rings import RingError, RingSpec as R\n"
              "sys.exit(R)\n")
    assert unused_imports(source) == ["RingError", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_definitions(sources, users):
    """Functions, methods and classes defined in sources (dunders
    excepted) whose name no source in users takes as a Name or as an
    attribute."""
    defined = set()
    for source in sources:
        defined.update(
            node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__")))
    used = set()
    for source in users:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_the_scan_finds_unreferenced_definitions():
    source = ("class A:\n"
              "    def __init__(self): pass\n"
              "    def used(self): pass\n"
              "    def elsewhere(self): pass\n"
              "    def unused(self): pass\n"
              "class B: pass\n"
              "def helper(): pass\n"
              "def orphan(): pass\n"
              "A().used(helper)\n")
    other = "from m import A, orphan\nA().elsewhere()\n"
    assert unreferenced_definitions([source], [source, other]) == \
        ["B", "orphan", "unused"]


def test_every_definition_is_referenced():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unreferenced_definitions(sources, sources + tests) == []
