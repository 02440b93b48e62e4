"""Every name a loopcoh module imports is used in that module, every
function, method and class it defines is referenced somewhere in
loopcoh or its tests, every parameter default it declares is
overridden by some call there, every parameter it declares is read,
no module keeps mutable state in a global or a process-wide functools
cache, and every exception class derives from LoopcohError."""
import ast
import builtins
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


def _definitions(node, in_class=False):
    """(name, is a method) of every function, method and class defined
    under node, dunders excepted."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            if not (child.name.startswith("__")
                    and child.name.endswith("__")):
                yield child.name, in_class and not isinstance(
                    child, ast.ClassDef)
            yield from _definitions(child, isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, in_class)


def unreferenced_definitions(sources, users):
    """Functions, methods and classes defined in sources (dunders
    excepted) whose name no source in users takes as an attribute or,
    unless it is a method, as a Name: a method is reached only through
    attribute access, so a local variable of the same name hides no
    unused method.  An attribute of a name bound by `import` is a
    module's, so itertools.product uses no method named product."""
    defined = set()
    for source in sources:
        defined.update(_definitions(ast.parse(source)))
    names, attrs = set(), set()
    for source in users:
        tree = ast.parse(source)
        modules = {a.asname or a.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    getattr(node.value, "id", None) not in modules:
                attrs.add(node.attr)
    return sorted({name for name, method in defined
                   if name not in attrs
                   and (method or name not in names)})


def test_the_scan_finds_unreferenced_definitions():
    source = ("class A:\n"
              "    def __init__(self): pass\n"
              "    def used(self): pass\n"
              "    def elsewhere(self): pass\n"
              "    def unused(self): pass\n"
              "    def clash(self): pass\n"
              "    def product(self): pass\n"
              "class B: pass\n"
              "def helper(): pass\n"
              "def orphan(): pass\n"
              "clash = A().used(helper)\n")
    other = ("import itertools\nfrom m import A, orphan\n"
             "A().elsewhere(itertools.product())\n")
    assert unreferenced_definitions([source], [source, other]) == \
        ["B", "clash", "orphan", "product", "unused"]


def test_every_definition_is_referenced():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unreferenced_definitions(sources, sources + tests) == []


# Definitions in loopcoh that only the tests reach.  The list may only
# shrink: a new definition needs a caller in loopcoh, and a reference
# that tests compare against belongs in tests/references.py.
TEST_ONLY = ["boundary_blocks", "oracle_small_resolution_check"]


def test_only_the_pinned_definitions_are_reached_from_tests_alone():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_definitions(sources, sources) == TEST_ONLY


def _defaults(node, scope=()):
    """(callee names, dotted name, positional parameters, parameters with
    a default, the definition) of every function defined under node;
    self and cls are dropped from a method, and a class names its
    __init__ as a callee."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            names = {child.name}
            if isinstance(node, ast.ClassDef):
                if not any(getattr(d, "id", None) == "staticmethod"
                           for d in child.decorator_list):
                    positional = positional[1:]
                if child.name == "__init__":
                    names.add(node.name)
            defaults = positional[len(positional) - len(args.defaults):]
            defaults += [a.arg for a, d in
                         zip(args.kwonlyargs, args.kw_defaults) if d]
            yield names, ".".join(scope + (child.name,)), positional, \
                defaults, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from _defaults(child, scope + (child.name,))
        else:
            yield from _defaults(child, scope)


def _calls(node, cls=None):
    """(callee name, positional count, keywords, starred) of every call
    under node; cls(...) in a class body names that class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            f = child.func
            name = getattr(f, "id", getattr(f, "attr", None))
            keywords = {k.arg for k in child.keywords}
            yield (cls if name == "cls" else name, len(child.args),
                   keywords, None in keywords or any(
                       isinstance(a, ast.Starred) for a in child.args))
        yield from _calls(child, child.name
                          if isinstance(child, ast.ClassDef) else cls)


def unpassed_defaults(sources, users):
    """Parameters with a default, of functions defined in sources, that
    no call in users passes by keyword or by position, as dotted names
    (outer.inner.param, Class.method.param).  Calls are matched to
    definitions by callee name only, and a call with *args or **kwargs
    passes every parameter, so a name clash can hide an unused
    parameter but never flags a used one."""
    calls = {}
    for source in users:
        for name, *call in _calls(ast.parse(source)):
            calls.setdefault(name, []).append(call)
    unpassed = []
    for source in sources:
        for names, dotted, positional, defaults, _ in _defaults(
                ast.parse(source)):
            found = [c for n in names for c in calls.get(n, ())]
            for param in defaults:
                index = positional.index(param) if param in positional \
                    else float("inf")
                if not any(starred or param in keywords or index < count
                           for count, keywords, starred in found):
                    unpassed.append(f"{dotted}.{param}")
    return sorted(unpassed)


def test_the_scan_finds_unpassed_defaults():
    source = ("def f(a, b=1, c=2, *, d=3):\n"
              "    def inner(x, y=0): return x\n"
              "    return inner(a)\n"
              "class A:\n"
              "    def __init__(self, p=0, q=0): pass\n"
              "    def m(self, r=0, s=0): pass\n"
              "    @classmethod\n"
              "    def make(cls, t=0): return cls(q=t)\n"
              "    @staticmethod\n"
              "    def st(u=0): pass\n"
              "def g(v=0, w=0): pass\n"
              "f(1, 2)\nA(1).m(s=1)\nA.st(0)\ng(*[])\n")
    other = "import m\nm.f(0, c=1)\n"
    assert unpassed_defaults([source], [source]) == \
        ["A.m.r", "A.make.t", "f.c", "f.d", "f.inner.y"]
    assert unpassed_defaults([source], [source, other]) == \
        ["A.m.r", "A.make.t", "f.d", "f.inner.y"]


def test_every_default_is_passed():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unpassed_defaults(sources, sources + tests) == []


def unused_parameters(source):
    """Parameters of the functions defined in a module that their body,
    nested definitions included, never reads as a Name, as dotted names
    (outer.inner.param, Class.method.param); self and cls of a method
    are skipped."""
    unused = []
    for _, dotted, positional, _, node in _defaults(ast.parse(source)):
        args = node.args
        params = positional + [a.arg for a in args.kwonlyargs] + [
            a.arg for a in (args.vararg, args.kwarg) if a]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        unused.extend(f"{dotted}.{p}" for p in params if p not in read)
    return sorted(unused)


def test_the_scan_finds_unused_parameters():
    source = ("def f(a, b, *args, c, d=0, **kw):\n"
              "    def inner(x, y):\n"
              "        return a + x\n"
              "    return inner(c, args)\n"
              "class A:\n"
              "    def m(self, p, q): return p\n"
              "    @staticmethod\n"
              "    def st(u, v): return v\n"
              "    @classmethod\n"
              "    def make(cls, t): return cls()\n")
    assert unused_parameters(source) == \
        ["A.m.q", "A.make.t", "A.st.u", "f.b", "f.d", "f.inner.y", "f.kw"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text()) == []


_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                  "Counter"}
_CACHES = {"cache", "lru_cache"}


def module_mutable_state(source):
    """Lowercase names that a module binds at its top level to a dict,
    list or set: a display, a comprehension or a call of one of those
    types; upper-case names are constants by convention.  Also every
    functools cache it names, imported or as functools.<name>: such a
    cache lives as long as the process and keeps its arguments alive."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.extend(a.name for a in node.names if a.name in _CACHES)
        elif isinstance(node, ast.Attribute) and node.attr in _CACHES \
                and getattr(node.value, "id", None) == "functools":
            found.append(f"functools.{node.attr}")
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                     ast.DictComp, ast.ListComp,
                                     ast.SetComp)) or (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None))
            in _MUTABLE_CALLS)
        if mutable:
            found.extend(t.id for t in targets
                         if isinstance(t, ast.Name) and t.id != t.id.upper())
    return sorted(found)


def test_the_scan_finds_module_mutable_state():
    source = ("import collections\n"
              "LIMITS = {'a': 1}\n"
              "_cache = {}\n"
              "seen: set = set()\n"
              "order = collections.OrderedDict()\n"
              "squares = [i * i for i in range(3)]\n"
              "name = 'x'\n"
              "pair = (1, 2)\n"
              "def f():\n"
              "    local = {}\n"
              "    return local\n"
              "class A:\n"
              "    table = {}\n")
    assert module_mutable_state(source) == \
        ["_cache", "order", "seen", "squares"]


def test_the_scan_finds_functools_caches():
    source = ("import functools\n"
              "from functools import lru_cache, partial, reduce\n"
              "class A:\n"
              "    @lru_cache(maxsize=None)\n"
              "    def basis(self, n):\n"
              "        cache = {}\n"
              "        return cache\n"
              "@functools.cache\n"
              "def f(n):\n"
              "    return partial(reduce, n)\n")
    assert module_mutable_state(source) == ["functools.cache", "lru_cache"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_keeps_mutable_state(path):
    assert module_mutable_state(path.read_text()) == []


BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type)
                      and issubclass(value, BaseException)}


def stray_exceptions(sources):
    """Exception classes defined in sources that do not derive from
    LoopcohError, LoopcohError itself excepted: a class is an exception
    when a built-in exception is among its bases or theirs, followed by
    name through the classes the sources define."""
    bases = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [getattr(b, "id", getattr(b, "attr", None))
                                    for b in node.bases]
    stray = []
    for name in bases:
        ancestors, todo = set(), list(bases[name])
        while todo:
            base = todo.pop()
            if base not in ancestors:
                ancestors.add(base)
                todo.extend(bases.get(base, ()))
        if name != "LoopcohError" and ancestors & BUILTIN_EXCEPTIONS \
                and "LoopcohError" not in ancestors:
            stray.append(name)
    return sorted(stray)


def test_the_scan_finds_stray_exceptions():
    source = ("class LoopcohError(Exception): pass\n"
              "class A(LoopcohError): pass\n"
              "class B(A): pass\n"
              "class C(ValueError): pass\n"
              "class D(C): pass\n"
              "class E(KeyError, B): pass\n"
              "class F(dict): pass\n")
    # bases are followed from one source into another
    other = "class G(D): pass\nclass H(B): pass\n"
    assert stray_exceptions([source]) == ["C", "D"]
    assert stray_exceptions([source, other]) == ["C", "D", "G"]


def test_every_exception_derives_from_the_base_class():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert stray_exceptions(sources) == []
