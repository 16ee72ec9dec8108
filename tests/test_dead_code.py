"""Source hygiene of ``src/hse``, by the standard ``ast`` module alone: no
module imports a name it never uses (``__init__.py`` re-exports are
exempt), no function binds a local by plain assignment, tuple unpacking
or a ``for`` target that nothing reads, no module defines a private
function, class or constant (a top-level ``_name``) that no module of the
package reads, and no module defines a public function or class outside
``hse.__all__`` that no module of the package, the tests, the bench or the
scripts reads.  A local starting with an underscore is a deliberate
discard.  No module imports an underscore name from another module of the
package, or reads one off a package module it imports: a private name
stays with the module that defines it.  Nor does a reference of the
differential tests (``tests/*_reference.py``), so a reference never
borrows a private helper of the code it checks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hse"
READERS = ("tests", "bench", "scripts")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _loaded(tree: ast.AST) -> set[str]:
    """Names read anywhere under tree: loads, the base of attribute chains,
    augmented assignments and ``del``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
    return names


def _bound_names(target: ast.AST):
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound_names(elt.value if isinstance(elt, ast.Starred) else elt)


def _own_nodes(func: ast.AST):
    """The nodes of func's body outside nested function and class scopes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    loaded = _loaded(tree)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {elt.value for elt in node.value.elts}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in loaded and name not in exported:
                    found.append(f"line {node.lineno}: import {name}")
    return found


def unused_locals(source: str) -> list[str]:
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, SCOPES):
            continue
        loaded = _loaded(func)
        for node in _own_nodes(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in _bound_names(target):
                    if not name.id.startswith("_") and name.id not in loaded:
                        found.append(f"line {name.lineno}: {name.id} in "
                                     f"{getattr(func, 'name', 'lambda')}")
    return found


def _read(tree: ast.AST) -> set[str]:
    """Names tree reads: as a name, as an attribute or in an import."""
    read = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unused_public(sources: dict[str, str], readers: dict[str, str],
                  exported: set[str]) -> list[str]:
    """Top-level public functions and classes of the modules (name ->
    source) outside exported that neither they nor the readers read."""
    read: set[str] = set()
    for source in readers.values():
        read |= _read(ast.parse(source))
    defined = []
    for module, source in sources.items():
        tree = ast.parse(source)
        read |= _read(tree)
        defined += [(module, node.lineno, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in exported]
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in read]


def unused_private(sources: dict[str, str]) -> list[str]:
    """Top-level ``_name`` functions, classes and constants of the modules
    (name -> source) that none of them reads: as a name, as an attribute
    or in an import."""
    read: set[str] = set()
    defined = []
    for module, source in sources.items():
        tree = ast.parse(source)
        read |= _read(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name for target in targets for name in _bound_names(target)]
            else:
                continue
            for name in names:
                label = getattr(name, "name", None) or name.id
                if label.startswith("_") and not label.startswith("__"):
                    defined.append((module, name.lineno, label))
    return [f"{module} line {line}: {label}" for module, line, label in defined
            if label not in read]


def private_imports(source: str) -> list[str]:
    """Underscore names the module imports from a module of the package
    (``from .m import _x``, ``from hse.m import _x``, ``from . import _m``),
    or reads as attributes of a package module it imports (``m._x`` after
    ``from . import m``)."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hse"):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"line {node.lineno}: {alias.name}")
                if not node.module or node.module == "hse":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_the_private_import_checker_finds_what_it_names():
    source = (
        "from __future__ import annotations\n"
        "from . import linalg, _shared\n"
        "from .multimap import MultiMap, _repeats\n"
        "from hse.signs import _koszul_core\n"
        "from .grading import __all__\n"
        "from os import _exit\n"
        "def f(x):\n"
        "    return linalg._private(x), linalg.public(x), x._own\n"
    )
    assert private_imports(source) == [
        "line 2: _shared", "line 3: _repeats", "line 4: _koszul_core",
        "line 8: linalg._private"]


def test_no_private_names_cross_modules_in_src():
    found = [f"{path.name} {problem}" for path in sorted(SRC.glob("*.py"))
             for problem in private_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_no_reference_imports_a_private_name_of_the_package():
    found = [f"{path.name} {problem}" for path in sorted((ROOT / "tests").glob("*_reference.py"))
             for problem in private_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_private_checker_finds_what_it_names():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _dead():\n"
            "    return 0\n"
            "class _Gone:\n"
            "    pass\n"
            "def _called_elsewhere():\n"
            "    return _helper()\n"
            "def _imported():\n"
            "    return 1\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import _imported\n"
            "def run():\n"
            "    return a._called_elsewhere()\n"
        ),
    }
    assert unused_private(sources) == [
        "a.py line 2: _UNUSED", "a.py line 5: _dead", "a.py line 7: _Gone"]


def test_no_unread_private_definitions_in_src():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unused_private(sources) == []


def test_the_public_checker_finds_what_it_names():
    sources = {
        "a.py": (
            "def exported():\n"
            "    return helper()\n"
            "def helper():\n"
            "    return 1\n"
            "def orphan():\n"
            "    return 2\n"
            "class Orphan:\n"
            "    pass\n"
            "def tested():\n"
            "    return 3\n"
            "class Base:\n"
            "    pass\n"
            "LIMIT = 4\n"
        ),
    }
    readers = {
        "test_a.py": (
            "from hse.a import tested\n"
            "import hse.a as a\n"
            "class Derived(a.Base):\n"
            "    pass\n"
            "def test_it():\n"
            "    assert tested() == 3\n"
        ),
    }
    assert unused_public(sources, readers, {"exported"}) == [
        "a.py line 5: orphan", "a.py line 7: Orphan"]


def test_no_unread_public_definitions_in_src():
    import hse

    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    readers = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for folder in READERS for path in sorted((ROOT / folder).glob("*.py"))}
    assert unused_public(sources, readers, set(hse.__all__)) == []


def test_the_checker_finds_what_it_names():
    source = (
        "import os\n"
        "from sys import argv\n"
        "import json\n"
        "def f(pairs):\n"
        "    total = 0\n"
        "    a, b = pairs[0]\n"
        "    for k, v in pairs:\n"
        "        json.dumps(v)\n"
        "    kept = [x for x, _y in pairs]\n"
        "    n = 0\n"
        "    n += 1\n"
        "    def inner():\n"
        "        return a\n"
        "    return inner, kept, argv\n"
    )
    assert unused_imports(source) == ["line 1: import os"]
    assert sorted(unused_locals(source)) == [
        "line 5: total in f", "line 6: b in f", "line 7: k in f"]


def test_no_unused_imports_or_locals_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        problems = unused_locals(source)
        if path.name != "__init__.py":
            problems = unused_imports(source) + problems
        found += [f"{path.name} {p}" for p in problems]
    assert found == []
