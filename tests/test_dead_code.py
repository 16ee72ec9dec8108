"""Source hygiene of ``src/hse``, by the standard ``ast`` module alone: no
module imports a name it never uses (``__init__.py`` re-exports are
exempt), and no function binds a local by plain assignment, tuple
unpacking or a ``for`` target that nothing reads.  A name starting with
an underscore is a deliberate discard.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hse"
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
