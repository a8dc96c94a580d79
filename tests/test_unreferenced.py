"""Every top-level function, class and method of the package has a caller.

A definition counts as used when its name occurs in ``src/`` or
``perfbench/`` outside its own body: as a name, an attribute, an imported
name, or a string equal to the name (the benchmark's tracer resolves its
targets by ``getattr``).  An attribute of numpy (``np.tanh``) names numpy's
function, not the package's, and does not count.  Dunder methods are
called by the interpreter and are exempt.  Code that only tests call
belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(node):
    """Identifiers a node refers to by name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            return []       # numpy's own function, not the package's namesake
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.rsplit(".", 1)[-1]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _definitions(tree):
    """(name, first line, last line) of each top-level def, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def unreferenced():
    """Qualified names of the package's definitions that nothing references."""
    refs = {}                                   # name -> [(path, line)]
    for root in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                for name in _names(node):
                    refs.setdefault(name, []).append((path, getattr(node, "lineno", 0)))
    missing = []
    for path in sorted((ROOT / "src" / "fvgrad").glob("*.py")):
        for qual, lo, hi in _definitions(ast.parse(path.read_text())):
            name = qual.rsplit(".", 1)[-1]
            if not any(p != path or not lo <= line <= hi for p, line in refs.get(name, ())):
                missing.append(f"{path.stem}.{qual}")
    return missing


def test_every_definition_in_the_package_has_a_reference_outside_itself():
    assert unreferenced() == []
