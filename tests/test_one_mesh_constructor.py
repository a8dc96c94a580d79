"""A ``Mesh`` is constructed in one place: ``mesh.build_mesh``.

Every generator, ``refine_uniform``, the file reader and ``Mesh.copies``
build through it, so each mesh table is derived once.  A call of the
constructor anywhere else in the package (a name or an attribute ``Mesh``
that is called) fails here.  The tests' oracles may construct meshes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _constructor_calls(node, scope):
    """(dotted scope, line) of each call of ``Mesh`` under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Mesh":
                yield scope, child.lineno
        yield from _constructor_calls(child, inner)


def test_a_mesh_is_constructed_only_in_build_mesh():
    calls = []
    for path in sorted((ROOT / "src" / "fvgrad").glob("*.py")):
        calls += _constructor_calls(ast.parse(path.read_text()), path.stem)
    assert [scope for scope, _ in calls] == ["mesh.build_mesh"], calls
