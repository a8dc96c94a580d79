"""Two decisions are each made in one place in the package.

A ``Mesh`` is constructed only in ``mesh.build_mesh``: every generator,
``refine_uniform``, the file reader and ``Mesh.copies`` build through it,
so each mesh table is derived once.  A mesh is refined only in
``solver.reference``, so the reference alone decides which fine run it
marches.  A call of either function anywhere else in the package (a name or
an attribute that is called) fails here.  The tests' oracles may make both.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _calls(node, scope, name):
    """(dotted scope, line) of each call of ``name`` under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Call):
            func = child.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                yield scope, child.lineno
        yield from _calls(child, inner, name)


@pytest.mark.parametrize("name,scope", [("Mesh", "mesh.build_mesh"),
                                        ("refine_uniform", "solver.reference")],
                         ids=["Mesh", "refine_uniform"])
def test_a_function_is_called_in_one_place_only(name, scope):
    calls = []
    for path in sorted((ROOT / "src" / "fvgrad").glob("*.py")):
        calls += _calls(ast.parse(path.read_text()), path.stem, name)
    assert [where for where, _ in calls] == [scope], calls
