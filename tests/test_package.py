"""Package structure: every module imports what it needs at load time."""

import ast
import pathlib

import fansq

SRC = pathlib.Path(fansq.__file__).parent


def _nested_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports that sit inside a function or class body."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            lines += [
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            ]
    return sorted(set(lines))


def test_no_module_of_the_package_imports_inside_a_function():
    # a deferred import hides a cycle between modules
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = {
        path.name: lines
        for path in modules
        if (lines := _nested_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}

