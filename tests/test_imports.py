"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "labparts"


def names_read(tree: ast.Module) -> set:
    """The names a module reads: loaded names, the roots of attribute chains
    (a plain Name), the names in string annotations and the entries of ``__all__``."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                                  args.vararg, args.kwarg) if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                read |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return read


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
    read = names_read(tree)
    return [f"{name} (line {line})" for name, line in bound if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_module_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import json\nfrom typing import Any, Callable\n\n\ndef f(x: 'Callable') -> None:\n    return x\n"
    assert unused_imports(source) == ["json (line 1)", "Any (line 2)"]
