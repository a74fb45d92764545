"""Static checks of the package source that need no linter installed."""

import ast
from pathlib import Path

import pytest

import canalgeo

MODULES = sorted(Path(canalgeo.__file__).resolve().parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    """Names that an import binds (``__future__`` aside) and the module neither
    reads as a name anywhere nor lists in its ``__all__``, with their lines."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_import_is_left_unused(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, re as regex\nfrom x import a, b\n"
    source += "__all__ = ['b']\nprint(regex)\n"
    assert _unused_imports(ast.parse(source)) == ["os (line 2)", "a (line 3)"]
