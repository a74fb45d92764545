"""Static checks of the package source that need no linter installed."""

import ast
import importlib
from collections import Counter
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


def _private_definitions(tree: ast.Module):
    """(name, node) of each module-level private name: one leading underscore, not dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node: ast.AST) -> Counter:
    """How often a tree reads each name: as a loaded name, a loaded attribute or an import."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            reads.update(alias.name for alias in sub.names)
    return reads


def _unread_private_names(trees: dict) -> list:
    """``module:name`` of each module-level private name that no tree reads outside the
    name's own definition."""
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if reads[name] - _reads(node)[name] <= 0
    ]


def test_every_private_name_is_read():
    # ROADMAP aim 2: no helper that nothing calls
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    assert _unread_private_names(trees) == []


def test_an_unread_private_name_is_found():
    used = ast.parse("from b import _helper\n_helper()\n")
    source = "_LIMIT = 3\n_dead: int = 4\n__dunder__ = 5\n"
    source += "def _helper():\n    return _LIMIT\n"
    source += "def _loop(n):\n    return _loop(n - 1)\n"
    trees = {"a": ast.parse(source), "c": used}
    assert _unread_private_names(trees) == ["a:_dead", "a:_loop"]


def _is_one(node: ast.AST, types=(int, float)) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in types and node.value == 1


def _unit_floors(tree: ast.Module) -> list:
    """Source of each ``max(1, x)``, ``np.maximum(x, 1.0)`` and ``1.0 + x`` (either order).

    Each compares a quantity with the number 1, which is a floor in whatever units the
    quantity carries.  Integer ``+ 1`` is index arithmetic and is not listed.
    """
    floors = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("max", "np.maximum"):
            if any(_is_one(arg) for arg in node.args):
                floors.append(ast.unparse(node))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if _is_one(node.left, (float,)) or _is_one(node.right, (float,)):
                floors.append(ast.unparse(node))
    return floors


# every floor at 1 in the package, with why 1 is the right unit there; a surface or family
# verdict reads its object's own scale instead (ROADMAP aim 3)
_UNIT_FLOORS = {
    ("catalog", "dent(t, a, *b)[0] / rho + 1.0"):
        "the dented tube's radius factor: the dent is divided by the radius it dents",
    ("conformal", "max(1.0, abs(value))"):
        "the pencil's inversive product is dimensionless",
    ("envelope", "1.0 + tangents @ cands.T"):
        "the clearance 1 + tau.v of two unit vectors",
    ("envelope", "1.0 + (tau[:, None, :] @ v_ref[:, None])[:, 0, 0]"):
        "the clearance 1 + tau.v of two unit vectors",
    ("jets", "np.maximum(hi - lo, 1.0)"):
        "the domain box's padding, in parameter units; it widens an inclusion test only",
    ("jets", "max(1.0, float(p @ p))"):
        "gauge_frame's Gram entries have terms of size O(1) and O(|p|^2)",
}


def test_every_unit_floor_is_allowed():
    found = sorted(
        (path.stem, floor)
        for path in MODULES
        for floor in _unit_floors(ast.parse(path.read_text(), filename=str(path)))
    )
    assert found == sorted(_UNIT_FLOORS)


def test_a_unit_floor_is_found():
    source = "h_scale = np.maximum(1.0, _norms(h))\nscale = max(x, 1)\nd = 1.0 + _norms(a3p)\n"
    source += "i = k + 1\nm = min(1.0, x)\n"
    assert _unit_floors(ast.parse(source)) == [
        "np.maximum(1.0, _norms(h))", "max(x, 1)", "1.0 + _norms(a3p)"
    ]


def _star_exports(module) -> set:
    """The names ``from module import *`` binds: its ``__all__``, else every public name."""
    names = getattr(module, "__all__", None)
    return set(names) if names is not None else {n for n in vars(module) if not n.startswith("_")}


def test_package_exports_are_exported_by_their_modules():
    # each name that canalgeo re-exports comes from a module whose own exports list it
    init = Path(canalgeo.__file__)
    source = {}
    for node in ast.parse(init.read_text(), filename=str(init)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source.update((alias.name, node.module) for alias in node.names)
    unexported = [
        f"{source.get(name)}.{name}"
        for name in canalgeo.__all__
        if name != "__version__"
        and (
            name not in source
            or name not in _star_exports(importlib.import_module(f"canalgeo.{source[name]}"))
        )
    ]
    assert unexported == []
