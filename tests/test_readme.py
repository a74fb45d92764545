"""README's python blocks run in order in one namespace, and the literal values
their comments claim (``expr  # 'elliptic'``) are the values they compute."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
_NO_CLAIM = object()


def _claim(line: str):
    """The literal a line's comment states as its value, or ``_NO_CLAIM``."""
    _, sep, comment = line.partition("#")
    if not sep:
        return _NO_CLAIM
    head = comment.strip().split("  ")[0]
    try:
        return ast.literal_eval(head)
    except (ValueError, SyntaxError):
        return _NO_CLAIM


def test_readme_python_blocks():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            claim = _claim(lines[stmt.end_lineno - 1])
            if claim is not _NO_CLAIM:
                assert value == claim, lines[stmt.end_lineno - 1]
