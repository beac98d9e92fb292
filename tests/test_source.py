"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cescop"


def _unread_parameters(path: Path) -> list:
    """(function, parameter) for each parameter of a public module-level
    function in path that its body never reads."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.name, p) for p in params if p not in read]
    return found


def test_public_functions_read_every_parameter():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    unread = {path.name: _unread_parameters(path) for path in paths}
    assert {k: v for k, v in unread.items() if v} == {}
