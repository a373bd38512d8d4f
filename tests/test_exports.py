"""src holds only what the package runs: every name a module of src/gclgcn
lists in __all__ is read somewhere in src outside its own definition."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gclgcn"


def _defined(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _read(stmt) -> set[str]:
    """Names and attribute names read anywhere in a statement."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _exported(tree) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _defined(stmt) == {"__all__"}:
            return [elt.value for elt in stmt.value.elts]
    return []


def test_every_exported_name_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for stmt in tree.body:
            used |= _read(stmt) - _defined(stmt)
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _exported(tree)
        if name not in used
    ]
    assert unused == []
