"""src holds only what the package runs: every public top-level name a
module of src/gclgcn defines is read somewhere in src outside its own
definition, and every layer parameter is made by the one layer stack,
pipeline.Channel."""

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


def _public(tree) -> list[str]:
    """The names a module's top-level statements define that do not start
    with an underscore."""
    return [name for stmt in tree.body for name in sorted(_defined(stmt))
            if not name.startswith("_")]


def test_every_public_name_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for stmt in tree.body:
            used |= _read(stmt) - _defined(stmt)
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _public(tree)
        if name not in used
    ]
    assert unused == []


def _parameter_calls(node, scope=()):
    """Where each call of autodiff.parameter below node is made: the
    constant name it gives the tensor, or else the class and function it
    sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            callee = getattr(child.func, "attr", getattr(child.func, "id", None))
            if callee == "parameter":
                named = [k.value.value for k in child.keywords
                         if k.arg == "name" and isinstance(k.value, ast.Constant)]
                yield named[0] if named else ".".join(scope[:2])
        inner = (*scope, child.name) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield from _parameter_calls(child, inner)


def test_parameters_are_made_only_by_channel_build_and_for_the_centroids():
    sites = {
        f"{path.name}:{site}"
        for path in sorted(SRC.glob("*.py"))
        for site in _parameter_calls(ast.parse(path.read_text()))
    }
    assert sorted(sites) == ["pipeline.py:Channel.build", "pipeline.py:centroids"]
