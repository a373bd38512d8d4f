"""src holds only what the package runs: every public top-level name a
module of src/gclgcn defines is read somewhere in src outside its own
definition, every optional parameter is passed by some call in src, and
every layer parameter is made by the one layer stack, pipeline.Channel."""

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


# Optional parameters that no call in src passes, each with why it stays.
UNPASSED_KEPT = {
    "pipeline.py:train.inspect": "the per-epoch hook that ROADMAP item 3's --trace will call",
}


def _optional(fn) -> set[str]:
    """fn's parameters that have a default or whose annotation admits None."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    out = {p.arg for p in positional[len(positional) - len(args.defaults):]}
    out |= {p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    for p in (*positional, *args.kwonlyargs):
        sides = (p.annotation.left, p.annotation.right) if isinstance(p.annotation, ast.BinOp) else ()
        if any(isinstance(s, ast.Constant) and s.value is None for s in sides):
            out.add(p.arg)
    return out


def _functions(tree):
    """(name a call uses, function, the positional parameters a call fills)
    for every function: a call fills a method's parameters after self or
    cls, and calls __init__ by its class's name."""
    methods = {
        fn: node.name if fn.name == "__init__" else fn.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for fn in node.body if isinstance(fn, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            positional = [p.arg for p in (*node.args.posonlyargs, *node.args.args)]
            if node in methods:
                yield methods[node], node, positional[1:]
            else:
                yield node.name, node, positional


def _calls(node, fn=None):
    """(innermost function around it, call) for every call below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield fn, child
        yield from _calls(child, child if isinstance(child, ast.FunctionDef) else fn)


def test_every_optional_parameter_is_passed_by_src():
    """A parameter with a default, or one that admits None, is passed by some
    call in src, with a value that is neither None nor another such
    parameter that no call passes. A function that src refers to other than
    by calling it, such as a dispatch table's entries, is not checked."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    functions = [(module, *f) for module, tree in trees.items() for f in _functions(tree)]
    calls = [call for tree in trees.values() for call in _calls(tree)]
    callees = {id(call.func) for _, call in calls}
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees
    }
    unpassed = {(fn, p) for _, name, fn, _ in functions if name not in referenced
                for p in _optional(fn)}
    changed = True
    while changed:
        changed = False
        for caller, call in calls:
            callee = getattr(call.func, "attr", getattr(call.func, "id", None))
            for _, name, fn, positional in functions:
                if name != callee:
                    continue
                given = [*zip(positional, call.args), *((k.arg, k.value) for k in call.keywords)]
                for p, value in given:
                    forwarded = isinstance(value, ast.Name) and (caller, value.id) in unpassed
                    none = isinstance(value, ast.Constant) and value.value is None
                    if (fn, p) in unpassed and not (forwarded or none):
                        unpassed.discard((fn, p))
                        changed = True
    names = {fn: f"{module}:{name}" for module, name, fn, _ in functions}
    assert sorted(f"{names[fn]}.{p}" for fn, p in unpassed) == sorted(UNPASSED_KEPT)
