"""Every public name in src/lidar_edge is used by the program itself or by
the acceptance suite; unit tests alone do not keep a name alive. A public
method (not a property) counts as used only where it is called, x.name(...),
so an attribute of the same name elsewhere does not keep it alive."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lidar_edge"
EXEMPT = {"cli.main"}  # the console script


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def is_property(f: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in f.decorator_list)


def defined(module: str, tree: ast.Module):
    """(qualified name, name, is a method) of the public top-level
    functions, classes and constants of a module, and of the methods and
    properties of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((f"{module}.{node.name}.{f.name}", f.name, not is_property(f))
                        for f in node.body if isinstance(f, ast.FunctionDef))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        yield from ((f"{module}.{t.id}", t.id, False) for t in targets if isinstance(t, ast.Name))


def loaded(tree: ast.Module):
    """The names a module reads: loaded names and attributes, and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def called(tree: ast.Module):
    """The method names a module calls, as x.name(...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.func.attr


def test_every_public_name_is_used():
    modules = {p.stem: parse(p) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    readers = [*modules.values(), parse(ROOT / "tests" / "test_acceptance.py")]
    used = {name for tree in readers for name in loaded(tree)}
    calls = {name for tree in readers for name in called(tree)}
    dead = [qualified for module, tree in modules.items()
            for qualified, name, method in defined(module, tree)
            if not name.startswith("_") and name not in (calls if method else used)
            and qualified not in EXEMPT]
    assert not dead, f"nothing in the program or the acceptance suite uses: {', '.join(dead)}"
