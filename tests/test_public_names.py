"""Every name a ``sharctool`` module lists in ``__all__`` is used by the package, its scripts or the benchmark.

A name that only tests use belongs in ``tests/reference.py`` as an oracle, not in the package. A use is a
name, an attribute, an imported name, or a string constant other than a docstring or an ``__all__`` entry, so
a name the benchmark binds by its string (``perfbench/tracer.py``'s ``TRACED``) counts. The benchmark's own
tests are tests, so they are not read.

Every field a private class of the package annotates is also read somewhere in ``src/`` as an attribute, so no
value is built that nothing reads. Public dataclasses are written out whole (through ``asdict``), so they are
exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sharctool"


def _sources() -> list[Path]:
    paths = [path for top in ("src", "scripts", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))]
    return [path for path in paths if "tests" not in path.relative_to(ROOT).parts]


def _all_entries(tree: ast.Module) -> list[ast.expr]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(node.value.elts)
    return []


def _docstrings(tree: ast.Module) -> list[ast.expr]:
    owners = [node for node in ast.walk(tree)
              if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return [owner.body[0].value for owner in owners
            if owner.body and isinstance(owner.body[0], ast.Expr) and isinstance(owner.body[0].value, ast.Constant)]


def _uses(tree: ast.Module) -> set[str]:
    skipped = {id(node) for node in _docstrings(tree) + _all_entries(tree)}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, ast.alias):
            uses.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skipped:
            uses.add(node.value)
    return uses


def test_every_public_name_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in _sources()}
    used = set().union(*map(_uses, trees.values()))
    public = [(path.stem, entry.value) for path, tree in trees.items() if path.parent == PACKAGE
              for entry in _all_entries(tree)]
    assert len(public) > 50  # every module's __all__ was read
    unused = [f"{module}.{name}" for module, name in public if name not in used]
    assert not unused, f"public names that only tests use (move them to tests/reference.py): {unused}"


def test_every_private_class_field_is_read_in_src():
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [(cls.name, stmt.target.id) for cls in nodes if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
              for stmt in cls.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert len(fields) > 20  # the private classes were read
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert not unread, f"private class fields that nothing in src/ reads: {unread}"
