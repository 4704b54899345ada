"""No field of a record is assigned after its ``__init__``.

Records are plain ``__slots__`` classes (``algebra.FieldEquality``), so
nothing at run time refuses a store to a field; this walk of the package's
syntax trees does instead.  Outside an ``__init__`` the only attribute
stores are the two attributes ``object_cache`` puts on its wrapper and the
counters of ``cli._Tally``, and no code calls ``setattr`` or
``__setattr__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stonecheck"

# (module, enclosing function's qualified name, store target)
ALLOWED = {
    ("algebra", "object_cache", "wrapper.slot"),
    ("algebra", "object_cache", "wrapper.cache_info"),
    ("cli", "_Tally.add", "self.instances"),
    ("cli", "_Tally.add", "self.checks"),
    ("cli", "_Tally.add", "self.passed"),
    ("cli", "_Tally.add", "self.due"),
}


def attribute_stores(tree: ast.Module) -> list[tuple[str, str, int]]:
    """Each attribute store or delete outside an ``__init__``: the qualified
    name of the function it is in, its target, and its line."""
    found = []

    def walk(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.ctx, (ast.Store, ast.Del))
                and scope[-1:] != ("__init__",)
            ):
                found.append((".".join(scope), ast.unparse(child), child.lineno))
            walk(child, scope)

    walk(tree, ())
    return found


def setattr_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """The line of each ``setattr`` name and ``__setattr__`` attribute, with it."""
    return sorted(
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "setattr"
        or isinstance(node, ast.Attribute) and node.attr == "__setattr__"
    )


def trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_only_the_listed_attributes_are_stored_outside_an_init():
    stores = {
        (module, scope, target): line
        for module, tree in trees().items()
        for scope, target, line in attribute_stores(tree)
    }
    assert set(stores) == ALLOWED, {k: v for k, v in stores.items() if k not in ALLOWED}


def test_no_code_calls_setattr():
    assert {module: setattr_calls(tree) for module, tree in trees().items() if setattr_calls(tree)} == {}


@pytest.mark.parametrize("source, found", [
    ("def f(hom):\n    hom.table = ()\n", [("f", "hom.table", 2)]),
    ("class C:\n    def g(self):\n        del self.x\n", [("C.g", "self.x", 3)]),
    ("class C:\n    def __init__(self):\n        self.x = 1\n", []),
    ("def f(a):\n    a.n += 1\n", [("f", "a.n", 2)]),
    ("def f(a):\n    a.b.c = 1\n", [("f", "a.b.c", 2)]),
])
def test_the_walk_finds_every_store_outside_an_init(source, found):
    assert attribute_stores(ast.parse(source)) == found


def test_the_walk_finds_every_setattr():
    source = "object.__setattr__(r, 'x', 1)\nsetattr(r, 'x', 1)\nf = setattr\n"
    assert [line for line, _ in setattr_calls(ast.parse(source))] == [1, 2, 3]
