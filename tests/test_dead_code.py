"""Code that no path uses gets deleted: every private name the package
defines is used somewhere in it."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quantldpc"


def _uses(tree):
    """Each identifier a tree reads, as a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(module):
    """(name, node) of each private module-level function, class and
    constant of a module, and of each private method of its classes."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def _unused(modules):
    """(module, name) of each private definition of ``modules`` (name ->
    parsed tree) that no code outside the definition reads."""
    uses = Counter(name for tree in modules.values() for name in _uses(tree))
    return [(module, name) for module, tree in modules.items()
            for name, node in _definitions(tree)
            if _private(name) and uses[name] == Counter(_uses(node))[name]]


def test_every_private_name_of_the_package_is_used_elsewhere_in_it():
    assert _unused({path.name: ast.parse(path.read_text())
                    for path in sorted(SRC.glob("*.py"))}) == []


def test_the_guard_finds_a_private_name_only_its_own_body_reads():
    tree = ast.parse("def _gone(n):\n    return _gone(n - 1)\n"
                     "def _kept():\n    return 1\n"
                     "_LIMIT = _kept()\n"
                     "class _Box:\n    def _idle(self):\n        return self._size\n")
    assert [name for _, name in _unused({"m": tree})] == ["_gone", "_LIMIT", "_Box", "_idle"]
