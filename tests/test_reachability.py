"""Every public name of the package is reached from a user path.

A user path is the package itself (the CLI and `selftest` live there), a
script under `scripts/` or the benchmark under `perfbench/`.  Each public
module-level function and class of `src/hopfgen`, and each public method
name, must occur in one of them somewhere other than its own `def`: as a
name, an attribute or an imported name.  Code that only `tests/` calls is
flagged.

The check is by name.  Methods that share a name, such as the `to_json`
methods of the group, the algebra and the cocycle, are out of its reach:
one reached method keeps every method of that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfgen"


def _trees(*dirs):
    return {p: ast.parse(p.read_text()) for d in dirs for p in sorted(d.rglob("*.py"))}


def _defined(trees):
    """(file, name) for each public module-level def and class and each
    public method."""
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path, item.name
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name


def _used(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_name_is_reached_from_a_user_path():
    package = _trees(PACKAGE)
    used = _used({**package, **_trees(ROOT / "scripts", ROOT / "perfbench")})
    unreached = sorted(
        f"{path.name}:{name}"
        for path, name in _defined(package)
        if not name.startswith("_") and name not in used
    )
    assert unreached == []
