"""The library holds only what the toolkit runs.

Every public module-level function or class in ``src/qpt`` is exported in
``qpt.__all__`` or named by code outside its own body: elsewhere in the
package, in ``scripts/`` or in ``perfbench/``.  A helper that only tests
call belongs in ``tests/conftest.py``.
"""

import ast
from pathlib import Path

import qpt

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qpt"
USERS = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]


def names_in(node):
    """Every identifier ``node`` refers to: names, attributes, imports."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rpartition(".")[2]


def test_every_public_definition_is_used():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for folder in USERS
        for path in sorted(folder.glob("*.py"))
    }
    # (module-level statement, names it refers to), for every statement.
    statements = [
        (statement, set(names_in(statement)))
        for tree in trees.values()
        for statement in tree.body
    ]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in qpt.__all__:
                continue
            if not any(
                node.name in names for statement, names in statements
                if statement is not node
            ):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "public but used only by tests (or not at all): " + ", ".join(unused)
