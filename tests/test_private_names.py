"""Every top-level private name in the package is used somewhere in it.

A helper that a refactor leaves behind (defined, never called) fails here.
A name counts as used when the package's source mentions it anywhere but
its own definition: as a name, an attribute or an imported name.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ctms"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _uses(tree: ast.Module) -> list[str]:
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.append(node.id)
        elif isinstance(node, ast.Attribute):
            used.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used += [alias.name for alias in node.names]
    return used


def unused_private_names(files) -> list[str]:
    """``file:name`` for each top-level private name no file uses."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    used = {name for tree in trees.values() for name in _uses(tree)}
    return [
        f"{file}:{name}"
        for file, tree in sorted(trees.items())
        for name in _top_level_names(tree)
        if _is_private(name) and name not in used
    ]


def test_every_private_name_in_the_package_is_used():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert unused_private_names(files) == []


def test_an_unused_private_helper_is_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "_LIMIT = 3\n"
        "def _used(x):\n    return x < _LIMIT\n"
        "def _left_behind():\n    return 0\n"
        "class _Record:\n    pass\n"
        "def public(x):\n    return _used(x) and _Record\n",
        encoding="utf-8",
    )
    assert unused_private_names([module]) == ["mod.py:_left_behind"]
