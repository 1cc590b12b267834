import ast
from collections import Counter
from pathlib import Path

import majlat

PACKAGE = Path(majlat.__file__).parent


def test_exports_are_sorted_unique_and_resolve():
    names = majlat.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(majlat, name)]
    assert missing == []


def _module_level_names(tree: ast.Module):
    """Names of the functions, classes and constants a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_every_module_level_name_is_used_in_the_package():
    """No dead helpers: each top-level function, class and constant of ``majlat``,
    dunders aside, is read somewhere in the package: loaded by name, reached as an
    attribute, or imported (``__init__``'s imports are the public API)."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.alias):
                used[node.name] += 1
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in _module_level_names(tree)
              if not name.startswith("__") and used[name] == 0]
    assert unused == []
