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


def _class_members(tree: ast.Module):
    """``Class.name`` of each method and property of a module's top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


# Public names that nothing in the package calls, kept for library users; README's
# "Kept for library users" list names the same ones.
KEEP = {
    "apply_two_outcome",
    "intermediate_state",
    "kraus_diagonals",
    "least_concave_majorant",
    "majorizes_margin",
    "monotones",
    "partial_sum_margins",
    "uniform",
}
README = PACKAGE.parent.parent / "README.md"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _uses() -> Counter:
    """How often each name is read in the package outside ``__init__``: loaded by
    name, reached as an attribute or imported."""
    used = Counter()
    for module, tree in TREES.items():
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.alias):
                used[node.name] += 1
    return used


def test_every_module_level_name_is_used_in_the_package():
    """No dead helpers: each top-level function, class and constant of ``majlat``,
    dunders aside, is read somewhere in the package, outside ``__init__``.
    ``__init__``'s imports are no use, so a public name nothing calls must be on
    the keep-list."""
    used = _uses()
    defined = {name for tree in TREES.values() for name in _module_level_names(tree)}
    defined |= {member for tree in TREES.values() for member in _class_members(tree)}
    unused = [f"{module}: {name}" for module, tree in TREES.items()
              for name in _module_level_names(tree)
              if not name.startswith("__") and used[name] == 0 and name not in KEEP]
    assert unused == []
    assert KEEP <= defined


def test_every_method_and_property_is_used_in_the_package():
    """No dead methods: each method and property of a package class, dunders aside,
    is read by its name somewhere in the package outside ``__init__``, or is on the
    keep-list as ``Class.name``."""
    used = _uses()
    unused = [f"{module}: {member}" for module, tree in TREES.items()
              for member in _class_members(tree)
              if not (name := member.split(".")[1]).startswith("__") and used[name] == 0
              and member not in KEEP]
    assert unused == []


def test_no_kept_name_has_a_caller_in_the_package():
    """The keep-list holds only names that nothing in the package reads: a kept name
    that gains a caller leaves it, so the list cannot go stale."""
    used = _uses()
    called = sorted(name for name in KEEP if used[name.split(".")[-1]])
    assert called == []


def test_the_keep_list_is_readmes_list():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Kept for library users", 1)[1].split("\n#", 1)[0]
    listed = {line.split("`")[1] for line in section.splitlines() if line.startswith("- `")}
    assert listed == KEEP
