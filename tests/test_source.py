"""Static checks on the package source: exports exist, imports are used and at top level."""

import ast
from pathlib import Path

import pytest

import rspde

MODULES = sorted(Path(rspde.__file__).parent.glob("*.py"))


def top_level_names(tree):
    """Names bound at module level by definitions, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(imported_names(node))
    return names


def imported_names(node):
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    tree = ast.parse(path.read_text())
    missing = set(exported(tree)) - top_level_names(tree)
    assert not missing, f"{path.name}: __all__ names undefined {sorted(missing)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported(tree))
    unused = [name for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                  isinstance(node, ast.ImportFrom) and node.module == "__future__")
              for name in imported_names(node) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_top_level(path):
    tree = ast.parse(path.read_text())
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert not nested, f"{path.name}: imports below module level at lines {nested}"
