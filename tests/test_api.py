"""Static checks of the package's public names and imports.

The package has no linter; these two checks catch what one would: a stale
``__all__`` entry and an import left behind when its last use is deleted.
"""

import ast
import importlib
import pathlib

import pytest

import oneshot_qcap

PACKAGE = pathlib.Path(oneshot_qcap.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds by import, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"oneshot_qcap.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    keep = _used_names(tree) | _exported_names(tree)
    unused = {n: line for n, line in _imported_names(tree).items()
              if n not in keep}
    assert not unused, f"{name} imports unused names {unused}"


def test_package_exports_are_public_names_of_their_modules():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"oneshot_qcap.{node.module}")
            private = [a.name for a in node.names if a.name not in module.__all__]
            assert not private, f"oneshot_qcap re-exports {private} of {node.module}"
