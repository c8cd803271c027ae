"""Static checks of the package's public names, private names and imports.

The package has no linter; these checks catch what one would: a stale
``__all__`` entry, an import left behind when its last use is deleted, a
private helper left behind when its last caller is, and a function that
reads a global name nothing binds.  One more check parses every source file
of the repository as Python 3.10, the oldest version it supports.
"""

import ast
import builtins
import functools
import importlib
import pathlib
import symtable

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


def _private_definitions(body: list[ast.stmt]):
    """Each private function, class and constant that the statements
    ``body`` define, with the statement that defines it."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((n, node) for n in names
                    if n.startswith("_") and not n.startswith("__"))


def _references(node: ast.AST) -> set[str]:
    """The names ``node`` reads: bare, as attributes, or imported."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


@functools.cache
def _package_statements() -> dict[str, list[tuple[ast.stmt, set[str]]]]:
    """Per module, each top-level statement with the names it reads."""
    return {p.stem: [(node, _references(node)) for node in ast.parse(p.read_text()).body]
            for p in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("name", MODULES)
def test_every_private_name_is_used(name):
    statements = _package_statements()
    body = [node for node, _ in statements[name]]
    unused = [private for private, defined in _private_definitions(body)
              if not any(private in refs for stmts in statements.values()
                         for node, refs in stmts if node is not defined)]
    assert not unused, f"{name} defines private names nothing uses {unused}"


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"oneshot_qcap.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _scopes(table: symtable.SymbolTable):
    """Every function, class and comprehension scope nested in ``table``."""
    for child in table.get_children():
        yield child
        yield from _scopes(child)


@pytest.mark.parametrize("name", MODULES)
def test_every_global_a_function_reads_is_bound(name):
    # A module's own statements run on import; a function's globals are
    # looked up only when it runs, so a renamed helper fails only there.
    module = importlib.import_module(f"oneshot_qcap.{name}")
    path = PACKAGE / f"{name}.py"
    top = symtable.symtable(path.read_text(), str(path), "exec")
    unbound = sorted({(scope.get_name(), sym.get_name()) for scope in _scopes(top)
                      for sym in scope.get_symbols()
                      if sym.is_global() and sym.is_referenced()
                      and not hasattr(module, sym.get_name())
                      and not hasattr(builtins, sym.get_name())})
    assert not unbound, f"{name} reads unbound globals (scope, name) {unbound}"


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


REPO = pathlib.Path(__file__).resolve().parents[1]
SOURCE_DIRS = ("src", "tests", "bench", "tools", "demos")


def test_every_source_file_parses_as_python_3_10():
    """Python 3.10 is the ``requires-python`` floor.  This checks syntax
    only, through the parser's ``feature_version``: it does not check that
    the standard-library names a file uses exist in 3.10."""
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
    paths = sorted(p for d in SOURCE_DIRS for p in (REPO / d).rglob("*.py"))
    assert len(paths) > 30
    failed = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(REPO)}:{exc.lineno}: {exc.msg}")
    assert not failed, failed
