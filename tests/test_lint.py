"""Dead-code lint over the package sources, using only the standard library:
no module may import a name it never uses, and no module-level private
function, class or alias may go unreferenced across ``src/dsr``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dsr"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def references(tree: ast.AST, skip: set[int] = frozenset()) -> set[str]:
    """Names read in ``tree``, as bare names, attributes or imported names,
    leaving out the nodes whose ids are in ``skip``."""
    found = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Module-level ``_name`` functions, classes and assignments."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        out += [(name, node) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = TREES[module]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not unused, f"{module}: unused imports {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_every_private_definition_is_referenced(module):
    unreferenced = []
    for name, node in private_definitions(TREES[module]):
        inside = {id(inner) for inner in ast.walk(node)}
        if not any(name in references(tree, inside) for tree in TREES.values()):
            unreferenced.append(f"{name} (line {node.lineno})")
    assert not unreferenced, f"{module}: unreferenced {unreferenced}"
