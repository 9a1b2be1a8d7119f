"""Static hygiene of the hquot package, with the stdlib ``ast`` (no linter).

Every name a module exports in ``__all__`` must resolve, and no module-level
import may go unused (a re-export listed in ``__all__`` counts as a use).
No module reads another hquot module's private (underscore) names, and no
function imports from the package locally: module-level bindings are what
the benchmark's tracer rebinds.
"""

import ast
import importlib
from pathlib import Path

import pytest

import hquot

MODULES = sorted(Path(hquot.__file__).parent.glob("*.py"))


def _module_name(path):
    return "hquot" if path.stem == "__init__" else f"hquot.{path.stem}"


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _module_imports(tree):
    """Names bound by top-level import statements (``__future__`` excluded)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_resolve(path):
    module = importlib.import_module(_module_name(path))
    names = _exported(ast.parse(path.read_text()))
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names that do not resolve: {missing}"
    assert len(names) == len(set(names)), f"{path.name}: duplicate __all__ entries"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_exported(tree))
    unused = {name: line for name, line in _module_imports(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused module-level imports (name: line) {unused}"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_names_of_other_modules(path):
    tree = ast.parse(path.read_text())
    modules = set()  # local names bound to hquot modules
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "hquot"):
            for alias in node.names:
                if node.module is None or node.module == "hquot":
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    reads.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            reads.append((node.lineno, f"{node.value.id}.{node.attr}"))
    assert not reads, f"{path.name}: private names of other hquot modules (line, name) {reads}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_local_package_imports(path):
    tree = ast.parse(path.read_text())
    top = set(map(id, tree.body))
    local = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level and id(node) not in top]
    assert not local, f"{path.name}: function-local package imports at lines {local}"
