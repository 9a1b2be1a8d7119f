"""Static hygiene of the hquot package, with the stdlib ``ast`` (no linter).

Every name a module exports in ``__all__`` must resolve, and no module-level
import may go unused (a re-export listed in ``__all__`` counts as a use).
No module reads another hquot module's private (underscore) names, and no
function imports from the package locally: module-level bindings are what
the benchmark's tracer rebinds.  Every public name (``__all__`` entries and
public ``QMatrix`` methods) is read somewhere in the package outside its own
definition, unless the package re-exports it or ``KEEP`` names it.  In the
numerical modules, every defaulted parameter is set by some package call,
unless ``KEEP_DEFAULTS`` names it: a default nobody overrides is a constant.
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


# Public names that no package code reads, kept on purpose: one reason each.
KEEP = {
    "fields.simultaneous_diagonalize": "README feature; tests check C^H M C is diagonal",
    "fields.gradient_alpha_pairing": "README feature; tests check it against Newton transforms",
    "fields.newton_transform_field": "README feature and a benchmark span (perfbench/tracer.py)",
    "QMatrix.identity": "unit of the exported QMatrix algebra",
    "QMatrix.conj_transpose": "adjoint of the exported QMatrix algebra",
    "QMatrix.entry": "reads a quaternion entry of an exported QMatrix",
}


def _package_reads():
    """Names the package reads: loaded names and attributes, and names one
    module imports from another (the package's re-exports left out)."""
    reads = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.stem != "__init__":
                reads.update(alias.name for alias in node.names)
    return reads


def _public_names():
    """(qualified name, name) of every __all__ entry of a submodule and every
    public QMatrix method."""
    for path in MODULES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        yield from ((f"{path.stem}.{name}", name) for name in _exported(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "QMatrix":
                yield from ((f"QMatrix.{f.name}", f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))


def test_every_public_name_has_a_caller():
    reads = _package_reads()
    uncalled = {q for q, name in _public_names()
                if name not in reads and name not in hquot.__all__}
    assert not uncalled - set(KEEP), f"no package code reads {sorted(uncalled - set(KEEP))}"
    assert not set(KEEP) - uncalled, f"KEEP entries with a caller: {sorted(set(KEEP) - uncalled)}"


# Defaulted parameters that no package call sets, kept on purpose: one reason each.
KEEP_DEFAULTS = {
    "fields.simultaneous_diagonalize.tol": "README feature without a package caller",
}
DEFAULT_MODULES = ("grid", "fields", "solver", "probe", "symfun")


def _package_calls():
    """Callee name -> [(positional argument count, keyword names)] of every
    call in the package; a starred argument counts as every position, and a
    ``**`` argument as every keyword (the name None)."""
    calls = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            npos = float("inf") if starred else len(node.args)
            calls.setdefault(name, []).append((npos, {k.arg for k in node.keywords}))
    return calls


def _defaulted_params(tree):
    """(qualified function name, function name, position or None, parameter)
    of every parameter with a default, in module functions and methods (the
    position counts from the first argument a caller passes)."""
    owners = [(tree, "", 0)] + [(node, f"{node.name}.", 1) for node in tree.body
                                if isinstance(node, ast.ClassDef)]
    for owner, prefix, skip in owners:
        for fn in owner.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            for i in range(first, len(args)):
                yield prefix + fn.name, fn.name, i - (0 if static else skip), args[i].arg
            for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if d is not None:
                    yield prefix + fn.name, fn.name, None, a.arg


def test_every_default_is_set_by_a_package_call():
    calls = _package_calls()
    unset = set()
    for path in MODULES:
        if path.stem not in DEFAULT_MODULES:
            continue
        for qual, name, pos, param in _defaulted_params(ast.parse(path.read_text())):
            if not any(param in kws or None in kws or (pos is not None and npos > pos)
                       for npos, kws in calls.get(name, [])):
                unset.add(f"{path.stem}.{qual}.{param}")
    assert not unset - set(KEEP_DEFAULTS), \
        f"defaulted parameters no package call sets {sorted(unset - set(KEEP_DEFAULTS))}"
    assert not set(KEEP_DEFAULTS) - unset, \
        f"KEEP_DEFAULTS entries a package call sets: {sorted(set(KEEP_DEFAULTS) - unset)}"
