"""Static hygiene of the hquot package, with the stdlib ``ast`` (no linter).

Every name a module exports in ``__all__`` must resolve, and no module-level
import may go unused (a re-export listed in ``__all__`` counts as a use).
No module reads another hquot module's private (underscore) names, so
every module-level private function, class and constant must be read in its
own module.  No function imports from the package locally: module-level
bindings are what the benchmark's tracer rebinds.  Every public name
(``__all__`` entries and the public methods of the classes among them) is
read somewhere in the package outside its own definition, unless the
package re-exports it or ``KEEP`` names it.  In every module, every
defaulted parameter is set by some package call, unless ``KEEP_DEFAULTS``
names it: a default nobody overrides is a constant.  No function takes a
``backend`` parameter: the grid carries its difference scheme.  No module
but ``quaternion`` calls numpy's eigensolvers, and none but ``cli`` imports
``json``.
Importing ``hquot.cli`` in a fresh interpreter loads no scipy module,
every span the benchmark's tracer rebinds resolves in the package, and the
benchmark's verifier-to-proposition map matches the verifiers' reports.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hquot
from hquot import oracle

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


def _private_definitions(tree):
    """(name, line) of every private function, class and assigned name at
    module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [t.id for t in ast.walk(node)
                     if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
        else:
            continue
        yield from ((name, node.lineno) for name in names if _private(name))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_read_in_its_module(path):
    # no other module may read them, so an unread one is dead code
    tree = ast.parse(path.read_text())
    loads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = {name: line for name, line in _private_definitions(tree) if name not in loads}
    assert not unread, f"{path.name}: private names never read (name: line) {unread}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_local_package_imports(path):
    tree = ast.parse(path.read_text())
    top = set(map(id, tree.body))
    local = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level and id(node) not in top]
    assert not local, f"{path.name}: function-local package imports at lines {local}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_backend_parameter(path):
    # the grid carries the difference scheme, so no function takes one apart
    # from the grid it differentiates on
    tree = ast.parse(path.read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             and any(isinstance(a, ast.arg) and a.arg == "backend" for a in ast.walk(node.args))]
    assert not found, f"{path.name}: functions with a backend parameter at lines {found}"


EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "quaternion"],
                         ids=lambda p: p.stem)
def test_no_eigensolver_outside_quaternion(path):
    # every spectrum comes from the one kernel, quaternion.chi_eigh and its
    # eigenvalue-only form chi_eigvals
    tree = ast.parse(path.read_text())
    found = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS]
    found += [(node.lineno, alias.name) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if alias.name in EIGENSOLVERS]
    assert not found, f"{path.name}: eigensolver calls outside quaternion (line, name) {found}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "cli"], ids=lambda p: p.stem)
def test_no_json_outside_cli(path):
    # library calls return the dicts the commands write, and cli serializes
    # every report through its one _write_json
    tree = ast.parse(path.read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json"
                                                     for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json"]
    assert not found, f"{path.name}: imports json at lines {found}"


# Public names that no package code reads, kept on purpose: one reason each.
KEEP = {
    "fields.newton_transform_field": "benchmark span and the tests' pairing reference; "
                                      "goes with ROADMAP item 1",
    "fields.omega_u": "benchmark span and the whole W_u field that tests build; solve "
                      "assembles W_u block by block",
    "solver.linearize": "the whole-field operator at a given spectrum, which tests check "
                        "solve's blocked stage against",
    "solver.residual": "the whole-field residual at a given spectrum, which tests check "
                       "solve's blocked stage against and read on their own states",
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
    public method of a class among them."""
    for path in MODULES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        exported = _exported(tree)
        yield from ((f"{path.stem}.{name}", name) for name in exported)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                yield from ((f"{path.stem}.{node.name}.{f.name}", f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))


def test_every_public_name_has_a_caller():
    reads = _package_reads()
    uncalled = {q for q, name in _public_names()
                if name not in reads and name not in hquot.__all__}
    assert not uncalled - set(KEEP), f"no package code reads {sorted(uncalled - set(KEEP))}"
    assert not set(KEEP) - uncalled, f"KEEP entries with a caller: {sorted(set(KEEP) - uncalled)}"


# Defaulted parameters that no package call sets, kept on purpose: one reason each.
KEEP_DEFAULTS = {
    "quaternion.eigenvalues.route": "the realization route, the tests' reference for the complex one",
    "cli.main.argv": "console-script entry point, which reads sys.argv",
}


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
    """(qualified function name, callee name, position or None, parameter)
    of every parameter with a default, in module functions and methods (the
    position counts from the first argument a caller passes).  The callee
    name is the function's, or for ``__init__`` the class's: a call of a
    class sets the parameters of its ``__init__``."""
    owners = [(tree, "", 0)] + [(node, f"{node.name}.", 1) for node in tree.body
                                if isinstance(node, ast.ClassDef)]
    for owner, prefix, skip in owners:
        for fn in owner.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            init = isinstance(owner, ast.ClassDef) and fn.name == "__init__"
            callee = owner.name if init else fn.name
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            for i in range(first, len(args)):
                yield prefix + fn.name, callee, i - (0 if static else skip), args[i].arg
            for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if d is not None:
                    yield prefix + fn.name, callee, None, a.arg


def test_every_default_is_set_by_a_package_call():
    calls = _package_calls()
    unset = set()
    for path in MODULES:
        for qual, name, pos, param in _defaulted_params(ast.parse(path.read_text())):
            if not any(param in kws or None in kws or (pos is not None and npos > pos)
                       for npos, kws in calls.get(name, [])):
                unset.add(f"{path.stem}.{qual}.{param}")
    assert not unset - set(KEEP_DEFAULTS), \
        f"defaulted parameters no package call sets {sorted(unset - set(KEEP_DEFAULTS))}"
    assert not set(KEEP_DEFAULTS) - unset, \
        f"KEEP_DEFAULTS entries a package call sets: {sorted(set(KEEP_DEFAULTS) - unset)}"


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: every command's start-up would pay for it
    src = str(Path(hquot.__file__).parent.parent)
    code = "import sys, hquot.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]", f"import hquot.cli loads {out.strip()}"


def _perfbench(monkeypatch, name):
    """Import perfbench/<name>.py afresh, without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    for module in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    return importlib.import_module(name)


def test_benchmark_spans_resolve(monkeypatch):
    # the traced benchmark rebinds each SPANS target by its dotted name, so a
    # rename in hquot breaks it
    missing = []
    for target in _perfbench(monkeypatch, "tracer").SPANS:
        module, *path = target.split(".")
        owner = importlib.import_module(f"hquot.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(target)
    assert not missing, f"benchmark spans that do not resolve in hquot: {missing}"


def test_benchmark_proposition_map_matches_reports(monkeypatch):
    # the tracer names each verifier's span after the proposition this map
    # gives it, so the map must pair every verifier with its own reports
    propositions = _perfbench(monkeypatch, "workloads").PROPOSITIONS
    assert set(propositions.values()) == set(oracle.STANDARD_PROPOSITIONS)
    spec = oracle.SampleSpec(n=3, k=2, count=4, seed=0)
    wrong = {}
    for fn_name, proposition in propositions.items():
        fn = getattr(oracle, fn_name)
        l_indexed = len(inspect.signature(fn).parameters) == 2
        reports = fn(spec, [1]) if l_indexed else [fn(spec)]
        names = {r["proposition"] for r in reports}
        if names != {proposition}:
            wrong[fn_name] = sorted(names)
    assert not wrong, f"verifiers whose reports name another proposition: {wrong}"
