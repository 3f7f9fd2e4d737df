"""Static checks of the package source, with the standard library's ast.

No linter ships with the test dependencies, so these keep three promises of
the module layout: a module imports nothing it does not use (the package
``__init__`` exists to re-export, so it is exempt), every name listed in
``__all__`` is defined at module level, and every private module-level
function or class is used by the package itself, so a test-only oracle
cannot stay in library code.  A fourth promise, that the runtime needs numpy
only, is also checked in a fresh interpreter: scipy stays a test dependency.
A fifth is that uniforms become design points in one place: no function but
``densities.sample`` calls a design's ``.ppf``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lipshift"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """Names bound by module-level imports, except ``from __future__``."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _defined_names(tree):
    """Names bound at module level by definitions, assignments and imports."""
    names = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def test_private_definitions_used_in_source():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    private = [(name, node.name) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    unused = [f"{name}:{fn}" for name, fn in private if fn not in used]
    assert unused == [], f"private definitions nothing in src/ uses: {unused}"


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"densities", "harness", "lipfit", "spread", "transfer"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_defined(path):
    tree = ast.parse(path.read_text())
    missing = [name for name in _all_names(tree) if name not in _defined_names(tree)]
    assert missing == [], f"{path.name} lists undefined names {missing} in __all__"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_scipy_import_anywhere_in_source(path):
    tree = ast.parse(path.read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_import_loads_no_scipy():
    code = ("import sys, lipshift, lipshift.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    # the harness imports its process pool when a run starts, not at import
    code = ("import sys, lipshift, lipshift.cli; "
            "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process' "
            "or m.split('.')[0] == 'multiprocessing'))")
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.strip() == "[]"


def test_only_sample_calls_ppf():
    callers = []
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            calls = [n for n in ast.walk(top) if isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Attribute) and n.func.attr == "ppf"]
            if calls:
                name = getattr(top, "name", f"line {top.lineno}")
                callers += [f"{path.stem}.{name}:{c.lineno}" for c in calls]
    assert [c.split(":")[0] for c in callers] == ["densities.sample"], callers
