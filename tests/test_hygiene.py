"""Static checks of the package source, with the standard library's ast.

No linter ships with the test dependencies, so these keep three promises of
the module layout: a module imports nothing it does not use (the package
``__init__`` exists to re-export, so it is exempt), every name listed in
``__all__`` is defined at module level, and every private module-level
function or class is used by the package itself, so a test-only oracle
cannot stay in library code.  A fourth promise, that the runtime needs numpy
only, is also checked in a fresh interpreter: scipy stays a test dependency,
and ``import lipshift`` loads neither the process pool, ``numpy.random``,
``numpy.ma``, ``subprocess`` nor ``hashlib``.  A fifth is that uniforms
become design points in one place: no function but ``densities.sample``
calls a design's ``.ppf``, and points
are clipped to [0, 1] in one place: no design's unit CDF clips, so only
``DesignDistribution``'s density and CDF do.  A sixth,
also in a fresh interpreter, is that a run stays lean: a cell in a forked
worker imports no module, the report imports no ``numpy.ma``, and a run
loads neither ``multiprocessing`` nor ``concurrent.futures``, since the
harness forks its workers itself.  A seventh is that a function has no
option nobody sets: every optional parameter of a function in ``src/`` is
passed by some call in ``src/`` or ``perfbench/``.  An eighth is that the C
kernels are optional: where they cannot be built, ``import lipshift`` warns
once, naming the reason, and the Python sweep, PAVA and empirical spread
give the same bits.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lipshift"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PERFBENCH = SRC.parent.parent / "perfbench"


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


def _optional_parameters(tree):
    """(function, parameter, positional slot or None) for each parameter with
    a default of each function in tree; a method's slots do not count self."""
    found = []
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
               if isinstance(f, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        shift = 1 if id(fn) in methods else 0
        found += [(fn.name, a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
        found += [(fn.name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return found


def _passes(call, name, param, slot):
    """Whether call, if it calls a function called name, passes param."""
    func = call.func
    if getattr(func, "id", None) != name and getattr(func, "attr", None) != name:
        return False
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return slot is not None and (len(call.args) > slot
                                 or any(isinstance(a, ast.Starred) for a in call.args))


def test_optional_parameters_are_passed():
    # an option that no caller sets is a constant: every optional parameter
    # of a function in src/ is passed by some call in src/ or perfbench/
    calls = [n for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]
             for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
    unset = [f"{path.stem}.{name}({param})" for path in MODULES
             for name, param, slot in _optional_parameters(ast.parse(path.read_text()))
             if not any(_passes(c, name, param, slot) for c in calls)]
    assert unset == [], f"optional parameters that no call in src/ or perfbench/ passes: {unset}"


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


def _fresh(code):
    """stdout of code run in a fresh interpreter that imports lipshift from src/."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# modules that `import lipshift` must not load, by their name prefixes: scipy
# is a test dependency, no run needs the pool modules, the harness imports
# numpy's only when a run needs them, and lipfit runs the compiler
# (subprocess) only when the C kernels are not built yet, since each would
# add to the time of every import
FORBIDDEN_AT_IMPORT = {"scipy": ("scipy",),
                       "process_pool": ("concurrent.futures.process", "multiprocessing"),
                       "numpy.random": ("numpy.random",), "numpy.ma": ("numpy.ma",),
                       "subprocess": ("subprocess",), "hashlib": ("hashlib",)}


@pytest.mark.parametrize("name", sorted(FORBIDDEN_AT_IMPORT))
def test_import_loads_none_of(name):
    import lipshift.lipfit  # noqa: F401  builds the C sweep if this checkout has none yet
    prefixes = FORBIDDEN_AT_IMPORT[name]
    code = ("import sys, lipshift, lipshift.cli; "
            f"print(sorted(m for m in sys.modules for p in {prefixes!r} "
            "if m == p or m.startswith(p + '.')))")
    assert _fresh(code) == "[]"


def test_python_sweep_when_no_kernel_builds(tmp_path):
    # a copy of the package with no built kernel, imported with no C compiler
    # on PATH: one warning naming the reason, and the Lipschitz and isotonic
    # fits and the empirical spread with the kernel path's bits
    pkg = tmp_path / "lipshift"
    pkg.mkdir()
    for path in [*SRC.glob("*.py"), SRC / "_sweep.c"]:
        shutil.copy(path, pkg)
    fit = """
import zlib
import numpy as np
from lipshift.lipfit import RegressionSample, fit_isotonic_lse, fit_lipschitz_lse
from lipshift.spread import EmpiricalSpread
rng = np.random.default_rng(5)
sample = RegressionSample(rng.random(3000), rng.standard_normal(3000))
fit = fit_lipschitz_lse(sample, 0.5)
iso = fit_isotonic_lse(sample)
spread = EmpiricalSpread(np.round(sample.x * 64) / 64).at(np.linspace(-0.5, 1.5, 301))
print(zlib.crc32(fit.values.tobytes()), fit.objective.hex(), fit.kkt_residual.hex(),
      zlib.crc32(iso.tobytes()), zlib.crc32(spread.tobytes()))
"""
    code = f"""
import os, sys, warnings
os.environ["PATH"] = ""
sys.path.insert(0, {str(tmp_path)!r})
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import lipshift
from lipshift import lipfit
assert lipfit.__file__.startswith({str(tmp_path)!r}) and lipfit._KERNEL is None
print([str(w.message) for w in caught])
""" + fit
    warned, fallback = _fresh(code).splitlines()
    (message,) = ast.literal_eval(warned)
    assert "No such file or directory: 'cc'" in message and "Python sweep" in message
    assert list(pkg.glob("_sweep-*")) == []  # no build left behind
    kernel = _fresh("from lipshift import lipfit\nassert lipfit._KERNEL is not None\n" + fit)
    assert fallback == kernel


def test_kernel_build_removes_stale_builds(tmp_path):
    # a copy of the package whose folder holds the builds of two older
    # kernel sources and a concurrent builder's unfinished build: the import
    # builds the kernel for this source and removes only the older builds,
    # and so does an import that finds the current build already there
    pkg = tmp_path / "lipshift"
    pkg.mkdir()
    for path in [*SRC.glob("*.py"), SRC / "_sweep.c"]:
        shutil.copy(path, pkg)
    stale = ["_sweep-4534f6fc.so", "_sweep-00000000.so"]
    kept = ["_sweep-4534f6fc-1234.so", "_sweep-old.so"]
    for name in stale + kept:
        (pkg / name).write_bytes(b"")
    code = f"""
import sys
sys.path.insert(0, {str(tmp_path)!r})
from lipshift import lipfit
assert lipfit.__file__.startswith({str(tmp_path)!r}) and lipfit._KERNEL is not None
print(lipfit._KERNEL._name)
"""
    built = os.path.basename(_fresh(code))
    assert re.fullmatch(r"_sweep-[0-9a-f]{8}\.so", built) and built not in stale
    assert sorted(p.name for p in pkg.glob("_sweep-*")) == sorted([built, *kept])
    # a second import loads that build and removes nothing
    assert os.path.basename(_fresh(code)) == built
    assert sorted(p.name for p in pkg.glob("_sweep-*")) == sorted([built, *kept])
    # older builds beside the current one: loading it removes them, no rebuild
    mtime = (pkg / built).stat().st_mtime_ns
    for name in stale:
        (pkg / name).write_bytes(b"")
    assert os.path.basename(_fresh(code)) == built
    assert sorted(p.name for p in pkg.glob("_sweep-*")) == sorted([built, *kept])
    assert (pkg / built).stat().st_mtime_ns == mtime


# a run with every estimator and every loss, and a target design
RUN = """
import sys
from lipshift import harness
cfg = harness.ExperimentConfig.from_json({
    "distribution": {"kind": "uniform"}, "target_distribution": {"kind": "power", "alpha": 1.0},
    "n_grid": [32, 64, 128], "m_grid": [16, 32, 64], "replicates": 2,
    "estimators": sorted(harness.ESTIMATORS), "losses": sorted(harness.LOSSES)})
"""


def test_forked_cell_imports_nothing():
    # the wrapper is in place before the harness forks, so every worker runs it;
    # a module that a cell imports, each worker imports again on every run
    code = RUN + """
inner = harness._replicate_losses
def checked(*args):
    before = set(sys.modules)
    out = inner(*args)
    new = sorted(set(sys.modules) - before)
    if new:
        raise ImportError(f"the cell imported {new}")
    return out
harness._replicate_losses = checked
print(harness.run_rate_experiment(cfg).metadata["failures"])
"""
    assert _fresh(code) == "{}"


def test_run_imports_no_process_pool():
    # the workers are forked directly: a run loads no pool machinery
    code = RUN + """
harness.run_rate_experiment(cfg)
print(sorted(m for m in sys.modules for p in ("multiprocessing", "concurrent.futures")
             if m == p or m.startswith(p + ".")))
"""
    assert _fresh(code) == "[]"


def test_report_imports_no_numpy_ma():
    code = RUN + """
harness.run_rate_experiment(cfg)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    assert _fresh(code) == "[]"


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


def _clips(call):
    """Whether call clips to [0, 1]: `_clip01`, any `clip`, a min or max
    against a float 0.0 or 1.0, or a design's clipping `.cdf`/`.density`."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    bound = any(isinstance(a, ast.Constant) and type(a.value) is float and a.value in (0.0, 1.0)
                for a in call.args)
    return (name in ("_clip01", "clip", "cdf", "density")
            or name in ("min", "max", "minimum", "maximum") and bound)


def test_unit_cdfs_do_not_clip():
    # each design writes its CDF for points already in [0, 1]; the clip
    # lives in DesignDistribution.cdf/.density alone
    tree = ast.parse((SRC / "densities.py").read_text())
    scopes = [(top.name, top) for top in tree.body if isinstance(top, ast.FunctionDef)]
    scopes += [(f"{top.name}.{fn.name}", fn) for top in tree.body if isinstance(top, ast.ClassDef)
               for fn in top.body if isinstance(fn, ast.FunctionDef)]
    callers = sorted(name for name, fn in scopes
                     if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_clip01"
                            for n in ast.walk(fn)))
    assert callers == ["DesignDistribution.cdf", "DesignDistribution.density"]
    # the unit CDF each constructor passes to DesignDistribution, by name or as a lambda
    unit_cdfs = []
    for name, top in scopes:
        nested = {f.name: f for f in ast.walk(top) if isinstance(f, ast.FunctionDef)}
        for call in ast.walk(top):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "DesignDistribution":
                arg = {k.arg: k.value for k in call.keywords}.get("unit_cdf") or call.args[2]
                unit_cdfs.append((name, nested[arg.id] if isinstance(arg, ast.Name) else arg))
    kinds = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_KINDS")
    assert sorted(name for name, _ in unit_cdfs) == sorted(k.value for k in kinds.keys)
    clipping = [f"{name}:{n.lineno}" for name, fn in unit_cdfs for n in ast.walk(fn)
                if isinstance(n, ast.Call) and _clips(n)]
    assert clipping == [], f"unit CDFs that clip to [0, 1]: {clipping}"
