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
are clipped to [0, 1] in one place: only ``DesignDistribution``'s density
and CDF call ``_clip01``.  A sixth,
also in a fresh interpreter, is that a run stays lean: a cell in a forked
worker imports no module, the report imports no ``numpy.ma``, and a run
loads neither ``multiprocessing`` nor ``concurrent.futures``, since the
harness forks its workers itself; and the run and its cells name no
loss, so no loss gets a code path of its own.  A seventh is that a
function has no option nobody sets: every optional parameter of a
function in ``src/`` is passed by some call in ``src/`` or
``perfbench/``.  An eighth is that the C
kernels are required: where they cannot be built, ``import lipshift``
raises ``KernelUnavailableError`` naming ``cc``, the CLI exits 1 and no
build is left behind; where they are built, each entry point has its
argument and result types declared.  A ninth is that the kernels are
reached one way: in ``src/`` only ``_kernel`` imports ctypes or reads an
array's address, and every pointer a kernel entry point takes is the result
of ``_kernel.address``, which refuses an array of another shape or dtype or
one that is not C-contiguous.
"""

import ast
import ctypes
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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
# numpy's only when a run needs them, and _kernel runs the compiler
# (subprocess) only when the C kernels are not built yet, since each would
# add to the time of every import
FORBIDDEN_AT_IMPORT = {"scipy": ("scipy",),
                       "process_pool": ("concurrent.futures.process", "multiprocessing"),
                       "numpy.random": ("numpy.random",), "numpy.ma": ("numpy.ma",),
                       "subprocess": ("subprocess",), "hashlib": ("hashlib",)}


@pytest.mark.parametrize("name", sorted(FORBIDDEN_AT_IMPORT))
def test_import_loads_none_of(name):
    import lipshift._kernel  # noqa: F401  builds the C kernels if this checkout has none yet
    prefixes = FORBIDDEN_AT_IMPORT[name]
    code = ("import sys, lipshift, lipshift.cli; "
            f"print(sorted(m for m in sys.modules for p in {prefixes!r} "
            "if m == p or m.startswith(p + '.')))")
    assert _fresh(code) == "[]"


def test_import_fails_typed_when_no_kernel_builds(tmp_path):
    # a copy of the package with no built kernel, run with no C compiler on
    # PATH: the import raises KernelUnavailableError, a LipshiftError and an
    # ImportError that names cc; the CLI exits 1 before it reads an
    # argument, its last stderr line naming that error; and no build is left
    pkg = tmp_path / "lipshift"
    pkg.mkdir()
    for path in [*SRC.glob("*.py"), SRC / "_sweep.c"]:
        shutil.copy(path, pkg)
    env = {**os.environ, "PATH": "",
           "PYTHONPATH": os.pathsep.join([str(tmp_path), os.environ.get("PYTHONPATH", "")])}
    code = f"""
import sys
try:
    import lipshift
except ImportError as exc:
    errors = sys.modules["lipshift.errors"]
    assert errors.__file__.startswith({str(tmp_path)!r})
    assert type(exc) is errors.KernelUnavailableError and isinstance(exc, errors.LipshiftError)
    print(exc)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "No such file or directory: 'cc'" in proc.stdout and "C compiler cc" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "lipshift.cli", "--help"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("lipshift.errors.KernelUnavailableError: ") and "'cc'" in last
    assert list(pkg.glob("_sweep-*")) == []  # no build left behind


def _entry_points():
    """(result type, name, parameters) of each non-static function of _sweep.c."""
    return re.findall(r"^(void|int64_t|double) (\w+)\(([^)]*)\)\s*\{",
                      (SRC / "_sweep.c").read_text(), re.M)


def test_every_kernel_entry_point_declares_its_types():
    # ctypes takes an undeclared result for a C int, so an entry point that
    # returns an int64_t count would come back truncated without a word:
    # every non-static function of _sweep.c gets its argtypes and restype in
    # _kernel._load_kernel, and the loaded library carries its signature
    from lipshift._kernel import KERNEL
    entries = _entry_points()
    load = next(node for node in ast.parse((SRC / "_kernel.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "_load_kernel")
    declared = {(t.value.attr, t.attr) for node in ast.walk(load) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Attribute)}
    results = {"void": None, "int64_t": ctypes.c_int64, "double": ctypes.c_double}
    assert {name for _, name, _ in entries} == {"lse_roots", "lse_clip", "iso_fit", "emp_spread",
                                                "unit_cdf", "tab_ppf", "tn_solve"}
    for result, name, params in entries:
        assert {(name, "argtypes"), (name, "restype")} <= declared, name
        fn = getattr(KERNEL, name)
        assert fn.restype is results[result] and len(fn.argtypes) == params.count(",") + 1, name


def _c_node_kinds(source):
    """The node kinds of a unit CDF's tree in the C source, in the order of
    their enum, the one that starts with UNIFORM."""
    return re.search(r"enum \{ (UNIFORM\b[^}]*)\};", source).group(1).replace(" ", "").split(",")


def _python_node_kinds(source):
    """The node kinds that the densities source numbers with one
    ``_UNIFORM, ... = range(k)``, without their underscore, in order."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
                and getattr(getattr(node.value, "func", None), "id", None) == "range"):
            names = [name.id.lstrip("_") for name in node.targets[0].elts]
            if names[0] == "UNIFORM":
                return names
    return None


def test_node_kinds_numbered_alike_in_c_and_python():
    # densities writes each node of a CDF's tree with the number that the
    # C enum gives its kind: a kind added, removed or moved on one side
    # only would be read as another; a copy with two kinds swapped differs
    c, py = (SRC / "_sweep.c").read_text(), (SRC / "densities.py").read_text()
    kinds = _c_node_kinds(c)
    assert _python_node_kinds(py) == kinds and {"UNIFORM", "POWER", "POW"} <= set(kinds)
    from lipshift import densities
    assert [getattr(densities, "_" + kind) for kind in kinds] == list(range(len(kinds)))
    swapped = c.replace(f"{kinds[1]}, {kinds[2]}", f"{kinds[2]}, {kinds[1]}", 1)
    assert _c_node_kinds(swapped) != _python_node_kinds(py)


def _entry(node):
    """The entry point that node names as ``KERNEL.<entry>``, or None."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "KERNEL":
        return node.attr
    return None


def _bindings(fn):
    """name -> the values that fn assigns to it, tuples unpacked pairwise."""
    bound = {}
    for node in ast.walk(fn):
        for target in node.targets if isinstance(node, ast.Assign) else []:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                if isinstance(name, ast.Name):
                    bound.setdefault(name.id, []).append(value)
    return bound


def _is_address(node, bound):
    """Whether node is an ``address(...)`` call or a name bound only to such calls."""
    if isinstance(node, ast.Name):
        return all(_is_address(v, {}) for v in bound.get(node.id, [None]))
    return isinstance(node, ast.Call) and "address" in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None))


def _kernel_calls(tree):
    """(call, its entry points, the bindings of its function) for each call
    in tree of a C kernel entry point: ``KERNEL.<entry>(...)``, or a call
    through a name that its function binds to ``KERNEL.<entry>`` or takes as
    a parameter that some call passes ``KERNEL.<entry>``."""
    passed = {}  # (function, positional slot) -> the entry points passed there
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for i, arg in enumerate(call.args):
                if _entry(arg):
                    passed.setdefault((callee, i), set()).add(_entry(arg))
    found = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = _bindings(fn)
        via = {name: {_entry(v) for v in values} for name, values in bound.items()
               if all(map(_entry, values))}
        via.update({a.arg: passed[fn.name, i] for i, a in enumerate(fn.args.args)
                    if (fn.name, i) in passed})
        for call in ast.walk(fn):
            if isinstance(call, ast.Call):
                entries = {_entry(call.func)} - {None} or via.get(getattr(call.func, "id", None))
                if entries:
                    found[id(call)] = (call, entries, bound)
    return list(found.values())


RAW_ADDRESS = {"ctypes", "__array_interface__", "addressof"}


def test_kernels_reached_only_through_address():
    # the kernels read raw memory: outside _kernel nothing imports ctypes or
    # reads an address, and each pointer argument (a c_void_p of the entry's
    # declared argtypes) of each kernel call is an address(...) result
    from lipshift._kernel import KERNEL
    raw, unchecked, called = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_kernel.py":
            continue
        tree = ast.parse(path.read_text())
        raw += [f"{path.stem}:{n.lineno}" for n in ast.walk(tree)
                if isinstance(n, ast.Import) and any(a.name.split(".")[0] == "ctypes" for a in n.names)
                or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "ctypes"
                or isinstance(n, ast.Attribute) and n.attr in RAW_ADDRESS
                or isinstance(n, ast.Name) and n.id in RAW_ADDRESS]
        for call, entries, bound in _kernel_calls(tree):
            called |= entries
            for entry in entries:
                argtypes = getattr(KERNEL, entry).argtypes
                assert len(call.args) == len(argtypes), f"{path.stem}:{call.lineno}"
                unchecked += [f"{path.stem}:{call.lineno} {entry} argument {i}"
                              for i, (arg, kind) in enumerate(zip(call.args, argtypes))
                              if kind is ctypes.c_void_p and not _is_address(arg, bound)]
    assert raw == [], f"ctypes or raw addresses outside _kernel: {raw}"
    assert unchecked == [], f"kernel pointers not made by _kernel.address: {unchecked}"
    assert called == {name for _, name, _ in _entry_points()}  # every entry point was found


def _table():
    from lipshift import densities
    d = densities.tabulated([0.0, 0.3, 0.7, 1.0], [0.5, 2.0, 1.0, 0.1])
    return densities._tabulated_table(d.params["grid"], d.params["values"])


def _every_other(a):
    """A strided view with a's values."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    wide[..., ::2] = a
    return wide[..., ::2]


# (array, the shape and dtype a kernel reads) that address refuses: what the
# sweep, PAVA, the empirical spread and the tabulated design's kernels were
# each refused by their own checks, and the wrong dtype for PAVA's counts and
# the sweep's knots
REFUSED = {
    "strided": (lambda: _every_other(np.arange(8.0)), (8,), np.float64),
    "strided-table": (lambda: _every_other(_table()), (4, 4), np.float64),
    "fortran-table": (lambda: np.asfortranarray(_table()), (4, 4), np.float64),
    "float32": (lambda: np.arange(8.0, dtype=np.float32), (8,), np.float64),
    "float32-table": (lambda: _table().astype(np.float32), (4, 4), np.float64),
    "float32-points": (lambda: np.linspace(0.0, 1.0, 7, dtype=np.float32), (7,), np.float64),
    "big-endian": (lambda: np.arange(8.0).astype(">f8"), (8,), np.float64),
    "u-too-short": (lambda: np.full(6, 0.1), (7,), np.float64),  # n - 2 gaps for n = 8
    "empty": (lambda: np.empty(0), (8,), np.float64),
    "sweep-n-0": (lambda: np.empty(0), (-1,), np.float64),  # u of the sweep at n = 0
    "2-d": (lambda: np.arange(8.0).reshape(2, 4), (8,), np.float64),
    "1-d-table": (lambda: _table().ravel(), (4, 4), np.float64),
    "3-row-table": (lambda: _table()[:3], (4, 4), np.float64),
    "float-cnt": (lambda: np.empty(8), (8,), np.int64),
    "int32-cnt": (lambda: np.empty(8, np.int32), (8,), np.int64),
    "float-knots": (lambda: np.empty(17), (17,), complex),
    "complex64-knots": (lambda: np.empty(17, np.complex64), (17,), complex),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_address_refuses_other_buffers(case):
    from lipshift._kernel import address
    make, shape, dtype = REFUSED[case]
    with pytest.raises(ValueError, match=r"^a C kernel reads a C-contiguous \w+ array of shape "
                                         r"\(.*\), got a \S+ array of shape \(.*\)$"):
        address(make(), shape, dtype)


def test_address_of_accepted_buffers():
    # the address of the array's first element, views at an offset included
    from lipshift._kernel import address
    s = np.arange(23.0)
    cases = [(s, (23,), np.float64), (s[1:], (22,), np.float64),
             (s[3:].reshape(4, 5)[1], (5,), np.float64), (_table(), (4, 4), np.float64),
             (np.empty(8, np.int64), (8,), np.int64), (np.empty(17, complex), (17,), complex)]
    for a, shape, dtype in cases:
        assert address(a, shape, dtype) == a.ctypes.data


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
from lipshift import _kernel
assert _kernel.__file__.startswith({str(tmp_path)!r})
print(_kernel.KERNEL._name)
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
inner = harness._cell
def checked(*args):
    before = set(sys.modules)
    out = inner(*args)
    new = sorted(set(sys.modules) - before)
    if new:
        raise ImportError(f"the cell imported {new}")
    return out
harness._cell = checked
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


def test_run_names_no_loss():
    # every run has one rate and every cell computes each requested loss
    # alike, so neither the run nor its cells branch on a loss's name
    tree = ast.parse((SRC / "harness.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "LOSSES" for t in node.targets))
    losses = {key.value for key in table.keys}
    assert losses >= {"sup", "weighted_sup"}
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("run_rate_experiment", "_cell"):
        named = {node.value for node in ast.walk(functions[name]) if isinstance(node, ast.Constant)}
        assert not named & losses, (name, sorted(named & losses))


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


def test_unit_cdfs_do_not_clip():
    # each design writes its density for points already in [0, 1] and its
    # CDF as a tree; the clip lives in DesignDistribution.cdf/.density alone
    tree = ast.parse((SRC / "densities.py").read_text())
    scopes = [(top.name, top) for top in tree.body if isinstance(top, ast.FunctionDef)]
    scopes += [(f"{top.name}.{fn.name}", fn) for top in tree.body if isinstance(top, ast.ClassDef)
               for fn in top.body if isinstance(fn, ast.FunctionDef)]
    callers = sorted(name for name, fn in scopes
                     if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_clip01"
                            for n in ast.walk(fn)))
    assert callers == ["DesignDistribution.cdf", "DesignDistribution.density"]
