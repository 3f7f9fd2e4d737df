"""Span tracing of lipshift from outside the package.

The tracer replaces each traced callable with a wrapper at every place a
caller looks it up: for a function, every ``lipshift.*`` module attribute
that holds the same object (so names imported by value, such as
``harness.fit_lipschitz_lse`` or ``spread.interval_mass``, are traced too);
for a method, the class attribute.  A binding that no longer exists is
recorded as absent instead of failing the run.

Spans (name, start, end, parent, size) are kept in memory.  Self time is a
span's duration minus the durations of its direct children; since calls nest
on one thread, the self times of a pass add up to the root span's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

ROOT_SPAN = "bench.pass"
SELF_TIME_TOLERANCE = 0.01  # self times vs pass wall time, as a share of the wall time


def _sample_n(args, kwargs):
    n = args[0].n
    return n, n


def _x_points(args, kwargs):
    return None, int(np.size(args[1]))


def _empirical_cells(args, kwargs):
    n = args[0].n
    return n, n * int(np.size(args[1]))


# (span name, module, attribute path, size function returning (n, work))
LAYERS = [
    ("cli.main", "lipshift.cli", "main", None),
    ("harness.run_rate_experiment", "lipshift.harness", "run_rate_experiment", None),
    ("harness.draw", "lipshift.harness", "_draw", None),
    ("harness.kernel", "lipshift.harness", "_kernel_eval_grid", None),
    ("lipfit.fit_lipschitz_lse", "lipshift.lipfit", "fit_lipschitz_lse", _sample_n),
    ("lipfit.isotonic_evaluate", "lipshift.lipfit", "isotonic_evaluate", None),
    ("lipfit.LipschitzFit.evaluate", "lipshift.lipfit", "LipschitzFit.evaluate", None),
    ("spread.SpreadFunction.at", "lipshift.spread", "SpreadFunction.at", _x_points),
    ("spread.EmpiricalSpread.at", "lipshift.spread", "EmpiricalSpread.at", _empirical_cells),
    ("densities.interval_mass", "lipshift.densities", "interval_mass", None),
    ("densities.sample", "lipshift.densities", "sample", None),
    ("transfer.fit_transfer", "lipshift.transfer", "fit_transfer", None),
    ("transfer.TransferFit.evaluate", "lipshift.transfer", "TransferFit.evaluate", None),
    ("transfer.mixture_spread", "lipshift.transfer", "mixture_spread", None),
    ("transfer.transfer_risk_integrals", "lipshift.transfer", "transfer_risk_integrals", None),
]


def _binding_sites(module_name, path):
    """(original, [(holder, attribute)]) for one traced callable.

    Raises KeyError or AttributeError when the binding does not exist."""
    holder = sys.modules[module_name]
    *owners, attr = path.split(".")
    for owner in owners:
        holder = getattr(holder, owner)
    original = vars(holder)[attr]
    if owners:  # a method: callers reach it through the class
        return original, [(holder, attr)]
    sites = [(mod, key) for name, mod in list(sys.modules.items())
             if mod is not None and (name == "lipshift" or name.startswith("lipshift."))
             for key, value in list(vars(mod).items()) if value is original]
    return original, sites


class Tracer:
    """Collects spans of one pass at a time; see the module docstring."""

    def __init__(self):
        self.names = [ROOT_SPAN] + [name for name, *_ in LAYERS]
        self.absent = []
        self._patches = []
        self._reset()

    def _reset(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.n = []
        self.work = []
        self._stack = [-1]

    def _wrap(self, idx, fn, size_of):
        def traced(*args, **kwargs):
            n = work = None
            if size_of is not None:
                try:
                    n, work = size_of(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass
            span = len(self.name)
            self.name.append(idx)
            self.parent.append(self._stack[-1])
            self.n.append(n)
            self.work.append(work)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter()
                self._stack.pop()
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every binding site; record missing bindings as absent."""
        self.absent = []
        for idx, (name, module, path, size_of) in enumerate(LAYERS, start=1):
            try:
                original, sites = _binding_sites(module, path)
            except (KeyError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(idx, original, size_of)
            for holder, attr in sites:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    def run_pass(self, body):
        """Run body() under the root span, with wrappers installed.

        Returns (result, wall seconds, spans).  The spans are
        (name, start, end, parent, n, work) lists, times relative to the
        pass start."""
        self._reset()
        self.install()
        try:
            result = self._wrap(0, body, None)()
        finally:
            self.uninstall()
        t0 = self.start[0]
        spans = {
            "name": list(self.name),
            "start": [s - t0 for s in self.start],
            "end": [e - t0 for e in self.end],
            "parent": list(self.parent),
            "n": list(self.n),
            "work": list(self.work),
        }
        return result, self.end[0] - t0, spans


def summarize(names, spans):
    """Per-layer totals of one pass: self time, calls, work, per-call
    (n, duration) pairs, and calls per parent layer."""
    name, start, end, parent = spans["name"], spans["start"], spans["end"], spans["parent"]
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out = {nm: {"self_s": 0.0, "calls": 0, "work": 0, "sizes": [], "under": defaultdict(int)}
           for nm in names}
    for i, idx in enumerate(name):
        entry = out[names[idx]]
        entry["self_s"] += dur[i] - child[i]
        entry["calls"] += 1
        if spans["work"][i] is not None:
            entry["work"] += spans["work"][i]
        if spans["n"][i] is not None:
            entry["sizes"].append((spans["n"][i], dur[i]))
        if parent[i] >= 0:
            entry["under"][names[name[parent[i]]]] += 1
    return out


def scaling_exponent(sizes, min_n=2048):
    """Log-log slope of per-call time against n, over the median time at each
    distinct n >= min_n (below that, fixed per-call cost dominates).  None
    when fewer than two sizes qualify."""
    by_n = defaultdict(list)
    for n, d in sizes:
        if n >= min_n:
            by_n[n].append(d)
    if len(by_n) < 2:
        return None
    ns = sorted(by_n)
    ts = [float(np.median(by_n[n])) for n in ns]
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])
