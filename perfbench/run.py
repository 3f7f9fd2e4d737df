"""lipshift benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json and workloads.py) from the root of a
lipshift checkout, importing the package from ``src/``.  It repeats
identical-sized passes of the workload for about S seconds, checks every
pass's outputs outside the timed region, and prints as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics:
  setup_s      median over SETUP_PROBES fresh processes of the time to import
               lipshift and build the workload's inputs;
  run_s        wall time of one pass, the minimum over the run's passes:
               other tenants of a shared machine only ever slow a pass down,
               so the fastest pass is the steadiest estimate of its cost;
  work_per_s   work units of one pass divided by run_s ((n, replicate)
               cells on the harness workloads, spread x-points solved on
               spread-designs);
  peak_rss_mb  peak resident set size of this process.
--trace 1 alternates untraced and traced passes and reports per-layer self
time and exact work counts per pass (medians over passes), scaling
exponents, and the tracing overhead.  The spans of the first traced pass
are written to .perfbench_out/trace-<workload>.json.

An operation is one work unit or one output check; ``failed`` counts units
that raised or came out non-finite or as replicate failures, plus failed
checks.  Exits 2 without a result when lipshift cannot be imported from the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread keeps floating-point reduction order, and so the outputs,
# fixed from run to run, and does not oversubscribe shared cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5


def setup(workload, seed, workdir):
    """Import lipshift and build the workload's inputs; returns (workload, s)."""
    t0 = time.perf_counter()
    import workloads
    instance = workloads.WORKLOADS[workload](seed, workdir)
    return instance, time.perf_counter() - t0


def probe_setup(workload, seed):
    """Median set-up time over fresh interpreter processes."""
    times = []
    for _ in range(SETUP_PROBES):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
                 "--seed", str(seed), "--seconds", "0", "--workdir", tmp],
                capture_output=True, text=True, timeout=30, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def blas_threads():
    """Thread counts reported by the OpenBLAS libraries loaded in this process."""
    import ctypes
    counts = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return counts
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(instance, seed):
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = blas_threads()
    config = json.dumps(instance.config, sort_keys=True)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "blas_threads_within_nproc": all(v <= nproc for v in blas.values()),
        "git_commit": git_commit(),
        "workload": instance.name,
        "seed": seed,
        "config_sha256": hashlib.sha256(config.encode()).hexdigest(),
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, units, failed_units, checks, where):
        self.attempted += units + len(checks)
        self.failed += failed_units
        for name, ok in checks:
            if not ok:
                self.failed += 1
                print(f"check failed: {where}: {name}", file=sys.stderr)


def run_passes(instance, seconds, tracer, tally):
    """Timed passes for about `seconds`, then any extra untimed passes the
    run checks need.  Returns [(traced, wall seconds, spans or None)]."""
    timed = []
    start = time.perf_counter()
    p = 0
    min_passes = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and p % 2 == 1
        ok = one_pass(instance, p, tracer if traced else None, tally, timed)
        p += 1
        if not ok:
            return timed, False
        elapsed = time.perf_counter() - start
        typical = statistics.median(w for _, w, _ in timed)
        if p >= min_passes and elapsed + typical > seconds:
            break
    while p < instance.check_passes:
        if not one_pass(instance, p, None, tally, None):
            return timed, False
        p += 1
    return timed, True


def one_pass(instance, p, tracer, tally, timed):
    args = instance.prepare(p)
    spans = None
    try:
        if tracer is not None:
            out, wall, spans = tracer.run_pass(lambda: instance.run(args))
        else:
            t0 = time.perf_counter()
            out = instance.run(args)
            wall = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        tally.add(instance.units, instance.units, [], f"pass {p}")
        return False
    if timed is not None:
        timed.append((tracer is not None, wall, spans))
    try:
        checks, failed_units = instance.check_pass(p, args, out)
    except Exception:
        traceback.print_exc()
        checks, failed_units = [("check_pass_raised", False)], 0
    tally.add(instance.units, failed_units, checks, f"pass {p}")
    return True


def layer_metrics(tracer, timed):
    """Per-pass medians of the traced passes' per-layer figures."""
    from tracer import scaling_exponent, summarize
    traced = [(wall, spans) for was_traced, wall, spans in timed if was_traced]
    plain = [wall for was_traced, wall, _ in timed if not was_traced]
    sums = [summarize(tracer.names, spans) for _, spans in traced]

    def med(fn):
        return float(statistics.median(fn(s) for s in sums))

    def pooled_sizes(name):
        return [size for s in sums for size in s[name]["sizes"]]

    metrics = {}
    for name in tracer.names[1:]:
        metrics[f"{name}.self_s"] = (med(lambda s: s[name]["self_s"]), "s")
    fit, sf, emp, mass = ("lipfit.fit_lipschitz_lse", "spread.SpreadFunction.at",
                          "spread.EmpiricalSpread.at", "densities.interval_mass")
    undefined = []

    def exponent(name):
        value = scaling_exponent(pooled_sizes(name))
        if value is None:
            undefined.append(f"{name}.exponent")
            return 0.0
        return value

    metrics.update({
        f"{fit}.calls": (med(lambda s: s[fit]["calls"]), "count"),
        f"{fit}.points": (med(lambda s: s[fit]["work"]), "count"),
        f"{fit}.exponent": (exponent(fit), "1"),
        f"{sf}.calls": (med(lambda s: s[sf]["calls"]), "count"),
        f"{sf}.points": (med(lambda s: s[sf]["work"]), "count"),
        f"{sf}.mass_evals_per_call": (
            med(lambda s: s[mass]["under"][sf] / s[sf]["calls"] if s[sf]["calls"] else 0.0),
            "count"),
        f"{mass}.calls": (med(lambda s: s[mass]["calls"]), "count"),
        f"{emp}.calls": (med(lambda s: s[emp]["calls"]), "count"),
        f"{emp}.cells": (med(lambda s: s[emp]["work"]), "count"),
        f"{emp}.exponent": (exponent(emp), "1"),
    })
    traced_wall = statistics.median(wall for wall, _ in traced)
    covered = [sum(s[n]["self_s"] for n in tracer.names[1:]) / wall
               for (wall, _), s in zip(traced, sums)]
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(plain), "s")
    metrics["trace.coverage"] = (float(statistics.median(covered)), "ratio")
    return metrics, undefined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _, elapsed = setup(args.workload, args.seed, args.workdir)
        print(repr(elapsed))
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        try:
            instance, _ = setup(args.workload, args.seed, workdir)
        except (ImportError, KeyError) as exc:
            print(f"cannot set up workload {args.workload!r}: {exc!r}", file=sys.stderr)
            return 2
        env = environment(instance, args.seed)
        print("env " + json.dumps(env, sort_keys=True))
        tally = Tally()
        tally.add(0, 0, [("blas_threads_within_nproc", env["blas_threads_within_nproc"])], "env")
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        else:
            setup_s = probe_setup(args.workload, args.seed)
        timed, completed = run_passes(instance, args.seconds, tracer, tally)
        if completed:
            try:
                checks = instance.check_run()
            except Exception:
                traceback.print_exc()
                checks = [("check_run_raised", False)]
            tally.add(0, 0, checks, "run")

        metrics = {}
        if timed and not args.trace:
            walls = [wall for _, wall, _ in timed]
            metrics = {
                "setup_s": (setup_s, "s"),
                "run_s": (min(walls), "s"),
                "work_per_s": (instance.units / min(walls), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        elif args.trace and any(t for t, _, _ in timed) and any(not t for t, _, _ in timed):
            metrics, undefined = layer_metrics(tracer, timed)
            metrics["harness.replicate_failures"] = (instance.replicate_failures, "count")
            print("absent " + json.dumps(tracer.absent + undefined))
            for name, (value, unit) in sorted(metrics.items()):
                print(f"layer {name} = {value:.6g} {unit}")
            first = next(spans for t, _, spans in timed if t)
            trace_file = OUT / f"trace-{args.workload}.json"
            trace_file.write_text(json.dumps({
                "env": env, "layers": tracer.names, "absent": tracer.absent,
                "metrics": {k: v for k, (v, _) in metrics.items()}, "spans": first}))
        walls = sorted(wall for _, wall, _ in timed)
        if walls:
            print(f"passes {len(walls)} timed: min {walls[0]:.4f} s, median "
                  f"{statistics.median(walls):.4f} s, max {walls[-1]:.4f} s")
        print(f"attempted {tally.attempted}, failed {tally.failed}")
        correct = completed and tally.failed == 0 and bool(metrics)
        print(json.dumps({
            "correct": correct,
            "attempted": max(tally.attempted, 1),
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
