"""Monte Carlo rate experiments.

Generates data from y = f0(x) + noise over a grid of sample sizes, runs the
requested estimators with replication, evaluates losses on a fixed grid, and
fits log-log slopes of the mean loss against n.  Everything is driven by a
JSON config and fully determined by (config, seed): replicate r at sample
size n draws from the stream seeded with [seed, n, r], so adding replicates
or sample sizes never disturbs existing draws.

Each estimator and each loss is defined once, in the tables ESTIMATORS and
LOSSES that config validation, the experiment loop and the tests share.
Estimators run in table order, whatever order the config lists them in.
The weighted sup loss divides by t_n on the grid, which the parent solves
once per n before the workers fork.

The (n, replicate) cells are independent, so they run in worker processes
that the caller forks itself (os.fork, no process pool), one per CPU in the
process's affinity mask.  The cells are dealt before the forks, largest n
first, each to the worker with the smallest total n so far.  Each worker
runs its share and pickles the list of its results down its own pipe; the
parent reads each pipe to the end, reaps the worker, and puts the results
back in table order, (n, replicate), so the report does not depend on the
number of workers or on how the cells were dealt.  The workers get the
config and the grids by fork, not by pickling, so estimators and losses
patched into the tables reach them.  A worker that dies ends the run with
an ExperimentError, and on any error the parent stops and reaps the
workers it has not reaped yet, so none outlives the run.  The parent
imports numpy.random just before it forks, so the workers inherit it:
nothing else in the parent draws, and each worker would otherwise import it
again in the first cell of every run.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
from dataclasses import dataclass, field, fields

import numpy as np

from . import densities
from .densities import DesignDistribution, _read
from .errors import ConfigError, ExperimentError, InvalidInputError, NonDoublingError
from .lipfit import RegressionSample, fit_lipschitz_lse, isotonic_evaluate, kernel_smoother
from .spread import SpreadFunction
from .transfer import fit_transfer

__all__ = [
    "ESTIMATORS",
    "LOSSES",
    "ExperimentConfig",
    "RateReport",
    "make_f0",
    "generate",
    "run_rate_experiment",
    "fit_loglog_slope",
]

EVAL_GRID_SIZE = 201


# f0 kind -> its parameters with their defaults
_F0_DEFAULTS = {"zero": {}, "triangle": {"center": 0.5, "slope": 0.5},
               "sine": {"amplitude": 0.1, "frequency": 1.0}}


def make_f0(spec: dict, delta: float):
    """Regression function from its config entry; checks the Lip(1 - delta)
    budget analytically per kind.  The entry is an object with a "kind"
    (default "zero") and that kind's keys in `_F0_DEFAULTS`."""
    kind = spec.get("kind", "zero") if isinstance(spec, dict) else None
    if not (isinstance(kind, str) and kind in _F0_DEFAULTS):
        raise ConfigError(f"f0 must be an object with a kind from {sorted(_F0_DEFAULTS)}, "
                          f"got {spec!r}")
    p = _read(spec, {"kind": None, **_F0_DEFAULTS[kind]}, f"f0 {kind!r}", ConfigError)
    if kind == "zero":
        return (lambda x: np.zeros_like(np.asarray(x, float))), 0.0
    if kind == "triangle":
        c, s = float(p["center"]), float(p["slope"])
        lip = abs(s)
        f0 = lambda x: s * np.maximum(0.25 - np.abs(np.asarray(x, float) - c), 0.0)  # noqa: E731
    else:
        a, freq = float(p["amplitude"]), float(p["frequency"])
        lip = abs(a) * 2.0 * np.pi * freq
        f0 = lambda x: a * np.sin(2.0 * np.pi * freq * np.asarray(x, float))  # noqa: E731
    if lip > 1.0 - delta + 1e-12:
        raise ConfigError(f"f0 has Lipschitz constant {lip:.4f} > 1 - delta = {1 - delta:.4f}")
    return f0, lip


@dataclass
class ExperimentConfig:
    distribution: DesignDistribution
    f0_spec: dict = field(default_factory=lambda: {"kind": "zero"})
    delta: float = 0.1
    n_grid: list = field(default_factory=lambda: [256, 512, 1024])
    m_grid: list | None = None
    replicates: int = 20
    seed: int = 0
    estimators: list = field(default_factory=lambda: ["lse"])
    losses: list = field(default_factory=lambda: ["sup"])
    target_distribution: DesignDistribution | None = None
    noise_sd: float = 1.0
    bandwidth: str | float = "rate"  # "rate" -> (log n/n)^(1/3), or a number
    budget: float = 1.0

    def __post_init__(self):
        _read({f.name: getattr(self, f.name) for f in fields(self)}, _CONFIG, "config", ConfigError)
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError(f"n_grid must be strictly ascending, got {self.n_grid!r}")
        if self.m_grid is not None and len(self.m_grid) != len(self.n_grid):
            # cross product is not supported; the grids pair index by index
            raise ConfigError("m_grid must have the same length as n_grid")
        if "transfer" in self.estimators and None in (self.target_distribution, self.m_grid):
            raise ConfigError("transfer runs need target_distribution and m_grid")
        self.f0, self.f0_lip = make_f0(self.f0_spec, self.delta)

    @classmethod
    def from_json(cls, obj):
        """Build from a JSON object (or its text).  Keys are the field names,
        with "f0" for f0_spec, and "distribution" must be given; absent keys
        take the field defaults, and `__post_init__` checks every value."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        keys = {("f0" if f.name == "f0_spec" else f.name): None for f in fields(cls)}
        obj = _read(obj, {**keys, "distribution": dict}, "config", ConfigError)
        kwargs = {("f0_spec" if key == "f0" else key): value for key, value in obj.items()}
        kwargs["distribution"] = densities.from_spec(obj["distribution"])
        if obj.get("target_distribution") is not None:
            kwargs["target_distribution"] = densities.from_spec(obj["target_distribution"])
        return cls(**kwargs)


def _draw(dist, f0, noise_sd, n, seed) -> RegressionSample:
    rng = np.random.default_rng(seed)
    x = densities.sample(dist, n, rng)
    y = f0(x) + noise_sd * rng.standard_normal(n)
    return RegressionSample(x, y)


def generate(config: ExperimentConfig, n: int, seed) -> RegressionSample:
    """One dataset: X from the design, y = f0(X) + noise_sd * N(0, 1)."""
    return _draw(config.distribution, config.f0, config.noise_sd, n, seed)


def _lse(config, sample, grid, m, rep):
    return fit_lipschitz_lse(sample, config.budget).evaluate(grid)


def _isotonic(config, sample, grid, m, rep):
    return isotonic_evaluate(sample, grid)


def _kernel(config, sample, grid, m, rep):
    n = sample.n
    h = (np.log(n) / n) ** (1.0 / 3.0) if config.bandwidth == "rate" else float(config.bandwidth)
    return kernel_smoother(sample, config.distribution, h, grid)


def _transfer(config, sample, grid, m, rep):
    target = _draw(config.target_distribution, config.f0, config.noise_sd,
                   m, [config.seed + 1, m, rep])
    return fit_transfer(sample, target, config.budget).evaluate(grid)


# name -> estimate(config, sample, grid, m, replicate): the fit on the grid.
# transfer draws its m-point target sample from the stream [seed + 1, m, r].
ESTIMATORS = {"lse": _lse, "isotonic": _isotonic, "kernel": _kernel, "transfer": _transfer}

# name -> loss(err, grid, t, q) from the error, t_n and the target density q
# (the source density without a target design) on the grid; l2_q is the
# trapezoid rule on the grid for the L2(Q) risk int err^2 q.
LOSSES = {
    "sup": lambda err, grid, t, q: float(np.max(np.abs(err))),
    "weighted_sup": lambda err, grid, t, q: float(np.max(np.abs(err) / t)),
    "l2_q": lambda err, grid, t, q: float(np.trapezoid(err**2 * q, grid)),
}

# config field -> its type and range, by `densities._read`; None: checked where used
_CONFIG = {"distribution": None, "f0_spec": None, "target_distribution": None,
           "delta": (float, "(0, 1)"), "budget": (float, "(0, 1]"), "noise_sd": (float, "[0, inf)"),
           "bandwidth": (float, "(0, inf)", "rate"), "replicates": (int, "[1, inf)"),
           "seed": (int, "[0, inf)"), "n_grid": ([int], "[1, inf)"),
           "m_grid": ([int], "[2, inf)", None), "estimators": ([str], ESTIMATORS),
           "losses": ([str], LOSSES)}


@dataclass
class RateReport:
    rows: list  # per (estimator, loss, n[, m]) aggregate dicts
    losses: list  # per-replicate records
    slopes: dict  # (estimator, loss) -> {"slope":, "stderr":}
    metadata: dict

    def to_json(self) -> str:
        return json.dumps({
            "rows": self.rows,
            "slopes": {f"{e}/{l}": v for (e, l), v in self.slopes.items()},
            "metadata": self.metadata,
        }, indent=2, sort_keys=True, allow_nan=False)

    def write(self, report_path, losses_path):
        text = self.to_json()  # before either file is opened, so a failure truncates neither
        with open(report_path, "w") as fh:
            fh.write(text + "\n")
        with open(losses_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["estimator", "loss", "n", "m", "replicate", "value"])
            for rec in self.losses:
                writer.writerow([rec["estimator"], rec["loss"], rec["n"],
                                 rec.get("m", ""), rec["replicate"], repr(rec["value"])])


def fit_loglog_slope(points):
    """OLS slope (with standard error) of log(loss) on log(n)."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise InvalidInputError("slope fitting needs at least 3 points")
    if any(v <= 0.0 for _, v in pts):
        raise InvalidInputError("slope fitting needs strictly positive losses")
    lx = np.log([n for n, _ in pts])
    ly = np.log([v for _, v in pts])
    (slope, icept), cov = np.polyfit(lx, ly, 1, cov=True)
    return float(slope), float(np.sqrt(cov[0, 0]))


def _median(vals):
    """np.median of a 1-d float array, bit for bit, without the numpy.ma import
    (~10 ms, 1.5 MB) that np.median makes; the 0.0 + is np.mean's, which
    turns a -0.0 into 0.0."""
    s = np.sort(vals)
    h = s.size // 2
    return float(0.0 + s[h]) if s.size % 2 else float((0.0 + s[h - 1] + s[h]) / 2)


def _replicate_losses(config, n, m, rep, grid, spread_grid, q_grid, f0_grid):
    """All requested (estimator, loss) values for one replicate."""
    sample = generate(config, n, [config.seed, n, rep])
    out = {}
    for est, estimate in ESTIMATORS.items():
        if est in config.estimators:
            err = estimate(config, sample, grid, m, rep) - f0_grid
            for loss in config.losses:
                out[(est, loss)] = LOSSES[loss](err, grid, spread_grid, q_grid)
    return out


def _cell(state, n, m, rep):
    """One (n, replicate) cell in a worker: (failure, losses), where failure is
    None or the (type name, message) that the failure ledger records; state is
    the run's (config, grid, spread grid by n, q_grid, f0_grid)."""
    config, grid, spreads, q_grid, f0_grid = state
    try:
        vals = _replicate_losses(config, n, m, rep, grid, spreads[n], q_grid, f0_grid)
    except Exception as exc:
        return (type(exc).__name__, str(exc)), None
    bad = next((key for key, v in vals.items() if not math.isfinite(v)), None)
    if bad is not None:
        return ("NonFiniteLoss", f"{bad[0]}/{bad[1]} loss is {vals[bad]} at n={n}"), None
    return None, vals


def _fork_worker(run):
    """Fork a worker that pickles run() down a pipe; returns (pid, the
    pipe's read end as a file).  The worker exits 0 when it has written
    it and 1 on any exception, never returning here."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as fh:
                pickle.dump(run(), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _run_cells(cells, state):
    """(failure, losses) of each (n, m, rep) cell, in the order of cells,
    from forked workers with one pipe each (see the module docstring).

    The cells are dealt largest n first, each to the worker with the
    smallest total n so far, so that the shares take about the same time."""
    import signal  # here: it would add ~0.6 ms to every lipshift import

    # loaded before the fork, so that no worker imports it again in its first cell
    import numpy.random  # noqa: F401

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shares = [[] for _ in range(min(cpus or 1, len(cells)))]
    loads = [0] * len(shares)
    for i in sorted(range(len(cells)), key=lambda i: -cells[i][0]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += cells[i][0]
    workers = []  # (pid, read end, share) of each worker not yet reaped
    try:
        for share in shares:
            # fork, not spawn: the config's densities and f0 are lambdas,
            # which do not pickle, so each worker finds the state in its closure
            run = lambda share=share: [_cell(state, *cells[i]) for i in share]  # noqa: E731
            workers.append((*_fork_worker(run), share))
        results = [None] * len(cells)
        while workers:
            pid, fh, share = workers[0]
            with fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if code:
                raise ExperimentError(f"a worker process died (pid {pid} with exit code {code}) "
                                      f"while running the {len(cells)} cells")
            for i, result in zip(share, pickle.loads(data)):
                results[i] = result
        return results
    finally:
        for pid, fh, _ in workers:
            fh.close()
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)


def run_rate_experiment(config: ExperimentConfig) -> RateReport:
    grid = np.linspace(0.0, 1.0, EVAL_GRID_SIZE)
    f0_grid = config.f0(grid)
    q_grid = (config.target_distribution or config.distribution).density(grid)
    spreads = dict.fromkeys(config.n_grid)
    if "weighted_sup" in config.losses:
        spreads = {n: SpreadFunction(config.distribution, n).at(grid) for n in config.n_grid}
    m_grid = config.m_grid if config.m_grid is not None else [None] * len(config.n_grid)
    cells = [(n, m, rep) for n, m in zip(config.n_grid, m_grid) for rep in range(config.replicates)]
    results = iter(_run_cells(cells, (config, grid, spreads, q_grid, f0_grid)))
    rows, loss_records = [], []
    failures = 0
    ledger = {}  # exception type name -> {"count", "first_message"}
    for n, m in zip(config.n_grid, m_grid):
        cell = {}
        for rep in range(config.replicates):
            failure, vals = next(results)
            if failure is not None:
                failures += 1
                entry = ledger.setdefault(failure[0], {"count": 0, "first_message": failure[1]})
                entry["count"] += 1
                continue
            for key, v in vals.items():
                cell.setdefault(key, []).append(v)
                loss_records.append({"estimator": key[0], "loss": key[1], "n": n,
                                     "m": m, "replicate": rep, "value": v})
        for (est, loss), vals in sorted(cell.items()):
            vals = np.asarray(vals)
            with np.errstate(over="ignore"):  # an overflow is checked just below
                stats = {"mean": float(vals.mean()), "median": _median(vals), "stderr":
                         float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0}
            if not all(map(math.isfinite, stats.values())):
                raise ExperimentError(f"{est}/{loss} at n={n}: aggregates {stats} are not finite")
            rows.append({"estimator": est, "loss": loss, "n": n, "m": m, **stats,
                         "replicates": int(vals.size)})
    if failures > 0.05 * len(cells):
        kinds = "; ".join(f"{name} x{e['count']} ({e['first_message']})"
                          for name, e in ledger.items())
        raise ExperimentError(f"{failures}/{len(cells)} replicates failed: {kinds}")
    slopes = {}
    if len(config.n_grid) >= 3:
        for est in config.estimators:
            for loss in config.losses:
                pts = [(r["n"], r["mean"]) for r in rows
                       if r["estimator"] == est and r["loss"] == loss]
                # machine-precision losses (e.g. noiseless exact recovery)
                # carry no rate information; leave the slope undefined
                if len(pts) >= 3 and all(v > 1e-12 for _, v in pts):
                    s, se = fit_loglog_slope(pts)
                    slopes[(est, loss)] = {"slope": s, "stderr": se}
    try:
        doubling = densities.doubling_constant(config.distribution, 0.1)
    except NonDoublingError:  # a zero-mass interval on the grid: no constant
        doubling = None
    metadata = {
        "seed": config.seed,
        "replicate_failures": failures,
        "failures": ledger,
        "grid_size": EVAL_GRID_SIZE,
        "doubling_constant": doubling,
        "f0_lipschitz": config.f0_lip,
    }
    return RateReport(rows=rows, losses=loss_records, slopes=slopes, metadata=metadata)
