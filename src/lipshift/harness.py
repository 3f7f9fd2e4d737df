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
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import densities
from .densities import DesignDistribution
from .errors import ConfigError, ExperimentError, InvalidInputError
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


def make_f0(spec: dict, delta: float):
    """Regression function from its config entry; checks the Lip(1 - delta)
    budget analytically per kind."""
    kind = spec.get("kind", "zero").lower()
    if kind == "zero":
        return (lambda x: np.zeros_like(np.asarray(x, float))), 0.0
    if kind == "triangle":
        c = float(spec.get("center", 0.5))
        s = float(spec.get("slope", 0.5))
        lip = abs(s)
        f0 = lambda x: s * np.maximum(0.25 - np.abs(np.asarray(x, float) - c), 0.0)  # noqa: E731
    elif kind == "sine":
        a = float(spec.get("amplitude", 0.1))
        freq = float(spec.get("frequency", 1.0))
        lip = abs(a) * 2.0 * np.pi * freq
        f0 = lambda x: a * np.sin(2.0 * np.pi * freq * np.asarray(x, float))  # noqa: E731
    else:
        raise ConfigError(f"unknown f0 kind: {kind!r}")
    if lip > 1.0 - delta + 1e-12:
        raise ConfigError(f"f0 has Lipschitz constant {lip:.4f} > 1 - delta = {1 - delta:.4f}")
    return f0, lip


def _is_int(v, least):
    """v is an integer >= least; bools are not, though Python counts them as ints."""
    return not isinstance(v, bool) and isinstance(v, (int, np.integer)) and v >= least


def _is_finite(v):
    """v is a finite real number and not a bool."""
    return (not isinstance(v, bool) and isinstance(v, (int, float, np.integer, np.floating))
            and abs(v) < math.inf)


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
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        for key, least in (("replicates", 1), ("seed", 0)):
            v = getattr(self, key)
            if not _is_int(v, least):
                raise ConfigError(f"{key} must be an integer >= {least}, got {v!r}")
        for key in ("n_grid", "m_grid"):
            sizes = getattr(self, key)
            for v in [] if sizes is None else sizes:
                if not _is_int(v, 1):
                    raise ConfigError(f"{key} entries must be integers >= 1, got {v!r}")
        if not (_is_finite(self.budget) and 0.0 < self.budget <= 1.0):
            raise ConfigError(f"budget must be a number in (0, 1], got {self.budget!r}")
        if not (self.bandwidth == "rate" or _is_finite(self.bandwidth) and self.bandwidth > 0.0):
            raise ConfigError(f"bandwidth must be 'rate' or a number > 0, got {self.bandwidth!r}")
        if not (_is_finite(self.noise_sd) and self.noise_sd >= 0.0):
            raise ConfigError(f"noise_sd must be a number >= 0, got {self.noise_sd!r}")
        if list(self.n_grid) != sorted(self.n_grid) or len(self.n_grid) == 0:
            raise ConfigError("n_grid must be nonempty and ascending")
        if self.m_grid is not None and len(self.m_grid) != len(self.n_grid):
            # cross product is not supported; the grids pair index by index
            raise ConfigError("m_grid must have the same length as n_grid")
        for e in self.estimators:
            if e not in ESTIMATORS:
                raise ConfigError(f"unknown estimator {e!r}")
        for l in self.losses:
            if l not in LOSSES:
                raise ConfigError(f"unknown loss {l!r}")
        if "transfer" in self.estimators:
            if self.target_distribution is None or self.m_grid is None:
                raise ConfigError("transfer runs need target_distribution and m_grid")
        self.f0, self.f0_lip = make_f0(self.f0_spec, self.delta)

    @classmethod
    def from_json(cls, obj):
        """Build from a JSON object (or its text).  Keys are the field names,
        with "f0" for f0_spec; absent keys take the field defaults."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ConfigError(f"config must be a JSON object, got {type(obj).__name__}")
        kwargs = {("f0_spec" if key == "f0" else key): value for key, value in obj.items()}
        unknown = set(obj) - {f.name for f in fields(cls) if f.name != "f0_spec"} - {"f0"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "distribution" not in obj:
            raise ConfigError("config needs a 'distribution' entry")
        kwargs["distribution"] = densities.from_spec(obj["distribution"])
        if obj.get("target_distribution") is not None:
            kwargs["target_distribution"] = densities.from_spec(obj["target_distribution"])
        try:
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


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
        with open(report_path, "w") as fh:
            fh.write(self.to_json() + "\n")
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


def run_rate_experiment(config: ExperimentConfig) -> RateReport:
    grid = np.linspace(0.0, 1.0, EVAL_GRID_SIZE)
    f0_grid = config.f0(grid)
    q_grid = (config.target_distribution or config.distribution).density(grid)
    rows, loss_records = [], []
    failures = 0
    ledger = {}  # exception type name -> {"count", "first_message"}
    total = 0
    m_grid = config.m_grid if config.m_grid is not None else [None] * len(config.n_grid)
    for n, m in zip(config.n_grid, m_grid):
        spread_grid = SpreadFunction(config.distribution, n).at(grid) \
            if "weighted_sup" in config.losses else None
        cell = {}
        for rep in range(config.replicates):
            total += 1
            try:
                vals = _replicate_losses(config, n, m, rep, grid, spread_grid, q_grid, f0_grid)
            except Exception as exc:
                failure = type(exc).__name__, str(exc)
            else:
                bad = next((key for key, v in vals.items() if not math.isfinite(v)), None)
                failure = None if bad is None else (
                    "NonFiniteLoss", f"{bad[0]}/{bad[1]} loss is {vals[bad]} at n={n}")
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
            rows.append({
                "estimator": est, "loss": loss, "n": n, "m": m,
                "mean": float(vals.mean()), "median": float(np.median(vals)),
                "stderr": float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0,
                "replicates": int(vals.size),
            })
    if failures > 0.05 * total:
        kinds = "; ".join(f"{name} x{e['count']} ({e['first_message']})"
                          for name, e in ledger.items())
        raise ExperimentError(f"{failures}/{total} replicates failed: {kinds}")
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
    metadata = {
        "seed": config.seed,
        "replicate_failures": failures,
        "failures": ledger,
        "grid_size": EVAL_GRID_SIZE,
        "doubling_constant": densities.doubling_constant(config.distribution, 0.1),
        "f0_lipschitz": config.f0_lip,
    }
    return RateReport(rows=rows, losses=loss_records, slopes=slopes, metadata=metadata)
