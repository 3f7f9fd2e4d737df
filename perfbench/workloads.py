"""The benchmark's three workloads: inputs, timed pass, and output checks.

Importing this module imports numpy and lipshift from the checkout's
``src/``, so the import is part of the measured set-up time.

Each workload runs identical-sized passes.  ``prepare(p)`` builds the
inputs of pass p outside the timed region, ``run(args)`` is the timed body,
``check_pass`` checks one pass's outputs and ``check_run`` the checks that
need several passes.  A check returns (name, passed) pairs; ``check_pass``
also returns how many of the pass's work units failed (raised, non-finite,
or counted in the report's ``replicate_failures``).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lipshift  # noqa: E402

if not Path(lipshift.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"lipshift was imported from {lipshift.__file__}, not from {SRC}")

# Called through their modules, so that the tracer's patches apply.
from lipshift import cli, densities, harness, lipfit, spread, transfer  # noqa: E402


def pass_seed(seed, p):
    """Harness seed of pass p.  Even, because the harness draws target
    samples from seed + 1, so no two passes share a random stream."""
    return 2 * (seed * (1 << 20) + p)


def _strict_json(text):
    """Parse JSON, raising ValueError on NaN or Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-finite token {token} in report")
    return json.loads(text, parse_constant=reject)


def _loglog_slope(ns, values):
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


class _HarnessChecks:
    """Per-pass report checks shared by the two Monte Carlo workloads.

    Passes draw independent replicates, so the pooled mean of the first
    ``check_passes`` passes is a Monte Carlo estimate over
    ``check_passes * replicates`` replicates; slope checks use it."""

    def _check_report(self, text, loss_rows, slope_key):
        checks = []
        try:
            report = _strict_json(text)
        except ValueError:
            return [("report_finite", False)], self.units
        checks.append(("report_finite", True))
        failures = int(report["metadata"]["replicate_failures"])
        self.replicate_failures += failures
        checks.append(("no_replicate_failures", failures == 0))
        checks.append(("replicates_per_row",
                       all(r["replicates"] == self.replicates for r in report["rows"])))
        bad_cells = {(r["n"], r["replicate"]) for r in loss_rows if not math.isfinite(r["value"])}
        expected = self.units * len(self.config["estimators"]) * len(self.config["losses"])
        checks.append(("losses_complete_and_finite", not bad_cells and len(loss_rows) == expected))
        est, loss = slope_key
        self.pooled.append({r["n"]: r["mean"] for r in report["rows"]
                            if r["estimator"] == est and r["loss"] == loss})
        return checks, failures + len(bad_cells)

    def _pooled_slope(self):
        passes = self.pooled[:self.check_passes]
        ns = sorted(passes[0])
        return _loglog_slope(ns, [np.mean([p[n] for p in passes]) for n in ns])


class RatesReadme(_HarnessChecks):
    """The README's simulate-rates config, run through ``lipshift.cli.main``."""

    name = "rates-readme"
    replicates = 2
    check_passes = 16  # 32 pooled replicates for the lse/sup slope band

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.config = {
            "distribution": {"kind": "uniform"},
            "f0": {"kind": "sine", "amplitude": 0.14, "frequency": 1.0},
            "n_grid": [256, 512, 1024, 2048, 4096, 8192],
            "replicates": self.replicates,
            "estimators": ["lse", "kernel"],
            "losses": ["sup", "weighted_sup"],
            "bandwidth": "rate",
            "seed": seed,
        }
        self.units = len(self.config["n_grid"]) * self.replicates
        self.config_path = self.workdir / "experiment.json"
        self.config_path.write_text(json.dumps(self.config))
        self.experiment = harness.ExperimentConfig.from_json(self.config)
        self.pooled = []
        self.replicate_failures = 0
        self.first_losses = None

    def prepare(self, p, outdir=None):
        out = Path(outdir or self.workdir / "out")
        out.mkdir(exist_ok=True)
        return ["simulate-rates", "--config", str(self.config_path),
                "--seed", str(pass_seed(self.seed, p)), "--out", str(out)]

    def run(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    @staticmethod
    def outputs(argv):
        out = Path(argv[argv.index("--out") + 1])
        return (out / "report.json").read_bytes(), (out / "losses.csv").read_bytes()

    def check_pass(self, p, argv, code):
        if code != 0:
            return [("exit_code", False)], self.units
        report, losses = self.outputs(argv)
        rows = [{"estimator": r["estimator"], "loss": r["loss"], "n": int(r["n"]),
                 "replicate": int(r["replicate"]), "value": float(r["value"])}
                for r in csv.DictReader(io.StringIO(losses.decode()))]
        checks, failed = self._check_report(report.decode(), rows, ("lse", "sup"))
        if p == 0:
            self.first_losses = {(r["n"], r["replicate"]): r["value"] for r in rows
                                 if r["estimator"] == "lse" and r["loss"] == "sup"}
        return [("exit_code", True)] + checks, failed

    def check_run(self):
        slope = self._pooled_slope()
        checks = [("lse_sup_slope_in_band", -0.45 <= slope <= -0.22)]
        grid = np.linspace(0.0, 1.0, harness.EVAL_GRID_SIZE)
        f0_grid = self.experiment.f0(grid)
        budget = self.experiment.budget
        for n in self.config["n_grid"]:
            sample = harness.generate(self.experiment, n, [pass_seed(self.seed, 0), n, 0])
            fit = lipfit.fit_lipschitz_lse(sample, budget)
            steps = np.abs(np.diff(fit.values))
            sup = float(np.max(np.abs(fit.evaluate(grid) - f0_grid)))
            checks += [
                (f"refit_kkt_n{n}", fit.kkt_residual <= 1e-8 * (1.0 + np.max(np.abs(sample.y)))),
                (f"refit_lipschitz_n{n}", bool(np.all(steps <= budget * np.diff(fit.knots) + 1e-9))),
                (f"refit_matches_report_n{n}", sup == self.first_losses.get((n, 0))),
            ]
        return checks


class TransferShift(_HarnessChecks):
    """Power(2) source, uniform target, transfer + isotonic estimators."""

    name = "transfer-shift"
    replicates = 1
    check_passes = 16  # 16 pooled replicates for the transfer/l2_q slope sign

    def __init__(self, seed, workdir):
        self.seed = seed
        n_grid = [2048, 4096, 8192, 16384]
        self.config = {
            "distribution": {"kind": "power", "alpha": 2.0},
            "target_distribution": {"kind": "uniform"},
            "f0": {"kind": "sine", "amplitude": 0.9 / (2.0 * math.pi), "frequency": 1.0},
            "n_grid": n_grid,
            "m_grid": [round(n ** 0.8) for n in n_grid],
            "replicates": self.replicates,
            "estimators": ["transfer", "isotonic"],
            "losses": ["sup", "l2_q"],
            "seed": seed,
        }
        self.units = len(n_grid) * self.replicates
        self.experiment = harness.ExperimentConfig.from_json(self.config)
        self.pooled = []
        self.replicate_failures = 0

    def prepare(self, p):
        return dataclasses.replace(self.experiment, seed=pass_seed(self.seed, p))

    def run(self, experiment):
        return harness.run_rate_experiment(experiment)

    def check_pass(self, p, experiment, report):
        rows = [{"n": r["n"], "replicate": r["replicate"], "value": r["value"]}
                for r in report.losses]
        return self._check_report(report.to_json(), rows, ("transfer", "l2_q"))

    def check_run(self):
        return [("transfer_l2q_slope_negative", self._pooled_slope() < 0.0)]


class SpreadDesigns:
    """Spread functions of non-closed-form designs; no fitting."""

    name = "spread-designs"
    check_passes = 1
    replicate_failures = 0  # no harness runs here
    spread_n = 4096
    shift = (16384, 1024)  # (n, m) of the pooled-design spread, as in test_08
    sample_size = 100_000

    def __init__(self, seed, workdir):
        self.seed = seed
        nodes = np.linspace(0.0, 1.0, 17)
        values = np.random.default_rng([seed, 17]).uniform(0.2, 2.0, nodes.size)
        self.config = {"spread_n": self.spread_n, "grid": 2001, "shift": list(self.shift),
                       "mixture_points": 513, "sample_size": self.sample_size,
                       "empirical_grid": 201, "tabulated_values": values.tolist(),
                       "seed": seed}
        self.P, self.Q = densities.power(2.0), densities.uniform()
        self.mix = densities.mixture(self.P, self.Q, 0.8)
        self.tab = densities.tabulated(nodes, values)
        self.designs = [self.tab, self.mix, densities.example3(self.spread_n)]
        self.spreads = [spread.SpreadFunction(d, self.spread_n) for d in self.designs]
        self.grid = np.linspace(0.0, 1.0, 2001)
        self.mix_points = np.linspace(0.0, 1.0, 513)
        self.emp_grid = np.linspace(0.0, 1.0, 201)
        self.units = (len(self.spreads) * self.grid.size + self.mix_points.size
                      + 2 * self.emp_grid.size)
        self.first = None

    def prepare(self, p):
        return None

    def run(self, _):
        n, m = self.shift
        out = {"t": [s.at(self.grid) for s in self.spreads],
               "tmix": np.array([transfer.mixture_spread(self.P, self.Q, n, m, x)
                                 for x in self.mix_points]),
               "risk": np.array(transfer.transfer_risk_integrals(self.P, self.Q, n))}
        out["samples"] = [densities.sample(d, self.sample_size, 2 * self.seed + k)
                          for k, d in enumerate((self.mix, self.tab))]
        out["t_emp"] = [spread.EmpiricalSpread(x).at(self.emp_grid) for x in out["samples"]]
        return out

    @staticmethod
    def _arrays(out):
        return out["t"] + [out["tmix"]] + out["t_emp"]

    def check_pass(self, p, _, out):
        failed = sum(int(np.sum(~np.isfinite(a))) for a in self._arrays(out))
        if p > 0:
            same = all(np.array_equal(a, b) for a, b in
                       zip(self._arrays(out) + [out["risk"]],
                           self._arrays(self.first) + [self.first["risk"]]))
            return [("deterministic", same)], failed
        self.first = out
        checks = []
        for d, s, t in zip(self.designs, self.spreads, out["t"]):
            mass = densities.interval_mass(d, self.grid - t, self.grid + t)
            resid = np.max(np.abs(t**2 * mass - s.threshold))
            checks.append((f"spread_residual_{d.kind}", bool(resid <= 1e-10 * s.threshold)))
        n, m = self.shift
        cap = np.minimum(
            spread.SpreadFunction(self.P, n).at(self.mix_points) * np.sqrt(np.log(n + m) / np.log(n)),
            spread.SpreadFunction(self.Q, m).at(self.mix_points) * np.sqrt(np.log(n + m) / np.log(m)))
        checks.append(("mixture_spread_under_cap", bool(np.all(out["tmix"] <= cap * (1.0 + 1e-8)))))
        checks.append(("risk_integrals_positive",
                       bool(np.all(np.isfinite(out["risk"])) and np.all(out["risk"] > 0))))
        for k, (x, t_emp) in enumerate(zip(out["samples"], out["t_emp"])):
            checks.append((f"sample_{k}_in_unit_interval",
                           x.size == self.sample_size and bool(np.all((x >= 0) & (x <= 1)))))
            floor = np.sqrt(np.log(x.size) / np.arange(1, x.size + 1))
            for i in (0, 37, 100, 163, 200):
                r = np.sort(np.abs(x - self.emp_grid[i]))
                oracle = np.min(np.maximum(r, floor))
                checks.append((f"empirical_{k}_oracle_x{i}",
                               abs(t_emp[i] - oracle) <= 1e-12 * oracle))
        return checks, failed

    def check_run(self):
        return []


WORKLOADS = {w.name: w for w in (RatesReadme, TransferShift, SpreadDesigns)}
