"""Command line front end.

Subcommands: spread, fit, transfer, doubling-check, prooflab, simulate-rates.
Exit codes: 0 success, 2 experiment failure, 3 bad configuration or input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import densities, prooflab
from .errors import ExperimentError, InvalidInputError, LipshiftError
from .harness import ExperimentConfig, run_rate_experiment
from .lipfit import RegressionSample, fit_lipschitz_lse
from .spread import SpreadFunction
from .transfer import fit_transfer


def _read_xy_csv(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().lower() in ("x", "#"):
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError) as exc:
                raise InvalidInputError(
                    f"{path}, line {reader.line_num}: expected two numbers x,y, got {row!r}"
                ) from exc
    if not rows:
        raise LipshiftError(f"no data rows in {path}")
    xs, ys = zip(*rows)
    return RegressionSample(np.array(xs), np.array(ys))


def _cmd_spread(args, out):
    d = densities.from_spec(args.dist)
    s = SpreadFunction(d, args.n)
    xs = np.linspace(0.0, 1.0, args.grid)
    t = s.at(xs)
    try:
        lo, hi = s.closed_form_bounds(xs)
    except LipshiftError:
        lo = hi = np.full_like(xs, np.nan)
    deriv = s.derivative(xs, t)
    writer = csv.writer(out)
    writer.writerow(["x", "t_n", "lo", "hi", "t_n_prime"])
    for i, x in enumerate(xs):
        row = [f"{x:.12g}", f"{t[i]:.12g}"]
        row += ["" if np.isnan(v) else f"{v:.12g}" for v in (lo[i], hi[i], deriv[i])]
        writer.writerow(row)
    return 0


def _cmd_fit(args, out):
    sample = _read_xy_csv(args.data)
    fit = fit_lipschitz_lse(sample, args.budget)
    writer = csv.writer(out)
    writer.writerow(["# objective", f"{fit.objective:.12g}",
                     "kkt_residual", f"{fit.kkt_residual:.3g}"])
    writer.writerow(["knot", "value"])
    for k, v in zip(fit.knots, fit.values):
        writer.writerow([f"{k:.12g}", f"{v:.12g}"])
    return 0


def _cmd_transfer(args, out):
    fit = fit_transfer(_read_xy_csv(args.source), _read_xy_csv(args.target), args.budget)
    xs = np.linspace(0.0, 1.0, args.grid)
    f1, f2 = fit.fit1.evaluate(xs), fit.fit2.evaluate(xs)
    tp, tq = fit.spread1.at(xs), fit.spread2.at(xs)
    # fit.selector(xs) and fit.evaluate(xs), with each spread computed once
    sel = fit._choose(tp, tq)
    combined = np.where(sel == 1, f1, f2)
    writer = csv.writer(out)
    writer.writerow(["x", "fit1", "fit2", "selector", "combined", "t_hat_P", "t_hat_Q"])
    for i, x in enumerate(xs):
        writer.writerow([f"{x:.12g}", f"{f1[i]:.12g}", f"{f2[i]:.12g}", int(sel[i]),
                         f"{combined[i]:.12g}", f"{tp[i]:.12g}", f"{tq[i]:.12g}"])
    return 0


def _cmd_doubling(args, out):
    d = densities.from_spec(args.dist)
    value = densities.doubling_constant(d, args.eta_max)
    print(f"doubling constant estimate (eta <= {args.eta_max}): {value:.6g}", file=out)
    return 0


def _run_prooflab_check(check, cfg):
    """Returns (passed, dict of measured quantities)."""
    if check == "perturbation":
        d = densities.from_spec(cfg.get("distribution", {"kind": "uniform"}))
        n = cfg.get("n", 100)
        K = cfg.get("K", 1.0)
        delta = cfg.get("delta", 0.5)
        s = SpreadFunction(d, n)
        grid = np.linspace(0.0, 1.0, cfg.get("grid", 2001))
        center = cfg.get("center", 0.5)
        height = 2.0 * K * s.at(center)
        psi = lambda x: np.maximum(height - np.abs(np.asarray(x) - center), 0.0)  # noqa: E731
        f = lambda x: np.zeros_like(np.asarray(x, float))  # noqa: E731
        pert = prooflab.build_perturbation(psi, f, delta, s, K, grid)
        g = pert.g(grid)
        ok = bool(
            np.all(np.abs(np.diff(g)) <= np.diff(grid) + 1e-9)
            and pert.x_ell <= pert.x_tilde <= pert.x_u
        )
        return ok, {"x_star": pert.x_star, "x_tilde": pert.x_tilde, "s_n": pert.s_n,
                    "x_ell": pert.x_ell, "x_u": pert.x_u}
    if check == "cover":
        cover = prooflab.lipschitz_cover(cfg.get("a", 0.0), cfg.get("b", 1.0),
                                         cfg.get("r", 0.2))
        return True, {"centers": len(cover), "cap": 3 ** int((cover.b - cover.a) / cover.r)}
    if check == "kl":
        P = densities.from_spec(cfg.get("P", {"kind": "uniform"}))
        Q = densities.from_spec(cfg.get("Q", {"kind": "uniform"}))
        h = cfg.get("bump_height", 0.1)
        c = cfg.get("bump_center", 0.5)
        f = lambda x: np.maximum(h - np.abs(np.asarray(x) - c), 0.0)  # noqa: E731
        g = lambda x: np.zeros_like(np.asarray(x, float))  # noqa: E731
        val = prooflab.kl_divergence(f, g, P, Q, cfg.get("n", 100), cfg.get("m", 0))
        return True, {"kl": val}
    if check == "lowerbound":
        P = densities.from_spec(cfg.get("P", {"kind": "uniform"}))
        Q = densities.from_spec(cfg.get("Q", {"kind": "uniform"}))
        n, m = cfg.get("n", 5000), cfg.get("m", 5000)
        fam = prooflab.build_lower_bound_family(P, Q, n, m)
        kls = [prooflab.kl_divergence(lambda x, j=j: fam.f(j, x),
                                      lambda x: np.zeros_like(np.asarray(x, float)),
                                      P, Q, n, m) for j in range(1, fam.count + 1)]
        budget = np.log(n + m) / 36.0
        ok = bool(np.mean(kls) <= budget + 1e-9)
        return ok, {"count": fam.count, "psi_N": fam.psi_n,
                    "mean_kl": float(np.mean(kls)), "kl_budget": budget}
    if check == "transfer-exponent":
        P = densities.from_spec(cfg.get("P", {"kind": "power", "alpha": 1.0}))
        Q = densities.from_spec(cfg.get("Q", {"kind": "uniform"}))
        gamma = cfg.get("gamma", 1.0)
        etas = cfg.get("eta_grid", [2.0 ** -k for k in range(3, 11)])
        xs = np.linspace(0.0, 1.0, cfg.get("x_nodes", 1025))
        val = prooflab.transfer_exponent_check(P, Q, gamma, etas, xs)
        return True, {"max_eta_gamma_rho": val}
    raise LipshiftError(f"unknown prooflab check {check!r}")


def _cmd_prooflab(args, out):
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
    passed, measured = _run_prooflab_check(args.check, cfg)
    status = "PASS" if passed else "FAIL"
    print(f"{args.check}: {status}", file=out)
    for key, value in measured.items():
        print(f"  {key} = {value}", file=out)
    return 0 if passed else 2


def _cmd_simulate(args, out):
    with open(args.config) as fh:
        obj = json.load(fh)
    if args.seed is not None:
        obj["seed"] = args.seed
    config = ExperimentConfig.from_json(obj)
    os.makedirs(args.out, exist_ok=True)
    outdir = args.out.rstrip("/")
    report = run_rate_experiment(config)
    report.write(f"{outdir}/report.json", f"{outdir}/losses.csv")
    for (est, loss), val in sorted(report.slopes.items()):
        print(f"{est}/{loss}: slope {val['slope']:+.4f} (stderr {val['stderr']:.4f})", file=out)
    print(f"wrote {outdir}/report.json and {outdir}/losses.csv", file=out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="lipshift",
                                     description="local-rate toolkit for Lipschitz regression")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spread", help="tabulate the spread function")
    p.add_argument("--dist", required=True, help="distribution spec as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=_cmd_spread)

    p = sub.add_parser("fit", help="Lipschitz least squares fit")
    p.add_argument("--data", required=True, help="CSV file with x,y rows")
    p.add_argument("--budget", type=float, default=1.0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("transfer", help="two-sample combined estimator")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--budget", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("doubling-check", help="grid doubling-constant diagnostic")
    p.add_argument("--dist", required=True)
    p.add_argument("--eta-max", type=float, default=0.1)
    p.set_defaults(func=_cmd_doubling)

    p = sub.add_parser("prooflab", help="run one construction check")
    p.add_argument("--check", required=True,
                   choices=["perturbation", "cover", "kl", "lowerbound", "transfer-exponent"])
    p.add_argument("--config", help="JSON file with check parameters")
    p.set_defaults(func=_cmd_prooflab)

    p = sub.add_parser("simulate-rates", help="Monte Carlo rate experiment")
    p.add_argument("--config", required=True, help="JSON experiment config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
    except (ExperimentError,) as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        code = 2
    except (LipshiftError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 3
    return code


if __name__ == "__main__":
    sys.exit(main())
