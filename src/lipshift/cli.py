"""Command line front end.

Subcommands: spread, fit, transfer, doubling-check, prooflab, simulate-rates.
Exit codes: 0 success, 1 the C kernels cannot be built or loaded (the
import raises `KernelUnavailableError` before any argument is read), 2
experiment failure or a failed prooflab check, 3 bad configuration or
input, argparse's usage errors included.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import densities, prooflab
from .errors import ExperimentError, InvalidInputError, InvalidParameterError, LipshiftError
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


def _grid(points):
    """`--grid`'s equispaced x in [0, 1]."""
    if points < 1:
        raise InvalidParameterError(f"--grid must be at least 1, got {points}")
    return np.linspace(0.0, 1.0, points)


def _cmd_spread(args, out):
    d = densities.from_spec(args.dist)
    s = SpreadFunction(d, args.n)
    xs = _grid(args.grid)
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
    xs = _grid(args.grid)
    fit = fit_transfer(_read_xy_csv(args.source), _read_xy_csv(args.target), args.budget)
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


def _cmd_prooflab(args, out):
    obj = {}
    if args.config:
        with open(args.config) as fh:
            obj = json.load(fh)
    passed, measured = prooflab.run_check(args.check, obj)
    print(f"{args.check}: {'PASS' if passed else 'FAIL'}", file=out)
    for key, value in measured.items():
        print(f"  {key} = {value}", file=out)
    return 0 if passed else 2


def _cmd_simulate(args, out):
    with open(args.config) as fh:
        obj = json.load(fh)
    if args.seed is not None and isinstance(obj, dict):  # from_json rejects the rest
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
    p.add_argument("--check", required=True, choices=list(prooflab._CHECKS))
    p.add_argument("--config", help="JSON file with check parameters")
    p.set_defaults(func=_cmd_prooflab)

    p = sub.add_parser("simulate-rates", help="Monte Carlo rate experiment")
    p.add_argument("--config", required=True, help="JSON experiment config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        if exc.code != 2:
            raise
        return 3
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
