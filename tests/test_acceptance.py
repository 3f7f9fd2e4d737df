"""End-to-end acceptance checks.

Each test states a quantitative claim about the package as a whole: rate
exponents recovered by simulation, solver agreement with exhaustive oracles,
and the analytic inequalities behind the constructions.  They are slower
than the unit tests but each carries its own runtime budget.
"""

import itertools
import time

import numpy as np
import pytest

from lipshift import densities, harness
from lipshift.harness import LOSSES, ExperimentConfig, _draw, run_rate_experiment
from lipshift.lipfit import (
    RegressionSample,
    fit_isotonic_lse,
    fit_lipschitz_lse,
    isotonic_evaluate,
)
from lipshift.prooflab import build_perturbation, perturbation_faults
from lipshift.errors import NoViolationError
from lipshift.spread import EmpiricalSpread, SpreadFunction
from lipshift.transfer import TransferFit, mixture_spread

from test_lipfit import active_set_oracle, monotone_oracle

SINE_F0 = {"kind": "sine", "amplitude": 0.9 / (2 * np.pi), "frequency": 1.0}
EVAL_GRID = np.linspace(0.0, 1.0, 201)


@pytest.fixture(scope="module")
def uniform_rate_report():
    """Shared uniform-design sup-loss experiment (criteria 4 and 5)."""
    cfg = ExperimentConfig(distribution=densities.uniform(), f0_spec=SINE_F0,
                           n_grid=[256, 512, 1024, 2048, 4096, 8192],
                           replicates=50, seed=0)
    start = time.perf_counter()
    report = run_rate_experiment(cfg)
    return report, time.perf_counter() - start


def test_01_spread_exactness_bounds_lipschitz():
    start = time.perf_counter()
    dists = [densities.uniform(), densities.power(0.5),
             densities.power(1.0), densities.power(3.0)]
    xs = np.linspace(0.0, 1.0, 1024)
    for d, n in itertools.product(dists, (100, 10_000)):
        s = SpreadFunction(d, n)
        t = s.at(xs)
        resid = np.abs(t**2 * densities.interval_mass(d, xs - t, xs + t) - s.threshold)
        assert np.max(resid) <= 1e-10 * s.threshold
        lo, hi = s.closed_form_bounds(xs)
        assert np.all(lo <= t + 1e-9) and np.all(t <= hi + 1e-9)
        assert np.max(np.abs(np.diff(t))) <= np.diff(xs)[0] * (1 + 1e-8)
        assert np.all(t >= np.sqrt(np.log(n) / n) - 1e-12)
    assert time.perf_counter() - start < 5.0


def test_02_empirical_spread_consistency():
    start = time.perf_counter()
    d = densities.uniform()
    xs = np.linspace(0.0, 1.0, 101)
    sups = []
    for n in (10**3, 10**4, 10**5):
        pts = densities.sample(d, n, seed=17)
        ratio = EmpiricalSpread(pts).at(xs) / SpreadFunction(d, n).at(xs)
        sups.append(float(np.max(np.abs(ratio - 1.0))))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= 0.35
    assert time.perf_counter() - start < 30.0


def test_03_lse_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        x = np.sort(rng.random(n))
        y = rng.normal(size=n) * 2.0
        L = float(rng.uniform(0.1, 1.0))
        fit = fit_lipschitz_lse(RegressionSample(x, y), L)
        assert abs(fit.objective - active_set_oracle(x, y, L)) <= 1e-4
        assert fit.kkt_residual <= 1e-8 * (1.0 + np.max(np.abs(y)))
    assert time.perf_counter() - start < 60.0


def test_04_global_sup_loss_rate(uniform_rate_report):
    report, elapsed = uniform_rate_report
    slope = report.slopes[("lse", "sup")]["slope"]
    assert -0.45 <= slope <= -0.22
    assert elapsed < 600.0


def test_05_local_adaptivity_power_design(uniform_rate_report):
    start = time.perf_counter()
    cfg = ExperimentConfig(distribution=densities.power(1.0), f0_spec=SINE_F0,
                           n_grid=[512, 2048, 8192], replicates=50, seed=0,
                           losses=["sup", "weighted_sup"])
    report = run_rate_experiment(cfg)
    weighted_means = [r["mean"] for r in report.rows if r["loss"] == "weighted_sup"]
    assert len(weighted_means) == len(cfg.n_grid)
    # the loss weighted by 1 / t_n, whose local rate the design sets, is flat across n
    assert max(weighted_means) < 3.0 * min(weighted_means)
    # the raw sup-loss improves more slowly than under the uniform design
    uniform_slope = uniform_rate_report[0].slopes[("lse", "sup")]["slope"]
    assert report.slopes[("lse", "sup")]["slope"] > uniform_slope
    assert time.perf_counter() - start < 600.0


def test_06_kernel_bandwidth_comparison():
    start = time.perf_counter()
    f0 = {"kind": "triangle", "center": 0.5, "slope": 0.9}
    ratios = {}
    for bw in (0.5, "rate"):
        cfg = ExperimentConfig(distribution=densities.uniform(), f0_spec=f0,
                               n_grid=[8192], replicates=20, seed=0,
                               estimators=["lse", "kernel"], losses=["sup"],
                               bandwidth=bw)
        means = {r["estimator"]: r["mean"] for r in run_rate_experiment(cfg).rows}
        ratios[bw] = means["kernel"] / means["lse"]
    assert ratios[0.5] >= 2.0
    assert ratios["rate"] <= 2.0
    assert time.perf_counter() - start < 300.0


def test_07_transfer_risk_nonincreasing_in_target_size():
    start = time.perf_counter()
    P, Q = densities.power(2.0), densities.uniform()
    n = 16384
    ms = [round(n ** 0.6), round(n ** 0.8), n]
    cfg = ExperimentConfig(distribution=P, f0_spec=SINE_F0, seed=0)
    f0g = cfg.f0(EVAL_GRID)
    qg = Q.density(EVAL_GRID)

    def l2(fg):
        return LOSSES["l2_q"](fg - f0g, EVAL_GRID, None, qg)

    reps = 20
    combined = {m: [] for m in ms}
    single_1, single_2 = [], {m: [] for m in ms}
    for rep in range(reps):
        src = _draw(P, cfg.f0, 1.0, n, [cfg.seed, n, rep])
        fit1, spread1 = fit_lipschitz_lse(src, 1.0), EmpiricalSpread(src.x)
        single_1.append(l2(fit1.evaluate(EVAL_GRID)))
        for m in ms:
            tgt = _draw(Q, cfg.f0, 1.0, m, [cfg.seed + 1, m, rep])
            fit2 = fit_lipschitz_lse(tgt, 1.0)
            combined[m].append(l2(TransferFit(fit1, fit2, spread1, EmpiricalSpread(tgt.x))
                                  .evaluate(EVAL_GRID)))
            single_2[m].append(l2(fit2.evaluate(EVAL_GRID)))
    means = {m: np.mean(combined[m]) for m in ms}
    ses = {m: np.std(combined[m], ddof=1) / np.sqrt(reps) for m in ms}
    for a, b in zip(ms, ms[1:]):
        assert means[b] <= means[a] + 2.0 * (ses[a] + ses[b])
    for m in ms:
        best = min(np.mean(single_1), np.mean(single_2[m]))
        assert means[m] <= 1.5 * best
    assert time.perf_counter() - start < 900.0


def test_08_integral_inequalities_on_grid():
    start = time.perf_counter()
    configs = [
        (densities.uniform(), densities.uniform(), 100, 100),
        (densities.power(1.0), densities.uniform(), 1000, 200),
        (densities.power(2.0), densities.uniform(), 16384, 1024),
        (densities.uniform(), densities.power(0.5), 500, 500),
        (densities.example3(4096), densities.uniform(), 4096, 256),
    ]
    xs = np.linspace(0.0, 1.0, 513)
    for P, Q, n, m in configs:
        t = SpreadFunction(P, n).at(xs)
        # integrand comparison behind int t^2 q <= 4 int t Q([x +- t])
        lhs = t**2 * Q.density(xs)
        rhs = 4.0 * t * densities.interval_mass(Q, xs - t, xs + t)
        assert np.all(lhs <= rhs * (1.0 + 1e-8))
        # pooled-sample spread against both single-sample caps
        tmix = np.array([mixture_spread(P, Q, n, m, x) for x in xs])
        cap = np.minimum(
            SpreadFunction(P, n).at(xs) * np.sqrt(np.log(n + m) / np.log(n)),
            SpreadFunction(Q, m).at(xs) * np.sqrt(np.log(n + m) / np.log(m)))
        assert np.all(tmix <= cap * (1.0 + 1e-8))
    assert time.perf_counter() - start < 60.0


def test_09_proof_construction_suite():
    # every property of the perturbation on 50 randomized instances over f = 0;
    # the other constructions' claims are the checks of tests/test_prooflab.py
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    s = SpreadFunction(densities.uniform(), 10_000)
    grid = np.linspace(0.0, 1.0, 2001)
    built = 0
    while built < 50:
        delta = float(rng.uniform(0.1, 0.5))
        c, height = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.15, 0.4))
        psi = lambda x, c=c, h=height: np.maximum(h - np.abs(np.asarray(x, float) - c), 0.0)  # noqa: E731
        f = lambda x: np.zeros_like(np.asarray(x, float))  # noqa: E731
        try:
            pert = build_perturbation(psi, f, delta, s, K=1.0, grid=grid)
        except NoViolationError:
            continue
        built += 1
        assert perturbation_faults(pert, grid) == []
    assert time.perf_counter() - start < 120.0


def test_10_isotonic_oracle_and_pointwise_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        y = rng.normal(size=n)
        s = RegressionSample(np.sort(rng.random(n)), y)
        obj = float(np.sum((y - fit_isotonic_lse(s)) ** 2))
        assert abs(obj - monotone_oracle(y)) <= 1e-6
    # pointwise error at 0.5 for the linear trend decays at the cube-root rate
    u = densities.uniform()
    f0 = lambda x: np.asarray(x, float) - 0.5  # noqa: E731
    ns = [256, 1024, 4096, 16384]
    errs = []
    for n in ns:
        vals = []
        for rep in range(50):
            sample = _draw(u, f0, 1.0, n, [5, n, rep])
            vals.append(abs(float(isotonic_evaluate(sample, 0.5))))
        errs.append(np.mean(vals))
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert -0.45 <= slope <= -0.22
    assert time.perf_counter() - start < 300.0


# the main theorem's designs: t_n weights the sup norm by each one's own
# non-uniformity, with a vanishing power density at 0, a mixture and a zero stretch
THEOREM_DESIGNS = {
    "uniform": densities.uniform(),
    "power(2)": densities.power(2.0),
    "power(6)": densities.power(6.0),
    "mixture": densities.mixture(densities.power(6.0), densities.uniform(), 0.9),
    "tab-zero": densities.tabulated([0, .4, .4000001, .6, .6000001, 1], [1, 1, 0, 0, 1, 1]),
}
THEOREM_N = [2**k for k in range(10, 17)]


def _weighted_sup_report(design, estimators=("lse",)):
    cfg = ExperimentConfig(distribution=design, f0_spec=SINE_F0, n_grid=THEOREM_N,
                           replicates=20, seed=0, estimators=list(estimators),
                           losses=["weighted_sup"])
    return run_rate_experiment(cfg)


def theorem_faults(designs):
    """The gates of the main theorem that the LSE fails on these designs:
    max |f_hat - f0| / t_n may not grow with n (its slope at most 3 stderr
    above 0; one-sided, since the theorem is an upper bound), and its means
    at the largest n lie within 1.5x of each other across designs."""
    faults, last = [], {}
    for name, design in designs.items():
        report = _weighted_sup_report(design)
        fit = report.slopes[("lse", "weighted_sup")]
        if fit["slope"] > 3.0 * fit["stderr"]:
            faults.append(f"{name} slope {fit['slope']:+.3f} > 3 x {fit['stderr']:.3f}")
        last[name] = report.rows[-1]["mean"]
    if max(last.values()) > 1.5 * min(last.values()):
        faults.append(f"means at n = {THEOREM_N[-1]}: {last}")
    return faults


def test_11_main_theorem_across_designs():
    start = time.perf_counter()
    # slopes -0.017 ... +0.008 with stderr 0.011 - 0.019, means 0.75 - 0.82
    assert theorem_faults(THEOREM_DESIGNS) == []
    # the kernel smoother divides by p(x), so on a density of 0.02 over
    # [0.4, 0.6] its weighted loss is 23 - 60x the LSE's
    low = densities.tabulated([0, .4, .4000001, .6, .6000001, 1], [1, 1, .02, .02, 1, 1])
    means = {(r["estimator"], r["n"]): r["mean"]
             for r in _weighted_sup_report(low, ("lse", "kernel")).rows}
    assert all(means["kernel", n] >= 5.0 * means["lse", n] for n in THEOREM_N)
    assert time.perf_counter() - start < 60.0


def test_11_gates_fail_on_the_uniform_rate(monkeypatch):
    # the weighting the gates must see: with the uniform design's t_n in
    # place of the design's, power(6)'s slope is +0.192 +- 0.028 and its
    # largest-n mean 3.40 (power(2): +0.108 +- 0.033 and 1.87)
    uniform = ExperimentConfig(distribution=densities.uniform())
    rate = harness._rate
    monkeypatch.setattr(harness, "_rate", lambda config, n, grid: rate(uniform, n, grid))
    faults = theorem_faults({name: THEOREM_DESIGNS[name] for name in ("power(2)", "power(6)")})
    assert any(f.startswith("power(6) slope") for f in faults), faults
    assert faults[-1].startswith("means at n"), faults
