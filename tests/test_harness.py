import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipshift import densities, harness
from lipshift.errors import ConfigError, ExperimentError, InvalidInputError
from lipshift.harness import (
    ESTIMATORS,
    LOSSES,
    ExperimentConfig,
    RateReport,
    fit_loglog_slope,
    generate,
    make_f0,
    run_rate_experiment,
)
from lipshift.spread import SpreadFunction


def _config(**over):
    base = dict(distribution=densities.uniform(),
                f0_spec={"kind": "sine", "amplitude": 0.1, "frequency": 1.0},
                n_grid=[64, 128, 256], replicates=3, seed=1)
    base.update(over)
    return ExperimentConfig(**base)


# --- regression functions -----------------------------------------------

def test_triangle_f0_values_and_lipschitz():
    f0, lip = make_f0({"kind": "triangle", "center": 0.5, "slope": 0.5}, 0.1)
    assert lip == 0.5
    assert f0(0.5) == pytest.approx(0.125)
    assert f0(0.25) == 0.0 and f0(0.9) == 0.0
    assert f0(0.4) == pytest.approx(0.075)


def test_sine_f0_lipschitz_budget():
    f0, lip = make_f0({"kind": "sine", "amplitude": 0.9 / (2 * np.pi), "frequency": 1.0}, 0.1)
    assert lip == pytest.approx(0.9)
    with pytest.raises(ConfigError):
        make_f0({"kind": "sine", "amplitude": 0.2, "frequency": 1.0}, 0.1)


def test_unknown_f0_kind():
    with pytest.raises(ConfigError):
        make_f0({"kind": "spline"}, 0.1)


# --- data generation ----------------------------------------------------

def test_generate_deterministic_in_seed():
    cfg = _config()
    a = generate(cfg, 50, [1, 50, 0])
    b = generate(cfg, 50, [1, 50, 0])
    c = generate(cfg, 50, [1, 50, 1])
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


@pytest.mark.parametrize("dist", [densities.uniform(), densities.power(2.0),
                                  densities.example3(4096),
                                  densities.tabulated([0.0, 0.4, 1.0], [1.0, 0.2, 2.0])],
                         ids=lambda d: d.kind)
def test_generate_draws_the_inverse_cdf_stream(dist):
    # x from the seed's first n uniforms, then the noise from the same stream
    cfg = _config(distribution=dist)
    s = generate(cfg, 300, [1, 300, 2])
    rng = np.random.default_rng([1, 300, 2])
    x = dist.ppf(rng.random(300))
    y = cfg.f0(x) + cfg.noise_sd * rng.standard_normal(300)
    order = np.argsort(x, kind="stable")  # as RegressionSample stores them
    assert np.array_equal(s.x.view(np.int64), x[order].view(np.int64))
    assert np.array_equal(s.y.view(np.int64), y[order].view(np.int64))


def test_generate_zero_noise_recovers_f0():
    cfg = _config(noise_sd=0.0)
    s = generate(cfg, 100, 7)
    assert np.allclose(s.y, cfg.f0(s.x))


def test_generate_mean_matches_f0():
    cfg = _config(f0_spec={"kind": "zero"})
    s = generate(cfg, 200_000, 11)
    assert abs(np.mean(s.y)) < 3.0 / np.sqrt(200_000)
    assert np.std(s.y) == pytest.approx(1.0, abs=0.01)


# --- slope fitting ------------------------------------------------------

def test_slope_exact_power_law():
    ns = [100, 200, 400, 800]
    slope, se = fit_loglog_slope([(n, 3.0 * n ** (-1 / 3)) for n in ns])
    assert slope == pytest.approx(-1 / 3, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_slope_constant_is_zero():
    slope, _ = fit_loglog_slope([(n, 2.5) for n in (10, 100, 1000)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_slope_noisy_within_three_stderr():
    rng = np.random.default_rng(2)
    ns = np.geomspace(100, 10_000, 8)
    vals = ns ** -0.5 * np.exp(0.05 * rng.standard_normal(8))
    slope, se = fit_loglog_slope(list(zip(ns, vals)))
    assert abs(slope + 0.5) <= 3.0 * se


def test_slope_input_checks():
    with pytest.raises(InvalidInputError):
        fit_loglog_slope([(10, 1.0), (20, 0.5)])
    with pytest.raises(InvalidInputError):
        fit_loglog_slope([(10, 1.0), (20, 0.5), (40, 0.0)])


# --- config parsing -----------------------------------------------------

def test_config_from_json_roundtrip():
    obj = {"distribution": {"kind": "power", "alpha": 1.0},
           "f0": {"kind": "triangle", "slope": 0.3},
           "n_grid": [32, 64, 128], "replicates": 2, "seed": 9,
           "estimators": ["lse", "isotonic"], "losses": ["sup", "l2_q"]}
    cfg = ExperimentConfig.from_json(json.dumps(obj))
    assert cfg.distribution.kind == "power"
    assert cfg.seed == 9 and cfg.replicates == 2
    assert cfg.f0_lip == pytest.approx(0.3)


@pytest.mark.parametrize("bad", [
    {"f0": {"kind": "zero"}},                                # missing distribution
    {"distribution": {"kind": "uniform"}, "n_grid": [64, 32]},
    {"distribution": {"kind": "uniform"}, "estimators": ["forest"]},
    {"distribution": {"kind": "uniform"}, "losses": ["hinge"]},
    {"distribution": {"kind": "uniform"}, "replicates": 0},
    {"distribution": {"kind": "uniform"}, "delta": 1.5},
    {"distribution": {"kind": "uniform"}, "estimators": ["transfer"]},
    {"distribution": {"kind": "uniform"}, "replicate": 2},  # typo of "replicates"
])
def test_config_rejects_bad_entries(bad):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(json.dumps(bad))


def test_config_from_json_defaults_and_null_target():
    cfg = ExperimentConfig.from_json({"distribution": {"kind": "uniform"},
                                      "target_distribution": None})
    assert cfg == ExperimentConfig(distribution=cfg.distribution)
    assert cfg.f0_spec == {"kind": "zero"} and cfg.target_distribution is None
    assert cfg.replicates == 20 and cfg.n_grid == [256, 512, 1024]


def test_transfer_needs_matching_grids():
    # checked when the config is built, before any replicate runs
    with pytest.raises(ConfigError, match="m_grid"):
        _config(estimators=["transfer"], m_grid=[64, 128],
                target_distribution=densities.uniform())


# (key, value) pairs that must fail config validation with the key named:
# grid entries, scalars, name lists and the f0 spec of the wrong type or
# range, bools included
BAD_VALUES = {"replicates": [1.5, True], "seed": [1.5, -1, True],
              "budget": [0, 2, np.nan, True], "bandwidth": ["fast", 0, -0.5, np.inf],
              "noise_sd": [-1, np.nan, np.inf], "delta": ["0.1", None, [0.1]],
              "estimators": ["lse", [["lse"]], []], "losses": ["sup", [["sup"]], []],
              "f0": ["sine", {"kind": 3}, None, ["sine"], {"kind": "sine", "amplitud": 0.5},
                     {"kind": "zero", "amplitude": 0.1}, {"kind": "triangle", "slope": np.nan},
                     {"kind": "triangle", "center": np.nan}, {"kind": "sine", "amplitude": "x"},
                     {"kind": "triangle", "slope": False}, {"kind": "sine", "frequency": np.inf},
                     {"kind": "Sine"}]}
BAD_SIZES = [0, -5, 1.5, 64.0, True, "64", None]
# whole n_grid values: repeated sizes would redraw the same streams
BAD_GRIDS = [[64, 64, 64], [32, 64, 64], [64, 32, 128]]
# bad entries put into a grid, then bad whole values
BAD_ENTRIES = [(key, v) for key in ("n_grid", "m_grid") for v in BAD_SIZES]
BAD_CONFIG = ([("n_grid", grid) for grid in BAD_GRIDS]
              + [(key, v) for key, values in BAD_VALUES.items() for v in values])
# whole grids that are not lists, for both grid keys
NOT_LISTS = [(key, v) for key in ("n_grid", "m_grid") for v in (64, "abc")]
# the edge value that passes for each key, numpy integers included
EDGE = {"n_grid": [1, 64, 128], "m_grid": [16, np.int64(1), 32], "replicates": np.int64(1),
        "seed": 0, "budget": 1, "bandwidth": 1e-3, "noise_sd": 0.0, "delta": np.float64(1e-3),
        "estimators": ["kernel"], "losses": ["l2_q"], "f0": {}}


CASES = ([(key, v, False) for key, v in BAD_ENTRIES]
         + [(key, v, True) for key, v in BAD_CONFIG + NOT_LISTS])
CASE_IDS = ([f"{v}-{key}" for key, v in BAD_ENTRIES + BAD_CONFIG]
            + [f"{key}={v!r}" for key, v in NOT_LISTS])


def _python_built(obj):
    """ExperimentConfig(**kwargs) from a JSON config, its designs built first."""
    kwargs = {("f0_spec" if key == "f0" else key): v for key, v in obj.items()}
    for key in ("distribution", "target_distribution"):
        if key in obj:
            kwargs[key] = densities.from_spec(obj[key])
    return ExperimentConfig(**kwargs)


# each case on both paths: read from JSON, and built in Python
@pytest.mark.parametrize("key, bad, whole, build",
                         [c + (ExperimentConfig.from_json,) for c in CASES]
                         + [c + (_python_built,) for c in CASES],
                         ids=CASE_IDS + [f"python-{i}" for i in CASE_IDS])
def test_config_rejects_bad_sizes(key, bad, whole, build):
    obj = {"distribution": {"kind": "uniform"}, "n_grid": [32, 64, 128]}
    if key == "m_grid":
        obj.update(estimators=["transfer"], target_distribution={"kind": "uniform"})
    obj[key] = bad if whole else {"n_grid": [bad, 64, 128], "m_grid": [16, bad, 32]}[key]
    with pytest.raises(ConfigError, match=key):
        build(obj)
    obj[key] = EDGE[key]
    build(obj)


# --- experiments --------------------------------------------------------

def test_experiment_deterministic():
    r1 = run_rate_experiment(_config())
    r2 = run_rate_experiment(_config())
    assert r1.rows == r2.rows
    assert r1.losses == r2.losses


def test_adding_replicates_keeps_earlier_draws():
    small = run_rate_experiment(_config(replicates=2))
    large = run_rate_experiment(_config(replicates=4))
    key = lambda rec: (rec["estimator"], rec["loss"], rec["n"], rec["replicate"])  # noqa: E731
    small_map = {key(r): r["value"] for r in small.losses}
    large_map = {key(r): r["value"] for r in large.losses}
    for k, v in small_map.items():
        assert large_map[k] == v


def test_zero_noise_losses_vanish_and_no_slope():
    cfg = _config(f0_spec={"kind": "zero"}, noise_sd=0.0)
    report = run_rate_experiment(cfg)
    assert all(rec["value"] <= 1e-12 for rec in report.losses)
    assert report.slopes == {}


def test_report_contains_all_cells_and_metadata():
    cfg = _config(estimators=["lse", "isotonic"], losses=["sup", "weighted_sup"])
    report = run_rate_experiment(cfg)
    combos = {(r["estimator"], r["loss"], r["n"]) for r in report.rows}
    assert len(combos) == 2 * 2 * 3
    assert report.metadata["replicate_failures"] == 0
    assert report.metadata["f0_lipschitz"] == pytest.approx(0.1 * 2 * np.pi)
    assert report.metadata["doubling_constant"] <= 2.0 + 1e-9
    assert set(report.slopes) == {(e, l) for e in ("lse", "isotonic")
                                  for l in ("sup", "weighted_sup")}


def test_weighted_sup_run_solves_spread_once(monkeypatch):
    # t_n on the grid for every n of the run in one `_at_points` call, each
    # point with its n's threshold; none without the weighted loss
    calls = []
    at_points = SpreadFunction._at_points

    def spy(self, x, thr=None):
        calls.append((x.size, None if thr is None else np.unique(thr).tolist()))
        return at_points(self, x, thr)

    monkeypatch.setattr(SpreadFunction, "_at_points", spy)
    cfg = _config(n_grid=[64, 128, 256, 512], losses=["sup", "weighted_sup"])
    run_rate_experiment(cfg)
    thresholds = sorted(SpreadFunction(cfg.distribution, n).threshold for n in cfg.n_grid)
    assert calls == [(4 * harness.EVAL_GRID_SIZE, thresholds)]
    calls.clear()
    run_rate_experiment(_config())
    assert calls == []


def test_lse_sup_loss_decreases_with_n():
    cfg = _config(n_grid=[64, 256, 1024], replicates=10)
    report = run_rate_experiment(cfg)
    means = [r["mean"] for r in report.rows
             if r["estimator"] == "lse" and r["loss"] == "sup"]
    assert means[0] > means[1] > means[2]
    assert report.slopes[("lse", "sup")]["slope"] < -0.1


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_each_estimator_runs_every_loss(name):
    cfg = _config(estimators=[name], losses=list(LOSSES), m_grid=[32, 64, 128],
                  target_distribution=densities.power(1.0))
    report = run_rate_experiment(cfg)
    assert report.metadata["replicate_failures"] == 0
    assert {(r["estimator"], r["loss"]) for r in report.rows} == {(name, l) for l in LOSSES}
    assert len(report.losses) == 3 * 3 * len(LOSSES)
    assert all(math.isfinite(rec["value"]) and rec["value"] > 0 for rec in report.losses)


def test_estimators_run_in_table_order():
    forward = run_rate_experiment(_config(estimators=["lse", "kernel", "isotonic"]))
    backward = run_rate_experiment(_config(estimators=["isotonic", "kernel", "lse"]))
    assert forward.losses == backward.losses
    assert [rec["estimator"] for rec in forward.losses[:3]] == ["lse", "isotonic", "kernel"]


def test_nonfinite_loss_is_a_replicate_failure(monkeypatch):
    monkeypatch.setitem(harness.LOSSES, "sup", lambda err, grid, t, q: math.nan)
    with pytest.raises(ExperimentError, match="9/9 replicates failed: NonFiniteLoss x9"):
        run_rate_experiment(_config())


def test_failure_ledger_records_type_and_first_message(monkeypatch, tmp_path):
    lse = ESTIMATORS["lse"]

    def flaky(config, sample, grid, m, rep):
        if sample.n == 128 and rep in (3, 7):
            raise ZeroDivisionError(f"replicate {rep} divided by zero")
        return lse(config, sample, grid, m, rep)

    monkeypatch.setitem(harness.ESTIMATORS, "lse", flaky)
    report = run_rate_experiment(_config(n_grid=[64, 128, 256, 512], replicates=20))
    report.write(tmp_path / "report.json", tmp_path / "losses.csv")
    meta = json.loads((tmp_path / "report.json").read_text())["metadata"]
    assert meta["replicate_failures"] == 2  # 2 of 80, under the 5 % guard
    assert meta["failures"] == {"ZeroDivisionError": {
        "count": 2, "first_message": "replicate 3 divided by zero"}}
    assert len(report.losses) == 78
    assert run_rate_experiment(_config()).metadata["failures"] == {}


def serial_oracle(config):
    """(rows, losses, ledger) of the cells run one after another in this
    process, in table order: what run_rate_experiment must report."""
    grid = np.linspace(0.0, 1.0, harness.EVAL_GRID_SIZE)
    f0_grid = config.f0(grid)
    q_grid = (config.target_distribution or config.distribution).density(grid)
    rows, losses, ledger = [], [], {}
    for n, m in zip(config.n_grid, config.m_grid or [None] * len(config.n_grid)):
        spread_grid = SpreadFunction(config.distribution, n).at(grid) \
            if "weighted_sup" in config.losses else None
        cell = {}
        for rep in range(config.replicates):
            try:
                vals = harness._replicate_losses(config, n, m, rep, grid, spread_grid,
                                                 q_grid, f0_grid)
            except Exception as exc:
                entry = ledger.setdefault(type(exc).__name__,
                                          {"count": 0, "first_message": str(exc)})
                entry["count"] += 1
                continue
            for key, v in vals.items():
                cell.setdefault(key, []).append(v)
                losses.append({"estimator": key[0], "loss": key[1], "n": n,
                               "m": m, "replicate": rep, "value": v})
        for (est, loss), vals in sorted(cell.items()):
            vals = np.asarray(vals)
            rows.append({
                "estimator": est, "loss": loss, "n": n, "m": m,
                "mean": float(vals.mean()), "median": float(np.median(vals)),
                "stderr": float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0,
                "replicates": int(vals.size),
            })
    return rows, losses, ledger


def _open_fds():
    """The number of this process's open file descriptors, where Linux lists them."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def assert_no_worker_left(fds):
    # every worker reaped and every pipe closed (at most as many
    # descriptors as before: the collector may close others)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() <= fds


@pytest.mark.parametrize("cpus", [1, 8])
def test_report_matches_serial_oracle_bit_for_bit(monkeypatch, cpus):
    # one worker, and more workers than this machine may have cores
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    cfg = _config(estimators=list(ESTIMATORS), losses=list(LOSSES), m_grid=[32, 64, 128],
                  target_distribution=densities.power(1.0))
    fds = _open_fds()
    report = run_rate_experiment(cfg)
    assert_no_worker_left(fds)
    rows, losses, ledger = serial_oracle(cfg)
    # repr tells -0.0 from 0.0 and round-trips every float
    assert repr(report.losses) == repr(losses) and len(losses) == 3 * 3 * 4 * 3
    assert repr(report.rows) == repr(rows)
    assert report.metadata["failures"] == ledger == {}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1e-300, -1e300]),
                min_size=1, max_size=8)
       .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
def test_median_matches_numpy_bit_for_bit(vals):
    # drawn from a small pool, so ties (and ties of 0.0 with -0.0) are common
    vals = np.asarray(vals)
    assert np.float64(harness._median(vals)).tobytes() == np.median(vals).tobytes()


def test_failures_are_read_in_table_order(monkeypatch):
    # n = 512 is dispatched first and fails at once, but the ledger's first
    # message is that of the first failing cell in table order
    lse = ESTIMATORS["lse"]

    def flaky(config, sample, grid, m, rep):
        if (sample.n, rep) in ((64, 5), (512, 0)):
            raise ZeroDivisionError(f"n={sample.n} replicate {rep} divided by zero")
        return lse(config, sample, grid, m, rep)

    monkeypatch.setitem(harness.ESTIMATORS, "lse", flaky)
    cfg = _config(n_grid=[64, 128, 256, 512], replicates=20)
    report = run_rate_experiment(cfg)
    rows, losses, ledger = serial_oracle(cfg)
    assert report.metadata["failures"] == ledger == {"ZeroDivisionError": {
        "count": 2, "first_message": "n=64 replicate 5 divided by zero"}}
    assert repr(report.losses) == repr(losses) and repr(report.rows) == repr(rows)


def test_dead_worker_aborts_the_run(monkeypatch):
    # two cells in 80 kill their workers, one of them the first cell dealt,
    # so the first worker read: under the 5 % guard if they were counted as
    # failed replicates, but the run must stop, say so and stop the others
    lse, tester = ESTIMATORS["lse"], os.getpid()

    def dying(config, sample, grid, m, rep):
        if (sample.n, rep) in ((128, 7), (512, 0)):
            assert os.getpid() != tester, "the cell ran in the test process"
            os._exit(1)
        return lse(config, sample, grid, m, rep)

    monkeypatch.setitem(harness.ESTIMATORS, "lse", dying)
    fds = _open_fds()
    start = time.perf_counter()
    with pytest.raises(ExperimentError, match=r"worker process died \(pid \d+ with exit code 1\)"):
        run_rate_experiment(_config(n_grid=[64, 128, 256, 512], replicates=20))
    assert time.perf_counter() - start < 10.0
    assert_no_worker_left(fds)


def test_failed_fork_leaves_no_worker(monkeypatch):
    # the second fork fails in the parent, with the first worker running:
    # the error propagates, and the first worker is stopped and reaped
    fork, calls = os.fork, []

    def failing_fork():
        calls.append(None)
        if len(calls) == 2:
            raise OSError("no second fork")
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", failing_fork)
    fds = _open_fds()
    with pytest.raises(OSError, match="no second fork"):
        run_rate_experiment(_config(n_grid=[64, 128, 256, 512], replicates=20))
    assert len(calls) == 2
    assert_no_worker_left(fds)


def test_report_json_rejects_nonfinite():
    report = RateReport(rows=[], losses=[], slopes={}, metadata={"x": math.inf})
    with pytest.raises(ValueError):
        report.to_json()


def test_report_write_fails_before_touching_files(tmp_path):
    # a report that cannot be serialized leaves both earlier files as they were
    report = RateReport(rows=[], losses=[], slopes={}, metadata={"x": math.inf})
    paths = [tmp_path / "report.json", tmp_path / "losses.csv"]
    for path in paths:
        path.write_text("earlier\n")
    with pytest.raises(ValueError):
        report.write(*paths)
    assert [path.read_text() for path in paths] == ["earlier\n"] * 2


def test_report_write_and_json(tmp_path):
    report = run_rate_experiment(_config())
    report.write(tmp_path / "report.json", tmp_path / "losses.csv")
    obj = json.loads((tmp_path / "report.json").read_text())
    assert "rows" in obj and "slopes" in obj and "metadata" in obj
    lines = (tmp_path / "losses.csv").read_text().strip().splitlines()
    assert lines[0] == "estimator,loss,n,m,replicate,value"
    assert len(lines) == 1 + len(report.losses)


def test_failure_rate_guard():
    # a target distribution is configured but m is tiny, so every transfer
    # replicate dies and the failure guard trips
    cfg = _config(estimators=["transfer"], m_grid=[1, 1, 1],
                  target_distribution=densities.uniform())
    with pytest.raises(ExperimentError):
        run_rate_experiment(cfg)
