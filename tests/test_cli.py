import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from lipshift import densities, harness, prooflab
from lipshift.cli import _read_xy_csv, main
from lipshift.errors import NondifferentiablePointError
from lipshift.spread import EmpiricalSpread, SpreadFunction
from lipshift.transfer import fit_transfer

UNIFORM = json.dumps({"kind": "uniform"})


def _write_xy(path, x, y):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for a, b in zip(x, y):
            writer.writerow([a, b])


def test_spread_outputs_table(capsys):
    code = main(["spread", "--dist", UNIFORM, "--n", "100", "--grid", "11"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("x,t_n,lo,hi,t_n_prime")
    assert len(lines) == 12
    mid = lines[6].split(",")  # x = 0.5
    assert float(mid[1]) == pytest.approx((np.log(100) / 200) ** (1 / 3), abs=1e-9)
    assert float(mid[4]) == pytest.approx(0.0, abs=1e-12)


def test_spread_solves_once(capsys, monkeypatch):
    calls = []
    at = SpreadFunction.at
    monkeypatch.setattr(SpreadFunction, "at", lambda self, x: calls.append(np.size(x)) or at(self, x))
    spec = {"kind": "power", "alpha": 2}
    assert main(["spread", "--dist", json.dumps(spec), "--n", "1000", "--grid", "101"]) == 0
    assert calls == [101]
    monkeypatch.setattr(SpreadFunction, "at", at)
    # the t_n_prime column is the scalar derivative at each point, or blank
    s = SpreadFunction(densities.from_spec(spec), 1000)
    want = []
    for x in np.linspace(0.0, 1.0, 101):
        try:
            want.append(f"{s.derivative(float(x)):.12g}")
        except NondifferentiablePointError:
            want.append("")
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert [r[4] for r in rows] == want
    assert "" in want


def test_spread_bad_dist_json_exits_3(capsys):
    assert main(["spread", "--dist", "{not json", "--n", "100"]) == 3


def test_spread_sample_size_of_2_to_the_64_exits_3(capsys):
    # np.log cannot read so large a Python integer: a typed refusal, not a
    # traceback and the missing compiler's exit code 1
    assert main(["spread", "--dist", UNIFORM, "--n", str(10**23)]) == 3
    assert "n=100000000000000000000000" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["spread", "--n", "100"],
                                  ["spread", "--dist", UNIFORM, "--n", "ten"],
                                  ["prooflab", "--check", "nope"]],
                         ids=["missing-dist", "n-not-int", "unknown-check"])
def test_usage_error_exits_3(argv, capsys):
    assert main(argv) == 3
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spread", "--help"])
    assert exc.value.code == 0
    assert "--dist" in capsys.readouterr().out


@pytest.mark.parametrize("grid", ["0", "-1"])
@pytest.mark.parametrize("command", ["spread", "transfer"])
def test_grid_below_one_exits_3(tmp_path, capsys, command, grid):
    if command == "spread":
        args = ["spread", "--dist", UNIFORM, "--n", "100"]
    else:
        for name in ("s.csv", "t.csv"):
            _write_xy(tmp_path / name, [0.1, 0.5, 0.9], [0.0, 0.2, 0.1])
        args = ["transfer", "--source", str(tmp_path / "s.csv"), "--target", str(tmp_path / "t.csv")]
    assert main(args + ["--grid", grid]) == 3
    captured = capsys.readouterr()
    assert "--grid" in captured.err and captured.out == ""


def test_fit_reads_csv(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = np.sort(rng.random(20))
    _write_xy(tmp_path / "d.csv", x, rng.normal(size=20))
    code = main(["fit", "--data", str(tmp_path / "d.csv"), "--budget", "0.8"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# objective")
    assert len(lines) == 2 + 20


def test_fit_missing_file_exits_3(capsys):
    assert main(["fit", "--data", "/nonexistent.csv"]) == 3


def test_fit_nan_cell_exits_3(tmp_path, capsys):
    _write_xy(tmp_path / "d.csv", [0.1, 0.5, 0.9], [0.0, "nan", 1.0])
    assert main(["fit", "--data", str(tmp_path / "d.csv")]) == 3
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("row", [["0.5", "abc"], ["0.5"], ["0.5", "1.0", "9"]])
def test_fit_malformed_row_exits_3(tmp_path, capsys, row):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0.1,0.0\n" + ",".join(row) + "\n0.9,1.0\n")
    assert main(["fit", "--data", str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "line 3" in err


def test_transfer_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(1)
    _write_xy(tmp_path / "s.csv", np.sort(rng.random(30)), rng.normal(size=30))
    _write_xy(tmp_path / "t.csv", np.sort(rng.random(10)), rng.normal(size=10))
    code = main(["transfer", "--source", str(tmp_path / "s.csv"),
                 "--target", str(tmp_path / "t.csv"), "--grid", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,fit1,fit2,selector,combined,t_hat_P,t_hat_Q"
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[3] in ("1", "2")


def test_transfer_computes_each_spread_once(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(2)
    _write_xy(tmp_path / "s.csv", np.sort(rng.random(300)), rng.normal(size=300))
    _write_xy(tmp_path / "t.csv", np.sort(rng.random(100)), rng.normal(size=100))
    calls = []
    at = EmpiricalSpread.at
    monkeypatch.setattr(EmpiricalSpread, "at", lambda self, x: calls.append(self.n) or at(self, x))
    args = ["transfer", "--source", str(tmp_path / "s.csv"),
            "--target", str(tmp_path / "t.csv"), "--grid", "101"]
    assert main(args) == 0
    assert sorted(calls) == [100, 300]
    monkeypatch.setattr(EmpiricalSpread, "at", at)
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    fit = fit_transfer(_read_xy_csv(str(tmp_path / "s.csv")),
                       _read_xy_csv(str(tmp_path / "t.csv")), 1.0)
    xs = np.linspace(0.0, 1.0, 101)
    assert [int(r[3]) for r in rows] == fit.selector(xs).tolist()
    assert [r[4] for r in rows] == [f"{v:.12g}" for v in fit.evaluate(xs)]


def test_doubling_check(capsys):
    assert main(["doubling-check", "--dist", UNIFORM]) == 0
    out = capsys.readouterr().out
    assert "doubling constant" in out


@pytest.mark.parametrize("eta_max", ["nan", "inf", "0", "-1"])
def test_doubling_check_bad_eta_max_exits_3(eta_max, capsys):
    assert main(["doubling-check", "--dist", UNIFORM, "--eta-max", eta_max]) == 3
    captured = capsys.readouterr()
    assert "eta_max" in captured.err and captured.out == ""


@pytest.mark.parametrize("check", list(prooflab._CHECKS))
def test_prooflab_checks_pass(check, capsys):
    assert main(["prooflab", "--check", check]) == 0
    assert "PASS" in capsys.readouterr().out


_KL, _FAMILY, _RHO = (prooflab.kl_divergence, prooflab.build_lower_bound_family,
                      prooflab.transfer_exponent_check)
# check -> a fault planted in its construction: (owner, name, replacement)
FAULTS = {
    "perturbation": (prooflab.Perturbation, "g", lambda self, x: self._psi(x)),  # no dent
    "cover": (prooflab, "cover_center_for", lambda g, cover: np.zeros(cover.nodes.size)),
    "kl": (prooflab, "kl_divergence", lambda *args: 2.0 * _KL(*args)),
    # bumps of height t_{n,m}, not t_{n,m}/6
    "lowerbound": (prooflab, "build_lower_bound_family",
                   lambda *args: replace(fam := _FAMILY(*args), heights=6.0 * fam.heights)),
    # eta^gamma dropped
    "transfer-exponent": (prooflab, "transfer_exponent_check",
                          lambda P, Q, gamma, etas, xs: _RHO(P, Q, 0.0, etas, xs)),
}


@pytest.mark.parametrize("check, config",
                         [(check, {}) for check in prooflab._CHECKS]
                         + [("transfer-exponent", {"gamma": 0.5})],
                         ids=[f"{check}-fault" for check in prooflab._CHECKS]
                         + ["transfer-exponent-gamma-0.5"])
def test_prooflab_check_fails_exits_2(tmp_path, capsys, monkeypatch, check, config):
    # on its defaults each check fails with a fault planted; (Power(1), Uniform)
    # has transfer exponent 1, so at gamma = 1/2 its weighted mass grows 26-fold
    if not config:
        monkeypatch.setattr(*FAULTS[check])
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["prooflab", "--check", check, "--config", str(tmp_path / "config.json")]) == 2
    assert f"{check}: FAIL" in capsys.readouterr().out


def test_prooflab_config_file(tmp_path, capsys):
    cfg = tmp_path / "kl.json"
    cfg.write_text(json.dumps({"bump_height": 0.1, "n": 100, "m": 0}))
    assert main(["prooflab", "--check", "kl", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    kl = float(out.split("kl = ")[1].split()[0])
    assert kl == pytest.approx(1.0 / 30.0, abs=1e-6)


# a config that is not an object, a misspelt key that would run the default,
# and values of the wrong type that ended in a TypeError traceback
@pytest.mark.parametrize("check, config, named",
                         [("kl", [1, 2], "JSON object"), ("kl", {"bump_hieght": 0.2}, "bump_hieght"),
                          ("kl", {"n": "x"}, "'n'"),
                          ("transfer-exponent", {"x_nodes": 1.5}, "'x_nodes'"),
                          # out of range: numpy tracebacks, an inverted support that
                          # failed the check, and a one-node trapezoid that passed it
                          ("perturbation", {"grid": 0}, "'grid'"),
                          ("perturbation", {"grid": -1}, "'grid'"),
                          ("perturbation", {"K": 0}, "K must be > 0"),
                          ("transfer-exponent", {"x_nodes": -1}, "'x_nodes'"),
                          ("transfer-exponent", {"x_nodes": 1}, "'x_nodes'"),
                          ("transfer-exponent", {"eta_grid": [-0.1]}, "eta_grid"),
                          # below 0.01, Simpson's error passes the 0.1 % slack
                          ("kl", {"bump_height": 0.00114}, "'bump_height'")],
                         ids=["not-an-object", "misspelt-key", "kl-n-string",
                              "transfer-exponent-x_nodes-float", "perturbation-grid-0",
                              "perturbation-grid-negative", "perturbation-K-0",
                              "transfer-exponent-x_nodes-negative", "transfer-exponent-x_nodes-1",
                              "transfer-exponent-eta-negative", "kl-bump_height-small"])
def test_prooflab_bad_config_exits_3(tmp_path, capsys, check, config, named):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["prooflab", "--check", check, "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert named in captured.err and "PASS" not in captured.out


def test_simulate_rates_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "distribution": {"kind": "uniform"},
        "f0": {"kind": "sine", "amplitude": 0.05, "frequency": 1.0},
        "n_grid": [32, 64, 128], "replicates": 2,
        "estimators": ["lse"], "losses": ["sup"],
    }))
    code = main(["simulate-rates", "--config", str(cfg), "--seed", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["metadata"]["seed"] == 4
    assert "lse/sup" in report["slopes"]
    rows = (tmp_path / "losses.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3 * 2
    assert "slope" in capsys.readouterr().out


def test_simulate_rates_creates_nested_out_dir(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"distribution": {"kind": "uniform"},
                               "n_grid": [32, 64, 128], "replicates": 2,
                               "estimators": ["lse"], "losses": ["sup"]}))
    out = tmp_path / "results" / "run1"
    assert main(["simulate-rates", "--config", str(cfg), "--out", f"{out}/"]) == 0
    assert json.loads((out / "report.json").read_text())["slopes"]
    assert (out / "losses.csv").exists()


def test_simulate_rates_non_object_config_exits_3(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert main(["simulate-rates", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "JSON object" in capsys.readouterr().err
    # --seed too, which is put into the config object
    assert main(["simulate-rates", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path)]) == 3
    assert "JSON object" in capsys.readouterr().err


def test_spread_mixture_spec(capsys):
    spec = json.dumps({"kind": "mixture", "weight_p": 0.7,
                       "p": {"kind": "power", "alpha": 2.0}, "q": {"kind": "uniform"}})
    assert main(["spread", "--dist", spec, "--n", "100", "--grid", "11"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 12


@pytest.mark.parametrize("nested", ['{"kind": "power"}', '{"kind": "power", "alpha": "x"}',
                                    '5', '{"kind": "cauchy"}'])
def test_spread_malformed_nested_spec_exits_3(capsys, nested):
    spec = f'{{"kind": "mixture", "weight_p": 0.5, "p": {{"kind": "uniform"}}, "q": {nested}}}'
    assert main(["spread", "--dist", spec, "--n", "100"]) == 3
    assert "config error" in capsys.readouterr().err


def test_simulate_rates_bad_config_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"distribution": {"kind": "uniform"},
                               "estimators": ["forest"]}))
    assert main(["simulate-rates", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_simulate_rates_unknown_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"distribution": {"kind": "uniform"},
                               "n_grid": [32, 64, 128], "replicate": 2}))
    assert main(["simulate-rates", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "replicate" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_simulate_rates_zero_density_kernel_fails(tmp_path, capsys):
    # the kernel smoother divides by the design density, which vanishes at
    # x = 0 for power(1); every replicate fails instead of reporting inf/NaN
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"distribution": {"kind": "power", "alpha": 1.0},
                               "n_grid": [64, 128, 256], "replicates": 3,
                               "estimators": ["kernel"], "losses": ["sup", "l2_q"]}))
    assert main(["simulate-rates", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "9/9 replicates failed" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_simulate_rates_non_doubling_design_reports_null(tmp_path, capsys):
    # a zero-density stretch holds zero-mass intervals, so the design has no
    # doubling constant; its spreads, draws and fits all work
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "distribution": {"kind": "tabulated", "grid": [0, 0.3, 0.4, 0.6, 0.7, 1],
                         "values": [1, 1, 0, 0, 1, 1]},
        "n_grid": [256, 512, 1024], "replicates": 4, "estimators": ["lse"],
        "losses": ["sup", "weighted_sup"]}))
    assert main(["simulate-rates", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["metadata"]["doubling_constant"] is None
    rows = [r for r in report["rows"] if r["loss"] == "weighted_sup"]
    assert len(rows) == 3
    assert all(np.isfinite([r["mean"], r["median"], r["stderr"]]).all() for r in rows)


# bad entries put into a grid, then bad whole values
BAD_ENTRIES = ([(key, v) for key in ("n_grid", "m_grid") for v in [0, -5, 1.5, True]]
               + [("m_grid", 1)])  # every transfer replicate would fail at m = 1
BAD_CONFIG = [("replicates", 1.5), ("replicates", True), ("seed", 1.5), ("seed", -1),
              ("seed", True), ("budget", 2), ("budget", np.nan), ("bandwidth", "fast"),
              ("bandwidth", 0), ("bandwidth", -0.5), ("noise_sd", -1), ("noise_sd", np.nan),
              ("delta", "0.1"), ("delta", None), ("estimators", "lse"),
              ("estimators", [["lse"]]), ("estimators", []), ("losses", "sup"),
              ("losses", [["sup"]]), ("losses", []), ("f0", "sine"), ("f0", {"kind": 3}),
              ("n_grid", [64, 64, 64]), ("f0", {"kind": "sine", "amplitud": 0.5}),
              ("f0", {"kind": "zero", "amplitude": 0.1}),
              ("f0", {"kind": "triangle", "slope": np.nan}),
              ("f0", {"kind": "triangle", "center": np.nan}),
              ("f0", {"kind": "sine", "amplitude": "x"}),
              ("f0", {"kind": "triangle", "slope": False})]
# whole grids that are not lists, for both grid keys
NOT_LISTS = [(key, v) for key in ("n_grid", "m_grid") for v in (64, "abc")]


@pytest.mark.parametrize("key, bad, whole",
                         [(key, v, False) for key, v in BAD_ENTRIES]
                         + [(key, v, True) for key, v in BAD_CONFIG + NOT_LISTS],
                         ids=[f"{v}-{key}" for key, v in BAD_ENTRIES + BAD_CONFIG]
                         + [f"{key}={v!r}" for key, v in NOT_LISTS])
def test_simulate_rates_bad_size_exits_3(tmp_path, capsys, key, bad, whole):
    obj = {"distribution": {"kind": "uniform"}, "n_grid": [32, 64, 128], "replicates": 2}
    if key == "m_grid":
        obj.update(estimators=["transfer"], target_distribution={"kind": "uniform"})
    obj[key] = bad if whole else {"n_grid": [bad, 64, 128], "m_grid": [16, bad, 32]}[key]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(obj))
    assert main(["simulate-rates", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert key in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_simulate_rates_dead_worker_exits_2(tmp_path, capsys, monkeypatch):
    # a worker that dies takes its cell with it: the run ends, whatever the
    # failure rate, instead of counting the lost cells as failed replicates
    lse, tester = harness.ESTIMATORS["lse"], os.getpid()

    def dying(config, sample, grid, m, rep):
        if sample.n == 128 and rep == 7:
            assert os.getpid() != tester, "the cell ran in the test process"
            os._exit(1)
        return lse(config, sample, grid, m, rep)

    monkeypatch.setitem(harness.ESTIMATORS, "lse", dying)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"distribution": {"kind": "uniform"},
                               "n_grid": [64, 128, 256, 512], "replicates": 20}))
    assert main(["simulate-rates", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "worker process died" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_simulate_rates_missing_config_exits_3(capsys):
    assert main(["simulate-rates", "--config", "/nope.json"]) == 3


def test_simulate_rates_overflowing_aggregate_keeps_old_report(tmp_path, capsys):
    # every loss is finite, but the stderr of the n=16 row overflows to inf:
    # the run fails (exit 2) and leaves an earlier report as it was
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"distribution": {"kind": "uniform"}, "noise_sd": 1e200,
                               "estimators": ["isotonic"], "losses": ["sup"],
                               "n_grid": [16, 32, 64], "replicates": 2}))
    (tmp_path / "report.json").write_text("earlier report\n")
    (tmp_path / "losses.csv").write_text("earlier losses\n")
    assert main(["simulate-rates", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "isotonic/sup at n=16" in capsys.readouterr().err
    assert (tmp_path / "report.json").read_text() == "earlier report\n"
    assert (tmp_path / "losses.csv").read_text() == "earlier losses\n"


# every input table, with a valid object and a command that reads it:
# (name, the valid object, its table, the command for an object); a list
# entry such as [float] takes VALID_LIST
VALID = {float: 0.5, int: 100, dict: {"kind": "uniform"}}
VALID_LIST = [0.0, 1.0]
CONFIG = {"distribution": {"kind": "uniform"}, "n_grid": [16, 32, 64], "replicates": 1}


def _simulate(obj, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(obj))
    return ["simulate-rates", "--config", str(cfg), "--out", str(tmp_path)]


def _simulate_f0(f0, tmp_path):
    return _simulate({**CONFIG, "f0": f0}, tmp_path)


def _prooflab(check):
    def argv(obj, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps(obj))
        return ["prooflab", "--check", check, "--config", str(tmp_path / "config.json")]
    return argv


INPUTS = ([(f"dist-{kind}", {"kind": kind, **{key: VALID_LIST if isinstance(t, list) else VALID[t]
                                              for key, t in keys.items()}}, keys,
            lambda obj, tmp_path: ["spread", "--dist", json.dumps(obj), "--n", "100"])
           for kind, (_, keys) in densities._KINDS.items()]
          + [(f"f0-{kind}", {"kind": kind}, keys, _simulate_f0)
             for kind, keys in harness._F0_DEFAULTS.items()]
          + [(f"prooflab-{check}", {}, keys, _prooflab(check))
             for check, (_, keys) in prooflab._CHECKS.items()])


def _outside(entry):
    """One value just outside the range of a table entry (like, range, ...):
    past the interval's lower end, or its upper end if the lower is -inf, as
    the entry's type; or a name longer than every name of the range.  In a
    list for a list entry."""
    like, rng = entry[:2]
    one = like[0] if isinstance(like, list) else like
    if not isinstance(rng, str):
        bad = max(rng, key=len) + "x"
    else:
        lo, hi = map(float, rng[1:-1].split(","))
        end, way, shut = (lo, -1, rng[0] == "[") if lo > -np.inf else (hi, 1, rng[-1] == "]")
        if (one if isinstance(one, type) else type(one)) is int:
            bad = int(end) + way if shut else int(end)
        else:
            bad = float(np.nextafter(end, way * np.inf)) if shut else end
    return [bad] if isinstance(like, list) else bad


# each key of each table with each value that no key takes, then one unknown
# key; then each entry with a range, the config's too, with a value outside it
TABLE_CASES = ([(name, base, key, bad, argv) for name, base, keys, argv in INPUTS
                for key in keys for bad in (np.nan, np.inf, True, "x")]
               + [(name, base, "unknown", 0.5, argv) for name, base, keys, argv in INPUTS]
               + [(name, base, key, _outside(entry), argv) for name, base, keys, argv
                  in INPUTS + [("config", CONFIG, harness._CONFIG, _simulate)]
                  for key, entry in keys.items() if isinstance(entry, tuple)])


@pytest.mark.parametrize("base, key, bad, argv", [c[1:] for c in TABLE_CASES],
                         ids=[f"{c[0]}-{c[2]}-{c[3]!r}" for c in TABLE_CASES])
def test_table_key_with_bad_value_exits_3(tmp_path, capsys, base, key, bad, argv):
    assert main(argv({**base, key: bad}, tmp_path)) == 3
    captured = capsys.readouterr()
    assert repr(key) in captured.err and captured.out == ""
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("base, argv", [(c[1], c[3]) for c in INPUTS], ids=[c[0] for c in INPUTS])
def test_table_valid_object_runs(tmp_path, capsys, base, argv):
    # the objects that the bad values go into are valid on their own
    assert main(argv(base, tmp_path)) == 0
