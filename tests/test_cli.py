import csv
import json
import os

import numpy as np
import pytest

from lipshift import densities, harness
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


@pytest.mark.parametrize("row", [["0.5", "abc"], ["0.5"]])
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


@pytest.mark.parametrize("check", ["perturbation", "cover", "kl",
                                   "lowerbound", "transfer-exponent"])
def test_prooflab_checks_pass(check, capsys):
    assert main(["prooflab", "--check", check]) == 0
    assert "PASS" in capsys.readouterr().out


def test_prooflab_config_file(tmp_path, capsys):
    cfg = tmp_path / "kl.json"
    cfg.write_text(json.dumps({"bump_height": 0.1, "n": 100, "m": 0}))
    assert main(["prooflab", "--check", "kl", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    kl = float(out.split("kl = ")[1].split()[0])
    assert kl == pytest.approx(1.0 / 30.0, abs=1e-6)


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


BAD_CONFIG = ([(key, v) for key in ("n_grid", "m_grid") for v in [0, -5, 1.5, True]]
              + [("replicates", 1.5), ("replicates", True), ("seed", 1.5), ("seed", -1),
                 ("seed", True), ("budget", 2), ("budget", np.nan), ("bandwidth", "fast"),
                 ("bandwidth", 0), ("bandwidth", -0.5), ("noise_sd", -1), ("noise_sd", np.nan),
                 ("delta", "0.1"), ("delta", None), ("estimators", "lse"),
                 ("estimators", [["lse"]]), ("estimators", []), ("losses", "sup"),
                 ("losses", [["sup"]]), ("losses", []), ("f0", "sine"), ("f0", {"kind": 3})])


@pytest.mark.parametrize("key, bad", BAD_CONFIG, ids=[f"{v}-{key}" for key, v in BAD_CONFIG])
def test_simulate_rates_bad_size_exits_3(tmp_path, capsys, key, bad):
    obj = {"distribution": {"kind": "uniform"}, "n_grid": [32, 64, 128], "replicates": 2}
    if key == "m_grid":
        obj.update(m_grid=[16, bad, 32], estimators=["transfer"],
                   target_distribution={"kind": "uniform"})
    else:
        obj[key] = [bad, 64, 128] if key == "n_grid" else bad
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
