"""Self-tests of the benchmark's tracing.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import SELF_TIME_TOLERANCE, Tracer, summarize  # noqa: E402

SEED = 3


def _traced_pass(instance, p, **prepare):
    """Run one traced pass; returns (args, per-layer summary, external wall s)."""
    args = instance.prepare(p, **prepare)
    tracer = Tracer()
    t0 = time.perf_counter()
    _, _, spans = tracer.run_pass(lambda: instance.run(args))
    wall = time.perf_counter() - t0
    return args, summarize(tracer.names, spans), wall


def _counts(summary):
    return {name: (entry["calls"], entry["work"], dict(entry["under"]))
            for name, entry in summary.items()}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two independent traced runs of pass 0 of rates-readme and spread-designs."""
    runs = []
    for k in range(2):
        tmp = tmp_path_factory.mktemp(f"run{k}")
        rates = workloads.RatesReadme(SEED, tmp)
        spread = workloads.SpreadDesigns(SEED, tmp)
        runs.append({"rates": _traced_pass(rates, 0, outdir=tmp / "out"),
                     "spread": _traced_pass(spread, 0)})
    return runs


def test_traced_outputs_byte_identical_to_untraced(traced_runs, tmp_path):
    rates = workloads.RatesReadme(SEED, tmp_path)
    plain = rates.prepare(0, outdir=tmp_path / "plain")
    assert rates.run(plain) == 0
    traced_args = traced_runs[0]["rates"][0]
    assert rates.outputs(plain) == rates.outputs(traced_args)


@pytest.mark.parametrize("workload", ["rates", "spread"])
def test_two_traced_runs_count_the_same_work(traced_runs, workload):
    first, second = (_counts(r[workload][1]) for r in traced_runs)
    assert first == second
    assert sum(calls for calls, _, _ in first.values()) > 0


@pytest.mark.parametrize("workload", ["rates", "spread"])
def test_self_times_add_up_to_wall_time(traced_runs, workload):
    for r in traced_runs:
        _, summary, wall = r[workload]
        total = sum(entry["self_s"] for entry in summary.values())
        assert abs(total - wall) <= SELF_TIME_TOLERANCE * wall


def test_spread_designs_does_no_fitting(traced_runs):
    spread = traced_runs[0]["spread"][1]
    assert spread["lipfit.fit_lipschitz_lse"]["calls"] == 0
    assert spread["spread.SpreadFunction.at"]["calls"] > 0
