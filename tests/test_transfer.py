import numpy as np
import pytest

from lipshift import densities, transfer
from lipshift.errors import InvalidInputError, InvalidParameterError
from lipshift.harness import EVAL_GRID_SIZE, LOSSES
from lipshift.lipfit import RegressionSample, fit_lipschitz_lse
from lipshift.spread import EmpiricalSpread, SpreadFunction
from lipshift.transfer import fit_transfer, mixture_spread, transfer_risk_integrals


def _simulate(dist, n, f0, seed):
    rng = np.random.default_rng(seed)
    x = np.asarray(dist.ppf(rng.random(n)))
    return RegressionSample(x, f0(x) + rng.standard_normal(n))


def test_identical_samples_pick_source_everywhere():
    u = densities.uniform()
    s = _simulate(u, 50, np.sin, seed=0)
    fit = fit_transfer(s, s, 1.0)
    xs = np.linspace(0, 1, 101)
    assert np.all(fit.selector(xs) == 1)
    assert np.allclose(fit.evaluate(xs), fit.fit1.evaluate(xs))


def test_selector_prefers_target_in_source_gap():
    rng = np.random.default_rng(5)
    # source misses [0, 0.2] entirely; target is dense there
    src_x = 0.2 + 0.8 * np.sort(rng.random(200))
    tgt_x = np.sort(rng.random(400))
    fit = fit_transfer(RegressionSample(src_x, rng.normal(size=200)),
                       RegressionSample(tgt_x, rng.normal(size=400)), 1.0)
    assert np.all(fit.selector(np.linspace(0.0, 0.1, 21)) == 2)


def test_evaluation_contract_restated():
    u, p = densities.uniform(), densities.power(1.0)
    src, tgt = _simulate(p, 80, np.cos, 1), _simulate(u, 60, np.cos, 2)
    fit = fit_transfer(src, tgt, 1.0)
    xs = np.linspace(0, 1, 101)
    tp = EmpiricalSpread(src.x).at(xs)
    tq = EmpiricalSpread(tgt.x).at(xs)
    want = np.where(tp <= tq, fit.fit1.evaluate(xs), fit.fit2.evaluate(xs))
    assert np.array_equal(fit.evaluate(xs), want)


def test_fits_match_single_sample_lse():
    u = densities.uniform()
    src, tgt = _simulate(u, 40, np.sin, 3), _simulate(u, 30, np.sin, 4)
    fit = fit_transfer(src, tgt, 0.9)
    assert np.allclose(fit.fit1.values, fit_lipschitz_lse(src, 0.9).values)
    assert np.allclose(fit.fit2.values, fit_lipschitz_lse(tgt, 0.9).values)


def test_small_samples_rejected():
    one = RegressionSample([0.5], [0.0])
    two = RegressionSample([0.2, 0.8], [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        fit_transfer(one, two, 1.0)
    with pytest.raises(InvalidInputError):
        fit_transfer(two, one, 1.0)


@pytest.mark.parametrize("bad", [True, "0.5", 0.0, np.nan])
def test_fit_transfer_checks_its_budget(bad):
    two = RegressionSample([0.2, 0.8], [0.0, 0.0])
    with pytest.raises(InvalidParameterError, match="budget"):
        fit_transfer(two, two, bad)


def test_selector_tracks_sample_size_imbalance():
    # same design, ten times more source data: t_hat^P < t_hat^Q nearly
    # everywhere, so the selector should pick the source fit
    u = densities.uniform()
    src, tgt = _simulate(u, 10_000, np.sin, 6), _simulate(u, 1_000, np.sin, 7)
    fit = fit_transfer(src, tgt, 1.0)
    xs = np.linspace(0, 1, 201)
    assert np.mean(fit.selector(xs) == 1) >= 0.95
    gap = SpreadFunction(u, 10_000).at(xs) < SpreadFunction(u, 1_000).at(xs)
    assert np.all(gap)


# --- mixture spread -----------------------------------------------------

def test_mixture_of_identical_distributions():
    u = densities.uniform()
    got = mixture_spread(u, u, 50, 50, 0.3)
    assert got == pytest.approx(SpreadFunction(u, 100).at(0.3), abs=1e-12)


@pytest.mark.parametrize("P,Q,n,m", [
    (densities.uniform(), densities.uniform(), 100, 100),
    (densities.power(1.0), densities.uniform(), 1000, 100),
    (densities.power(3.0), densities.uniform(), 500, 2000),
    (densities.uniform(), densities.power(0.5), 300, 300),
    (densities.example3(1000), densities.uniform(), 1000, 50),
])
def test_mixture_spread_log_factor_bound(P, Q, n, m):
    xs = np.linspace(0, 1, 65)
    tp = SpreadFunction(P, n).at(xs)
    tq = SpreadFunction(Q, m).at(xs)
    tmix = np.array([mixture_spread(P, Q, n, m, x) for x in xs])
    lf_n = np.sqrt(np.log(n + m) / np.log(n))
    lf_m = np.sqrt(np.log(n + m) / np.log(m))
    assert np.all(tmix <= tp * lf_n + 1e-9)
    assert np.all(tmix <= tq * lf_m + 1e-9)


def test_mixture_spread_below_single_sample_bound_strictly():
    P, Q, n, m = densities.power(1.0), densities.uniform(), 10**4, 10**3
    got = mixture_spread(P, Q, n, m, 0.05)
    tp = SpreadFunction(P, n).at(0.05)
    tq = SpreadFunction(Q, m).at(0.05)
    cap = min(tp * np.sqrt(np.log(n + m) / np.log(n)),
              tq * np.sqrt(np.log(n + m) / np.log(m)))
    assert got < cap


# --- risk integrals -----------------------------------------------------

def test_risk_integral_uniform_sandwich():
    u = densities.uniform()
    i1, i2, i3 = transfer_risk_integrals(u, u, 100)
    lo, hi = SpreadFunction(u, 100).closed_form_bounds(0.5)
    assert lo**2 <= i1 <= hi**2
    assert i2 > 0 and i3 > 0


def test_i1_bounded_by_tail_integral():
    # int t^2 q <= 4 int t Q([x +- t]) restated by quadrature
    for P, Q, n in [(densities.uniform(), densities.uniform(), 100),
                    (densities.power(1.0), densities.uniform(), 1000)]:
        xs = np.linspace(0, 1, 2049)
        t = SpreadFunction(P, n).at(xs)
        i1 = np.trapezoid(t**2 * Q.density(xs), xs)
        rhs = 4.0 * np.trapezoid(t * densities.interval_mass(Q, xs - t, xs + t), xs)
        assert i1 <= rhs + 1e-9


# source -> target design pairs on which the three risk functionals are compared
RISK_PAIRS = [
    (densities.uniform(), densities.uniform()),
    (densities.power(1.0), densities.uniform()),
    (densities.power(2.0), densities.uniform()),
    (densities.power(6.0), densities.uniform()),
    (densities.uniform(), densities.power(0.5)),
    (densities.mixture(densities.power(6.0), densities.uniform(), 0.9), densities.uniform()),
    (densities.example3(2**16), densities.uniform()),
]


@pytest.mark.parametrize("P, Q", RISK_PAIRS, ids=["uniform", "power(1)", "power(2)", "power(6)",
                                                  "target-power(0.5)", "mixture", "example3"])
def test_risk_integrals_chain(P, Q):
    # t^2 P([x +- t]) = log n / n makes I2 = int t Q([x +- t]), so
    # t^2 q <= 4 t Q([x +- t]) gives I1 <= 4 I2, and P([x +- t]) <= 2 t sup p
    # gives I2 <= I3; both on the same 2049 Simpson nodes
    xs = np.linspace(0.0, 1.0, 2049)
    for n in (2**10, 2**14, 2**18, 2**22):
        i1, i2, i3 = transfer_risk_integrals(P, Q, n)
        t = SpreadFunction(P, n).at(xs)
        tail = densities._simpson(t * densities.interval_mass(Q, xs - t, xs + t), xs)
        assert i2 == pytest.approx(tail, rel=1e-12, abs=0.0)
        assert i1 <= 4.0 * i2 <= 4.0 * i3


def test_power_source_rate_stays_bounded():
    # alpha = 1 < 3/2: I1 scaled by (n/log n)^(2/3) stays of order one
    P, Q = densities.power(1.0), densities.uniform()
    scaled = [transfer_risk_integrals(P, Q, n)[0]
              * (n / np.log(n)) ** (2 / 3) for n in (10**3, 10**4, 10**5)]
    assert max(scaled) < 4.0 * min(scaled)
    assert max(scaled) < 10.0


def test_combined_risk_not_much_worse_than_best_single():
    # small version of the two-sample experiment: combined l2 risk under Q
    # stays within a factor 2 of the better single fit on average
    P, Q = densities.power(2.0), densities.uniform()
    f0 = lambda x: 0.4 * np.sin(2 * np.pi * np.asarray(x))  # noqa: E731
    n, m = 2000, 500
    grid = np.linspace(0.0, 1.0, EVAL_GRID_SIZE)
    f0g, qg = f0(grid), Q.density(grid)

    def l2(fitted):
        return LOSSES["l2_q"](fitted.evaluate(grid) - f0g, grid, None, qg)

    ratios = []
    for seed in range(10):
        src = _simulate(P, n, f0, 100 + seed)
        tgt = _simulate(Q, m, f0, 200 + seed)
        fit = fit_transfer(src, tgt, 1.0)
        ratios.append(l2(fit) / min(l2(fit.fit1), l2(fit.fit2)))
    assert np.mean(ratios) <= 2.0


def test_mixture_spread_builds_one_pooled_spread_per_arguments(monkeypatch):
    # repeated calls with the same (P, Q, n, m) share one pooled
    # SpreadFunction and each gives a fresh one's bits; designs are told
    # apart by identity, so an equal but new P builds another
    built = []

    class Spy(SpreadFunction):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(transfer, "SpreadFunction", Spy)
    transfer._pooled_spread.cache_clear()
    P = densities.power(2.0)
    Q = densities.tabulated([0.0, 0.3, 0.6, 1.0], [1.0, 0.0, 0.0, 2.0])
    xs = np.linspace(0.0, 1.0, 9)
    try:
        for x in [*xs, xs, *xs]:
            want = SpreadFunction(densities.mixture(P, Q, 300 / 340), 340).at(x)
            got = mixture_spread(P, Q, 300, 40, x)
            assert np.array_equal(np.float64(got).view(np.int64), np.float64(want).view(np.int64))
        assert len(built) == 1 and built[0][1] == 340
        for args in [(densities.power(2.0), Q, 300, 40), (P, densities.uniform(), 300, 40),
                     (P, Q, 301, 40), (P, Q, 300, 41), (Q, P, 300, 40)]:
            mixture_spread(*args, 0.3)
        assert len(built) == 6
        mixture_spread(P, Q, np.int64(300), 40, 0.3)
        assert len(built) == 6
    finally:
        transfer._pooled_spread.cache_clear()


@pytest.mark.parametrize("n, m", [(np.inf, 10), (10, np.inf), (np.nan, 10), (2.5, 10),
                                  (10, 3.0), (1, 10), (10, 1), (True, 10)])
def test_mixture_spread_needs_integer_sizes(n, m):
    u = densities.uniform()
    with pytest.raises(InvalidParameterError, match="integers n, m >= 2"):
        mixture_spread(u, u, n, m, 0.3)


@pytest.mark.parametrize("n", [np.inf, np.nan, 2.5, 1])
def test_transfer_risk_integrals_need_an_integer_n(n):
    u = densities.uniform()
    with pytest.raises(InvalidParameterError, match="integer n >= 2"):
        transfer_risk_integrals(u, u, n)
