import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipshift import densities, spread
from lipshift.errors import (
    InvalidInputError,
    InvalidParameterError,
    NoBoundAvailableError,
    NondifferentiablePointError,
)
from lipshift.spread import EmpiricalSpread, SpreadFunction, vanishing_density_bounds


def brute_force_spread(d, n, x, steps=2_000_000):
    """Oracle: scan t on a fine grid for the smallest solution."""
    target = np.log(n) / n
    ts = np.linspace(np.sqrt(target) * 0.999, 1.0, steps)
    vals = ts**2 * densities.interval_mass(d, x - ts, x + ts)
    return ts[np.searchsorted(vals, target)]


def fixed_bisection_oracle(s, x):
    """Oracle: the 200-step bisection that SpreadFunction.at replaced."""
    x = np.atleast_1d(np.asarray(x, float))
    lo = np.full_like(x, np.sqrt(s.threshold) * (1.0 - 1e-9))
    hi = np.ones_like(x)
    for _ in range(200):
        t = 0.5 * (lo + hi)
        below = t**2 * densities.interval_mass(s.distribution, x - t, x + t) < s.threshold
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
    return 0.5 * (lo + hi)


def sorted_distance_oracle(points, x):
    """Oracle: min_k max(r_k, sqrt(log n / k)) over the sorted n x grid
    distance matrix, which EmpiricalSpread.at replaced by a selection."""
    pts = np.sort(np.asarray(points, float))
    n = pts.size
    floor = np.sqrt(np.log(n) / np.arange(1, n + 1))
    x = np.atleast_1d(np.asarray(x, float))
    r = np.sort(np.abs(pts[:, None] - x[None, :]), axis=0)
    return np.min(np.maximum(r, floor[:, None]), axis=0)


ORACLE_DESIGNS = {
    "tabulated": densities.tabulated([0.0, 0.2, 0.5, 0.8, 1.0], [1.0, 3.0, 0.5, 2.0, 1.0]),
    "vanishing_tabulated": densities.tabulated([0.0, 0.5, 1.0], [0.0, 2.0, 0.0]),
    "mixture": densities.mixture(densities.power(2.0), densities.uniform(), 0.7),
    "power2": densities.power(2.0),
    "power.5": densities.power(0.5),
    "example3": densities.example3(4096),
    "uniform": densities.uniform(),
}


def assert_float_crossing(s, xs, t):
    """Each t is one end of adjacent floats (p, q) with g(p) < log n / n and
    g(q) >= log n / n or q = 1, where g(u) = u^2 P([x - u, x + u])."""
    def below(u):
        return u**2 * densities.interval_mass(s.distribution, xs - u, xs + u) < s.threshold

    def crossing(p, q):
        return below(p) & (~below(q) | (q == 1.0)) & (q <= 1.0)

    down, up = np.nextafter(t, -np.inf), np.nextafter(t, np.inf)
    assert np.all(crossing(down, t) | crossing(t, up))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(ORACLE_DESIGNS)),
       n=st.integers(2, 10**6),
       xs=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=30))
def test_paired_secant_certified_and_near_bisection(kind, n, xs):
    # a design whose computed g is not monotone in its last bits has several
    # float crossings, so the solver may end on another one than bisection
    s = SpreadFunction(ORACLE_DESIGNS[kind], n)
    xs = np.array(xs + [0.0, 1.0, 0.5])
    t = s.at(xs)
    assert_float_crossing(s, xs, t)
    oracle = fixed_bisection_oracle(s, xs)
    assert np.all(np.abs(t - oracle) <= 1e-12 * oracle)


@pytest.mark.parametrize("kind", sorted(ORACLE_DESIGNS))
def test_paired_secant_certified_and_near_bisection_on_grid(kind):
    s = SpreadFunction(ORACLE_DESIGNS[kind], 4096)
    xs = np.linspace(0.0, 1.0, 2001)
    t = s.at(xs)
    assert_float_crossing(s, xs, t)
    oracle = fixed_bisection_oracle(s, xs)
    assert np.all(np.abs(t - oracle) <= 1e-12 * oracle)
    assert s.at(0.37) == pytest.approx(fixed_bisection_oracle(s, 0.37)[0], rel=1e-12)


def test_paired_secant_mass_evaluations(monkeypatch):
    # one interval_mass call per round; bisection to adjacent floats makes
    # 53 to 59, on the pooled design of transfer.mixture_spread as anywhere
    calls = [0]
    mass = spread.interval_mass

    def counted(*args):
        calls[0] += 1
        return mass(*args)

    monkeypatch.setattr(spread, "interval_mass", counted)
    s = SpreadFunction(densities.mixture(densities.power(2.0), densities.uniform(),
                                         16384 / (16384 + 1024)), 16384 + 1024)
    for x in np.linspace(0.0, 1.0, 65):
        s.at(x)
    assert calls[0] <= 12 * 65
    for d in ORACLE_DESIGNS.values():
        calls[0] = 0
        SpreadFunction(d, 4096).at(np.linspace(0.0, 1.0, 2001))
        assert calls[0] <= 30


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 2048),
       seed=st.integers(0, 2**32 - 1),
       levels=st.sampled_from([0, 2, 7, 64]),
       extra=st.lists(st.floats(-0.5, 1.5), max_size=10),
       on_points=st.integers(0, 5))
def test_selection_matches_sorted_distances(n, seed, levels, extra, on_points):
    # levels > 0 rounds the sample to that many distinct values (ties and
    # duplicated points); grid points also sit on sample points and
    # outside [0, 1]
    rng = np.random.default_rng(seed)
    pts = rng.random(n)
    if levels:
        pts = np.round(pts * levels) / levels
    xs = np.concatenate([np.linspace(-0.25, 1.25, 11), extra, pts[:on_points]])
    e = EmpiricalSpread(pts)
    assert np.array_equal(e.at(xs), sorted_distance_oracle(pts, xs))


def test_selection_matches_sorted_distances_large_sample():
    pts = densities.sample(densities.power(2.0), 30_000, seed=5)
    xs = np.concatenate([np.linspace(0.0, 1.0, 201), pts[:5], [-1.0, 2.0]])
    e = EmpiricalSpread(pts)
    assert np.array_equal(e.at(xs), sorted_distance_oracle(pts, xs))
    assert e.at(0.5) == sorted_distance_oracle(pts, 0.5)[0]


def test_empirical_spread_memory_bounded():
    e = EmpiricalSpread(densities.sample(densities.uniform(), 10**5, seed=3))
    grid = np.linspace(0.0, 1.0, 201)
    tracemalloc.start()
    try:
        e.at(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_uniform_interior_closed_form():
    s = SpreadFunction(densities.uniform(), 100)
    # 2 t^3 = log n / n while the window stays inside [0, 1]
    assert s.at(0.5) == pytest.approx((np.log(100) / 200) ** (1 / 3), abs=1e-10)


def test_power_at_zero_closed_form():
    s = SpreadFunction(densities.power(1.0), 100)
    assert s.at(0.0) == pytest.approx((np.log(100) / 100) ** 0.25, abs=1e-10)


@pytest.mark.parametrize("d", [densities.uniform(), densities.power(2.0),
                               densities.example3(10_000)],
                         ids=["uniform", "power2", "example3"])
def test_bisection_matches_scan_oracle(d):
    for x in (0.0, 0.3, 0.97):
        got = SpreadFunction(d, 1000).at(x)
        oracle = brute_force_spread(d, 1000, x)
        assert got == pytest.approx(oracle, abs=1e-5)


@pytest.mark.parametrize("d", [densities.uniform(), densities.power(0.5),
                               densities.power(3.0), densities.example3(500)],
                         ids=["uniform", "power.5", "power3", "example3"])
@pytest.mark.parametrize("n", [10, 10_000])
def test_defining_equation_residual(d, n):
    s = SpreadFunction(d, n)
    xs = np.linspace(0.0, 1.0, 101)
    t = s.at(xs)
    resid = np.abs(t**2 * densities.interval_mass(d, xs - t, xs + t) - s.threshold)
    assert np.max(resid) <= 1e-12 * s.threshold
    assert np.all(t >= np.sqrt(s.threshold) - 1e-12)
    assert np.all(t <= 1.0)


def test_one_lipschitz_on_grid():
    for d in (densities.uniform(), densities.power(1.0)):
        s = SpreadFunction(d, 1000)
        xs = np.linspace(0.0, 1.0, 1024)
        t = s.at(xs)
        assert np.max(np.abs(np.diff(t))) <= np.diff(xs)[0] + 1e-10


def test_shape_decreasing_then_increasing():
    # nonincreasing left of the t = x kink, nondecreasing right of t = 1 - x
    for d in (densities.uniform(), densities.power(1.0)):
        s = SpreadFunction(d, 100)
        xs = np.linspace(0.0, 1.0, 513)
        t = s.at(xs)
        left = xs < 0.2  # x1 > 0.2 for n = 100: t >= sqrt(log n / n) ~ 0.21
        right = xs > 0.8
        assert np.all(np.diff(t[left]) <= 1e-10)
        assert np.all(np.diff(t[right]) >= -1e-10)


def test_ldp_window_shrinks_with_n():
    d = densities.power(1.0)
    xs = np.linspace(0.0, 1.0, 101)
    windows = [np.sqrt(np.log(n)) * SpreadFunction(d, n).at(xs).max()
               for n in (10**3, 10**4, 10**5, 10**6)]
    assert all(b < a for a, b in zip(windows, windows[1:]))


def test_invalid_n():
    with pytest.raises(InvalidParameterError):
        SpreadFunction(densities.uniform(), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluators_reject_nonfinite_points(bad):
    s = SpreadFunction(densities.uniform(), 100)
    e = EmpiricalSpread([0.1, 0.5, 0.9])
    for call in (lambda: s.at(bad), lambda: s.at(np.array([0.5, bad])),
                 lambda: s.derivative(bad), lambda: e.at(bad),
                 lambda: e.at(np.array([0.5, bad])),
                 lambda: EmpiricalSpread([0.1, bad, 0.9])):
        with pytest.raises(InvalidInputError):
            call()


# --- derivative ---------------------------------------------------------

def test_derivative_zero_by_symmetry():
    assert SpreadFunction(densities.uniform(), 100).derivative(0.5) == 0.0


def test_derivative_negative_for_increasing_density():
    assert SpreadFunction(densities.power(1.0), 10**4).derivative(0.6) < 0.0


@pytest.mark.parametrize("d,x", [
    (densities.uniform(), 0.31),
    (densities.uniform(), 0.5),
    (densities.power(1.0), 0.45),
    (densities.power(1.0), 0.8),
    (densities.example3(10_000), 0.4),
])
def test_derivative_matches_finite_difference(d, x):
    s = SpreadFunction(d, 10_000)
    fd = (s.at(x + 1e-5) - s.at(x - 1e-5)) / 2e-5
    assert s.derivative(x) == pytest.approx(fd, abs=1e-4)


@pytest.mark.parametrize("d", [densities.uniform(), densities.power(2.0),
                               densities.example3(10_000)],
                         ids=["uniform", "power2", "example3"])
def test_derivative_vectorized_matches_scalar(d):
    s = SpreadFunction(d, 100)
    xs = np.linspace(0.0, 1.0, 201)
    got = s.derivative(xs)
    assert np.array_equal(got, s.derivative(xs, s.at(xs)), equal_nan=True)
    for x, g in zip(xs, got):
        try:
            assert g == s.derivative(float(x))
        except NondifferentiablePointError:
            assert np.isnan(g)
    assert np.isnan(got[[0, -1]]).all() and np.isfinite(got).sum() >= 150


def test_derivative_rejects_kinks():
    s = SpreadFunction(densities.uniform(), 100)
    # locate x1 (t_n(x) = x) by bisection and ask for the derivative there
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if s.at(mid) > mid:
            lo = mid
        else:
            hi = mid
    with pytest.raises(NondifferentiablePointError):
        s.derivative(0.5 * (lo + hi))
    with pytest.raises(NondifferentiablePointError):
        s.derivative(0.0)


# --- closed-form bounds -------------------------------------------------

def test_bounds_uniform_values():
    lo, hi = SpreadFunction(densities.uniform(), 100).closed_form_bounds(0.7)
    assert lo == pytest.approx((np.log(100) / 200) ** (1 / 3), abs=1e-9)
    assert hi == pytest.approx((np.log(100) / 100) ** (1 / 3), abs=1e-9)


def test_bounds_power_at_zero():
    lo, hi = SpreadFunction(densities.power(1.0), 100).closed_form_bounds(0.0)
    assert lo == pytest.approx((np.log(100) / 400) ** 0.25, abs=1e-5)
    assert hi == pytest.approx((np.log(100) / 100) ** 0.25, abs=1e-5)


@pytest.mark.parametrize("d", [densities.uniform(), densities.power(0.5),
                               densities.power(1.0), densities.power(3.0)],
                         ids=["uniform", "power.5", "power1", "power3"])
@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_bounds_sandwich(d, n):
    s = SpreadFunction(d, n)
    xs = np.linspace(0.0, 1.0, 257)
    t = s.at(xs)
    lo, hi = s.closed_form_bounds(xs)
    assert np.all(lo <= t + 1e-9)
    assert np.all(t <= hi + 1e-9)


def test_bounds_example3_form():
    n = 10_000
    d = densities.example3(n)
    s = SpreadFunction(d, n)
    lo, hi = s.closed_form_bounds(0.5)
    p = float(d.density(0.5))
    assert lo == pytest.approx((np.log(n) / (3 * n * p)) ** (1 / 3))
    assert hi == pytest.approx((2 * np.log(n) / (n * p)) ** (1 / 3))
    # the sandwich itself holds here long before the lemma's huge threshold
    assert lo <= s.at(0.5) <= hi


def test_bounds_unavailable_for_vanishing_tabulated():
    d = densities.tabulated([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    with pytest.raises(NoBoundAvailableError):
        SpreadFunction(d, 100).closed_form_bounds(0.5)


def test_vanishing_density_bounds_bracket_power_spread():
    # density 2x vanishes at 0 with alpha = 1 and slope bound A slightly > 2
    n = 10**5
    t0 = SpreadFunction(densities.power(1.0), n).at(0.0)
    lo, hi = vanishing_density_bounds(n, alpha=1.0, bound=2.1)
    assert lo <= t0 <= hi


# --- empirical spread ---------------------------------------------------

def test_empirical_all_points_at_x():
    e = EmpiricalSpread([0.5, 0.5, 0.5])
    assert e.at(0.5) == pytest.approx(np.sqrt(np.log(3) / 3), abs=1e-12)


def test_empirical_three_point_example():
    e = EmpiricalSpread([0.1, 0.5, 0.9])
    assert e.at(0.5) == pytest.approx(0.605126, abs=1e-4)


def test_empirical_matches_grid_scan():
    rng = np.random.default_rng(0)
    pts = rng.random(40)
    e = EmpiricalSpread(pts)
    n = pts.size
    for x in (0.0, 0.37, 0.92):
        ts = np.linspace(0.0, 1.5, 400_001)
        counts = np.sum(np.abs(np.sort(pts)[:, None] - x) <= ts[None, :], axis=0)
        ok = ts**2 * counts / n >= np.log(n) / n
        oracle = ts[np.argmax(ok)]
        assert e.at(x) == pytest.approx(oracle, abs=1e-5)


def test_empirical_needs_two_points():
    with pytest.raises(InvalidParameterError):
        EmpiricalSpread([0.5])


def test_empirical_ratio_band_large_sample():
    d = densities.uniform()
    x = densities.sample(d, 10**5, seed=3)
    ratio = EmpiricalSpread(x).at(0.5) / SpreadFunction(d, 10**5).at(0.5)
    assert 0.8 <= ratio <= 1.2


def test_empirical_consistency_improves_with_n():
    d = densities.uniform()
    xs = np.linspace(0.0, 1.0, 101)
    sups = []
    for n in (10**3, 10**4, 10**5):
        pts = densities.sample(d, n, seed=17)
        ratio = EmpiricalSpread(pts).at(xs) / SpreadFunction(d, n).at(xs)
        sups.append(np.max(np.abs(ratio - 1.0)))
    assert sups[0] > sups[1] > sups[2]
