import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from lipshift import densities
from lipshift.errors import InvalidIntervalError, InvalidParameterError, NonDoublingError


def _example3_pdf(x, n):
    # independent restatement of the density for the quadrature oracle
    phi = min(1.0, n ** -0.25 * np.log(n))
    return phi + 16 * (1 - phi) * max(0.25 - x, 0.0, x - 0.75)


ALL_KINDS = [
    densities.uniform(),
    densities.power(0.5),
    densities.power(1.0),
    densities.power(3.0),
    densities.example3(10_000),
    densities.example3(100),
    densities.tabulated([0.0, 0.3, 0.7, 1.0], [0.5, 2.0, 1.0, 0.1]),
]


def test_interval_mass_uniform():
    assert densities.interval_mass(densities.uniform(), 0.2, 0.5) == pytest.approx(0.3)


def test_interval_mass_power_quadratic_cdf():
    assert densities.interval_mass(densities.power(1.0), 0.0, 0.5) == pytest.approx(0.25)


def test_interval_mass_example3_matches_quadrature():
    n = 10_000
    d = densities.example3(n)
    got = densities.interval_mass(d, 0.25, 0.75)
    oracle = quad(_example3_pdf, 0.25, 0.75, args=(n,))[0]
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx(0.46052, abs=1e-4)


@pytest.mark.parametrize("a,b", [(0.0, 0.13), (0.1, 0.9), (0.7, 1.0), (0.25, 0.26)])
def test_example3_cdf_vs_quadrature(a, b):
    for n in (100, 5000, 10**6):
        d = densities.example3(n)
        oracle = quad(_example3_pdf, a, b, args=(n,))[0]
        assert densities.interval_mass(d, a, b) == pytest.approx(oracle, abs=1e-9)


def test_interval_mass_rejects_reversed_interval():
    with pytest.raises(InvalidIntervalError):
        densities.interval_mass(densities.uniform(), 0.5, 0.2)


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind + str(d.params.get("alpha", "")))
def test_total_mass_one(d):
    assert densities.interval_mass(d, 0.0, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert float(d.cdf(0.0)) == pytest.approx(0.0, abs=1e-9)
    assert float(d.cdf(1.0)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind + str(d.params.get("alpha", "")))
def test_mass_monotone_in_interval(d):
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = np.sort(rng.random(2))
        pad = rng.random() * 0.2
        inner = densities.interval_mass(d, a, b)
        outer = densities.interval_mass(d, a - pad, b + pad)
        assert inner <= outer + 1e-12


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind + str(d.params.get("alpha", "")))
def test_density_integrates_to_cdf(d):
    # trapezoid consistency between the density and the CDF
    xs = np.linspace(0.0, 1.0, 20001)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (d.density(xs)[1:] + d.density(xs)[:-1])
                                           * np.diff(xs))])
    assert np.max(np.abs(cum - (d.cdf(xs) - d.cdf(0.0)))) < 1e-6


def test_power_cdf_matches_quadrature_at_random_points():
    rng = np.random.default_rng(3)
    for alpha in (0.5, 1.0, 3.0):
        d = densities.power(alpha)
        for x in rng.random(20):
            oracle = quad(lambda u: (alpha + 1) * u**alpha, 0.0, x)[0]
            assert densities.interval_mass(d, 0.0, x) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind + str(d.params.get("alpha", "")))
def test_ppf_inverts_cdf(d):
    us = np.linspace(1e-6, 1.0 - 1e-6, 97)
    xs = np.asarray(d.ppf(us))
    assert np.max(np.abs(np.asarray(d.cdf(xs)) - us)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(nodes=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       zeros=st.sampled_from([0.0, 0.3, 0.6]))
def test_tabulated_ppf_matches_bisection(nodes, seed, zeros):
    # random node sets, with some density values set to zero
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.choice(1001, nodes, replace=False)) / 1000.0
    values = rng.uniform(0.0, 3.0, nodes)
    values[rng.random(nodes) < zeros] = 0.0
    assume(np.trapezoid(values, grid) > 0.0)
    d = densities.tabulated(grid, values)
    u = np.concatenate([[0.0], rng.random(1000)])
    x = d.ppf(u)
    assert np.max(np.abs(x - densities._bisect_ppf(d.cdf, u, grid[0], grid[-1]))) <= 1e-12
    assert np.all((x >= grid[0]) & (x <= grid[-1]))


@pytest.mark.parametrize("grid", [[0.0, 0.3, 0.6, 1.0], [0.0, 0.25, 0.75, 1.0],
                                  [0.1, 0.2, 0.7, 0.9]])
def test_tabulated_ppf_flat_stretch_takes_left_end(grid):
    # values [1, 0, 0, 1]: the cdf equals u on all of [grid[1], grid[2]] for
    # u its mass up to the stretch, and the smallest such x is grid[1].  The
    # density vanishes there, so the float cdf stays within rounding of u
    # over about sqrt(ulp / |slope|) ~ 1e-8 left of grid[1], which bounds how
    # close bisection, which probes the float cdf, gets to it.
    d = densities.tabulated(grid, [1.0, 0.0, 0.0, 1.0])
    u = np.full(3, d.cdf(0.5 * (grid[1] + grid[2])))
    x = d.ppf(u)
    assert np.all(np.abs(x - grid[1]) <= 1e-12)
    assert np.all(d.cdf(x) >= u)
    assert np.all(np.abs(x - densities._bisect_ppf(d.cdf, u, grid[0], grid[-1])) <= 1e-8)


@pytest.mark.parametrize("d", ALL_KINDS + [densities.mixture(densities.power(2.0),
                                                             densities.uniform(), 0.7)],
                         ids=lambda d: d.kind + str(d.params.get("alpha", "")))
@pytest.mark.parametrize("shape", [(), (1,), (2, 3)])
def test_ppf_keeps_input_shape(d, shape):
    u = np.full(shape, 0.3)
    x = d.ppf(u)
    assert np.shape(x) == shape
    assert np.all(x == d.ppf(0.3))


def test_sample_deterministic_and_in_range():
    d = densities.power(1.0)
    a = densities.sample(d, 1000, seed=5)
    b = densities.sample(d, 1000, seed=5)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_sample_power_inverse_draw():
    # inverse of x^2 is sqrt(u): reproduce the underlying uniform draw by hand
    rng = np.random.default_rng(11)
    u = rng.random(1)
    got = densities.sample(densities.power(1.0), 1, seed=11)
    assert got[0] == pytest.approx(np.sqrt(u[0]))


def test_sample_empirical_cdf_converges():
    # Kolmogorov-Smirnov-style distance at large count
    d = densities.example3(10_000)
    x = densities.sample(d, 100_000, seed=1)
    emp = np.mean((x >= 0.25) & (x <= 0.75))
    assert abs(emp - densities.interval_mass(d, 0.25, 0.75)) < 0.01
    grid = np.linspace(0, 1, 101)
    ks = np.max(np.abs(np.searchsorted(np.sort(x), grid) / x.size - d.cdf(grid)))
    assert ks < 0.01


def test_doubling_uniform_at_most_two():
    assert densities.doubling_constant(densities.uniform(), 0.25) <= 2.0 + 1e-9


def test_doubling_power_bounded():
    val = densities.doubling_constant(densities.power(1.0), 0.2)
    assert np.isfinite(val) and val < 16.0


def test_doubling_example3_below_eight():
    for n in (100, 1000, 10_000, 10**6):
        assert densities.doubling_constant(densities.example3(n), 0.1) < 8.0


def test_doubling_diverges_for_inverse_exponential_tail():
    # density x^-2 e^(1 - 1/x): the doubling ratio at 0 blows up as eta -> 0
    grid = np.linspace(1e-3, 1.0, 4001)
    d = densities.tabulated(grid, grid**-2 * np.exp(1.0 - 1.0 / grid))
    estimates = [
        densities.doubling_constant(d, eta, x_grid=np.array([0.0]),
                                    eta_grid=np.array([eta]))
        for eta in (0.2, 0.1, 0.05, 0.03)
    ]
    assert all(b > a for a, b in zip(estimates, estimates[1:]))
    assert estimates[-1] > 100.0


def test_doubling_zero_mass_raises():
    d = densities.tabulated([0.4, 0.6], [1.0, 1.0])
    with pytest.raises(NonDoublingError):
        densities.doubling_constant(d, 0.05)


def test_mixture_combines_masses_linearly():
    p, q = densities.power(1.0), densities.uniform()
    mix = densities.mixture(p, q, 0.25)
    a, b = 0.1, 0.7
    want = 0.25 * densities.interval_mass(p, a, b) + 0.75 * densities.interval_mass(q, a, b)
    assert densities.interval_mass(mix, a, b) == pytest.approx(want, abs=1e-12)


def test_from_spec_round_trip():
    assert densities.from_spec({"kind": "uniform"}).kind == "uniform"
    assert densities.from_spec({"kind": "power", "alpha": 2.0}).params["alpha"] == 2.0
    assert densities.from_spec({"kind": "example3", "n": 50}).params["n"] == 50
    t = densities.from_spec({"kind": "tabulated", "grid": [0, 1], "values": [1, 1]})
    assert t.kind == "tabulated"
    with pytest.raises(InvalidParameterError):
        densities.from_spec({"kind": "cauchy"})


def test_from_spec_nested_mixture_matches_mixture():
    spec = {"kind": "mixture", "weight_p": 0.3,
            "p": {"kind": "power", "alpha": 2.0},
            "q": {"kind": "mixture", "weight_p": 0.5, "p": {"kind": "uniform"},
                  "q": {"kind": "tabulated", "grid": [0, 0.5, 1], "values": [0, 2, 0]}}}
    built = densities.from_spec(json.dumps(spec))
    inner = densities.mixture(densities.uniform(),
                              densities.tabulated([0, 0.5, 1], [0, 2, 0]), 0.5)
    want = densities.mixture(densities.power(2.0), inner, 0.3)
    xs = np.linspace(-0.1, 1.1, 241)
    assert built.kind == "mixture"
    assert np.array_equal(built.cdf(xs), want.cdf(xs))


@pytest.mark.parametrize("spec", [
    {"kind": "mixture", "p": {"kind": "uniform"}, "q": {"kind": "power"}, "weight_p": 0.5},
    {"kind": "mixture", "p": {"kind": "uniform"}, "q": 5, "weight_p": 0.5},
    {"kind": "mixture", "p": {"kind": "uniform"}, "q": {"kind": "uniform"}},
    {"kind": "mixture", "p": {"kind": "uniform"}, "q": {"kind": "uniform"}, "weight_p": "a"},
    {"kind": "mixture", "p": {"kind": "power", "alpha": "x"}, "q": {"kind": "uniform"},
     "weight_p": 0.5},
    {"kind": "tabulated", "grid": "abc", "values": [1, 1]},
    [1, 2],
])
def test_from_spec_malformed_rejected(spec):
    with pytest.raises(InvalidParameterError):
        densities.from_spec(spec)


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameterError):
        densities.power(0.0)
    with pytest.raises(InvalidParameterError):
        densities.example3(2)
    with pytest.raises(InvalidParameterError):
        densities.tabulated([0.0, 0.5], [1.0, -1.0])
    with pytest.raises(InvalidParameterError):
        densities.sample(densities.uniform(), 0, seed=0)


@settings(max_examples=100, deadline=None)
@given(half=st.integers(1, 2048), seed=st.integers(0, 2**32 - 1),
       ends=st.sampled_from([(0.0, 1.0), (-0.3, 0.7), (0.0, 0.01)]))
def test_simpson_matches_scipy_on_odd_nodes(half, seed, ends):
    # scipy weighs each panel by its rounded node gaps, the helper by the
    # nominal spacing; on intervals like [0.25, 0.26] the gaps' rounding
    # (1e-12 relative) alone moves scipy's value by about 1e-13
    rng = np.random.default_rng(seed)
    x = np.linspace(*ends, 2 * half + 1)
    c = rng.normal(size=4)
    y = c[0] + c[1] * np.sin(7.0 * c[2] * x) + c[3] * rng.random(x.size)
    got = densities._simpson(y, x)
    assert abs(got - simpson(y, x=x)) <= 1e-14 * densities._simpson(np.abs(y), x)


def test_simpson_exact_on_cubics():
    x = np.linspace(0.0, 1.0, 5)
    assert densities._simpson(4.0 * x**3 - 3.0 * x**2 + 1.0, x) == pytest.approx(1.0, abs=1e-15)
