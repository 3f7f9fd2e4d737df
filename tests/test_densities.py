import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from lipshift import densities
from lipshift._kernel import KERNEL, address
from lipshift.errors import (
    InvalidInputError,
    InvalidIntervalError,
    InvalidParameterError,
    NonDoublingError,
)

import kernel_reference


def bisect_ppf(cdf, u, a, b):
    """Oracle: the inverse of a nondecreasing CDF on [a, b] by 60 bisection
    steps, so to (b - a) 2^-60 < 1e-12; shaped like u.  The tabulated
    design's closed-form inverse CDF replaced it."""
    shape = np.shape(u)
    u = np.atleast_1d(np.asarray(u, float))
    lo = np.full_like(u, a)
    hi = np.full_like(u, b)
    for _ in range(60):
        midp = 0.5 * (lo + hi)
        below = cdf(midp) < u
        lo = np.where(below, midp, lo)
        hi = np.where(below, hi, midp)
    return (0.5 * (lo + hi)).reshape(shape)


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
    assert np.max(np.abs(x - bisect_ppf(d.cdf, u, grid[0], grid[-1]))) <= 1e-12
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
    assert np.all(np.abs(x - bisect_ppf(d.cdf, u, grid[0], grid[-1])) <= 1e-8)


@pytest.mark.parametrize("grid, values", [
    ([0.0, 5e-324, 1.0], [0.0, 1.0, 1.0]), ([0.0, 5e-324], [1.0, 1.0]),
    ([0.0, 1.0], [1e308, 1e308]), ([0.0, 0.5, 1.0], [1e308, 1e308, 0.0]),
], ids=["slope", "value", "mass", "mass_inside"])
def test_tabulated_refuses_overflow_without_warnings(grid, values):
    # a slope 1 / 5e-324 = inf once gave NaN CDFs and a wrong t_n; it, a
    # renormalized value or a mass that overflows is refused, and no
    # RuntimeWarning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="tabulated density must have"):
            densities.tabulated(grid, values)


def test_tabulated_cdf_monotone_next_to_zero_density_node():
    # evaluated from the segment's left node, the CDF cancels next to a right
    # node of zero density and decreases 94,246 times on these points
    d = densities.tabulated([0.034, 0.144, 0.509, 0.752, 0.823, 0.948],
                            [2.54, 1.30, 1.72, 0.18, 0.0, 0.0])
    c = d.cdf(np.linspace(0.8229999, 0.823, 200_001))
    assert np.all(np.diff(c) >= 0.0)
    assert d.cdf(0.948) == d.cdf(1.0) == 1.0


def _with_neighbours(x):
    """x and the floats next to each of its points on both sides."""
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


@settings(max_examples=80, deadline=None)
@given(nodes=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
       zeros=st.sampled_from([0.0, 0.3, 0.6]), ends=st.sampled_from(["unit", "inside", "random"]))
def test_tabulated_kernels_match_numpy_reference(nodes, seed, zeros, ends):
    # the C unit CDF and inverse CDF give the numpy bodies' bits, on random
    # grids whose support is [0, 1] or lies inside it, with zero-density
    # stretches, at the nodes, segment midpoints (where the CDF changes the
    # node it integrates from) and node masses, their neighbouring floats,
    # 0, 1, -0.0, points off the support and (for the CDF) NaN
    rng = np.random.default_rng(seed)
    lo, hi = {"unit": (0.0, 1.0), "inside": (0.1, 0.9),
              "random": np.sort(rng.random(2))}[ends]
    assume(hi - lo > 1e-3)
    grid = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, nodes - 2)]))
    values = rng.uniform(0.0, 3.0, grid.size)
    values[rng.random(grid.size) < zeros] = 0.0
    assume(np.trapezoid(values, grid) > 0.0)
    d = densities.tabulated(grid, values)
    table = densities._tabulated_table(d.params["grid"], d.params["values"])
    mid = 0.5 * (grid[1:] + grid[:-1])
    x = np.concatenate([_with_neighbours(np.concatenate([grid, mid, [0.0, 1.0]])),
                        [-0.0, np.nan, -0.5, 1.5], rng.random(500)])
    assert np.array_equal(_bits(_kernel_cdf(d.tree, x)),
                          _bits(kernel_reference.tabulated_cdf(table, x)))
    assert np.array_equal(_bits(d.cdf(x)), _bits(kernel_reference.tabulated_cdf(
        table, np.minimum(1.0, np.maximum(0.0, x)))))
    u = _with_neighbours(np.concatenate([table[2], rng.random(500)]))
    u = np.concatenate([u[(u >= 0.0) & (u <= 1.0)], [-0.0]])
    assert np.array_equal(_bits(d.ppf(u)), _bits(kernel_reference.tabulated_ppf(table, u)))


def _component(kind, seed):
    """A design of the given kind for the C evaluator's tests, its numbers
    drawn from seed: power and example3 exponents and sizes, or a tabulated
    design on up to 24 random nodes with zero-density stretches."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return densities.uniform()
    if kind == "power":
        return densities.power(float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 6.0)])))
    if kind == "example3":
        return densities.example3(int(rng.integers(3, 10**12)))
    lo, hi = rng.choice([(0.0, 1.0), (0.1, 0.9), tuple(np.sort(rng.random(2)))])
    grid = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, int(rng.integers(0, 23)))]))
    values = rng.uniform(0.0, 3.0, grid.size)
    values[rng.random(grid.size) < 0.3] = 0.0
    values[grid.size // 2] = 1.0  # a mass > 0 on every grid of two nodes or more
    return densities.tabulated(grid, values)


COMPONENTS = ["uniform", "power", "example3", "tabulated"]


@settings(max_examples=80, deadline=None)
@given(kinds=st.lists(st.sampled_from(COMPONENTS), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1),
       weights=st.lists(st.sampled_from([0.0, 0.3, 0.6, 1.0, 16384 / 17408]) | st.floats(0.0, 1.0),
                        min_size=2, max_size=2),
       nested_left=st.booleans())
def test_kernel_cdf_matches_numpy_reference(kinds, seed, weights, nested_left):
    # the C evaluator gives the bits of the numpy bodies it replaced (and
    # of math.pow, for a pow node) for every node kind alone and in
    # mixtures nested two deep: at 0.25 and 0.75 (where example3 changes
    # piece) and their neighbouring floats, 0, 1, -0.0, NaN and random
    # points, more than the kernel's two blocks of 256
    parts = [_component(kind, seed + i) for i, kind in enumerate(kinds)]
    inner = densities.mixture(parts[0], parts[1], weights[0])
    designs = parts + [inner, densities.mixture(inner, parts[2], weights[1])
                       if nested_left else densities.mixture(parts[2], inner, weights[1])]
    x = np.concatenate([_with_neighbours(np.array([0.25, 0.75])),
                        [0.0, 1.0, -0.0, np.nan],
                        np.random.default_rng(seed).random(600)])
    for d in designs:
        assert np.array_equal(_bits(_kernel_cdf(d.tree, x)),
                              _bits(kernel_reference.unit_cdf(d, x))), d
        want = kernel_reference.unit_cdf(d, np.minimum(1.0, np.maximum(0.0, x)))
        assert np.array_equal(_bits(d.cdf(x)), _bits(want)), d
        assert np.array_equal(_bits(d.cdf(x.reshape(2, -1))).ravel(), _bits(want)), d


def _kernel_cdf(tree, x):
    """The C evaluator's unit CDF of the tree at the float array x."""
    tree, out = np.array(tree, float), np.array(x, float)
    KERNEL.unit_cdf(address(tree, tree.shape), address(out, out.shape), out.size)
    return out


@pytest.mark.parametrize("k", range(1, densities._POWER_MAX + 1))
def test_power_node_gives_numpys_products(k):
    # the C POWER node gives the bits of numpy's x * x * ... * x of k
    # factors, at 0, 1, -0.0 and NaN, their neighbouring floats and random
    # points, and a power design's numpy CDF gives them at the clipped
    # points; they are nondecreasing on sorted points in [0, 1], and
    # exactly 1 at 1
    x = np.concatenate([_with_neighbours(np.array([0.0, 1.0, -0.0])), [np.nan],
                        np.random.default_rng(k).random(600)])
    want = kernel_reference.power_cdf(k, x)
    c = _kernel_cdf([densities._POWER, k], x)
    assert np.array_equal(_bits(c), _bits(want))
    if k > 1:
        d = densities.power(k - 1.0)
        assert np.array_equal(d.tree, [densities._POWER, k])
        clipped = kernel_reference.power_cdf(k, np.minimum(1.0, np.maximum(0.0, x)))
        assert np.array_equal(_bits(d.cdf(x)), _bits(clipped))
        assert _bits(d.cdf(x[4])) == _bits(want[4])  # a 0-d point, 1.0's lower neighbour
    inside = np.sort(x[(x >= 0.0) & (x <= 1.0)])
    assert np.all(np.diff(_kernel_cdf([densities._POWER, k], inside)) >= 0.0)
    assert _kernel_cdf([densities._POWER, k], [1.0])[0] == 1.0


@pytest.mark.parametrize("alpha", [0.5, 2.5, 16.0, 1e3])
def test_other_power_exponents_are_libm_pow(alpha):
    # an exponent alpha + 1 that is no integer up to _POWER_MAX is a pow
    # node, alone and in a mixture: libm's pow, which gives math.pow's bits
    # at 0, 1, -0.0, NaN and random points, and not np.power's at all of them
    d = densities.power(alpha)
    assert np.array_equal(d.tree, [densities._POW, alpha + 1.0])
    x = np.concatenate([[0.0, 1.0, -0.0, np.nan], np.random.default_rng(5).random(3000)])
    want = kernel_reference.pow_cdf(alpha + 1.0, x)
    assert np.array_equal(_bits(d.cdf(x)), _bits(want))
    assert np.array_equal(_bits(_kernel_cdf(d.tree, x)), _bits(want))
    assert _bits(d.cdf(x[5])) == _bits(want[5])  # a 0-d point
    assert np.any(want[4:] != np.power(x[4:], alpha + 1.0))
    mixed = densities.mixture(d, densities.uniform(), 0.5)
    assert np.array_equal(mixed.tree, [densities._MIXTURE, 0.5, densities._POW, alpha + 1.0,
                                       densities._UNIFORM])


# a design of each kind of `_KINDS`, by its spec
KIND_SPECS = {"uniform": {}, "power": {"alpha": 2.0}, "example3": {"n": 4096},
              "tabulated": {"grid": [0.0, 0.5, 1.0], "values": [1.0, 0.0, 2.0]},
              "mixture": {"p": {"kind": "power", "alpha": 0.5}, "q": {"kind": "uniform"},
                          "weight_p": 0.3}}


def test_every_design_cdf_is_a_kernel_tree():
    # the C kernel evaluates every design's CDF, so that every t_n solve is
    # one kernel call: each kind's constructor, and power designs whose
    # alpha + 1 is no integer or one above _POWER_MAX, give a float64 tree
    # whose kernel CDF is the design's `cdf`, numpy shortcuts included
    assert sorted(KIND_SPECS) == sorted(densities._KINDS)
    designs = [densities.from_spec({"kind": kind, **spec}) for kind, spec in KIND_SPECS.items()]
    designs += [densities.power(alpha) for alpha in (0.5, 2.5, 16.0, 1e3)]
    x = np.concatenate([[0.0, 1.0, -0.0, np.nan], np.random.default_rng(8).random(600)])
    for d in designs:
        assert d.tree.dtype == np.float64 and d.tree.ndim == 1, d
        assert np.array_equal(_bits(_kernel_cdf(d.tree, x)), _bits(d.cdf(x))), d


@pytest.mark.parametrize("d, calls", [
    (densities.uniform(), 0), (densities.power(2.0), 0),
    (densities.mixture(densities.power(2.0), densities.uniform(), 0.8), 2),
    (densities.mixture(densities.power(0.5), densities.uniform(), 0.8), 2),
    (densities.tabulated([0.0, 0.3, 0.7, 1.0], [0.5, 2.0, 1.0, 0.1]), 2),
    (densities.power(0.5), 2),
], ids=["uniform", "power2", "mixture", "leaf_mixture", "tabulated", "power.5"])
def test_cdf_kernel_calls_take_at_most_two_addresses(d, calls):
    # a kernel CDF call hands the kernel its tree and the buffer of points
    # that the CDF replaces (leaf_mixture: a pow node as a mixture's leaf);
    # the uniform and integer power CDFs, and so their interval masses and
    # doubling constants, make no kernel call
    counted = [0]

    def counting(*args):
        counted[0] += 1
        return address(*args)

    x = np.linspace(-0.1, 1.1, 2049)
    with mock.patch.object(densities, "address", counting):
        d.cdf(x)
        assert counted[0] == calls
        counted[0] = 0
        densities.interval_mass(d, x - 0.1, x)
        assert counted[0] == 2 * calls
        if calls == 0:
            densities.doubling_constant(d, 0.1)
            assert counted[0] == 0


def test_tabulated_ppf_block_memory(traced):
    # one sample block's inverse CDF holds its output and not the numpy
    # body's temporaries (about 56 B per level)
    d = densities.tabulated([0.0, 0.3, 0.6, 1.0], [1.0, 0.0, 0.0, 2.0])
    u = np.random.default_rng(4).random(densities._BLOCK)
    d.ppf(u)
    _, peak, _ = traced(d.ppf, u)
    assert peak <= 12 * u.size


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind + str(d.params.get("alpha", "")))
@pytest.mark.parametrize("shape", [(), (1,), (2, 3)])
def test_ppf_keeps_input_shape(d, shape):
    u = np.full(shape, 0.3)
    x = d.ppf(u)
    assert np.shape(x) == shape
    assert np.all(x == d.ppf(0.3))


MIXTURE = densities.mixture(densities.power(2.0), densities.uniform(), 0.8)


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind + str(d.params.get("alpha", "")))
@pytest.mark.parametrize("u", [1.5, -0.5, -1e-300, 1.0 + 2**-52, np.nan, np.inf,
                               [0.5, np.nan], [[0.2], [2.0]]])
def test_ppf_rejects_levels_outside_unit_interval(d, u):
    with pytest.raises(InvalidInputError):
        d.ppf(u)


def test_mixture_has_no_ppf():
    # a mixture is drawn by composition and never inverts its CDF
    with pytest.raises(InvalidParameterError, match="densities.sample"):
        MIXTURE.ppf(0.5)


def _zero_stretch_tabulated(seed):
    """A tabulated design on random nodes whose density vanishes on a
    stretch of two or three nodes, at the left end or inside.  Not at the
    right end, where u = 1 is the mass of the stretch; the flat-stretch test
    above and `test_tabulated_cdf_monotone_next_to_zero_density_node` cover
    that end."""
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(4, 10))
    grid = np.sort(rng.choice(1001, nodes, replace=False)) / 1000.0
    values = rng.uniform(0.1, 3.0, nodes)
    start = int(rng.integers(0, nodes - 2))
    values[start:min(start + int(rng.integers(2, 4)), nodes - 1)] = 0.0
    return densities.tabulated(grid, values)


def _counting(f, calls):
    """f, counting its calls in calls[0]."""
    def counted(*args):
        calls[0] += 1
        return f(*args)
    return counted


def test_mixture_sample_memory_bounded(traced):
    # 14.8 MiB measured: the 7.6 MiB output, the component choices and p's
    # draws; a 1.2 MiB margin over it
    _, peak, _ = traced(densities.sample, MIXTURE, 10**6, 5)
    assert peak <= 16 * 2**20


NESTED_MIXTURE = densities.mixture(MIXTURE, _zero_stretch_tabulated(2), 0.4)

# designs drawn by `sample`, keyed by test id: every closed-form kind, a
# tabulated design with a zero-density stretch, and two levels of mixture
SAMPLE_DESIGNS = {
    "uniform": densities.uniform(),
    "power": densities.power(2.0),
    "example3": densities.example3(10**6),
    "tabulated": densities.tabulated(np.linspace(0.0, 1.0, 17),
                                     np.random.default_rng(17).uniform(0.2, 2.0, 17)),
    "zero_stretch": _zero_stretch_tabulated(4),
    "mixture": MIXTURE,
    "nested": NESTED_MIXTURE,
}
# around one, two and several blocks of uniforms
BLOCK_COUNTS = [densities._BLOCK - 1, densities._BLOCK, densities._BLOCK + 1,
                3 * densities._BLOCK + 5]


def one_shot_sample(d, count, rng):
    """Oracle: `sample` as it was before it drew in blocks, one ppf call on
    all `count` uniforms, and a mixture composed by hand on the same stream:
    count uniforms pick the components, then p's draws, then q's."""
    if d.kind != "mixture":
        return d.ppf(rng.random(count))
    from_p = rng.random(count) < d.params["weight_p"]
    x = np.empty(count)
    x[from_p] = one_shot_sample(d.params["p"], int(from_p.sum()), rng)
    x[~from_p] = one_shot_sample(d.params["q"], int((~from_p).sum()), rng)
    return x


@pytest.mark.parametrize("d", [MIXTURE, NESTED_MIXTURE], ids=["mixture", "nested"])
def test_mixture_sample_matches_mixture_cdf(d):
    # composition draws from the components and never inverts the mixture
    # CDF: no CDF is evaluated, in Python or in the kernel
    calls = [0]
    with mock.patch.object(densities.DesignDistribution, "cdf",
                           _counting(densities.DesignDistribution.cdf, calls)), \
            mock.patch.object(densities.KERNEL, "unit_cdf",
                              _counting(densities.KERNEL.unit_cdf, calls)):
        x = np.sort(densities.sample(d, 100_000, seed=12))
    assert calls[0] == 0
    cdf = d.cdf(x)
    ks = max(np.max(np.arange(1, x.size + 1) / x.size - cdf),
             np.max(cdf - np.arange(x.size) / x.size))
    assert ks <= 1.95 / np.sqrt(x.size)  # the KS test's 0.1 % level


@pytest.mark.parametrize("count", [1, 2, 1000] + BLOCK_COUNTS)
@pytest.mark.parametrize("d", [MIXTURE, NESTED_MIXTURE], ids=["mixture", "nested"])
def test_mixture_sample_is_composition_by_hand(d, count):
    # count uniforms pick the components, then p's draws, then q's, on one
    # stream, whichever blocks `sample` draws them in
    want = one_shot_sample(d, count, np.random.default_rng(21))
    got = densities.sample(d, count, seed=21)
    assert got.shape == (count,)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("weight, part", [(0.0, "q"), (1.0, "p")])
def test_mixture_sample_with_one_sided_weight(weight, part):
    d = densities.mixture(densities.power(2.0), densities.example3(10_000), weight)
    rng = np.random.default_rng(8)
    rng.random(5000)  # the component choices
    want = d.params[part].ppf(rng.random(5000))
    assert np.array_equal(_bits(densities.sample(d, 5000, seed=8)), _bits(want))


def test_mixture_sample_same_seed_same_draws():
    a = densities.sample(NESTED_MIXTURE, 2000, seed=14)
    assert np.array_equal(_bits(a), _bits(densities.sample(NESTED_MIXTURE, 2000, seed=14)))
    assert not np.array_equal(a, densities.sample(NESTED_MIXTURE, 2000, seed=15))


@pytest.mark.parametrize("d", SAMPLE_DESIGNS.values(), ids=SAMPLE_DESIGNS.keys())
def test_sample_consumes_a_passed_generator(d):
    # two draws in a row, then the Generator is where one-shot draws leave
    # it: the harness draws its noise next, from the same Generator
    for count in [500] + BLOCK_COUNTS:
        rng, ref = np.random.default_rng(30), np.random.default_rng(30)
        a = densities.sample(d, count, rng)
        b = densities.sample(d, count, rng)
        assert not np.array_equal(a, b)
        assert np.array_equal(_bits(a), _bits(densities.sample(d, count, seed=30)))
        assert np.array_equal(_bits(a), _bits(one_shot_sample(d, count, ref)))
        assert np.array_equal(_bits(b), _bits(one_shot_sample(d, count, ref)))
        assert rng.random() == ref.random()


@pytest.mark.parametrize("d", SAMPLE_DESIGNS.values(), ids=SAMPLE_DESIGNS.keys())
def test_sample_memory_bounded(d, traced):
    # the output plus one block of inverse-CDF temporaries; a mixture also
    # holds its component choices and one component's draws.  One ppf call
    # on all the uniforms peaked 5.3 MiB above the output (tabulated,
    # example3) and a nested mixture 3.8 MiB
    count = 10**5
    x, peak, _ = traced(densities.sample, d, count, 5)
    assert x.shape == (count,)
    assert peak <= (2 if d.kind == "mixture" else 1) * x.nbytes + 1.5 * 2**20


def _zero_outside(density):
    """density, read as zero outside [0, 1]."""
    def inside(x):
        x = np.asarray(x, float)
        return np.where((x >= 0.0) & (x <= 1.0), density(x), 0.0)
    return inside


def clip_reference(kind, **params):
    """Oracle: each design's CDF as it was written before the unit CDFs,
    clipping x itself (with np.clip, which the library's np.minimum /
    np.maximum form matches bit for bit), a mixture combining its
    components' clipped CDFs; as (density, cdf).  The density, None where
    the design's own needs no clip, is read as zero outside [0, 1]."""
    if kind == "uniform":
        return None, lambda x: np.clip(np.asarray(x, float), 0.0, 1.0)
    if kind == "mixture":
        w, p, q = params["weight_p"], params["p"], params["q"]
        cdf_p, cdf_q = clip_reference(p.kind, **p.params)[1], clip_reference(q.kind, **q.params)[1]
        return None, lambda x: w * cdf_p(x) + (1.0 - w) * cdf_q(x)
    if kind == "power":
        # np.power in the density, as in densities: a numpy scalar's **
        # rounds differently; the CDF is the C kernel's, for an integer
        # exponent alpha + 1 up to _POWER_MAX the product of alpha + 1
        # factors, and math.pow's (libm's pow) otherwise
        a, k = params["alpha"], params["alpha"] + 1.0
        power = (kernel_reference.power_cdf if k.is_integer() and k <= densities._POWER_MAX
                 else kernel_reference.pow_cdf)
        return (_zero_outside(lambda x: (a + 1.0) * np.power(np.clip(x, 0.0, 1.0), a)),
                (lambda x: power(k, np.clip(np.asarray(x, float), 0.0, 1.0))))
    if kind == "example3":
        phi = params["phi"]
        ramp = 16.0 * (1.0 - phi)
        f14 = phi / 4.0 + (1.0 - phi) / 2.0
        f34 = f14 + phi / 2.0

        def density(x):
            x = np.clip(np.asarray(x, float), 0.0, 1.0)
            return phi + ramp * np.maximum(np.maximum(0.25 - x, 0.0), x - 0.75)

        def cdf(x):
            x = np.clip(np.asarray(x, float), 0.0, 1.0)
            left = phi * x + ramp * (x / 4.0 - x**2 / 2.0)
            mid = f14 + phi * (x - 0.25)
            s = x - 0.75
            right = f34 + phi * s + (ramp / 2.0) * s**2
            return np.where(x <= 0.25, left, np.where(x <= 0.75, mid, right))

        return _zero_outside(density), cdf
    g, v = params["grid"], params["values"]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(g))])
    cum[-1] = 1.0
    slope = np.diff(v) / np.diff(g)

    def cdf(x):
        x = np.clip(np.asarray(x, float), g[0], g[-1])
        i = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
        dx, r = x - g[i], g[i + 1] - x
        return np.where(r < dx, cum[i + 1] - (v[i + 1] * r - 0.5 * slope[i] * r**2),
                        cum[i] + v[i] * dx + 0.5 * slope[i] * dx**2)

    return None, cdf


def _bits(a):
    return np.asarray(a, float).view(np.int64)


@pytest.mark.parametrize("d", [densities.uniform(), densities.power(0.5), densities.power(2.0),
                               densities.example3(100), densities.example3(10_000),
                               densities.tabulated([0.0, 0.3, 0.7, 1.0], [0.5, 2.0, 1.0, 0.1]),
                               densities.tabulated([0.1, 0.2, 0.7, 0.9], [1.0, 0.0, 3.0, 0.5])],
                         ids=lambda d: d.kind + str(d.params.get("alpha", d.params.get("n", ""))))
def test_clip_free_evaluators_match_clip_reference(d):
    # bit for bit, so the sign of a zero counts: np.clip keeps -0.0
    density, cdf = clip_reference(d.kind, **d.params)
    ends = [-0.0, 0.0, 1.0, 0.25, 0.75, -0.5, 1.5]
    if d.kind == "tabulated":
        ends += [d.params["grid"][0], d.params["grid"][-1]]
    x = np.concatenate([np.random.default_rng(3).uniform(-0.5, 1.5, 4001), ends])
    pairs = [(d.cdf, cdf)] + ([(d.density, density)] if density is not None else [])
    for new, old in pairs:
        assert np.array_equal(_bits(new(x)), _bits(old(x)))
        assert np.array_equal(_bits(new(x[::3])), _bits(old(x[::3])))  # strided input
        for point in ends:
            assert _bits(new(point)) == _bits(old(point))
            assert np.array_equal(_bits(new(np.array([point, 0.5]))),
                                  _bits(old(np.array([point, 0.5]))))


ZERO_D_DESIGNS = [densities.uniform(), densities.power(0.5), densities.power(2.0),
                  densities.power(3.0), densities.example3(10_000),
                  densities.tabulated([0.0, 0.3, 0.7, 1.0], [0.5, 2.0, 1.0, 0.1]),
                  _zero_stretch_tabulated(1), MIXTURE, NESTED_MIXTURE]


@pytest.mark.parametrize("d", ZERO_D_DESIGNS, ids=range(len(ZERO_D_DESIGNS)))
def test_scalar_inputs_match_array_inputs(d):
    # a float must give the last bits the same point gets inside an array
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.uniform(-0.5, 1.5, 1000), [-0.0, 0.0, 0.25, 0.75, 1.0]])
    u = np.concatenate([rng.random(300), [0.0, 1.0]])
    # a mixture has no ppf
    legs = [(d.density, x), (d.cdf, x)] + ([] if d.kind == "mixture" else [(d.ppf, u)])
    for f, points in legs:
        whole = _bits(f(points))
        assert [_bits(f(float(p))) for p in points] == whole.tolist()
    a = x - rng.uniform(0.0, 0.3, x.size)
    whole = _bits(densities.interval_mass(d, a, x))
    assert ([_bits(densities.interval_mass(d, float(lo), float(hi))) for lo, hi in zip(a, x)]
            == whole.tolist())


NON_DOUBLING = densities.tabulated([0.0, 0.3, 0.4, 0.6, 0.7, 1.0], [1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
DEEP_MIXTURE = densities.mixture(densities.example3(100), NESTED_MIXTURE, 0.3)
UNIT_CDF_DESIGNS = ZERO_D_DESIGNS + [NON_DOUBLING, DEEP_MIXTURE]
# the ends of [0, 1], both zeros and the floats next to each
EDGES = [-0.0, 0.0, 1.0, float(np.nextafter(0.0, 1.0)), float(np.nextafter(-0.0, -1.0)),
         float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0)), -0.5, 1.5]
POINTS = st.lists(st.one_of(st.floats(-0.5, 1.5), st.sampled_from(EDGES)), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from(UNIT_CDF_DESIGNS), x=POINTS, y=POINTS)
def test_cdf_and_interval_mass_match_clipped_oracle(d, x, y):
    # one clip in front of the unit CDF gives the bits of the clip in every
    # design's CDF: d.cdf bit for bit, and interval_mass as it was formed
    # from those CDFs, signed zeros included
    cdf = clip_reference(d.kind, **d.params)[1]
    x = np.array(x)
    assert np.array_equal(_bits(d.cdf(x)), _bits(cdf(x)))
    assert _bits(d.cdf(x[0])) == _bits(cdf(x[0]))
    y = np.resize(np.array(y), x.size)
    a, b = np.minimum(x, y), np.maximum(x, y)
    want = np.maximum(cdf(np.minimum(b, 1.0)) - cdf(np.maximum(a, 0.0)), 0.0)
    assert np.array_equal(_bits(densities.interval_mass(d, a, b)), _bits(want))
    assert _bits(densities.interval_mass(d, a[0], b[0])) == _bits(want[0])


@pytest.mark.parametrize("d", UNIT_CDF_DESIGNS + [densities.example3(10**6),
                                                  densities.mixture(densities.power(2.0),
                                                                    densities.uniform(), 0.5)],
                         ids=lambda d: d.kind)
def test_density_zero_outside_unit_interval(d):
    out = [-0.5, -1e-9, 1.0 + 1e-9, 1.5]
    assert np.array_equal(d.density(np.array(out)), np.zeros(4))
    assert np.array_equal(d.density(np.array([out, out])), np.zeros((2, 4)))
    assert [float(d.density(x)) for x in out] == [0.0] * 4


@pytest.mark.parametrize("call", [
    lambda d: d.cdf("0.5"),
    lambda d: d.density("0.5"),
    lambda d: densities.interval_mass(d, "0.1", "0.2"),
    lambda d: d.cdf(0.5j),
    lambda d: d.density(np.array([0.5, 0.25j])),
    lambda d: densities.interval_mass(d, 0.1, 0.2 + 0j),
    lambda d: d.cdf([0.5, None]),
], ids=["cdf-text", "density-text", "mass-text", "cdf-complex", "density-complex-array",
        "mass-complex", "cdf-object"])
@pytest.mark.parametrize("d", [densities.uniform(), densities.power(0.5), MIXTURE],
                         ids=["uniform", "power.5", "mixture"])
def test_design_evaluators_reject_points_that_are_not_numbers(call, d):
    # one reader takes a design's points: bools, integers and floats; a
    # string is not parsed and a complex number not cut to its real part
    with pytest.raises(InvalidInputError, match="not numbers"):
        call(d)


def test_design_evaluators_take_bools_integers_floats_and_nan():
    d = densities.power(0.5)
    assert d.cdf(True) == d.cdf(1) == d.cdf(np.int64(1)) == d.cdf(1.0) == 1.0
    assert np.array_equal(d.cdf(np.array([0, 1], np.uint8)), d.cdf(np.array([0.0, 1.0])))
    assert d.density(np.float32(0.5)) == d.density(0.5)
    # NaN: the CDF passes it through, the density reads zero, an interval refuses it
    assert np.isnan(d.cdf(np.nan)) and d.density(np.nan) == 0.0
    with pytest.raises(InvalidIntervalError):
        densities.interval_mass(d, np.nan, 0.5)
    assert densities.interval_mass(d, False, 1) == 1.0


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


def doubling_matrix_oracle(d, eta_max):
    """Oracle: the doubling constant as one 512 x 64 broadcast over the whole
    grid, as the library computed it before it walked the radii in blocks."""
    x = np.linspace(0.0, 1.0, 512)[:, None]
    eta = np.geomspace(eta_max / 512.0, eta_max, 64)[None, :]
    denom = densities.interval_mass(d, x - eta, x + eta)
    if np.any(denom <= 0.0):
        raise NonDoublingError("zero interval mass on the grid: distribution is not doubling there")
    numer = densities.interval_mass(d, x - 2.0 * eta, x + 2.0 * eta)
    return float(np.max(numer / denom))


# with power(2), the benchmark's transfer source: a zero-density stretch of
# width 1e-3 between two grid points, so every ratio is finite, and two random
# stretches of `_zero_stretch_tabulated`, which hold zero-mass intervals
DOUBLING_DESIGNS = ALL_KINDS + [
    densities.power(2.0),
    densities.tabulated([0.0, 0.3, 0.301, 1.0], [1.0, 0.0, 0.0, 1.0]),
    _zero_stretch_tabulated(3), _zero_stretch_tabulated(8), MIXTURE, NESTED_MIXTURE]


@pytest.mark.parametrize("eta_max", [0.01, 0.1, 0.25, 0.5])
@pytest.mark.parametrize("d", DOUBLING_DESIGNS, ids=range(len(DOUBLING_DESIGNS)))
def test_doubling_constant_matches_matrix_oracle(d, eta_max):
    try:
        want = doubling_matrix_oracle(d, eta_max)
    except NonDoublingError as exc:
        with pytest.raises(NonDoublingError, match=str(exc)):
            densities.doubling_constant(d, eta_max)
    else:
        assert densities.doubling_constant(d, eta_max) == want


def test_doubling_constant_memory_bounded(traced):
    # the 512 x 64 broadcast of the oracle peaks at about 1.8 MB here
    _, peak, _ = traced(densities.doubling_constant, densities.power(2.0), 0.1)
    assert peak <= 2**19


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
    estimates = [densities.interval_mass(d, -2.0 * eta, 2.0 * eta)
                 / densities.interval_mass(d, -eta, eta) for eta in (0.2, 0.1, 0.05, 0.03)]
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
    {"kind": "power", "alpha": np.nan},
    {"kind": "power", "alpha": np.inf},
    {"kind": "power", "alpha": True},
    {"kind": "power", "alpha": 2, "alhpa": 5},
    {"kind": "example3", "n": 2.5},
    {"kind": "tabulated", "grid": [0, 1], "values": [1, np.nan]},
    {"kind": "tabulated", "grid": [0, "a"], "values": [1, 1]},
    {"kind": ["power"], "alpha": 2},
    {"kind": "power", "alpha": 10**400},
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
    # the C kernels read past a table of one node; `tabulated` builds every table
    with pytest.raises(InvalidParameterError, match=">= 2 nodes"):
        densities.tabulated([0.5], [1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="alpha|exponent"):
            densities.power(bad)
        with pytest.raises(InvalidParameterError, match="n >= 3"):
            densities.example3(bad)
        with pytest.raises(InvalidParameterError, match="values"):
            densities.tabulated([0.0, 0.5, 1.0], [1.0, bad, 1.0])
        with pytest.raises(InvalidParameterError, match="grid"):
            densities.tabulated([0.0, bad, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(InvalidParameterError, match="grid"):
            densities.tabulated([0.0, 0.5, bad], [1.0, 1.0, 1.0])
    for d in (densities.uniform(), MIXTURE):
        for count in (0, -3, 10.5, 5.0, np.inf, np.nan, True, "7"):
            with pytest.raises(InvalidParameterError, match="integer >= 1"):
                densities.sample(d, count, seed=0)
        assert densities.sample(d, np.int64(3), seed=0).shape == (3,)


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
