import dataclasses
import math
import re
from bisect import bisect_left, bisect_right
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipshift import densities, prooflab, spread, transfer
from lipshift.errors import (
    InvalidInputError,
    InvalidIntervalError,
    InvalidParameterError,
    NoBoundAvailableError,
    NondifferentiablePointError,
)
from lipshift.spread import EmpiricalSpread, SpreadFunction, vanishing_density_bounds

import kernel_reference
from kernel_reference import numpy_rounds, search


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


def count_closer(p, s, x, phi):
    """#{i : x - p_i < phi} over the sorted points p below index s plus
    #{i : p_i - x < phi} over the rest: fl(p_i - x) = -fl(x - p_i), so the
    first test is p_i - x > -phi, and each run is a bisection on p_i - x."""
    d = lambda v: v - x  # noqa: E731
    return bisect_left(p, phi, s, len(p), key=d) - bisect_right(p, -phi, 0, s, key=d)


class FloorTableSpread(EmpiricalSpread):
    """Oracle: EmpiricalSpread.at as it was with the n-sized table
    sqrt(log n / k), k = 1..n, built at construction and indexed by k, in a
    per-point loop that decides each probe of the k* search by counting:
    r_k >= phi_k exactly when fewer than k distances lie below phi_k."""

    def __init__(self, points):
        super().__init__(points)
        self._floor = np.sqrt(np.log(self.n) / np.arange(1, self.n + 1)).tolist()

    def at(self, x):
        p, n, floor = memoryview(self.points), self.n, self._floor
        out = []
        for v in np.atleast_1d(np.asarray(x, float)).tolist():
            s = bisect_left(p, v)
            lo, hi = 1, n + 1
            while lo < hi:
                k = (lo + hi) // 2
                if k > n or count_closer(p, s, v, floor[k - 1]) < k:
                    hi = k
                else:
                    lo = k + 1
            r = kernel_reference.kth_distance(p, s, v, hi) if hi <= n else math.inf
            out.append(min(r, floor[hi - 2] if hi >= 2 else math.inf))
        return np.array(out)


def _bits(a):
    return np.asarray(a, float).view(np.int64)


TABULATED = densities.tabulated([0.0, 0.2, 0.5, 0.8, 1.0], [1.0, 3.0, 0.5, 2.0, 1.0])

ORACLE_DESIGNS = {
    "tabulated": TABULATED,
    "vanishing_tabulated": densities.tabulated([0.0, 0.5, 1.0], [0.0, 2.0, 0.0]),
    "mixture": densities.mixture(densities.power(2.0), densities.uniform(), 0.7),
    "power2": densities.power(2.0),
    "power.5": densities.power(0.5),
    "example3": densities.example3(4096),
    "uniform": densities.uniform(),
    # every node kind of the kernel's CDF tree, a power node two levels down
    "nested_mixture": densities.mixture(densities.mixture(densities.power(2.0), TABULATED, 0.3),
                                        densities.example3(4096), 0.6),
    "example3_tabulated": densities.mixture(densities.example3(4096), TABULATED, 0.5),
    # a pow node (libm's pow, an exponent that is no integer) as a mixture's leaf
    "leaf_mixture": densities.mixture(densities.power(0.5), TABULATED, 0.4),
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


def test_next_float_matches_nextafter():
    rng = np.random.default_rng(6)
    x = np.concatenate([[0.0, 5e-324, 2.2e-308, 0.5, 1.0, 1.7e308],
                        np.ldexp(rng.random(1000), rng.integers(-1070, 1020, 1000))])
    next_float = kernel_reference.next_float
    assert np.array_equal(next_float(x, 1), np.nextafter(x, np.inf))
    assert np.array_equal(next_float(x[1:], -1), np.nextafter(x[1:], -np.inf))


def test_paired_secant_mass_evaluations(monkeypatch):
    # rounds counted by the kernel: its one call per solve returns the
    # rounds that evaluated g on the clipped ends of every point's pair, the
    # same for one point and for many, with no interval_mass call and no
    # design CDF call from Python, in as many rounds as the numpy loop makes
    # interval_mass calls; bisection to adjacent floats takes 53 to 59
    # rounds, on the pooled design of transfer.mixture_spread as anywhere
    rounds, cdf_calls, mass_calls = [], [0], [0]
    monkeypatch.setattr(densities, "interval_mass", _counting(densities.interval_mass, mass_calls))
    monkeypatch.setattr(kernel_reference, "interval_mass", densities.interval_mass)
    monkeypatch.setattr(spread.KERNEL, "tn_solve", _rounds(spread.KERNEL.tn_solve, rounds))
    monkeypatch.setattr(densities.DesignDistribution, "cdf",
                        _counting(densities.DesignDistribution.cdf, cdf_calls))
    monkeypatch.setattr(densities.KERNEL, "unit_cdf",
                        _counting(densities.KERNEL.unit_cdf, cdf_calls))
    s = SpreadFunction(densities.mixture(densities.power(2.0), densities.uniform(),
                                         16384 / (16384 + 1024)), 16384 + 1024)
    total = 0
    for x in np.linspace(0.0, 1.0, 65):
        rounds.clear()
        s.at(x)
        s.at(np.array([x, x]))
        assert len(rounds) == 2 and rounds[0] == rounds[1]  # one call each, the same rounds
        assert cdf_calls[0] == mass_calls[0] == 0
        numpy_rounds(s, np.array([x]))
        assert mass_calls[0] == rounds[0]
        mass_calls[0] = cdf_calls[0] = 0
        total += rounds[0]
    assert total <= 12 * 65
    for d in ORACLE_DESIGNS.values():
        rounds.clear()
        SpreadFunction(d, 4096).at(np.linspace(0.0, 1.0, 2001))
        assert len(rounds) == 1 and rounds[0] <= 30 and cdf_calls[0] == mass_calls[0] == 0


def _counting(f, calls):
    """f, counting its calls in calls[0]."""
    def counted(*args, **kwargs):
        calls[0] += 1
        return f(*args, **kwargs)
    return counted


def _rounds(solve, rounds):
    """The kernel's tn_solve, appending the rounds each call ran to rounds."""
    def counted(addr):
        rounds.append(solve(addr))
        return rounds[-1]
    return counted


@pytest.mark.parametrize("d", [densities.uniform(), densities.example3(4096), TABULATED,
                               ORACLE_DESIGNS["example3_tabulated"],
                               densities.mixture(ORACLE_DESIGNS["example3_tabulated"],
                                                 densities.uniform(), 0.2),
                               densities.power(2.0), ORACLE_DESIGNS["mixture"],
                               ORACLE_DESIGNS["nested_mixture"],
                               densities.mixture(densities.power(15.0), densities.uniform(), 0.94)],
                         ids=["uniform", "example3", "tabulated", "mixture", "nested_mixture",
                              "power2", "power2_mixture", "power2_nested_mixture",
                              "power15_mixture"])
def test_kernel_designs_solve_without_python_cdf_calls(d):
    # the kernel evaluates these designs' CDF trees itself, powers with an
    # integer alpha + 1 up to _POWER_MAX included: a solve is one kernel
    # call, which calls no design CDF and no np.power from Python
    cdf_calls, power_calls, solves, s = [0], [0], [0], SpreadFunction(d, 4096)
    with mock.patch.object(densities.DesignDistribution, "cdf",
                           _counting(densities.DesignDistribution.cdf, cdf_calls)), \
            mock.patch.object(densities.np, "power", _counting(np.power, power_calls)), \
            mock.patch.object(spread.KERNEL, "tn_solve", _counting(spread.KERNEL.tn_solve, solves)):
        t = s.at(np.linspace(0.0, 1.0, 201))
        one = s.at(0.3)
    assert cdf_calls[0] == power_calls[0] == 0 and solves[0] == 2
    assert np.array_equal(_bits(t), _bits(numpy_rounds(s, np.linspace(0.0, 1.0, 201))))
    assert one == numpy_rounds(s, np.array([0.3]))[0]


@pytest.mark.parametrize("d", [
    densities.power(0.5), ORACLE_DESIGNS["leaf_mixture"],
    densities.mixture(densities.uniform(), densities.power(0.5), 0.5),
    densities.mixture(densities.power(2.5), densities.uniform(), 0.94),
    densities.mixture(densities.power(16.0), densities.uniform(), 0.94),
], ids=["power.5", "power.5_tabulated", "uniform_power.5", "power2.5_mixture", "power16_mixture"])
def test_pow_designs_solve_in_one_kernel_call(d):
    # a power exponent alpha + 1 that is no integer up to _POWER_MAX is a
    # pow node of the kernel's tree, alone and in a mixture (the third is
    # the pooled design of test_08's mixture_spread): one point and a
    # 2,001-point grid are each one kernel call, which calls no design CDF and
    # no np.power from Python, in the numpy loop's rounds and with its bits
    s, grid = SpreadFunction(d, 1000), np.linspace(0.0, 1.0, 2001)
    for x in (0.3, grid):
        rounds, cdf_calls, power_calls, mass_calls = [], [0], [0], [0]
        with mock.patch.object(densities.DesignDistribution, "cdf",
                               _counting(densities.DesignDistribution.cdf, cdf_calls)), \
                mock.patch.object(densities.KERNEL, "unit_cdf",
                                  _counting(densities.KERNEL.unit_cdf, cdf_calls)), \
                mock.patch.object(densities.np, "power", _counting(np.power, power_calls)), \
                mock.patch.object(spread.KERNEL, "tn_solve",
                                  _rounds(spread.KERNEL.tn_solve, rounds)):
            t = s.at(x)
        assert len(rounds) == 1 and cdf_calls[0] == power_calls[0] == 0
        with mock.patch.object(kernel_reference, "interval_mass",
                               _counting(densities.interval_mass, mass_calls)):
            want = numpy_rounds(s, np.atleast_1d(np.asarray(x, float)))
        assert np.array_equal(_bits(t), _bits(want if np.ndim(x) else want[0]))
        assert rounds[0] == mass_calls[0] > 2


def test_replaced_unit_cdf_is_what_gets_solved():
    # a design built by dataclasses.replace(d, tree=other.tree) is solved
    # and evaluated as other, alone and as a mixture's component, whatever
    # its kind and params say
    xs = np.linspace(0.0, 1.0, 101)
    ex3, uni = densities.example3(4096), densities.uniform()
    as_uniform = dataclasses.replace(ex3, tree=uni.tree)
    assert np.array_equal(SpreadFunction(as_uniform, 4096).at(xs),
                          SpreadFunction(uni, 4096).at(xs))
    assert np.array_equal(_bits(as_uniform.cdf(xs)), _bits(uni.cdf(xs)))
    mixed, want = (densities.mixture(d, TABULATED, 0.4) for d in (as_uniform, uni))
    assert np.array_equal(SpreadFunction(mixed, 4096).at(xs), SpreadFunction(want, 4096).at(xs))
    assert np.array_equal(_bits(mixed.cdf(xs)), _bits(want.cdf(xs)))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(ORACLE_DESIGNS)),
       n=st.integers(2, 10**9),
       xs=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=20))
def test_cube_root_only_steers_the_solve(kind, n, xs):
    # the kernel takes libm's cube root, whose last bits differ from
    # numpy's: the secant it steers may differ, but the bracket that g's
    # sign test certifies, and so each t, does not
    s, xs = SpreadFunction(ORACLE_DESIGNS[kind], n), np.array(xs + [0.0, 0.5, 1.0])
    libm = numpy_rounds(s, xs)
    assert np.array_equal(_bits(libm), _bits(numpy_rounds(s, xs, cbrt=np.cbrt)))
    assert np.array_equal(_bits(libm), _bits(s.at(xs)))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(ORACLE_DESIGNS)),
       n=st.integers(2, 10**9),
       x=st.floats(-0.5, 1.5))
def test_one_point_path_matches_vector_path(kind, n, x):
    # the kernel's rounds give the numpy loop's bits, for one point given as
    # a float, an np.float64 or a 0-d array and for the same point twice
    s = SpreadFunction(ORACLE_DESIGNS[kind], n)
    with mock.patch.object(spread, "_finite", side_effect=spread._finite) as checks:
        t = s.at(x)
        t64 = s.at(np.float64(x))
        assert checks.call_count == 0  # a float skips the array conversion
    t0d = s.at(np.array(x))
    pair = s.at(np.array([x, x]))
    (ref,), ref_pair = numpy_rounds(s, np.array([x])), numpy_rounds(s, np.array([x, x]))
    assert type(t) is type(t64) is type(t0d) is float
    assert t == t64 == t0d == pair[0] == pair[1] == ref == ref_pair[0] == ref_pair[1]
    # on 1-d arrays, as the solver evaluates g: numpy's array power and its
    # scalar power differ in the last bit at some points
    assert_float_crossing(s, np.array([x]), np.array([t]))


@pytest.mark.parametrize("kind", ["mixture", "tabulated"])
def test_solve_returns_its_own_array_within_the_numpy_loops_peak(kind, traced):
    # `at` returns an array that holds its n floats and nothing of the
    # solver's buffer, and a 2001-point solve peaks no higher than the numpy
    # loop's (about 420 B per point)
    s, x = SpreadFunction(ORACLE_DESIGNS[kind], 4096), np.linspace(0.0, 1.0, 2001)
    s.at(x)  # numpy's and ctypes' first-call caches stay out of `held`
    t, peak, held = traced(s.at, x)
    owner = t if t.base is None else t.base
    assert owner.nbytes == t.nbytes and held <= t.nbytes + 1024
    ref, numpy_peak, _ = traced(numpy_rounds, s, x)
    assert np.array_equal(_bits(t), _bits(ref))
    assert peak <= numpy_peak


def test_tabulated_solve_memory(traced):
    # with the design's CDF in C, a 2,001-point solve holds the solver's
    # buffer (88 B per point) and one CDF output (32), not the numpy CDF's
    # nine arrays of the ends' size (381 B per point in all)
    s, x = SpreadFunction(ORACLE_DESIGNS["tabulated"], 4096), np.linspace(0.0, 1.0, 2001)
    s.at(x)
    _, peak, _ = traced(s.at, x)
    assert peak <= 140 * x.size


# the oracle designs, a density that is zero on a whole stretch, and one
# that vanishes to high order at 0
BATCH_DESIGNS = {**ORACLE_DESIGNS,
                 "zero_stretch": densities.tabulated([0.0, 0.3, 0.6, 1.0], [1.0, 0.0, 0.0, 2.0]),
                 "power6": densities.power(6.0)}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(BATCH_DESIGNS)),
       n=st.integers(2, 10**9),
       xs=st.lists(st.floats(-0.5, 1.5), max_size=20))
@example(kind="uniform", n=2, xs=[])
@example(kind="power6", n=10**9, xs=[0.5, -0.5, 1.5])
def test_grid_solve_matches_each_point_alone(kind, n, xs):
    # one `_at_points` call over a grid, with unsorted and repeated points,
    # gives every point the bits of its solve alone
    s = SpreadFunction(BATCH_DESIGNS[kind], n)
    xs = np.concatenate([xs, np.linspace(0.0, 1.0, 21), xs[:1]])
    t = s._at_points(xs)
    assert np.array_equal(_bits(t), _bits(np.array([s.at(x) for x in xs.tolist()])))


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (2, 3), (0,)])
def test_at_and_derivative_keep_input_shape(shape):
    s = SpreadFunction(densities.power(2.0), 1000)
    x = np.linspace(0.2, 0.7, int(np.prod(shape))).reshape(shape)
    t = s.at(x)
    tp = s.derivative(x)
    if shape == ():
        assert type(t) is float and type(tp) is float
    else:
        assert isinstance(t, np.ndarray) and t.shape == shape and tp.shape == shape
    assert np.array_equal(np.ravel(t), [s.at(float(v)) for v in np.ravel(x)])
    assert np.array_equal(np.ravel(tp), [s.derivative(float(v)) for v in np.ravel(x)])
    assert np.array_equal(s.derivative(x, t), tp)
    e = EmpiricalSpread(np.linspace(0.0, 1.0, 50))
    te = e.at(x)
    assert np.shape(te) == shape and type(te) is (float if shape == () else np.ndarray)
    assert np.array_equal(np.ravel(te), [e.at(float(v)) for v in np.ravel(x)])


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


def _floats_near(v, ulps):
    """The floats ulps steps away from each v (a float array), by np.nextafter."""
    out = np.asarray(v, float).copy()
    for _ in range(int(np.max(np.abs(ulps)))):
        step = ulps != 0
        out[step] = np.nextafter(out[step], np.where(ulps[step] > 0, np.inf, -np.inf))
        ulps = ulps - np.sign(ulps)
    return out


def _boundary_sample(rng, n, k, x, block=1):
    """n points: k - 1 at distances below phi_k / 2 from x, `block` copies
    of one value within 3 ulps of x +- phi_k (phi_k = sqrt(log n / k)), and
    the rest beyond 2 phi_k.  The search's verdict at k, whether r_k >=
    phi_k (fewer than k distances below phi_k, for the counting oracle),
    then hinges on the float test for the tied value, and a wrong verdict
    moves k* by one and changes the last bits of the result."""
    phi = np.sqrt(np.log(n) / k)
    sign = rng.choice([-1.0, 1.0], n)
    near = x + sign[:k - 1] * rng.uniform(0.0, 0.5, k - 1) * phi
    tie = _floats_near(np.array([x + sign[k - 1] * phi]), rng.integers(-3, 4, 1))
    far = x + sign[k - 1 + block:] * rng.uniform(2.0, 3.0, n - k + 1 - block) * phi
    return np.concatenate([near, np.full(block, tie[0]), far])


def _assert_counting_exact(pts, k, x, xs):
    e = EmpiricalSpread(pts)
    want, table = sorted_distance_oracle(pts, xs), FloorTableSpread(pts).at(xs)
    for got in (e.at(xs), search(e, xs)):  # the C kernel and its Python reference
        assert np.array_equal(got, want)
        assert np.array_equal(_bits(got), _bits(table))
    # the count itself is exact, also where a wrong one would leave t_hat as it is
    phi = float(np.sqrt(np.log(pts.size) / k))
    p = memoryview(e.points)
    count = count_closer(p, bisect_left(p, x), x, phi)
    assert count == np.count_nonzero(np.abs(pts - x) < phi)


def test_counting_search_exact_next_to_floors():
    # x in and outside [0, 1], and on a sample point
    rng = np.random.default_rng(11)
    for _ in range(3000):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(1, n + 1))
        x = rng.choice([rng.uniform(-0.5, 1.5), rng.uniform(0.0, 1.0), 0.0, 1.0])
        pts = _boundary_sample(rng, n, k, x)
        _assert_counting_exact(pts, k, x, np.array([x, pts[0], pts[-1], -0.5, 1.5]))


def test_counting_search_exact_on_tied_block():
    # 10^4 copies of the value next to the floor
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = 10_000 + int(rng.integers(1, 200))
        k = int(rng.integers(1, n - 10_000 + 2))
        x = rng.uniform(-0.5, 1.5)
        pts = _boundary_sample(rng, n, k, x, block=10_000)
        xs = np.array([x, np.nextafter(x, 2.0), pts[k - 1], -0.5, 1.5])
        _assert_counting_exact(pts, k, x, xs)


def test_search_only_selects():
    pts = densities.sample(densities.power(2.0), 10**4, seed=8)
    e = EmpiricalSpread(pts)
    xs = np.concatenate([np.linspace(-0.25, 1.25, 201), pts[:5]])
    calls = []  # x of each selection, in order
    select = kernel_reference.kth_distance

    def logged(p, s, x, k):
        calls.append(x)
        return select(p, s, x, k)

    # the reference search, whose probes and result select with this helper
    with mock.patch.object(kernel_reference, "kth_distance", logged):
        t = search(e, xs)
        assert search(e, np.array(0.3)) == sorted_distance_oracle(pts, 0.3)[0]
    # per point: one selection per probe of the k* search and one for r_k*
    runs = [(x, len(list(group))) for x, group in groupby(calls)]
    assert [x for x, _ in runs] == [*xs.tolist(), 0.3]
    assert all(1 <= size <= math.ceil(math.log2(e.n + 1)) + 1 for _, size in runs)
    assert np.array_equal(t, sorted_distance_oracle(pts, xs))


# the Python k* search is the reference of the C kernel's, line for line:
# the same float tests and the same searches, so the same bits
@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 2048),
       seed=st.integers(0, 2**32 - 1),
       levels=st.sampled_from([0, 1, 2, 7, 64]),
       negative_zero=st.booleans(),
       extra=st.lists(st.floats(-1.0, 2.0), max_size=10),
       on_points=st.integers(0, 5))
@example(n=2, seed=0, levels=0, negative_zero=False, extra=[], on_points=2)
@example(n=2, seed=0, levels=1, negative_zero=True, extra=[0.0, -0.0], on_points=2)
@example(n=10**5, seed=3, levels=0, negative_zero=False, extra=[], on_points=5)
def test_kernel_matches_python_search_bit_for_bit(n, seed, levels, negative_zero, extra,
                                                  on_points):
    # levels > 0 rounds the points to that many values per unit (ties), and
    # negative_zero makes the rounded zeros -0.0; x also lies outside [0, 1]
    # and on the points
    rng = np.random.default_rng(seed)
    pts = rng.random(n)
    if levels:
        pts = np.round(pts * levels) / levels
    if negative_zero:
        pts[pts == 0.0] = -0.0
    xs = np.concatenate([np.linspace(-1.0, 2.0, 13), extra, pts[:on_points], [0.0, -0.0]])
    e = EmpiricalSpread(pts)
    assert np.array_equal(_bits(e.at(xs)), _bits(search(e, xs)))
    assert _bits(e.at(xs[-1])) == _bits(search(e, xs[-1:]))[0]


def test_empirical_spread_memory_bounded(traced):
    e = EmpiricalSpread(densities.sample(densities.uniform(), 10**5, seed=3))
    _, peak, _ = traced(e.at, np.linspace(0.0, 1.0, 201))
    assert peak < 16 * 2**20


def test_empirical_spread_holds_sorted_points_only(traced):
    # with the sqrt(log n / k) table it held 2.0 x 8n and peaked at 3.1 x 8n
    pts = densities.sample(densities.uniform(), 10**5, seed=3)
    e, peak, held = traced(EmpiricalSpread, pts)
    assert held <= pts.nbytes + 2**16
    assert peak <= 1.25 * pts.nbytes + 2**16
    assert np.array_equal(e.points, np.sort(pts))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 3000),
       seed=st.integers(0, 2**32 - 1),
       levels=st.sampled_from([0, 2, 7, 64, 1000]),
       repeat=st.integers(1, 3),
       probes=st.lists(st.floats(-0.2, 1.2), max_size=20))
def test_at_matches_floor_table_oracle(n, seed, levels, repeat, probes):
    # levels > 0 rounds the points onto a grid (tied distances) and repeat
    # duplicates the whole sample; probes also sit on sample points
    rng = np.random.default_rng(seed)
    pts = rng.random(n)
    if levels:
        pts = np.round(pts * levels) / levels
    pts = np.tile(pts, repeat)
    xs = np.concatenate([rng.uniform(-0.2, 1.2, 20), probes, pts[:3], [-0.2, 0.0, 1.0, 1.2]])
    e = EmpiricalSpread(pts)
    assert np.array_equal(_bits(e.at(xs)), _bits(FloorTableSpread(pts).at(xs)))
    assert _bits(e.at(xs[0])) == _bits(FloorTableSpread(pts).at(xs[0]))[0]


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
    # an integer n >= 2: a float n would be stored truncated while the
    # threshold used it whole
    for n in (1, 0, 2.5, 100.0, np.inf, np.nan, -np.inf, True, "100"):
        with pytest.raises(InvalidParameterError, match="integer n >= 2"):
            SpreadFunction(densities.uniform(), n)
    assert SpreadFunction(densities.uniform(), np.int64(100)).threshold == np.log(100) / 100


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluators_reject_nonfinite_points(bad):
    s = SpreadFunction(densities.uniform(), 100)
    e = EmpiricalSpread([0.1, 0.5, 0.9])
    for call in (lambda: s.at(bad), lambda: s.at(np.float64(bad)),
                 lambda: s.at(np.array([0.5, bad])),
                 lambda: s.derivative(bad), lambda: e.at(bad),
                 lambda: e.at(np.array([0.5, bad])),
                 lambda: EmpiricalSpread([0.1, bad, 0.9])):
        with pytest.raises(InvalidInputError):
            call()


@pytest.mark.parametrize("call", [
    lambda s, e: s.at("abc"),
    lambda s, e: s.at("0.5"),
    lambda s, e: s.at(1 + 2j),
    lambda s, e: s.at(np.array([0.5, 0.25j])),
    lambda s, e: s.at([0.5, None]),
    lambda s, e: s.derivative(1j),
    lambda s, e: e.at("0.5"),
    lambda s, e: e.at(1 + 0j),
    lambda s, e: EmpiricalSpread(["0.1", "0.5", "0.9"]),
], ids=["at-text", "at-numeric-text", "at-complex", "at-complex-array", "at-object",
        "derivative-complex", "empirical-at-text", "empirical-at-complex", "empirical-text-points"])
def test_evaluators_reject_points_that_are_not_numbers(call):
    # only bools, integers and floats are points: a string is not parsed, and
    # a complex number is not cut to its real part
    s = SpreadFunction(densities.uniform(), 100)
    e = EmpiricalSpread([0.1, 0.5, 0.9])
    with pytest.raises(InvalidInputError, match="not numbers"):
        call(s, e)


def test_evaluators_take_bools_integers_and_floats():
    s = SpreadFunction(densities.uniform(), 100)
    e = EmpiricalSpread(np.array([0, 1, 1], np.int32))
    assert s.at(True) == s.at(1) == s.at(np.int64(1)) == s.at(1.0)
    assert s.at(np.float32(0.5)) == s.at(0.5)
    assert np.array_equal(s.at(np.array([0, 1], np.uint8)), s.at(np.array([0.0, 1.0])))
    assert s.derivative(np.float32(0.5)) == s.derivative(0.5)
    assert e.at(True) == e.at(1.0) == EmpiricalSpread([0.0, 1.0, 1.0]).at(1.0)


# --- derivative ---------------------------------------------------------

@pytest.mark.parametrize("x, t", [
    ([0.3, 0.4], [0.1]), ([0.3, 0.4], 0.1), (0.3, [0.1, 0.2]),
    (0.3, np.nan), (0.3, np.inf), ([0.3, 0.4], [0.1, np.nan]), (0.3, "a"), (0.3, 0.1j),
], ids=["short", "scalar-for-array", "array-for-scalar", "nan", "inf", "nan-in-array",
        "text", "complex"])
def test_derivative_reads_t_as_it_reads_x(x, t):
    # a given t is read as the points are, and must have their shape: it
    # is neither broadcast nor passed through as NaN
    with pytest.raises(InvalidInputError):
        SpreadFunction(densities.uniform(), 100).derivative(x, t)


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


_U = densities.uniform()


@pytest.mark.parametrize("call, bad", [
    (lambda: vanishing_density_bounds(math.nan, 1.0, 2.0), "n=nan"),
    (lambda: vanishing_density_bounds(100, math.nan, 2.0), "alpha=nan"),
    (lambda: vanishing_density_bounds(2.5, 1.0, 2.0), "n=2.5"),
    (lambda: vanishing_density_bounds(100, 1.0, math.inf), "bound=inf"),
    (lambda: vanishing_density_bounds(1, 1.0, 2.0), "n=1"),
    (lambda: vanishing_density_bounds(100, True, 2.0), "alpha=True"),
    (lambda: densities.example3(2.5), "2.5"),
    (lambda: densities.example3(100.0), "100.0"),
    (lambda: prooflab.build_lower_bound_family(_U, _U, math.nan, 5000), "n=nan"),
    (lambda: prooflab.build_lower_bound_family(_U, _U, 5000, 2.5), "m=2.5"),
    (lambda: prooflab.kl_divergence(np.zeros_like, np.zeros_like, _U, _U, math.nan, 0), "n=nan"),
    (lambda: prooflab.kl_divergence(np.zeros_like, np.zeros_like, _U, _U, 2.5, 0), "n=2.5"),
    (lambda: prooflab.kl_divergence(np.zeros_like, np.zeros_like, _U, _U, 10, -1), "m=-1"),
], ids=["bounds-n-nan", "bounds-alpha-nan", "bounds-n-2.5", "bounds-bound-inf", "bounds-n-1",
        "bounds-alpha-bool", "example3-2.5", "example3-float", "family-n-nan", "family-m-2.5",
        "kl-n-nan", "kl-n-2.5", "kl-m-negative"])
def test_sample_sizes_are_integers_and_parameters_finite(call, bad):
    # a sample size is an integer with a stated minimum and alpha, bound are
    # finite and > 0; anything else is refused by an error that names it
    with pytest.raises(InvalidParameterError, match=re.escape(bad)):
        call()


_HUGE = 10**23
_INT64_HALF = np.int64(2**62)  # two of them sum to -2**63 as int64


@pytest.mark.parametrize("call, bad", [
    (lambda: SpreadFunction(_U, _HUGE), "n=100000000000000000000000"),
    (lambda: SpreadFunction(_U, 2**64), "n=18446744073709551616"),
    (lambda: densities.example3(_HUGE), "n=100000000000000000000000"),
    (lambda: vanishing_density_bounds(_HUGE, 1.0, 2.0), "n=100000000000000000000000"),
    (lambda: transfer.mixture_spread(_U, _U, _HUGE, 2, 0.5), "n=100000000000000000000000"),
    (lambda: transfer.mixture_spread(_U, _U, 2**64 - 2, 2, 0.5), "n + m < 2**64"),
    (lambda: transfer.transfer_risk_integrals(_U, _U, _HUGE), "n=100000000000000000000000"),
    (lambda: prooflab.build_lower_bound_family(_U, _U, _HUGE, 5), "n=100000000000000000000000"),
    (lambda: transfer.mixture_spread(_U, densities.power(2.0), _INT64_HALF, _INT64_HALF, 0.5),
     "n=np.int64(4611686018427387904), m=np.int64(4611686018427387904)"),
    (lambda: prooflab.build_lower_bound_family(_U, _U, _INT64_HALF, _INT64_HALF),
     "n=np.int64(4611686018427387904), m=np.int64(4611686018427387904)"),
    (lambda: transfer.mixture_spread(_U, _U, 2**63, np.int64(5), 0.5),
     "n=9223372036854775808, m=np.int64(5)"),
], ids=["spread", "spread-2**64", "example3", "bounds", "mixture", "mixture-pooled",
        "risk-integrals", "family", "mixture-int64-sum", "family-int64-sum",
        "mixture-past-int64"])
def test_sample_sizes_of_2_to_the_64_are_refused(call, bad):
    # np.log makes an object array of a Python integer >= 2^64 and raises
    # TypeError on it: such a size, or such a pooled size n + m, is refused;
    # so is a pair of numpy sizes whose own sum n + m wraps around
    with pytest.raises(InvalidParameterError, match=re.escape(bad)):
        call()


def test_largest_sample_size_still_works():
    n = 2**64 - 1
    t = SpreadFunction(_U, n).at(0.5)
    assert t == SpreadFunction(_U, np.uint64(n)).at(0.5)
    assert t == pytest.approx((np.log(float(n)) / (2.0 * n)) ** (1.0 / 3.0), rel=1e-12)
    assert densities.example3(n).params["n"] == n
    assert all(0.0 < b < 1.0 for b in vanishing_density_bounds(n, 1.0, 2.0))
    # numpy sizes of mixed signedness sum to a float, but the pooled size is
    # their integer sum; new designs, so the pooled spread is not a cached one
    x = np.linspace(0.0, 1.0, 11)
    mixed = transfer.mixture_spread(_U, densities.power(2.0), np.uint64(100), np.int64(50), x)
    ints = transfer.mixture_spread(_U, densities.power(2.0), 100, 50, x)
    assert mixed.tobytes() == ints.tobytes()


@pytest.mark.parametrize("call, error", [
    (lambda: densities.power(True), InvalidParameterError),
    (lambda: densities.power(np.True_), InvalidParameterError),
    (lambda: densities.mixture(_U, _U, True), InvalidParameterError),
    (lambda: densities.doubling_constant(_U, True), InvalidParameterError),
    (lambda: SpreadFunction(_U, 100).closed_form_bounds(math.nan), InvalidInputError),
    (lambda: SpreadFunction(_U, 100).closed_form_bounds(np.array([0.5, math.nan])),
     InvalidInputError),
    (lambda: densities.interval_mass(_U, math.nan, 0.5), InvalidIntervalError),
    (lambda: densities.interval_mass(densities.power(2.0), 0.1, math.nan), InvalidIntervalError),
    (lambda: densities.interval_mass(_U, np.array([0.1, 0.2]), np.array([0.3, math.nan])),
     InvalidIntervalError),
], ids=["power-bool", "power-numpy-bool", "mixture-weight-bool", "doubling-eta-bool",
        "bounds-nan", "bounds-nan-in-array", "mass-nan-a", "mass-nan-b", "mass-nan-in-array"])
def test_edges_reject_bools_and_nan(call, error):
    # a bool is no number and NaN no point or endpoint: each is refused by a
    # typed error instead of being read as 1.0 or passed through as NaN
    with pytest.raises(error):
        call()


def test_infinite_interval_ends_are_clipped():
    assert densities.interval_mass(_U, -math.inf, math.inf) == 1.0
    assert densities.interval_mass(densities.power(2.0), 0.5, math.inf) == 1.0 - 0.125


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
