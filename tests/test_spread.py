import dataclasses
import math
import re
from bisect import bisect_left
from itertools import groupby
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipshift import densities, lipfit, spread
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


class FloorTableSpread(EmpiricalSpread):
    """Oracle: EmpiricalSpread.at as it was with the n-sized table
    sqrt(log n / k), k = 1..n, built at construction and indexed by k, in a
    per-point loop on the counting and selection helpers."""

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
                if k > n or spread._count_closer(p, s, v, floor[k - 1]) < k:
                    hi = k
                else:
                    lo = k + 1
            r = spread._kth_distance(p, s, v, hi) if hi <= n else math.inf
            out.append(min(r, floor[hi - 2] if hi >= 2 else math.inf))
        return np.array(out)


def _bits(a):
    return np.asarray(a, float).view(np.int64)


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


def test_next_float_matches_nextafter():
    rng = np.random.default_rng(6)
    x = np.concatenate([[0.0, 5e-324, 2.2e-308, 0.5, 1.0, 1.7e308],
                        np.ldexp(rng.random(1000), rng.integers(-1070, 1020, 1000))])
    assert np.array_equal(spread._next_float(x, 1), np.nextafter(x, np.inf))
    assert np.array_equal(spread._next_float(x[1:], -1), np.nextafter(x[1:], -np.inf))


def test_paired_secant_mass_evaluations(monkeypatch):
    # rounds counted by unit-CDF calls, which every CDF evaluation goes
    # through: the one-point path makes one per round and no interval_mass
    # call, the vector path one interval_mass call (two unit-CDF calls) per
    # round; bisection to adjacent floats takes 53 to 59 rounds,
    # on the pooled design of transfer.mixture_spread as anywhere
    cdf_calls, mass_calls = [0], [0]
    mass = spread.interval_mass

    def counted_mass(*args):
        mass_calls[0] += 1
        return mass(*args)

    def counted(d):
        def unit_cdf(x):
            cdf_calls[0] += 1
            return d.unit_cdf(x)
        return dataclasses.replace(d, unit_cdf=unit_cdf)

    monkeypatch.setattr(spread, "interval_mass", counted_mass)
    s = SpreadFunction(counted(densities.mixture(densities.power(2.0), densities.uniform(),
                                                 16384 / (16384 + 1024))), 16384 + 1024)
    total = 0
    for x in np.linspace(0.0, 1.0, 65):
        cdf_calls[0] = mass_calls[0] = 0
        s.at(x)
        one_point = cdf_calls[0]
        assert mass_calls[0] == 0
        cdf_calls[0] = 0
        s.at(np.array([x, x]))
        assert cdf_calls[0] == 2 * mass_calls[0] == 2 * one_point  # the same rounds
        total += one_point
    assert total <= 12 * 65
    for d in ORACLE_DESIGNS.values():
        cdf_calls[0] = 0
        SpreadFunction(counted(d), 4096).at(np.linspace(0.0, 1.0, 2001))
        assert cdf_calls[0] <= 2 * 30


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(ORACLE_DESIGNS)),
       n=st.integers(2, 10**9),
       x=st.floats(-0.5, 1.5))
def test_one_point_path_matches_vector_path(kind, n, x):
    s = SpreadFunction(ORACLE_DESIGNS[kind], n)
    with mock.patch.object(SpreadFunction, "_at_points", autospec=True,
                           side_effect=SpreadFunction._at_points) as vector, \
         mock.patch.object(spread, "_finite", side_effect=spread._finite) as checks:
        t = s.at(x)
        t64 = s.at(np.float64(x))
        assert checks.call_count == 0  # a float skips the array conversion
        t0d = s.at(np.array(x))
        assert vector.call_count == 0  # the float loop solved it
        pair = s.at(np.array([x, x]))
        assert vector.call_count == 1
    assert type(t) is type(t64) is type(t0d) is float
    assert t == t64 == t0d == pair[0] == pair[1]
    # on 1-d arrays, as the solver evaluates g: numpy's array power and its
    # scalar power differ in the last bit at some points
    assert_float_crossing(s, np.array([x]), np.array([t]))


# the oracle designs, a density that is zero on a whole stretch, and one
# that vanishes to high order at 0
BATCH_DESIGNS = {**ORACLE_DESIGNS,
                 "zero_stretch": densities.tabulated([0.0, 0.3, 0.6, 1.0], [1.0, 0.0, 0.0, 2.0]),
                 "power6": densities.power(6.0)}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(BATCH_DESIGNS)),
       ns=st.lists(st.integers(2, 10**9), min_size=1, max_size=6).flatmap(
           lambda ns: st.permutations(ns + ns[:1])),
       xs=st.lists(st.floats(-0.5, 1.5), max_size=20))
@example(kind="uniform", ns=[8192, 256, 2, 10**9, 256], xs=[])
def test_stacked_solve_matches_one_solve_per_n(kind, ns, xs):
    # one `_at_points` call over the grids of several n, each point with its
    # own n's threshold, gives every point the bits of its own n's solve;
    # repeated and unsorted n in one batch
    d = BATCH_DESIGNS[kind]
    xs = np.concatenate([xs, np.linspace(0.0, 1.0, 21)])
    solvers = [SpreadFunction(d, n) for n in ns]
    t = solvers[0]._at_points(np.tile(xs, len(ns)),
                              np.repeat([s.threshold for s in solvers], xs.size))
    for s, got in zip(solvers, t.reshape(len(ns), xs.size)):
        assert np.array_equal(_bits(got), _bits(s.at(xs))), s.n


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
    the rest beyond 2 phi_k.  The counting search's verdict at k then
    hinges on the float test for the tied value, and a wrong verdict moves
    k* by one and changes the last bits of the result."""
    phi = np.sqrt(np.log(n) / k)
    sign = rng.choice([-1.0, 1.0], n)
    near = x + sign[:k - 1] * rng.uniform(0.0, 0.5, k - 1) * phi
    tie = _floats_near(np.array([x + sign[k - 1] * phi]), rng.integers(-3, 4, 1))
    far = x + sign[k - 1 + block:] * rng.uniform(2.0, 3.0, n - k + 1 - block) * phi
    return np.concatenate([near, np.full(block, tie[0]), far])


def _assert_counting_exact(pts, k, x, xs):
    e = EmpiricalSpread(pts)
    want, table = sorted_distance_oracle(pts, xs), FloorTableSpread(pts).at(xs)
    for kernel in (lipfit._KERNEL, None):  # the C kernel and its Python twin
        with mock.patch.object(lipfit, "_KERNEL", kernel):
            got = e.at(xs)
        assert np.array_equal(got, want)
        assert np.array_equal(_bits(got), _bits(table))
    # the count itself is exact, also where a wrong one would leave t_hat as it is
    phi = float(np.sqrt(np.log(pts.size) / k))
    p = memoryview(e.points)
    count = spread._count_closer(p, bisect_left(p, x), x, phi)
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


def test_counting_search_selects_once():
    pts = densities.sample(densities.power(2.0), 10**4, seed=8)
    e = EmpiricalSpread(pts)
    xs = np.concatenate([np.linspace(-0.25, 1.25, 201), pts[:5]])
    calls = []  # (helper, x) of each call, in order

    def logged(name, helper):
        def call(p, s, x, arg):
            calls.append((name, x))
            return helper(p, s, x, arg)
        return call

    # the Python helpers run only without the C kernel
    with mock.patch.object(lipfit, "_KERNEL", None), \
            mock.patch.object(spread, "_count_closer", logged("c", spread._count_closer)), \
            mock.patch.object(spread, "_kth_distance", logged("s", spread._kth_distance)):
        t = e.at(xs)
        assert e.at(0.3) == sorted_distance_oracle(pts, 0.3)[0]
    # per point: the k* search only counts, then one selection at most, for r_k*
    runs = [(x, "".join(name for name, _ in group)) for x, group in groupby(calls, itemgetter(1))]
    assert [x for x, _ in runs] == [*xs.tolist(), 0.3]
    assert all(re.fullmatch("c+s?", names) for _, names in runs)
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
    assert lipfit._KERNEL is not None, "the C kernel did not build or load"
    rng = np.random.default_rng(seed)
    pts = rng.random(n)
    if levels:
        pts = np.round(pts * levels) / levels
    if negative_zero:
        pts[pts == 0.0] = -0.0
    xs = np.concatenate([np.linspace(-1.0, 2.0, 13), extra, pts[:on_points], [0.0, -0.0]])
    e = EmpiricalSpread(pts)
    assert np.array_equal(_bits(e.at(xs)), _bits(e._search(xs)))
    assert _bits(e.at(xs[-1])) == _bits(e._search(xs[-1:]))[0]


def test_spread_kernel_checks_its_buffers():
    # the kernel reads raw memory, so strided, short or non-float64 points
    # and non-float64 x must not reach it
    pts, x = np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 3)
    for bad_pts, bad_x in [(pts[::2], x), (pts[:1], x), (pts.astype(np.float32), x),
                           (pts.reshape(2, 4), x), (pts, x.astype(np.float32))]:
        with pytest.raises(ValueError, match="C empirical spread"):
            spread._kernel_spread(bad_pts, bad_x)


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
    with pytest.raises(InvalidParameterError):
        SpreadFunction(densities.uniform(), 1)


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
