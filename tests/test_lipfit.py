import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipshift import densities
from lipshift._kernel import KERNEL, address
from lipshift.errors import InvalidInputError, InvalidParameterError, ZeroDensityError
from lipshift.harness import EVAL_GRID_SIZE, LOSSES
from lipshift.lipfit import (
    LipschitzFit,
    RegressionSample,
    fit_isotonic_lse,
    fit_lipschitz_lse,
    isotonic_evaluate,
    kernel_smoother,
    _fitted_values,
    _kkt_residual,
    _merge_duplicates,
)

from kernel_reference import clip_roots, pava, stack_roots

README = Path(__file__).resolve().parent.parent / "README.md"


def active_set_oracle(x, y, L):
    """Exact minimum by enumerating which adjacent constraints are active.

    Each gap is inactive, at the upper slope bound, or at the lower one;
    chained active gaps pin a whole block up to one offset, whose optimum is
    a mean.  The best feasible candidate over all 3^(n-1) states is the true
    minimizer.
    """
    n = len(x)
    u = L * np.diff(x)
    best = np.inf
    for states in itertools.product((0, 1, -1), repeat=n - 1):
        offs = np.zeros(n)
        blocks, cur = [], [0]
        for i, state in enumerate(states):
            if state == 0:
                blocks.append(cur)
                cur = [i + 1]
            else:
                offs[i + 1] = offs[i] + state * u[i]
                cur.append(i + 1)
        blocks.append(cur)
        f = np.zeros(n)
        for b in blocks:
            b = np.array(b)
            f[b] = np.mean(y[b] - offs[b]) + offs[b]
        if np.all(np.abs(np.diff(f)) <= u + 1e-12):
            best = min(best, float(np.sum((y - f) ** 2)))
    return best


def _pwl_root(xs, vs, s_left, s_right):
    """Root of a nondecreasing piecewise-linear function with end slopes."""
    if vs[0] > 0.0:
        return xs[0] - vs[0] / s_left
    if vs[-1] < 0.0:
        return xs[-1] - vs[-1] / s_right
    i = int(np.searchsorted(vs, 0.0, side="left"))
    if vs[i] == 0.0:
        return xs[i]
    # vs[i-1] < 0 < vs[i]
    return xs[i - 1] - vs[i - 1] * (xs[i] - xs[i - 1]) / (vs[i] - vs[i - 1])


def breakpoint_dp_oracle(sample, budget):
    """Fitted values by the O(n^2) breakpoint DP: V' is carried as arrays of
    knot positions and values, rebuilt by concatenation at every step."""
    xu, ybar, w, _ = _merge_duplicates(sample.x, sample.y)
    k = xu.size
    gaps = budget * np.diff(xu)

    # V_1'(z) = 2 w_1 (z - ybar_1)
    xs = np.array([ybar[0]])
    vs = np.array([0.0])
    s_left = s_right = 2.0 * w[0]
    mids = np.empty(k - 1)
    for i in range(1, k):
        u = gaps[i - 1]
        m = _pwl_root(xs, vs, s_left, s_right)
        mids[i - 1] = m
        neg = vs < 0.0
        pos = vs > 0.0
        xs = np.concatenate([xs[neg] - u, [m - u, m + u], xs[pos] + u])
        vs = np.concatenate([vs[neg], [0.0, 0.0], vs[pos]])
        vs = vs + 2.0 * w[i] * (xs - ybar[i])
        s_left += 2.0 * w[i]
        s_right += 2.0 * w[i]

    f = np.empty(k)
    f[-1] = _pwl_root(xs, vs, s_left, s_right)
    for i in range(k - 2, -1, -1):
        f[i] = np.clip(mids[i], f[i + 1] - gaps[i], f[i + 1] + gaps[i])
    return f


def unique_merge_oracle(x, y):
    """`_merge_duplicates` by np.unique, which sorts x again."""
    xu, _ = np.unique(x, return_index=True)  # return_index sorts stably
    if xu.size == x.size:
        return xu, y.copy(), np.ones_like(y), 0.0
    idx = np.searchsorted(xu, x)
    w = np.bincount(idx, minlength=xu.size).astype(float)
    ysum = np.bincount(idx, weights=y, minlength=xu.size)
    ybar = ysum / w
    extra = float(np.sum(y**2) - np.sum(w * ybar**2))
    return xu, ybar, w, extra


def isotonic_minmax(sample):
    """Direct min over i of max over j of (S_i - S_j)/(i - j) at each design
    point; cubic cost, an independent cross-check of the PAVA fit."""
    y = sample.y
    n = y.size
    s = np.concatenate([[0.0], np.cumsum(y)])
    out = np.empty(n)
    for k in range(1, n + 1):
        i = np.arange(k, n + 1)
        j = np.arange(0, k)
        ratios = (s[i][:, None] - s[j][None, :]) / (i[:, None] - j[None, :])
        out[k - 1] = ratios.max(axis=1).min()
    return out


def monotone_oracle(y):
    """Exact isotonic minimum by enumerating block partitions."""
    n = len(y)
    best = np.inf
    for mask in range(1 << (n - 1)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        means = [np.mean(y[a:b]) for a, b in zip(cuts, cuts[1:])]
        if all(b >= a for a, b in zip(means, means[1:])):
            f = np.concatenate([[m] * (b - a) for m, (a, b)
                                in zip(means, zip(cuts, cuts[1:]))])
            best = min(best, float(np.sum((y - f) ** 2)))
    return best


# --- Lipschitz LSE ------------------------------------------------------

def test_single_point():
    fit = fit_lipschitz_lse(RegressionSample([0.3], [7.0]), 1.0)
    assert fit.values[0] == 7.0
    assert fit.objective == 0.0


def test_feasible_data_is_fixed_point():
    x = np.linspace(0, 1, 20)
    y = 0.4 * np.abs(x - 0.5)  # within Lip(0.5)
    fit = fit_lipschitz_lse(RegressionSample(x, y), 0.5)
    assert np.allclose(fit.values, y, atol=1e-12)
    assert fit.objective < 1e-20


def test_two_point_hand_solution():
    fit = fit_lipschitz_lse(RegressionSample([0.0, 0.1], [0.0, 1.0]), 1.0)
    assert np.allclose(fit.values, [0.45, 0.55], atol=1e-12)
    assert fit.objective == pytest.approx(0.405, abs=1e-12)


def test_matches_active_set_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        x = np.sort(rng.random(n))
        y = rng.normal(size=n) * 2.0
        L = float(rng.uniform(0.1, 1.0))
        fit = fit_lipschitz_lse(RegressionSample(x, y), L)
        assert fit.objective == pytest.approx(active_set_oracle(x, y, L), abs=1e-9)
        assert fit.kkt_residual <= 1e-8 * (1.0 + np.max(np.abs(y)))


def test_beats_random_feasible_candidates():
    rng = np.random.default_rng(4)
    x = np.sort(rng.random(30))
    y = rng.normal(size=30)
    fit = fit_lipschitz_lse(RegressionSample(x, y), 1.0)
    gaps = np.diff(x)
    for _ in range(100):
        g = np.empty(30)
        g[0] = rng.normal()
        g[1:] = rng.uniform(-1.0, 1.0, 29) * gaps
        g = np.cumsum(g)
        assert fit.objective <= np.sum((y - g) ** 2) + 1e-6


def test_duplicate_x_forces_equal_values():
    fit = fit_lipschitz_lse(RegressionSample([0.2, 0.2, 0.8], [0.0, 1.0, 0.3]), 1.0)
    assert fit.knots.size == 2
    # merged point carries the group mean pull; objective includes the
    # irreducible within-group spread
    assert fit.objective >= 0.5  # (0 - .5)^2 + (1 - .5)^2 at best
    grid_obj = min(
        (0.0 - a) ** 2 + (1.0 - a) ** 2 + (0.3 - b) ** 2
        for a in np.linspace(-0.5, 1.5, 2001)
        for b in np.linspace(-0.5, 1.5, 2001)
        if abs(b - a) <= 0.6 + 1e-12
    )
    assert fit.objective == pytest.approx(grid_obj, abs=1e-5)


def test_empty_sample_rejected():
    with pytest.raises(InvalidInputError):
        RegressionSample([], [])


@pytest.mark.parametrize("x, y", [
    ([0.1, 0.5, 0.9], [0.0, np.nan, 1.0]),
    ([0.1, 0.5, 0.9], [0.0, np.inf, 1.0]),
    ([0.1, np.nan, 0.9], [0.0, 0.5, 1.0]),
    ([0.1, 0.5, -np.inf], [0.0, 0.5, 1.0]),
])
def test_nonfinite_sample_rejected(x, y):
    with pytest.raises(InvalidInputError):
        RegressionSample(x, y)


@pytest.mark.parametrize("x, y", [
    ([[0.1, 0.5], [0.9, 0.3]], [[0.0, 1.0], [2.0, 3.0]]),
    ([0.1, 0.5, 0.9, 0.3], [[0.0, 1.0], [2.0, 3.0]]),
    ([[0.1, 0.5], [0.9, 0.3]], [0.0, 1.0, 2.0, 3.0]),
    (np.zeros((1, 3)), np.zeros((1, 3))),
])
def test_multidimensional_sample_rejected(x, y):
    with pytest.raises(InvalidInputError, match="1-d"):
        RegressionSample(x, y)


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(-1.0, 2.0),
                  min_size=1, max_size=60),
       all_equal=st.booleans())
@example(x=[0.0, -0.0, 0.0, -0.0], all_equal=False)
@example(x=[0.5] * 40, all_equal=True)
def test_sample_order_is_stable_sort(x, all_equal):
    # the default sort, and a stable one only where the sorted x hold ties
    # (-0.0 == 0.0 among them), give the stable sort's order: tied x keep
    # their input order, and -0.0 and 0.0 their signs
    x = np.array([x[0]] * len(x) if all_equal else x)
    y = np.arange(x.size, dtype=float)
    s = RegressionSample(x, y)
    order = np.argsort(x, kind="stable")
    assert np.array_equal(s.y, y[order])
    assert np.array_equal(s.x.view(np.int64), x[order].view(np.int64))


def test_bad_budget_rejected():
    s = RegressionSample([0.1], [0.0])
    for L in (0.0, -1.0, 1.5):
        with pytest.raises(InvalidParameterError):
            fit_lipschitz_lse(s, L)


@pytest.mark.parametrize("bad", [True, np.True_, "0.5", None, 0.5j],
                         ids=["bool", "numpy-bool", "text", "none", "complex"])
def test_budget_and_bandwidth_must_be_numbers(bad):
    # a bool is not a Lipschitz budget or a bandwidth of 1, and a string or
    # None is refused by a typed error, not a bare TypeError
    s = RegressionSample([0.1, 0.5, 0.9], [0.0, 1.0, 0.0])
    with pytest.raises(InvalidParameterError, match="budget"):
        fit_lipschitz_lse(s, bad)
    with pytest.raises(InvalidParameterError, match="bandwidth"):
        kernel_smoother(s, densities.uniform(), bad, np.linspace(0.0, 1.0, 11))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=25),
       st.floats(0.05, 1.0))
def test_fit_always_feasible_and_certified(ys, L):
    x = np.linspace(0, 1, len(ys))
    fit = fit_lipschitz_lse(RegressionSample(x, np.array(ys)), L)
    assert np.all(np.abs(np.diff(fit.values)) <= L * np.diff(fit.knots) + 1e-9)
    assert fit.kkt_residual <= 1e-8 * (1.0 + max(1e-12, np.max(np.abs(ys))))


# Hard samples for the sweep: ties, gaps down to 1e-12 and |y| up to 1e6.
STRESS = dict(n=st.integers(1, 2048),
              seed=st.integers(0, 2**32 - 1),
              family=st.sampled_from(["noise", "alternating", "cauchy"]),
              scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
              min_gap=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
              tie_rate=st.sampled_from([0.0, 0.3]),
              L=st.floats(0.05, 1.0))


def stress_sample(n, seed, family, scale, min_gap, tie_rate):
    rng = np.random.default_rng(seed)
    gaps = 10.0 ** rng.uniform(np.log10(min_gap), -2.0, n - 1)
    gaps[rng.random(n - 1) < tie_rate] = 0.0
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    if family == "noise":
        y = scale * rng.standard_normal(n)
    elif family == "alternating":
        y = scale * 5.0 * (-1.0) ** np.arange(n)
    else:
        y = scale * rng.standard_cauchy(n)
    return RegressionSample(x, np.clip(y, -1e6, 1e6))


@settings(max_examples=60, deadline=None)
@given(**STRESS)
def test_stack_dp_matches_breakpoint_oracle(n, seed, family, scale, min_gap, tie_rate, L):
    sample = stress_sample(n, seed, family, scale, min_gap, tie_rate)
    fit = fit_lipschitz_lse(sample, L)
    ymax = np.max(np.abs(sample.y))
    oracle = breakpoint_dp_oracle(sample, L)
    assert np.max(np.abs(fit.values - oracle)) <= 1e-9 * (1.0 + ymax)
    assert np.all(np.abs(np.diff(fit.values)) <= L * np.diff(fit.knots) + 1e-9)
    assert fit.kkt_residual <= 1e-8 * (1.0 + ymax)


# few distinct values, so ties between a root and a clip bound are common
@settings(max_examples=300, deadline=None)
@given(roots=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.1, 0.2]),
                                st.floats(-2.0, 2.0)), min_size=1, max_size=40),
       gaps=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.25]), st.floats(0.0, 1.0)),
                     min_size=39, max_size=39))
@example(roots=[0.0, -0.0], gaps=[0.0] * 39)  # lower bound -0.0 ties root +0.0
@example(roots=[-0.0, -0.0], gaps=[0.0] * 39)  # upper bound +0.0 ties root -0.0
def test_clip_roots_matches_min_max_formula(roots, gaps):
    # the indexed min(max(...)) loop that the comparisons replaced, against
    # the reference backward pass and the C kernel's
    u = gaps[: len(roots) - 1]
    f = list(roots)
    for i in range(len(u) - 1, -1, -1):
        f[i] = min(max(f[i], f[i + 1] - u[i]), f[i + 1] + u[i])
    for clip in (clip_roots, kernel_clip):
        buf = np.array(roots, float)
        got = clip(buf, np.array(u, float))
        assert got is buf  # in place
        assert np.array_equal(got.view(np.int64), np.array(f).view(np.int64))


def kernel_clip(roots, u):
    """`clip_roots` by the C kernel's backward pass."""
    n = len(roots)
    KERNEL.lse_clip(address(roots, (n,)), address(u, (n - 1,)), n)
    return roots


# the Python sweep is the reference of the C kernel: the same float
# operations in the same order, so the same bits, and through the fit the
# same objective and KKT residual
@settings(max_examples=200, deadline=None)
@given(**STRESS)
@example(n=2**17, seed=4, family="alternating", scale=1.0, min_gap=1e-6, tie_rate=0.0, L=1.0)
@example(n=2048, seed=1, family="alternating", scale=1e6, min_gap=1e-12, tie_rate=0.3, L=1.0)
@example(n=2048, seed=2, family="cauchy", scale=1e3, min_gap=1e-3, tie_rate=0.0, L=0.05)
def test_kernel_matches_python_sweep_bit_for_bit(n, seed, family, scale, min_gap, tie_rate, L):
    sample = stress_sample(n, seed, family, scale, min_gap, tie_rate)
    xu, ybar, w, extra = unique_merge_oracle(sample.x, sample.y)
    c, gaps = 2.0 * w, L * np.diff(xu)
    want = clip_roots(stack_roots(ybar, c, gaps), gaps)
    got = _fitted_values(ybar, c, gaps)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    fit = fit_lipschitz_lse(sample, L)
    assert np.array_equal(fit.values.view(np.int64), want.view(np.int64))
    assert fit.objective.hex() == float(np.sum(w * (want - ybar) ** 2) + extra).hex()
    assert fit.kkt_residual.hex() == _kkt_residual(want, ybar, c, gaps).hex()


def nested_where_residual(f, ybar, w, gaps):
    """Oracle: `_kkt_residual` as it was, with every violation case in one
    nested np.where and its temporaries built out of place."""
    nu = np.cumsum(2.0 * w * (f - ybar))
    res = abs(nu[-1])
    if f.size == 1:
        return res
    d = np.diff(f)
    inner = nu[:-1]
    tol = 1e-7 * (1.0 + gaps)
    upper = gaps - d <= tol
    lower = gaps + d <= tol
    viol = np.where(upper, np.where(lower, 0.0, np.maximum(0.0, -inner)),
                    np.where(lower, np.maximum(0.0, inner), np.abs(inner)))
    return float(max(res, viol.max()))


@settings(max_examples=200, deadline=None)
@given(**STRESS, perturb=st.sampled_from([0.0, 1e-9, 1e-3]))
@example(n=1, seed=0, family="noise", scale=1.0, min_gap=1e-3, tie_rate=0.0, L=1.0, perturb=0.0)
def test_kkt_residual_matches_nested_where_oracle(n, seed, family, scale, min_gap, tie_rate, L,
                                                  perturb):
    # the fitted values, and values moved off them so that every violation
    # case occurs; the residual is a max, so its bits do not depend on the
    # order the cases are taken in
    sample = stress_sample(n, seed, family, scale, min_gap, tie_rate)
    xu, ybar, w, _ = _merge_duplicates(sample.x, sample.y)
    gaps = L * np.diff(xu)
    f = _fitted_values(ybar, 2.0 * w, gaps)
    f = f + perturb * scale * np.random.default_rng(seed).standard_normal(f.size)
    want = nested_where_residual(f, ybar, w, gaps)
    assert _kkt_residual(f, ybar, 2.0 * w, gaps).hex() == want.hex()


@pytest.mark.parametrize("family", ["noise", "alternating"])
def test_lse_memory_bounded(family, traced):
    n = 4096
    x = densities.sample(densities.uniform(), n, seed=3)
    y = np.random.default_rng(3).standard_normal(n) if family == "noise" else 5.0 * (-1.0) ** np.arange(n)
    _, peak, _ = traced(fit_lipschitz_lse, RegressionSample(x, y), 1.0)
    # about 64 bytes per point, the peak in the C sweep: 2n + 1 knots at 16
    # bytes and the roots (about 40 bytes per point) next to the inputs; the
    # KKT residual's temporaries took it to about 83 when they were not
    # built in place, the Python sweep's 2n knots at 40 bytes each peak at
    # about 115, and float lists for the knots, inputs and roots at about 318
    assert peak <= 150 * n


def test_readme_quick_start_runs():
    block = re.search(r"## Quick start\s+```python\n(.*?)```", README.read_text(), re.S)
    scope = {}
    exec(block.group(1), scope)
    fit = scope["fit"]  # fitted with the README's budget, 1.0
    assert np.all(np.abs(np.diff(fit.values)) <= np.diff(fit.knots) + 1e-12)
    assert fit.kkt_residual <= 1e-8 * (1.0 + np.max(np.abs(scope["y"])))


# --- evaluation ---------------------------------------------------------

def test_evaluate_midpoint_and_extension():
    fit = LipschitzFit(knots=np.array([0.2, 0.4]), values=np.array([1.0, 1.2]),
                       objective=0.0, kkt_residual=0.0)
    assert fit.evaluate(0.3) == pytest.approx(1.1)
    assert fit.evaluate(0.0) == 1.0
    assert fit.evaluate(0.9) == pytest.approx(1.2)


def test_evaluate_is_budget_lipschitz():
    rng = np.random.default_rng(9)
    x = np.sort(rng.random(50))
    fit = fit_lipschitz_lse(RegressionSample(x, rng.normal(size=50)), 0.8)
    a, b = rng.random((2, 10_000))
    num = np.abs(fit.evaluate(a) - fit.evaluate(b))
    den = np.abs(a - b)
    keep = den > 1e-12
    assert np.max(num[keep] / den[keep]) <= 0.8 + 1e-9


# --- isotonic -----------------------------------------------------------

def test_isotonic_increasing_identity():
    y = np.array([0.0, 0.5, 1.0, 2.0])
    s = RegressionSample(np.linspace(0, 1, 4), y)
    assert np.allclose(fit_isotonic_lse(s), y)


def test_isotonic_decreasing_pools_to_mean():
    y = np.array([3.0, 2.0, 1.0])
    s = RegressionSample(np.linspace(0, 1, 3), y)
    assert np.allclose(fit_isotonic_lse(s), 2.0)


def test_isotonic_matches_minmax_formula():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        s = RegressionSample(np.sort(rng.random(n)), rng.normal(size=n))
        assert np.allclose(fit_isotonic_lse(s), isotonic_minmax(s), atol=1e-10)


def test_isotonic_matches_partition_oracle():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        y = rng.normal(size=n)
        s = RegressionSample(np.sort(rng.random(n)), y)
        f = fit_isotonic_lse(s)
        assert np.all(np.diff(f) >= -1e-12)
        assert np.sum((y - f) ** 2) == pytest.approx(monotone_oracle(y), abs=1e-8)


# the Python PAVA is the reference of the C kernel's: the same float
# operations in the same order, so the same bits
@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 2048),
       seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["noise", "decreasing", "cauchy"]),
       scale=st.sampled_from([1e-3, 1.0, 1e6]),
       levels=st.sampled_from([0, 1, 3, 50]))
@example(n=1, seed=0, family="noise", scale=1.0, levels=0)
@example(n=2, seed=0, family="decreasing", scale=1.0, levels=0)
@example(n=2, seed=0, family="noise", scale=1.0, levels=1)
@example(n=10**5, seed=7, family="noise", scale=1.0, levels=0)
def test_isotonic_kernel_matches_pava_bit_for_bit(n, seed, family, scale, levels):
    # levels > 0 rounds y to that many values per unit (tied blocks)
    rng = np.random.default_rng(seed)
    if family == "noise":
        y = rng.standard_normal(n)
    elif family == "decreasing":
        y = np.linspace(1.0, -1.0, n) + 0.1 * rng.standard_normal(n)
    else:
        y = np.clip(rng.standard_cauchy(n), -1e6, 1e6)
    if levels:
        y = np.round(y * levels) / levels
    y = scale * y
    want = pava(y)
    got = fit_isotonic_lse(RegressionSample(np.arange(n), y))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_isotonic_evaluate_steps():
    s = RegressionSample([0.2, 0.6], [1.0, 2.0])
    got = isotonic_evaluate(s, np.array([0.0, 0.2, 0.4, 0.6, 1.0]))
    assert np.allclose(got, [1.0, 1.0, 2.0, 2.0, 2.0])


# --- kernel smoother ----------------------------------------------------

def kernel_matrix_oracle(sample, d, h, x):
    """`kernel_smoother` summed term by term through the len(x) x n kernel
    matrix, with each weight clipped at zero as the kernel is."""
    x = np.atleast_1d(np.asarray(x, float))
    kern = np.maximum(1.0 - np.abs(sample.x[None, :] - x[:, None]) / h, 0.0)
    return kern @ sample.y / (sample.n * h * d.density(x))


def _assert_kernel_matches_oracle(s, d, h, grid):
    # rounding of the prefix-sum differences: 1e-12 of the largest term
    # that enters, sum |y_i| (1 + 1/h) / (n h p(x))
    got = kernel_smoother(s, d, h, grid)
    want = kernel_matrix_oracle(s, d, h, grid)
    tol = 1e-12 * (1.0 + 1.0 / h) * np.sum(np.abs(s.y)) / (s.n * h * d.density(grid))
    assert np.all(np.abs(got - want) <= tol)


# x on a 1/32 lattice, with dyadic h and grid points on and h away from the
# sample, makes ties, points exactly at x +- h and grid points on sample points.
# Subnormal y are left out: below the normal range rounding is absolute, not
# relative, so no tolerance of the form above applies to them.
_LATTICE = st.integers(0, 32).map(lambda k: k / 32.0)


@settings(max_examples=150, deadline=None)
@given(xy=st.lists(st.tuples(st.one_of(_LATTICE, st.floats(0.0, 1.0)),
                             st.floats(-5.0, 5.0, allow_subnormal=False)),
                   min_size=1, max_size=60),
       h=st.one_of(st.sampled_from([1 / 32, 1 / 16, 1 / 8, 1 / 4, 1.0]), st.floats(1e-3, 2.0)),
       extra=st.lists(st.one_of(_LATTICE, st.floats(0.0, 1.0)), max_size=20))
@example(xy=[(0.25, 1.0), (0.25, -2.0), (0.5, 3.0), (0.75, 0.5), (0.75, 4.0)], h=0.25,
         extra=[0.0, 0.5, 1.0])
def test_kernel_prefix_sums_match_matrix_oracle(xy, h, extra):
    x, y = map(np.array, zip(*xy))
    s = RegressionSample(x, y)
    grid = np.concatenate([x, x - h, x + h, extra])
    grid = grid[(grid >= 0.0) & (grid <= 1.0)]
    for d in (densities.uniform(), densities.example3(10**6)):
        _assert_kernel_matches_oracle(s, d, h, grid)


def test_kernel_matches_matrix_oracle_large_sample():
    d = densities.power(1.0)
    x = densities.sample(d, 65_536, seed=8)
    s = RegressionSample(x, np.sin(6.0 * x) + np.random.default_rng(9).standard_normal(x.size))
    grid = np.linspace(0.005, 1.0, 201)
    for h in (0.01, (np.log(s.n) / s.n) ** (1 / 3), 0.5):
        _assert_kernel_matches_oracle(s, d, h, grid)


def test_kernel_memory_bounded(traced):
    s = RegressionSample(densities.sample(densities.uniform(), 10**5, seed=3), np.ones(10**5))
    grid = np.linspace(0.0, 1.0, 201)
    _, peak, _ = traced(kernel_smoother, s, densities.uniform(), 0.05, grid)
    # the kernel matrix alone would take 160 MB
    assert peak < 8 * 2**20


def test_kernel_constant_signal():
    x = np.linspace(0.001, 0.999, 2001)
    s = RegressionSample(x, np.full_like(x, 3.0))
    got = kernel_smoother(s, densities.uniform(), h=0.05, x=0.5)
    assert got == pytest.approx(3.0, rel=0.01)


def test_kernel_empty_window():
    s = RegressionSample([0.9], [5.0])
    assert kernel_smoother(s, densities.uniform(), h=0.1, x=0.2) == 0.0


def test_kernel_single_point_formula():
    s = RegressionSample([0.5], [2.0])
    assert kernel_smoother(s, densities.uniform(), h=0.2, x=0.5) == pytest.approx(10.0)


def test_kernel_zero_density():
    s = RegressionSample([0.5], [1.0])
    with pytest.raises(ZeroDensityError):
        kernel_smoother(s, densities.power(1.0), h=0.1, x=0.0)
    with pytest.raises(ZeroDensityError):
        kernel_smoother(s, densities.power(1.0), h=0.1, x=np.linspace(0.0, 1.0, 11))


def test_kernel_grid_matches_pointwise():
    rng = np.random.default_rng(4)
    s = RegressionSample(rng.random(300), rng.normal(size=300))
    d = densities.power(0.5)
    grid = np.linspace(0.01, 1.0, 37)
    got = kernel_smoother(s, d, 0.1, grid)
    want = [s.y @ np.maximum(1.0 - np.abs(s.x - x) / 0.1, 0.0) / (s.n * 0.1 * d.density(x))
            for x in grid]
    assert got.shape == grid.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
    assert kernel_smoother(s, d, 0.1, grid[5]) == pytest.approx(got[5], rel=1e-12)
    with pytest.raises(InvalidParameterError):
        kernel_smoother(s, d, 0.0, grid)


@pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_kernel_rejects_bandwidth_outside_positive_finite(h):
    rng = np.random.default_rng(8)
    s = RegressionSample(rng.random(100), rng.normal(size=100))
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        kernel_smoother(s, densities.uniform(), h, np.linspace(0.0, 1.0, 11))


# --- losses -------------------------------------------------------------

def test_weighted_sup_loss_basics():
    grid = np.linspace(0, 1, 101)
    t = 0.1 + 0.2 * grid
    q = np.ones_like(grid)
    assert LOSSES["weighted_sup"](np.zeros_like(grid), grid, t, q) == 0.0
    assert LOSSES["weighted_sup"](t, grid, t, q) == pytest.approx(1.0)
    assert LOSSES["weighted_sup"](-t, grid, t, q) == pytest.approx(1.0)


def test_l2_risk_analytic_cases():
    grid = np.linspace(0.0, 1.0, EVAL_GRID_SIZE)
    h = 1.0 / (EVAL_GRID_SIZE - 1)
    l2 = LOSSES["l2_q"]
    q = densities.uniform().density(grid)
    assert l2(np.zeros_like(grid), grid, None, q) == 0.0
    assert l2(np.full_like(grid, 0.3), grid, None, q) == pytest.approx(0.09, abs=1e-12)
    # int x^2 * 2x dx = 1/2.  By Euler-Maclaurin the trapezoid rule adds
    # (h^2/12) (g(1) - g(0)) with g = 6x^2 the derivative of 2x^3, which is
    # h^2/2, and nothing more, since the third derivative is constant.
    q = densities.power(1.0).density(grid)
    assert l2(grid, grid, None, q) == pytest.approx(0.5 + h**2 / 2.0, abs=1e-12)
