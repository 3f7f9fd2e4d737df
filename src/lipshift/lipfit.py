"""Least squares estimators on [0, 1] and the kernel smoother they are
compared with.

The Lipschitz-constrained LSE

    min sum_i (y_i - f_i)^2   s.t.  |f_{i+1} - f_i| <= L (x_{i+1} - x_i)

is solved exactly by dynamic programming on the derivative of the value
function.  In one dimension the adjacent-pair constraints imply all pairwise
ones, so the feasible set is a chain of slabs.  Sweeping left to right, the
partial value function

    V_k(z) = w_k (z - y_k)^2 + min_{|z - z'| <= u_{k-1}} V_{k-1}(z')

is convex piecewise quadratic, so V_k' is increasing piecewise linear and is
carried as its knots (position, value).  The box-constrained minimization
clips V' around its root m: knots left of m move left by the gap budget u,
knots right of it move right by u, and two zero-valued knots at m -/+ u
bound the flat piece between.  Adding 2 w (z - y) then raises every value.
A backward pass clips each step's root to recover the unique minimizer.

The knots live on two stacks whose tops are the knots next to the root:
the left stack holds the knots with V' < 0 in increasing position, the
right stack those with V' > 0 in decreasing position.  A knot is stored as
a pair (p, q), with position p + o and value q + a p + b, where o and b
belong to its stack and the slope accumulator a is shared.  So clipping
and adding touch no stored knot: clipping moves o by -u on the left and +u
on the right, and adding 2 w (z - y) adds 2 w to a and 2 w (o - y) to each
b.  Both stacks can share a because every knot's value has gained the same
sum of 2 w, and for the same reason a is also the slope of V' beyond the
outermost knots.  When the root moves, the knots it passes leave the top
of one stack for the other; in the new stack's coordinates (p, q) shifts
by a constant, so one galloping search finds them on either stack, and one
add per coordinate moves each.  A fit costs O(n) steps plus one move per
knot crossing the root.  The sweep reads y, 2 w and the gaps from their
arrays and writes the roots into one float buffer, which the backward pass
clips in place into the fitted values.

Both passes run in C (``lse_roots`` and ``lse_clip`` in ``_sweep.c``,
which ``_kernel`` builds and loads at import), 30-70x
faster at n = 2^14 to 2^20 than the same passes in Python, whose
line-for-line copies in ``tests/kernel_reference.py`` are the kernels'
bit-for-bit references.  The C keeps both stacks in one buffer of 2n + 1
knots, the left growing up from its start and the right down from its
end.  At its peak a fit holds about 64 bytes per point, in the C sweep:
40 (16-byte knots and the roots) beside the inputs.  The KKT residual
builds its multipliers and masks in place, about 26.

The same file houses the isotonic LSE (pool adjacent violators) and a
fixed-bandwidth triangular-kernel smoother.  PAVA runs in the same C
library (``iso_fit``), with the blocks as (total, count) pairs in numpy
buffers.  Every buffer reaches a kernel through ``_kernel.address``, which
refuses one of another shape or dtype or not C-contiguous.  The losses that
judge all of them, and the name -> estimator table that runs them, are in
``harness``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernel import KERNEL, address
from .densities import DesignDistribution, _is_finite
from .errors import InvalidInputError, InvalidParameterError, ZeroDensityError

__all__ = [
    "RegressionSample",
    "LipschitzFit",
    "fit_lipschitz_lse",
    "fit_isotonic_lse",
    "isotonic_evaluate",
    "kernel_smoother",
]


@dataclass(frozen=True)
class RegressionSample:
    """(x, y) pairs stored sorted by x; x and y are 1-d and every value must
    be finite.

    Tied x keep their input order, the order of a stable sort.  The sort is
    numpy's default (unstable, and several times faster), and a stable one
    follows only when the sorted x hold equal neighbours (-0.0 == 0.0 among
    them): without ties the sorting permutation is unique, so both sorts
    give the same one."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        x = np.atleast_1d(np.asarray(x, float))
        y = np.atleast_1d(np.asarray(y, float))
        if x.ndim != 1 or y.ndim != 1:
            raise InvalidInputError(f"sample needs 1-d x and y, got shapes {x.shape} and {y.shape}")
        if x.size == 0 or x.shape != y.shape:
            raise InvalidInputError("sample needs matching nonempty x and y")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidInputError("sample holds NaN or infinite values")
        order = np.argsort(x)
        xs = x[order]
        if np.any(xs[1:] == xs[:-1]):
            order = np.argsort(x, kind="stable")
            xs = x[order]
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", y[order])

    @property
    def n(self):
        return self.x.size


@dataclass(frozen=True)
class LipschitzFit:
    knots: np.ndarray
    values: np.ndarray
    objective: float
    kkt_residual: float

    def evaluate(self, x):
        """Piecewise-linear between knots, constant beyond the data range."""
        return np.interp(np.asarray(x, float), self.knots, self.values)


def _merge_duplicates(x, y):
    """Collapse tied x to one weighted pseudo-point at the group mean.

    x must be sorted, as `RegressionSample` stores it.  Returns (xu, ybar,
    w, extra) where extra is the within-group sum of squares, a constant
    offset of the objective.
    """
    first = np.empty(x.size, bool)
    first[0] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    if first.all():
        return x, y, np.ones_like(y), 0.0
    xu = x[first]
    idx = np.cumsum(first) - 1
    w = np.bincount(idx, minlength=xu.size).astype(float)
    ysum = np.bincount(idx, weights=y, minlength=xu.size)
    ybar = ysum / w
    extra = float(np.sum(y**2) - np.sum(w * ybar**2))
    return xu, ybar, w, extra


def _fitted_values(y, c, u):
    """The roots of the forward sweep clipped by the backward pass, in C.  y,
    c = 2 w (n each) and u (n - 1) are C-contiguous float64 arrays; no
    array has the shape (-1,), so n = 0 is refused."""
    n = len(y)
    f, knots = np.empty(n), np.empty(2 * n + 1, complex)
    f_at, u_at = address(f, (n,)), address(u, (n - 1,))
    KERNEL.lse_roots(address(y, (n,)), address(c, (n,)), u_at, n,
                     address(knots, (2 * n + 1,), complex), f_at)
    KERNEL.lse_clip(f_at, u_at, n)
    return f


def fit_lipschitz_lse(sample: RegressionSample, budget: float) -> LipschitzFit:
    """Exact minimizer of the slope-constrained least squares problem with
    Lipschitz constant L = budget in (0, 1]."""
    if not (_is_finite(budget) and 0.0 < budget <= 1.0):
        raise InvalidParameterError(f"Lipschitz budget must be a number in (0, 1], got {budget!r}")
    xu, ybar, w, extra = _merge_duplicates(sample.x, sample.y)
    gaps = budget * np.diff(xu)
    c = 2.0 * w
    f = _fitted_values(ybar, c, gaps)

    objective = float(np.sum(w * (f - ybar) ** 2) + extra)
    residual = _kkt_residual(f, ybar, c, gaps)
    return LipschitzFit(knots=xu, values=f, objective=objective, kkt_residual=residual)


def _kkt_residual(f, ybar, c, gaps):
    """Stationarity violation of the chain-constrained quadratic program;
    c = 2 w.

    Running multipliers nu_j (upper minus lower, per gap) follow from the
    stationarity equations in one sweep: nu_j = nu_{j-1} + 2 w_j (f_j - y_j).
    At the optimum nu ends at zero, vanishes on inactive gaps, and has the
    sign of the active constraint elsewhere.  A constraint counts as active
    within 1e-7 (1 + gap) of its bound.  When the gap budget is itself below
    that tolerance, both bounds are active (rounding can even leave
    f_{j+1} = f_j), so nu_j may take either sign.  The residual is the
    largest violation, taken over each case's mask in turn and built in
    place, so it holds about 26 bytes per point of temporaries.
    """
    nu = f - ybar
    nu *= c
    np.cumsum(nu, out=nu)
    res = abs(nu[-1])
    if f.size == 1:
        return res
    inner = nu[:-1]
    tol = gaps + 1.0
    tol *= 1e-7
    d = np.diff(f)
    upper = np.subtract(gaps, d, out=d) <= tol
    d = np.subtract(f[1:], f[:-1], out=d)  # np.diff(f) again
    d += gaps
    lower = d <= tol
    del d, tol
    # nu_j >= 0 on an upper-active gap, <= 0 on a lower-active one, 0 on neither
    only_upper = -inner[upper & ~lower].min(initial=0.0)
    only_lower = inner[lower & ~upper].max(initial=0.0)
    upper |= lower
    neither = np.abs(inner[~upper]).max(initial=0.0)
    # the first of equal maxima: res, so a zero residual is +0.0 as before
    return float(max(res, only_upper, only_lower, neither))


def fit_isotonic_lse(sample: RegressionSample) -> np.ndarray:
    """Nondecreasing least squares fit at the design points (pool adjacent
    violators, in C); identical to the min-max
    partial-sum formula."""
    y, n = sample.y, sample.n
    tot, cnt, out = np.empty(n), np.empty(n, np.int64), np.empty(n)
    KERNEL.iso_fit(address(y, (n,)), n, address(tot, (n,)), address(cnt, (n,), np.int64),
                   address(out, (n,)))
    return out


def isotonic_evaluate(sample: RegressionSample, x) -> np.ndarray:
    """Piecewise-constant extension of the isotonic fit: the value at x is
    min_{i >= k+(x)} max_{j <= k-(x)} (S_i - S_j)/(i - j), which equals the
    fitted value at the first design point >= x (last one, right of all)."""
    fitted = fit_isotonic_lse(sample)
    x = np.asarray(x, float)
    idx = np.minimum(np.searchsorted(sample.x, x, side="left"), sample.n - 1)
    return fitted[idx]


def kernel_smoother(sample: RegressionSample, d: DesignDistribution, h: float, x):
    """Triangular-kernel smoother (1/(n h p(x))) sum_i y_i K((x_i - x)/h),
    K(u) = max(1 - |u|, 0).

    Vectorized over x, by prefix sums.  K is linear on each side of x, so
    with z_i = x_i - c and u = x - c for a centre c of the sample,

        h sum_i y_i K((x_i - x)/h) = (h - u) Y_L + Z_L + (h + u) Y_R - Z_R,

    where Y and Z sum y_i and z_i y_i over the points in (x - h, x] (L) and
    (x, x + h) (R).  Each of the four is a difference of prefix sums over
    the sorted sample, with its ends found by searchsorted.  Centring keeps
    the terms, and so the rounding of their differences, small.  Cost:
    O(n + G log n) time and O(n + G) memory for G points x.
    """
    if not (_is_finite(h) and h > 0.0):
        raise InvalidParameterError(f"bandwidth must be a positive and finite number, got {h!r}")
    x = np.asarray(x, float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    px = d.density(x)
    if np.any(px <= 0.0):
        raise ZeroDensityError(f"density vanishes at x={x[np.argmax(px <= 0.0)]}")
    xs, y = sample.x, sample.y
    c = 0.5 * (xs[0] + xs[-1])
    ys = np.concatenate([[0.0], np.cumsum(y)])
    zs = np.concatenate([[0.0], np.cumsum((xs - c) * y)])
    lo = np.searchsorted(xs, x - h, side="right")
    mid = np.searchsorted(xs, x, side="right")
    hi = np.searchsorted(xs, x + h, side="left")
    u = x - c
    total = ((h - u) * (ys[mid] - ys[lo]) + (zs[mid] - zs[lo])
             + (h + u) * (ys[hi] - ys[mid]) - (zs[hi] - zs[mid]))
    out = total / (sample.n * h * h * px)
    return float(out[0]) if scalar else out
