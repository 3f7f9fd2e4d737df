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

The knots live on two stacks, plain lists whose tops are the knots next to
the root: the left stack holds the knots with V' < 0 in increasing position,
the right stack those with V' > 0 in decreasing position.  A knot is stored
as (p, q) with position p + o and value q + a p + b, where o and b belong to
its stack and the slope accumulator a is shared.  So clipping and adding
touch no stored knot: clipping moves o by -u on the left and +u on the
right, and adding 2 w (z - y) adds 2 w to a and 2 w (o - y) to each b.  Both
stacks can share a because every knot's value has gained the same sum of
2 w, and for the same reason a is also the slope of V' beyond the outermost
knots.  When the root moves, the knots it passes leave the top of one stack
for the other; in the new stack's coordinates (p, q) shifts by a constant,
so a galloping search finds them and one slice moves them.  A fit costs
O(n) steps plus one move per knot crossing the root.

The same file houses the isotonic LSE (pool adjacent violators) and a
fixed-bandwidth triangular-kernel smoother.  The losses that judge all of
them, and the name -> estimator table that runs them, are in ``harness``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import DesignDistribution
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
    """(x, y) pairs stored sorted by x; every value must be finite."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        x = np.atleast_1d(np.asarray(x, float))
        y = np.atleast_1d(np.asarray(y, float))
        if x.size == 0 or x.shape != y.shape:
            raise InvalidInputError("sample needs matching nonempty x and y")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidInputError("sample holds NaN or infinite values")
        order = np.argsort(x, kind="stable")
        object.__setattr__(self, "x", x[order])
        object.__setattr__(self, "y", y[order])

    @property
    def n(self):
        return self.x.size


@dataclass(frozen=True)
class LipschitzFit:
    knots: np.ndarray
    values: np.ndarray
    budget: float
    objective: float
    kkt_residual: float

    def evaluate(self, x):
        """Piecewise-linear between knots, constant beyond the data range."""
        return np.interp(np.asarray(x, float), self.knots, self.values)


def _merge_duplicates(x, y):
    """Collapse tied x to one weighted pseudo-point at the group mean.

    Returns (xu, ybar, w, extra) where extra is the within-group sum of
    squares, a constant offset of the objective.
    """
    xu, start = np.unique(x, return_index=True)
    if xu.size == x.size:
        return xu, y.copy(), np.ones_like(y), 0.0
    idx = np.searchsorted(xu, x)
    w = np.bincount(idx, minlength=xu.size).astype(float)
    ysum = np.bincount(idx, weights=y, minlength=xu.size)
    ybar = ysum / w
    extra = float(np.sum(y**2) - np.sum(w * ybar**2))
    return xu, ybar, w, extra


def _stack_roots(y, c, u):
    """Roots r_0..r_{k-1} of V_0'..V_{k-1}' by the two-stack sweep of the
    module docstring; y, c = 2 w and u are lists of floats."""
    lp, lq, rp, rq = [y[0]], [0.0], [], []  # V_0' = c_0 (z - y_0): one knot, value 0
    a = c[0]
    ol = orr = 0.0
    bl = br = -a * y[0]
    roots = []
    # One trailing step with zero gap and weight past the last point, so that
    # each iteration starts with the root of V_i.
    for ui, ci, yi in zip(u + [0.0], c[1:] + [0.0], y[1:] + [0.0]):
        # Move the knots the root passed: those with V' > 0 atop the left
        # stack, or those with V' < 0 atop the right one.
        sign = 0.0
        if lp and lq[-1] + a * lp[-1] + bl > 0.0:
            sign, src_p, src_q, b, dst_p, dst_q, d = 1.0, lp, lq, bl, rp, rq, ol - orr
            e = bl - br - a * d
        elif rp and rq[-1] + a * rp[-1] + br < 0.0:
            sign, src_p, src_q, b, dst_p, dst_q, d = -1.0, rp, rq, br, lp, lq, orr - ol
            e = br - bl - a * d
        if sign:
            # galloping search for the lowest index hi with sign * V' > 0
            hi = len(src_p) - 1
            step = 1
            lo = hi - 1
            while lo >= 0 and sign * (src_q[lo] + a * src_p[lo] + b) > 0.0:
                hi = lo
                step += step
                lo = hi - step
            lo = max(lo, -1)
            while hi - lo > 1:
                mid = (lo + hi) >> 1
                if sign * (src_q[mid] + a * src_p[mid] + b) > 0.0:
                    hi = mid
                else:
                    lo = mid
            moved_p = src_p[hi:]
            moved_q = src_q[hi:]
            del src_p[hi:], src_q[hi:]
            moved_p.reverse()
            moved_q.reverse()
            dst_p += [p + d for p in moved_p]
            dst_q += [q + e for q in moved_q]
        vl = lq[-1] + a * lp[-1] + bl if lp else -1.0
        vr = rq[-1] + a * rp[-1] + br if rp else 1.0
        if vl == 0.0:  # the root is a knot; the clip below replaces it
            m = lp.pop() + ol
            lq.pop()
        elif vr == 0.0:
            m = rp.pop() + orr
            rq.pop()
        elif not rp:
            m = lp[-1] + ol - vl / a
        elif not lp:
            m = rp[-1] + orr - vr / a
        else:
            xl = lp[-1] + ol
            xr = rp[-1] + orr
            m = xl - vl * (xr - xl) / (vr - vl)
        roots.append(m)
        # clip: zero-valued knots at m on both stacks, then shift the stacks apart
        p = m - ol
        lp.append(p)
        lq.append(-(a * p + bl))
        p = m - orr
        rp.append(p)
        rq.append(-(a * p + br))
        ol -= ui
        orr += ui
        # add c_i (z - y_i)
        a += ci
        bl += ci * (ol - yi)
        br += ci * (orr - yi)
    return roots


def fit_lipschitz_lse(sample: RegressionSample, budget: float) -> LipschitzFit:
    """Exact minimizer of the slope-constrained least squares problem with
    Lipschitz constant L = budget in (0, 1]."""
    if not 0.0 < budget <= 1.0:
        raise InvalidParameterError(f"Lipschitz budget must be in (0, 1], got {budget}")
    xu, ybar, w, extra = _merge_duplicates(sample.x, sample.y)
    gaps = budget * np.diff(xu)
    u = gaps.tolist()
    f = _stack_roots(ybar.tolist(), (2.0 * w).tolist(), u)
    for i in range(len(u) - 1, -1, -1):
        f[i] = min(max(f[i], f[i + 1] - u[i]), f[i + 1] + u[i])
    f = np.array(f)

    objective = float(np.sum(w * (f - ybar) ** 2) + extra)
    residual = _kkt_residual(f, ybar, w, gaps)
    return LipschitzFit(knots=xu, values=f, budget=float(budget),
                        objective=objective, kkt_residual=residual)


def _kkt_residual(f, ybar, w, gaps, active_tol=1e-7):
    """Stationarity violation of the chain-constrained quadratic program.

    Running multipliers nu_j (upper minus lower, per gap) follow from the
    stationarity equations in one sweep: nu_j = nu_{j-1} + 2 w_j (f_j - y_j).
    At the optimum nu ends at zero, vanishes on inactive gaps, and has the
    sign of the active constraint elsewhere.  When the gap budget is itself
    below the tolerance, both bounds are active (rounding can even leave
    f_{j+1} = f_j), so nu_j may take either sign.
    """
    nu = np.cumsum(2.0 * w * (f - ybar))
    res = abs(nu[-1])
    if f.size == 1:
        return res
    d = np.diff(f)
    inner = nu[:-1]
    tol = active_tol * (1.0 + gaps)
    upper = gaps - d <= tol
    lower = gaps + d <= tol
    viol = np.where(upper, np.where(lower, 0.0, np.maximum(0.0, -inner)),
                    np.where(lower, np.maximum(0.0, inner), np.abs(inner)))
    return float(max(res, viol.max()))


def fit_isotonic_lse(sample: RegressionSample) -> np.ndarray:
    """Nondecreasing least squares fit at the design points (pool adjacent
    violators); identical to the min-max partial-sum formula."""
    y = sample.y
    # blocks as (total, count) pairs merged while out of order
    totals = [y[0]]
    counts = [1]
    for v in y[1:]:
        totals.append(v)
        counts.append(1)
        while len(totals) > 1 and totals[-2] * counts[-1] >= totals[-1] * counts[-2]:
            totals[-2] += totals[-1]
            counts[-2] += counts[-1]
            totals.pop()
            counts.pop()
    out = np.empty(y.size)
    pos = 0
    for t, c in zip(totals, counts):
        out[pos:pos + c] = t / c
        pos += c
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
    if h <= 0.0:
        raise InvalidParameterError(f"bandwidth must be positive, got {h}")
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
