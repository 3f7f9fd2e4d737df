"""The spread function t_n and its empirical counterpart.

t_n(x) is the unique positive solution of

    t^2 * P([x - t, x + t] \\cap [0, 1]) = log(n) / n.

Since both factors are nondecreasing in t, g(t) = t^2 P([x +- t]) is
nondecreasing, so a bracket [lo, hi] with g(lo) < log n / n <= g(hi) (or
hi = 1) pins the (smallest, hence the) solution.  `SpreadFunction.at`
shrinks that bracket with paired secant steps on g^(1/3) until lo and hi are
adjacent floats.  The empirical version is an exact selection over the
sorted sample.  Everything here is vectorized over x.
"""

from __future__ import annotations

import numpy as np

from .densities import DesignDistribution, interval_mass
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    NoBoundAvailableError,
    NondifferentiablePointError,
)

__all__ = [
    "SpreadFunction",
    "EmpiricalSpread",
    "vanishing_density_bounds",
]


def _finite(x):
    """x as a float array; NaN or infinite points are rejected."""
    x = np.asarray(x, float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("spread evaluated at a NaN or infinite point")
    return x


class SpreadFunction:
    """Evaluator for t_n bound to a (distribution, n) pair."""

    def __init__(self, distribution: DesignDistribution, n: int):
        if n <= 1:
            raise InvalidParameterError(f"spread function needs n > 1, got {n}")
        self.distribution = distribution
        self.n = int(n)
        self.threshold = np.log(n) / n

    def at(self, x):
        """Solve the defining equation by a bracketed paired secant; vectorized.

        The bracket starts at [sqrt(log n / n) (1 - 1e-9), 1].  lo only ever
        holds points where g(t) = t^2 P([x +- t]) < log n / n and hi the
        other points (or 1), and a point stops once the midpoint of its
        bracket rounds to lo or hi: lo and hi are then adjacent floats, the
        certificate of a float crossing, and that midpoint is returned, as
        bisection to the end would.  Each round makes one `interval_mass`
        call on a pair (a, b) straddling the current root estimate, moves
        the bracket ends onto a and b by the sign test, and takes the next
        estimate from the secant through the pair on g^(1/3): g grows like
        t^3 near the root (like 2 p(x) t^3 for a positive density), so its
        cube root is nearly linear and the secant converges superlinearly.
        The next pair's half-width is half the last step; after a pair that
        misses the root it doubles instead.  A bracket that has not halved
        over two rounds gets a quartile pair about its midpoint, which halves
        it, so whatever g does the bracket halves at least every third round;
        range(200) stays as a cap.  For n <= 10^6 a point in [0, 1] takes
        about 9 rounds and at most 16 in the tests tried, against 53 to 59
        bisection steps; points far outside [0, 1] and larger n take more
        (at most 79 seen, at n = 10^15).
        """
        x = _finite(x)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.empty_like(x)
        d, level = self.distribution, np.cbrt(self.threshold)
        todo = np.arange(x.size)  # the points still solving; the arrays below follow it
        lo = np.full_like(x, np.sqrt(self.threshold) * (1.0 - 1e-9))
        hi = np.ones_like(x)
        est = np.full_like(x, np.cbrt(0.5 * self.threshold))  # the root for p = 1
        half = 0.5 * est  # half-width of the next pair
        before = np.full_like(x, np.inf)  # bracket width at the start of the last round
        for _ in range(200):
            t = 0.5 * (lo + hi)
            done = (t == lo) | (t == hi)
            if done.any():
                out[todo[done]] = t[done]
                todo, x, lo, hi, est, half, before = (
                    v[~done] for v in (todo, x, lo, hi, est, half, before))
                if todo.size == 0:
                    break
            inner = np.nextafter(lo, hi), np.nextafter(hi, lo)
            a = np.minimum(np.maximum(est - half, inner[0]), inner[1])
            b = np.maximum(est + half, np.nextafter(est, np.inf))
            b = np.minimum(np.maximum(b, inner[0]), inner[1])
            t = np.concatenate([a, b])
            xx = np.concatenate([x, x])
            g = t**2 * interval_mass(d, xx - t, xx + t)
            ga, gb = g[: x.size], g[x.size:]
            a_below, b_below = ga < self.threshold, gb < self.threshold
            lo2 = np.where(a_below, np.where(b_below, b, a), lo)
            hi2 = np.where(a_below, np.where(b_below, hi, b), a)
            ca, cb = np.cbrt(ga), np.cbrt(gb)
            with np.errstate(divide="ignore", invalid="ignore"):
                secant = a + (level - ca) * (b - a) / (cb - ca)
            # no usable secant (flat or off the bracket): step past the pair
            secant = np.where((secant > lo2) & (secant < hi2), secant,
                              np.where(b_below, b + 2.0 * (b - a), a - 2.0 * (b - a)))
            step = np.abs(secant - est)
            half = np.where(a_below & ~b_below, 0.5 * step, 2.0 * np.maximum(half, step))
            slow = hi2 - lo2 > 0.5 * before
            est = np.minimum(np.maximum(np.where(slow, 0.5 * (lo2 + hi2), secant), lo2), hi2)
            half = np.where(slow, 0.25 * (hi2 - lo2), half)
            before, lo, hi = hi - lo, lo2, hi2
        out[todo] = 0.5 * (lo + hi)
        return float(out[0]) if scalar else out

    def derivative(self, x, t=None):
        """Closed-form derivative of t_n; undefined where t_n(x) hits x or 1-x.

        Uses the implicit-function form: with t = t_n(x),

            t'(x) = [p(x-t) 1(t<=x) - p(x+t) 1(t<=1-x)]
                    / [2 log(n)/(n t^3) + p(x+t) 1(t<=1-x) + p(x-t) 1(t<=x)].

        Vectorized; pass t = self.at(x) when it is at hand, to solve only
        once.  A scalar x outside (0, 1) or within 1e-6 of a kink raises
        NondifferentiablePointError; in an array such points are NaN.
        """
        x = _finite(x)
        t = np.asarray(self.at(x) if t is None else t, float)
        undefined = ((x <= 0.0) | (x >= 1.0)
                     | (np.abs(t - x) <= 1e-6) | (np.abs(t - (1.0 - x)) <= 1e-6))
        if x.ndim == 0 and undefined:
            raise NondifferentiablePointError(
                f"t_n is not differentiable at x={x}: outside (0, 1) or within 1e-6 of a kink"
            )
        p = self.distribution.density
        left = p(x - t) * (t <= x)
        right = p(x + t) * (t <= 1.0 - x)
        out = (left - right) / (2.0 * self.threshold / t**3 + right + left)
        return float(out) if x.ndim == 0 else np.where(undefined, np.nan, out)

    def closed_form_bounds(self, x):
        """Published (lower, upper) envelope for t_n(x), by distribution kind.

        * constant or tabulated strictly positive density: the cube-root
          sandwich with the density's inf and sup;
        * power(alpha): the two-regime bounds split at
          a_n = (log n / (2^(a+1) n))^(1/(a+3));
        * example3: the smooth-density sandwich
          (log n/(3 n p(x)))^(1/3) <= t_n <= (2 log n/(n p(x)))^(1/3).
        """
        x = np.asarray(x, float)
        d = self.distribution
        ln = self.threshold
        if d.kind == "uniform":
            lo, hi = (ln / 2.0) ** (1.0 / 3.0), ln ** (1.0 / 3.0)
        elif d.kind == "power":
            a = d.params["alpha"]
            a_n = (ln / 2.0 ** (a + 1.0)) ** (1.0 / (a + 3.0))  # also the inner lower bound
            xa = np.maximum(x, a_n) ** a
            lo = np.where(x <= a_n, a_n, (ln / (2.0 ** (a + 1.0) * (a + 1.0) * xa)) ** (1.0 / 3.0))
            hi = np.where(x <= a_n, ln ** (1.0 / (a + 3.0)), (ln / xa) ** (1.0 / 3.0))
        elif d.kind == "example3":
            p = d.density(x)
            lo, hi = (ln / (3.0 * p)) ** (1.0 / 3.0), (2.0 * ln / p) ** (1.0 / 3.0)
        elif d.kind == "tabulated" and d.params["values"].min() > 0.0:
            v = d.params["values"]
            lo, hi = (ln / (2.0 * v.max())) ** (1.0 / 3.0), (ln / v.min()) ** (1.0 / 3.0)
        else:
            raise NoBoundAvailableError(f"no closed-form spread bound for kind {d.kind!r}")
        if x.ndim == 0:
            return float(lo), float(hi)
        return np.broadcast_to(lo, x.shape).copy(), np.broadcast_to(hi, x.shape).copy()


def vanishing_density_bounds(n: int, alpha: float, bound: float):
    """(lower, upper) for t_n at a zero of the density with local growth x^alpha.

    Assumes 1/bound <= p(x)/|x - x0|^alpha <= bound near the zero; then

        ((a+1) log n / (bound n))^(1/(a+3)) <= t_n(x0)
            <= ((a+1) bound log n / n)^(1/(a+3)).
    """
    if n <= 1 or alpha <= 0 or bound <= 0:
        raise InvalidParameterError("need n > 1, alpha > 0, bound > 0")
    ln = np.log(n) / n
    e = 1.0 / (alpha + 3.0)
    return ((alpha + 1.0) * ln / bound) ** e, ((alpha + 1.0) * bound * ln) ** e


class EmpiricalSpread:
    """Plug-in spread estimate from observed design points.

    t_hat(x) = inf{t : t^2 #{i : |X_i - x| <= t} / n >= log n / n}.  With
    r_1 <= ... <= r_n the sorted distances to x, the infimum equals
    min_k max(r_k, sqrt(log n / k)) -- the counting function only jumps at
    the r_k, and between jumps the best t is the root of t^2 k/n = log n/n.

    r_k is nondecreasing and sqrt(log n / k) decreasing in k, so with
    k* = min{k : r_k >= sqrt(log n / k)} the minimum is
    min(sqrt(log n / (k* - 1)), r_k*).  `at` finds k* by binary search and
    each r_k by selection, without sorting: the distances from x form two
    ascending runs, x - X_(i) for the points below x and X_(i) - x for the
    rest, and a binary search over how many of the k smallest come from the
    first run gives the k-th smallest.  Each distance is the same float
    subtraction as |X_i - x|, so the result is exact.  Cost per call:
    O(G log^2 n) time and O(G) memory for G points x, after the O(n log n)
    sort of the points at construction.
    """

    def __init__(self, points):
        pts = np.sort(_finite(points))
        if pts.ndim != 1 or pts.size < 2:
            raise InvalidParameterError("empirical spread needs at least 2 points")
        self.points = pts
        self.n = pts.size
        self._floor = np.sqrt(np.log(self.n) / np.arange(1, self.n + 1))

    def _kth_distance(self, x, s, k):
        """k-th smallest |X_i - x| (1 <= k <= n), elementwise; the sorted
        points below index s lie at or below x and the rest at or above."""
        p, last = self.points, self.n - 1
        # i = how many of the k smallest lie below x; the smallest i with
        # i = s, i = k or (x - p[s-1-i]) >= (p[s+k-1-i] - x) is the split
        lo = np.maximum(0, k - (self.n - s))
        hi = np.minimum(k, s)
        while np.any(lo < hi):
            i = (lo + hi) // 2
            left = x - p[np.clip(s - 1 - i, 0, last)]
            right = p[np.clip(s + k - 1 - i, 0, last)] - x
            done = (i >= s) | (i >= k) | (left >= right)
            lo = np.where(done, lo, i + 1)
            hi = np.where(done, i, hi)
        left = np.where(hi > 0, x - p[np.clip(s - hi, 0, last)], -np.inf)
        right = np.where(hi < k, p[np.clip(s + k - 1 - hi, 0, last)] - x, -np.inf)
        return np.maximum(left, right)

    def at(self, x):
        x = _finite(x)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        n = self.n
        s = np.searchsorted(self.points, x)
        # k* in [1, n + 1]; n + 1 stands for "r_k < sqrt(log n / k) for all k"
        lo = np.ones(x.shape, int)
        hi = np.full(x.shape, n + 1)
        while np.any(lo < hi):
            k = (lo + hi) // 2
            kc = np.minimum(k, n)
            done = (k > n) | (self._kth_distance(x, s, kc) >= self._floor[kc - 1])
            lo = np.where(done, lo, k + 1)
            hi = np.where(done, k, hi)
        r = np.where(hi <= n, self._kth_distance(x, s, np.minimum(hi, n)), np.inf)
        floor = np.where(hi >= 2, self._floor[np.maximum(hi - 2, 0)], np.inf)
        out = np.minimum(r, floor)
        return float(out[0]) if scalar else out
