"""The spread function t_n and its empirical counterpart.

t_n(x) is the unique positive solution of

    t^2 * P([x - t, x + t] \\cap [0, 1]) = log(n) / n.

Since both factors are nondecreasing in t, g(t) = t^2 P([x +- t]) is
nondecreasing, so a bracket [lo, hi] with g(lo) < log n / n <= g(hi) (or
hi = 1) pins the (smallest, hence the) solution.  `SpreadFunction.at`
shrinks that bracket with paired secant steps on g^(1/3) until lo and hi are
adjacent floats, by one path for one point and for many.  The whole solve
runs in the C library that ``_kernel`` loads, the design's CDF included,
read from its tree of nodes (`DesignDistribution.tree`): every t_n solve
is one kernel call.  The secant's cube root is libm's there, not numpy's;
it only steers the solve, and g's sign test certifies each result.  The
empirical version finds its crossing index by counting sample points
within each candidate distance and selects one order statistic of the
distances, both over the sorted sample and exact, in the C library too;
each buffer reaches a kernel through ``_kernel.address``.  The numpy and
Python loops that the kernels replaced are their bit-for-bit references,
in ``tests/kernel_reference.py``.  Both evaluators take x of any shape and
return a float for a 0-d x, else an array shaped like x.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernel import KERNEL, address
from .densities import DesignDistribution, _check_sizes, _is_finite, _points
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
    """x as a float array by `densities._points`; NaN and infinite points
    are rejected too."""
    x = _points(x)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("spread evaluated at a NaN or infinite point")
    return x


class SpreadFunction:
    """Evaluator for t_n bound to a (distribution, n) pair."""

    def __init__(self, distribution: DesignDistribution, n: int):
        _check_sizes("spread function", 2, n)
        self.distribution = distribution
        self.n = int(n)
        self.threshold = np.log(n) / n
        # every solve's secant target and first estimate, the root for p = 1
        self._level, self._first = np.cbrt(self.threshold), np.cbrt(0.5 * self.threshold)
        self._tree = distribution.tree

    def at(self, x):
        """Solve the defining equation by a bracketed paired secant; vectorized.

        The bracket starts at [sqrt(log n / n) (1 - 1e-9), 1], where g(t) =
        t^2 P([x +- t]) < log n / n at the left end, and the first estimate
        is the root for p = 1.  Each round evaluates g once on a pair (a, b)
        straddling the estimate, moves the bracket ends onto a and b by the
        sign test g < log n / n, and takes the next estimate from the secant
        through the pair on g^(1/3): g grows like t^3 near the root (like
        2 p(x) t^3 for a positive density), so its cube root is nearly
        linear and the secant converges superlinearly.  The pair's
        half-width starts at est / 2 and then is half the last step, or
        double it after a pair that misses the root; a bracket that has not
        halved over two rounds gets a quartile pair about its midpoint, so
        it halves at least every third round (range(200) is a cap).  Once
        the midpoint rounds to lo or hi, lo and hi are adjacent floats, the
        certificate of a float crossing, and that midpoint is returned, as
        bisection to the end would.  For n <= 10^6 a point in [0, 1] takes
        about 9 rounds and at most 16 in the tests tried, against 53 to 59
        bisection steps; points far outside [0, 1] and larger n take more
        (at most 79 seen, at n = 10^15).

        The rounds run in one call of the C kernel (``tn_solve`` in
        ``_sweep.c``), so a point gets the same iterates and the same bits,
        alone or among others; the kernel evaluates the design's CDF on the
        clipped interval ends from its tree of nodes, the one `tree` that
        the design's `cdf` reads too.  The secant's cube root is libm's
        cbrt: it only picks the next pair, and the result is the
        midpoint of the adjacent floats that g's sign test brackets, so
        numpy's cube root, which differs from it in the last bit at many
        points, gives the same t.  The result is a float for a 0-d x and an
        array shaped like x otherwise.
        """
        if isinstance(x, float) and math.isfinite(x):  # numpy's float64 is one
            return float(self._at_points(np.array([x]))[0])
        x = _finite(x)
        t = self._at_points(x.ravel())
        return float(t[0]) if x.ndim == 0 else t.reshape(x.shape)

    def _at_points(self, x):
        """`at` for a 1-d float64 array of points, solved together.

        The rounds are elementwise, so a point gets the bits of a solve for
        it alone.  The kernel keeps the state and the CDF's tree in one
        buffer (see ``tn_solve``) and runs every round in one call.  The
        result owns its memory."""
        n = x.size
        s = np.empty(6 + 11 * n + self._tree.size)
        # n, the points still solving, the round, the threshold, the secant's
        # target and the first estimate; the points, 10 rows of state, the tree
        s[:6] = n, n, 0, self.threshold, self._level, self._first
        s[6:6 + n] = x
        s[6 + 11 * n:] = self._tree
        KERNEL.tn_solve(address(s, s.shape))
        return s[6:6 + n].copy()  # each point's t in its place

    def derivative(self, x, t=None):
        """Closed-form derivative of t_n; undefined where t_n(x) hits x or 1-x.

        Uses the implicit-function form: with t = t_n(x),

            t'(x) = [p(x-t) 1(t<=x) - p(x+t) 1(t<=1-x)]
                    / [2 log(n)/(n t^3) + p(x+t) 1(t<=1-x) + p(x-t) 1(t<=x)].

        Vectorized; pass t = self.at(x) when it is at hand, to solve only
        once: t is read as x is, and must have x's shape
        (InvalidInputError otherwise).  A scalar x outside (0, 1) or within
        1e-6 of a kink raises NondifferentiablePointError; in an array such
        points are NaN.
        """
        x = _finite(x)
        t = _finite(self.at(x) if t is None else t)
        if t.shape != x.shape:
            raise InvalidInputError(f"t of shape {t.shape} for points of shape {x.shape}")
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

        x is read as `at` reads it: NaN, infinite and non-numeric points
        raise InvalidInputError.
        """
        x = _finite(x)
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
    _check_sizes("vanishing_density_bounds", 2, n)
    if not all(_is_finite(v) and v > 0 for v in (alpha, bound)):
        raise InvalidParameterError(f"vanishing_density_bounds needs finite alpha, bound > 0, "
                                    f"got alpha={alpha!r}, bound={bound!r}")
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
    min(sqrt(log n / (k* - 1)), r_k*).  The distances from x form two
    ascending runs, x - X_(i) for the points below x and X_(i) - x for the
    rest.  `at` finds k* by binary search and decides each probe by
    counting: with phi_k = sqrt(log n / k), r_k >= phi_k exactly when fewer
    than k distances lie below phi_k.  Then it selects r_k* once, by a
    binary search over how many of the k* smallest come from the first run.
    Each distance is the same float subtraction as |X_i - x|, so the result
    is exact.  Cost per call: O(G log^2 n) time and O(G) memory for G points
    x, after the O(n log n) sort of the points at construction.  The object
    holds the n sorted points and nothing else n-sized: phi_k is computed
    for the G values of k that a probe or the result needs, the same float
    operations as a table of all n would make.

    `at` runs in C (``emp_spread`` in ``_sweep.c``): float subtraction is
    monotone, so each count is a bisection on its float test.  The kernel
    reads the points as sorted and at least 2, as the constructor leaves them.
    """

    def __init__(self, points):
        pts = np.sort(_finite(points))
        if pts.ndim != 1 or pts.size < 2:
            raise InvalidParameterError("empirical spread needs at least 2 points")
        self.points = pts
        self.n = pts.size

    def at(self, x):
        x = _finite(x)
        xs, out, n = x.ravel(), np.empty(x.shape), self.n
        KERNEL.emp_spread(address(self.points, (n,)), n, np.log(n), address(xs, (xs.size,)),
                          xs.size, address(out, x.shape))
        return float(out.flat[0]) if x.ndim == 0 else out
