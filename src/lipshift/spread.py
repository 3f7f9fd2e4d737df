"""The spread function t_n and its empirical counterpart.

t_n(x) is the unique positive solution of

    t^2 * P([x - t, x + t] \\cap [0, 1]) = log(n) / n.

Since both factors are nondecreasing in t, g(t) = t^2 P([x +- t]) is
nondecreasing, so a bracket [lo, hi] with g(lo) < log n / n <= g(hi) (or
hi = 1) pins the (smallest, hence the) solution.  `SpreadFunction.at`
shrinks that bracket with paired secant steps on g^(1/3) until lo and hi are
adjacent floats, in one numpy loop for two or more points and in Python
floats for one, with the same iterates and result; the numpy loop takes a
threshold per point, so one loop can solve for several n.  The empirical
version finds its crossing index by counting sample points within each
candidate distance and selects one order statistic of the distances, both
over the sorted sample and exact, in the C library that ``lipfit`` loads
(in Python floats where it did not load).  Both evaluators take x of any
shape and return a float for a 0-d x, else an array shaped like x.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from . import lipfit
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


def _next_float(x, step):
    """np.nextafter(x, inf) (step = 1) for a float64 array x >= 0, +0.0 but
    not -0.0, or np.nextafter(x, -inf) (step = -1) for x > 0: there it is
    the neighbouring integer of x's bit pattern, and one integer add costs
    a tenth of np.nextafter."""
    return (x.view(np.int64) + step).view(np.float64)


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

        The solve is chosen by input size.  One point runs the rounds in
        Python floats, since numpy's per-call cost dominates on short
        arrays; each round makes one unit-CDF call on the four ends of the
        pair's intervals and forms `interval_mass` in floats, so it computes
        the same iterates, and returns the same float, as the vector loop
        does for that point.  A finite float x (numpy's float64 is one) goes
        to it without the array conversion and checks.  Two or more points
        run the vector loop on the flattened x.  The result is a float for a
        0-d x and an array shaped like x otherwise.
        """
        if isinstance(x, float) and math.isfinite(x):
            return self._at_point(float(x))
        x = _finite(x)
        if x.size == 1:
            t = self._at_point(x.item())
            return t if x.ndim == 0 else np.full(x.shape, t)
        return self._at_points(x.ravel()).reshape(x.shape)

    def _at_point(self, x):
        """`at` for one point given as a float: the rounds of `_at_points`
        with each numpy op on a length-1 array replaced by its float form.
        g(a) and g(b) come from one unit-CDF call on x +- a and x +- b, each
        clipped to [0, 1] in floats (x +- t is never -0.0 or NaN), then t t
        max(0.0, F_hi - F_lo): `interval_mass` in floats (max(0.0, .)
        returns 0.0 on a tie, as np.maximum does).  Only the unit CDF and
        np.cbrt see arrays."""
        cdf, thr = self.distribution.unit_cdf, float(self.threshold)
        level = float(np.cbrt(thr))
        lo, hi = math.sqrt(thr) * (1.0 - 1e-9), 1.0
        est = float(np.cbrt(0.5 * thr))
        half, before = 0.5 * est, math.inf
        for _ in range(200):
            t = 0.5 * (lo + hi)
            if t == lo or t == hi:
                return t
            inner_lo, inner_hi = math.nextafter(lo, hi), math.nextafter(hi, lo)
            a = min(max(est - half, inner_lo), inner_hi)
            b = max(est + half, math.nextafter(est, math.inf))
            b = min(max(b, inner_lo), inner_hi)
            f_hi_a, f_hi_b, f_lo_a, f_lo_b = cdf(np.array(
                [0.0 if e < 0.0 else 1.0 if e > 1.0 else e
                 for e in (x + a, x + b, x - a, x - b)])).tolist()
            ga = a * a * max(0.0, f_hi_a - f_lo_a)
            gb = b * b * max(0.0, f_hi_b - f_lo_b)
            ca, cb = np.cbrt(np.array([ga, gb])).tolist()
            a_below, b_below = ga < thr, gb < thr
            lo2 = (b if b_below else a) if a_below else lo
            hi2 = (hi if b_below else b) if a_below else a
            secant = a + (level - ca) * (b - a) / (cb - ca) if cb != ca else math.nan
            if not lo2 < secant < hi2:  # no usable secant: step past the pair
                secant = b + 2.0 * (b - a) if b_below else a - 2.0 * (b - a)
            step = abs(secant - est)
            half = 0.5 * step if a_below and not b_below else 2.0 * max(half, step)
            slow = hi2 - lo2 > 0.5 * before
            est = min(max(0.5 * (lo2 + hi2) if slow else secant, lo2), hi2)
            if slow:
                half = 0.25 * (hi2 - lo2)
            before, lo, hi = hi - lo, lo2, hi2
        return 0.5 * (lo + hi)

    def _at_points(self, x, thr=None):
        """`at` for a 1-d array of points, solved together: each round makes
        one `interval_mass` call for every point still solving.

        Each point carries its own threshold log(n) / n, from thr, an array
        like x, or self.threshold for all when thr is None, and its own
        secant target cbrt(threshold).  The rounds are elementwise, so a
        point gets the iterates, and the bits, of a solve for its n alone:
        one call solves the grids of several n, each point with the
        `threshold` of its n, for one call's numpy overhead per round."""
        d = self.distribution
        thr = np.full_like(x, self.threshold) if thr is None else thr
        level = np.cbrt(thr)  # the secant's target on g^(1/3)
        out = np.empty_like(x)
        todo = np.arange(x.size)  # the points still solving; the arrays below follow it
        lo = np.sqrt(thr) * (1.0 - 1e-9)
        hi = np.ones_like(x)
        est = np.cbrt(0.5 * thr)  # the root for p = 1
        half = 0.5 * est
        before = np.full_like(x, np.inf)  # bracket width at the start of the last round
        for _ in range(200):
            t = 0.5 * (lo + hi)
            done = (t == lo) | (t == hi)
            if done.any():
                out[todo[done]] = t[done]
                keep = ~done
                todo, lo, hi, est, half, before, thr, level = (
                    v[keep] for v in (todo, lo, hi, est, half, before, thr, level))
            if todo.size == 0:
                break
            inner = _next_float(lo, 1), _next_float(hi, -1)
            a = np.minimum(np.maximum(est - half, inner[0]), inner[1])
            b = np.maximum(est + half, _next_float(est, 1))
            b = np.minimum(np.maximum(b, inner[0]), inner[1])
            pair, xi = np.concatenate([a, b]), x[np.concatenate([todo, todo])]
            g = pair**2 * interval_mass(d, xi - pair, xi + pair)
            ga, gb = g[: todo.size], g[todo.size:]
            a_below, b_below = ga < thr, gb < thr
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
        return out

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

    `at` runs in C (``emp_spread`` in ``_sweep.c``), or where the kernel did
    not load in `_search`, its line-for-line copy in Python floats: float
    subtraction is monotone, so each count is a bisection on its float test.
    """

    def __init__(self, points):
        pts = np.sort(_finite(points))
        if pts.ndim != 1 or pts.size < 2:
            raise InvalidParameterError("empirical spread needs at least 2 points")
        self.points = pts
        self.n = pts.size

    def at(self, x):
        x = _finite(x)
        if lipfit._KERNEL is None:
            out = self._search(x)
        else:
            out = _kernel_spread(self.points, x)
        return float(out.flat[0]) if x.ndim == 0 else out

    def _search(self, x):
        """`at` for a float array x in Python floats, point by point: the C
        kernel's fallback and its reference, ``emp_spread`` line for line."""
        p, n = memoryview(self.points), self.n
        log_n = float(np.log(n))  # the kernel's, whose last bit libm's log need not share
        out = []
        for v in x.ravel().tolist():
            s = bisect_left(p, v)
            lo, hi = 1, n + 1  # k* in [1, n + 1]; n + 1: r_k < sqrt(log n / k) for all k
            while lo < hi:
                k = (lo + hi) // 2
                if k > n or _count_closer(p, s, v, math.sqrt(log_n / k)) < k:
                    hi = k
                else:
                    lo = k + 1
            r = _kth_distance(p, s, v, hi) if hi <= n else math.inf
            cap = math.sqrt(log_n / (hi - 1)) if hi >= 2 else math.inf
            out.append(r if r < cap else cap)
        return np.array(out, float).reshape(x.shape)


def _count_closer(p, s, x, phi):
    """#{i : x - p_i < phi} over the sorted points p below index s plus
    #{i : p_i - x < phi} over the rest, ``count_closer`` in C: fl(p_i - x)
    = -fl(x - p_i), so the first test is p_i - x > -phi, and each run is a
    bisection on p_i - x."""
    d = lambda v: v - x  # noqa: E731
    return bisect_left(p, phi, s, len(p), key=d) - bisect_right(p, -phi, 0, s, key=d)


def _kth_distance(p, s, x, k):
    """The k-th smallest |p_i - x| (1 <= k <= n), ``kth_distance`` in C: a
    bisection over how many of the k smallest lie below index s."""
    n = len(p)
    lo, hi = max(k - (n - s), 0), min(k, s)
    while lo < hi:
        i = (lo + hi) // 2
        if x - p[s - 1 - i] >= p[s + k - 1 - i] - x:
            hi = i
        else:
            lo = i + 1
    left = x - p[s - hi] if hi > 0 else -math.inf
    right = p[s + k - 1 - hi] - x if hi < k else -math.inf
    return left if left > right else right


def _kernel_spread(points, x):
    """`EmpiricalSpread._search`'s result by the C kernel, with its bits, as
    an array shaped like x: points sorted, C-contiguous float64 (n >= 2) and
    x a float64 array."""
    n = len(points)
    # the kernel reads raw memory: check what it assumes
    if not (n >= 2 and points.shape == (n,) and points.dtype == x.dtype == np.float64
            and points.flags.c_contiguous):
        raise ValueError("the C empirical spread needs C-contiguous float64 points (n >= 2) "
                         "and float64 x")
    xs = np.ascontiguousarray(x).ravel()
    out = np.empty(x.shape)
    lipfit._KERNEL.emp_spread(points.ctypes.data, n, np.log(n), xs.ctypes.data, xs.size,
                              out.ctypes.data)
    return out
